#!/usr/bin/env bash
# Full local CI gate: build, test, lint, format. Run from the repo root;
# fails fast on the first broken stage.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test --workspace"
cargo test --workspace -q

echo "==> perfbench (own tests; each declared workload reproduces golden.json)"
# perfbench/golden.json pins the digest of each declared workload's
# full-size science. A short untraced run must end with "correct": true:
# every operation passed its gates and the digest equals the golden one.
# --include-ignored also runs grid_points_replay_byte_identically, which
# replays grid points on a churny pool twice and compares the bytes
# (about 0.1 s), so every cluster change is checked for replay.
cargo test --release -q --manifest-path perfbench/Cargo.toml -- --include-ignored
python3 -m unittest discover -s perfbench/tests -p 'test_*.py'
for w in $(python3 -c 'import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do
  last=$(python3 perfbench/run.py --workload "$w" --seed 1 --seconds 5 --trace 0 | tail -n 1)
  case "$last" in
    *'"correct": true'*) echo "  $w: correct" ;;
    *) echo "perfbench $w: not correct: $last"; exit 1 ;;
  esac
done

echo "==> perfbench DAGMan workloads (grid_sweep and burst_replay keep their seed-1 digests)"
# Neither declared workload runs the DAGMan driver; grid_sweep (the
# Fig. 2-4 sweep) and burst_replay do. Until both are declared with
# golden digests (ROADMAP item 4), their seed-1 digests are pinned here.
for spec in grid_sweep:9d4df1aca382c859 burst_replay:08a7cbbe826e72f2; do
  w=${spec%%:*} want=${spec##*:}
  tail2=$(python3 perfbench/run.py --workload "$w" --seed 1 --seconds 5 --trace 0 | tail -n 2)
  case "$tail2" in
    *"\"digest\": [\"$want\"]"*'"correct": true'*) echo "  $w: correct, digest $want" ;;
    *) echo "perfbench $w: want digest $want and \"correct\": true, got: $tail2"; exit 1 ;;
  esac
done

echo "==> fdwlint (token determinism lints + the two table rules)"
# One scan, no graph pass: each workspace source is lexed once, the token
# rules run over it line by line, and the two table rules check the
# parameter-file keys and the ULOG codes. Any finding or bad allow
# directive exits 1, with file:line diagnostics on stderr; the JSON
# report goes to the file. The release binary is already built; hold the
# stage to a 30s wall-time budget so it can never become the slow stage.
lint_t0=$(date +%s)
cargo run -q -p fdwlint --release -- --json > target/fdwlint.report.json
lint_wall=$(( $(date +%s) - lint_t0 ))
if [ "$lint_wall" -ge 30 ]; then
  echo "fdwlint stage took ${lint_wall}s — over the 30s budget; profile the scan"
  exit 1
fi
echo "  fdwlint wall time: ${lint_wall}s (budget 30s)"
cargo run -q -p fdw-bench --release --bin validate_trace -- \
  target/fdwlint.report.json

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> kernel and simulator bench smoke (compile + run benches in test mode)"
cargo bench -q -p fdw-bench --bench kernels -- --test
cargo bench -q -p fdw-bench --bench simulator -- --test

echo "==> telemetry smoke (FDW_SMOKE, FDW_OBS_DIR)"
OBS_DIR=target/obs-smoke
rm -rf "$OBS_DIR"
FDW_SMOKE=1 FDW_OBS_DIR="$OBS_DIR" \
  cargo run -q -p fdw-bench --release --bin table_headline >/dev/null
FDW_SMOKE=1 FDW_OBS_DIR="$OBS_DIR" \
  cargo run -q -p fdw-bench --release --bin chaos_matrix >/dev/null
cargo run -q -p fdw-bench --release --bin validate_trace -- --min-cats 4 \
  "$OBS_DIR"/chaos_matrix.trace.json \
  "$OBS_DIR"/chaos_matrix.metrics.json \
  "$OBS_DIR"/chaos_matrix.dag.metrics \
  "$OBS_DIR"/table_headline.metrics.json

# The three ablations run at full scale (seconds each) and must
# reproduce their committed BENCH file in everything but git_rev, so a
# change that moves a committed figure has to re-record that file. Each
# binary also exits 1 itself when one of its own gates fails.
bench_reproduces() { # <bin> <committed BENCH file>
  FDW_BENCH_OUT="target/$2" cargo run -q -p fdw-bench --release --bin "$1" >/dev/null
  local mask='s/"git_rev": *"[^"]*"/"git_rev": ""/'
  diff <(sed "$mask" "$2") <(sed "$mask" "target/$2") || {
    echo "$1: target/$2 differs from the committed $2 beyond git_rev"; exit 1; }
}

echo "==> defense ablation (defenses-on badput must not exceed defenses-off; reproduces BENCH_defenses.json)"
bench_reproduces defense_ablation BENCH_defenses.json

echo "==> failover ablation (failover-on must not lose time-to-done or badput; reproduces BENCH_failover.json)"
bench_reproduces failover_ablation BENCH_failover.json

echo "==> service overload (defended goodput >= undefended, science store-invariant; reproduces BENCH_service.json)"
# The binary exits 1 itself on any goodput loss, digest drift, dropped
# request or determinism break; re-check the two headline gates from the
# JSON so a silent gate regression in the binary can't pass CI.
bench_reproduces overload_ablation BENCH_service.json
grep -q '"science_store_invariant":false' target/BENCH_service.json && {
  echo "service overload: science digest drifted across store arms"; exit 1; }
grep -q '"deterministic":false' target/BENCH_service.json && {
  echo "service overload: service decisions vary across threads/shards"; exit 1; }
if grep -o '"unaccounted":[0-9]*' target/BENCH_service.json | grep -qv ':0$'; then
  echo "service overload: requests dropped without a terminal disposition"; exit 1
fi

# The host-dependent perf stages run last: where they fail (the kernel
# ratchet and the des-scaling smoke on hosts with 2+ vCPUs, ROADMAP item
# 1), every byte-level stage above has still run.
echo "==> perf snapshot smoke (FDW_SMOKE, reduced scale)"
FDW_SMOKE=1 FDW_BENCH_OUT=target/BENCH_kernels.smoke.json \
  cargo run -q -p fdw-bench --release --bin bench_snapshot >/dev/null

echo "==> kernel perf ratchet (fresh smoke vs committed BENCH_kernels.json)"
# The laned/blocked kernels must not quietly lose their speedups: the
# fresh FDW_SMOKE speedup of each headline kernel must stay above the
# committed figure minus tolerance — half the committed speedup, capped
# per kernel (absolute speedups grow with mesh size, so the full-scale
# committed number is an over-ask at smoke scale) and floored at 1.0x so
# "optimised" can never regress to "slower than the reference".
# symmetric_eigen_topk is deliberately absent: its ~1.2-1.7x win over the
# full eigensolve is inside measurement noise at smoke scale.
kernel_speedup() { # <file> <kernel> -> speedup of the first (primary-mesh) row
  awk -v k="$2" 'BEGIN { RS = "}" }
    index($0, "\"name\":\"" k "\"") && match($0, /"speedup":[0-9.]+/) {
      print substr($0, RSTART + 10, RLENGTH - 10); exit }' "$1"
}
for spec in assemble_covariance:3.0 matmul:1.8 cholesky:1.1 \
            distance_matrices:1.3 symmetric_eigen:5.0 \
            rupture_draw_end_to_end:5.0 gf_point_source_big_network:1.5; do
  k=${spec%%:*} cap=${spec##*:}
  committed=$(kernel_speedup BENCH_kernels.json "$k")
  fresh=$(kernel_speedup target/BENCH_kernels.smoke.json "$k")
  if [ -z "$committed" ] || [ -z "$fresh" ]; then
    echo "kernel ratchet: missing '$k' row (committed='$committed' fresh='$fresh')"
    exit 1
  fi
  awk -v c="$committed" -v f="$fresh" -v cap="$cap" -v k="$k" 'BEGIN {
    thr = c / 2; if (thr > cap) thr = cap; if (thr < 1.0) thr = 1.0
    if (f < thr) {
      printf "kernel ratchet: %s %.2fx below threshold %.2fx (committed %.2fx)\n", \
        k, f, thr, c
      exit 1
    }
    printf "  %-28s %8.2fx  (>= %.2fx, committed %.2fx)\n", k, f, thr, c
  }' || exit 1
done

echo "==> des-scaling smoke (sharded engine: identical digests, no slowdown)"
# The binary exits 1 itself on any digest mismatch or a sharded arm
# slower than the monolithic baseline; re-check the 2-thread arm from
# the JSON so a silent gate regression in the binary can't pass CI.
FDW_SMOKE=1 FDW_BENCH_OUT=target/BENCH_des.smoke.json \
  cargo run -q -p fdw-bench --release --bin des_scaling >/dev/null
grep -q '"digest_matches":false' target/BENCH_des.smoke.json && {
  echo "des-scaling smoke: digest mismatch in report"; exit 1; }
t2_speedup=$(grep -o '"label":"sharded-t2"[^}]*' target/BENCH_des.smoke.json \
  | grep -o '"speedup_vs_monolithic":[0-9.]*' | cut -d: -f2)
awk -v s="$t2_speedup" 'BEGIN { exit !(s >= 1.0) }' || {
  echo "des-scaling smoke: 2-thread speedup $t2_speedup < 1.0x vs monolithic"; exit 1; }

echo "CI green."
