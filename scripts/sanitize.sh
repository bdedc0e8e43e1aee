#!/usr/bin/env bash
# Opt-in dynamic determinism pass (DESIGN.md §9) — the runtime complement
# of the static `fdwlint` gate. Two kinds of stage:
#
#   1. Thread-count determinism smokes: run the artifact-writing science
#      path, the failover and overload ablations and the simd kernel
#      chain at FDW_THREADS ∈ {1, 2, 8} and byte-compare every `.npy` and
#      `.mseed` product, BENCH report and digest across thread counts.
#      Parallel must equal sequential bitwise, all the way down to the
#      serialised bytes; any mismatch fails.
#   2. ThreadSanitizer over the parallel kernels — requires a nightly
#      toolchain with the rust-src component; skipped (with a notice,
#      exit 0) when unavailable, so the script is safe to run anywhere.
#
# Not part of scripts/ci.sh: run it by hand or from a scheduled job.
# (A cargo-test promotion of the byte-compare idea runs on every push:
# htcsim/tests/des_differential.rs re-runs the golden scenarios across
# the FDW_THREADS × shards matrix in-process and via subprocesses.)
set -euo pipefail
cd "$(dirname "$0")/.."

# Report a byte mismatch between FDW_THREADS=1 and a higher thread count.
# Every mismatch fails: no nondeterministic flow into a serialized sink is
# allowed, so fdwlint reports any it can see.
#   mismatch <artifact> <threads>  -> sets fail=1
mismatch() {
  echo "  BYTE MISMATCH: $1 differs between FDW_THREADS=1 and FDW_THREADS=$2"
  echo "    run 'cargo run -p fdwlint' to look for a nondeterministic dataflow"
  fail=1
}

echo "==> thread-count determinism smoke (FDW_THREADS 1/2/8)"
SMOKE_ROOT="$PWD/target/sanitize"
rm -rf "$SMOKE_ROOT"
for n in 1 2 8; do
  dir="$SMOKE_ROOT/threads-$n"
  mkdir -p "$dir"
  echo "  -> FDW_THREADS=$n"
  # fakequakes::par sizes its fan-out from the Rayon pool, so the
  # suite's FDW_THREADS knob maps onto RAYON_NUM_THREADS; the example
  # writes its products under \$TMPDIR.
  FDW_THREADS="$n" RAYON_NUM_THREADS="$n" TMPDIR="$dir" \
    cargo run -q --release --example chile_catalog >/dev/null
done

baseline_dir="$SMOKE_ROOT/threads-1/fdw_chile_catalog"
artifacts=$(cd "$baseline_dir" && ls ./*.npy ./*.mseed)
[ -n "$artifacts" ] || { echo "no .npy/.mseed artifacts produced"; exit 1; }
fail=0
for n in 2 8; do
  for f in $artifacts; do
    cmp -s "$baseline_dir/$f" "$SMOKE_ROOT/threads-$n/fdw_chile_catalog/$f" \
      || mismatch "$f" "$n"
  done
  echo "  -> threads-$n vs threads-1: $(echo "$artifacts" | wc -w) artifact(s) compared"
done
[ "$fail" -eq 0 ] || { echo "thread-count determinism smoke FAILED"; exit 1; }
echo "  byte-identical across FDW_THREADS 1/2/8."

echo "==> failover-path determinism (FDW_THREADS 1/2/8, BENCH_failover bytes)"
# The failover ablation digests its science products in-binary and embeds
# makespans, badput and federation counters in its JSON: byte-comparing
# the report across thread counts pins the whole federated path — sim,
# controller, and the rayon-parallel science kernels behind the digest.
for n in 1 2 8; do
  echo "  -> FDW_THREADS=$n"
  FDW_SMOKE=1 FDW_THREADS="$n" RAYON_NUM_THREADS="$n" \
    FDW_BENCH_OUT="$SMOKE_ROOT/failover-threads-$n.json" \
    cargo run -q -p fdw-bench --release --bin failover_ablation >/dev/null
done
for n in 2 8; do
  if ! cmp -s "$SMOKE_ROOT/failover-threads-1.json" \
              "$SMOKE_ROOT/failover-threads-$n.json"; then
    mismatch "BENCH_failover" "$n"
  fi
done
[ "$fail" -eq 0 ] || { echo "failover-path determinism smoke FAILED"; exit 1; }
echo "  failover report byte-identical across FDW_THREADS 1/2/8."

echo "==> service-path determinism (FDW_THREADS 1/2/8, BENCH_service bytes)"
# The overload ablation runs every arm twice across DES thread and
# executor-shard counts, folds the completed campaigns' rupture draws
# through the shared-store and isolated science passes, and embeds every
# decision counter and digest in its JSON: byte-comparing the report
# across thread counts pins the whole multi-tenant front-end path — the
# admission/shedding decisions, the artifact store, and the rayon-
# parallel factorisations behind the science digest.
for n in 1 2 8; do
  echo "  -> FDW_THREADS=$n"
  FDW_SMOKE=1 FDW_THREADS="$n" RAYON_NUM_THREADS="$n" \
    FDW_BENCH_OUT="$SMOKE_ROOT/service-threads-$n.json" \
    cargo run -q -p fdw-bench --release --bin overload_ablation >/dev/null
done
for n in 2 8; do
  if ! cmp -s "$SMOKE_ROOT/service-threads-1.json" \
              "$SMOKE_ROOT/service-threads-$n.json"; then
    mismatch "BENCH_service" "$n"
  fi
done
[ "$fail" -eq 0 ] || { echo "service-path determinism smoke FAILED"; exit 1; }
echo "  service report byte-identical across FDW_THREADS 1/2/8."

echo "==> simd kernel-chain determinism (FDW_THREADS 1/2/8, bench_snapshot digest)"
# bench_snapshot's child mode folds every laned/blocked kernel output —
# distance matrices, von Kármán covariance, Cholesky, matmul, matvec and
# the hoisted Green's functions — into one digest, an FNV-1a word step per
# value (`fdw_obs::digest::fnv1a_word`, DESIGN.md §5 and §13).
# Comparing that digest across thread counts pins the simd layer the same
# way the artifact byte-compare above pins the catalog path.
simd_ref=""
for n in 1 2 8; do
  d=$(FDW_BENCH_CHILD=digest FDW_SMOKE=1 FDW_THREADS="$n" RAYON_NUM_THREADS="$n" \
    cargo run -q -p fdw-bench --release --bin bench_snapshot)
  echo "  -> FDW_THREADS=$n: $d"
  case "$d" in digest=*) : ;; *)
    echo "  bench_snapshot child printed no digest"; exit 1 ;; esac
  if [ -z "$simd_ref" ]; then
    simd_ref="$d"
  elif [ "$d" != "$simd_ref" ]; then
    echo "  DIGEST MISMATCH: simd kernel chain differs at FDW_THREADS=$n"
    fail=1
  fi
done
[ "$fail" -eq 0 ] || { echo "simd kernel-chain determinism smoke FAILED"; exit 1; }
echo "  simd kernel digest identical across FDW_THREADS 1/2/8."

echo "==> ThreadSanitizer (nightly, opt-in)"
if ! command -v rustup >/dev/null 2>&1; then
  echo "  rustup not installed — skipping TSan stage."
  exit 0
fi
if ! rustup toolchain list 2>/dev/null | grep -q nightly; then
  echo "  no nightly toolchain installed — skipping TSan stage."
  echo "  (install with: rustup toolchain install nightly --component rust-src)"
  exit 0
fi
if ! rustup component list --toolchain nightly 2>/dev/null \
    | grep -q '^rust-src (installed)'; then
  echo "  nightly lacks rust-src (needed for -Zbuild-std) — skipping TSan stage."
  echo "  (install with: rustup component add rust-src --toolchain nightly)"
  exit 0
fi
host=$(rustc -vV | sed -n 's/^host: //p')
echo "  running TSan over the parallel kernels (fakequakes) on $host..."
RUSTFLAGS="-Zsanitizer=thread" RUSTDOCFLAGS="-Zsanitizer=thread" \
  cargo +nightly test -Zbuild-std --target "$host" -p fakequakes --lib
echo "  running TSan over the sharded DES event loop (htcsim) on $host..."
# The des module's epoch-parallel lane drain is the only fork-join in
# the simulator; its unit tests run it at up to 8 threads.
RUSTFLAGS="-Zsanitizer=thread" RUSTDOCFLAGS="-Zsanitizer=thread" \
  cargo +nightly test -Zbuild-std --target "$host" -p htcsim --lib des::
echo "sanitize pass green."
