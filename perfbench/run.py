#!/usr/bin/env python3
"""FDW benchmark runner.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `fdw-perfbench` package (into
`$CARGO_TARGET_DIR`, default `.bench_build`) with the repository's own cargo
configuration, then measures one workload in fresh child processes:

* `--trace 0` prints the end-to-end metrics. The run budget of `--seconds`
  is split over several children; each sets the workload up, then runs
  passes of its run phase. A share of the budget goes to set-up-only
  children, started between the others so that set-up is sampled in many
  processes across the whole run.
  `run_s` and `work_per_s` are medians over all passes, `setup_s` the
  median over all set-ups, and `peak_rss_mb` the median of the peak
  resident sets of the children that ran passes.
* `--trace 1` prints the per-layer metrics of one traced pass, taken from
  spans the benchmark records around its calls into each layer. It also
  runs untraced passes (for `trace.overhead_frac`) and, for the live
  campaign and the service, a second traced pass at the other thread count
  (one or two) for every `speedup_2t`.

Every pass is gated: no operation may fail, every pass of a run must give
the same output digest, traced and untraced digests must agree, and at the
default seed the digest must equal the one committed in `golden.json`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The line before it holds
the host record (CPU model, nproc, revision, reference-loop times), and
`.bench_out/` holds each run's full record and, for traced runs, its spans.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
CHILD_TIMEOUT_S = 150

# threads: FDW_THREADS of every child, and the service DES's threads. Both
#   threaded workloads run on one thread. The vendored rayon forks an OS
#   thread per join, so on a two-vCPU host shared with other tenants the
#   two-thread times follow the neighbours: the live set-up went from 0.35 s
#   to 0.67 s within two minutes at two threads while it went from 0.30 s to
#   0.36 s at one, and ten seeds of the service spread 42 % at two threads.
#   The traced run prices two threads in every `speedup_2t`.
# children: processes that run passes; the run budget is split over them
#   and each pays the set-up.
# setup_budget_s: set-ups repeated in one child until this is spent.
# setup_share: share of the run budget spent in set-up-only children. The
#   live campaign's factorisation is cached per process, so a child sets it
#   up only once; the service's set-up time is set per process (per-process
#   medians of 8 to 14 us, in runs of several processes in a row), so many
#   processes must sample it.
# speedup: the traced run repeats at the other thread count (1 or 2) for
#   every `speedup_2t`.
WORKLOADS = {
    "live_campaign": dict(threads=1, children=5, setup_budget_s=0.0, setup_share=0.15,
                          speedup=True),
    "grid_sweep": dict(threads=1, children=4, setup_budget_s=0.3, setup_share=0.0,
                       speedup=False),
    "service_overload": dict(threads=1, children=8, setup_budget_s=0.3, setup_share=0.03,
                             speedup=True),
    "burst_replay": dict(threads=1, children=4, setup_budget_s=0.6, setup_share=0.0,
                         speedup=False),
}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = env["CARGO_TARGET_DIR"]
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed")
    exe = os.path.join(target if os.path.isabs(target) else os.path.join(ROOT, target),
                       "release", "fdw-perfbench")
    if not os.path.isfile(exe):
        fail(f"no binary at {exe}")
    return exe


def child_env(threads):
    # A fresh environment: FDW_THREADS is read once per process, and
    # nothing from the caller (RAYON_NUM_THREADS included) may leak in.
    return {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "FDW_THREADS": str(threads)}


def run_child(exe, args, threads):
    try:
        p = subprocess.run([exe] + args, cwd=ROOT, env=child_env(threads),
                           capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"child {' '.join(args)} ran past {CHILD_TIMEOUT_S} s")
    if p.returncode != 0:
        fail(f"child {' '.join(args)} exited {p.returncode}: {p.stderr.strip()[-2000:]}")
    try:
        return json.loads(p.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        fail(f"child {' '.join(args)} printed no result")


def source_digest():
    """SHA-256 over the sources the benchmark builds from: identifies the
    code in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", ".cargo", "crates", "vendor", "perfbench"):
        path = os.path.join(ROOT, top)
        files = []
        if os.path.isfile(path):
            files = [path]
        else:
            for d, dirs, names in os.walk(path):
                dirs[:] = sorted(x for x in dirs if x not in ("target", "__pycache__"))
                files += [os.path.join(d, n) for n in sorted(names)
                          if n.endswith((".rs", ".toml", ".lock", ".py", ".json"))]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_revision():
    """HEAD of the repository at ROOT, or None when ROOT is not its top."""
    try:
        p = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = p.stdout.split()
    if p.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def host_record(exe):
    rec = json.loads(subprocess.run([exe, "host"], cwd=ROOT, env=child_env(1),
                                    capture_output=True, text=True, check=True,
                                    timeout=CHILD_TIMEOUT_S).stdout.strip().splitlines()[-1])
    rec["nproc"] = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    rec["git_revision"] = git_revision()
    rec["source_digest"] = source_digest()
    return rec


def golden_digest(workload, seed, size):
    if seed != DEFAULT_SEED or size != "full":
        return None
    with open(os.path.join(HERE, "golden.json")) as fh:
        return json.load(fh).get(workload)


class Gates:
    """Collects operation counts and gate failures across children."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = set()

    def passes(self, child):
        for p in child["passes"]:
            self.attempted += p["attempted"]
            self.failed += p["failed"]
            self.problems += p["errors"]
            self.digests.add(p["digest"])
        if child.get("setup_factor_misses", 1) != 1:
            self.problems.append(f"set-up factorised {child['setup_factor_misses']} times, want 1")
        if child["fdw_threads"] != child["want_threads"]:
            self.problems.append(f"child ran {child['fdw_threads']} threads, "
                                 f"want {child['want_threads']}")

    def check_digest(self, golden):
        if len(self.digests) != 1:
            self.problems.append(f"passes disagree: digests {sorted(self.digests)}")
        elif golden is not None and golden not in self.digests:
            self.problems.append(f"digest {next(iter(self.digests))} != committed {golden}")

    @property
    def correct(self):
        return not self.problems and self.failed == 0


def spawn(exe, gates, workload, seed, size, threads, budget_s, setup_budget_s,
          trace=False, spans=None):
    """Run one child and account its passes."""
    args = ["child", "--workload", workload, "--seed", str(seed), "--size", size,
            "--threads", str(threads), "--budget-s", f"{budget_s:.3f}",
            "--setup-budget-s", f"{setup_budget_s:.3f}", "--trace", "1" if trace else "0"]
    if spans:
        args += ["--spans", spans]
    c = run_child(exe, args, threads)
    c["want_threads"] = threads
    gates.passes(c)
    return c


def end_to_end(exe, workload, seed, seconds, size, gates):
    w = WORKLOADS[workload]
    setup_gap_s = seconds * w["setup_share"] / w["children"]
    run_budget_s = seconds * (1.0 - w["setup_share"]) / w["children"]
    children, setup_only = [], []
    for _ in range(w["children"]):
        gap_end = time.monotonic() + setup_gap_s
        while time.monotonic() < gap_end:
            setup_only.append(spawn(exe, gates, workload, seed, size, w["threads"], 0.0,
                                    w["setup_budget_s"]))
        children.append(spawn(exe, gates, workload, seed, size, w["threads"], run_budget_s,
                              w["setup_budget_s"]))
    passes = [p for c in children for p in c["passes"]]
    setups = [s for c in children + setup_only for s in c["setup_s"]]
    metrics = {
        "run_s": (statistics.median(p["run_s"] for p in passes), "s"),
        "work_per_s": (statistics.median(p["units"] / p["run_s"] for p in passes), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(c["peak_rss_kib"] for c in children) / 1024.0, "MiB"),
    }
    return metrics, children + setup_only


# Per-layer metrics: (name, unit, how to read it from a traced child).
# `lay(name, field)` reads a span layer's time, `cnt(key)` a counter. `tw`
# is the traced child at the workload's own thread count; `t1` and `t2` are
# the traced children at one and two threads, when both ran.
def layer_table(tw, t1, t2, untraced_run_s, workload):
    def lay(name, field="self_s", child=None):
        return (child or tw).get("layers", {}).get(name, {}).get(field, 0.0)

    def cnt(key):
        return tw.get("counts", {}).get(key, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    def speedup(name):
        return ratio(lay(name, child=t1), lay(name, child=t2)) if t1 and t2 else 0.0

    runs = cnt("htcsim.cluster.runs")
    svc_runs = cnt("fdw_service.engine.runs")
    store_lookups = cnt("fdw_service.store.hits") + cnt("fdw_service.store.misses")
    comparable = cnt("trace.comparable_s") or lay("run", "total_s")
    if workload == "grid_sweep":
        covered = sum(lay(n, "total_s") for n in
                      ("fdw_core.phases", "htcsim.cluster", "dagman.monitor"))
        unattributed = 1.0 - ratio(covered, lay("fdw_core.workflow", "total_s"))
    else:
        unattributed = ratio(lay("run"), lay("run", "total_s"))
    s, n, r, b = "s", "count", "ratio", "B"
    return [
        ("fakequakes.distance.busy_s", s, lay("fakequakes.distance")),
        ("fakequakes.distance.speedup_2t", r, speedup("fakequakes.distance")),
        ("fakequakes.stochastic.busy_s", s, lay("fakequakes.stochastic")),
        ("fakequakes.stochastic.speedup_2t", r, speedup("fakequakes.stochastic")),
        ("fakequakes.greens.busy_s", s, lay("fakequakes.greens")),
        ("fakequakes.greens.speedup_2t", r, speedup("fakequakes.greens")),
        ("fakequakes.rupture.busy_s", s, lay("fakequakes.rupture")),
        ("fakequakes.rupture.draws", n, cnt("fakequakes.rupture.draws")),
        ("fakequakes.waveform.busy_s", s, lay("fakequakes.waveform")),
        ("fakequakes.waveform.samples", n, cnt("fakequakes.waveform.samples")),
        ("fakequakes.waveform.speedup_2t", r, speedup("fakequakes.waveform")),
        ("fakequakes.artifacts.encode_s", s, lay("fakequakes.artifacts.encode")),
        ("fakequakes.artifacts.decode_s", s, lay("fakequakes.artifacts.decode")),
        ("fakequakes.artifacts.bytes_out", b, cnt("fakequakes.artifacts.bytes_out")),
        ("fakequakes.artifacts.bytes_in", b, cnt("fakequakes.artifacts.bytes_in")),
        ("fakequakes.factor_cache.hits", n, cnt("fakequakes.factor_cache.hits")),
        ("fakequakes.factor_cache.misses", n, cnt("fakequakes.factor_cache.misses")),
        ("fdw_core.phases.busy_s", s, lay("fdw_core.phases")),
        ("fdw_core.phases.nodes", n, cnt("fdw_core.phases.nodes")),
        ("fdw_core.workflow.busy_s", s, lay("fdw_core.workflow")),
        ("fdw_core.service.busy_s", s, lay("fdw_core.service")),
        ("fdw_core.service.ruptures", n, cnt("fdw_core.service.ruptures")),
        ("fdw_core.service.factorisations", n, cnt("fdw_core.service.factorisations")),
        ("fdw_service.engine.busy_s", s, lay("fdw_service.engine")),
        ("fdw_service.engine.events", n, cnt("fdw_service.engine.events")),
        ("fdw_service.engine.requests", n, cnt("fdw_service.engine.requests")),
        ("fdw_service.engine.completed", n, cnt("fdw_service.engine.completed")),
        ("fdw_service.engine.rejected", n, cnt("fdw_service.engine.rejected")),
        ("fdw_service.engine.shed", n, cnt("fdw_service.engine.shed")),
        ("fdw_service.engine.degraded", n, cnt("fdw_service.engine.degraded")),
        ("fdw_service.engine.breaker_opens", n, cnt("fdw_service.engine.breaker_opens")),
        ("fdw_service.engine.goodput_frac", r,
         ratio(cnt("fdw_service.engine.goodput_frac_sum"), svc_runs)),
        ("fdw_service.engine.speedup_2t", r, speedup("fdw_service.engine")),
        ("fdw_service.store.hits", n, cnt("fdw_service.store.hits")),
        ("fdw_service.store.cross_tenant_hits", n, cnt("fdw_service.store.cross_tenant_hits")),
        ("fdw_service.store.quarantines", n, cnt("fdw_service.store.quarantines")),
        ("fdw_service.store.evictions", n, cnt("fdw_service.store.evictions")),
        ("fdw_service.store.hit_ratio", r, ratio(cnt("fdw_service.store.hits"), store_lookups)),
        ("htcsim.cluster.self_s", s, lay("htcsim.cluster")),
        ("htcsim.cluster.events", n, cnt("htcsim.cluster.events")),
        ("htcsim.cluster.cycles", n, cnt("htcsim.cluster.cycles")),
        ("htcsim.cluster.jobs", n, cnt("htcsim.cluster.jobs")),
        ("htcsim.cluster.cache_hit_rate", r,
         ratio(cnt("htcsim.cluster.cache_hit_rate_sum"), runs)),
        ("htcsim.federation.breaker_opens", n, cnt("htcsim.federation.breaker_opens")),
        ("htcsim.federation.migrations", n, cnt("htcsim.federation.migrations")),
        ("htcsim.federation.resumes", n, cnt("htcsim.federation.resumes")),
        ("htcsim.condor_log.busy_s", s, lay("htcsim.condor_log")),
        ("htcsim.condor_log.bytes", b, cnt("htcsim.condor_log.bytes")),
        ("dagman.driver.busy_s", s, lay("dagman.driver")),
        ("dagman.driver.polls", n, cnt("dagman.driver.polls")),
        ("dagman.driver.submits", n, cnt("dagman.driver.submits")),
        ("dagman.monitor.busy_s", s, lay("dagman.monitor")),
        ("fdw_obs.registry.overhead_frac", r,
         ratio(cnt("fdw_obs.registry.metrics_only_s"), cnt("fdw_obs.registry.disabled_s")) - 1.0
         if cnt("fdw_obs.registry.disabled_s") else 0.0),
        ("vdc_burst.records.busy_s", s, lay("vdc_burst.records")),
        ("vdc_burst.records.jobs", n, cnt("vdc_burst.records.jobs")),
        ("vdc_burst.simulator.busy_s", s, lay("vdc_burst.simulator")),
        ("vdc_burst.simulator.calls", n, cnt("vdc_burst.simulator.calls")),
        ("vdc_burst.simulator.sim_seconds", n, cnt("vdc_burst.simulator.sim_seconds")),
        ("vdc_burst.simulator.bursted_jobs", n, cnt("vdc_burst.simulator.bursted_jobs")),
        ("vdc_burst.report.busy_s", s, lay("vdc_burst.report")),
        ("vdc_burst.report.bytes", b, cnt("vdc_burst.report.bytes")),
        ("trace.overhead_frac", r, ratio(comparable, untraced_run_s) - 1.0),
        ("trace.unattributed_frac", r, unattributed),
    ]


def declared_per_layer():
    """The per-layer metric names BENCHMARK.json declares, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)["per_layer"]]


def traced(exe, workload, seed, seconds, size, gates, out_dir):
    w = WORKLOADS[workload]
    # The untraced reference for the tracing overhead.
    ref = spawn(exe, gates, workload, seed, size, w["threads"], seconds / 2, 0.0)
    untraced_run_s = statistics.median(p["run_s"] for p in ref["passes"])

    def traced_child(threads):
        spans = os.path.join(out_dir, f"spans-{workload}-seed{seed}-t{threads}.jsonl")
        return spawn(exe, gates, workload, seed, size, threads, 0.0, 0.0, True, spans)

    by_threads = {w["threads"]: traced_child(w["threads"])}
    if w["speedup"]:
        other = 3 - w["threads"]
        by_threads[other] = traced_child(other)
    tw = by_threads[w["threads"]]
    table = {name: (value, unit) for name, unit, value in
             layer_table(tw, by_threads.get(1), by_threads.get(2), untraced_run_s, workload)}
    metrics = {name: table[name] for name in declared_per_layer()}
    return metrics, [ref] + list(by_threads.values()), table


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a seconds-scale shape for the benchmark's own tests")
    a = ap.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        fail("--seed must be non-negative and --seconds positive")

    exe = build()
    host = host_record(exe)
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    gates = Gates()
    layers = None
    if a.trace:
        metrics, children, layers = traced(exe, a.workload, a.seed, a.seconds, a.size, gates,
                                           out_dir)
    else:
        metrics, children = end_to_end(exe, a.workload, a.seed, a.seconds, a.size, gates)
    gates.check_digest(golden_digest(a.workload, a.seed, a.size))

    record = {"workload": a.workload, "seed": a.seed, "seconds": a.seconds, "trace": a.trace,
              "size": a.size, "host": host, "children": children, "layers": layers,
              "digests": sorted(gates.digests), "problems": gates.problems}
    tag = f"{a.workload}-seed{a.seed}-trace{a.trace}-{a.size}"
    with open(os.path.join(out_dir, f"run-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for p in gates.problems:
        print(f"perfbench: gate: {p}", file=sys.stderr)

    threads = sorted({c["fdw_threads"] for c in children})
    print(json.dumps({"host": host, "threads": threads, "digest": sorted(gates.digests)}))
    print(json.dumps({
        "correct": gates.correct,
        "attempted": gates.attempted,
        "failed": gates.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
