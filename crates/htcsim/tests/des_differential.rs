//! Differential-determinism harness for the sharded DES engine.
//!
//! The contract under test: the number of event-queue shards and the
//! number of worker threads are *performance* knobs — neither may change
//! a single observable byte. Three layers of evidence:
//!
//! 1. **Scenario × shards** (in-process): every golden scenario from
//!    [`htcsim::scenarios`] re-run at shards ∈ {1, 4, 16} must render
//!    byte-identical ULOG text and metrics-registry JSON, and match the
//!    committed `tests/fixtures/*.log` bytes — the byte-compare step
//!    `scripts/sanitize.sh` used to own, promoted into tier-1 `cargo
//!    test`.
//! 2. **Engine × threads** (in-process): the synthetic `ShardedEngine`
//!    workload must produce the same [`EngineReport`] — events handled,
//!    makespan, digest — monolithic vs sharded at 1/2/4/8 threads.
//! 3. **Scenario × FDW_THREADS** (subprocess): the vendored Rayon shim
//!    reads `FDW_THREADS` once per process, so the thread-count axis is
//!    driven by re-spawning this test binary with the env var set to
//!    1/2/8 and comparing the digest lines the worker prints.

use std::collections::BTreeMap;
use std::process::Command;

use fdw_obs::digest::{fnv1a, DIGEST_INIT};
use fdw_obs::Obs;
use htcsim::condor_log::to_condor_log;
use htcsim::des::{synth_engine, SynthConfig};
use htcsim::scenarios;

/// A scenario builder from [`htcsim::scenarios`]: shards, telemetry in,
/// run report out.
type Scenario = fn(usize, Obs) -> htcsim::cluster::RunReport;

/// The golden scenarios, paired with their committed fixtures.
const SCENARIOS: [(&str, Scenario); 5] = [
    ("faulty_run", scenarios::faulty_run),
    ("holdback_run", scenarios::holdback_run),
    ("defended_run", scenarios::defended_run),
    ("failover_run", scenarios::failover_run),
    ("sharded_run", scenarios::sharded_run),
];

const SHARDS: [usize; 3] = [1, 4, 16];

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}.log", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing fixture {path}: {e}"))
}

#[test]
fn scenario_bytes_are_invariant_to_shard_count() {
    for (name, build) in SCENARIOS {
        let golden = fixture(name);
        for shards in SHARDS {
            let obs = Obs::enabled();
            let report = build(shards, obs.clone());
            let text = to_condor_log(&report.log);
            assert_eq!(
                text, golden,
                "{name}: ULOG bytes at shards={shards} deviate from the committed fixture"
            );
            // Metrics must not depend on shard count either; compare
            // against a fresh shards=1 run with its own registry.
            if shards != 1 {
                let base_obs = Obs::enabled();
                build(1, base_obs.clone());
                assert_eq!(
                    obs.registry_json(),
                    base_obs.registry_json(),
                    "{name}: metrics JSON differs between shards=1 and shards={shards}"
                );
            }
        }
    }
}

#[test]
fn engine_reports_are_invariant_to_thread_count() {
    let cfg = SynthConfig::smoke();
    let baseline = synth_engine(&cfg).run_monolithic();
    assert!(baseline.events > 0, "synthetic workload ran no events");
    for threads in [1usize, 2, 4, 8] {
        let got = synth_engine(&cfg).run_sharded(threads);
        assert_eq!(
            got, baseline,
            "sharded engine at {threads} thread(s) deviates from the monolithic baseline"
        );
    }
}

/// Worker half of the subprocess axis: when `DES_DIFF_ROLE=worker`, run
/// every scenario (at shards = 4, the committed-fixture generator count)
/// plus the synthetic engine sized from the live Rayon pool — the thing
/// `FDW_THREADS` actually steers — and print one digest line per probe.
/// A plain `cargo test` run (no env var) makes this a no-op.
#[test]
fn fdw_threads_worker() {
    if std::env::var("DES_DIFF_ROLE").as_deref() != Ok("worker") {
        return;
    }
    for (name, build) in SCENARIOS {
        let obs = Obs::enabled();
        let report = build(4, obs.clone());
        println!(
            "DESDIFF ulog.{name} {:#018x}",
            fnv1a(DIGEST_INIT, to_condor_log(&report.log).as_bytes())
        );
        println!(
            "DESDIFF metrics.{name} {:#018x}",
            fnv1a(DIGEST_INIT, obs.registry_json().as_bytes())
        );
    }
    let threads = rayon::current_num_threads().max(1);
    let rep = synth_engine(&SynthConfig::smoke()).run_sharded(threads);
    println!(
        "DESDIFF engine.smoke {:#018x} events={} makespan={}",
        rep.digest, rep.events, rep.makespan.0
    );
}

/// Driver half: spawn `fdw_threads_worker` at FDW_THREADS ∈ {1, 2, 8}
/// and require every digest line to be identical across thread counts.
#[test]
fn scenario_digests_are_invariant_to_fdw_threads() {
    let exe = std::env::current_exe().expect("current_exe");
    let mut per_thread: Vec<(u32, BTreeMap<String, String>)> = Vec::new();
    for n in [1u32, 2, 8] {
        let out = Command::new(&exe)
            .args(["fdw_threads_worker", "--exact", "--nocapture"])
            .env("DES_DIFF_ROLE", "worker")
            .env("FDW_THREADS", n.to_string())
            .env("RAYON_NUM_THREADS", n.to_string())
            .output()
            .expect("spawning worker");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(
            out.status.success(),
            "worker at FDW_THREADS={n} failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        // libtest glues its "test <name> ..." banner onto the first
        // probe line, so split on the marker anywhere in the line.
        let digests: BTreeMap<String, String> = stdout
            .lines()
            .filter_map(|l| l.split_once("DESDIFF ").map(|(_, rest)| rest))
            .filter_map(|l| {
                l.split_once(' ')
                    .map(|(k, v)| (k.to_string(), v.to_string()))
            })
            .collect();
        assert_eq!(
            digests.len(),
            SCENARIOS.len() * 2 + 1,
            "worker at FDW_THREADS={n} printed {} probes, want {}:\n{stdout}",
            digests.len(),
            SCENARIOS.len() * 2 + 1
        );
        per_thread.push((n, digests));
    }
    let (_, baseline) = &per_thread[0];
    for (n, digests) in &per_thread[1..] {
        for (probe, want) in baseline {
            assert_eq!(
                digests.get(probe),
                Some(want),
                "probe {probe} differs between FDW_THREADS=1 and FDW_THREADS={n}"
            );
        }
    }
}
