//! Property tests of the service layer's determinism contract.
//!
//! 1. **Decisions are a pure function of `(seed, stream)`**: for any
//!    workload and policy the front-end's decision digest, outcome set,
//!    stats, per-tenant rollups and rendered ULOG bytes are identical
//!    across executor-shard counts and DES thread counts — and no
//!    request is ever dropped without a terminal disposition.
//! 2. **`FDW_THREADS` invariance** (subprocess): the suite-wide thread
//!    knob is read once per process, so the thread axis is driven by
//!    re-executing this test binary with `FDW_THREADS` ∈ {1, 2, 8} and
//!    comparing the digest lines the children print — the same pattern
//!    as `fakequakes/tests/simd_lanes.rs` and the DES differential
//!    harness.

use std::process::Command;

use fdw_obs::digest::{fnv1a, DIGEST_INIT};
use fdw_service::prelude::*;
use htcsim::condor_log::to_condor_log;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn decisions_are_a_pure_function_of_seed_and_stream(
        seed in 0u64..1_000,
        campaigns in 20u32..80,
        overload_permille in 1_000u64..8_000,
        fail_permille in 0u32..300,
        corrupt_permille in 0u32..500,
        defended in any::<bool>(),
        exec_a in 1u32..5,
        exec_b in 1u32..5,
    ) {
        let cfg = if defended {
            ServiceConfig::defended(3)
        } else {
            ServiceConfig::undefended(3)
        };
        let wl = WorkloadConfig {
            seed,
            campaigns,
            classes: 3,
            overload_x: overload_permille as f64 / 1_000.0,
            fail_permille,
            corrupt_permille,
            replicas: 4,
            deadline_slack: 3.0,
        };
        let a = run_service(&cfg, &wl, exec_a, 60, 1);
        let b = run_service(&cfg, &wl, exec_b, 60, 2);
        prop_assert_eq!(a.decision_digest, b.decision_digest,
            "decision digest varies with (exec_shards, threads)");
        prop_assert_eq!(&a.outcomes, &b.outcomes);
        prop_assert_eq!(a.stats, b.stats);
        prop_assert_eq!(&a.per_tenant, &b.per_tenant);
        prop_assert_eq!(to_condor_log(&a.log), to_condor_log(&b.log));
        // Zero dropped-then-forgotten requests, in every arm.
        prop_assert_eq!(a.unaccounted, 0);
        prop_assert_eq!(a.outcomes.len() as u32, campaigns);
    }

    #[test]
    fn rerun_reproduces_every_observable(
        seed in 0u64..500,
        overload_permille in 1_000u64..10_000,
    ) {
        let cfg = ServiceConfig::defended(4);
        let wl = WorkloadConfig {
            seed,
            campaigns: 50,
            classes: 4,
            overload_x: overload_permille as f64 / 1_000.0,
            fail_permille: 150,
            corrupt_permille: 300,
            replicas: 4,
            deadline_slack: 3.0,
        };
        let a = run_service(&cfg, &wl, 2, 60, 2);
        let b = run_service(&cfg, &wl, 2, 60, 2);
        prop_assert_eq!(a.decision_digest, b.decision_digest);
        prop_assert_eq!(a.engine_digest, b.engine_digest);
        prop_assert_eq!(a.store, b.store);
        prop_assert_eq!(a.makespan, b.makespan);
    }
}

/// Child half: run the fixture workload with the thread count the
/// `FDW_THREADS` env var dictates and print the digests. Parent half:
/// spawn the child at 1, 2 and 8 threads and require identical lines.
#[test]
fn decision_digest_invariant_under_fdw_threads() {
    let scenario = || {
        let cfg = ServiceConfig::defended(4);
        let wl = WorkloadConfig {
            seed: 21,
            campaigns: 90,
            classes: 3,
            overload_x: 5.0,
            fail_permille: 200,
            corrupt_permille: 300,
            replicas: 4,
            deadline_slack: 3.0,
        };
        (cfg, wl)
    };
    if std::env::var("SERVICE_THREADS_CHILD").is_ok() {
        let threads: usize = std::env::var("FDW_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(1);
        let (cfg, wl) = scenario();
        let r = run_service(&cfg, &wl, 3, 60, threads);
        println!(
            "digest={:016x} ulog={:016x} unaccounted={}",
            r.decision_digest,
            fnv1a(DIGEST_INIT, to_condor_log(&r.log).as_bytes()),
            r.unaccounted
        );
        return;
    }
    let exe = std::env::current_exe().expect("test binary path");
    let mut lines = Vec::new();
    for threads in [1u32, 2, 8] {
        let out = Command::new(&exe)
            .args([
                "--exact",
                "decision_digest_invariant_under_fdw_threads",
                "--nocapture",
            ])
            .env("SERVICE_THREADS_CHILD", "1")
            .env("FDW_THREADS", threads.to_string())
            .output()
            .expect("spawn child");
        assert!(
            out.status.success(),
            "child (FDW_THREADS={threads}) failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        // libtest may glue the child's println onto its own "test ..."
        // status line, so locate the digest by substring, not by prefix.
        let line = stdout
            .lines()
            .find_map(|l| l.find("digest=").map(|i| l[i..].to_string()))
            .unwrap_or_else(|| panic!("no digest line from child {threads}: {stdout}"));
        lines.push((threads, line));
    }
    assert!(
        lines.windows(2).all(|w| w[0].1 == w[1].1),
        "digests differ across FDW_THREADS: {lines:?}"
    );
    assert!(lines[0].1.ends_with("unaccounted=0"));
}
