//! Evictions, outages and spot reclamation cost the work they destroy.
//!
//! When a glidein departs, a pool goes down or the cloud reclaims a
//! slot, the job's attempt ends and the job runs again from the start
//! (no checkpointing here). The ended attempt's pending events (stage-in
//! done, execution done, stage-out done) must not act on the next one.
//! So every completed job ran its full execution time after its last
//! execute start: on machines of speed 1, at least its fixed runtime.

use std::collections::BTreeMap;

use fdw_suite::htcsim::cluster::{Cluster, ClusterConfig, RunReport};
use fdw_suite::htcsim::fault::{FaultConfig, PoolFaultConfig};
use fdw_suite::htcsim::federation::FederationConfig;
use fdw_suite::htcsim::job::{JobEventKind, JobId, JobSpec, OwnerId, SubmitRequest};
use fdw_suite::htcsim::pool::PoolConfig;
use fdw_suite::htcsim::scenarios::Bag;

/// `n` jobs of a fixed `exec_s` seconds under one owner.
fn bag(n: usize, exec_s: f64) -> Bag {
    Bag::from_requests(
        (0..n)
            .map(|i| SubmitRequest {
                owner: OwnerId(0),
                spec: JobSpec::fixed(format!("t.{i}"), exec_s),
            })
            .collect(),
    )
}

/// Every completed job, with the seconds from its last execute start to
/// its completion.
fn last_runs(report: &RunReport) -> Vec<(JobId, u64)> {
    let mut started = BTreeMap::new();
    let mut runs = Vec::new();
    for e in report.log.events() {
        match e.kind {
            JobEventKind::ExecuteStarted => {
                started.insert(e.job, e.time);
            }
            JobEventKind::Completed => runs.push((e.job, e.time.since(started[&e.job]))),
            _ => {}
        }
    }
    runs
}

/// All `n` jobs completed, each after a full `exec_s`-second run.
fn assert_full_runs(report: &RunReport, n: usize, exec_s: u64, label: &str) {
    assert!(!report.timed_out, "{label}: timed out");
    assert_eq!(report.completed, n, "{label}: not every job completed");
    let runs = last_runs(report);
    let short: Vec<&(JobId, u64)> = runs.iter().filter(|&&(_, s)| s < exec_s).collect();
    assert!(
        short.is_empty(),
        "{label}: {} of {} jobs completed less than {exec_s} s after their last start: {short:?}",
        short.len(),
        runs.len()
    );
}

#[test]
fn evicted_jobs_rerun_their_full_execution() {
    for seed in 1..=5 {
        let cfg = ClusterConfig {
            pool: PoolConfig {
                target_slots: 32,
                glidein_slots: 4,
                glidein_lifetime_s: 600.0,
                avail_mean: 1.0,
                avail_sigma: 0.0,
                speed_sigma: 0.0,
                ..Default::default()
            },
            ..ClusterConfig::with_cache()
        };
        let report = Cluster::new(cfg, seed).run(&mut bag(60, 500.0));
        assert!(report.evictions > 0, "seed {seed}: no job was evicted");
        assert_full_runs(&report, 60, 500, &format!("seed {seed}"));
    }
}

#[test]
fn displaced_jobs_rerun_their_full_execution() {
    // The federated fault plan of `scenarios::failover_run` without its
    // partition: an outage of the dedicated pool from t = 400 s to
    // 2,400 s and spot reclamation on the cloud pool. Neither failover
    // nor checkpointing runs, so every displaced job starts over.
    let cfg = ClusterConfig {
        pool: PoolConfig {
            target_slots: 24,
            glidein_slots: 4,
            glidein_lifetime_s: 1e9,
            avail_mean: 1.0,
            avail_sigma: 0.0,
            speed_sigma: 0.0,
            ..Default::default()
        },
        federation: FederationConfig {
            enabled: true,
            failover_enabled: false,
            checkpoint_enabled: false,
            checkpoint_interval_s: 30.0,
            burst_idle_threshold: 0,
            cloud_spinup_s: 60.0,
        },
        faults: FaultConfig {
            seed: 7,
            pool: PoolFaultConfig {
                outage_pool: 1,
                outage_start_s: 400.0,
                outage_duration_s: 2_000.0,
                preempt_prob: 0.9,
                ..Default::default()
            },
            ..Default::default()
        },
        ..ClusterConfig::with_cache()
    };
    let report = Cluster::new(cfg, 3).run(&mut bag(40, 300.0));
    assert_eq!(report.federation.outages, 1);
    assert!(report.federation.preemptions > 0, "no spot reclamation");
    assert_full_runs(&report, 40, 300, "outage and spot reclamation");
}
