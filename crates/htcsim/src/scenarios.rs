//! Canonical cluster scenarios shared by the golden-fixture tests, the
//! differential-determinism harness, and the benches.
//!
//! Each builder runs a fully-specified workload on a fixed seed and
//! returns the [`RunReport`]; the only free parameter is the event-queue
//! **shard count**, which the determinism contract says must never
//! change a byte of output. `tests/golden_ulog.rs` pins each scenario's
//! ULOG bytes at `shards = 1`; `tests/des_differential.rs` re-runs the
//! same builders across the {threads} × {shards} matrix and asserts
//! byte-identity against those very fixtures.

use fdw_obs::Obs;

use crate::cluster::{Cluster, ClusterConfig, RunReport, WorkloadDriver};
use crate::fault::{FaultConfig, PoolFaultConfig};
use crate::federation::FederationConfig;
use crate::job::{InputFile, JobEvent, JobEventKind, JobId, JobSpec, OwnerId, SubmitRequest};
use crate::pool::PoolConfig;
use crate::scoreboard::DefenseConfig;
use crate::time::SimTime;

/// A fixed bag of jobs submitted at t=0 — the smallest workload driver
/// that exercises the cluster end to end.
pub struct Bag {
    pending: Vec<SubmitRequest>,
    outstanding: usize,
}

impl Bag {
    /// `n` identical 300-second jobs under one owner.
    pub fn new(n: usize) -> Self {
        Bag::from_requests(
            (0..n)
                .map(|i| SubmitRequest {
                    owner: OwnerId(0),
                    spec: JobSpec::fixed(format!("job.{i}"), 300.0),
                })
                .collect(),
        )
    }

    /// A bag over explicit submissions.
    pub fn from_requests(pending: Vec<SubmitRequest>) -> Self {
        let outstanding = pending.len();
        Bag {
            pending,
            outstanding,
        }
    }
}

impl WorkloadDriver for Bag {
    fn poll(&mut self, _now: SimTime, events: &[JobEvent]) -> Vec<SubmitRequest> {
        self.outstanding -= events
            .iter()
            .filter(|e| e.kind == JobEventKind::Completed)
            .count();
        std::mem::take(&mut self.pending)
    }

    fn is_done(&self) -> bool {
        self.outstanding == 0
    }
}

/// A bag of jobs that resubmits failures up to a per-name attempt cap —
/// the minimal driver that survives black holes and poisoned inputs.
pub struct RetryBag {
    to_submit: Vec<JobSpec>,
    specs: std::collections::BTreeMap<String, JobSpec>,
    names: std::collections::BTreeMap<JobId, String>,
    attempts: std::collections::BTreeMap<String, u32>,
    settled: usize,
    total: usize,
}

impl RetryBag {
    /// Retry each of `specs` (keyed by job name) up to 20 attempts.
    pub fn new(specs: Vec<JobSpec>) -> Self {
        let total = specs.len();
        let by_name = specs.iter().map(|s| (s.name.clone(), s.clone())).collect();
        RetryBag {
            to_submit: specs,
            specs: by_name,
            names: Default::default(),
            attempts: Default::default(),
            settled: 0,
            total,
        }
    }
}

impl WorkloadDriver for RetryBag {
    fn poll(&mut self, _now: SimTime, events: &[JobEvent]) -> Vec<SubmitRequest> {
        let mut subs: Vec<SubmitRequest> = std::mem::take(&mut self.to_submit)
            .into_iter()
            .map(|spec| SubmitRequest {
                owner: OwnerId(0),
                spec,
            })
            .collect();
        for e in events {
            match e.kind {
                JobEventKind::Completed => self.settled += 1,
                JobEventKind::Failed | JobEventKind::Removed => {
                    let name = self.names.get(&e.job).cloned().unwrap_or_default();
                    let tries = self.attempts.entry(name.clone()).or_insert(1);
                    if *tries < 20 {
                        *tries += 1;
                        subs.push(SubmitRequest {
                            owner: OwnerId(0),
                            spec: self.specs[&name].clone(),
                        });
                    } else {
                        self.settled += 1;
                    }
                }
                _ => {}
            }
        }
        subs
    }

    fn on_assigned(&mut self, job: JobId, name: &str) {
        self.names.insert(job, name.to_string());
    }

    fn is_done(&self) -> bool {
        self.settled == self.total
    }
}

/// A small always-on pool: full availability, no churn.
fn quiet_pool(target_slots: usize, glidein_slots: usize) -> PoolConfig {
    PoolConfig {
        target_slots,
        glidein_slots,
        avail_mean: 1.0,
        avail_sigma: 0.0,
        glidein_lifetime_s: 1e9,
        ..Default::default()
    }
}

/// Transient transfer failures and policy holds under a fixed fault
/// seed: the scenario behind `faulty_run.log`.
pub fn faulty_run(shards: usize, obs: Obs) -> RunReport {
    let cfg = ClusterConfig {
        pool: quiet_pool(4, 2),
        faults: FaultConfig {
            seed: 9,
            transfer_fail_prob: 0.25,
            hold_prob: 0.25,
            hold_release_s: 120.0,
            ..Default::default()
        },
        shards,
        ..ClusterConfig::with_cache()
    };
    Cluster::new(cfg, 11).with_obs(obs).run(&mut Bag::new(6))
}

/// Two owners mixing big (16 GB) and small jobs in a half-big pool,
/// exercising the negotiation hold-back buffer: the scenario behind
/// `holdback_run.log`.
pub fn holdback_run(shards: usize, obs: Obs) -> RunReport {
    let cfg = ClusterConfig {
        pool: PoolConfig {
            big_slot_fraction: 0.5,
            ..quiet_pool(8, 2)
        },
        shards,
        ..ClusterConfig::with_cache()
    };
    let mut pending = Vec::new();
    for owner in [0u32, 1, 2] {
        for i in 0..3u32 {
            let mut spec = JobSpec::fixed(format!("big.{owner}.{i}"), 250.0);
            spec.memory_mb = 16_384;
            spec.disk_mb = 16_384;
            pending.push(SubmitRequest {
                owner: OwnerId(owner),
                spec,
            });
            pending.push(SubmitRequest {
                owner: OwnerId(owner),
                spec: JobSpec::fixed(format!("small.{owner}.{i}"), 200.0),
            });
        }
    }
    Cluster::new(cfg, 23)
        .with_obs(obs)
        .run(&mut Bag::from_requests(pending))
}

/// Black holes plus silent cache corruption with the scoreboard and
/// checksum defenses on, under a retrying driver: the scenario behind
/// `defended_run.log`.
pub fn defended_run(shards: usize, obs: Obs) -> RunReport {
    let cfg = ClusterConfig {
        pool: quiet_pool(8, 1),
        faults: FaultConfig {
            seed: 9,
            black_hole_fraction: 0.3,
            corrupt_prob: 0.5,
            ..Default::default()
        },
        defense: DefenseConfig {
            scoreboard_enabled: true,
            checksum_enabled: true,
        },
        shards,
        ..ClusterConfig::with_cache()
    };
    let specs: Vec<JobSpec> = (0..10)
        .map(|i| {
            let mut s = JobSpec::fixed(format!("job.{i}"), 300.0);
            s.inputs.push(InputFile {
                name: "gf.mseed".to_string(),
                size_mb: 500.0,
                cacheable: true,
            });
            s
        })
        .collect();
    Cluster::new(cfg, 7)
        .with_obs(obs)
        .run(&mut RetryBag::new(specs))
}

/// The full federated fault menu — a mid-run outage of the dedicated
/// pool, a network partition stalling ospool stage-ins, and cloud spot
/// reclamation — with failover and checkpointing on: the scenario
/// behind `failover_run.log`.
pub fn failover_run(shards: usize, obs: Obs) -> RunReport {
    let cfg = ClusterConfig {
        pool: quiet_pool(24, 4),
        federation: FederationConfig {
            enabled: true,
            failover_enabled: true,
            checkpoint_enabled: true,
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
                partition_pool: 0,
                // First matches land at the t=60 negotiation cycle; their
                // slow origin-bound transfers are still in flight when the
                // partition opens.
                partition_start_s: 100.0,
                partition_duration_s: 1_500.0,
                preempt_prob: 0.9,
            },
            ..Default::default()
        },
        shards,
        ..ClusterConfig::with_cache()
    };
    let specs: Vec<JobSpec> = (0..40)
        .map(|i| {
            let mut s = JobSpec::fixed(format!("t.{i}"), 300.0);
            s.inputs.push(InputFile {
                name: format!("rupt.{i}.bin"),
                size_mb: 2_000.0,
                cacheable: false,
            });
            s
        })
        .collect();
    let pending = specs
        .into_iter()
        .map(|spec| SubmitRequest {
            owner: OwnerId(0),
            spec,
        })
        .collect();
    Cluster::new(cfg, 3)
        .with_obs(obs)
        .run(&mut Bag::from_requests(pending))
}

/// A compact federated run built to push job events *across the shard
/// boundary*: an early outage of the dedicated pool displaces running
/// jobs whose next match lands in a different pool — a different lane,
/// and (at `shards > 1`) a different physical heap — emitting ULOG 030
/// migration lines. The scenario behind `sharded_run.log`, whose
/// fixture is regenerated at `shards = 4` and must byte-match every
/// other shard count.
pub fn sharded_run(shards: usize, obs: Obs) -> RunReport {
    let cfg = ClusterConfig {
        pool: quiet_pool(12, 2),
        federation: FederationConfig {
            enabled: true,
            failover_enabled: true,
            checkpoint_enabled: true,
            checkpoint_interval_s: 30.0,
            burst_idle_threshold: 0,
            cloud_spinup_s: 30.0,
        },
        faults: FaultConfig {
            seed: 5,
            pool: PoolFaultConfig {
                outage_pool: 1,
                outage_start_s: 200.0,
                outage_duration_s: 3_000.0,
                ..Default::default()
            },
            ..Default::default()
        },
        shards,
        ..ClusterConfig::with_cache()
    };
    let specs: Vec<JobSpec> = (0..12)
        .map(|i| {
            let mut s = JobSpec::fixed(format!("m.{i}"), 400.0);
            s.inputs.push(InputFile {
                name: format!("wave.{i}.bin"),
                size_mb: 800.0,
                cacheable: false,
            });
            s
        })
        .collect();
    let pending = specs
        .into_iter()
        .map(|spec| SubmitRequest {
            owner: OwnerId(0),
            spec,
        })
        .collect();
    Cluster::new(cfg, 5)
        .with_obs(obs)
        .run(&mut Bag::from_requests(pending))
}
