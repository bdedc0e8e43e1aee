//! Federated multi-pool layer: pool-level fault domains and the
//! health-gated burst controller.
//!
//! The paper's VDC-bursting policies assume every pool stays healthy for
//! the whole campaign; this module drops that assumption. A
//! [`Federation`] groups the cluster's glidein machines into 2–4 named
//! pools — an OSPool-like shared pool, a dedicated VDC, and an elastic
//! cloud pool with spin-up latency and spot preemption — and owns the
//! per-pool health machinery the negotiator consults before matching:
//!
//! * a **circuit breaker** per pool (closed → open → half-open with a
//!   timed probe), generalizing the per-machine scoreboard of the
//!   self-healing layer to the pool level;
//! * **fault-domain state**: whole-pool outage windows and network
//!   partitions that stall transfers between a pool and the submit node;
//! * a **burst gate** for the cloud pool: it only joins matchmaking once
//!   idle pressure crosses a threshold, and then only after its
//!   spin-up latency has elapsed.
//!
//! Everything here is sim-time deterministic: pool membership is a
//! deficit-round-robin over machine arrival order, breaker transitions
//! are pure functions of recorded outcomes and sim time, and all state
//! lives in `BTreeMap`s.

use std::collections::BTreeMap;

use crate::pool::MachineId;

/// Identifier of a pool inside a federation (index into the pool list).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PoolId(pub u32);

/// Broad class of a federated pool; drives burst gating and preemption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolClass {
    /// Opportunistic shared pool (OSPool-like): always matchable.
    Shared,
    /// Dedicated allocation (the paper's VDC): always matchable.
    Dedicated,
    /// Elastic cloud: joins matchmaking only under idle pressure, after
    /// a spin-up delay, and its jobs are exposed to spot reclamation.
    Cloud,
}

/// Static description of one pool in the federation.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolSpec {
    /// Human-readable pool name (appears in logs and reports).
    pub name: &'static str,
    /// Pool class.
    pub class: PoolClass,
    /// Fraction of arriving machines assigned to this pool.
    pub slot_share: f64,
}

/// Consecutive pool-level failures that open a pool's breaker.
pub const BREAKER_FAILURE_THRESHOLD: u32 = 3;

/// Seconds an open breaker waits before letting one probe match through
/// (half-open).
pub const BREAKER_PROBE_S: f64 = 600.0;

/// Knobs for the federated layer. Defaults to *disabled* so a default
/// cluster behaves exactly as the single-pool simulator always has.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FederationConfig {
    /// Master switch: when off, no pools exist and nothing else here
    /// applies.
    pub enabled: bool,
    /// When on, the burst controller reacts to pool health: circuit
    /// breakers gate matchmaking, partitioned pools are drained, and
    /// displaced jobs migrate. When off (the ablation baseline), pools
    /// and pool faults still exist but nothing routes around them.
    pub failover_enabled: bool,
    /// Idle jobs required before the cloud pool is asked to spin up.
    pub burst_idle_threshold: usize,
    /// Master switch for checkpoint/restart of preempted jobs.
    pub checkpoint_enabled: bool,
    /// Work-seconds between checkpoint records (per-rupture-batch
    /// progress granularity).
    pub checkpoint_interval_s: f64,
    /// Spin-up latency of the cloud pool, seconds.
    pub cloud_spinup_s: f64,
}

impl Default for FederationConfig {
    fn default() -> Self {
        FederationConfig {
            enabled: false,
            failover_enabled: false,
            burst_idle_threshold: 4,
            checkpoint_enabled: false,
            checkpoint_interval_s: 120.0,
            cloud_spinup_s: 300.0,
        }
    }
}

impl FederationConfig {
    /// Validate parameter sanity.
    pub fn validate(&self) -> Result<(), String> {
        if !self.enabled {
            return Ok(());
        }
        if self.checkpoint_enabled && self.checkpoint_interval_s <= 0.0 {
            return Err("checkpoint_interval_s must be positive".into());
        }
        if self.cloud_spinup_s < 0.0 {
            return Err("cloud_spinup_s must be non-negative".into());
        }
        Ok(())
    }
}

/// The fixed pool trio modelled by this federation: a shared OSPool-like
/// pool, the dedicated VDC, and an elastic cloud pool.
pub fn pool_specs() -> Vec<PoolSpec> {
    vec![
        PoolSpec {
            name: "ospool",
            class: PoolClass::Shared,
            slot_share: 0.5,
        },
        PoolSpec {
            name: "vdc",
            class: PoolClass::Dedicated,
            slot_share: 0.3,
        },
        PoolSpec {
            name: "cloud",
            class: PoolClass::Cloud,
            slot_share: 0.2,
        },
    ]
}

/// Circuit-breaker state of one pool.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Breaker {
    /// Healthy: jobs match freely.
    Closed,
    /// Tripped: no matches until the stored sim-time.
    Open { until: f64 },
    /// Probing: one negotiation cycle of matches allowed; the next
    /// recorded outcome decides between Closed and Open.
    HalfOpen,
}

#[derive(Debug, Clone)]
struct PoolState {
    spec: PoolSpec,
    /// Whole-pool outage in effect (fault-domain state, not health
    /// inference).
    down: bool,
    /// Network partition between this pool and the submit node.
    partitioned: bool,
    breaker: Breaker,
    consecutive_failures: u32,
    /// Machines currently assigned here (deficit round-robin counter).
    assigned: u64,
}

/// Running totals of federation events, for `RunReport` and telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FederationStats {
    /// Whole-pool outage windows that started.
    pub outages: u64,
    /// Jobs killed by spot reclamation in the cloud pool.
    pub preemptions: u64,
    /// Transfers caught by a network partition.
    pub partition_stalls: u64,
    /// Displaced jobs that restarted in a different pool.
    pub migrations: u64,
    /// Checkpoint records written for preempted/evicted jobs.
    pub checkpoints: u64,
    /// Jobs that resumed from a checkpoint instead of from scratch.
    pub resumes: u64,
    /// Circuit breakers that tripped open.
    pub breaker_opens: u64,
    /// Half-open probe windows granted.
    pub breaker_probes: u64,
    /// Breakers that closed again after a successful probe.
    pub breaker_closes: u64,
    /// Queued/transferring jobs drained away from an unhealthy pool.
    pub drained: u64,
}

/// Phase-aware checkpoint record of one preempted job: how much of its
/// total work was durably saved, in work-seconds (machine-speed 1.0).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Checkpoint {
    /// Total work the job represents, work-seconds.
    pub work_total: f64,
    /// Work completed and saved at the last checkpoint boundary.
    pub work_done: f64,
}

/// Runtime state of the federated layer: pool membership, fault-domain
/// flags, circuit breakers, and the cloud burst gate.
#[derive(Debug, Clone)]
pub struct Federation {
    cfg: FederationConfig,
    pools: Vec<PoolState>,
    /// Machine → pool index. BTreeMap: iterated for outage eviction.
    machine_pool: BTreeMap<u64, u32>,
    /// Sim-time the cloud pool becomes usable (None: not yet engaged).
    cloud_ready_at: Option<f64>,
    stats: FederationStats,
}

impl Federation {
    /// Build a federation over the fixed pool trio.
    pub fn new(cfg: FederationConfig) -> Self {
        let pools = pool_specs()
            .into_iter()
            .map(|spec| PoolState {
                spec,
                down: false,
                partitioned: false,
                breaker: Breaker::Closed,
                consecutive_failures: 0,
                assigned: 0,
            })
            .collect();
        Federation {
            cfg,
            pools,
            machine_pool: BTreeMap::new(),
            cloud_ready_at: None,
            stats: FederationStats::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &FederationConfig {
        &self.cfg
    }

    /// Federation event totals so far.
    pub fn stats(&self) -> FederationStats {
        self.stats
    }

    /// Assign an arriving machine to a pool by deficit round-robin:
    /// the pool whose assigned count is furthest below its slot share
    /// gets the machine. Deterministic in machine arrival order.
    pub fn assign_machine(&mut self, machine: MachineId) -> u32 {
        let total: u64 = self.pools.iter().map(|p| p.assigned).sum();
        let mut best = 0usize;
        let mut best_deficit = f64::NEG_INFINITY;
        for (i, p) in self.pools.iter().enumerate() {
            let deficit = p.spec.slot_share * (total + 1) as f64 - p.assigned as f64;
            if deficit > best_deficit {
                best_deficit = deficit;
                best = i;
            }
        }
        self.pools[best].assigned += 1;
        self.machine_pool.insert(machine.0, best as u32);
        best as u32
    }

    /// Pool of a machine (None for machines that predate the federation
    /// or departed).
    pub fn pool_of(&self, machine: MachineId) -> Option<u32> {
        self.machine_pool.get(&machine.0).copied()
    }

    /// Forget a departed machine (its pool keeps the deficit credit so
    /// shares stay proportional over churn).
    pub fn forget_machine(&mut self, machine: MachineId) {
        self.machine_pool.remove(&machine.0);
    }

    /// Is this the cloud (preemptible) pool?
    pub fn is_cloud(&self, pool: u32) -> bool {
        self.pools[pool as usize].spec.class == PoolClass::Cloud
    }

    /// Start or end a whole-pool outage window.
    pub fn set_down(&mut self, pool: u32, down: bool) {
        let p = &mut self.pools[pool as usize];
        if down && !p.down {
            self.stats.outages += 1;
        }
        p.down = down;
    }

    /// Start or end a network partition between `pool` and the submit
    /// node.
    pub fn set_partitioned(&mut self, pool: u32, partitioned: bool) {
        self.pools[pool as usize].partitioned = partitioned;
    }

    /// True while transfers between `pool` and the submit node stall.
    pub fn is_partitioned(&self, pool: u32) -> bool {
        self.pools[pool as usize].partitioned
    }

    /// Count one transfer caught by a partition.
    pub fn record_partition_stall(&mut self) {
        self.stats.partition_stalls += 1;
    }

    /// Count one spot reclamation.
    pub fn record_preemption(&mut self) {
        self.stats.preemptions += 1;
    }

    /// Count one checkpoint record written.
    pub fn record_checkpoint(&mut self) {
        self.stats.checkpoints += 1;
    }

    /// Count one resume-from-checkpoint.
    pub fn record_resume(&mut self) {
        self.stats.resumes += 1;
    }

    /// Count one migration (a displaced job restarting in a new pool).
    pub fn record_migration(&mut self) {
        self.stats.migrations += 1;
    }

    /// Count one job drained away from an unhealthy pool.
    pub fn record_drain(&mut self) {
        self.stats.drained += 1;
    }

    /// Record a pool-level failure (preemption, outage eviction, or
    /// partition stall) against `pool`'s circuit breaker. Only failover
    /// mode acts on breaker state, but failures are tracked regardless
    /// so both ablation arms observe the same inputs.
    pub fn record_failure(&mut self, pool: u32, now_s: f64) {
        let p = &mut self.pools[pool as usize];
        p.consecutive_failures += 1;
        let tripped = p.consecutive_failures >= BREAKER_FAILURE_THRESHOLD
            && !matches!(p.breaker, Breaker::Open { .. });
        let relapse = p.breaker == Breaker::HalfOpen;
        if tripped || relapse {
            p.breaker = Breaker::Open {
                until: now_s + BREAKER_PROBE_S,
            };
            self.stats.breaker_opens += 1;
        }
    }

    /// Record a successful completion on `pool`; a half-open breaker
    /// closes again.
    pub fn record_success(&mut self, pool: u32) {
        let p = &mut self.pools[pool as usize];
        p.consecutive_failures = 0;
        if p.breaker == Breaker::HalfOpen {
            p.breaker = Breaker::Closed;
            self.stats.breaker_closes += 1;
        }
    }

    /// Compute per-pool matchability for one negotiation cycle.
    ///
    /// A pool is unmatchable while it is *down* (physical — applies in
    /// both ablation arms). With failover on, the burst controller also
    /// refuses partitioned pools and pools whose breaker is open; an
    /// open breaker past its probe time transitions to half-open here
    /// and admits one probe cycle. The cloud pool additionally gates on
    /// the burst threshold and spin-up latency (both arms).
    pub fn gate(&mut self, now_s: f64, idle_depth: usize) -> Vec<bool> {
        // Engage the cloud pool once idle pressure crosses the
        // threshold; spin-up starts then and is paid exactly once.
        if self.cloud_ready_at.is_none() && idle_depth > self.cfg.burst_idle_threshold {
            self.cloud_ready_at = Some(now_s + self.cfg.cloud_spinup_s);
        }
        let failover = self.cfg.failover_enabled;
        let cloud_ready = self.cloud_ready_at.is_some_and(|t| now_s >= t);
        let mut probes = 0u64;
        let out = self
            .pools
            .iter_mut()
            .map(|p| {
                if p.down {
                    return false;
                }
                if p.spec.class == PoolClass::Cloud && !cloud_ready {
                    return false;
                }
                if !failover {
                    return true;
                }
                if p.partitioned {
                    return false;
                }
                match p.breaker {
                    Breaker::Closed | Breaker::HalfOpen => true,
                    Breaker::Open { until } => {
                        if now_s < until {
                            false
                        } else {
                            p.breaker = Breaker::HalfOpen;
                            probes += 1;
                            true
                        }
                    }
                }
            })
            .collect();
        self.stats.breaker_probes += probes;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fed(cfg: FederationConfig) -> Federation {
        Federation::new(FederationConfig {
            enabled: true,
            ..cfg
        })
    }

    #[test]
    fn deficit_round_robin_tracks_shares() {
        let mut f = fed(FederationConfig::default());
        let mut counts = [0u64; 3];
        for m in 0..100 {
            counts[f.assign_machine(MachineId(m)) as usize] += 1;
        }
        assert_eq!(counts, [50, 30, 20]);
        // Deterministic: same arrival order, same assignment.
        let mut g = fed(FederationConfig::default());
        for m in 0..100 {
            assert_eq!(
                g.assign_machine(MachineId(m)),
                f.pool_of(MachineId(m)).unwrap()
            );
        }
    }

    #[test]
    fn down_pool_is_unmatchable_in_both_arms() {
        for failover in [false, true] {
            let mut f = fed(FederationConfig {
                failover_enabled: failover,
                ..Default::default()
            });
            f.set_down(1, true);
            assert!(!f.gate(0.0, 0)[1]);
            f.set_down(1, false);
            assert!(f.gate(0.0, 0)[1]);
        }
    }

    #[test]
    fn partition_gates_only_under_failover() {
        let mut off = fed(FederationConfig::default());
        off.set_partitioned(0, true);
        assert!(off.gate(0.0, 0)[0], "no-failover arm keeps matching");
        let mut on = fed(FederationConfig {
            failover_enabled: true,
            ..Default::default()
        });
        on.set_partitioned(0, true);
        assert!(!on.gate(0.0, 0)[0]);
    }

    #[test]
    fn breaker_opens_probes_and_closes() {
        let mut f = fed(FederationConfig {
            failover_enabled: true,
            ..Default::default()
        });
        f.record_failure(1, 10.0);
        f.record_failure(1, 15.0);
        assert_eq!(f.stats().breaker_opens, 0, "below threshold");
        f.record_failure(1, 20.0);
        assert_eq!(f.stats().breaker_opens, 1);
        assert!(!f.gate(500.0, 0)[1], "open breaker blocks matches");
        // Past the probe time: half-open admits one probe window.
        assert!(f.gate(630.0, 0)[1]);
        assert_eq!(f.stats().breaker_probes, 1);
        // Success closes it; failure would re-open.
        f.record_success(1);
        assert_eq!(f.stats().breaker_closes, 1);
        assert!(f.gate(640.0, 0)[1]);
    }

    #[test]
    fn half_open_relapse_reopens() {
        let mut f = fed(FederationConfig {
            failover_enabled: true,
            ..Default::default()
        });
        for t in [0.0, 1.0, 2.0] {
            f.record_failure(0, t);
        }
        assert_eq!(f.stats().breaker_opens, 1);
        assert!(f.gate(700.0, 0)[0], "probe admitted");
        f.record_failure(0, 710.0);
        assert_eq!(f.stats().breaker_opens, 2, "relapse re-opens");
        assert!(!f.gate(750.0, 0)[0]);
    }

    #[test]
    fn cloud_gates_on_idle_pressure_then_spinup() {
        let mut f = fed(FederationConfig {
            burst_idle_threshold: 4,
            cloud_spinup_s: 300.0,
            ..Default::default()
        });
        // Below threshold: never engages.
        assert!(!f.gate(0.0, 4)[2]);
        // Crossing the threshold starts the spin-up clock once.
        assert!(!f.gate(100.0, 10)[2], "still spinning up");
        assert!(!f.gate(350.0, 0)[2], "spin-up anchored at engagement");
        assert!(f.gate(400.0, 0)[2], "ready after spin-up");
    }

    #[test]
    fn validate_rejects_bad_knobs() {
        FederationConfig::default().validate().unwrap();
        let mut cfg = FederationConfig {
            enabled: true,
            ..Default::default()
        };
        cfg.validate().unwrap();
        cfg.checkpoint_enabled = true;
        cfg.checkpoint_interval_s = 0.0;
        assert!(cfg.validate().is_err());
    }
}
