//! Failover-ablation harness: run one FDW campaign on the federated
//! three-pool cluster under pool-level faults, with the health-gated
//! burst controller either on or off.
//!
//! Unlike the [`crate::chaos`] harness, a failover campaign is a single
//! round: pool-level displacements (outages, spot preemption, drained
//! partitions) requeue jobs without consuming DAGMan retries, so the DAG
//! completes without a rescue round-trip. The interesting comparison is
//! *how fast* it completes and *how much work is burned* — the ablation
//! pits `failover_enabled = false` (pools and pool faults exist, nothing
//! routes around them) against the full controller (circuit breakers,
//! drain-and-migrate, checkpoint/restart). Both arms must produce
//! byte-identical science products; the controller may only move work,
//! never change it.

use std::collections::BTreeSet;

use htcsim::cluster::ClusterConfig;
use htcsim::federation::FederationStats;
use htcsim::pool::PoolConfig;

use crate::chaos::science_digest;
use crate::config::FdwConfig;
use crate::phases::build_fdw_dag;
use crate::workflow::run_concurrent_fdw;

/// Outcome of one failover campaign arm.
#[derive(Debug, Clone)]
pub struct FailoverReport {
    /// Whether the health-gated failover controller was on.
    pub failover_on: bool,
    /// Simulated seconds until every node completed (time-to-done).
    pub makespan_s: u64,
    /// Execution seconds that ended in a completion.
    pub goodput_s: u64,
    /// Execution seconds lost to displacements and failures.
    pub badput_s: u64,
    /// Machine-level evictions observed (pool displacements must not
    /// count here; they surface as preemptions/outages instead).
    pub evictions: u64,
    /// Federated-layer counters (outages, preemptions, migrations, …).
    pub federation: FederationStats,
    /// FNV-1a digest of the live science products of every node.
    pub digest: u64,
    /// The rendered `.dag.metrics` JSON document of the campaign.
    pub dag_metrics: String,
}

/// A fully available federated pool: three pools behind the federation
/// (shared / dedicated / cloud), machines always up, so the only
/// nondeterminism is the seeded pool-fault plan — campaigns are exactly
/// reproducible and the ablation isolates the failover controller.
pub fn federated_cluster_config() -> ClusterConfig {
    ClusterConfig {
        pool: PoolConfig {
            target_slots: 24,
            glidein_slots: 4,
            avail_mean: 1.0,
            avail_sigma: 0.0,
            glidein_lifetime_s: 1e9,
            // Every slot takes every phase: with a 6-machine bootstrap
            // pool and effectively no later arrivals, a small-slot-only
            // draw would strand the 16 GB GF/rupture jobs forever.
            big_slot_fraction: 1.0,
            ..Default::default()
        },
        ..ClusterConfig::with_cache()
    }
}

/// Run one arm of the failover ablation: execute `base_cfg` on the
/// federated cluster with the failover controller (circuit breakers,
/// drain-and-migrate, checkpoint/restart) forced on or off. The
/// federation itself — and the pool-fault plan in `base_cfg.fault.pool` —
/// is live in both arms. Errors if the DAG does not complete.
pub fn run_failover_campaign(
    base_cfg: &FdwConfig,
    cluster_cfg: &ClusterConfig,
    failover_on: bool,
) -> Result<FailoverReport, String> {
    let mut cfg = base_cfg.clone();
    cfg.federation.enabled = true;
    cfg.federation.failover_enabled = failover_on;
    // Checkpoint/restart is part of the controller under ablation: the
    // baseline arm loses all progress on every displacement.
    cfg.federation.checkpoint_enabled = failover_on && cfg.federation.checkpoint_enabled;
    cfg.validate()?;

    let out = run_concurrent_fdw(&cfg, 1, cfg.n_waveforms, cluster_cfg.clone(), cfg.seed)?;
    let stats = &out.stats[0];
    let total = cfg.total_jobs();
    if stats.completed as u64 != total {
        return Err(format!(
            "failover campaign (failover={failover_on}) finished only {} of {total} jobs",
            stats.completed
        ));
    }
    // Every node completed, so every science product must be present and
    // regenerable — science_digest errors loudly on a lost artifact.
    let done: BTreeSet<String> = build_fdw_dag(&cfg)?
        .nodes()
        .iter()
        .map(|n| n.name.clone())
        .collect();
    let digest = science_digest(&cfg, &done)?;
    Ok(FailoverReport {
        failover_on,
        makespan_s: out.report.makespan.as_secs(),
        goodput_s: stats.goodput_secs,
        badput_s: stats.badput_secs,
        evictions: out.report.evictions,
        federation: out.report.federation,
        digest,
        dag_metrics: out.dag_metrics[0].clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::baseline_digest;
    use crate::config::StationInput;
    use fakequakes::stations::ChileanInput;
    use htcsim::fault::PoolFaultConfig;
    use htcsim::federation::FederationConfig;

    /// A tiny federated campaign under heavy pool faults: cloud spot
    /// reclamation plus a mid-run outage of the dedicated pool.
    fn faulty_cfg() -> FdwConfig {
        let mut cfg = FdwConfig {
            fault_nx: 10,
            fault_nd: 5,
            station_input: StationInput::Chilean(ChileanInput::Small),
            n_waveforms: 16,
            ruptures_per_job: 2,
            waveforms_per_job: 2,
            retries: 3,
            retry_defer_s: 30,
            seed: 11,
            federation: FederationConfig {
                enabled: true,
                burst_idle_threshold: 0,
                checkpoint_enabled: true,
                checkpoint_interval_s: 5.0,
                cloud_spinup_s: 60.0,
                ..Default::default()
            },
            ..Default::default()
        };
        cfg.fault.pool = PoolFaultConfig {
            outage_pool: 1,
            outage_start_s: 500.0,
            outage_duration_s: 2000.0,
            partition_pool: 0,
            partition_start_s: 0.0,
            partition_duration_s: 0.0,
            preempt_prob: 0.9,
        };
        cfg
    }

    #[test]
    fn failover_beats_the_no_failover_baseline() {
        let cfg = faulty_cfg();
        let cluster = federated_cluster_config();
        let off = run_failover_campaign(&cfg, &cluster, false).unwrap();
        let on = run_failover_campaign(&cfg, &cluster, true).unwrap();
        // Identical science in both arms, identical to fault-free.
        let baseline = baseline_digest(&cfg).unwrap();
        assert_eq!(off.digest, baseline);
        assert_eq!(on.digest, baseline);
        // The controller must not lose to the do-nothing baseline.
        assert!(
            on.makespan_s <= off.makespan_s,
            "failover-on must finish no later: on={} off={}",
            on.makespan_s,
            off.makespan_s
        );
        assert!(
            on.badput_s <= off.badput_s,
            "checkpoints must cut badput: on={} off={}",
            on.badput_s,
            off.badput_s
        );
        // Checkpoint/restart is exclusive to the on arm.
        assert!(on.federation.resumes > 0, "on arm must resume checkpoints");
        assert_eq!(off.federation.resumes, 0);
        assert_eq!(off.federation.checkpoints, 0);
        // Pool faults fired in both arms.
        assert!(off.federation.preemptions > 0);
        assert!(on.federation.preemptions > 0);
        assert_eq!(on.federation.outages, 1);
        assert_eq!(off.federation.outages, 1);
        // Displaced jobs restarted in other pools.
        assert!(on.federation.migrations > 0);
    }

    #[test]
    fn campaign_is_deterministic() {
        let cfg = faulty_cfg();
        let cluster = federated_cluster_config();
        for arm in [false, true] {
            let a = run_failover_campaign(&cfg, &cluster, arm).unwrap();
            let b = run_failover_campaign(&cfg, &cluster, arm).unwrap();
            assert_eq!(a.makespan_s, b.makespan_s, "arm {arm}");
            assert_eq!(a.federation, b.federation, "arm {arm}");
            assert_eq!(a.digest, b.digest, "arm {arm}");
        }
    }

    #[test]
    fn metrics_document_carries_federation_counters() {
        let cfg = faulty_cfg();
        let rep = run_failover_campaign(&cfg, &federated_cluster_config(), true).unwrap();
        fdw_obs::json::validate(&rep.dag_metrics).unwrap();
        assert!(rep.dag_metrics.contains("\"preemptions\":"));
        assert!(rep
            .dag_metrics
            .contains(&format!("\"migrations\":{}", rep.federation.migrations)));
        // Pool displacements ride on requeues, not machine evictions.
        assert_eq!(rep.evictions, 0);
    }
}
