//! Workflow orchestration: run one or several FDW DAGMans on the simulated
//! OSPool, gather the paper's statistics, and run the single-machine AWS
//! baseline.

use std::collections::BTreeMap;

use dagman::driver::MultiDagman;
use dagman::monitor::{dag_metrics, mean_sd, per_dagman_stats, write_metrics, DagmanStats, MeanSd};
use fdw_obs::Obs;
use htcsim::cluster::{Cluster, ClusterConfig, RunReport};
use htcsim::job::JobSpec;
use htcsim::pool::PoolConfig;
use htcsim::single::{SingleMachine, SingleRunReport};

use crate::calibration;
use crate::config::FdwConfig;
use crate::phases::{build_fdw_dag, split_waveforms};
use crate::stats;

/// The OSPool configuration the experiments run against, calibrated so the
/// FDW lands in the paper's operating regime (≈10 JPM average and ~14 h
/// for 16,000 full-input waveforms from a single DAGMan; >400 running-job
/// peaks).
pub fn osg_cluster_config() -> ClusterConfig {
    ClusterConfig {
        pool: PoolConfig {
            target_slots: 520,
            glidein_slots: 8,
            glidein_lifetime_s: 4.0 * 3600.0,
            n_sites: 30,
            negotiation_period_s: 60,
            avail_mean: 0.55,
            avail_sigma: 0.18,
            avail_theta: 0.05,
            speed_sigma: 0.15,
            big_slot_fraction: 0.35,
            max_sim_time_s: 21 * 24 * 3600,
        },
        cache_enabled: true,
        faults: Default::default(),
        defense: Default::default(),
        federation: Default::default(),
        shards: 0,
    }
}

/// Outcome of one FDW execution (one or more concurrent DAGMans).
#[derive(Debug)]
pub struct FdwOutcome {
    /// Raw cluster report (user log, cache stats, …).
    pub report: RunReport,
    /// Per-DAGMan statistics, ordered by owner id.
    pub stats: Vec<DagmanStats>,
    /// Rendered `*.dag.metrics` JSON documents, one per DAGMan in owner
    /// order, reconciled against [`FdwOutcome::stats`].
    pub dag_metrics: Vec<String>,
}

impl FdwOutcome {
    /// Per-DAGMan runtimes in hours.
    pub fn runtimes_hours(&self) -> Vec<f64> {
        self.stats.iter().map(|s| s.runtime_hours()).collect()
    }

    /// Per-DAGMan `(jobs, runtime-minutes)` pairs for eq. (2)/(4).
    pub fn throughput_inputs(&self) -> Vec<(u64, f64)> {
        self.stats
            .iter()
            .map(|s| (s.completed as u64, s.runtime_secs() as f64 / 60.0))
            .collect()
    }
}

/// Run one FDW DAGMan built from `cfg` on a cluster.
pub fn run_fdw(
    cfg: &FdwConfig,
    cluster_cfg: ClusterConfig,
    seed: u64,
) -> Result<FdwOutcome, String> {
    run_concurrent_fdw(cfg, 1, cfg.n_waveforms, cluster_cfg, seed)
}

/// Run `n_dagmans` concurrent FDW DAGMans that together produce
/// `total_waveforms` (the §4.2 experiment). Each DAGMan gets its own
/// owner id, so the pool's fair share arbitrates between them.
pub fn run_concurrent_fdw(
    base_cfg: &FdwConfig,
    n_dagmans: usize,
    total_waveforms: u64,
    cluster_cfg: ClusterConfig,
    seed: u64,
) -> Result<FdwOutcome, String> {
    run_concurrent_fdw_with_obs(
        base_cfg,
        n_dagmans,
        total_waveforms,
        cluster_cfg,
        seed,
        &Obs::disabled(),
    )
}

/// [`run_concurrent_fdw`] with a telemetry handle threaded through the
/// cluster and every DAGMan. Per-phase spans land in trace category
/// `phase` (one track per owner). The pool/transfer metrics (`pool.*`,
/// `xfer.*`) and DAG engine metrics (`dagman.*`) are written once, from
/// the run's tallies, when the cluster run ends.
pub fn run_concurrent_fdw_with_obs(
    base_cfg: &FdwConfig,
    n_dagmans: usize,
    total_waveforms: u64,
    mut cluster_cfg: ClusterConfig,
    seed: u64,
    obs: &Obs,
) -> Result<FdwOutcome, String> {
    if n_dagmans == 0 {
        return Err("need at least one DAGMan".into());
    }
    // The FDW config's fault plan overrides the cluster's when enabled, so
    // chaos campaigns are driven entirely from the parameter file.
    if base_cfg.fault.any_enabled() {
        cluster_cfg.faults = base_cfg.fault;
    }
    // Same for the pool-side defense layer.
    if base_cfg.defense.any_enabled() {
        cluster_cfg.defense = base_cfg.defense;
    }
    // And the federated multi-pool layer.
    if base_cfg.federation.enabled {
        cluster_cfg.federation = base_cfg.federation;
    }
    // Event-queue sharding (0 = leave the cluster default). Pure layout:
    // the pop order is pinned by the (time, lane, seq) key, so this knob
    // never changes a byte of output — des_differential.rs enforces it.
    if base_cfg.des_shards > 0 {
        cluster_cfg.shards = base_cfg.des_shards;
    }
    let mut dags = Vec::with_capacity(n_dagmans);
    for share in split_waveforms(total_waveforms, n_dagmans) {
        let cfg = FdwConfig {
            n_waveforms: share.max(1),
            ..base_cfg.clone()
        };
        dags.push(build_fdw_dag(&cfg)?);
    }
    let mut multi = MultiDagman::new(dags)
        .with_obs(obs.clone())
        .with_speculation(base_cfg.speculation);
    let report = Cluster::new(cluster_cfg, seed)
        .with_obs(obs.clone())
        .run(&mut multi);
    for dm in multi.dagmans() {
        write_metrics(dm, obs);
    }
    if report.timed_out {
        return Err(format!(
            "simulation hit the time cap with {} of {} jobs complete",
            report.completed,
            multi.dagmans().iter().map(|d| d.dag().len()).sum::<usize>()
        ));
    }
    let stats = per_dagman_stats(&report);
    record_phase_spans(obs, &report, multi.dagmans());
    let metrics_docs = multi
        .dagmans()
        .iter()
        .map(|dm| {
            let s = stats
                .iter()
                .find(|s| s.owner == dm.owner())
                .ok_or_else(|| format!("no stats for owner {}", dm.owner().0))?;
            Ok(dag_metrics(dm, s, 0, report.defense, report.federation).render())
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(FdwOutcome {
        report,
        stats,
        dag_metrics: metrics_docs,
    })
}

/// Emit one `phase`-category span per (owner, phase) covering the window
/// from that phase's first user-log event to its last. Phase names are
/// the node-name prefixes (`matrix`, `rupture`, `gf`, `waveform`), so the
/// exported trace shows the A→B→C pipeline shape per DAGMan. Shared with
/// the chaos harness, which passes a single resumed DAGMan per round.
pub(crate) fn record_phase_spans(
    obs: &Obs,
    report: &RunReport,
    dagmans: &[dagman::driver::Dagman],
) {
    if !obs.is_enabled() {
        return;
    }
    let mut windows: BTreeMap<(u32, String), (u64, u64)> = BTreeMap::new();
    for ev in report.log.events() {
        let Some(dm) = dagmans.iter().find(|d| d.owner() == ev.owner) else {
            continue;
        };
        let Some(name) = dm.node_name(ev.job) else {
            continue;
        };
        let phase = name.split('.').next().unwrap_or(name);
        let t = ev.time.as_secs();
        let w = windows
            .entry((ev.owner.0, phase.to_string()))
            .or_insert((t, t));
        w.0 = w.0.min(t);
        w.1 = w.1.max(t);
    }
    for ((owner, phase), (start, end)) in &windows {
        obs.span("phase", phase, *owner as u64, *start, *end);
        obs.observe(&format!("fdw.phase.{phase}_s"), (*end - *start) as f64);
    }
}

/// Aggregates over replicated runs of the same configuration (the paper
/// repeats everything three times and reports mean ± SD).
#[derive(Debug, Clone, Copy)]
pub struct ReplicatedStats {
    /// Runtime (hours): eq. (1) mean plus spread.
    pub runtime_h: MeanSd,
    /// Total throughput (jobs/minute): eq. (2) mean plus spread.
    pub throughput_jpm: MeanSd,
}

/// Run `cfg` once per seed and aggregate with eqs. (1)–(4). For
/// multi-DAGMan runs the aggregation is over every DAGMan of every
/// replication, exactly like the paper's eq. (3)/(4).
pub fn replicate_fdw(
    cfg: &FdwConfig,
    n_dagmans: usize,
    total_waveforms: u64,
    cluster_cfg: &ClusterConfig,
    seeds: &[u64],
) -> Result<ReplicatedStats, String> {
    replicate_fdw_with_obs(
        cfg,
        n_dagmans,
        total_waveforms,
        cluster_cfg,
        seeds,
        "rep",
        &Obs::disabled(),
    )
}

/// [`replicate_fdw`] recording per-DAGMan samples into the registry as
/// histograms `fdw.{scope}.runtime_h` and `fdw.{scope}.throughput_jpm`
/// (plus a `fdw.{scope}.replications` counter). The returned spreads
/// come from this call's samples. Use one `scope` per aggregated
/// configuration — samples recorded under the same scope on the same
/// sink pool together in the registry.
#[allow(clippy::too_many_arguments)]
pub fn replicate_fdw_with_obs(
    cfg: &FdwConfig,
    n_dagmans: usize,
    total_waveforms: u64,
    cluster_cfg: &ClusterConfig,
    seeds: &[u64],
    scope: &str,
    obs: &Obs,
) -> Result<ReplicatedStats, String> {
    let rt_name = format!("fdw.{scope}.runtime_h");
    let tp_name = format!("fdw.{scope}.throughput_jpm");
    let mut runtimes = Vec::new();
    let mut throughputs = Vec::new();
    let mut through_inputs = Vec::new();
    for &seed in seeds {
        let out = run_concurrent_fdw_with_obs(
            cfg,
            n_dagmans,
            total_waveforms,
            cluster_cfg.clone(),
            seed,
            obs,
        )?;
        obs.inc(&format!("fdw.{scope}.replications"), 1);
        for h in out.runtimes_hours() {
            obs.observe(&rt_name, h);
            runtimes.push(h);
        }
        for (j, r) in out.throughput_inputs() {
            let jpm = if r > 0.0 { j as f64 / r } else { 0.0 };
            obs.observe(&tp_name, jpm);
            throughputs.push(jpm);
            through_inputs.push((j, r));
        }
    }
    let mut runtime_h = mean_sd(&runtimes);
    runtime_h.mean = stats::concurrent_avg_runtime(&runtimes);
    let mut throughput_jpm = mean_sd(&throughputs);
    throughput_jpm.mean = stats::concurrent_avg_throughput(&through_inputs);
    Ok(ReplicatedStats {
        runtime_h,
        throughput_jpm,
    })
}

/// Run the single-machine AWS baseline for a configuration: the same job
/// list executed on one 4-CPU instance at the §3.1-measured per-job times
/// (rupture 287 s, waveform 144 s).
pub fn aws_baseline(cfg: &FdwConfig, seed: u64) -> SingleRunReport {
    let mut specs: Vec<JobSpec> = Vec::new();
    if !cfg.recycle_npy {
        let mut s = JobSpec::fixed("matrix.0", 600.0);
        s.exec = calibration::matrix_job_exec();
        specs.push(s);
    }
    for i in 0..cfg.n_rupture_jobs() {
        specs.push(JobSpec::fixed(
            format!("rupture.{i}"),
            calibration::VDC_RUPTURE_SECS as f64,
        ));
    }
    specs.push(JobSpec::fixed(
        "gf.0",
        calibration::gf_job_exec(cfg.station_input.station_count()).median_s(),
    ));
    for i in 0..cfg.n_waveform_jobs() {
        specs.push(JobSpec::fixed(
            format!("waveform.{i}"),
            calibration::VDC_WAVEFORM_SECS as f64,
        ));
    }
    SingleMachine {
        slots: calibration::AWS_BASELINE_SLOTS,
        speed: 1.0,
    }
    .run(&specs, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StationInput;
    use fakequakes::stations::ChileanInput;

    /// A small, fast cluster for unit tests (the full OSG config is
    /// exercised by the bench harness and integration tests).
    fn tiny_cluster() -> ClusterConfig {
        ClusterConfig {
            pool: PoolConfig {
                target_slots: 64,
                glidein_slots: 8,
                avail_mean: 0.9,
                avail_sigma: 0.05,
                glidein_lifetime_s: 1e9,
                ..Default::default()
            },
            ..ClusterConfig::with_cache()
        }
    }

    fn small_cfg(n: u64) -> FdwConfig {
        FdwConfig {
            n_waveforms: n,
            station_input: StationInput::Chilean(ChileanInput::Small),
            ..Default::default()
        }
    }

    #[test]
    fn single_fdw_completes_all_jobs() {
        let cfg = small_cfg(64);
        let out = run_fdw(&cfg, tiny_cluster(), 1).unwrap();
        assert_eq!(out.stats.len(), 1);
        assert_eq!(out.stats[0].completed as u64, cfg.total_jobs());
        assert!(out.runtimes_hours()[0] > 0.0);
    }

    #[test]
    fn concurrent_fdw_splits_work() {
        let cfg = small_cfg(64);
        let out = run_concurrent_fdw(&cfg, 2, 64, tiny_cluster(), 2).unwrap();
        assert_eq!(out.stats.len(), 2);
        let total: usize = out.stats.iter().map(|s| s.completed).sum();
        // 2 DAGMans × (2 rupture + 16 waveform + gf + matrix) = 2 × 20.
        assert_eq!(
            total as u64,
            FdwConfig {
                n_waveforms: 32,
                ..cfg
            }
            .total_jobs()
                * 2
        );
    }

    #[test]
    fn zero_dagmans_rejected() {
        assert!(run_concurrent_fdw(&small_cfg(8), 0, 8, tiny_cluster(), 1).is_err());
    }

    #[test]
    fn replication_aggregates_all_runs() {
        let cfg = small_cfg(32);
        let reps = replicate_fdw(&cfg, 1, 32, &tiny_cluster(), &[1, 2, 3]).unwrap();
        assert!(reps.runtime_h.mean > 0.0);
        assert!(reps.throughput_jpm.mean > 0.0);
        assert!(reps.runtime_h.min <= reps.runtime_h.mean);
        assert!(reps.runtime_h.max >= reps.runtime_h.mean);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = small_cfg(32);
        let a = run_fdw(&cfg, tiny_cluster(), 7).unwrap();
        let b = run_fdw(&cfg, tiny_cluster(), 7).unwrap();
        assert_eq!(a.report.makespan, b.report.makespan);
        let c = run_fdw(&cfg, tiny_cluster(), 8).unwrap();
        assert_ne!(a.report.makespan, c.report.makespan);
    }

    #[test]
    fn aws_baseline_runtime_shape() {
        // 1,024 full-input waveforms: 64 rupture + 512 waveform jobs + gf
        // + matrix on 4 slots.
        let cfg = FdwConfig {
            n_waveforms: 1024,
            ..Default::default()
        };
        let r = aws_baseline(&cfg, 1);
        assert_eq!(r.jobs as u64, cfg.total_jobs());
        let expected = (600.0 + 64.0 * 287.0 + (90.0 + 85.0 * 121.0) + 512.0 * 144.0) / 4.0;
        let got = r.makespan.as_secs() as f64;
        // List scheduling won't be perfectly balanced but must be close.
        assert!(
            (got / expected - 1.0).abs() < 0.25,
            "baseline {got} vs ideal {expected}"
        );
        // ~7 hours, the regime the 56.8% claim implies.
        assert!(got > 5.0 * 3600.0 && got < 9.5 * 3600.0, "baseline {got}");
    }

    #[test]
    fn phase_spans_and_dag_metrics_cover_the_pipeline() {
        let cfg = small_cfg(32);
        let obs = Obs::enabled();
        let out = run_concurrent_fdw_with_obs(&cfg, 2, 32, tiny_cluster(), 4, &obs).unwrap();
        assert_eq!(out.dag_metrics.len(), 2);
        for (doc, s) in out.dag_metrics.iter().zip(&out.stats) {
            assert!(fdw_obs::json::validate(doc).is_ok(), "{doc}");
            assert!(doc.contains(&format!("\"jobs_succeeded\":{}", s.completed)));
        }
        let trace = obs.chrome_trace();
        assert!(fdw_obs::json::validate(&trace).is_ok());
        let cats = fdw_obs::chrome::categories(&trace);
        assert!(cats.contains(&"phase".to_string()), "{cats:?}");
        assert!(cats.contains(&"pool".to_string()), "{cats:?}");
        assert!(cats.contains(&"dagman".to_string()), "{cats:?}");
        for phase in ["matrix", "rupture", "gf", "waveform"] {
            assert!(trace.contains(&format!("\"name\":\"{phase}\"")), "{phase}");
            assert!(obs
                .histogram_stats(&format!("fdw.phase.{phase}_s"))
                .is_some());
        }
        // Registry totals agree with the per-DAGMan statistics.
        let completed: usize = out.stats.iter().map(|s| s.completed).sum();
        assert_eq!(obs.counter("dagman.nodes_done"), completed as u64);
        assert_eq!(obs.counter("pool.completions"), completed as u64);
    }

    #[test]
    fn replicated_stats_match_the_registry() {
        let cfg = small_cfg(32);
        let obs = Obs::metrics_only();
        let reps =
            replicate_fdw_with_obs(&cfg, 1, 32, &tiny_cluster(), &[1, 2, 3], "t", &obs).unwrap();
        let plain = replicate_fdw(&cfg, 1, 32, &tiny_cluster(), &[1, 2, 3]).unwrap();
        assert_eq!(reps.runtime_h.mean, plain.runtime_h.mean);
        assert_eq!(reps.runtime_h.sd, plain.runtime_h.sd);
        assert_eq!(reps.throughput_jpm.mean, plain.throughput_jpm.mean);
        let h = obs.histogram_stats("fdw.t.runtime_h").unwrap();
        assert_eq!(h.count, 3, "one sample per seed per DAGMan");
        assert_eq!(h.min, reps.runtime_h.min);
        assert_eq!(h.max, reps.runtime_h.max);
        assert_eq!(obs.counter("fdw.t.replications"), 3);
    }

    #[test]
    fn gf_bundle_is_cache_hit_heavy_in_c_phase() {
        let cfg = small_cfg(64);
        let out = run_fdw(&cfg, tiny_cluster(), 3).unwrap();
        assert!(
            out.report.cache_hit_rate > 0.3,
            "hit rate {}",
            out.report.cache_hit_rate
        );
    }
}
