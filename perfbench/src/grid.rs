//! `grid_sweep`: the host cost of reproducing the paper's grid figures.
//!
//! Every point goes through `run_concurrent_fdw_with_obs`, sharing one
//! `Obs::metrics_only()` handle per sweep, and every run's user log is
//! rendered with `to_condor_log`. No science kernel runs.
//!
//! The traced pass times each whole call, then composes the same steps
//! itself (DAG build, `MultiDagman`, `Cluster::run` behind a timing
//! [`TimedDriver`], `per_dagman_stats`, `dag_metrics`, `to_condor_log`)
//! and checks that the composition reproduces the call's bytes. It also
//! reruns the Fig. 2 points with telemetry disabled to price the metrics
//! registry.

use std::time::Instant;

use dagman::driver::MultiDagman;
use dagman::monitor::{dag_metrics, per_dagman_stats};
use fakequakes::stations::ChileanInput;
use fdw_core::config::{FdwConfig, StationInput};
use fdw_core::failover::federated_cluster_config;
use fdw_core::phases::{build_fdw_dag, split_waveforms};
use fdw_core::workflow::{osg_cluster_config, run_concurrent_fdw_with_obs};
use fdw_obs::Obs;
use htcsim::cluster::{Cluster, ClusterConfig, WorkloadDriver};
use htcsim::condor_log::to_condor_log;
use htcsim::fault::PoolFaultConfig;
use htcsim::federation::FederationConfig;
use htcsim::job::{JobEvent, JobId, SubmitRequest};
use htcsim::time::SimTime;

use crate::{derive_seed, fold_bytes, guarded, PassOutput, Tracer};

/// Shape of the sweep.
#[derive(Debug, Clone)]
pub struct Size {
    /// Fig. 2 waveform quantities (each with the small and full input).
    pub fig2_quantities: Vec<u64>,
    /// Fig. 3 total waveforms (full input).
    pub fig3_waveforms: u64,
    /// Fig. 3 concurrent-DAGMan levels.
    pub fig3_dagmans: Vec<usize>,
    /// Waveforms of the federated failover campaign.
    pub federated_waveforms: u64,
    /// Replication seeds per Fig. 2 / Fig. 3 point.
    pub seeds: u64,
}

impl Size {
    /// The benchmark shape: the paper's Fig. 2 and Fig. 3 points and one
    /// federated campaign.
    pub fn full() -> Self {
        Self {
            fig2_quantities: vec![1_024, 2_000, 5_120, 10_000, 24_960, 50_000],
            fig3_waveforms: 16_000,
            fig3_dagmans: vec![1, 2, 4, 8],
            federated_waveforms: 16_000,
            seeds: 1,
        }
    }

    /// A seconds-scale shape for tests.
    pub fn tiny() -> Self {
        Self {
            fig2_quantities: vec![64, 128],
            fig3_waveforms: 128,
            fig3_dagmans: vec![1, 2],
            federated_waveforms: 64,
            seeds: 1,
        }
    }
}

/// One grid point as read back from its parameter file.
#[derive(Debug, Clone)]
pub struct Point {
    /// Human-readable label.
    pub label: String,
    /// True for a Fig. 2 point (the registry-overhead subset).
    pub fig2: bool,
    /// The parsed configuration.
    pub cfg: FdwConfig,
    /// Concurrent DAGMans.
    pub n_dagmans: usize,
    /// Waveforms across all DAGMans.
    pub total: u64,
    /// The simulated pool.
    pub cluster: ClusterConfig,
    /// Simulation seed.
    pub seed: u64,
}

impl Point {
    /// Jobs each DAGMan must complete.
    fn expected_jobs(&self) -> Vec<u64> {
        split_waveforms(self.total, self.n_dagmans)
            .into_iter()
            .map(|share| {
                FdwConfig {
                    n_waveforms: share.max(1),
                    ..self.cfg.clone()
                }
                .total_jobs()
            })
            .collect()
    }
}

/// The federated campaign's configuration: federation, failover and
/// checkpoints on, with the failover ablation's pool-fault plan (a
/// mid-run outage of the second pool and cloud spot reclamation at 0.9).
fn federated_config(waveforms: u64, seed: u64) -> FdwConfig {
    let mut cfg = FdwConfig {
        n_waveforms: waveforms,
        station_input: StationInput::Chilean(ChileanInput::Full),
        retry_defer_s: 30,
        seed,
        federation: FederationConfig {
            enabled: true,
            failover_enabled: true,
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

/// Every point of the sweep with its configuration as written (before
/// the parameter-file round trip).
pub fn points(seed: u64, size: &Size) -> Vec<Point> {
    let mut out = Vec::new();
    let mut k = 0;
    let mut next_seed = || {
        k += 1;
        derive_seed(seed, k)
    };
    for (input, tag) in [(ChileanInput::Small, "small"), (ChileanInput::Full, "full")] {
        for &q in &size.fig2_quantities {
            for r in 0..size.seeds {
                let s = next_seed();
                out.push(Point {
                    label: format!("fig2.{tag}.{q}.r{r}"),
                    fig2: true,
                    cfg: FdwConfig {
                        n_waveforms: q,
                        station_input: StationInput::Chilean(input),
                        seed: s,
                        ..Default::default()
                    },
                    n_dagmans: 1,
                    total: q,
                    cluster: osg_cluster_config(),
                    seed: s,
                });
            }
        }
    }
    for &n in &size.fig3_dagmans {
        for r in 0..size.seeds {
            let s = next_seed();
            out.push(Point {
                label: format!("fig3.{n}.r{r}"),
                fig2: false,
                cfg: FdwConfig {
                    n_waveforms: size.fig3_waveforms,
                    station_input: StationInput::Chilean(ChileanInput::Full),
                    seed: s,
                    ..Default::default()
                },
                n_dagmans: n,
                total: size.fig3_waveforms,
                cluster: osg_cluster_config(),
                seed: s,
            });
        }
    }
    if size.federated_waveforms > 0 {
        let s = next_seed();
        out.push(Point {
            label: "federated".to_string(),
            fig2: false,
            cfg: federated_config(size.federated_waveforms, s),
            n_dagmans: 1,
            total: size.federated_waveforms,
            cluster: federated_cluster_config(),
            seed: s,
        });
    }
    out
}

/// The sweep, each point's configuration read back from its parameter
/// file.
pub struct State {
    /// Points in run order.
    pub points: Vec<Point>,
}

/// Write each point's parameter file and read it back (`FdwConfig::parse`,
/// then `validate`).
pub fn setup(seed: u64, size: &Size, tr: &Tracer) -> Result<State, String> {
    let written = points(seed, size);
    tr.span("fdw_core.config", 0, || {
        let mut parsed = Vec::with_capacity(written.len());
        for p in written {
            let text = p.cfg.to_config_file();
            let cfg = FdwConfig::parse(&text).map_err(|e| format!("{}: {e}", p.label))?;
            cfg.validate().map_err(|e| format!("{}: {e}", p.label))?;
            parsed.push(Point { cfg, ..p });
        }
        Ok(State { points: parsed })
    })
}

/// The bytes a point's gate covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointBytes {
    /// The rendered user log.
    pub condor_log: String,
    /// The `.dag.metrics` documents in owner order.
    pub dag_metrics: Vec<String>,
    /// Jobs completed per DAGMan.
    pub completed: Vec<u64>,
}

impl PointBytes {
    fn digest(&self, mut h: u64) -> u64 {
        h = fold_bytes(h, self.condor_log.as_bytes());
        for d in &self.dag_metrics {
            h = fold_bytes(h, d.as_bytes());
        }
        h
    }

    fn gate(&self, p: &Point) -> Result<(), String> {
        let want = p.expected_jobs();
        if self.completed != want {
            return Err(format!(
                "{}: completed {:?} of {:?} jobs",
                p.label, self.completed, want
            ));
        }
        Ok(())
    }
}

/// Run one point through `run_concurrent_fdw_with_obs` and render its
/// user log. Also returns the call's wall time in seconds.
pub fn run_point(p: &Point, obs: &Obs, tr: &Tracer, id: u64) -> Result<(PointBytes, f64), String> {
    let t0 = Instant::now();
    let out = tr.span("fdw_core.workflow", id, || {
        run_concurrent_fdw_with_obs(&p.cfg, p.n_dagmans, p.total, p.cluster.clone(), p.seed, obs)
    })?;
    let call_s = t0.elapsed().as_secs_f64();
    let bytes = PointBytes {
        condor_log: to_condor_log(&out.report.log),
        dag_metrics: out.dag_metrics,
        completed: out.stats.iter().map(|s| s.completed as u64).collect(),
    };
    Ok((bytes, call_s))
}

/// A `WorkloadDriver` wrapper that times every callback into the wrapped
/// driver, as one aggregate span, and counts polls and submissions.
pub struct TimedDriver<'a, D: WorkloadDriver> {
    inner: &'a mut D,
    tr: &'a Tracer,
    agg: Option<usize>,
    /// `poll` calls.
    pub polls: u64,
    /// Submissions returned by `poll`.
    pub submits: u64,
}

impl<'a, D: WorkloadDriver> TimedDriver<'a, D> {
    /// Wrap `inner`; its callbacks are recorded under `dagman.driver`,
    /// inside whichever span is open when the wrapper is built.
    pub fn new(inner: &'a mut D, tr: &'a Tracer, id: u64) -> Self {
        Self {
            inner,
            tr,
            agg: tr.aggregate("dagman.driver", id),
            polls: 0,
            submits: 0,
        }
    }

    fn done(&self, t0: Option<Instant>) {
        if let (Some(idx), Some(t0)) = (self.agg, t0) {
            self.tr.accumulate(idx, t0);
        }
    }

    fn start(&self) -> Option<Instant> {
        self.agg.map(|_| Instant::now())
    }
}

impl<D: WorkloadDriver> WorkloadDriver for TimedDriver<'_, D> {
    fn poll(&mut self, now: SimTime, events: &[JobEvent]) -> Vec<SubmitRequest> {
        let t0 = self.start();
        let subs = self.inner.poll(now, events);
        self.done(t0);
        self.polls += 1;
        self.submits += subs.len() as u64;
        subs
    }

    fn on_assigned(&mut self, job: JobId, name: &str) {
        let t0 = self.start();
        self.inner.on_assigned(job, name);
        self.done(t0);
    }

    fn is_done(&self) -> bool {
        let t0 = self.start();
        let done = self.inner.is_done();
        self.done(t0);
        done
    }

    fn cancellations(&mut self) -> Vec<JobId> {
        let t0 = self.start();
        let out = self.inner.cancellations();
        self.done(t0);
        out
    }
}

/// The steps of `run_concurrent_fdw_with_obs`, composed from their public
/// parts with a span around each, plus `to_condor_log`.
pub fn composed_point(p: &Point, obs: &Obs, tr: &Tracer, id: u64) -> Result<PointBytes, String> {
    let base = &p.cfg;
    let mut cluster_cfg = p.cluster.clone();
    if base.fault.any_enabled() {
        cluster_cfg.faults = base.fault;
    }
    if base.defense.any_enabled() {
        cluster_cfg.defense = base.defense;
    }
    if base.federation.enabled {
        cluster_cfg.federation = base.federation;
    }
    if base.des_shards > 0 {
        cluster_cfg.shards = base.des_shards;
    }
    let dags = tr.span("fdw_core.phases", id, || {
        split_waveforms(p.total, p.n_dagmans)
            .into_iter()
            .map(|share| {
                build_fdw_dag(&FdwConfig {
                    n_waveforms: share.max(1),
                    ..base.clone()
                })
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    tr.count(
        "fdw_core.phases.nodes",
        dags.iter().map(|d| d.len()).sum::<usize>() as f64,
    );
    let mut multi = MultiDagman::new(dags)
        .with_obs(obs.clone())
        .with_speculation(base.speculation);
    let report = tr.span("htcsim.cluster", id, || {
        let mut driver = TimedDriver::new(&mut multi, tr, id);
        let report = Cluster::new(cluster_cfg, p.seed)
            .with_obs(obs.clone())
            .run(&mut driver);
        tr.count("dagman.driver.polls", driver.polls as f64);
        tr.count("dagman.driver.submits", driver.submits as f64);
        report
    });
    if report.timed_out {
        return Err(format!("{}: simulation hit the time cap", p.label));
    }
    tr.count("htcsim.cluster.events", report.log.events().len() as f64);
    tr.count("htcsim.cluster.cycles", report.pool_series.len() as f64);
    tr.count("htcsim.cluster.jobs", report.completed as f64);
    tr.count("htcsim.cluster.cache_hit_rate_sum", report.cache_hit_rate);
    tr.count("htcsim.cluster.runs", 1.0);
    tr.count(
        "htcsim.federation.breaker_opens",
        report.federation.breaker_opens as f64,
    );
    tr.count(
        "htcsim.federation.migrations",
        report.federation.migrations as f64,
    );
    tr.count(
        "htcsim.federation.resumes",
        report.federation.resumes as f64,
    );
    let (stats, docs) = tr.span("dagman.monitor", id, || {
        let stats = per_dagman_stats(&report);
        let docs = multi
            .dagmans()
            .iter()
            .map(|dm| {
                let s = stats
                    .iter()
                    .find(|s| s.owner == dm.owner())
                    .ok_or_else(|| format!("no stats for owner {}", dm.owner().0))?;
                Ok(dag_metrics(dm, s, 0, report.defense, report.federation).render())
            })
            .collect::<Result<Vec<_>, String>>();
        (stats, docs)
    });
    let docs = docs?;
    let condor_log = tr.span("htcsim.condor_log", id, || to_condor_log(&report.log));
    tr.count("htcsim.condor_log.bytes", condor_log.len() as f64);
    Ok(PointBytes {
        condor_log,
        dag_metrics: docs,
        completed: stats.iter().map(|s| s.completed as u64).collect(),
    })
}

/// Run every point of the sweep. A traced pass also composes each point
/// from its parts and reruns the Fig. 2 points with telemetry disabled,
/// alternating which of the two goes first; both must reproduce the
/// call's bytes.
pub fn pass(st: &State, tr: &Tracer) -> PassOutput {
    let mut out = PassOutput::default();
    let obs = Obs::metrics_only();
    let composed_obs = Obs::metrics_only();
    for (i, p) in st.points.iter().enumerate() {
        let id = i as u64;
        let r = guarded(|| {
            let price_registry = tr.is_on() && p.fig2;
            let disabled = || run_point(p, &Obs::disabled(), &Tracer::off(), id);
            let off_first = if price_registry && i % 2 == 1 {
                Some(disabled()?)
            } else {
                None
            };
            let t0 = Instant::now();
            let (bytes, on_s) = run_point(p, &obs, tr, id)?;
            tr.count("trace.comparable_s", t0.elapsed().as_secs_f64());
            bytes.gate(p)?;
            if price_registry {
                let (off_bytes, off_s) = match off_first {
                    Some(off) => off,
                    None => disabled()?,
                };
                if off_bytes != bytes {
                    return Err(format!("{}: telemetry changed the output", p.label));
                }
                tr.count("fdw_obs.registry.metrics_only_s", on_s);
                tr.count("fdw_obs.registry.disabled_s", off_s);
            }
            if tr.is_on() {
                let composed = composed_point(p, &composed_obs, tr, id)?;
                if composed != bytes {
                    return Err(format!("{}: composed steps changed the output", p.label));
                }
            }
            Ok(bytes)
        });
        if let Some(bytes) = out.record(r) {
            out.digest = bytes.digest(out.digest);
            out.units += bytes.completed.iter().sum::<u64>();
        }
    }
    out
}
