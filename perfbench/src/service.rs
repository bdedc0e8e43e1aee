//! `service_overload`: the multi-tenant front-end under overload.
//!
//! Each run is `run_service_campaign` with `ServiceConfig::defended(4)`
//! and the overload ablation's workload mix, at 2×, 6× and 10× overload,
//! over several seeds. It is the only workload on the sharded DES, the
//! admission/fair-share/breaker/degradation/store engine, and the science
//! bridge that draws many small-mesh ruptures from shared factors.
//!
//! The traced pass composes `run_service_campaign` from `run_service` and
//! `science_digest` over the same budgeted factor cache.

use fakequakes::stochastic::FactorCache;
use fdw_core::config::FdwConfig;
use fdw_core::service::{run_service_campaign, science_digest, ScienceReport};
use fdw_service::config::ServiceConfig;
use fdw_service::engine::{run_service, ServiceReport};
use fdw_service::request::{request_stream, WorkloadConfig};

use crate::{derive_seed, guarded, PassOutput, Tracer};

/// Executor shards of every run.
pub const EXEC_SHARDS: u32 = 2;
/// DES epoch, simulated seconds.
pub const EPOCH_S: u64 = 60;

/// Shape of the workload.
#[derive(Debug, Clone)]
pub struct Size {
    /// Campaign requests per run.
    pub campaigns: u32,
    /// Overload levels.
    pub levels: Vec<f64>,
    /// Seeds per level.
    pub seeds: u64,
}

impl Size {
    /// The benchmark shape.
    pub fn full() -> Self {
        Self {
            campaigns: 5_000,
            levels: vec![2.0, 6.0, 10.0],
            seeds: 2,
        }
    }

    /// A seconds-scale shape for tests.
    pub fn tiny() -> Self {
        Self {
            campaigns: 60,
            levels: vec![2.0, 10.0],
            seeds: 1,
        }
    }
}

/// The validated configurations of every run.
pub struct State {
    /// The front-end configuration.
    pub cfg: ServiceConfig,
    /// One workload per (seed, level) run.
    pub runs: Vec<WorkloadConfig>,
    /// DES threads of every run.
    pub threads: usize,
}

/// Check the request stream a workload generates: every campaign once,
/// ids dense and submits ordered, every field in range.
fn validate_stream(cfg: &ServiceConfig, wl: &WorkloadConfig) -> Result<(), String> {
    let stream = request_stream(wl, cfg.tenants, cfg.max_concurrent);
    if stream.len() != wl.campaigns as usize {
        return Err(format!(
            "{} of {} requests generated",
            stream.len(),
            wl.campaigns
        ));
    }
    let mut ids: Vec<u64> = stream.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    if ids.iter().enumerate().any(|(i, id)| *id != i as u64) {
        return Err("request ids are not dense".into());
    }
    let ordered = stream.windows(2).all(|w| w[0].submit <= w[1].submit);
    let in_range = stream.iter().all(|r| {
        r.tenant < cfg.tenants
            && r.class < wl.classes
            && r.replicas == wl.replicas
            && r.deadline > r.submit
    });
    if !ordered || !in_range {
        return Err(format!("malformed request stream for {wl:?}"));
    }
    Ok(())
}

/// Build the configurations: write the front-end's parameter file and read
/// it back (`FdwConfig::parse` validates every service knob), then build
/// one workload per (seed, level) run.
pub fn setup(seed: u64, size: &Size, threads: usize, tr: &Tracer) -> Result<State, String> {
    tr.span("fdw_core.config", 0, || {
        let written = FdwConfig {
            service: ServiceConfig::defended(4),
            ..Default::default()
        };
        let cfg = FdwConfig::parse(&written.to_config_file())?;
        if cfg != written {
            return Err("the service's parameter file does not read back".into());
        }
        let cfg = cfg.service;
        let mut runs = Vec::new();
        for k in 0..size.seeds {
            let s = derive_seed(seed, k);
            for &x in &size.levels {
                let wl = WorkloadConfig {
                    seed: s,
                    campaigns: size.campaigns,
                    classes: 4,
                    overload_x: x,
                    fail_permille: 150,
                    corrupt_permille: 150,
                    replicas: 8,
                    deadline_slack: 4.0,
                };
                runs.push(wl);
            }
        }
        Ok(State { cfg, runs, threads })
    })
}

/// Check the request stream of every run. The engine builds its own stream
/// in the run, so this check stays outside the set-up's timing.
pub fn check_inputs(st: &State) -> Result<(), String> {
    st.runs
        .iter()
        .try_for_each(|wl| validate_stream(&st.cfg, wl))
}

/// `run_service` then `science_digest`, as `run_service_campaign` does,
/// with a span around each.
fn composed(
    st: &State,
    wl: &WorkloadConfig,
    tr: &Tracer,
    id: u64,
) -> Result<(ServiceReport, ScienceReport), String> {
    let service = tr.span("fdw_service.engine", id, || {
        run_service(&st.cfg, wl, EXEC_SHARDS, EPOCH_S, st.threads)
    });
    let science = tr
        .span("fdw_core.service", id, || {
            if st.cfg.enabled && st.cfg.store_enabled {
                let budget = st.cfg.store_budget_mb as usize * 1024 * 1024;
                let cache = FactorCache::with_byte_budget(budget);
                science_digest(&service.outcomes, wl.seed, Some(&cache))
            } else {
                science_digest(&service.outcomes, wl.seed, None)
            }
        })
        .map_err(|e| e.to_string())?;
    Ok((service, science))
}

fn count(tr: &Tracer, service: &ServiceReport, science: &ScienceReport) {
    let s = &service.stats;
    tr.count("fdw_service.engine.events", service.events as f64);
    tr.count("fdw_service.engine.requests", service.outcomes.len() as f64);
    tr.count("fdw_service.engine.completed", s.completed as f64);
    tr.count(
        "fdw_service.engine.rejected",
        (s.rejected_quota + s.rejected_queue + s.rejected_breaker) as f64,
    );
    tr.count(
        "fdw_service.engine.shed",
        (s.shed_backlog + s.shed_deadline) as f64,
    );
    tr.count(
        "fdw_service.engine.degraded",
        (s.degraded_kl + s.degraded_replicas) as f64,
    );
    tr.count("fdw_service.engine.breaker_opens", s.breaker_opens as f64);
    tr.count(
        "fdw_service.engine.goodput_frac_sum",
        service.goodput_fraction(),
    );
    tr.count("fdw_service.engine.runs", 1.0);
    let st = &service.store;
    tr.count("fdw_service.store.hits", st.hits as f64);
    tr.count("fdw_service.store.misses", st.misses as f64);
    tr.count(
        "fdw_service.store.cross_tenant_hits",
        st.cross_tenant_hits as f64,
    );
    tr.count("fdw_service.store.quarantines", st.quarantines as f64);
    tr.count("fdw_service.store.evictions", st.evictions as f64);
    tr.count("fdw_core.service.ruptures", science.ruptures as f64);
    tr.count(
        "fdw_core.service.factorisations",
        science.factorisations as f64,
    );
}

/// Run every (seed, level) campaign. A traced pass runs the two steps of
/// `run_service_campaign` itself, so each gets its own span; the digests
/// it folds must match the untraced pass's.
pub fn pass(st: &State, tr: &Tracer) -> PassOutput {
    let mut out = PassOutput::default();
    for (i, wl) in st.runs.iter().enumerate() {
        let id = i as u64;
        let r = guarded(|| {
            let (service, science) = if tr.is_on() {
                composed(st, wl, tr, id)?
            } else {
                let r = run_service_campaign(&st.cfg, wl, EXEC_SHARDS, EPOCH_S, st.threads)
                    .map_err(|e| e.to_string())?;
                (r.service, r.science)
            };
            if service.unaccounted != 0 {
                return Err(format!(
                    "run {i}: {} requests unaccounted",
                    service.unaccounted
                ));
            }
            if science.campaigns != service.stats.completed {
                return Err(format!(
                    "run {i}: science mapped {} of {} completions",
                    science.campaigns, service.stats.completed
                ));
            }
            count(tr, &service, &science);
            Ok((service, science))
        });
        if let Some((service, science)) = out.record(r) {
            out.fold(service.decision_digest);
            out.fold(science.digest);
            out.units += service.outcomes.len() as u64;
        }
    }
    out
}
