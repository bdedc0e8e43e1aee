//! The live-compute path: execute the actual FakeQuakes science for an FDW
//! configuration on this machine, phase by phase — what an individual OSG
//! job runs inside the Singularity image, and what the integration tests
//! exercise end-to-end.
//!
//! The grid experiments model job *costs*; this module produces the real
//! *products* (ruptures, GF library, waveforms) so the two can be
//! cross-checked: a live A-phase job and a simulated one correspond to the
//! same unit of work.

use fakequakes::catalog::{generate_catalog, Catalog};
use fakequakes::distance::DistanceMatrices;
use fakequakes::error::FqResult;
use fakequakes::geometry::FaultModel;
use fakequakes::greens::GfLibrary;
use fakequakes::noise::NoiseModel;
use fakequakes::rupture::{RuptureConfig, RuptureGenerator, RuptureScenario};
use fakequakes::stations::StationNetwork;
use fakequakes::stochastic::FactorCache;
use fakequakes::waveform::WaveformConfig;
use fdw_obs::Obs;

use crate::config::{FdwConfig, StationInput};

/// Run `f`, timing it on the wall clock, and record the duration as a
/// `fq`-category microsecond span plus a `fq.{kernel}_us` histogram
/// sample. Free when the handle is disabled. The clock is read through
/// [`fdw_obs::wallclock::WallTimer`] — the one allowlisted wall-clock
/// site — so sim code stays `Instant`-free (fdwlint `wall-clock-in-sim`).
// fdwlint::allow(nondet-flow-to-sink): measured host wall time IS the telemetry payload here; spans/histograms are profiling artifacts, excluded from byte-stable comparison (BYTE_STABLE_CRATES) and never folded into science outputs
fn timed<T>(obs: &Obs, kernel: &str, tid: u64, f: impl FnOnce() -> T) -> T {
    if !obs.is_enabled() {
        return f();
    }
    let t0 = fdw_obs::wallclock::WallTimer::start();
    let out = f();
    let us = t0.elapsed_us();
    obs.span_us("fq", kernel, tid, 0, us);
    obs.observe(&format!("fq.{kernel}_us"), us as f64);
    out
}

/// Materialised inputs of a live run.
pub struct LiveInputs {
    /// The fault model built from the config's mesh dimensions.
    pub fault: FaultModel,
    /// The GNSS network for the configured station input.
    pub network: StationNetwork,
}

/// Build the fault and network for a config, honouring the configured
/// region.
pub fn build_inputs(cfg: &FdwConfig) -> FqResult<LiveInputs> {
    use crate::config::Region;
    let fault = match cfg.region {
        Region::Chile => FaultModel::chilean_subduction(cfg.fault_nx, cfg.fault_nd)?,
        Region::Cascadia => FaultModel::cascadia_subduction(cfg.fault_nx, cfg.fault_nd)?,
    };
    let network = match (cfg.region, cfg.station_input) {
        (Region::Chile, StationInput::Chilean(c)) => StationNetwork::chilean_input(c, cfg.seed),
        (Region::Chile, StationInput::Count(n)) => StationNetwork::chilean(n as usize, cfg.seed)?,
        // Cascadia uses its own network generator; the "full"/"small"
        // labels keep their station counts.
        (Region::Cascadia, input) => {
            StationNetwork::cascadia(input.station_count() as usize, cfg.seed)?
        }
    };
    Ok(LiveInputs { fault, network })
}

/// Live A-phase bootstrap: compute the recyclable distance matrices (the
/// `matrix.0` job).
pub fn live_matrix_phase(inputs: &LiveInputs) -> DistanceMatrices {
    DistanceMatrices::compute(&inputs.fault, &inputs.network)
}

/// Live A-phase work of one rupture job: generate the scenarios with ids
/// `[first, first + count)`.
pub fn live_rupture_job(
    cfg: &FdwConfig,
    inputs: &LiveInputs,
    matrices: &DistanceMatrices,
    first: u64,
    count: u64,
) -> FqResult<Vec<RuptureScenario>> {
    let rcfg = RuptureConfig {
        mw_range: cfg.mw_range,
        ..Default::default()
    };
    // Every rupture job on the same (mesh, correlation-params) pair shares
    // one correlated-field factorisation via the process-wide cache — the
    // FDW analogue of recycling the `.npy` factors across grid jobs.
    let generator = RuptureGenerator::new_cached(
        &inputs.fault,
        &matrices.subfault_to_subfault,
        rcfg,
        FactorCache::global(),
    )?;
    Ok((first..first + count)
        .map(|id| generator.generate(cfg.seed, id))
        .collect())
}

/// [`live_matrix_phase`] with kernel telemetry: the distance-matrix build
/// is timed into span/histogram `kernel.matrix_phase`.
pub fn live_matrix_phase_with_obs(inputs: &LiveInputs, obs: &Obs) -> DistanceMatrices {
    timed(obs, "kernel.matrix_phase", 0, || live_matrix_phase(inputs))
}

/// [`live_rupture_job`] with kernel telemetry: the job is timed into
/// span/histogram `kernel.rupture_job` (track = `first`), and the
/// process-wide correlated-field factor cache's hit/miss deltas across
/// the job are accumulated under `fq.factor_cache.hits` / `.misses` — the
/// counters the bench harness reads to show recycling at work.
pub fn live_rupture_job_with_obs(
    cfg: &FdwConfig,
    inputs: &LiveInputs,
    matrices: &DistanceMatrices,
    first: u64,
    count: u64,
    obs: &Obs,
) -> FqResult<Vec<RuptureScenario>> {
    let before = FactorCache::global().stats();
    let out = timed(obs, "kernel.rupture_job", first, || {
        live_rupture_job(cfg, inputs, matrices, first, count)
    })?;
    let after = FactorCache::global().stats();
    obs.inc(
        "fq.factor_cache.hits",
        after.hits.saturating_sub(before.hits),
    );
    obs.inc(
        "fq.factor_cache.misses",
        after.misses.saturating_sub(before.misses),
    );
    Ok(out)
}

/// Live B-phase work: compute the Green's function library (the `gf.0`
/// job).
pub fn live_gf_phase(inputs: &LiveInputs) -> FqResult<GfLibrary> {
    GfLibrary::compute(&inputs.fault, &inputs.network)
}

/// Live C-phase work of one waveform job: synthesise waveforms for the
/// given scenarios at every station.
pub fn live_waveform_job(
    cfg: &FdwConfig,
    inputs: &LiveInputs,
    matrices: &DistanceMatrices,
    gfs: &GfLibrary,
    scenarios: &[RuptureScenario],
    duration_s: f64,
) -> FqResult<Vec<Vec<fakequakes::waveform::GnssWaveform>>> {
    let wcfg = WaveformConfig {
        stf: cfg.stf,
        duration_s,
        ..Default::default()
    };
    scenarios
        .iter()
        .map(|sc| {
            fakequakes::waveform::synthesize_all_stations(
                &inputs.fault,
                gfs,
                &matrices.station_to_subfault,
                sc,
                &wcfg,
                cfg.seed,
            )
        })
        .collect()
}

/// [`live_waveform_job`] with kernel telemetry: the job is timed into
/// span/histogram `kernel.waveform_job` (track = index of the first
/// scenario, or 0 when empty).
pub fn live_waveform_job_with_obs(
    cfg: &FdwConfig,
    inputs: &LiveInputs,
    matrices: &DistanceMatrices,
    gfs: &GfLibrary,
    scenarios: &[RuptureScenario],
    duration_s: f64,
    obs: &Obs,
) -> FqResult<Vec<Vec<fakequakes::waveform::GnssWaveform>>> {
    let tid = scenarios.first().map_or(0, |s| s.id);
    timed(obs, "kernel.waveform_job", tid, || {
        live_waveform_job(cfg, inputs, matrices, gfs, scenarios, duration_s)
    })
}

/// Run the whole pipeline live for a (small) configuration — what the
/// single-machine baseline computes, and what the quickstart example
/// shows.
pub fn live_full_run(cfg: &FdwConfig, duration_s: f64) -> FqResult<Catalog> {
    let inputs = build_inputs(cfg)?;
    generate_catalog(
        &inputs.fault,
        &inputs.network,
        None,
        None,
        RuptureConfig {
            mw_range: cfg.mw_range,
            ..Default::default()
        },
        WaveformConfig {
            stf: cfg.stf,
            duration_s,
            noise: NoiseModel::default(),
            ..Default::default()
        },
        cfg.n_waveforms,
        cfg.seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fakequakes::stations::ChileanInput;

    fn tiny_cfg() -> FdwConfig {
        FdwConfig {
            fault_nx: 10,
            fault_nd: 5,
            station_input: StationInput::Chilean(ChileanInput::Small),
            n_waveforms: 4,
            ruptures_per_job: 2,
            waveforms_per_job: 2,
            ..Default::default()
        }
    }

    #[test]
    fn inputs_match_config() {
        let cfg = tiny_cfg();
        let inputs = build_inputs(&cfg).unwrap();
        assert_eq!(inputs.fault.len(), 50);
        assert_eq!(inputs.network.len(), 2);
        let custom = FdwConfig {
            station_input: StationInput::Count(7),
            ..cfg
        };
        assert_eq!(build_inputs(&custom).unwrap().network.len(), 7);
    }

    #[test]
    fn phase_outputs_compose() {
        let cfg = tiny_cfg();
        let inputs = build_inputs(&cfg).unwrap();
        let matrices = live_matrix_phase(&inputs);
        let scenarios = live_rupture_job(&cfg, &inputs, &matrices, 0, 4).unwrap();
        assert_eq!(scenarios.len(), 4);
        let gfs = live_gf_phase(&inputs).unwrap();
        let wfs = live_waveform_job(&cfg, &inputs, &matrices, &gfs, &scenarios[..2], 64.0).unwrap();
        assert_eq!(wfs.len(), 2);
        assert_eq!(wfs[0].len(), 2); // two stations
        assert_eq!(wfs[0][0].len(), 64);
    }

    #[test]
    fn rupture_job_ids_are_globally_consistent() {
        // Two jobs covering disjoint id ranges must produce exactly what a
        // single job covering the union would — the property that makes
        // the A phase embarrassingly parallel.
        let cfg = tiny_cfg();
        let inputs = build_inputs(&cfg).unwrap();
        let matrices = live_matrix_phase(&inputs);
        let all = live_rupture_job(&cfg, &inputs, &matrices, 0, 4).unwrap();
        let a = live_rupture_job(&cfg, &inputs, &matrices, 0, 2).unwrap();
        let b = live_rupture_job(&cfg, &inputs, &matrices, 2, 2).unwrap();
        for (x, y) in all.iter().zip(a.iter().chain(b.iter())) {
            assert_eq!(x.slip_m, y.slip_m);
            assert_eq!(x.hypocenter_idx, y.hypocenter_idx);
        }
    }

    #[test]
    fn instrumented_jobs_record_kernel_spans_and_cache_counters() {
        let cfg = tiny_cfg();
        let inputs = build_inputs(&cfg).unwrap();
        let obs = Obs::enabled();
        let matrices = live_matrix_phase_with_obs(&inputs, &obs);
        // Same mesh + correlation params twice: the second job must reuse
        // the recycled correlated-field factorisation.
        let a = live_rupture_job_with_obs(&cfg, &inputs, &matrices, 0, 2, &obs).unwrap();
        let b = live_rupture_job_with_obs(&cfg, &inputs, &matrices, 2, 2, &obs).unwrap();
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 2);
        assert!(
            obs.counter("fq.factor_cache.hits") >= 1,
            "second rupture job should hit the factor cache"
        );
        let gfs = live_gf_phase(&inputs).unwrap();
        let wfs = live_waveform_job_with_obs(&cfg, &inputs, &matrices, &gfs, &a[..1], 64.0, &obs)
            .unwrap();
        assert_eq!(wfs.len(), 1);
        for kernel in ["matrix_phase", "rupture_job", "waveform_job"] {
            let h = obs.histogram_stats(&format!("fq.kernel.{kernel}_us"));
            assert!(h.is_some(), "missing fq.kernel.{kernel}_us histogram");
        }
        let trace = obs.chrome_trace();
        assert!(trace.contains("\"name\":\"kernel.rupture_job\""), "{trace}");
        // Instrumented and plain paths produce identical science.
        let plain = live_rupture_job(&cfg, &inputs, &matrices, 0, 2).unwrap();
        for (x, y) in a.iter().zip(&plain) {
            assert_eq!(x.slip_m, y.slip_m);
        }
    }

    #[test]
    fn full_live_run_produces_catalog() {
        let catalog = live_full_run(&tiny_cfg(), 64.0).unwrap();
        assert_eq!(catalog.len(), 4);
        for s in catalog.summaries() {
            assert!(s.peak_slip_m > 0.0);
        }
    }

    #[test]
    fn cascadia_region_builds_and_runs() {
        use crate::config::Region;
        let cfg = FdwConfig {
            region: Region::Cascadia,
            ..tiny_cfg()
        };
        let inputs = build_inputs(&cfg).unwrap();
        assert_eq!(inputs.fault.name(), "cascadia_slab2like");
        assert!(inputs.network.name().starts_with("cascadia"));
        // Stations sit in the northern hemisphere near the margin.
        assert!(inputs.network.station(0).location.lat > 39.0);
        let catalog = live_full_run(&cfg, 64.0).unwrap();
        assert_eq!(catalog.len(), 4);
        assert!(catalog.summaries().iter().all(|s| s.peak_slip_m > 0.0));
    }

    #[test]
    fn region_config_roundtrip() {
        use crate::config::Region;
        let cfg = FdwConfig {
            region: Region::Cascadia,
            ..tiny_cfg()
        };
        let parsed = FdwConfig::parse(&cfg.to_config_file()).unwrap();
        assert_eq!(parsed.region, Region::Cascadia);
        assert!(FdwConfig::parse("region = atlantis\n").is_err());
    }
}
