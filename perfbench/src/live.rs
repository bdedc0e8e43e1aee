//! `live_campaign`: the science every FDW job runs, on recycled artifacts.
//!
//! Set-up builds the inputs and the DAG, runs the A-phase matrix job and the
//! B-phase GF job, encodes their artifacts, and warms the process-wide
//! factor cache with exactly the `RuptureConfig` that `live_rupture_job`
//! builds. The run then executes every rupture and waveform job of the DAG
//! from the bytes a grid job would receive. Nothing touches the disk.

use fakequakes::artifacts::{
    distance_matrices_from_npy, distance_matrices_to_npy, gf_library_from_mseed,
    gf_library_to_mseed, waveform_to_mseed,
};
use fakequakes::distance::DistanceMatrices;
use fakequakes::greens::GfLibrary;
use fakequakes::mseed::MseedFile;
use fakequakes::rupture::{RuptureConfig, RuptureGenerator, RuptureScenario};
use fakequakes::stations::ChileanInput;
use fakequakes::stochastic::FactorCache;
use fdw_core::config::{FdwConfig, StationInput};
use fdw_core::live::{
    build_inputs, live_gf_phase, live_matrix_phase, live_rupture_job, live_waveform_job, LiveInputs,
};
use fdw_core::phases::{build_fdw_dag, phase_names};

use crate::{derive_seed, fold_bytes, fold_f64s, guarded, PassOutput, Tracer};

/// Shape of the campaign.
#[derive(Debug, Clone)]
pub struct Size {
    /// Along-strike subfaults.
    pub nx: usize,
    /// Down-dip subfaults.
    pub nd: usize,
    /// Station input.
    pub stations: StationInput,
    /// Scenarios (the paper's "waveforms") per campaign.
    pub scenarios: u64,
    /// Record length in seconds at 1 Hz.
    pub duration_s: f64,
}

impl Size {
    /// The benchmark shape: the default 32×16 mesh, the 121-station
    /// Chilean input, 512-s records.
    pub fn full() -> Self {
        Self {
            nx: 32,
            nd: 16,
            stations: StationInput::Chilean(ChileanInput::Full),
            scenarios: 64,
            duration_s: 512.0,
        }
    }

    /// A seconds-scale shape for tests.
    pub fn tiny() -> Self {
        Self {
            nx: 10,
            nd: 5,
            stations: StationInput::Chilean(ChileanInput::Small),
            scenarios: 6,
            duration_s: 64.0,
        }
    }
}

/// Everything the run needs, as a grid job would receive it.
pub struct State {
    cfg: FdwConfig,
    inputs: LiveInputs,
    duration_s: f64,
    /// `(first scenario, count)` of every rupture job, in DAG order.
    rupture_jobs: Vec<(u64, u64)>,
    /// `(first scenario, count)` of every waveform job, in DAG order.
    waveform_jobs: Vec<(u64, u64)>,
    npy_subfault: Vec<u8>,
    npy_station: Vec<u8>,
    gf_mseed: Vec<u8>,
    /// Factor-cache misses the set-up caused.
    pub setup_misses: u64,
}

/// The DAG's job ranges for one phase: job `i` covers scenarios
/// `[i * per_job, min((i + 1) * per_job, total))`.
fn job_ranges(dag: &dagman::dag::Dag, phase: &str, per_job: u64, total: u64) -> Vec<(u64, u64)> {
    let prefix = format!("{phase}.");
    let mut out: Vec<(u64, u64)> = dag
        .nodes()
        .iter()
        .filter_map(|n| n.name.strip_prefix(&prefix)?.parse::<u64>().ok())
        .map(|i| {
            let first = i * per_job;
            (first, per_job.min(total.saturating_sub(first)))
        })
        .collect();
    out.sort_unstable();
    out
}

/// The configuration the campaign runs.
fn config(seed: u64, size: &Size) -> FdwConfig {
    FdwConfig {
        fault_nx: size.nx,
        fault_nd: size.nd,
        station_input: size.stations,
        n_waveforms: size.scenarios,
        seed: derive_seed(seed, 0),
        ..Default::default()
    }
}

fn encode_gf(gfs: &GfLibrary) -> Result<Vec<u8>, String> {
    gf_library_to_mseed(gfs)
        .to_bytes()
        .map_err(|e| e.to_string())
}

/// Build inputs, DAG and the A/B-phase artifacts, and warm the factor
/// cache.
pub fn setup(seed: u64, size: &Size, tr: &Tracer) -> Result<State, String> {
    let cfg = config(seed, size);
    let inputs = build_inputs(&cfg).map_err(|e| e.to_string())?;
    let dag = tr.span("fdw_core.phases", 0, || build_fdw_dag(&cfg))?;
    tr.count("fdw_core.phases.nodes", dag.len() as f64);
    let n = cfg.n_waveforms;
    let rupture_jobs = job_ranges(&dag, phase_names::RUPTURE, cfg.ruptures_per_job as u64, n);
    let waveform_jobs = job_ranges(&dag, phase_names::WAVEFORM, cfg.waveforms_per_job as u64, n);

    let matrices = tr.span("fakequakes.distance", 0, || live_matrix_phase(&inputs));
    let (npy_subfault, npy_station) = tr.span("fakequakes.artifacts.encode", 0, || {
        distance_matrices_to_npy(&matrices)
    });
    tr.count(
        "fakequakes.artifacts.bytes_out",
        (npy_subfault.len() + npy_station.len()) as f64,
    );

    // Warm the correlated-field factorisation with the exact config
    // `live_rupture_job` builds, so the run's rupture jobs all hit.
    let before = FactorCache::global().stats();
    let rcfg = RuptureConfig {
        mw_range: cfg.mw_range,
        ..Default::default()
    };
    tr.span("fakequakes.stochastic", 0, || {
        RuptureGenerator::new_cached(
            &inputs.fault,
            &matrices.subfault_to_subfault,
            rcfg,
            FactorCache::global(),
        )
        .map(|_| ())
        .map_err(|e| e.to_string())
    })?;
    let after = FactorCache::global().stats();
    let setup_misses = after.misses - before.misses;
    tr.count(
        "fakequakes.factor_cache.hits",
        (after.hits - before.hits) as f64,
    );
    tr.count("fakequakes.factor_cache.misses", setup_misses as f64);

    let gfs = tr
        .span("fakequakes.greens", 0, || live_gf_phase(&inputs))
        .map_err(|e| e.to_string())?;
    let gf_mseed = tr.span("fakequakes.artifacts.encode", 0, || encode_gf(&gfs))?;
    tr.count("fakequakes.artifacts.bytes_out", gf_mseed.len() as f64);

    Ok(State {
        cfg,
        inputs,
        duration_s: size.duration_s,
        rupture_jobs,
        waveform_jobs,
        npy_subfault,
        npy_station,
        gf_mseed,
        setup_misses,
    })
}

fn decode_npy(st: &State, tr: &Tracer, id: u64) -> Result<DistanceMatrices, String> {
    tr.count(
        "fakequakes.artifacts.bytes_in",
        (st.npy_subfault.len() + st.npy_station.len()) as f64,
    );
    tr.span("fakequakes.artifacts.decode", id, || {
        distance_matrices_from_npy(
            st.inputs.fault.name(),
            st.inputs.network.name(),
            &st.npy_subfault,
            &st.npy_station,
        )
    })
    .map_err(|e| e.to_string())
}

fn rupture_job(
    st: &State,
    tr: &Tracer,
    first: u64,
    count: u64,
) -> Result<Vec<RuptureScenario>, String> {
    let matrices = decode_npy(st, tr, first)?;
    let scenarios = tr
        .span("fakequakes.rupture", first, || {
            live_rupture_job(&st.cfg, &st.inputs, &matrices, first, count)
        })
        .map_err(|e| e.to_string())?;
    let ids: Vec<u64> = scenarios.iter().map(|s| s.id).collect();
    if ids != (first..first + count).collect::<Vec<_>>() {
        return Err(format!("rupture job {first}+{count} returned ids {ids:?}"));
    }
    let n = st.inputs.fault.len();
    for s in &scenarios {
        let ok = s.slip_m.len() == n
            && s.slip_m.iter().all(|x| x.is_finite() && *x >= 0.0)
            && s.slip_m.iter().any(|x| *x > 0.0)
            && s.mw.is_finite();
        if !ok {
            return Err(format!("scenario {} has an invalid slip field", s.id));
        }
    }
    tr.count("fakequakes.rupture.draws", count as f64);
    Ok(scenarios)
}

fn waveform_job(st: &State, tr: &Tracer, scenarios: &[RuptureScenario]) -> Result<Vec<u8>, String> {
    let id = scenarios.first().map_or(0, |s| s.id);
    let matrices = decode_npy(st, tr, id)?;
    tr.count("fakequakes.artifacts.bytes_in", st.gf_mseed.len() as f64);
    let gfs = tr
        .span("fakequakes.artifacts.decode", id, || {
            let file = MseedFile::from_bytes(&st.gf_mseed)?;
            gf_library_from_mseed(st.inputs.fault.name(), st.inputs.network.name(), &file)
        })
        .map_err(|e| e.to_string())?;
    let records = tr
        .span("fakequakes.waveform", id, || {
            live_waveform_job(
                &st.cfg,
                &st.inputs,
                &matrices,
                &gfs,
                scenarios,
                st.duration_s,
            )
        })
        .map_err(|e| e.to_string())?;
    let samples = st.duration_s as usize;
    let stations = st.inputs.network.len();
    if records.len() != scenarios.len() || records.iter().any(|r| r.len() != stations) {
        return Err(format!("waveform job {id}: wrong record count"));
    }
    let mut n_samples = 0u64;
    for w in records.iter().flatten() {
        let ok = [&w.east_m, &w.north_m, &w.up_m]
            .iter()
            .all(|c| c.len() == samples && c.iter().all(|x| x.is_finite()));
        if !ok {
            return Err(format!(
                "waveform job {id}: bad record at {}",
                w.station_code
            ));
        }
        n_samples += 3 * samples as u64;
    }
    tr.count("fakequakes.waveform.samples", n_samples as f64);
    let bytes = tr.span("fakequakes.artifacts.encode", id, || {
        let mut file = MseedFile::new();
        for w in records.iter().flatten() {
            waveform_to_mseed(&mut file, w);
        }
        file.to_bytes().map_err(|e| e.to_string())
    })?;
    tr.count("fakequakes.artifacts.bytes_out", bytes.len() as f64);
    Ok(bytes)
}

/// Run every rupture job, then every waveform job, of the campaign.
pub fn pass(st: &State, tr: &Tracer) -> PassOutput {
    let mut out = PassOutput::default();
    let before = FactorCache::global().stats();
    let mut scenarios: Vec<RuptureScenario> = Vec::new();
    let mut lost = false;
    for &(first, count) in &st.rupture_jobs {
        match out.record(guarded(|| rupture_job(st, tr, first, count))) {
            Some(batch) => {
                for s in &batch {
                    out.digest = fold_f64s(out.digest, &s.slip_m);
                }
                scenarios.extend(batch);
            }
            None => lost = true,
        }
    }
    let after = FactorCache::global().stats();
    let misses = after.misses - before.misses;
    tr.count(
        "fakequakes.factor_cache.hits",
        (after.hits - before.hits) as f64,
    );
    tr.count("fakequakes.factor_cache.misses", misses as f64);
    if misses != 0 {
        out.fail(format!("{misses} factor-cache misses in the run"));
    }
    for &(first, count) in &st.waveform_jobs {
        let r = guarded(|| {
            if lost {
                return Err(format!("waveform job {first}: a rupture job failed"));
            }
            let range = first as usize..(first + count) as usize;
            let batch = scenarios
                .get(range)
                .ok_or_else(|| format!("waveform job {first}: scenarios missing"))?;
            waveform_job(st, tr, batch)
        });
        if let Some(bytes) = out.record(r) {
            out.digest = fold_bytes(out.digest, &bytes);
            out.units += count;
        }
    }
    out
}
