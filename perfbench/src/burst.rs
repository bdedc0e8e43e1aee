//! `burst_replay`: the Fig. 5 bursting sweep over two recorded batches.
//!
//! Set-up records the batches on the simulated OSPool with `run_fdw` and
//! renders their CSV text. The run parses both batches and replays each
//! under the control arm and every `BurstPolicies::paper_sweep` policy,
//! rendering each outcome's throughput CSV and one sweep CSV. All of its
//! time is in `vdc_burst`'s per-second replay.

use fakequakes::stations::ChileanInput;
use fdw_core::config::{FdwConfig, StationInput};
use fdw_core::workflow::{osg_cluster_config, run_fdw};
use vdc_burst::policy::BurstPolicies;
use vdc_burst::records::BatchInput;
use vdc_burst::report::{sweep_csv, throughput_csv, SweepRow};
use vdc_burst::simulator::{simulate, BurstOutcome};

use crate::{derive_seed, fold_bytes, fold_f64s, guarded, PassOutput, Tracer};

/// Policy 1 probe times of the Fig. 5 sweep, seconds.
pub const PROBE_TIMES: [u64; 7] = [1, 2, 5, 10, 30, 60, 120];
/// Policy 2 queue limits of the Fig. 5 sweep, minutes.
pub const QUEUE_MINS: [u64; 2] = [90, 120];

/// Shape of the workload.
#[derive(Debug, Clone)]
pub struct Size {
    /// Waveforms per recorded batch (full Chilean input, one DAGMan).
    pub waveforms: u64,
    /// Recorded batches.
    pub batches: u64,
}

impl Size {
    /// The benchmark shape.
    pub fn full() -> Self {
        Self {
            waveforms: 4_000,
            batches: 2,
        }
    }

    /// A seconds-scale shape for tests.
    pub fn tiny() -> Self {
        Self {
            waveforms: 128,
            batches: 2,
        }
    }
}

/// One recorded batch as CSV text.
pub struct Recorded {
    /// Label, `batch1`, `batch2`, ...
    pub label: String,
    /// `UserLog::batch_csv` text.
    pub batch_csv: String,
    /// `UserLog::jobs_csv` text.
    pub jobs_csv: String,
}

/// The recorded batches.
pub struct State {
    /// Batches in sweep order.
    pub batches: Vec<Recorded>,
}

/// Record the batches and render their CSV text.
pub fn setup(seed: u64, size: &Size, tr: &Tracer) -> Result<State, String> {
    let cfg = FdwConfig {
        n_waveforms: size.waveforms,
        station_input: StationInput::Chilean(ChileanInput::Full),
        ..Default::default()
    };
    let mut batches = Vec::new();
    for b in 0..size.batches {
        let out = tr.span("fdw_core.workflow", b, || {
            run_fdw(&cfg, osg_cluster_config(), derive_seed(seed, b))
        })?;
        let (batch_csv, jobs_csv) = tr.span("htcsim.userlog", b, || {
            (
                out.report.log.batch_csv(),
                out.report.log.jobs_csv(out.report.name_of()),
            )
        });
        batches.push(Recorded {
            label: format!("batch{}", b + 1),
            batch_csv,
            jobs_csv,
        });
    }
    Ok(State { batches })
}

/// The sweep's policies: the control arm, then every (queue, probe)
/// pair.
pub fn policies() -> Vec<(u64, u64, BurstPolicies)> {
    let mut out = vec![(0, 0, BurstPolicies::control())];
    for &queue in &QUEUE_MINS {
        for &probe in &PROBE_TIMES {
            out.push((probe, queue, BurstPolicies::paper_sweep(probe, queue)));
        }
    }
    out
}

fn fold_outcome(mut h: u64, o: &BurstOutcome) -> u64 {
    h = fold_f64s(h, &o.instant_series);
    h = fold_f64s(h, &[o.ait_jpm, o.vdc_minutes, o.cost_usd]);
    for x in [
        o.runtime_secs,
        o.total_jobs as u64,
        o.bursted_jobs as u64,
        o.unfinished_jobs as u64,
    ] {
        h = htcsim::des::digest_fold(h, x);
    }
    h
}

/// The control arm must replay the record exactly.
fn control_gate(input: &BatchInput, o: &BurstOutcome) -> Result<(), String> {
    let recorded = input.batch.runtime_secs();
    if o.runtime_secs != recorded || o.bursted_jobs != 0 || o.unfinished_jobs != 0 {
        return Err(format!(
            "control replay: runtime {} vs recorded {recorded}, {} bursted, {} unfinished",
            o.runtime_secs, o.bursted_jobs, o.unfinished_jobs
        ));
    }
    if o.total_jobs != input.jobs.len() {
        return Err(format!(
            "control replay saw {} of {} jobs",
            o.total_jobs,
            input.jobs.len()
        ));
    }
    Ok(())
}

/// Parse both batches, replay every policy over each, render the CSVs.
pub fn pass(st: &State, tr: &Tracer) -> PassOutput {
    let mut out = PassOutput::default();
    let policies = policies();
    let mut rows: Vec<SweepRow> = Vec::new();
    for (b, rec) in st.batches.iter().enumerate() {
        let input = tr.span("vdc_burst.records", b as u64, || {
            BatchInput::from_csv(&rec.batch_csv, &rec.jobs_csv)
        });
        let input = match out.record(input.map_err(|e| format!("{}: {e}", rec.label))) {
            Some(i) => i,
            None => continue,
        };
        tr.count("vdc_burst.records.jobs", input.jobs.len() as f64);
        for (k, &(probe, queue, pol)) in policies.iter().enumerate() {
            let id = (b * policies.len() + k) as u64;
            let r = guarded(|| {
                let o = tr.span("vdc_burst.simulator", id, || simulate(&input, &pol))?;
                if pol.is_control() {
                    control_gate(&input, &o)?;
                }
                let csv = tr.span("vdc_burst.report", id, || throughput_csv(&o));
                Ok((o, csv))
            });
            if let Some((o, csv)) = out.record(r) {
                tr.count("vdc_burst.simulator.calls", 1.0);
                tr.count(
                    "vdc_burst.simulator.sim_seconds",
                    o.instant_series.len() as f64,
                );
                tr.count("vdc_burst.simulator.bursted_jobs", o.bursted_jobs as f64);
                tr.count("vdc_burst.report.bytes", csv.len() as f64);
                out.digest = fold_outcome(out.digest, &o);
                out.digest = fold_bytes(out.digest, csv.as_bytes());
                out.units += 1;
                rows.push(SweepRow {
                    batch: rec.label.clone(),
                    probe_secs: probe,
                    queue_mins: queue,
                    outcome: o,
                });
            }
        }
    }
    let table = tr.span("vdc_burst.report", 0, || sweep_csv(&rows));
    tr.count("vdc_burst.report.bytes", table.len() as f64);
    out.digest = fold_bytes(out.digest, table.as_bytes());
    out
}
