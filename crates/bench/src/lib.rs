//! # fdw-bench — the experiment harness
//!
//! One binary per experiment: each figure of the paper's evaluation
//! section, each ablation and extension, and the perf snapshots (run with
//! `cargo run -p fdw-bench --release --bin <name>`):
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `fig1_products`    | Fig. 1 — example rupture + GNSS waveforms |
//! | `fig2_quantities`  | Fig. 2 — runtime/throughput vs quantity, both inputs |
//! | `fig3_concurrent`  | Fig. 3 — 1/2/4/8 concurrent DAGMans |
//! | `fig4_job_profiles`| Fig. 4 + §5.2.3 — job exec/wait distributions, instant throughput, running jobs |
//! | `fig5_bursting`    | Fig. 5 — bursting AIT & VDC usage sweep |
//! | `fig6_cost_timeline` | Fig. 6 + §5.3.4 — bursting cost and throughput timelines |
//! | `table_headline`   | §6 headline numbers (56.8 % reduction, ~5× throughput) |
//! | `elastic_bursting` | §6 future work — elastic VDC bursting vs the static Policy-1 sweep |
//! | `pool_weather`     | §6 — glidein churn and background contention during an FDW run |
//! | `ablate_cache`     | DESIGN.md ablation — Stash cache on/off |
//! | `ablate_matchmaker`| DESIGN.md ablation — negotiation period / fair share |
//! | `chaos_matrix`     | DESIGN.md §6 — fault class × intensity recovery matrix with science-digest check |
//! | `defense_ablation` | DESIGN.md §10 — self-healing defenses off vs on; writes `BENCH_defenses.json` |
//! | `failover_ablation`| DESIGN.md §11 — federated failover off vs on; writes `BENCH_failover.json` |
//! | `overload_ablation`| DESIGN.md §14 — service front-end at 2×/6×/10× overload; writes `BENCH_service.json` |
//! | `des_scaling`      | DESIGN.md §12 — sharded DES engine vs the monolithic heap; writes `BENCH_des.json` |
//! | `bench_snapshot`   | DESIGN.md §8 — optimised kernels vs their baselines; writes `BENCH_kernels.json` |
//! | `validate_trace`   | Checks exported telemetry JSON (the `FDW_OBS_DIR` artifacts, fdwlint's report) |
//!
//! Criterion micro-benchmarks (`cargo bench -p fdw-bench`) cover the
//! compute kernels: rupture generation (Cholesky vs Karhunen–Loève),
//! waveform synthesis (Rayon vs sequential), the DES event loop, and the
//! bursting replay loop.
//!
//! This library holds the shared formatting/summary helpers the binaries
//! use.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;

use dagman::monitor::MeanSd;
use fakequakes::stations::ChileanInput;
use fdw_core::prelude::*;
use vdc_burst::records::BatchInput;
use vdc_burst::simulator::BurstOutcome;

/// The three replication seeds used throughout, mirroring the paper's
/// three runs per configuration.
pub const REPLICATION_SEEDS: [u64; 3] = [1, 2, 3];

/// True when `FDW_SMOKE` is set (non-empty): binaries shrink their
/// workloads to CI-smoke scale while exercising the same code paths.
pub fn smoke() -> bool {
    std::env::var("FDW_SMOKE").is_ok_and(|v| !v.is_empty())
}

/// Pick `full` normally, `reduced` under `FDW_SMOKE`.
pub fn smoke_scaled(full: u64, reduced: u64) -> u64 {
    if smoke() {
        reduced
    } else {
        full
    }
}

/// Short hash of the checked-out commit, recorded in every BENCH file
/// (`"unknown"` outside a git checkout).
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Write the BENCH document `doc` to `$FDW_BENCH_OUT`, or to `default`
/// in the working directory when that is unset. A document that is not
/// valid JSON, or a failed write, exits 1: a run must not pass while the
/// BENCH file it names is missing or stale.
pub fn write_bench(default: &str, doc: &str) {
    let out = std::env::var("FDW_BENCH_OUT").unwrap_or_else(|_| default.into());
    if let Err(pos) = fdw_obs::json::validate(doc) {
        eprintln!("{out}: not valid JSON at byte {pos}");
        std::process::exit(1);
    }
    if let Err(e) = std::fs::write(&out, doc) {
        eprintln!("writing {out}: {e}");
        std::process::exit(1);
    }
    println!("written to {out}");
}

/// Telemetry output directory (`FDW_OBS_DIR`), if requested.
pub fn obs_dir() -> Option<PathBuf> {
    std::env::var_os("FDW_OBS_DIR")
        .filter(|v| !v.is_empty())
        .map(PathBuf::from)
}

/// Write a telemetry artifact into `FDW_OBS_DIR` (no-op when unset).
/// Returns the path written, so binaries can report it.
pub fn write_obs_artifact(name: &str, content: &str) -> Option<PathBuf> {
    let dir = obs_dir()?;
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("FDW_OBS_DIR {}: {e}", dir.display());
        return None;
    }
    let path = dir.join(name);
    match std::fs::write(&path, content) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("writing {}: {e}", path.display());
            None
        }
    }
}

/// Record the two batches the bursting binaries replay: one
/// 16,000-waveform, full-input DAGMan on the simulated OSPool per seed
/// (1 and 2), as §4.3 takes its two batches from the §4.2 experiment.
pub fn record_bursting_batches() -> Vec<(&'static str, BatchInput)> {
    let cluster = osg_cluster_config();
    let base = FdwConfig {
        n_waveforms: 16_000,
        station_input: StationInput::Chilean(ChileanInput::Full),
        ..Default::default()
    };
    [(1u64, "batch1"), (2u64, "batch2")]
        .into_iter()
        .map(|(seed, label)| {
            let out = run_fdw(&base, cluster.clone(), seed).expect("recording run failed");
            let input = BatchInput::from_report(&out.report).expect("CSV roundtrip failed");
            (label, input)
        })
        .collect()
}

/// Render a `mean ± sd` cell.
pub fn pm(m: &MeanSd) -> String {
    format!("{:.1} ± {:.1}", m.mean, m.sd)
}

/// Render a `mean ± sd [min, max]` cell.
pub fn pm_range(m: &MeanSd) -> String {
    format!("{:.1} ± {:.1} [{:.1}, {:.1}]", m.mean, m.sd, m.min, m.max)
}

/// Downsample a per-second series to at most `n` evenly spaced points
/// `(second, value)` for compact printing.
pub fn downsample(series: &[f64], n: usize) -> Vec<(usize, f64)> {
    if series.is_empty() || n == 0 {
        return Vec::new();
    }
    if series.len() <= n {
        return series.iter().cloned().enumerate().collect();
    }
    let step = (series.len() - 1) as f64 / (n - 1) as f64;
    (0..n)
        .map(|i| {
            let idx = (i as f64 * step).round() as usize;
            (idx, series[idx.min(series.len() - 1)])
        })
        .collect()
}

/// Sorted copy of a duration list converted to minutes — Fig. 4 plots
/// per-job times "sorted by duration".
pub fn sorted_minutes(secs: &[u64]) -> Vec<f64> {
    let mut v: Vec<f64> = secs.iter().map(|s| *s as f64 / 60.0).collect();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v
}

/// Percentile (0–100) of a sorted slice via nearest-rank.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Render a compact five-number summary of a sorted minutes list.
pub fn five_number(sorted_mins: &[f64]) -> String {
    if sorted_mins.is_empty() {
        return "(empty)".into();
    }
    format!(
        "min {:.1} / p25 {:.1} / median {:.1} / p75 {:.1} / max {:.1} min",
        percentile(sorted_mins, 0.0),
        percentile(sorted_mins, 25.0),
        percentile(sorted_mins, 50.0),
        percentile(sorted_mins, 75.0),
        percentile(sorted_mins, 100.0),
    )
}

/// A tiny fixed-width ASCII sparkline for a series (8 levels).
pub fn sparkline(series: &[f64], width: usize) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let pts = downsample(series, width);
    if pts.is_empty() {
        return String::new();
    }
    let max = pts
        .iter()
        .map(|(_, v)| *v)
        .fold(f64::MIN_POSITIVE, f64::max);
    pts.iter()
        .map(|(_, v)| {
            let lvl = ((v / max) * 7.0).round().clamp(0.0, 7.0) as usize;
            LEVELS[lvl]
        })
        .collect()
}

/// Consistency metric, identical for every bursting strategy: the SD of
/// the 5-minute-windowed completion throughput, derived from the
/// cumulative instant-throughput series (eq. 5): completed(t) = ω(t)·t/60.
pub fn windowed_sd(series: &[f64]) -> f64 {
    const W: usize = 300;
    if series.len() <= W {
        return 0.0;
    }
    let completed = |t: usize| series[t] * t.max(1) as f64 / 60.0;
    let samples: Vec<f64> = (W..series.len())
        .map(|t| (completed(t) - completed(t - W)) / (W as f64 / 60.0))
        .collect();
    let m = samples.iter().sum::<f64>() / samples.len() as f64;
    (samples.iter().map(|x| (x - m).powi(2)).sum::<f64>() / samples.len() as f64).sqrt()
}

/// One strategy's row of `elastic_bursting`'s table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstRow {
    /// Average instant throughput, jobs per minute.
    pub ait_jpm: f64,
    /// Batch runtime in hours.
    pub runtime_h: f64,
    /// Jobs bursted to the VDC.
    pub bursted: usize,
    /// Bursting cost in USD.
    pub cost_usd: f64,
    /// [`windowed_sd`] of the instant-throughput series, JPM.
    pub sd_jpm: f64,
}

impl BurstRow {
    /// The row of one replay outcome.
    pub fn of(o: &BurstOutcome) -> Self {
        Self {
            ait_jpm: o.ait_jpm,
            runtime_h: o.runtime_secs as f64 / 3600.0,
            bursted: o.bursted_jobs,
            cost_usd: o.cost_usd,
            sd_jpm: windowed_sd(&o.instant_series),
        }
    }
}

/// The three strategies `elastic_bursting` replays on one batch, and the
/// elastic controller's VDC pool size.
#[derive(Debug, Clone)]
pub struct ElasticBatch {
    /// Batch label, as in the table header.
    pub label: &'static str,
    /// OSG only, no bursting.
    pub control: BurstRow,
    /// Static Policy 1.
    pub static1: BurstRow,
    /// The elastic controller.
    pub elastic: BurstRow,
    /// Most VDC slots the elastic controller held at once.
    pub peak_vdc_slots: usize,
    /// VDC slots the elastic controller held, averaged over the run.
    pub mean_vdc_slots: f64,
}

/// The batches where `hit` holds, in words: "on both batches", "only on
/// batch1", "on neither batch".
fn on_which(batches: &[ElasticBatch], hit: impl Fn(&ElasticBatch) -> bool) -> String {
    let on: Vec<&str> = batches.iter().filter(|b| hit(b)).map(|b| b.label).collect();
    match on.len() {
        0 => "on neither batch".into(),
        n if n == batches.len() => "on both batches".into(),
        _ => format!("only on {}", on.join(" and ")),
    }
}

/// `elastic_bursting`'s closing paragraph, computed from the rows it
/// prints: the elastic controller's AIT against its target, its bursted
/// jobs and cost against the static policy's, the batches where it is
/// faster or steadier, and how its mean VDC pool compares with the peak.
pub fn elastic_summary(target_jpm: f64, batches: &[ElasticBatch]) -> String {
    let aits = batches.iter().map(|b| b.elastic.ait_jpm);
    let lo = aits.clone().fold(f64::INFINITY, f64::min).floor();
    let hi = aits.fold(f64::NEG_INFINITY, f64::max).ceil();
    let mut out = format!(
        "Measured: the elastic controller overshoots its {target_jpm} JPM target {} \
         (AIT {lo}-{hi} JPM).\n",
        on_which(batches, |b| b.elastic.ait_jpm > target_jpm)
    );

    let bursts: Vec<String> = batches
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let jobs = b.elastic.bursted as f64 / b.static1.bursted as f64;
            let cost = b.elastic.cost_usd / b.static1.cost_usd;
            if i == 0 {
                format!(
                    "{jobs:.1}x the static policy's jobs at {cost:.1}x its cost on {}",
                    b.label
                )
            } else {
                format!("{jobs:.1}x at {cost:.1}x on {}", b.label)
            }
        })
        .collect();
    out += &format!("It bursts {}.\n", bursts.join(", and "));

    let faster = |b: &ElasticBatch| b.elastic.runtime_h < b.static1.runtime_h;
    let cuts: Vec<String> = batches
        .iter()
        .filter(|b| faster(b))
        .map(|b| {
            format!(
                "{:.2} h against {:.2} h",
                b.elastic.runtime_h, b.static1.runtime_h
            )
        })
        .collect();
    out += &format!(
        "It cuts the runtime below the static policy's {}",
        on_which(batches, faster)
    );
    if !cuts.is_empty() {
        out += &format!(" ({})", cuts.join("; "));
    }
    out += ".\n";

    out += &format!(
        "Its consistency SD is below the static policy's {}, and below the control's {}.\n",
        on_which(batches, |b| b.elastic.sd_jpm < b.static1.sd_jpm),
        on_which(batches, |b| b.elastic.sd_jpm < b.control.sd_jpm)
    );

    let shares = batches
        .iter()
        .map(|b| b.mean_vdc_slots / b.peak_vdc_slots as f64);
    let s_lo = shares.clone().fold(f64::INFINITY, f64::min);
    let s_hi = shares.fold(f64::NEG_INFINITY, f64::max);
    if s_lo >= 0.4 && s_hi <= 0.6 {
        out += "Its mean VDC pool is about half its peak";
    } else {
        out += &format!("Its mean VDC pool is {s_lo:.2}-{s_hi:.2} of its peak");
    }
    if s_hi < 1.0 {
        out += ": the pool scales down as well as up";
    }
    out += ".";
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn downsample_preserves_endpoints() {
        let s: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let d = downsample(&s, 10);
        assert_eq!(d.len(), 10);
        assert_eq!(d[0], (0, 0.0));
        assert_eq!(d[9], (999, 999.0));
        assert!(downsample(&[], 5).is_empty());
        assert!(downsample(&s, 0).is_empty());
        assert_eq!(downsample(&[1.0, 2.0], 10).len(), 2);
    }

    #[test]
    fn sorted_minutes_sorts_and_converts() {
        let v = sorted_minutes(&[120, 60, 180]);
        assert_eq!(v, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn five_number_formats() {
        assert_eq!(five_number(&[]), "(empty)");
        let s = five_number(&[1.0, 2.0, 3.0]);
        assert!(s.contains("median 2.0"));
    }

    #[test]
    fn sparkline_width_and_levels() {
        let s: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let spark = sparkline(&s, 16);
        assert_eq!(spark.chars().count(), 16);
        assert!(spark.starts_with('▁'));
        assert!(spark.ends_with('█'));
        assert_eq!(sparkline(&[], 8), "");
    }

    fn row(ait_jpm: f64, runtime_h: f64, bursted: usize, cost_usd: f64, sd_jpm: f64) -> BurstRow {
        BurstRow {
            ait_jpm,
            runtime_h,
            bursted,
            cost_usd,
            sd_jpm,
        }
    }

    /// The two recorded batches' rows as `elastic_bursting` prints them
    /// at seeds 1 and 2.
    fn recorded_batches() -> Vec<ElasticBatch> {
        vec![
            ElasticBatch {
                label: "batch1",
                control: row(13.8, 10.06, 0, 0.0, 15.4),
                static1: row(21.4, 6.72, 3555, 14.50, 17.6),
                elastic: row(25.4, 6.81, 6415, 26.52, 15.8),
                peak_vdc_slots: 89,
                mean_vdc_slots: 38.2,
            },
            ElasticBatch {
                label: "batch2",
                control: row(6.6, 15.17, 0, 0.0, 13.4),
                static1: row(15.4, 10.19, 5981, 24.41, 11.1),
                elastic: row(24.2, 6.95, 8022, 32.82, 11.8),
                peak_vdc_slots: 89,
                mean_vdc_slots: 46.3,
            },
        ]
    }

    #[test]
    fn elastic_summary_states_the_recorded_rows() {
        assert_eq!(
            elastic_summary(20.0, &recorded_batches()),
            "Measured: the elastic controller overshoots its 20 JPM target on both batches \
             (AIT 24-26 JPM).\n\
             It bursts 1.8x the static policy's jobs at 1.8x its cost on batch1, and 1.3x at \
             1.3x on batch2.\n\
             It cuts the runtime below the static policy's only on batch2 (6.95 h against \
             10.19 h).\n\
             Its consistency SD is below the static policy's only on batch1, and below the \
             control's only on batch2.\n\
             Its mean VDC pool is about half its peak: the pool scales down as well as up."
        );
    }

    #[test]
    fn elastic_summary_follows_the_rows_when_they_move() {
        let mut b = recorded_batches();
        b[0].elastic = row(19.0, 5.00, 7110, 29.00, 9.0);
        b[1].elastic.sd_jpm = 10.0;
        b[0].mean_vdc_slots = 80.1;
        let text = elastic_summary(20.0, &b);
        assert!(
            text.contains("target only on batch2 (AIT 19-25 JPM)"),
            "{text}"
        );
        assert!(text.contains("2.0x the static policy's jobs at 2.0x its cost on batch1"));
        assert!(text.contains(
            "static policy's on both batches (5.00 h against 6.72 h; 6.95 h against 10.19 h)"
        ));
        assert!(text.contains(
            "below the static policy's on both batches, and below the control's on both batches"
        ));
        assert!(text.contains("pool is 0.52-0.90 of its peak: the pool scales down"));

        // A pool that never leaves its peak does not scale down.
        for batch in &mut b {
            batch.mean_vdc_slots = batch.peak_vdc_slots as f64;
            batch.elastic.runtime_h = 20.0;
        }
        let text = elastic_summary(20.0, &b);
        assert!(
            text.contains("static policy's on neither batch.\n"),
            "{text}"
        );
        assert!(
            text.ends_with("Its mean VDC pool is 1.00-1.00 of its peak."),
            "{text}"
        );
    }

    #[test]
    fn pm_formats() {
        let m = MeanSd {
            mean: 10.25,
            sd: 1.04,
            min: 9.0,
            max: 11.5,
        };
        assert_eq!(pm(&m), "10.2 ± 1.0");
        assert!(pm_range(&m).contains("[9.0, 11.5]"));
    }
}
