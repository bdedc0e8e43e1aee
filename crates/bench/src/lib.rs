//! # fdw-bench — the experiment harness
//!
//! One binary per figure of the paper's evaluation section (run with
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
//! | `ablate_cache`     | DESIGN.md ablation — Stash cache on/off |
//! | `ablate_matchmaker`| DESIGN.md ablation — negotiation period / fair share |
//! | `chaos_matrix`     | DESIGN.md §6 — fault class × intensity recovery matrix with science-digest check |
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
