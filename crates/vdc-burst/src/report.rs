//! Reporting: the "detailed output" and per-second throughput `.csv` the
//! paper's simulator generates (§3.1), plus a sweep table formatter for
//! the Fig. 5/6 harness.

use htcsim::csvlite;

use crate::simulator::BurstOutcome;

/// Serialise the per-second instant-throughput series as CSV
/// (`second,throughput_jpm`), exactly the artifact §3.1 describes.
pub fn throughput_csv(outcome: &BurstOutcome) -> String {
    let rows: Vec<Vec<String>> = outcome
        .instant_series
        .iter()
        .enumerate()
        .map(|(s, jpm)| vec![s.to_string(), format!("{jpm:.4}")])
        .collect();
    csvlite::encode(&["second", "throughput_jpm"], &rows)
}

/// One row of the Fig. 5 sweep table.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Batch label ("batch1"/"batch2"/…).
    pub batch: String,
    /// Policy-1 probe time, seconds (0 = control).
    pub probe_secs: u64,
    /// Policy-2 queue limit, minutes (0 = control).
    pub queue_mins: u64,
    /// The simulation outcome.
    pub outcome: BurstOutcome,
}

/// Format a sweep as the human-readable table the harness prints.
pub fn format_sweep_table(rows: &[SweepRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<8} {:>6} {:>6} {:>9} {:>8} {:>8} {:>9} {:>9}\n",
        "batch", "probe", "queue", "AIT(jpm)", "VDC(%)", "runtime", "bursted", "cost($)"
    ));
    for r in rows {
        let probe = if r.probe_secs == 0 {
            "ctrl".to_string()
        } else {
            r.probe_secs.to_string()
        };
        let queue = if r.queue_mins == 0 {
            "-".to_string()
        } else {
            r.queue_mins.to_string()
        };
        out.push_str(&format!(
            "{:<8} {:>6} {:>6} {:>9.1} {:>8.1} {:>8.2}h {:>9} {:>9.2}\n",
            r.batch,
            probe,
            queue,
            r.outcome.ait_jpm,
            r.outcome.vdc_usage_pct(),
            r.outcome.runtime_secs as f64 / 3600.0,
            r.outcome.bursted_jobs,
            r.outcome.cost_usd,
        ));
    }
    out
}

/// Serialise a sweep as machine-readable CSV.
pub fn sweep_csv(rows: &[SweepRow]) -> String {
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.batch.clone(),
                r.probe_secs.to_string(),
                r.queue_mins.to_string(),
                format!("{:.4}", r.outcome.ait_jpm),
                format!("{:.4}", r.outcome.vdc_usage_pct()),
                r.outcome.runtime_secs.to_string(),
                r.outcome.bursted_jobs.to_string(),
                format!("{:.4}", r.outcome.cost_usd),
            ]
        })
        .collect();
    csvlite::encode(
        &[
            "batch",
            "probe_secs",
            "queue_mins",
            "ait_jpm",
            "vdc_usage_pct",
            "runtime_secs",
            "bursted_jobs",
            "cost_usd",
        ],
        &data,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> BurstOutcome {
        BurstOutcome {
            instant_series: vec![0.0, 0.5, 1.0],
            ait_jpm: 0.5,
            runtime_secs: 7200,
            total_jobs: 100,
            bursted_jobs: 25,
            unfinished_jobs: 0,
            vdc_minutes: 60.0,
            cost_usd: 0.102,
            peak_vdc_slots: 3,
            mean_vdc_slots: 1.5,
        }
    }

    #[test]
    fn throughput_csv_one_row_per_second() {
        let csv = throughput_csv(&outcome());
        let (h, rows) = csvlite::parse(&csv).unwrap();
        assert_eq!(h, vec!["second", "throughput_jpm"]);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2][0], "2");
        assert_eq!(rows[2][1], "1.0000");
    }

    #[test]
    fn sweep_table_formats() {
        let rows = vec![
            SweepRow {
                batch: "batch1".into(),
                probe_secs: 0,
                queue_mins: 0,
                outcome: outcome(),
            },
            SweepRow {
                batch: "batch1".into(),
                probe_secs: 5,
                queue_mins: 90,
                outcome: outcome(),
            },
        ];
        let table = format_sweep_table(&rows);
        assert!(table.contains("ctrl"));
        assert!(table.contains("batch1"));
        assert!(table.contains("2.00h"));
        let csv = sweep_csv(&rows);
        let (_, parsed) = csvlite::parse(&csv).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[1][1], "5");
        assert_eq!(parsed[1][4], "25.0000");
    }
}
