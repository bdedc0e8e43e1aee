//! Bursting policies: record a real (simulated-OSG) FDW batch, export it
//! to the two-CSV format of the paper's bursting simulator, then compare
//! the three OSG-tailored policies and the elastic controller against the
//! control.
//!
//! Run with: `cargo run --release --example bursting_policies`

use fakequakes::stations::ChileanInput;
use fdw_core::prelude::*;
use fdw_suite::vdc_burst::prelude::*;

fn main() {
    // Record one 4,000-waveform full-input batch on the simulated pool.
    let cfg = FdwConfig {
        n_waveforms: 4_000,
        station_input: StationInput::Chilean(ChileanInput::Full),
        ..Default::default()
    };
    println!(
        "recording a {}-job FDW batch on the simulated OSPool...",
        cfg.total_jobs()
    );
    let out = run_fdw(&cfg, osg_cluster_config(), 5).expect("recording run");

    // The CSV pair is the simulator's actual input format (§3.1).
    let batch_csv = out.report.log.batch_csv();
    let jobs_csv = out.report.log.jobs_csv(out.report.name_of());
    let input = BatchInput::from_csv(&batch_csv, &jobs_csv).expect("CSV parse");
    println!(
        "batch record: {} jobs over {:.2} h\n",
        input.jobs.len(),
        input.batch.runtime_secs() as f64 / 3600.0
    );

    let scenarios: Vec<(&str, BurstPolicies)> = vec![
        ("control (no bursting)", BurstPolicies::control()),
        (
            "policy 1: throughput < 34 JPM, 5 s probe",
            BurstPolicies {
                throughput: Some(ThroughputPolicy {
                    probe_secs: 5,
                    threshold_jpm: 34.0,
                }),
                ..Default::default()
            },
        ),
        (
            "policy 2: queue > 90 min",
            BurstPolicies {
                queue_time: Some(QueueTimePolicy {
                    max_queue_secs: 90 * 60,
                    check_secs: 60,
                }),
                ..Default::default()
            },
        ),
        (
            "policy 3: submission gap > 20 min",
            BurstPolicies {
                submission_gap: Some(SubmissionGapPolicy {
                    max_gap_secs: 20 * 60,
                    check_secs: 60,
                }),
                ..Default::default()
            },
        ),
        (
            "all three, <=30% bursted",
            BurstPolicies {
                throughput: Some(ThroughputPolicy {
                    probe_secs: 5,
                    threshold_jpm: 34.0,
                }),
                queue_time: Some(QueueTimePolicy {
                    max_queue_secs: 90 * 60,
                    check_secs: 60,
                }),
                submission_gap: Some(SubmissionGapPolicy {
                    max_gap_secs: 20 * 60,
                    check_secs: 60,
                }),
                max_burst_fraction: Some(0.30),
                ..Default::default()
            },
        ),
        (
            "elastic controller, 20 JPM target",
            BurstPolicies {
                elastic: Some(ElasticPolicy::default()),
                ..Default::default()
            },
        ),
    ];

    println!(
        "{:<42} {:>9} {:>9} {:>9} {:>9}",
        "policy", "AIT(jpm)", "runtime", "bursted", "cost($)"
    );
    for (label, policies) in scenarios {
        let r = simulate(&input, &policies).expect("simulation");
        println!(
            "{:<42} {:>9.1} {:>8.2}h {:>9} {:>9.2}",
            label,
            r.ait_jpm,
            r.runtime_secs as f64 / 3600.0,
            r.bursted_jobs,
            r.cost_usd
        );
    }

    // The per-second CSV artifact the paper's simulator emits.
    let control = simulate(&input, &BurstPolicies::control()).unwrap();
    let csv = throughput_csv(&control);
    let path = std::env::temp_dir().join("fdw_control_throughput.csv");
    std::fs::write(&path, &csv).expect("write CSV");
    println!(
        "\nwrote per-second instant-throughput CSV ({} rows) to {}",
        control.instant_series.len(),
        path.display()
    );
}
