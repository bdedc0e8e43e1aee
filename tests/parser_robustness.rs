//! Malformed inputs fail with an error and never panic. Every parser that
//! reads a file the workflow writes gets every truncation of a real input
//! and a seeded set of single-byte mutations of it: a torn write, a
//! flipped digit or a stray separator must come back as `Err` (or as a
//! still-valid `Ok`), not as a panic.

use std::panic::{catch_unwind, AssertUnwindSafe};

use fdw_suite::dagman::dag::Dag;
use fdw_suite::dagman::rescue::parse_rescue;
use fdw_suite::fdw_core::phases::build_fdw_dag;
use fdw_suite::fdw_core::prelude::*;
use fdw_suite::htcsim::cluster::ClusterConfig;
use fdw_suite::htcsim::condor_log::parse_condor_log;
use fdw_suite::htcsim::csvlite;
use fdw_suite::htcsim::job::JobSpec;
use fdw_suite::vdc_burst::prelude::{BatchRecord, JobRecord};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Single-byte mutations per input.
const MUTATIONS: usize = 300;

/// Bytes that matter to the parsers: digits, separators, signs, quotes
/// and line structure. A mutation writes one of these three times in
/// four, and an arbitrary byte otherwise.
const STRUCTURAL: &[u8] = b"0123456789 ,=#.:-+eE\"()<>\n\r\t";

/// The golden ULOG fixtures, one per cluster feature that writes events.
const ULOG_FIXTURES: [(&str, &str); 6] = [
    (
        "events.log",
        include_str!("../crates/htcsim/tests/fixtures/events.log"),
    ),
    (
        "faulty_run.log",
        include_str!("../crates/htcsim/tests/fixtures/faulty_run.log"),
    ),
    (
        "defended_run.log",
        include_str!("../crates/htcsim/tests/fixtures/defended_run.log"),
    ),
    (
        "holdback_run.log",
        include_str!("../crates/htcsim/tests/fixtures/holdback_run.log"),
    ),
    (
        "sharded_run.log",
        include_str!("../crates/htcsim/tests/fixtures/sharded_run.log"),
    ),
    (
        "failover_run.log",
        include_str!("../crates/htcsim/tests/fixtures/failover_run.log"),
    ),
];

/// Run `parse` on every truncation of `text` and on `MUTATIONS` seeded
/// single-byte mutations of it; fail naming the input that panicked.
fn sweep(label: &str, seed: u64, text: &str, parse: impl Fn(&str)) {
    let survives = |input: &str| catch_unwind(AssertUnwindSafe(|| parse(input))).is_ok();
    for cut in (0..text.len()).filter(|&k| text.is_char_boundary(k)) {
        assert!(survives(&text[..cut]), "{label}: truncation at byte {cut}");
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..MUTATIONS {
        let mut bytes = text.as_bytes().to_vec();
        let at = rng.gen_range(0..bytes.len());
        bytes[at] = if rng.gen_bool(0.75) {
            STRUCTURAL[rng.gen_range(0..STRUCTURAL.len())]
        } else {
            rng.gen::<u64>() as u8
        };
        let mutated = String::from_utf8_lossy(&bytes);
        assert!(
            survives(&mutated),
            "{label}: byte {at} set to {:#04x}",
            bytes[at]
        );
    }
}

#[test]
fn condor_log_survives_truncation_and_mutation() {
    for (i, (name, text)) in ULOG_FIXTURES.iter().enumerate() {
        assert!(parse_condor_log(text).is_ok(), "{name} parses intact");
        sweep(name, i as u64, text, |s| {
            let _ = parse_condor_log(s);
        });
    }
}

#[test]
fn rescue_config_and_dag_survive_truncation_and_mutation() {
    let rescue = "# Rescue DAG\n# FAILED waveform.3 exit=1 attempts=4\n\
                  DONE matrix\nDONE gf\nDONE rupture.0\nDONE rupture.1\n# END 4 done\n";
    assert_eq!(parse_rescue(rescue).map(|done| done.len()), Ok(4));
    sweep("rescue", 10, rescue, |s| {
        let _ = parse_rescue(s);
    });

    let config = FdwConfig::default().to_config_file();
    assert!(FdwConfig::parse(&config).is_ok(), "rendered config parses");
    sweep("config", 11, &config, |s| {
        let _ = FdwConfig::parse(s);
    });

    let dag = build_fdw_dag(&small_fdw()).unwrap().to_dag_file();
    let spec = |name: &str| JobSpec::fixed(name, 1.0);
    assert!(Dag::parse(&dag, spec).is_ok(), "rendered DAG parses");
    sweep("dag", 12, &dag, |s| {
        let _ = Dag::parse(s, spec);
    });
}

#[test]
fn csv_records_survive_truncation_and_mutation() {
    let report = run_fdw(&small_fdw(), ClusterConfig::default(), 3)
        .unwrap()
        .report;
    let jobs_csv = report.log.jobs_csv(report.name_of());
    let batch_csv = report.log.batch_csv();
    assert!(JobRecord::parse_csv(&jobs_csv).is_ok(), "jobs CSV parses");
    assert!(
        BatchRecord::parse_csv(&batch_csv).is_ok(),
        "batch CSV parses"
    );
    sweep("csvlite", 13, &jobs_csv, |s| {
        let _ = csvlite::parse(s);
    });
    sweep("jobs csv", 14, &jobs_csv, |s| {
        let _ = JobRecord::parse_csv(s);
    });
    sweep("batch csv", 15, &batch_csv, |s| {
        let _ = BatchRecord::parse_csv(s);
    });
}

/// An eight-waveform FDW with retries, so its DAG has `RETRY … DEFER`
/// lines next to `JOB` and `PARENT … CHILD`.
fn small_fdw() -> FdwConfig {
    FdwConfig::parse(
        "station_input = small\nn_waveforms = 8\nruptures_per_job = 2\nwaveforms_per_job = 2\n\
         retries = 2\nretry_defer_s = 30\n",
    )
    .unwrap()
}
