//! Property-based tests of the bursting simulator: conservation laws that
//! must hold for any recorded batch and any policy configuration.

use proptest::prelude::*;

use vdc_burst::policy::{
    BurstPolicies, ElasticPolicy, QueueTimePolicy, SubmissionGapPolicy, ThroughputPolicy,
};
use vdc_burst::records::{BatchInput, BatchRecord, JobPhase, JobRecord};
use vdc_burst::simulator::{simulate, CLOUD_COST_PER_MIN};

/// Strategy: a random but internally consistent batch of complete job
/// records.
fn arb_batch() -> impl Strategy<Value = BatchInput> {
    proptest::collection::vec(
        (0u64..5_000, 0u64..5_000, 1u64..5_000, any::<bool>()),
        1..40,
    )
    .prop_map(|mut rows| {
        // The CSV exporter writes rows in submission order; the strict
        // parser rejects anything else, so the generator matches.
        rows.sort_by_key(|(submit, ..)| *submit);
        let jobs: Vec<JobRecord> = rows
            .iter()
            .enumerate()
            .map(|(i, (submit, wait, exec, is_wave))| JobRecord {
                job: i as u64,
                phase: if *is_wave {
                    JobPhase::Waveform
                } else {
                    JobPhase::Rupture
                },
                submit_s: *submit,
                execute_s: Some(submit + wait),
                terminate_s: Some(submit + wait + exec),
            })
            .collect();
        let submit = jobs.iter().map(|j| j.submit_s).min().unwrap();
        let execute = jobs.iter().filter_map(|j| j.execute_s).min().unwrap();
        let term = jobs.iter().filter_map(|j| j.terminate_s).max().unwrap();
        BatchInput {
            batch: BatchRecord {
                submit_s: submit,
                execute_s: execute,
                terminate_s: term,
            },
            jobs,
        }
    })
}

fn arb_policies() -> impl Strategy<Value = BurstPolicies> {
    (
        proptest::option::of((1u64..180, 0.1..100.0f64)),
        proptest::option::of((10u64..7200, 1u64..300)),
        proptest::option::of((10u64..3600, 1u64..300)),
        proptest::option::of((0.0..60.0f64, 1u64..120, 0.0..4.0f64, 0usize..64, 1u64..900)),
        proptest::option::of(0.0..1.0f64),
    )
        .prop_map(|(t, q, g, e, cap)| BurstPolicies {
            throughput: t.map(|(probe_secs, threshold_jpm)| ThroughputPolicy {
                probe_secs,
                threshold_jpm,
            }),
            queue_time: q.map(|(max_queue_secs, check_secs)| QueueTimePolicy {
                max_queue_secs,
                check_secs,
            }),
            submission_gap: g.map(|(max_gap_secs, check_secs)| SubmissionGapPolicy {
                max_gap_secs,
                check_secs,
            }),
            elastic: e.map(
                |(target_jpm, control_period_s, gain, max_vdc_slots, window_s)| ElasticPolicy {
                    target_jpm,
                    control_period_s,
                    gain,
                    max_vdc_slots,
                    window_s,
                },
            ),
            max_burst_fraction: cap,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Conservation: for complete records, completed + unfinished = total,
    /// nothing goes unfinished, cost tracks VDC minutes exactly, every
    /// charged VDC second is a second a slot was in flight, and the burst
    /// cap is honoured.
    #[test]
    fn conservation_for_any_batch_and_policy(
        input in arb_batch(),
        policies in arb_policies(),
    ) {
        let out = simulate(&input, &policies).unwrap();
        prop_assert_eq!(out.total_jobs, input.jobs.len());
        prop_assert_eq!(out.unfinished_jobs, 0, "complete records always finish");
        prop_assert!(out.bursted_jobs <= out.total_jobs);
        prop_assert!((out.cost_usd - out.vdc_minutes * CLOUD_COST_PER_MIN).abs() < 1e-9);
        let slot_seconds = out.mean_vdc_slots * out.instant_series.len() as f64;
        prop_assert!((slot_seconds - out.vdc_minutes * 60.0).abs() < 1e-6 * slot_seconds.max(1.0));
        prop_assert!(out.peak_vdc_slots <= out.bursted_jobs);
        if let Some(p) = policies.elastic {
            if policies.throughput.is_none()
                && policies.queue_time.is_none()
                && policies.submission_gap.is_none()
            {
                prop_assert!(out.peak_vdc_slots <= p.max_vdc_slots);
            }
        }
        if let Some(cap) = policies.max_burst_fraction {
            prop_assert!(
                out.bursted_jobs as f64 <= (cap * out.total_jobs as f64).floor() + 1e-9
            );
        }
        // Instant throughput is nonnegative and starts at zero.
        prop_assert!(out.instant_series.iter().all(|v| *v >= 0.0));
        prop_assert_eq!(out.instant_series[0], 0.0);
        // AIT is the mean of the series (eq. 6).
        let mean =
            out.instant_series.iter().sum::<f64>() / out.instant_series.len() as f64;
        prop_assert!((out.ait_jpm - mean).abs() < 1e-9);
        // Runtime never exceeds the recorded termination + one VDC job.
        prop_assert!(
            out.runtime_secs <= input.batch.runtime_secs() + 287,
            "runtime {} vs record {}",
            out.runtime_secs,
            input.batch.runtime_secs()
        );
    }

    /// Identical inputs give identical outcomes, field for field.
    #[test]
    fn replay_is_deterministic(input in arb_batch(), policies in arb_policies()) {
        let a = simulate(&input, &policies).unwrap();
        let b = simulate(&input, &policies).unwrap();
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    /// The control exactly replays the record.
    #[test]
    fn control_is_identity(input in arb_batch()) {
        let out = simulate(&input, &BurstPolicies::control()).unwrap();
        prop_assert_eq!(out.bursted_jobs, 0);
        prop_assert_eq!(out.vdc_minutes, 0.0);
        prop_assert_eq!(out.cost_usd, 0.0);
        prop_assert_eq!(out.runtime_secs, input.batch.runtime_secs());
    }

    /// Monotonicity of the cap: allowing more bursting never yields fewer
    /// bursted jobs, for the deterministic queue policy.
    #[test]
    fn burst_cap_monotonicity(input in arb_batch(), cap in 0.0..0.5f64) {
        let mk = |cap: Option<f64>| BurstPolicies {
            queue_time: Some(QueueTimePolicy { max_queue_secs: 60, check_secs: 10 }),
            max_burst_fraction: cap,
            ..Default::default()
        };
        let capped = simulate(&input, &mk(Some(cap))).unwrap();
        let uncapped = simulate(&input, &mk(None)).unwrap();
        prop_assert!(capped.bursted_jobs <= uncapped.bursted_jobs);
    }

    /// CSV roundtrip: records survive serialisation through the public
    /// CSV formats.
    #[test]
    fn record_csv_roundtrip(input in arb_batch()) {
        let batch_csv = format!(
            "submit_s,execute_s,terminate_s\n{},{},{}\n",
            input.batch.submit_s, input.batch.execute_s, input.batch.terminate_s
        );
        let mut jobs_csv =
            String::from("job,owner,phase,submit_s,execute_s,terminate_s\n");
        for j in &input.jobs {
            jobs_csv.push_str(&format!(
                "{},0,{},{},{},{}\n",
                j.job,
                match j.phase {
                    JobPhase::Rupture => "rupture",
                    JobPhase::Waveform => "waveform",
                    JobPhase::Other => "gf",
                },
                j.submit_s,
                j.execute_s.unwrap(),
                j.terminate_s.unwrap(),
            ));
        }
        let parsed = BatchInput::from_csv(&batch_csv, &jobs_csv).unwrap();
        prop_assert_eq!(parsed.batch, input.batch);
        prop_assert_eq!(parsed.jobs.len(), input.jobs.len());
        for (a, b) in parsed.jobs.iter().zip(&input.jobs) {
            prop_assert_eq!(a.submit_s, b.submit_s);
            prop_assert_eq!(a.execute_s, b.execute_s);
            prop_assert_eq!(a.terminate_s, b.terminate_s);
            prop_assert_eq!(a.phase, b.phase);
        }
    }
}
