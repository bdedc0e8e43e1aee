//! The bursting simulation loop (§3.1.1): iterate through each second of a
//! recorded DAGMan run, detect OSG completions from the record, apply the
//! bursting policies, and advance simulated VDC jobs by one second until
//! they hit their constant completion times (287 s rupture / 144 s
//! waveform).

use std::collections::VecDeque;

use crate::policy::BurstPolicies;
use crate::records::{BatchInput, JobPhase, JobRecord};

/// Seconds a bursted job of each phase takes on VDC (§3.1.1).
pub fn vdc_duration_secs(phase: JobPhase) -> u64 {
    match phase {
        JobPhase::Waveform => 144,
        JobPhase::Rupture | JobPhase::Other => 287,
    }
}

/// Where a job ended up running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Disposition {
    /// Follows its OSG record untouched.
    Osg,
    /// Bursted to VDC at `start`; completes at `start + duration`.
    Bursted {
        /// Second the burst began.
        start: u64,
        /// VDC execution time.
        duration: u64,
    },
    /// Completed (either path).
    Done,
}

/// Result of one bursting simulation.
#[derive(Debug, Clone)]
pub struct BurstOutcome {
    /// Instant throughput (jobs/minute) for every second of the run
    /// (eq. 5), starting at the batch submit time.
    pub instant_series: Vec<f64>,
    /// Average instant throughput (eq. 6).
    pub ait_jpm: f64,
    /// Total runtime in seconds (batch submit → last completion).
    pub runtime_secs: u64,
    /// Total jobs in the batch.
    pub total_jobs: usize,
    /// Jobs bursted to VDC.
    pub bursted_jobs: usize,
    /// Jobs that never completed (incomplete records never bursted).
    pub unfinished_jobs: usize,
    /// Total VDC compute minutes consumed.
    pub vdc_minutes: f64,
    /// Simulated bursting cost in USD (eq. 7).
    pub cost_usd: f64,
    /// Most VDC jobs in flight at the end of any second.
    pub peak_vdc_slots: usize,
    /// VDC jobs in flight at the end of each second, averaged over the
    /// run.
    pub mean_vdc_slots: f64,
}

impl BurstOutcome {
    /// Fraction of jobs bursted to VDC in [0, 1].
    pub fn burst_fraction(&self) -> f64 {
        if self.total_jobs == 0 {
            0.0
        } else {
            self.bursted_jobs as f64 / self.total_jobs as f64
        }
    }

    /// VDC usage as a percentage of jobs (the Fig. 5 metric).
    pub fn vdc_usage_pct(&self) -> f64 {
        self.burst_fraction() * 100.0
    }
}

/// Cloud cost per VDC minute (EC2 a1.xlarge on-demand; §4.3 eq. 7).
pub const CLOUD_COST_PER_MIN: f64 = 0.0017;

/// Run the bursting simulation over one recorded batch. Each second
/// applies Policies 1–3, then the elastic controller, all through one
/// burst step, so `max_burst_fraction` bounds every policy.
pub fn simulate(input: &BatchInput, policies: &BurstPolicies) -> Result<BurstOutcome, String> {
    input.validate()?;
    policies.validate()?;
    let t0 = input.batch.submit_s;
    let n = input.jobs.len();
    let mut replay = Replay {
        jobs: &input.jobs,
        disp: vec![Disposition::Osg; n],
        bursted: 0,
        in_flight: 0,
        cap: policies
            .max_burst_fraction
            .map(|f| (f * n as f64).floor() as usize)
            .unwrap_or(usize::MAX),
    };
    let mut completed = 0usize;
    let mut vdc_seconds = 0u64;
    let mut armed = policies
        .throughput
        .map(|p| p.threshold_jpm <= 0.0)
        .unwrap_or(false);
    // The elastic controller's VDC slot target, and the completed count
    // before the run (0) and at the end of each second since, trimmed to
    // the last `window_s + 1` entries.
    let mut slots = 0usize;
    let mut window = VecDeque::from([0]);
    let mut instant_series = Vec::new();
    let mut last_completion = t0;
    let mut peak_vdc_slots = 0usize;
    let mut vdc_slot_seconds = 0u64;

    // Hard stop: a day past the recorded termination is enough for any
    // bursted tail to drain.
    let t_end_cap = input.batch.terminate_s + 86_400;

    let mut t = t0;
    while completed < n && t <= t_end_cap {
        // 1. OSG completions at this second.
        for (i, job) in input.jobs.iter().enumerate() {
            if replay.disp[i] == Disposition::Osg && job.terminate_s == Some(t) {
                replay.disp[i] = Disposition::Done;
                completed += 1;
                last_completion = t;
            }
        }
        // 2. Bursted completions at this second.
        for d in replay.disp.iter_mut() {
            if let Disposition::Bursted { start, duration } = *d {
                if start + duration == t {
                    *d = Disposition::Done;
                    completed += 1;
                    replay.in_flight -= 1;
                    vdc_seconds += duration;
                    last_completion = t;
                }
            }
        }

        // Instant throughput at this second (eq. 5).
        let elapsed_min = ((t - t0).max(1)) as f64 / 60.0;
        let omega = completed as f64 / elapsed_min;
        instant_series.push(omega);

        // 3. Policies.
        let elapsed = t - t0;

        // Policy 1: low throughput (armed once the threshold is reached).
        if let Some(p) = policies.throughput {
            if omega >= p.threshold_jpm {
                armed = true;
            }
            if p.probe_secs > 0
                && elapsed.is_multiple_of(p.probe_secs)
                && armed
                && omega < p.threshold_jpm
                && replay.can_burst()
            {
                if let Some(i) = replay.last_unsubmitted(t) {
                    replay.burst(i, t);
                }
            }
        }

        // Policy 2: congested queue.
        if let Some(p) = policies.queue_time {
            if p.check_secs > 0 && elapsed.is_multiple_of(p.check_secs) {
                for (i, job) in input.jobs.iter().enumerate() {
                    if !replay.can_burst() {
                        break;
                    }
                    if replay.queued(i, t) && t - job.submit_s > p.max_queue_secs {
                        replay.burst(i, t);
                    }
                }
            }
        }

        // Policy 3: submission gaps.
        if let Some(p) = policies.submission_gap {
            if p.check_secs > 0 && elapsed.is_multiple_of(p.check_secs) && replay.can_burst() {
                let last_sub = input
                    .jobs
                    .iter()
                    .filter(|j| j.submit_s <= t)
                    .map(|j| j.submit_s)
                    .max()
                    .unwrap_or(t0);
                if t - last_sub > p.max_gap_secs {
                    if let Some(i) = replay.last_unsubmitted(t) {
                        replay.burst(i, t);
                    }
                }
            }
        }

        // Elastic: every control period once its window is full, move the
        // slot target by the gain times the throughput deficit; then fill
        // free slots with the longest-queued job, else the last
        // unsubmitted one.
        if let Some(p) = policies.elastic {
            window.push_back(completed);
            let span = window.len() as u64 - 1;
            if span > p.window_s {
                window.pop_front();
            }
            if span >= p.window_s && elapsed.is_multiple_of(p.control_period_s) {
                let recent_jpm = (completed - window[0]) as f64 / (p.window_s as f64 / 60.0);
                let delta = (p.gain * (p.target_jpm - recent_jpm)).round() as i64;
                let max = i64::try_from(p.max_vdc_slots).unwrap_or(i64::MAX);
                slots = (slots as i64).saturating_add(delta).clamp(0, max) as usize;
            }
            while replay.in_flight < slots && replay.can_burst() {
                let queued = (0..n)
                    .filter(|&i| replay.queued(i, t))
                    .min_by_key(|&i| input.jobs[i].submit_s);
                let Some(i) = queued.or_else(|| replay.last_unsubmitted(t)) else {
                    break;
                };
                replay.burst(i, t);
            }
        }

        peak_vdc_slots = peak_vdc_slots.max(replay.in_flight);
        vdc_slot_seconds += replay.in_flight as u64;
        t += 1;
    }

    let unfinished = replay
        .disp
        .iter()
        .filter(|d| !matches!(d, Disposition::Done))
        .count();
    let runtime_secs = last_completion - t0;
    // Both means read 0.0 for a replay that never ran a second.
    let seconds = instant_series.len().max(1) as f64;
    let ait = instant_series.iter().sum::<f64>() / seconds;
    let mean_vdc_slots = vdc_slot_seconds as f64 / seconds;
    let vdc_minutes = vdc_seconds as f64 / 60.0;
    Ok(BurstOutcome {
        instant_series,
        ait_jpm: ait,
        runtime_secs,
        total_jobs: n,
        bursted_jobs: replay.bursted,
        unfinished_jobs: unfinished,
        vdc_minutes,
        cost_usd: vdc_minutes * CLOUD_COST_PER_MIN,
        peak_vdc_slots,
        mean_vdc_slots,
    })
}

/// The job state every policy reads and moves: each job's disposition,
/// the burst count and the VDC jobs in flight.
struct Replay<'a> {
    jobs: &'a [JobRecord],
    disp: Vec<Disposition>,
    bursted: usize,
    in_flight: usize,
    /// `max_burst_fraction` as a job count.
    cap: usize,
}

impl Replay<'_> {
    /// True while `max_burst_fraction` allows another burst.
    fn can_burst(&self) -> bool {
        self.bursted < self.cap
    }

    /// The burst step of every policy: job `i` starts on VDC at second `t`.
    fn burst(&mut self, i: usize, t: u64) {
        self.disp[i] = Disposition::Bursted {
            start: t,
            duration: vdc_duration_secs(self.jobs[i].phase),
        };
        self.bursted += 1;
        self.in_flight += 1;
    }

    /// True when OSG job `i` waits in the queue at second `t`.
    fn queued(&self, i: usize, t: u64) -> bool {
        let job = &self.jobs[i];
        self.disp[i] == Disposition::Osg
            && job.submit_s <= t
            && job.execute_s.map(|e| e > t).unwrap_or(true)
    }

    /// Index of the not-yet-submitted OSG job with the latest submit time
    /// ("the last unsubmitted OSG job for the phase", §3.1.2).
    fn last_unsubmitted(&self, t: u64) -> Option<usize> {
        self.jobs
            .iter()
            .enumerate()
            .filter(|(i, j)| self.disp[*i] == Disposition::Osg && j.submit_s > t)
            .max_by_key(|(_, j)| j.submit_s)
            .map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{ElasticPolicy, QueueTimePolicy, SubmissionGapPolicy, ThroughputPolicy};
    use crate::records::BatchRecord;

    /// A batch of `n` waveform jobs completing one per minute after a slow
    /// start.
    fn slow_batch(n: u64) -> BatchInput {
        let jobs: Vec<JobRecord> = (0..n)
            .map(|i| JobRecord {
                job: i,
                phase: JobPhase::Waveform,
                submit_s: i * 30,
                execute_s: Some(1000 + i * 60),
                terminate_s: Some(2000 + i * 60),
            })
            .collect();
        let term = jobs.iter().filter_map(|j| j.terminate_s).max().unwrap();
        BatchInput {
            batch: BatchRecord {
                submit_s: 0,
                execute_s: 1000,
                terminate_s: term,
            },
            jobs,
        }
    }

    #[test]
    fn control_replays_record_exactly() {
        let input = slow_batch(20);
        let out = simulate(&input, &BurstPolicies::control()).unwrap();
        assert_eq!(out.bursted_jobs, 0);
        assert_eq!(out.cost_usd, 0.0);
        assert_eq!(out.runtime_secs, input.batch.runtime_secs());
        assert_eq!(out.total_jobs, 20);
        assert_eq!(out.unfinished_jobs, 0);
        assert_eq!(
            out.instant_series.len() as u64,
            input.batch.runtime_secs() + 1
        );
        // Final instant throughput equals jobs/total-minutes.
        let last = *out.instant_series.last().unwrap();
        let expected = 20.0 / (input.batch.runtime_secs() as f64 / 60.0);
        assert!((last - expected).abs() < 1e-9);
    }

    #[test]
    fn queue_policy_bursts_long_waiters_and_shortens_runtime() {
        let input = slow_batch(20);
        let policies = BurstPolicies {
            queue_time: Some(QueueTimePolicy {
                max_queue_secs: 300,
                check_secs: 30,
            }),
            ..Default::default()
        };
        let out = simulate(&input, &policies).unwrap();
        assert!(out.bursted_jobs > 0, "long-queued jobs must burst");
        assert!(
            out.runtime_secs < input.batch.runtime_secs(),
            "bursting must shorten this tail-heavy batch"
        );
        assert!(out.cost_usd > 0.0);
        assert_eq!(out.unfinished_jobs, 0);
    }

    #[test]
    fn throughput_policy_requires_arming() {
        // Batch whose throughput never reaches the threshold: policy 1
        // must never fire.
        let input = slow_batch(10);
        let policies = BurstPolicies {
            throughput: Some(ThroughputPolicy {
                probe_secs: 1,
                threshold_jpm: 1000.0,
            }),
            ..Default::default()
        };
        let out = simulate(&input, &policies).unwrap();
        assert_eq!(out.bursted_jobs, 0, "unarmed policy must not burst");
    }

    #[test]
    fn throughput_policy_bursts_after_arming() {
        // Fast initial completions arm the policy; the long tail then
        // triggers bursting of unsubmitted jobs.
        let mut jobs: Vec<JobRecord> = (0..30)
            .map(|i| JobRecord {
                job: i,
                phase: JobPhase::Rupture,
                submit_s: 0,
                execute_s: Some(10),
                terminate_s: Some(60 + i), // 30 jobs inside the first 90 s
            })
            .collect();
        // Late tail submitted much later.
        for i in 30..40 {
            jobs.push(JobRecord {
                job: i,
                phase: JobPhase::Waveform,
                submit_s: 4000 + (i - 30) * 100,
                execute_s: Some(8000),
                terminate_s: Some(12_000),
            });
        }
        let input = BatchInput {
            batch: BatchRecord {
                submit_s: 0,
                execute_s: 10,
                terminate_s: 12_000,
            },
            jobs,
        };
        let policies = BurstPolicies {
            throughput: Some(ThroughputPolicy {
                probe_secs: 1,
                threshold_jpm: 15.0,
            }),
            ..Default::default()
        };
        let out = simulate(&input, &policies).unwrap();
        assert!(out.bursted_jobs > 0);
        assert!(out.runtime_secs < 12_000);
    }

    #[test]
    fn faster_probing_bursts_more() {
        let input = slow_batch(40);
        let run = |probe| {
            let policies = BurstPolicies {
                throughput: Some(ThroughputPolicy {
                    probe_secs: probe,
                    // Low threshold so arming happens with the first
                    // completion spike.
                    threshold_jpm: 0.5,
                }),
                ..Default::default()
            };
            simulate(&input, &policies).unwrap()
        };
        let fast = run(1);
        let slow = run(120);
        assert!(
            fast.bursted_jobs >= slow.bursted_jobs,
            "probe 1 s bursted {} < probe 120 s {}",
            fast.bursted_jobs,
            slow.bursted_jobs
        );
        assert!(fast.ait_jpm >= slow.ait_jpm * 0.95);
    }

    #[test]
    fn gap_policy_fires_on_submission_gaps() {
        // Submissions stop after t=100 but late jobs arrive at t=5000.
        let mut jobs: Vec<JobRecord> = (0..5)
            .map(|i| JobRecord {
                job: i,
                phase: JobPhase::Rupture,
                submit_s: i * 20,
                execute_s: Some(200),
                terminate_s: Some(400 + i * 10),
            })
            .collect();
        jobs.push(JobRecord {
            job: 5,
            phase: JobPhase::Waveform,
            submit_s: 5000,
            execute_s: Some(5100),
            terminate_s: Some(6000),
        });
        let input = BatchInput {
            batch: BatchRecord {
                submit_s: 0,
                execute_s: 200,
                terminate_s: 6000,
            },
            jobs,
        };
        let policies = BurstPolicies {
            submission_gap: Some(SubmissionGapPolicy {
                max_gap_secs: 600,
                check_secs: 60,
            }),
            ..Default::default()
        };
        let out = simulate(&input, &policies).unwrap();
        assert_eq!(out.bursted_jobs, 1, "the late job must be bursted");
        assert!(out.runtime_secs < 6000);
    }

    #[test]
    fn burst_cap_enforced() {
        let input = slow_batch(40);
        let policies = BurstPolicies {
            queue_time: Some(QueueTimePolicy {
                max_queue_secs: 60,
                check_secs: 10,
            }),
            max_burst_fraction: Some(0.30),
            ..Default::default()
        };
        let out = simulate(&input, &policies).unwrap();
        assert!(
            out.burst_fraction() <= 0.30 + 1e-9,
            "{}",
            out.burst_fraction()
        );
        assert!(out.bursted_jobs <= 12);
    }

    #[test]
    fn vdc_durations_match_paper() {
        assert_eq!(vdc_duration_secs(JobPhase::Rupture), 287);
        assert_eq!(vdc_duration_secs(JobPhase::Waveform), 144);
        assert_eq!(vdc_duration_secs(JobPhase::Other), 287);
    }

    #[test]
    fn cost_is_minutes_times_rate() {
        let input = slow_batch(20);
        let policies = BurstPolicies {
            queue_time: Some(QueueTimePolicy {
                max_queue_secs: 120,
                check_secs: 10,
            }),
            ..Default::default()
        };
        let out = simulate(&input, &policies).unwrap();
        assert!((out.cost_usd - out.vdc_minutes * CLOUD_COST_PER_MIN).abs() < 1e-12);
        // Every bursted waveform job costs 144 s of VDC time.
        assert!((out.vdc_minutes - out.bursted_jobs as f64 * 144.0 / 60.0).abs() < 1e-9);
    }

    #[test]
    fn incomplete_records_without_bursting_stay_unfinished() {
        let jobs = vec![JobRecord {
            job: 0,
            phase: JobPhase::Waveform,
            submit_s: 0,
            execute_s: None,
            terminate_s: None,
        }];
        let input = BatchInput {
            batch: BatchRecord {
                submit_s: 0,
                execute_s: 0,
                terminate_s: 100,
            },
            jobs,
        };
        let out = simulate(&input, &BurstPolicies::control()).unwrap();
        assert_eq!(out.unfinished_jobs, 1);
        // …but policy 2 rescues it.
        let policies = BurstPolicies {
            queue_time: Some(QueueTimePolicy {
                max_queue_secs: 50,
                check_secs: 10,
            }),
            ..Default::default()
        };
        let out = simulate(&input, &policies).unwrap();
        assert_eq!(out.unfinished_jobs, 0);
        assert_eq!(out.bursted_jobs, 1);
    }

    /// A batch of `n` waveform jobs whose completions trail two minutes
    /// apart, far slower than the elastic tests' targets.
    fn elastic_batch(n: u64) -> BatchInput {
        let jobs: Vec<JobRecord> = (0..n)
            .map(|i| JobRecord {
                job: i,
                phase: JobPhase::Waveform,
                submit_s: i * 10,
                execute_s: Some(600 + i * 120),
                terminate_s: Some(1600 + i * 120),
            })
            .collect();
        let term = jobs.iter().filter_map(|j| j.terminate_s).max().unwrap();
        BatchInput {
            batch: BatchRecord {
                submit_s: 0,
                execute_s: 600,
                terminate_s: term,
            },
            jobs,
        }
    }

    fn elastic(policy: ElasticPolicy) -> BurstPolicies {
        BurstPolicies {
            elastic: Some(policy),
            ..Default::default()
        }
    }

    #[test]
    fn elastic_zero_target_never_bursts() {
        let input = elastic_batch(20);
        let out = simulate(
            &input,
            &elastic(ElasticPolicy {
                target_jpm: 0.0,
                ..Default::default()
            }),
        )
        .unwrap();
        assert_eq!(out.bursted_jobs, 0);
        assert_eq!(out.runtime_secs, input.batch.runtime_secs());
        assert_eq!(out.peak_vdc_slots, 0);
    }

    #[test]
    fn elastic_high_target_scales_up_and_finishes_early() {
        let input = elastic_batch(40);
        let out = simulate(
            &input,
            &elastic(ElasticPolicy {
                target_jpm: 30.0,
                ..Default::default()
            }),
        )
        .unwrap();
        assert!(out.bursted_jobs > 0);
        assert!(out.peak_vdc_slots > 0);
        assert!(
            out.runtime_secs < input.batch.runtime_secs(),
            "elastic bursting must shorten this slow batch"
        );
        assert_eq!(out.unfinished_jobs, 0);
        assert!(out.cost_usd > 0.0);
    }

    #[test]
    fn elastic_slot_cap_respected() {
        let input = elastic_batch(60);
        let out = simulate(
            &input,
            &elastic(ElasticPolicy {
                target_jpm: 1_000.0,
                max_vdc_slots: 3,
                ..Default::default()
            }),
        )
        .unwrap();
        assert!(out.peak_vdc_slots <= 3, "peak {}", out.peak_vdc_slots);
    }

    #[test]
    fn elastic_controller_downscales_when_target_met() {
        // A batch that completes quickly on its own: after the initial
        // ramp the controller should retire slots (mean well below peak).
        let jobs: Vec<JobRecord> = (0..200)
            .map(|i| JobRecord {
                job: i,
                phase: JobPhase::Rupture,
                submit_s: 0,
                execute_s: Some(5),
                terminate_s: Some(10 + i / 2), // ~2 jobs per second early on
            })
            .collect();
        let input = BatchInput {
            batch: BatchRecord {
                submit_s: 0,
                execute_s: 5,
                terminate_s: 110,
            },
            jobs,
        };
        let out = simulate(
            &input,
            &elastic(ElasticPolicy {
                target_jpm: 30.0,
                window_s: 30,
                ..Default::default()
            }),
        )
        .unwrap();
        // OSG alone delivers ~120 JPM, far above target: no slots needed.
        assert_eq!(out.bursted_jobs, 0, "controller must not burst");
    }

    #[test]
    fn elastic_invalid_policy_rejected() {
        let input = elastic_batch(5);
        assert!(simulate(
            &input,
            &elastic(ElasticPolicy {
                control_period_s: 0,
                ..Default::default()
            })
        )
        .is_err());
        assert!(simulate(
            &input,
            &elastic(ElasticPolicy {
                window_s: 0,
                ..Default::default()
            })
        )
        .is_err());
    }

    /// Assert that `simulate` rejects `policies` with an error naming `field`.
    fn rejected(policies: &BurstPolicies, field: &str) {
        let err = simulate(&elastic_batch(5), policies).unwrap_err();
        assert!(err.contains(field), "{err:?} does not name {field}");
    }

    #[test]
    fn elastic_non_finite_target_rejected() {
        for target_jpm in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            rejected(
                &elastic(ElasticPolicy {
                    target_jpm,
                    ..Default::default()
                }),
                "target_jpm",
            );
        }
    }

    #[test]
    fn elastic_non_finite_gain_rejected() {
        for gain in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            rejected(
                &elastic(ElasticPolicy {
                    gain,
                    ..Default::default()
                }),
                "gain",
            );
        }
    }

    #[test]
    fn nan_throughput_threshold_rejected() {
        let throughput = |threshold_jpm| BurstPolicies {
            throughput: Some(ThroughputPolicy {
                probe_secs: 10,
                threshold_jpm,
            }),
            ..Default::default()
        };
        rejected(&throughput(f64::NAN), "threshold_jpm");
        // A non-positive threshold still means "armed from the start".
        for threshold_jpm in [0.0, -5.0] {
            assert!(simulate(&elastic_batch(5), &throughput(threshold_jpm)).is_ok());
        }
    }

    #[test]
    fn nan_or_negative_burst_cap_rejected() {
        for cap in [f64::NAN, -0.1, f64::NEG_INFINITY] {
            rejected(
                &BurstPolicies {
                    max_burst_fraction: Some(cap),
                    ..BurstPolicies::paper_sweep(5, 90)
                },
                "max_burst_fraction",
            );
        }
        let zero_cap = BurstPolicies {
            max_burst_fraction: Some(0.0),
            ..BurstPolicies::paper_sweep(5, 90)
        };
        assert_eq!(
            simulate(&elastic_batch(5), &zero_cap).unwrap().bursted_jobs,
            0
        );
    }

    #[test]
    fn elastic_conservation_and_cost() {
        let input = elastic_batch(30);
        let out = simulate(
            &input,
            &elastic(ElasticPolicy {
                target_jpm: 10.0,
                ..Default::default()
            }),
        )
        .unwrap();
        assert_eq!(out.total_jobs, 30);
        assert_eq!(out.unfinished_jobs, 0);
        assert!((out.cost_usd - out.vdc_minutes * CLOUD_COST_PER_MIN).abs() < 1e-12);
        // Every bursted waveform job contributes exactly 144 s.
        assert!((out.vdc_minutes - out.bursted_jobs as f64 * 144.0 / 60.0).abs() < 1e-9);
    }

    #[test]
    fn elastic_deterministic() {
        let input = elastic_batch(25);
        let p = elastic(ElasticPolicy {
            target_jpm: 15.0,
            ..Default::default()
        });
        let a = simulate(&input, &p).unwrap();
        let b = simulate(&input, &p).unwrap();
        assert_eq!(a.instant_series, b.instant_series);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn elastic_obeys_the_burst_cap() {
        let input = elastic_batch(40);
        let mut policies = elastic(ElasticPolicy {
            target_jpm: 30.0,
            ..Default::default()
        });
        let uncapped = simulate(&input, &policies).unwrap();
        policies.max_burst_fraction = Some(0.25);
        let capped = simulate(&input, &policies).unwrap();
        assert!(uncapped.bursted_jobs > 10, "{}", uncapped.bursted_jobs);
        assert_eq!(capped.bursted_jobs, 10);
        assert_eq!(capped.unfinished_jobs, 0);
    }

    #[test]
    fn elastic_fills_a_slot_with_the_longest_queued_job() {
        // Both jobs are queued when the controller first acts (t = 200);
        // under a one-job cap only the earlier submission may burst.
        let job = |job, phase, submit_s| JobRecord {
            job,
            phase,
            submit_s,
            execute_s: Some(1000),
            terminate_s: Some(2000),
        };
        let input = BatchInput {
            batch: BatchRecord {
                submit_s: 0,
                execute_s: 1000,
                terminate_s: 2000,
            },
            jobs: vec![
                job(0, JobPhase::Rupture, 0),
                job(1, JobPhase::Waveform, 100),
            ],
        };
        let mut policies = elastic(ElasticPolicy {
            target_jpm: 30.0,
            window_s: 200,
            control_period_s: 10,
            ..Default::default()
        });
        policies.max_burst_fraction = Some(0.5);
        let out = simulate(&input, &policies).unwrap();
        assert_eq!(out.bursted_jobs, 1);
        assert_eq!(out.vdc_minutes, 287.0 / 60.0, "the rupture job bursts");
        assert_eq!(out.runtime_secs, 2000);
    }

    #[test]
    fn slots_count_every_policys_bursts_in_flight() {
        // One waveform job bursted by Policy 2 at t = 60 holds one VDC
        // slot for its 144 s.
        let jobs = vec![JobRecord {
            job: 0,
            phase: JobPhase::Waveform,
            submit_s: 0,
            execute_s: Some(500),
            terminate_s: Some(600),
        }];
        let input = BatchInput {
            batch: BatchRecord {
                submit_s: 0,
                execute_s: 500,
                terminate_s: 600,
            },
            jobs,
        };
        let policies = BurstPolicies {
            queue_time: Some(QueueTimePolicy {
                max_queue_secs: 50,
                check_secs: 60,
            }),
            ..Default::default()
        };
        let out = simulate(&input, &policies).unwrap();
        assert_eq!(out.bursted_jobs, 1);
        assert_eq!(out.runtime_secs, 60 + 144);
        assert_eq!(out.peak_vdc_slots, 1);
        assert_eq!(out.instant_series.len(), 60 + 144 + 1);
        assert_eq!(out.mean_vdc_slots, 144.0 / 205.0);
        let control = simulate(&input, &BurstPolicies::control()).unwrap();
        assert_eq!((control.peak_vdc_slots, control.mean_vdc_slots), (0, 0.0));
    }
}
