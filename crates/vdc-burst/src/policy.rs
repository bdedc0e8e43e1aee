//! The three OSG-tailored bursting policies (§3.1.2) and the elastic
//! controller of the paper's §6 future work.
//!
//! * **Policy 1** — low throughput: probe the batch's instant throughput
//!   every `probe_secs`; once it has been armed (reached the threshold at
//!   least once), burst the last unsubmitted job whenever it falls below
//!   the threshold.
//! * **Policy 2** — congested queue: jobs waiting in the queue longer than
//!   `max_queue_secs` are removed and bursted.
//! * **Policy 3** — submission gaps: if no job has entered the queue for
//!   `max_gap_secs`, periodically burst the last unsubmitted job.
//! * **Elastic** — "scaling utilized VDC resources based on OSG's common
//!   resources" (§6): a pool of VDC slots sized by proportional feedback
//!   on the windowed completion throughput. Free slots (those no job
//!   bursted by any policy holds) pull the longest-queued job, else the
//!   last unsubmitted one.

/// Policy 1 parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputPolicy {
    /// Probe interval in seconds (the paper sweeps 1–120 s).
    pub probe_secs: u64,
    /// Instant-throughput threshold in jobs/minute (paper uses 34).
    pub threshold_jpm: f64,
}

impl Default for ThroughputPolicy {
    fn default() -> Self {
        Self {
            probe_secs: 10,
            threshold_jpm: 34.0,
        }
    }
}

/// Policy 2 parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueTimePolicy {
    /// Maximum tolerated queue wait in seconds (paper uses 90 and 120
    /// minutes).
    pub max_queue_secs: u64,
    /// How often the queue is scanned, seconds.
    pub check_secs: u64,
}

impl Default for QueueTimePolicy {
    fn default() -> Self {
        Self {
            max_queue_secs: 90 * 60,
            check_secs: 60,
        }
    }
}

/// Policy 3 parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubmissionGapPolicy {
    /// Maximum tolerated gap since the last submission, seconds.
    pub max_gap_secs: u64,
    /// How often the gap is checked (and one job bursted), seconds.
    pub check_secs: u64,
}

impl Default for SubmissionGapPolicy {
    fn default() -> Self {
        Self {
            max_gap_secs: 20 * 60,
            check_secs: 60,
        }
    }
}

/// Elastic controller parameters. Every control period, once its window
/// is full (the analogue of Policy 1's arming), the controller moves its
/// VDC slot target by `gain` times the throughput deficit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElasticPolicy {
    /// Throughput the controller tries to hold, jobs/minute.
    pub target_jpm: f64,
    /// Control period, seconds.
    pub control_period_s: u64,
    /// Proportional gain: slots added per JPM of throughput deficit.
    pub gain: f64,
    /// Hard cap on simulated VDC slots.
    pub max_vdc_slots: usize,
    /// Sliding window for the throughput measurement, seconds.
    pub window_s: u64,
}

impl Default for ElasticPolicy {
    fn default() -> Self {
        Self {
            target_jpm: 20.0,
            control_period_s: 30,
            gain: 1.0,
            max_vdc_slots: 200,
            window_s: 300,
        }
    }
}

/// The bursting configuration: any combination of the four policies plus
/// an optional cap on the fraction of jobs bursted (the paper's cost
/// experiment keeps it ≤ 30 %).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BurstPolicies {
    /// Policy 1 (low throughput), if enabled.
    pub throughput: Option<ThroughputPolicy>,
    /// Policy 2 (congested queue), if enabled.
    pub queue_time: Option<QueueTimePolicy>,
    /// Policy 3 (submission gaps), if enabled.
    pub submission_gap: Option<SubmissionGapPolicy>,
    /// The elastic controller, if enabled; it runs after Policies 1–3.
    pub elastic: Option<ElasticPolicy>,
    /// Maximum fraction of total jobs that may be bursted (None =
    /// unlimited).
    pub max_burst_fraction: Option<f64>,
}

impl BurstPolicies {
    /// The configuration of the paper's Fig. 5 sweep: Policy 1 with the
    /// given probe time, Policy 2 with the given queue limit.
    pub fn paper_sweep(probe_secs: u64, max_queue_mins: u64) -> Self {
        Self {
            throughput: Some(ThroughputPolicy {
                probe_secs,
                threshold_jpm: 34.0,
            }),
            queue_time: Some(QueueTimePolicy {
                max_queue_secs: max_queue_mins * 60,
                check_secs: 60,
            }),
            submission_gap: None,
            elastic: None,
            max_burst_fraction: None,
        }
    }

    /// No bursting at all — the control replays the OSG record untouched.
    pub fn control() -> Self {
        Self::default()
    }

    /// True when no policy is enabled.
    pub fn is_control(&self) -> bool {
        self.throughput.is_none()
            && self.queue_time.is_none()
            && self.submission_gap.is_none()
            && self.elastic.is_none()
    }

    /// Reject, with an error that names the field, the parameters a
    /// replay cannot use: a zero elastic control period or window, a
    /// non-finite elastic target or gain, a NaN throughput threshold, and
    /// a NaN or negative burst cap. A zero elastic target (never burst)
    /// and a non-positive throughput threshold (armed from the start) are
    /// valid settings.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if let Some(p) = self.throughput {
            if p.threshold_jpm.is_nan() {
                return Err("throughput threshold_jpm must be a number, got NaN".into());
            }
        }
        if let Some(p) = self.elastic {
            if p.control_period_s == 0 || p.window_s == 0 {
                return Err("elastic control_period_s and window_s must be positive".into());
            }
            for (field, v) in [("target_jpm", p.target_jpm), ("gain", p.gain)] {
                if !v.is_finite() {
                    return Err(format!("elastic {field} must be finite, got {v}"));
                }
            }
        }
        match self.max_burst_fraction {
            Some(f) if f.is_nan() || f < 0.0 => Err(format!(
                "max_burst_fraction must be a non-negative number, got {f}"
            )),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        assert_eq!(ThroughputPolicy::default().threshold_jpm, 34.0);
        assert_eq!(QueueTimePolicy::default().max_queue_secs, 5400);
    }

    #[test]
    fn paper_sweep_config() {
        let p = BurstPolicies::paper_sweep(5, 120);
        assert_eq!(p.throughput.unwrap().probe_secs, 5);
        assert_eq!(p.queue_time.unwrap().max_queue_secs, 7200);
        assert!(p.submission_gap.is_none());
        assert!(!p.is_control());
    }

    #[test]
    fn control_is_empty() {
        assert!(BurstPolicies::control().is_control());
        let elastic = BurstPolicies {
            elastic: Some(ElasticPolicy::default()),
            ..Default::default()
        };
        assert!(!elastic.is_control());
    }
}
