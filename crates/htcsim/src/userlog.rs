//! The user log: the simulator's equivalent of HTCondor's per-job event
//! log, plus the post-processing the paper's shell scripts perform on it
//! (per-job wait/execution times, per-second instant throughput and
//! running-job counts) and CSV export in the two-file format the VDC
//! bursting simulator consumes.

use std::collections::HashMap;

use crate::csvlite;
use crate::job::{JobEvent, JobEventKind, JobId, OwnerId};
use crate::time::SimTime;

/// Per-job timing record distilled from the event log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobTimes {
    /// Job id.
    pub job: JobId,
    /// Owning submitter (DAGMan).
    pub owner: OwnerId,
    /// Queue entry time.
    pub submitted: SimTime,
    /// First `ExecuteStarted` (None if never started).
    pub first_execute: Option<SimTime>,
    /// Completion time (None if evicted forever / removed).
    pub completed: Option<SimTime>,
    /// Number of evictions suffered.
    pub evictions: u32,
    /// Whether the job was removed without completing.
    pub removed: bool,
    /// Number of times the job was held (012 events).
    pub holds: u32,
    /// Final exit code: `Some(0)` for a completion, the failing code for
    /// a non-zero termination, `None` if the job never terminated.
    pub exit_code: Option<i32>,
}

impl JobTimes {
    /// Wait time in seconds: submission to *last* execution start (the
    /// paper's scripts measure time not spent executing; retries count).
    pub fn wait_secs(&self) -> Option<u64> {
        self.first_execute.map(|e| e.since(self.submitted))
    }

    /// Execution (goodput) time: last execute to completion.
    pub fn exec_secs(&self) -> Option<u64> {
        match (self.first_execute, self.completed) {
            (Some(e), Some(c)) => Some(c.since(e)),
            _ => None,
        }
    }
}

/// The full event log of one cluster run.
#[derive(Debug, Clone, Default)]
pub struct UserLog {
    events: Vec<JobEvent>,
}

impl UserLog {
    /// Create an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an event (called by the cluster).
    pub fn record(&mut self, ev: JobEvent) {
        self.events.push(ev);
    }

    /// All events, in record order (which is time order).
    pub fn events(&self) -> &[JobEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Distil per-job timing records. For evicted-and-retried jobs the
    /// execute time refers to the final (successful) attempt.
    pub fn job_times(&self) -> Vec<JobTimes> {
        let mut map: HashMap<JobId, JobTimes> = HashMap::new();
        let mut order: Vec<JobId> = Vec::new();
        for ev in &self.events {
            match ev.kind {
                JobEventKind::Submitted => {
                    order.push(ev.job);
                    map.insert(
                        ev.job,
                        JobTimes {
                            job: ev.job,
                            owner: ev.owner,
                            submitted: ev.time,
                            first_execute: None,
                            completed: None,
                            evictions: 0,
                            removed: false,
                            holds: 0,
                            exit_code: None,
                        },
                    );
                }
                JobEventKind::ExecuteStarted => {
                    if let Some(jt) = map.get_mut(&ev.job) {
                        // Last execute start wins (retries reset it): wait
                        // time then includes re-queue delays, matching how
                        // the paper's scripts treat badput.
                        jt.first_execute = Some(ev.time);
                    }
                }
                JobEventKind::Evicted => {
                    if let Some(jt) = map.get_mut(&ev.job) {
                        jt.evictions += 1;
                    }
                }
                JobEventKind::Completed => {
                    if let Some(jt) = map.get_mut(&ev.job) {
                        jt.completed = Some(ev.time);
                        jt.exit_code = ev.exit_code.or(Some(0));
                    }
                }
                JobEventKind::Removed => {
                    if let Some(jt) = map.get_mut(&ev.job) {
                        jt.removed = true;
                    }
                }
                JobEventKind::Failed => {
                    if let Some(jt) = map.get_mut(&ev.job) {
                        jt.exit_code = ev.exit_code;
                    }
                }
                JobEventKind::Held => {
                    if let Some(jt) = map.get_mut(&ev.job) {
                        jt.holds += 1;
                    }
                }
                // Preemptions and pool outages are displacement events
                // (like evictions, but charged to the pool fault domain);
                // JobTimes keeps its stable schema and tracks neither.
                // Service-layer events (admission, shedding, degradation,
                // artifact store) annotate requests rather than change
                // job timing, so they pass through untracked too.
                JobEventKind::Matched
                | JobEventKind::Released
                | JobEventKind::Preempted
                | JobEventKind::PoolOutage
                | JobEventKind::PartitionStalled
                | JobEventKind::Migrated
                | JobEventKind::ServiceAdmitted
                | JobEventKind::ServiceRejected
                | JobEventKind::ServiceShed
                | JobEventKind::ServiceDegraded
                | JobEventKind::ArtifactHit
                | JobEventKind::ArtifactQuarantined => {}
            }
        }
        order.into_iter().filter_map(|id| map.remove(&id)).collect()
    }

    /// Completed-job count.
    pub fn completed_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind == JobEventKind::Completed)
            .count()
    }

    /// Makespan: time of the last event (the DAGMan's termination time).
    pub fn makespan(&self) -> SimTime {
        // Max rather than last: the cluster records in time order, but the
        // log API stays correct for callers that append out of order.
        self.events
            .iter()
            .map(|e| e.time)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Per-second instant throughput ω = completed / elapsed-minutes
    /// (paper eq. 5), evaluated at every second of the run.
    pub fn instant_throughput_series(&self) -> Vec<f64> {
        let end = self.makespan().as_secs() as usize;
        let mut completions = vec![0u32; end + 1];
        for e in &self.events {
            if e.kind == JobEventKind::Completed {
                completions[e.time.as_secs() as usize] += 1;
            }
        }
        let mut out = Vec::with_capacity(end + 1);
        let mut done = 0u64;
        for (s, c) in completions.iter().enumerate() {
            done += *c as u64;
            let mins = (s.max(1)) as f64 / 60.0;
            out.push(done as f64 / mins);
        }
        out
    }

    /// Per-second count of running (executing) jobs.
    pub fn running_series(&self) -> Vec<u32> {
        let end = self.makespan().as_secs() as usize;
        let mut delta = vec![0i32; end + 2];
        let mut started: HashMap<JobId, SimTime> = HashMap::new();
        for e in &self.events {
            if e.kind == JobEventKind::ExecuteStarted {
                started.insert(e.job, e.time);
            } else if e.kind.ends_execution() {
                if let Some(s) = started.remove(&e.job) {
                    delta[s.as_secs() as usize] += 1;
                    delta[e.time.as_secs() as usize] -= 1;
                }
            }
        }
        // Jobs still running at makespan.
        // fdwlint::allow(unordered-hash-iteration): commutative accumulation into a delta array — `+=` per bucket is order-insensitive
        for (_, s) in started {
            delta[s.as_secs() as usize] += 1;
            delta[end + 1] -= 1;
        }
        let mut out = Vec::with_capacity(end + 1);
        let mut cur = 0i32;
        for d in delta.iter().take(end + 1) {
            cur += d;
            out.push(cur.max(0) as u32);
        }
        out
    }

    /// Goodput/badput split: seconds of execution that led to a
    /// successful completion vs seconds lost to evictions, failures and
    /// holds — the "wasted OSG cycles" the paper's discussion attributes
    /// to the pool's volatility. Time from the last execute start to the
    /// terminal event counts toward whichever bucket that event selects.
    pub fn goodput_badput(&self) -> (u64, u64) {
        let mut started: HashMap<JobId, SimTime> = HashMap::new();
        let (mut good, mut bad) = (0u64, 0u64);
        for e in &self.events {
            if e.kind == JobEventKind::ExecuteStarted {
                started.insert(e.job, e.time);
            } else if e.kind.ends_execution() {
                // Anything but a completion (a mid-execution removal of a
                // speculative loser or by walltime policy, spot
                // reclamation, a pool outage, ...) wastes its cycles.
                if let Some(s) = started.remove(&e.job) {
                    if e.kind == JobEventKind::Completed {
                        good += e.time.since(s);
                    } else {
                        bad += e.time.since(s);
                    }
                }
            }
        }
        (good, bad)
    }

    /// Export the batch-level CSV the bursting simulator requires:
    /// one row `(submit, execute, terminate)` for the whole DAGMan batch.
    pub fn batch_csv(&self) -> String {
        let submit = self
            .events
            .iter()
            .find(|e| e.kind == JobEventKind::Submitted)
            .map(|e| e.time.as_secs())
            .unwrap_or(0);
        let execute = self
            .events
            .iter()
            .find(|e| e.kind == JobEventKind::ExecuteStarted)
            .map(|e| e.time.as_secs())
            .unwrap_or(submit);
        let term = self.makespan().as_secs();
        csvlite::encode(
            &["submit_s", "execute_s", "terminate_s"],
            &[vec![
                submit.to_string(),
                execute.to_string(),
                term.to_string(),
            ]],
        )
    }

    /// Export the per-job CSV the bursting simulator requires: rows of
    /// `(job, owner, phase, submit, execute, terminate)`. The phase label
    /// is the prefix of the job name before the first '.'; the cluster
    /// stores it in the event log via job names, so the caller supplies a
    /// lookup from job id to name.
    pub fn jobs_csv(&self, name_of: impl Fn(JobId) -> String) -> String {
        let rows: Vec<Vec<String>> = self
            .job_times()
            .iter()
            .map(|jt| {
                let name = name_of(jt.job);
                let phase = name.split('.').next().unwrap_or("?").to_string();
                vec![
                    jt.job.0.to_string(),
                    jt.owner.0.to_string(),
                    phase,
                    jt.submitted.as_secs().to_string(),
                    jt.first_execute
                        .map(|t| t.as_secs().to_string())
                        .unwrap_or_default(),
                    jt.completed
                        .map(|t| t.as_secs().to_string())
                        .unwrap_or_default(),
                ]
            })
            .collect();
        csvlite::encode(
            &[
                "job",
                "owner",
                "phase",
                "submit_s",
                "execute_s",
                "terminate_s",
            ],
            &rows,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, j: u64, kind: JobEventKind) -> JobEvent {
        JobEvent::new(SimTime(t), JobId(j), OwnerId(0), kind)
    }

    fn sample_log() -> UserLog {
        let mut log = UserLog::new();
        log.record(ev(0, 1, JobEventKind::Submitted));
        log.record(ev(0, 2, JobEventKind::Submitted));
        log.record(ev(60, 1, JobEventKind::Matched));
        log.record(ev(70, 1, JobEventKind::ExecuteStarted));
        log.record(ev(130, 1, JobEventKind::Completed));
        log.record(ev(120, 2, JobEventKind::Matched));
        log.record(ev(125, 2, JobEventKind::ExecuteStarted));
        log.record(ev(300, 2, JobEventKind::Completed));
        log
    }

    #[test]
    fn job_times_extraction() {
        let log = sample_log();
        let jt = log.job_times();
        assert_eq!(jt.len(), 2);
        assert_eq!(jt[0].job, JobId(1));
        assert_eq!(jt[0].wait_secs(), Some(70));
        assert_eq!(jt[0].exec_secs(), Some(60));
        assert_eq!(jt[1].wait_secs(), Some(125));
        assert_eq!(jt[1].exec_secs(), Some(175));
        assert_eq!(jt[0].evictions, 0);
        assert!(!jt[0].removed);
    }

    #[test]
    fn eviction_resets_execute_start() {
        let mut log = UserLog::new();
        log.record(ev(0, 1, JobEventKind::Submitted));
        log.record(ev(10, 1, JobEventKind::ExecuteStarted));
        log.record(ev(50, 1, JobEventKind::Evicted));
        log.record(ev(200, 1, JobEventKind::ExecuteStarted));
        log.record(ev(260, 1, JobEventKind::Completed));
        let jt = &log.job_times()[0];
        assert_eq!(jt.evictions, 1);
        assert_eq!(jt.wait_secs(), Some(200));
        assert_eq!(jt.exec_secs(), Some(60));
    }

    #[test]
    fn unfinished_jobs_have_no_exec_time() {
        let mut log = UserLog::new();
        log.record(ev(0, 1, JobEventKind::Submitted));
        let jt = &log.job_times()[0];
        assert_eq!(jt.wait_secs(), None);
        assert_eq!(jt.exec_secs(), None);
    }

    #[test]
    fn removed_flag_set() {
        let mut log = UserLog::new();
        log.record(ev(0, 1, JobEventKind::Submitted));
        log.record(ev(99, 1, JobEventKind::Removed));
        assert!(log.job_times()[0].removed);
    }

    #[test]
    fn holds_and_exit_codes_tracked() {
        let mut log = UserLog::new();
        log.record(ev(0, 1, JobEventKind::Submitted));
        log.record(ev(10, 1, JobEventKind::Held));
        log.record(ev(70, 1, JobEventKind::Released));
        log.record(ev(100, 1, JobEventKind::ExecuteStarted));
        log.record(ev(160, 1, JobEventKind::Failed).with_exit(2));
        let jt = &log.job_times()[0];
        assert_eq!(jt.holds, 1);
        assert_eq!(jt.exit_code, Some(2));
        assert!(jt.completed.is_none());
        // A plain Completed without an explicit code reads as exit 0.
        let mut ok = UserLog::new();
        ok.record(ev(0, 1, JobEventKind::Submitted));
        ok.record(ev(90, 1, JobEventKind::Completed));
        assert_eq!(ok.job_times()[0].exit_code, Some(0));
    }

    #[test]
    fn goodput_badput_split() {
        let mut log = UserLog::new();
        log.record(ev(0, 1, JobEventKind::Submitted));
        log.record(ev(10, 1, JobEventKind::ExecuteStarted));
        log.record(ev(50, 1, JobEventKind::Evicted)); // 40 s badput
        log.record(ev(100, 1, JobEventKind::ExecuteStarted));
        log.record(ev(160, 1, JobEventKind::Completed)); // 60 s goodput
        log.record(ev(0, 2, JobEventKind::Submitted));
        log.record(ev(20, 2, JobEventKind::ExecuteStarted));
        log.record(ev(50, 2, JobEventKind::Failed).with_exit(1)); // 30 s badput
        assert_eq!(log.goodput_badput(), (60, 70));
        assert_eq!(UserLog::new().goodput_badput(), (0, 0));
    }

    #[test]
    fn preemption_and_outage_count_as_badput_once() {
        let mut log = UserLog::new();
        log.record(ev(0, 1, JobEventKind::Submitted));
        log.record(ev(10, 1, JobEventKind::ExecuteStarted));
        log.record(ev(40, 1, JobEventKind::Preempted)); // 30 s badput
        log.record(ev(100, 1, JobEventKind::Migrated).with_pool(1));
        log.record(ev(100, 1, JobEventKind::ExecuteStarted));
        log.record(ev(150, 1, JobEventKind::Completed)); // 50 s goodput
        log.record(ev(0, 2, JobEventKind::Submitted));
        log.record(ev(20, 2, JobEventKind::ExecuteStarted));
        log.record(ev(45, 2, JobEventKind::PoolOutage)); // 25 s badput
        assert_eq!(log.goodput_badput(), (50, 55));
        // The migrated job's completion is counted exactly once.
        assert_eq!(log.completed_count(), 1);
        let r = log.running_series();
        assert_eq!(r[39], 2);
        assert_eq!(r[45], 0, "preempted and outaged jobs stop running");
        assert_eq!(r[120], 1, "resumed attempt runs again");
    }

    #[test]
    fn completed_count_and_makespan() {
        let log = sample_log();
        assert_eq!(log.completed_count(), 2);
        assert_eq!(log.makespan(), SimTime(300));
        assert_eq!(log.len(), 8);
        assert!(!log.is_empty());
        assert_eq!(UserLog::new().makespan(), SimTime::ZERO);
    }

    #[test]
    fn instant_throughput_series_shape() {
        let log = sample_log();
        let s = log.instant_throughput_series();
        assert_eq!(s.len(), 301);
        assert_eq!(s[0], 0.0);
        // At t=130s one job is done: 1 / (130/60) = 0.4615…
        assert!((s[130] - 60.0 / 130.0).abs() < 1e-9);
        // At the end: 2 jobs / 5 minutes.
        assert!((s[300] - 0.4).abs() < 1e-9);
    }

    #[test]
    fn running_series_counts_overlap() {
        let log = sample_log();
        let r = log.running_series();
        assert_eq!(r[69], 0);
        assert_eq!(r[70], 1);
        assert_eq!(r[126], 2); // both running between 125 and 130
        assert_eq!(r[130], 1); // job 1 completed at 130
        assert_eq!(r[299], 1);
    }

    #[test]
    fn running_series_handles_still_running() {
        let mut log = UserLog::new();
        log.record(ev(0, 1, JobEventKind::Submitted));
        log.record(ev(5, 1, JobEventKind::ExecuteStarted));
        log.record(ev(10, 2, JobEventKind::Submitted)); // makespan = 10
        let r = log.running_series();
        assert_eq!(r[10], 1);
    }

    #[test]
    fn csv_exports_parse_back() {
        let log = sample_log();
        let (h, rows) = csvlite::parse(&log.batch_csv()).unwrap();
        assert_eq!(h, vec!["submit_s", "execute_s", "terminate_s"]);
        assert_eq!(rows[0], vec!["0", "70", "300"]);

        let jobs = log.jobs_csv(|j| format!("waveform.{}", j.0));
        let (h, rows) = csvlite::parse(&jobs).unwrap();
        assert_eq!(h.len(), 6);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][2], "waveform");
        assert_eq!(rows[0][3], "0");
        assert_eq!(rows[0][4], "70");
        assert_eq!(rows[0][5], "130");
    }
}
