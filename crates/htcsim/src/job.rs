//! Job descriptions and lifecycle records — the simulator's analogue of
//! HTCondor submit description files and job ClassAds.

use crate::fault::HoldReason;
use crate::service::ServiceDetail;
use crate::time::SimTime;

/// Identifier of a submitted job, unique within one cluster run
/// (HTCondor's `ClusterId.ProcId` collapsed to one counter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

/// Identifier of a submitter (one DAGMan instance = one owner for
/// fair-share purposes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OwnerId(pub u32);

/// How a job's execution time is drawn when it lands on a slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExecModel {
    /// Fixed duration in seconds.
    Fixed(f64),
    /// Lognormal with the given median (seconds) and log-sigma — the
    /// canonical heavy-ish tail of real OSG jobs.
    LogNormalMedian {
        /// Median execution time in seconds.
        median_s: f64,
        /// Sigma of the underlying normal.
        sigma: f64,
    },
}

impl ExecModel {
    /// Sample a duration in seconds (>= 1).
    pub fn sample(&self, rng: &mut rand::rngs::StdRng) -> f64 {
        let raw = match self {
            ExecModel::Fixed(s) => *s,
            ExecModel::LogNormalMedian { median_s, sigma } => {
                crate::rand_util::lognormal_median(rng, *median_s, *sigma)
            }
        };
        raw.max(1.0)
    }

    /// The distribution's median in seconds (used by capacity planning).
    pub fn median_s(&self) -> f64 {
        match self {
            ExecModel::Fixed(s) => *s,
            ExecModel::LogNormalMedian { median_s, .. } => *median_s,
        }
    }
}

/// A named input file a job must stage in before executing. Files with the
/// same name are identical across jobs (the FDW's recycled `.npy` and
/// `.mseed` artifacts), which is what makes the Stash cache effective.
#[derive(Debug, Clone, PartialEq)]
pub struct InputFile {
    /// Logical file name, e.g. `gf_chile_121.mseed`.
    pub name: String,
    /// Size in megabytes.
    pub size_mb: f64,
    /// Whether the file may be served from the Stash/OSDF cache.
    pub cacheable: bool,
}

/// The resources and behaviour of one job — the submit description file.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Human-readable label, e.g. `rupture.0042` (the DAG node name).
    pub name: String,
    /// CPU cores requested (FDW jobs request 4).
    pub cpus: u32,
    /// Memory requested, MB (FDW requests up to 16 GB dynamically).
    pub memory_mb: u32,
    /// Disk requested, MB.
    pub disk_mb: u32,
    /// Input files to stage in.
    pub inputs: Vec<InputFile>,
    /// Output size to stage out, MB.
    pub output_mb: f64,
    /// Execution-time model.
    pub exec: ExecModel,
    /// Allowed wall time in seconds; an execution attempt that would run
    /// longer is held then removed (HTCondor `periodic_hold` →
    /// `periodic_remove`). `0.0` disables the limit.
    pub timeout_s: f64,
}

impl JobSpec {
    /// A minimal 4-core job with the given name and fixed runtime —
    /// convenient for tests.
    pub fn fixed(name: impl Into<String>, secs: f64) -> Self {
        Self {
            name: name.into(),
            cpus: 4,
            memory_mb: 8192,
            disk_mb: 8192,
            inputs: Vec::new(),
            output_mb: 10.0,
            exec: ExecModel::Fixed(secs),
            timeout_s: 0.0,
        }
    }

    /// Total input megabytes.
    pub fn total_input_mb(&self) -> f64 {
        self.inputs.iter().map(|f| f.size_mb).sum()
    }
}

/// A request handed to the cluster by a workload driver.
#[derive(Debug, Clone)]
pub struct SubmitRequest {
    /// Submitting owner (DAGMan).
    pub owner: OwnerId,
    /// The job to run.
    pub spec: JobSpec,
}

/// Job lifecycle states, mirroring the HTCondor job state machine at the
/// granularity the paper's scripts observe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// In the queue, waiting for a match.
    Idle,
    /// Staging input to the execute node.
    TransferringInput,
    /// Executing.
    Running,
    /// Staging output back.
    TransferringOutput,
    /// Finished successfully.
    Completed,
    /// Removed from the queue (e.g. bursted away by a policy).
    Removed,
    /// On hold; will be released back to Idle after the hold period.
    Held,
    /// Terminated with a non-zero exit code (terminal for this job;
    /// whether the *node* retries is DAGMan's decision).
    Failed,
}

/// Events reported to workload drivers and recorded in the user log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobEventKind {
    /// Job entered the queue.
    Submitted,
    /// Job matched a slot and began input transfer.
    Matched,
    /// Job began executing.
    ExecuteStarted,
    /// Job was evicted from a dying glidein.
    Evicted,
    /// Job finished and its output is back.
    Completed,
    /// Job was removed from the queue without completing.
    Removed,
    /// Job terminated with a non-zero exit code (ULOG 005 with a
    /// non-zero return value).
    Failed,
    /// Job was put on hold (ULOG 012).
    Held,
    /// Job was released from hold back to the idle queue (ULOG 013).
    Released,
    /// Job was killed by spot reclamation in the cloud pool; it returns
    /// to Idle (resuming from its checkpoint when one exists).
    Preempted,
    /// Job was displaced by a whole-pool outage window; it returns to
    /// Idle like an eviction, but the cause is the pool fault domain.
    PoolOutage,
    /// Job's transfer stalled on a network partition between its pool
    /// and the submit node.
    PartitionStalled,
    /// A displaced job restarted in a different pool than its last
    /// attempt (the federation's drain-and-migrate path).
    Migrated,
    /// Service layer: a campaign request passed admission control
    /// (quota, queue depth and breaker checks) and entered its tenant's
    /// queue.
    ServiceAdmitted,
    /// Service layer: admission control refused the request; the
    /// event carries a typed [`crate::service::RejectReason`].
    ServiceRejected,
    /// Service layer: an admitted request was dropped by the load
    /// shedder; the event carries a typed [`crate::service::ShedReason`].
    ServiceShed,
    /// Service layer: the campaign was started in a degraded mode under
    /// overload; the event carries a [`crate::service::DegradeMode`].
    ServiceDegraded,
    /// Service layer: a campaign artifact was served from the shared
    /// content-addressed store instead of being recomputed.
    ArtifactHit,
    /// Service layer: a stored artifact failed its verify-on-read
    /// checksum and was quarantined (evicted and recomputed).
    ArtifactQuarantined,
}

impl JobEventKind {
    /// Does this event end an execution attempt that an
    /// [`JobEventKind::ExecuteStarted`] opened? True for completion,
    /// failure, eviction, hold, removal (`condor_rm` of a running job,
    /// e.g. a speculative loser), preemption and pool outage.
    pub fn ends_execution(self) -> bool {
        matches!(
            self,
            JobEventKind::Completed
                | JobEventKind::Evicted
                | JobEventKind::Failed
                | JobEventKind::Held
                | JobEventKind::Removed
                | JobEventKind::Preempted
                | JobEventKind::PoolOutage
        )
    }
}

/// One timestamped job event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobEvent {
    /// Time of the event.
    pub time: SimTime,
    /// The job this event concerns.
    pub job: JobId,
    /// Owning submitter.
    pub owner: OwnerId,
    /// What happened.
    pub kind: JobEventKind,
    /// Exit code, for terminated jobs: `Some(0)` on [`JobEventKind::Completed`],
    /// the failing code on [`JobEventKind::Failed`], `None` elsewhere.
    pub exit_code: Option<i32>,
    /// Hold reason, on [`JobEventKind::Held`] events.
    pub hold_reason: Option<HoldReason>,
    /// Destination pool index, on [`JobEventKind::Migrated`] events.
    pub pool: Option<u32>,
    /// Typed service-layer payload, on the `Service*`/`Artifact*` events.
    pub service: Option<ServiceDetail>,
}

impl JobEvent {
    /// An event with no exit code or hold reason attached.
    pub fn new(time: SimTime, job: JobId, owner: OwnerId, kind: JobEventKind) -> Self {
        JobEvent {
            time,
            job,
            owner,
            kind,
            exit_code: None,
            hold_reason: None,
            pool: None,
            service: None,
        }
    }

    /// Attach an exit code (005 events).
    pub fn with_exit(mut self, code: i32) -> Self {
        self.exit_code = Some(code);
        self
    }

    /// Attach a hold reason (012 events).
    pub fn with_hold(mut self, reason: HoldReason) -> Self {
        self.hold_reason = Some(reason);
        self
    }

    /// Attach the destination pool (migration events).
    pub fn with_pool(mut self, pool: u32) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Attach a typed service-layer payload (033–038 events).
    pub fn with_service(mut self, detail: ServiceDetail) -> Self {
        self.service = Some(detail);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fixed_exec_model_samples_exactly() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = ExecModel::Fixed(150.0);
        assert_eq!(m.sample(&mut rng), 150.0);
        assert_eq!(m.median_s(), 150.0);
    }

    #[test]
    fn exec_sample_floor_is_one_second() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(ExecModel::Fixed(0.01).sample(&mut rng), 1.0);
    }

    #[test]
    fn lognormal_median_accessor() {
        let m = ExecModel::LogNormalMedian {
            median_s: 900.0,
            sigma: 0.25,
        };
        assert_eq!(m.median_s(), 900.0);
        let mut rng = StdRng::seed_from_u64(2);
        let mut xs: Vec<f64> = (0..10_001).map(|_| m.sample(&mut rng)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((xs[xs.len() / 2] / 900.0 - 1.0).abs() < 0.06);
    }

    #[test]
    fn jobspec_fixed_helper() {
        let j = JobSpec::fixed("rupture.0", 60.0);
        assert_eq!(j.cpus, 4);
        assert_eq!(j.total_input_mb(), 0.0);
        assert_eq!(j.exec.median_s(), 60.0);
    }

    #[test]
    fn event_builders_attach_metadata() {
        let base = JobEvent::new(SimTime(5), JobId(1), OwnerId(0), JobEventKind::Completed);
        assert_eq!(base.exit_code, None);
        assert_eq!(base.with_exit(0).exit_code, Some(0));
        let held = JobEvent::new(SimTime(9), JobId(2), OwnerId(0), JobEventKind::Held)
            .with_hold(HoldReason::PolicyHold);
        assert_eq!(held.hold_reason, Some(HoldReason::PolicyHold));
    }

    #[test]
    fn total_input_mb_sums() {
        let mut j = JobSpec::fixed("w", 1.0);
        j.inputs.push(InputFile {
            name: "a.npy".into(),
            size_mb: 100.0,
            cacheable: true,
        });
        j.inputs.push(InputFile {
            name: "b.mseed".into(),
            size_mb: 900.0,
            cacheable: true,
        });
        assert_eq!(j.total_input_mb(), 1000.0);
    }
}
