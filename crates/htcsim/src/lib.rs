//! # htcsim — a discrete-event simulator of an HTCondor-style HTC pool
//!
//! Substitute for the Open Science Pool (OSPool) substrate of Adair et
//! al., SC-W 2023. The production OSG cannot be embedded in a library, so
//! this crate reproduces the mechanisms that drive the paper's
//! observations:
//!
//! * **pilot (glidein) churn** — machines join and leave the pool,
//!   evicting jobs mid-flight ([`pool`]);
//! * **negotiation-cycle matchmaking with fair share** across submitters
//!   ([`cluster`]), which is what throttles concurrent DAGMans;
//! * **background contention** — a stochastic available-capacity process
//!   standing in for the rest of the pool's users ([`pool`]);
//! * **file staging through a Stash/OSDF-style site cache** ([`transfer`]);
//! * **deterministic fault injection** — transient/permanent exit codes,
//!   black-hole machines, transfer failures, holds and wall-time limits
//!   ([`fault`]), so retry and rescue machinery can be exercised;
//! * a **federated multi-pool layer** ([`federation`]) with pool-level
//!   fault domains (outage windows, network partitions, spot
//!   preemption), per-pool circuit breakers, an elastic cloud burst
//!   gate, and checkpoint/restart migration of displaced jobs;
//! * **HTCondor-style user logs** and the statistics the paper's shell
//!   scripts derive from them ([`userlog`]), exportable as the CSV pair
//!   the VDC bursting simulator consumes;
//! * a **single-machine baseline** runner ([`single`]) standing in for the
//!   paper's AWS comparison instance.
//!
//! Workloads plug in through [`cluster::WorkloadDriver`]; the `dagman`
//! crate implements DAGMan on top of it.
//!
//! ## Example: a 10-job bag of tasks
//!
//! ```
//! use htcsim::prelude::*;
//!
//! struct Bag(Vec<JobSpec>, usize, usize);
//! impl WorkloadDriver for Bag {
//!     fn poll(&mut self, _now: SimTime, events: &[JobEvent]) -> Vec<SubmitRequest> {
//!         self.1 += events.iter().filter(|e| e.kind == JobEventKind::Completed).count();
//!         std::mem::take(&mut self.0)
//!             .into_iter()
//!             .map(|spec| SubmitRequest { owner: OwnerId(0), spec })
//!             .collect()
//!     }
//!     fn is_done(&self) -> bool { self.0.is_empty() && self.1 >= self.2 }
//! }
//!
//! let jobs: Vec<JobSpec> = (0..10).map(|i| JobSpec::fixed(format!("j{i}"), 60.0)).collect();
//! let mut driver = Bag(jobs, 0, 10);
//! let report = Cluster::new(ClusterConfig::with_cache(), 42).run(&mut driver);
//! assert_eq!(report.completed, 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod condor_log;
pub mod csvlite;
pub mod des;
pub mod event;
pub mod fault;
pub mod federation;
pub mod job;
pub mod pool;
pub mod rand_util;
pub mod scenarios;
pub mod scoreboard;
pub mod service;
pub mod single;
pub mod time;
pub mod transfer;
pub mod userlog;

/// Glob import of the most-used types.
pub mod prelude {
    pub use crate::cluster::{Cluster, ClusterConfig, PoolSample, RunReport, WorkloadDriver};
    pub use crate::condor_log::{parse_condor_log, to_condor_log};
    pub use crate::des::{EngineReport, LaneModel, ShardedEngine, SynthConfig};
    pub use crate::event::{Event, EventKey, EventQueue, LaneId};
    pub use crate::fault::{FaultConfig, FaultPlan, HoldReason, PoolFaultConfig};
    pub use crate::federation::{
        Federation, FederationConfig, FederationStats, PoolClass, PoolId, PoolSpec,
    };
    pub use crate::job::{
        ExecModel, InputFile, JobEvent, JobEventKind, JobId, JobSpec, JobState, OwnerId,
        SubmitRequest,
    };
    pub use crate::pool::{MachineId, Pool, PoolConfig};
    pub use crate::scoreboard::{DefenseConfig, DefenseStats, Scoreboard};
    pub use crate::service::{ArtifactKind, DegradeMode, RejectReason, ServiceDetail, ShedReason};
    pub use crate::single::{SingleMachine, SingleRunReport};
    pub use crate::time::SimTime;
    pub use crate::transfer::{SiteId, StashCache};
    pub use crate::userlog::{JobTimes, UserLog};
}
