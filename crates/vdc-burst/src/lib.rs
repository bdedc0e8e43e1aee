//! # vdc-burst — the VDC cloud-bursting simulator
//!
//! Reimplementation of the Python bursting simulator of Adair et al.,
//! SC-W 2023 §3.1: replay a recorded DAGMan batch second by second,
//! offload jobs to simulated Virtual Data Collaboratory (VDC) resources
//! according to three OSG-tailored policies and the §6 future-work
//! elastic controller, and report instant throughput, runtime, VDC
//! utilisation and cost.
//!
//! * [`records`] — the two-CSV input format (batch times + per-job times),
//!   parseable from `htcsim` run reports;
//! * [`policy`] — Policy 1 (low throughput), Policy 2 (congested queue),
//!   Policy 3 (submission gaps), the elastic controller (VDC slots sized
//!   by feedback on windowed throughput), and the ≤30 % bursted-jobs cap;
//! * [`simulator`] — the per-second main loop with the paper's constant
//!   VDC job times (rupture 287 s, waveform 144 s) and one burst step for
//!   all four policies;
//! * [`report`] — the per-second throughput CSV and Fig. 5/6 sweep tables.
//!
//! ```
//! use vdc_burst::prelude::*;
//!
//! let batch = "submit_s,execute_s,terminate_s\n0,60,600\n";
//! let jobs = "job,owner,phase,submit_s,execute_s,terminate_s\n\
//!             0,0,waveform,0,60,600\n";
//! let input = BatchInput::from_csv(batch, jobs).unwrap();
//! let control = simulate(&input, &BurstPolicies::control()).unwrap();
//! assert_eq!(control.bursted_jobs, 0);
//! assert_eq!(control.runtime_secs, 600);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod policy;
pub mod records;
pub mod report;
pub mod simulator;

/// Glob import of the most-used types.
pub mod prelude {
    pub use crate::policy::{
        BurstPolicies, ElasticPolicy, QueueTimePolicy, SubmissionGapPolicy, ThroughputPolicy,
    };
    pub use crate::records::{BatchInput, BatchRecord, JobPhase, JobRecord, RecordError};
    pub use crate::report::{format_sweep_table, sweep_csv, throughput_csv, SweepRow};
    pub use crate::simulator::{simulate, vdc_duration_secs, BurstOutcome};
}
