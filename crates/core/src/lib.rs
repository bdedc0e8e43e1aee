//! # fdw-core — the FakeQuakes DAGMan Workflow
//!
//! The primary contribution of Adair et al., SC-W 2023: a workflow tool
//! that parallelises MudPy/FakeQuakes earthquake simulation on
//! high-throughput computing infrastructure.
//!
//! * [`config`] — the single parameter file a user edits (§3);
//! * [`phases`] — the three-phase DAG builder (A: matrices + ruptures,
//!   B: Green's functions, C: waveforms; §3.0.1);
//! * [`calibration`] — job cost and artifact size models pinned to the
//!   paper's reported values;
//! * [`workflow`] — running one or many concurrent DAGMans on the
//!   simulated OSPool, replication, and the single-machine AWS baseline;
//! * [`stats`] — the paper's evaluation formulas, eqs. (1)–(4);
//! * [`live`] — the real science computation each job performs (the
//!   `fakequakes` crate), runnable end-to-end at laptop scale;
//! * [`chaos`] — the fault-injection campaign harness: run the FDW under a
//!   fault class, recover through the rescue-DAG round-trip, and prove the
//!   science products match the fault-free baseline;
//! * [`failover`] — the federated-failover ablation: the same campaign on
//!   the three-pool federation under pool-level faults, with the
//!   health-gated burst controller on vs off;
//! * [`service`] — the multi-tenant campaign front-end bridge: map the
//!   `fdw-service` layer's completed campaigns onto real rupture draws
//!   and prove the shared artifact store never changes the science;
//! * [`archive`] — output congregation and manifest labelling (§3).
//!
//! ```
//! use fdw_core::prelude::*;
//!
//! // Simulate a small FDW run on a modest pool.
//! let cfg = FdwConfig {
//!     n_waveforms: 32,
//!     station_input: StationInput::Chilean(fakequakes::stations::ChileanInput::Small),
//!     ..Default::default()
//! };
//! let out = run_fdw(&cfg, osg_cluster_config(), 1).unwrap();
//! assert_eq!(out.stats[0].completed as u64, cfg.total_jobs());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod archive;
pub mod calibration;
pub mod chaos;
pub mod config;
pub mod failover;
pub mod live;
pub mod phases;
pub mod service;
pub mod stats;
pub mod submit;
pub mod workflow;

/// Glob import of the most-used types.
pub mod prelude {
    pub use crate::archive::{ArchiveEntry, ArchiveManifest};
    pub use crate::chaos::{
        baseline_digest, chaos_cluster_config, run_chaos_campaign, run_chaos_campaign_with_obs,
        ChaosReport, FaultClass,
    };
    pub use crate::config::{FdwConfig, StationInput};
    pub use crate::failover::{federated_cluster_config, run_failover_campaign, FailoverReport};
    pub use crate::phases::{build_fdw_dag, split_waveforms};
    pub use crate::service::{
        run_service_campaign, science_digest, ScienceReport, ServiceCampaignReport,
    };
    pub use crate::stats::{
        avg_total_runtime, avg_total_throughput, concurrent_avg_runtime, concurrent_avg_throughput,
    };
    pub use crate::submit::{parse_submit_file, to_submit_file, workflow_files};
    pub use crate::workflow::{
        aws_baseline, osg_cluster_config, replicate_fdw, replicate_fdw_with_obs,
        run_concurrent_fdw, run_concurrent_fdw_with_obs, run_fdw, FdwOutcome, ReplicatedStats,
    };
    pub use fdw_obs::Obs;
}
