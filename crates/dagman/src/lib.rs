//! # dagman — a DAG workflow engine on `htcsim`
//!
//! Substitute for HTCondor's DAGMan, at the fidelity the FDW paper
//! exercises: named job nodes with parent/child dependencies ([`dag`]),
//! a ready-set scheduler with `maxjobs`/`maxidle` throttles and retries
//! implemented as an [`htcsim::cluster::WorkloadDriver`] ([`driver`]),
//! concurrent multi-DAGMan submission for the paper's §4.2 experiment,
//! rescue-DAG generation and resumption ([`rescue`]), and the monitoring
//! statistics the paper derives from HTCondor logs ([`monitor`]).
//!
//! ```
//! use dagman::prelude::*;
//! use htcsim::prelude::*;
//!
//! // A two-node chain: rupture then waveform.
//! let mut dag = Dag::new();
//! let a = dag.add_node(JobSpec::fixed("rupture.0", 150.0)).unwrap();
//! let b = dag.add_node(JobSpec::fixed("waveform.0", 900.0)).unwrap();
//! dag.add_edge(a, b).unwrap();
//!
//! let mut dm = Dagman::new(dag, OwnerId(0));
//! let report = Cluster::new(ClusterConfig::with_cache(), 7).run(&mut dm);
//! assert_eq!(report.completed, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dag;
pub mod driver;
pub mod monitor;
pub mod rescue;

/// Glob import of the most-used types.
pub mod prelude {
    pub use crate::dag::{Dag, Node, NodeId, Throttles};
    pub use crate::driver::{Dagman, FailedNode, MultiDagman, NodeState};
    pub use crate::monitor::{
        instant_throughput_for, mean_sd, per_dagman_stats, running_for, DagmanStats, MeanSd,
    };
    pub use crate::rescue::{parse_rescue, rescue_file, resume, write_rescue_atomic};
}
