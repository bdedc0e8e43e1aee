//! # fakequakes — stochastic earthquake rupture & synthetic GNSS waveforms
//!
//! A from-scratch Rust implementation of the science payload of MudPy's
//! *FakeQuakes* module (Melgar et al. 2016), the simulation framework the
//! FakeQuakes DAGMan Workflow (FDW) parallelises in Adair et al., SC-W
//! 2023. It provides everything the three workflow phases compute:
//!
//! * **A Phase** — recyclable distance matrices ([`distance`], serialised
//!   as `.npy` via [`npy`]) and stochastic rupture scenarios
//!   ([`rupture`]): von Kármán-correlated slip ([`vonkarman`],
//!   [`stochastic`]) on a Slab2-like Chilean subduction mesh
//!   ([`geometry`]), moment-rescaled to target magnitudes.
//! * **B Phase** — Green's function libraries ([`greens`], serialised as
//!   `.mseed` via [`mseed`]) for a GNSS station network ([`stations`]).
//! * **C Phase** — kinematic 3-component GNSS displacement waveforms
//!   ([`waveform`]) with realistic colored noise ([`noise`]) and
//!   source-time functions ([`stf`]).
//!
//! [`catalog`] runs the whole pipeline on one machine (Rayon-parallel),
//! which is both what an individual grid job executes and the
//! single-machine baseline the paper compares against.
//!
//! ## Quick example
//!
//! ```
//! use fakequakes::prelude::*;
//!
//! let fault = FaultModel::chilean_subduction(10, 5).unwrap();
//! let net = StationNetwork::chilean_input(ChileanInput::Small, 1);
//! let catalog = generate_catalog(
//!     &fault, &net, None, None,
//!     RuptureConfig::default(),
//!     WaveformConfig { duration_s: 64.0, ..Default::default() },
//!     2, 42,
//! ).unwrap();
//! assert_eq!(catalog.len(), 2);
//! assert!(catalog.summaries()[0].peak_slip_m > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifacts;
pub mod catalog;
pub mod distance;
pub mod error;
pub mod geo;
pub mod geometry;
pub mod greens;
pub mod linalg;
pub mod mseed;
pub mod noise;
pub mod npy;
pub mod okada;
pub mod par;
pub mod rupture;
pub mod simd;
pub mod spectra;
pub mod stations;
pub mod stf;
pub mod stochastic;
pub mod vonkarman;
pub mod waveform;

/// Convenient glob import of the most-used types.
pub mod prelude {
    pub use crate::catalog::{generate_catalog, Catalog, ScenarioSummary};
    pub use crate::distance::DistanceMatrices;
    pub use crate::error::{FqError, FqResult};
    pub use crate::geo::GeoPoint;
    pub use crate::geometry::{FaultModel, ScalingLaw, Subfault};
    pub use crate::greens::{GfLibrary, GfMethod};
    pub use crate::mseed::MseedFile;
    pub use crate::noise::NoiseModel;
    pub use crate::rupture::{MagnitudeLaw, RuptureConfig, RuptureGenerator, RuptureScenario};
    pub use crate::spectra::{amplitude_spectrum, spectral_summary, SpectralSummary};
    pub use crate::stations::{ChileanInput, Station, StationNetwork};
    pub use crate::stf::StfKind;
    pub use crate::stochastic::{FactorCache, FactorCacheStats, FieldMethod};
    pub use crate::waveform::{
        synthesize_all_stations, synthesize_station, GnssWaveform, WaveformConfig,
    };
}
