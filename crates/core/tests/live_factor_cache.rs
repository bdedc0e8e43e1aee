//! The live rupture path recycles its correlated-field factorisation
//! through the process-wide `FactorCache::global()`.
//!
//! This is the only test in its binary: the cache and its counters are
//! shared by the whole process, so a concurrent test that builds another
//! mesh would add misses to the window measured here.

use fakequakes::stations::ChileanInput;
use fakequakes::stochastic::FactorCache;
use fdw_core::config::{FdwConfig, StationInput};
use fdw_core::live::{build_inputs, live_matrix_phase, live_rupture_job};

#[test]
fn second_rupture_job_on_a_mesh_hits_the_factor_cache() {
    let cfg = FdwConfig {
        fault_nx: 10,
        fault_nd: 5,
        station_input: StationInput::Chilean(ChileanInput::Small),
        n_waveforms: 4,
        ruptures_per_job: 2,
        waveforms_per_job: 2,
        ..Default::default()
    };
    let inputs = build_inputs(&cfg).unwrap();
    let matrices = live_matrix_phase(&inputs);
    let first = live_rupture_job(&cfg, &inputs, &matrices, 0, 2).unwrap();
    let before = FactorCache::global().stats();
    let second = live_rupture_job(&cfg, &inputs, &matrices, 2, 2).unwrap();
    let after = FactorCache::global().stats();
    assert_eq!((first.len(), second.len()), (2, 2));
    assert!(
        after.hits > before.hits,
        "second rupture job should hit the factor cache: {before:?} -> {after:?}"
    );
    assert_eq!(
        after.misses, before.misses,
        "second rupture job must not factorise again"
    );
}
