//! Batch ("catalog") generation: run the full FakeQuakes pipeline for many
//! scenarios on one machine, in parallel through [`crate::par`].
//!
//! This is the *live compute* path: what a single FDW job executes on an
//! OSG node, and what the single-machine AWS baseline in §3.1 of the paper
//! runs end-to-end. The grid experiments in `htcsim` model these costs in
//! simulated time; this module is the ground truth the cost model is
//! calibrated against.

use crate::distance::DistanceMatrices;
use crate::error::FqResult;
use crate::geometry::FaultModel;
use crate::greens::GfLibrary;
use crate::par;
use crate::rupture::{RuptureConfig, RuptureGenerator, RuptureScenario};
use crate::stations::StationNetwork;
use crate::stochastic::{field_stats, FactorCache};
use crate::waveform::{synthesize_all_stations, GnssWaveform, WaveformConfig};

/// Everything one batch produces: scenarios plus their waveforms.
#[derive(Debug)]
pub struct Catalog {
    /// Generated rupture scenarios.
    pub scenarios: Vec<RuptureScenario>,
    /// `waveforms[i]` holds the per-station records of `scenarios[i]`.
    pub waveforms: Vec<Vec<GnssWaveform>>,
}

/// Per-scenario summary row (the paper's Fig. 1 visualises these
/// products; the quickstart example prints them).
#[derive(Debug, Clone)]
pub struct ScenarioSummary {
    /// Scenario id.
    pub id: u64,
    /// Moment magnitude.
    pub mw: f64,
    /// Number of slipping subfaults.
    pub active_subfaults: usize,
    /// Peak slip, metres.
    pub peak_slip_m: f64,
    /// Mean slip over active subfaults, metres.
    pub mean_slip_m: f64,
    /// Rupture duration, seconds.
    pub duration_s: f64,
    /// Maximum peak ground displacement over stations, metres.
    pub max_pgd_m: f64,
}

impl Catalog {
    /// Number of scenarios in the catalog.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// True when the catalog holds no scenarios.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// Build per-scenario summary rows.
    pub fn summaries(&self) -> Vec<ScenarioSummary> {
        self.scenarios
            .iter()
            .zip(&self.waveforms)
            .map(|(sc, wfs)| {
                let active: Vec<f64> = sc.slip_m.iter().cloned().filter(|s| *s > 0.0).collect();
                let st = field_stats(&active);
                ScenarioSummary {
                    id: sc.id,
                    mw: sc.mw,
                    active_subfaults: active.len(),
                    peak_slip_m: sc.peak_slip_m(),
                    mean_slip_m: st.mean,
                    duration_s: sc.duration_s(),
                    max_pgd_m: wfs.iter().map(|w| w.pgd_m()).fold(0.0, f64::max),
                }
            })
            .collect()
    }
}

/// End-to-end generation of `n_scenarios` scenarios and their waveforms.
///
/// Reuses precomputed [`DistanceMatrices`] and [`GfLibrary`] when supplied
/// (the FDW recycling path); computes them otherwise (the cold-start path a
/// lone A-Phase matrix job performs).
#[allow(clippy::too_many_arguments)]
pub fn generate_catalog(
    fault: &FaultModel,
    network: &StationNetwork,
    distances: Option<DistanceMatrices>,
    gfs: Option<GfLibrary>,
    rupture_config: RuptureConfig,
    waveform_config: WaveformConfig,
    n_scenarios: u64,
    seed: u64,
) -> FqResult<Catalog> {
    let distances = distances.unwrap_or_else(|| DistanceMatrices::compute(fault, network));
    distances.check_compatible(fault, network)?;
    let gfs = match gfs {
        Some(g) => g,
        None => GfLibrary::compute(fault, network)?,
    };
    // Recycle the correlated-field factorisation across calls: batches on
    // the same mesh with the same correlation parameters skip the O(n³)
    // eigendecomposition/Cholesky entirely after the first build.
    let generator = RuptureGenerator::new_cached(
        fault,
        &distances.subfault_to_subfault,
        rupture_config,
        FactorCache::global(),
    )?;

    // Scenario generation is embarrassingly parallel — the property the
    // whole paper builds on. Each scenario is a pure function of its
    // index, so the ordered map is bitwise the sequential one.
    let scenarios: Vec<RuptureScenario> = par::map_indexed(n_scenarios as usize, 1, |id| {
        generator.generate(seed, id as u64)
    });

    let waveforms: Vec<Vec<GnssWaveform>> = par::map_indexed(scenarios.len(), 1, |i| {
        synthesize_all_stations(
            fault,
            &gfs,
            &distances.station_to_subfault,
            &scenarios[i],
            &waveform_config,
            seed,
        )
    })
    .into_iter()
    .collect::<FqResult<_>>()?;

    Ok(Catalog {
        scenarios,
        waveforms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::NoiseModel;
    use crate::stations::ChileanInput;

    fn quick_catalog(n: u64) -> Catalog {
        let fault = FaultModel::chilean_subduction(10, 5).unwrap();
        let net = StationNetwork::chilean_input(ChileanInput::Small, 1);
        generate_catalog(
            &fault,
            &net,
            None,
            None,
            RuptureConfig {
                mw_range: (7.8, 8.6),
                ..Default::default()
            },
            WaveformConfig {
                duration_s: 128.0,
                noise: NoiseModel::none(),
                ..Default::default()
            },
            n,
            77,
        )
        .unwrap()
    }

    #[test]
    fn catalog_has_requested_size() {
        let c = quick_catalog(4);
        assert_eq!(c.len(), 4);
        assert!(!c.is_empty());
        assert_eq!(c.waveforms.len(), 4);
        for wfs in &c.waveforms {
            assert_eq!(wfs.len(), 2); // two stations in the small input
        }
    }

    #[test]
    fn empty_catalog() {
        let c = quick_catalog(0);
        assert!(c.is_empty());
        assert!(c.summaries().is_empty());
    }

    #[test]
    fn summaries_are_physical() {
        let c = quick_catalog(3);
        for s in c.summaries() {
            assert!((7.8..=8.6).contains(&s.mw), "Mw {}", s.mw);
            assert!(s.active_subfaults > 0);
            assert!(s.peak_slip_m > 0.0);
            assert!(s.mean_slip_m > 0.0 && s.mean_slip_m <= s.peak_slip_m);
            assert!(s.duration_s > 0.0);
            assert!(s.max_pgd_m >= 0.0);
        }
    }

    #[test]
    fn recycled_artifacts_give_identical_results() {
        let fault = FaultModel::chilean_subduction(8, 4).unwrap();
        let net = StationNetwork::chilean_input(ChileanInput::Small, 2);
        let d = DistanceMatrices::compute(&fault, &net);
        let g = GfLibrary::compute(&fault, &net).unwrap();
        let cfg = RuptureConfig::default();
        let wcfg = WaveformConfig {
            duration_s: 64.0,
            noise: NoiseModel::none(),
            ..Default::default()
        };
        let cold = generate_catalog(&fault, &net, None, None, cfg.clone(), wcfg, 2, 5).unwrap();
        let warm = generate_catalog(&fault, &net, Some(d), Some(g), cfg, wcfg, 2, 5).unwrap();
        for (a, b) in cold.scenarios.iter().zip(&warm.scenarios) {
            assert_eq!(a.slip_m, b.slip_m);
        }
        for (a, b) in cold.waveforms.iter().zip(&warm.waveforms) {
            for (wa, wb) in a.iter().zip(b) {
                assert_eq!(wa.east_m, wb.east_m);
            }
        }
    }

    #[test]
    fn incompatible_recycled_artifacts_rejected() {
        let fault = FaultModel::chilean_subduction(8, 4).unwrap();
        let other = FaultModel::chilean_subduction(6, 4).unwrap();
        let net = StationNetwork::chilean_input(ChileanInput::Small, 2);
        let stale = DistanceMatrices::compute(&other, &net);
        let r = generate_catalog(
            &fault,
            &net,
            Some(stale),
            None,
            RuptureConfig::default(),
            WaveformConfig::default(),
            1,
            5,
        );
        assert!(r.is_err());
    }
}
