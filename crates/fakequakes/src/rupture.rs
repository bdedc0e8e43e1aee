//! Rupture scenario generation — the A Phase's science payload.
//!
//! A `RuptureScenario` is one synthetic earthquake: a target magnitude, a
//! contiguous rupture patch on the fault mesh, a correlated stochastic slip
//! distribution rescaled to the target moment, a hypocentre, kinematic
//! onset times from a constant rupture velocity with stochastic
//! perturbation, and slip-dependent rise times. This mirrors the MudPy
//! `fakequakes` generator (Melgar et al. 2016; Melgar & Hayes 2019).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use std::sync::Arc;

use crate::error::{FqError, FqResult};
use crate::geometry::{moment_from_mw, mw_from_moment, FaultModel, ScalingLaw};
use crate::linalg::Matrix;
use crate::stochastic::{standard_normal, CorrelatedField, FactorCache, FieldMethod};
use crate::vonkarman::VonKarman;

/// How target magnitudes are drawn from `mw_range`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MagnitudeLaw {
    /// Uniform over the range (MudPy's default for scenario suites, so
    /// every magnitude bin gets equal training coverage).
    Uniform,
    /// Truncated Gutenberg–Richter with the given b-value: small events
    /// exponentially more frequent, the natural seismicity distribution.
    GutenbergRichter {
        /// b-value (global average ≈ 1.0).
        b: f64,
    },
}

impl MagnitudeLaw {
    /// Draw a magnitude in `[lo, hi]` from this law.
    pub fn sample(self, lo: f64, hi: f64, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        match self {
            MagnitudeLaw::Uniform => lo + u * (hi - lo),
            MagnitudeLaw::GutenbergRichter { b } => {
                if (hi - lo).abs() < 1e-12 || b.abs() < 1e-9 {
                    return lo + u * (hi - lo);
                }
                // Inverse CDF of the truncated exponential in magnitude.
                let flo = 10f64.powf(-b * lo);
                let fhi = 10f64.powf(-b * hi);
                -(flo - u * (flo - fhi)).log10() / b
            }
        }
    }
}

/// Configuration for the rupture generator; defaults follow the MudPy
/// repository defaults the paper says it uses.
#[derive(Debug, Clone)]
pub struct RuptureConfig {
    /// Inclusive target magnitude range from which each scenario draws.
    pub mw_range: (f64, f64),
    /// Distribution of target magnitudes over the range.
    pub magnitude_law: MagnitudeLaw,
    /// Hurst exponent of the von Kármán slip correlation.
    pub hurst: f64,
    /// Mean rupture velocity in km/s.
    pub rupture_velocity_kms: f64,
    /// Fractional standard deviation applied to per-subfault onset times.
    pub onset_jitter: f64,
    /// Scaling laws mapping magnitude to rupture dimensions.
    pub scaling: ScalingLaw,
    /// Lognormal sigma of the slip field (controls slip roughness).
    pub slip_sigma: f64,
    /// Covariance factorisation method.
    pub method: FieldMethod,
}

impl Default for RuptureConfig {
    fn default() -> Self {
        Self {
            mw_range: (7.5, 9.0),
            magnitude_law: MagnitudeLaw::Uniform,
            hurst: 0.75,
            rupture_velocity_kms: 2.8,
            onset_jitter: 0.1,
            scaling: ScalingLaw::default(),
            slip_sigma: 0.6,
            method: FieldMethod::Cholesky,
        }
    }
}

impl RuptureConfig {
    /// Validate the configuration.
    pub fn validate(&self) -> FqResult<()> {
        let (lo, hi) = self.mw_range;
        if !(6.0..=9.5).contains(&lo) || !(6.0..=9.5).contains(&hi) || lo > hi {
            return Err(FqError::Config(format!(
                "mw_range ({lo}, {hi}) must satisfy 6.0 <= lo <= hi <= 9.5"
            )));
        }
        if !(self.rupture_velocity_kms.is_finite() && self.rupture_velocity_kms > 0.0) {
            return Err(FqError::Config(
                "rupture velocity must be finite and positive".into(),
            ));
        }
        if !(self.onset_jitter.is_finite() && self.onset_jitter >= 0.0) {
            return Err(FqError::Config(
                "onset_jitter must be finite and non-negative".into(),
            ));
        }
        if !(self.hurst > 0.0 && self.hurst <= 1.0) {
            return Err(FqError::Config("hurst must be in (0, 1]".into()));
        }
        if !(self.slip_sigma.is_finite() && self.slip_sigma >= 0.0) {
            return Err(FqError::Config(
                "slip_sigma must be finite and non-negative".into(),
            ));
        }
        Ok(())
    }
}

/// One synthetic earthquake scenario.
#[derive(Debug, Clone)]
pub struct RuptureScenario {
    /// Scenario id within its batch.
    pub id: u64,
    /// Achieved moment magnitude (after slip rescaling; equals the target).
    pub mw: f64,
    /// Linear index of the hypocentral subfault.
    pub hypocenter_idx: usize,
    /// Per-subfault slip in metres; zero outside the rupture patch.
    pub slip_m: Vec<f64>,
    /// Per-subfault rupture onset time in seconds; `f64::INFINITY` outside
    /// the patch.
    pub onset_s: Vec<f64>,
    /// Per-subfault rise time in seconds; zero outside the patch.
    pub rise_time_s: Vec<f64>,
}

impl RuptureScenario {
    /// Seismic moment implied by the slip distribution (N·m). Uses the
    /// same fixed-order lane sum as the generator's rescaling step.
    pub fn moment(&self, fault: &FaultModel) -> f64 {
        let terms: Vec<f64> = fault
            .subfaults()
            .iter()
            .enumerate()
            .map(|(i, sf)| fault.rigidity_pa * sf.area_km2() * 1e6 * self.slip_m[i])
            .collect();
        crate::simd::lane_sum(&terms)
    }

    /// Indices of subfaults with non-zero slip.
    pub fn active_subfaults(&self) -> Vec<usize> {
        self.slip_m
            .iter()
            .enumerate()
            .filter(|(_, s)| **s > 0.0)
            .map(|(i, _)| i)
            .collect()
    }

    /// Peak slip in metres.
    pub fn peak_slip_m(&self) -> f64 {
        self.slip_m.iter().cloned().fold(0.0, f64::max)
    }

    /// Total rupture duration: latest onset plus its rise time.
    pub fn duration_s(&self) -> f64 {
        self.onset_s
            .iter()
            .zip(&self.rise_time_s)
            .filter(|(o, _)| o.is_finite())
            .map(|(o, r)| o + r)
            .fold(0.0, f64::max)
    }
}

/// Generator of stochastic rupture scenarios over a fault model. Holds the
/// factored correlated field so repeated draws amortise the factorisation —
/// the same recycling the FDW does with its `.npy` artifacts.
pub struct RuptureGenerator<'a> {
    fault: &'a FaultModel,
    config: RuptureConfig,
    field: Arc<CorrelatedField>,
    /// Strike/dip grid coordinates (km) of each subfault centre, used for
    /// rectangular patch selection.
    grid_km: Vec<(f64, f64)>,
}

impl<'a> RuptureGenerator<'a> {
    /// Build a generator, factoring the slip covariance once from the
    /// recycled subfault–subfault distance matrix.
    pub fn new(
        fault: &'a FaultModel,
        subfault_distances: &Matrix,
        config: RuptureConfig,
    ) -> FqResult<Self> {
        Self::build(fault, subfault_distances, config, None)
    }

    /// Like [`RuptureGenerator::new`], but the covariance factor is
    /// fetched from (or inserted into) `cache`, so repeated generator
    /// construction over the same mesh/kernel/method — e.g. one per grid
    /// job, or per batch in a replicated campaign — factorises once.
    pub fn new_cached(
        fault: &'a FaultModel,
        subfault_distances: &Matrix,
        config: RuptureConfig,
        cache: &FactorCache,
    ) -> FqResult<Self> {
        Self::build(fault, subfault_distances, config, Some(cache))
    }

    fn build(
        fault: &'a FaultModel,
        subfault_distances: &Matrix,
        config: RuptureConfig,
        cache: Option<&FactorCache>,
    ) -> FqResult<Self> {
        config.validate()?;
        if subfault_distances.rows() != fault.len() {
            return Err(FqError::Config(format!(
                "distance matrix rows ({}) != fault subfault count ({})",
                subfault_distances.rows(),
                fault.len()
            )));
        }
        // A mid-range magnitude sets the ensemble correlation lengths; per-
        // scenario patch selection then bounds the effective dimensions.
        let mid_mw = (config.mw_range.0 + config.mw_range.1) / 2.0;
        let kernel = VonKarman::for_rupture(
            config.scaling.length_km(mid_mw),
            config.scaling.width_km(mid_mw),
            config.hurst,
        );
        let field = match cache {
            Some(c) => c.get_or_build(fault.name(), subfault_distances, &kernel, config.method)?,
            None => Arc::new(CorrelatedField::from_distances(
                subfault_distances,
                &kernel,
                config.method,
            )?),
        };
        let grid_km = fault
            .subfaults()
            .iter()
            .map(|sf| {
                (
                    (sf.along_strike as f64 + 0.5) * sf.length_km,
                    (sf.down_dip as f64 + 0.5) * sf.width_km,
                )
            })
            .collect();
        Ok(Self {
            fault,
            config,
            field,
            grid_km,
        })
    }

    /// Borrow the generator configuration.
    pub fn config(&self) -> &RuptureConfig {
        &self.config
    }

    /// Generate one scenario deterministically from `(batch_seed, id)`.
    pub fn generate(&self, batch_seed: u64, id: u64) -> RuptureScenario {
        let mut rng = StdRng::seed_from_u64(batch_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ id);
        let (lo, hi) = self.config.mw_range;
        let mw = self.config.magnitude_law.sample(lo, hi, rng.gen::<f64>());

        // Target rupture dimensions from scaling laws, clipped to the mesh.
        let n = self.fault.len();
        let target_len = self.config.scaling.length_km(mw);
        let target_wid = self.config.scaling.width_km(mw);

        // Hypocentre: uniform over subfaults.
        let hypo = rng.gen_range(0..n);
        let (hx, hy) = self.grid_km[hypo];

        // Rupture patch: rectangle containing the hypocentre (positioned
        // randomly within it, as in FakeQuakes), shifted to stay inside
        // the mesh so edge clipping cannot shrink the area and force
        // unphysical slip amplitudes during moment rescaling.
        let sf0 = self.fault.subfault(0);
        let mesh_len = self.fault.n_strike() as f64 * sf0.length_km;
        let mesh_wid = self.fault.n_dip() as f64 * sf0.width_km;
        let len = target_len.min(mesh_len);
        let wid = target_wid.min(mesh_wid);
        let off_x = rng.gen::<f64>() * len;
        let off_y = rng.gen::<f64>() * wid;
        let x0 = (hx - off_x).clamp(0.0, mesh_len - len);
        let x1 = x0 + len;
        let y0 = (hy - off_y).clamp(0.0, mesh_wid - wid);
        let y1 = y0 + wid;

        let mut mask = vec![false; n];
        let mut any = false;
        for (m, &(x, y)) in mask.iter_mut().zip(&self.grid_km) {
            if x >= x0 && x <= x1 && y >= y0 && y <= y1 {
                *m = true;
                any = true;
            }
        }
        if !any {
            mask[hypo] = true;
        }

        // Correlated lognormal slip on the patch: only the patch's rows of
        // the field are drawn, since nothing reads the others.
        let z = self.field.sample_rows(&mut rng, &mask);
        let sigma = self.config.slip_sigma;
        let mut slip: Vec<f64> = (0..n)
            .map(|i| if mask[i] { (sigma * z[i]).exp() } else { 0.0 })
            .collect();

        // Taper slip toward patch edges to avoid unphysical slip cliffs.
        for i in 0..n {
            if !mask[i] {
                continue;
            }
            let (x, y) = self.grid_km[i];
            let tx = edge_taper((x - x0) / (x1 - x0).max(1e-9));
            let ty = edge_taper((y - y0) / (y1 - y0).max(1e-9));
            slip[i] *= tx * ty;
        }

        // Rescale to the exact target moment. Fixed-order lane sum so the
        // achieved moment is independent of how the mesh was produced.
        let m0_target = moment_from_mw(mw);
        let m0_terms: Vec<f64> = self
            .fault
            .subfaults()
            .iter()
            .enumerate()
            .map(|(i, sf)| self.fault.rigidity_pa * sf.area_km2() * 1e6 * slip[i])
            .collect();
        let m0 = crate::simd::lane_sum(&m0_terms);
        let scale = if m0 > 0.0 { m0_target / m0 } else { 0.0 };
        for s in &mut slip {
            *s *= scale;
        }

        // Onset times: distance from hypocentre over rupture velocity with
        // multiplicative jitter.
        let mut onset = vec![f64::INFINITY; n];
        for i in 0..n {
            if slip[i] <= 0.0 {
                continue;
            }
            let (x, y) = self.grid_km[i];
            let d = ((x - hx).powi(2) + (y - hy).powi(2)).sqrt();
            let jitter = 1.0 + self.config.onset_jitter * standard_normal(&mut rng);
            onset[i] = (d / self.config.rupture_velocity_kms * jitter.max(0.2)).max(0.0);
        }

        // Rise times: slip-dependent (t_r ∝ sqrt(slip), Graves & Pitarka).
        let rise: Vec<f64> = slip
            .iter()
            .map(|s| {
                if *s > 0.0 {
                    (2.0 * s.sqrt()).clamp(1.0, 30.0)
                } else {
                    0.0
                }
            })
            .collect();

        RuptureScenario {
            id,
            mw: mw_from_moment(m0_target),
            hypocenter_idx: hypo,
            slip_m: slip,
            onset_s: onset,
            rise_time_s: rise,
        }
    }
}

/// Cosine edge taper on [0,1]: 1 in the interior, smoothly to ~0.2 at edges.
fn edge_taper(f: f64) -> f64 {
    let f = f.clamp(0.0, 1.0);
    let edge = 0.15;
    if f < edge {
        0.2 + 0.8 * (0.5 - 0.5 * (std::f64::consts::PI * f / edge).cos())
    } else if f > 1.0 - edge {
        0.2 + 0.8 * (0.5 - 0.5 * (std::f64::consts::PI * (1.0 - f) / edge).cos())
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::DistanceMatrices;
    use crate::stations::{ChileanInput, StationNetwork};

    fn generator_fixture(fault: &FaultModel) -> RuptureGenerator<'_> {
        let net = StationNetwork::chilean_input(ChileanInput::Small, 1);
        let d = DistanceMatrices::compute(fault, &net);
        RuptureGenerator::new(fault, &d.subfault_to_subfault, RuptureConfig::default()).unwrap()
    }

    #[test]
    fn config_validation() {
        let mut c = RuptureConfig::default();
        assert!(c.validate().is_ok());
        c.mw_range = (8.0, 7.0);
        assert!(c.validate().is_err());
        c.mw_range = (5.0, 7.0);
        assert!(c.validate().is_err());
        c = RuptureConfig {
            rupture_velocity_kms: 0.0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn config_validation_rejects_zero_hurst() {
        // The error text promises (0, 1]; VonKarman would otherwise
        // clamp a zero exponent to 0.01 without a word.
        let c = RuptureConfig {
            hurst: 0.0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn config_validation_rejects_non_finite_rupture_velocity() {
        // NaN or +inf passed validation, and every onset became 0.0.
        for rupture_velocity_kms in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            let c = RuptureConfig {
                rupture_velocity_kms,
                ..Default::default()
            };
            assert!(c.validate().is_err(), "velocity {rupture_velocity_kms}");
        }
    }

    #[test]
    fn config_validation_rejects_nan_or_negative_onset_jitter() {
        // Jitter was never checked: NaN scaled every onset by 0.2.
        for onset_jitter in [f64::NAN, f64::INFINITY, -0.1] {
            let c = RuptureConfig {
                onset_jitter,
                ..Default::default()
            };
            assert!(c.validate().is_err(), "onset_jitter {onset_jitter}");
        }
        let exact = RuptureConfig {
            onset_jitter: 0.0,
            ..Default::default()
        };
        assert!(exact.validate().is_ok(), "zero jitter is exact onsets");
    }

    #[test]
    fn config_validation_rejects_nan_or_negative_slip_sigma() {
        // A NaN sigma passed validation and generated non-finite slip.
        for slip_sigma in [f64::NAN, f64::INFINITY, -0.1] {
            let c = RuptureConfig {
                slip_sigma,
                ..Default::default()
            };
            assert!(c.validate().is_err(), "slip_sigma {slip_sigma}");
        }
        let flat = RuptureConfig {
            slip_sigma: 0.0,
            ..Default::default()
        };
        assert!(flat.validate().is_ok(), "a zero sigma is a flat slip field");
    }

    #[test]
    fn mismatched_distance_matrix_rejected() {
        let fault = FaultModel::chilean_subduction(6, 4).unwrap();
        let wrong = Matrix::zeros(10, 10);
        assert!(RuptureGenerator::new(&fault, &wrong, RuptureConfig::default()).is_err());
    }

    #[test]
    fn moment_matches_target_magnitude() {
        let fault = FaultModel::chilean_subduction(16, 8).unwrap();
        let g = generator_fixture(&fault);
        for id in 0..5 {
            let r = g.generate(42, id);
            let m0 = r.moment(&fault);
            let mw = mw_from_moment(m0);
            assert!(
                (mw - r.mw).abs() < 1e-6,
                "scenario {id}: implied Mw {mw} vs target {}",
                r.mw
            );
            assert!((7.5..=9.0).contains(&r.mw));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let fault = FaultModel::chilean_subduction(10, 5).unwrap();
        let g = generator_fixture(&fault);
        let a = g.generate(7, 3);
        let b = g.generate(7, 3);
        assert_eq!(a.slip_m, b.slip_m);
        assert_eq!(a.onset_s, b.onset_s);
        let c = g.generate(7, 4);
        assert_ne!(a.slip_m, c.slip_m);
    }

    #[test]
    fn hypocenter_has_zero_onset_and_slip() {
        let fault = FaultModel::chilean_subduction(12, 6).unwrap();
        let g = generator_fixture(&fault);
        let r = g.generate(11, 0);
        assert!(r.slip_m[r.hypocenter_idx] > 0.0);
        assert!(r.onset_s[r.hypocenter_idx].abs() < 1e-9);
    }

    #[test]
    fn slip_nonnegative_and_patch_contiguous_bounds() {
        let fault = FaultModel::chilean_subduction(12, 6).unwrap();
        let g = generator_fixture(&fault);
        let r = g.generate(3, 9);
        for (i, s) in r.slip_m.iter().enumerate() {
            assert!(*s >= 0.0);
            if *s > 0.0 {
                assert!(r.onset_s[i].is_finite());
                assert!(r.rise_time_s[i] >= 1.0 && r.rise_time_s[i] <= 30.0);
            } else {
                assert!(r.onset_s[i].is_infinite());
                assert_eq!(r.rise_time_s[i], 0.0);
            }
        }
    }

    #[test]
    fn onsets_grow_with_distance_from_hypocenter() {
        let fault = FaultModel::chilean_subduction(20, 8).unwrap();
        let g = generator_fixture(&fault);
        let r = g.generate(5, 1);
        // Mean onset of far half must exceed mean onset of near half.
        let active = r.active_subfaults();
        if active.len() >= 8 {
            let hypo_sf = fault.subfault(r.hypocenter_idx);
            let mut with_d: Vec<(f64, f64)> = active
                .iter()
                .map(|&i| {
                    let sf = fault.subfault(i);
                    (sf.center.distance_3d_km(&hypo_sf.center), r.onset_s[i])
                })
                .collect();
            with_d.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            let half = with_d.len() / 2;
            let near: f64 = with_d[..half].iter().map(|p| p.1).sum::<f64>() / half as f64;
            let far: f64 =
                with_d[half..].iter().map(|p| p.1).sum::<f64>() / (with_d.len() - half) as f64;
            assert!(far > near, "far {far} <= near {near}");
        }
    }

    #[test]
    fn larger_magnitude_ruptures_bigger_patches() {
        let fault = FaultModel::chilean_subduction(24, 10).unwrap();
        let net = StationNetwork::chilean_input(ChileanInput::Small, 1);
        let d = DistanceMatrices::compute(&fault, &net);
        let small = RuptureGenerator::new(
            &fault,
            &d.subfault_to_subfault,
            RuptureConfig {
                mw_range: (7.5, 7.5),
                ..Default::default()
            },
        )
        .unwrap();
        let big = RuptureGenerator::new(
            &fault,
            &d.subfault_to_subfault,
            RuptureConfig {
                mw_range: (9.0, 9.0),
                ..Default::default()
            },
        )
        .unwrap();
        let avg = |g: &RuptureGenerator<'_>| -> f64 {
            (0..10)
                .map(|i| g.generate(2, i).active_subfaults().len() as f64)
                .sum::<f64>()
                / 10.0
        };
        assert!(avg(&big) > avg(&small) * 1.5);
    }

    #[test]
    fn duration_positive_and_finite() {
        let fault = FaultModel::chilean_subduction(16, 8).unwrap();
        let g = generator_fixture(&fault);
        let r = g.generate(8, 2);
        let d = r.duration_s();
        assert!(d.is_finite() && d > 0.0 && d < 600.0, "duration {d}");
    }

    #[test]
    fn gutenberg_richter_favors_small_magnitudes() {
        let fault = FaultModel::chilean_subduction(10, 5).unwrap();
        let net = StationNetwork::chilean_input(ChileanInput::Small, 1);
        let d = DistanceMatrices::compute(&fault, &net);
        let mk = |law| {
            RuptureGenerator::new(
                &fault,
                &d.subfault_to_subfault,
                RuptureConfig {
                    magnitude_law: law,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let uni = mk(MagnitudeLaw::Uniform);
        let gr = mk(MagnitudeLaw::GutenbergRichter { b: 1.0 });
        let mean =
            |g: &RuptureGenerator<'_>| (0..200).map(|i| g.generate(4, i).mw).sum::<f64>() / 200.0;
        let mu = mean(&uni);
        let mg = mean(&gr);
        assert!(
            mg < mu - 0.2,
            "GR mean {mg} should sit well below uniform mean {mu}"
        );
        // Both stay inside the configured range.
        for i in 0..50 {
            let mw = gr.generate(4, i).mw;
            assert!((7.5..=9.0).contains(&mw), "{mw}");
        }
    }

    #[test]
    fn magnitude_law_sampling_edge_cases() {
        let gr = MagnitudeLaw::GutenbergRichter { b: 1.0 };
        assert!((gr.sample(8.0, 8.0, 0.7) - 8.0).abs() < 1e-12);
        assert!((gr.sample(7.0, 9.0, 0.0) - 7.0).abs() < 1e-9);
        assert!((gr.sample(7.0, 9.0, 1.0) - 9.0).abs() < 1e-9);
        let degenerate = MagnitudeLaw::GutenbergRichter { b: 0.0 };
        assert!((degenerate.sample(7.0, 9.0, 0.5) - 8.0).abs() < 1e-12);
        assert!((MagnitudeLaw::Uniform.sample(7.0, 9.0, 0.5) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn capped_cache_draws_bit_identical_after_eviction() {
        // Satellite regression: a byte-budgeted cache must never change
        // the science. Generators built through a cache small enough to
        // thrash (every factor evicts its predecessor) draw the same
        // bits as generators built with no cache at all.
        let fault = FaultModel::chilean_subduction(8, 4).unwrap();
        let net = StationNetwork::chilean_input(ChileanInput::Small, 1);
        let d = DistanceMatrices::compute(&fault, &net);
        let cache = FactorCache::with_byte_budget(1); // evict-everything budget
        let configs = [
            RuptureConfig::default(),
            RuptureConfig {
                hurst: 0.5,
                ..Default::default()
            },
            RuptureConfig::default(), // back to the first (now evicted) key
        ];
        for cfg in configs {
            let cached =
                RuptureGenerator::new_cached(&fault, &d.subfault_to_subfault, cfg.clone(), &cache)
                    .unwrap();
            let fresh = RuptureGenerator::new(&fault, &d.subfault_to_subfault, cfg).unwrap();
            for id in 0..3 {
                let a = cached.generate(21, id);
                let b = fresh.generate(21, id);
                assert_eq!(a.slip_m, b.slip_m);
                assert_eq!(a.onset_s, b.onset_s);
                assert_eq!(a.rise_time_s, b.rise_time_s);
            }
        }
        let s = cache.stats();
        assert!(s.evictions >= 1, "budget of 1 byte must evict");
        assert_eq!(s.entries, 1, "thrashing cache holds only the last factor");
    }

    #[test]
    fn edge_taper_shape() {
        assert!((edge_taper(0.5) - 1.0).abs() < 1e-12);
        assert!(edge_taper(0.0) < 0.3);
        assert!(edge_taper(1.0) < 0.3);
        assert!(edge_taper(0.075) < edge_taper(0.15));
    }
}
