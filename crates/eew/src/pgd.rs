//! Peak-ground-displacement (PGD) magnitude scaling — the EEW model class
//! the FDW's synthetic data trains.
//!
//! High-rate GNSS EEW (Ruhl et al. 2017; Melgar et al. 2015) estimates the
//! magnitude of an ongoing large earthquake from the regression
//!
//! ```text
//! log10(PGD_cm) = A + B·Mw + C·Mw·log10(R_km)
//! ```
//!
//! with R the hypocentral distance. Training the coefficients requires
//! many large-event records — rare in nature, which is exactly why the
//! paper generates synthetic catalogs. This module fits (A, B, C) by
//! ordinary least squares on FDW products and inverts the relation to
//! estimate Mw from observed PGDs.

use fakequakes::error::{FqError, FqResult};
use fakequakes::linalg::Matrix;

/// One training/evaluation observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PgdObservation {
    /// True (catalog) moment magnitude.
    pub mw: f64,
    /// Peak ground displacement, metres.
    pub pgd_m: f64,
    /// Hypocentral distance, km.
    pub distance_km: f64,
}

impl PgdObservation {
    fn log_pgd_cm(&self) -> f64 {
        (self.pgd_m * 100.0).max(1e-6).log10()
    }
}

/// A fitted PGD scaling law.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PgdScalingModel {
    /// Intercept A.
    pub a: f64,
    /// Magnitude slope B.
    pub b: f64,
    /// Distance-attenuation coefficient C (negative: PGD decays with R).
    pub c: f64,
}

impl PgdScalingModel {
    /// The published coefficients of Melgar et al. (2015), handy as a
    /// reference point and test oracle.
    pub const MELGAR_2015: PgdScalingModel = PgdScalingModel {
        a: -4.434,
        b: 1.047,
        c: -0.138,
    };

    /// Fit (A, B, C) by ordinary least squares over the observations.
    /// Needs at least 3 observations spanning more than one magnitude and
    /// distance.
    pub fn fit(observations: &[PgdObservation]) -> FqResult<Self> {
        if observations.len() < 3 {
            return Err(FqError::Config(format!(
                "need >= 3 observations to fit, got {}",
                observations.len()
            )));
        }
        // Design matrix rows: [1, Mw, Mw·log10(R)]; solve the normal
        // equations X^T X β = X^T y by Cholesky.
        let mut xtx = Matrix::zeros(3, 3);
        let mut xty = [0.0f64; 3];
        for o in observations {
            if o.pgd_m <= 0.0 || o.distance_km <= 0.0 {
                return Err(FqError::Config(
                    "observations need positive PGD and distance".into(),
                ));
            }
            let row = [1.0, o.mw, o.mw * o.distance_km.log10()];
            let y = o.log_pgd_cm();
            for i in 0..3 {
                for j in 0..3 {
                    xtx[(i, j)] += row[i] * row[j];
                }
                xty[i] += row[i] * y;
            }
        }
        let beta = xtx.solve_spd(&xty).map_err(|e| {
            FqError::Linalg(format!("normal equations singular (degenerate data): {e}"))
        })?;
        Ok(Self {
            a: beta[0],
            b: beta[1],
            c: beta[2],
        })
    }

    /// Predicted log10(PGD_cm) for a magnitude/distance pair.
    pub fn predict_log_pgd_cm(&self, mw: f64, distance_km: f64) -> f64 {
        self.a + self.b * mw + self.c * mw * distance_km.log10()
    }

    /// Predicted PGD in metres.
    pub fn predict_pgd_m(&self, mw: f64, distance_km: f64) -> f64 {
        10f64.powf(self.predict_log_pgd_cm(mw, distance_km)) / 100.0
    }

    /// Invert the scaling for one station: the Mw that explains an
    /// observed PGD at distance R. Returns None for a PGD or distance
    /// that is not finite and positive, and when the denominator
    /// degenerates (station at a distance where B + C·log10 R ≈ 0).
    pub fn estimate_mw_single(&self, pgd_m: f64, distance_km: f64) -> Option<f64> {
        let usable = |x: f64| x.is_finite() && x > 0.0;
        if !usable(pgd_m) || !usable(distance_km) {
            return None;
        }
        let denom = self.b + self.c * distance_km.log10();
        if denom.abs() < 1e-6 {
            return None;
        }
        let log_pgd = (pgd_m * 100.0).log10();
        Some((log_pgd - self.a) / denom)
    }

    /// Network magnitude estimate: the median of per-station estimates
    /// (median beats mean against the lognormal scatter of PGD).
    pub fn estimate_mw(&self, stations: &[(f64, f64)]) -> Option<f64> {
        let mut estimates: Vec<f64> = stations
            .iter()
            .filter_map(|(pgd, r)| self.estimate_mw_single(*pgd, *r))
            .collect();
        if estimates.is_empty() {
            return None;
        }
        estimates.sort_by(f64::total_cmp);
        Some(estimates[estimates.len() / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Observations generated exactly from a known model (no noise).
    fn synthetic_obs(model: &PgdScalingModel, n: usize, seed: u64) -> Vec<PgdObservation> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mw = 7.0 + rng.gen::<f64>() * 2.0;
                let r = 30.0 + rng.gen::<f64>() * 500.0;
                let pgd_m = model.predict_pgd_m(mw, r);
                PgdObservation {
                    mw,
                    pgd_m,
                    distance_km: r,
                }
            })
            .collect()
    }

    #[test]
    fn fit_recovers_exact_coefficients() {
        let truth = PgdScalingModel::MELGAR_2015;
        let obs = synthetic_obs(&truth, 200, 1);
        let fitted = PgdScalingModel::fit(&obs).unwrap();
        assert!((fitted.a - truth.a).abs() < 1e-6, "A {}", fitted.a);
        assert!((fitted.b - truth.b).abs() < 1e-6, "B {}", fitted.b);
        assert!((fitted.c - truth.c).abs() < 1e-6, "C {}", fitted.c);
    }

    #[test]
    fn fit_tolerates_noise() {
        let truth = PgdScalingModel::MELGAR_2015;
        let mut rng = StdRng::seed_from_u64(2);
        let obs: Vec<PgdObservation> = synthetic_obs(&truth, 500, 3)
            .into_iter()
            .map(|mut o| {
                // 20% multiplicative scatter.
                o.pgd_m *= (0.2 * (rng.gen::<f64>() - 0.5)).exp();
                o
            })
            .collect();
        let fitted = PgdScalingModel::fit(&obs).unwrap();
        assert!((fitted.b - truth.b).abs() < 0.1, "B {}", fitted.b);
        assert!((fitted.c - truth.c).abs() < 0.05, "C {}", fitted.c);
    }

    #[test]
    fn inversion_roundtrips() {
        let m = PgdScalingModel::MELGAR_2015;
        for mw in [7.2, 8.0, 8.8] {
            for r in [50.0, 150.0, 400.0] {
                let pgd = m.predict_pgd_m(mw, r);
                let est = m.estimate_mw_single(pgd, r).unwrap();
                assert!((est - mw).abs() < 1e-9, "Mw {mw} at {r} km -> {est}");
            }
        }
    }

    #[test]
    fn network_median_is_robust_to_one_outlier() {
        let m = PgdScalingModel::MELGAR_2015;
        let mw = 8.2;
        let mut obs: Vec<(f64, f64)> = [60.0, 120.0, 200.0, 320.0]
            .iter()
            .map(|r| (m.predict_pgd_m(mw, *r), *r))
            .collect();
        obs.push((5.0, 100.0)); // wildly wrong station
        let est = m.estimate_mw(&obs).unwrap();
        assert!((est - mw).abs() < 0.05, "network estimate {est}");
    }

    #[test]
    fn degenerate_inputs_rejected() {
        assert!(PgdScalingModel::fit(&[]).is_err());
        let one = PgdObservation {
            mw: 8.0,
            pgd_m: 0.1,
            distance_km: 100.0,
        };
        assert!(PgdScalingModel::fit(&[one, one]).is_err());
        // Identical rows make X^T X singular even with n >= 3; the solver's
        // jitter fallback may still produce a (meaningless) fit, so only
        // check it does not panic.
        let _ = PgdScalingModel::fit(&[one, one, one]);
        let m = PgdScalingModel::MELGAR_2015;
        assert!(m.estimate_mw_single(-1.0, 100.0).is_none());
        assert!(m.estimate_mw_single(0.1, 0.0).is_none());
        assert!(m.estimate_mw(&[]).is_none());
        assert!(PgdScalingModel::fit(
            &[PgdObservation {
                mw: 8.0,
                pgd_m: -0.1,
                distance_km: 100.0
            }; 3]
        )
        .is_err());
    }

    #[test]
    fn non_finite_observations_give_no_estimate() {
        let m = PgdScalingModel::MELGAR_2015;
        // A NaN station among finite ones drops out of the median instead
        // of panicking the sort.
        let finite = m.estimate_mw(&[(0.5, 100.0)]);
        assert!(finite.is_some());
        assert_eq!(
            m.estimate_mw(&[(f64::NAN, 80.0), (0.5, 100.0), (0.3, f64::NAN)]),
            finite
        );
        for (pgd, r) in [
            (f64::NAN, 100.0),
            (0.5, f64::NAN),
            (f64::INFINITY, 100.0),
            (0.5, f64::INFINITY),
        ] {
            assert!(m.estimate_mw_single(pgd, r).is_none(), "({pgd}, {r})");
        }
    }

    #[test]
    fn pgd_grows_with_magnitude_and_decays_with_distance() {
        let m = PgdScalingModel::MELGAR_2015;
        assert!(m.predict_pgd_m(8.5, 100.0) > m.predict_pgd_m(7.5, 100.0));
        assert!(m.predict_pgd_m(8.0, 50.0) > m.predict_pgd_m(8.0, 500.0));
        // Mw 8 at 100 km is on the order of decimetres.
        let pgd = m.predict_pgd_m(8.0, 100.0);
        assert!(pgd > 0.03 && pgd < 3.0, "pgd {pgd} m");
    }
}
