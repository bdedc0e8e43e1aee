//! Sampling helpers for the pool's stochastic processes.
//!
//! Kept dependency-light: only `rand`'s uniform source is used; the
//! exponential and lognormal transforms are implemented directly.

use rand::rngs::StdRng;
use rand::Rng;

/// Draw a standard normal via Box–Muller.
pub fn normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Draw an exponential with the given mean (inverse-CDF transform).
pub fn exponential(rng: &mut StdRng, mean: f64) -> f64 {
    let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    -mean * u.ln()
}

/// Draw a lognormal specified by its *median* and the sigma of the
/// underlying normal. Medians are how operators think about job runtimes
/// ("typically 15–20 minutes"), so this is the natural parameterisation.
pub fn lognormal_median(rng: &mut StdRng, median: f64, sigma: f64) -> f64 {
    median * (sigma * normal(rng)).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(12345)
    }

    #[test]
    fn normal_moments() {
        let mut r = rng();
        let xs: Vec<f64> = (0..20_000).map(|_| normal(&mut r)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut r = rng();
        let xs: Vec<f64> = (0..20_000).map(|_| exponential(&mut r, 42.0)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean / 42.0 - 1.0).abs() < 0.05, "mean {mean}");
        assert!(xs.iter().all(|x| *x >= 0.0));
    }

    #[test]
    fn lognormal_median_is_median() {
        let mut r = rng();
        let mut xs: Vec<f64> = (0..20_001)
            .map(|_| lognormal_median(&mut r, 900.0, 0.3))
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = xs[xs.len() / 2];
        assert!((med / 900.0 - 1.0).abs() < 0.05, "median {med}");
        assert!(xs.iter().all(|x| *x > 0.0));
    }

    #[test]
    fn lognormal_zero_sigma_is_constant() {
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(lognormal_median(&mut r, 100.0, 0.0), 100.0);
        }
    }
}
