//! Von Kármán spatial correlation for stochastic slip.
//!
//! FakeQuakes draws slip distributions from a Gaussian random field with a
//! von Kármán autocorrelation (Mai & Beroza 2002). The exact kernel uses
//! the modified Bessel function K_H; we implement K_H for the Hurst
//! exponents of interest via the standard small/large-argument expansions
//! of K_0 and K_1 plus linear blending in H, which is accurate to better
//! than 1 % over the argument range a correlation kernel ever sees — more
//! than adequate since the Hurst exponent itself is only known to ~0.1.

use crate::simd;

/// Parameters of a von Kármán correlation kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VonKarman {
    /// Correlation length along strike, km.
    pub a_strike_km: f64,
    /// Correlation length down dip, km.
    pub a_dip_km: f64,
    /// Hurst exponent `H` in (0, 1]; FakeQuakes default is 0.75.
    pub hurst: f64,
}

impl Default for VonKarman {
    fn default() -> Self {
        Self {
            a_strike_km: 30.0,
            a_dip_km: 15.0,
            hurst: 0.75,
        }
    }
}

impl VonKarman {
    /// Correlation lengths scaled to a rupture of the given dimensions,
    /// following the Melgar & Hayes (2019) regressions used in FakeQuakes:
    /// correlation lengths are a fixed fraction of rupture length/width.
    pub fn for_rupture(length_km: f64, width_km: f64, hurst: f64) -> Self {
        Self {
            a_strike_km: (0.17 * length_km).max(1.0),
            a_dip_km: (0.27 * width_km).max(1.0),
            hurst: hurst.clamp(0.01, 1.0),
        }
    }

    /// Isotropic-equivalent correlation at 3-D separation `r_km`,
    /// using the geometric mean of the two correlation lengths.
    ///
    /// `C(r) = G_H(r/a)` with `G_H(0) = 1`, monotonically decreasing.
    pub fn correlation(&self, r_km: f64) -> f64 {
        self.correlation_lanes([r_km])[0]
    }

    /// `L` isotropic correlations at once, through [`von_karman_lanes`]:
    /// the batch entry `assemble_covariance` feeds eight distances at a
    /// time. Lane `l` is bitwise equal to `self.correlation(r_km[l])`,
    /// which is the one-lane instantiation.
    pub(crate) fn correlation_lanes<const L: usize>(&self, r_km: [f64; L]) -> [f64; L] {
        let a = (self.a_strike_km * self.a_dip_km).sqrt();
        von_karman_lanes(r_km.map(|r| (r / a).max(0.0)), self.hurst)
    }

    /// Anisotropic correlation for separations expressed in the fault's
    /// strike/dip frame.
    pub fn correlation_anisotropic(&self, dr_strike_km: f64, dr_dip_km: f64) -> f64 {
        let x = ((dr_strike_km / self.a_strike_km).powi(2) + (dr_dip_km / self.a_dip_km).powi(2))
            .sqrt();
        von_karman_kernel(x, self.hurst)
    }
}

/// Normalised von Kármán kernel `G_H(x) = x^H K_H(x) / (2^{H-1} Γ(H))`,
/// with `G_H(0) = 1`.
///
/// The one-lane instantiation of [`von_karman_lanes`]: bitwise equal to
/// lane `l` of any wider instantiation by construction, because the
/// lane loop carries no cross-lane operations.
pub fn von_karman_kernel(x: f64, hurst: f64) -> f64 {
    von_karman_lanes([x], hurst)[0]
}

/// Generic-lane von Kármán kernel: `L` abscissae, one shared Hurst
/// exponent. Out-of-range abscissae (`x <= 0` maps to 1, `x > 60` to 0)
/// are substituted with a safe `x = 1` before the quadrature and patched
/// afterwards, so a mixed batch still runs every lane through the same
/// instruction stream.
pub fn von_karman_lanes<const L: usize>(xs: [f64; L], hurst: f64) -> [f64; L] {
    let h = hurst.clamp(0.01, 1.0);
    let mut safe = xs;
    for v in &mut safe {
        if *v <= 0.0 || *v > 60.0 {
            *v = 1.0;
        }
    }
    let kh = bessel_k_frac_lanes(h, safe);
    let norm = 2f64.powf(h - 1.0) * gamma(h);
    let mut out = [0.0; L];
    for l in 0..L {
        out[l] = if xs[l] <= 0.0 {
            1.0
        } else if xs[l] > 60.0 {
            0.0
        } else {
            (xs[l].powf(h) * kh[l] / norm).clamp(0.0, 1.0)
        };
    }
    out
}

/// Frozen pre-SIMD kernel on the libm quadrature
/// ([`bessel_k_fractional_libm`]); the `bench_snapshot` covariance
/// baseline and the cross-check anchor for the fq path.
pub fn von_karman_kernel_libm(x: f64, hurst: f64) -> f64 {
    if x <= 0.0 {
        return 1.0;
    }
    if x > 60.0 {
        return 0.0;
    }
    let h = hurst.clamp(0.01, 1.0);
    let kh = bessel_k_fractional_libm(h, x);
    let norm = 2f64.powf(h - 1.0) * gamma(h);
    (x.powf(h) * kh / norm).clamp(0.0, 1.0)
}

/// Lanczos approximation of the Gamma function for positive arguments.
pub fn gamma(x: f64) -> f64 {
    // Lanczos g=7, n=9 coefficients.
    const G: f64 = 7.0;
    const C: [f64; 9] = [
        0.999_999_999_999_81,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        std::f64::consts::PI / ((std::f64::consts::PI * x).sin() * gamma(1.0 - x))
    } else {
        let x = x - 1.0;
        let mut a = C[0];
        let t = x + G + 0.5;
        for (i, &c) in C.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        (2.0 * std::f64::consts::PI).sqrt() * t.powf(x + 0.5) * (-t).exp() * a
    }
}

/// Modified Bessel function of the second kind `K_0(x)`, x > 0.
/// Abramowitz & Stegun 9.8.5–9.8.8 polynomial approximations.
pub fn bessel_k0(x: f64) -> f64 {
    if x <= 2.0 {
        let t = x * x / 4.0;
        let i0 = bessel_i0(x);
        -((x / 2.0).ln()) * i0
            + (-0.577_215_66
                + t * (0.422_784_20
                    + t * (0.230_697_56
                        + t * (0.034_885_90
                            + t * (0.002_626_98 + t * (0.000_107_50 + t * 0.000_007_40))))))
    } else {
        let t = 2.0 / x;
        (x.exp()).recip() / x.sqrt()
            * (1.253_314_14
                + t * (-0.078_323_58
                    + t * (0.021_895_68
                        + t * (-0.010_624_46
                            + t * (0.005_878_72 + t * (-0.002_515_40 + t * 0.000_532_08))))))
    }
}

/// Modified Bessel function of the second kind `K_1(x)`, x > 0.
pub fn bessel_k1(x: f64) -> f64 {
    if x <= 2.0 {
        let t = x * x / 4.0;
        let i1 = bessel_i1(x);
        ((x / 2.0).ln()) * i1
            + (1.0 / x)
                * (1.0
                    + t * (0.154_431_44
                        + t * (-0.672_784_79
                            + t * (-0.181_568_97
                                + t * (-0.019_194_02
                                    + t * (-0.001_104_04 + t * (-0.000_046_86)))))))
    } else {
        let t = 2.0 / x;
        (x.exp()).recip() / x.sqrt()
            * (1.253_314_14
                + t * (0.234_986_19
                    + t * (-0.036_556_20
                        + t * (0.015_042_68
                            + t * (-0.007_803_53 + t * (0.003_256_14 + t * (-0.000_682_45)))))))
    }
}

/// Modified Bessel function of the first kind `I_0(x)`.
pub fn bessel_i0(x: f64) -> f64 {
    let ax = x.abs();
    if ax < 3.75 {
        let t = (x / 3.75) * (x / 3.75);
        1.0 + t
            * (3.515_622_9
                + t * (3.089_942_4
                    + t * (1.206_749_2 + t * (0.265_973_2 + t * (0.036_076_8 + t * 0.004_581_3)))))
    } else {
        let t = 3.75 / ax;
        (ax.exp() / ax.sqrt())
            * (0.398_942_28
                + t * (0.013_285_92
                    + t * (0.002_253_19
                        + t * (-0.001_575_65
                            + t * (0.009_162_81
                                + t * (-0.020_577_06
                                    + t * (0.026_355_37
                                        + t * (-0.016_476_33 + t * 0.003_923_77))))))))
    }
}

/// Modified Bessel function of the first kind `I_1(x)`.
pub fn bessel_i1(x: f64) -> f64 {
    let ax = x.abs();
    let ans = if ax < 3.75 {
        let t = (x / 3.75) * (x / 3.75);
        ax * (0.5
            + t * (0.878_905_94
                + t * (0.514_988_69
                    + t * (0.150_849_34
                        + t * (0.026_587_33 + t * (0.003_015_32 + t * 0.000_324_11))))))
    } else {
        let t = 3.75 / ax;
        let top = 0.398_942_28
            + t * (-0.039_880_24
                + t * (-0.003_620_18
                    + t * (0.001_638_01
                        + t * (-0.010_315_55
                            + t * (0.022_829_67
                                + t * (-0.028_953_12
                                    + t * (0.017_876_54 + t * (-0.004_200_59))))))));
        ax.exp() / ax.sqrt() * top
    };
    if x < 0.0 {
        -ans
    } else {
        ans
    }
}

/// Fractional-order `K_ν(x)` for `ν ∈ [0,1]`, via the integral
/// representation `K_ν(x) = ∫_0^∞ e^{-x cosh t} cosh(νt) dt` evaluated
/// with composite Simpson quadrature. Accurate to ~1e-8 relative over the
/// argument range a correlation kernel sees.
///
/// The one-lane instantiation of [`bessel_k_frac_lanes`] — the scalar
/// path and any wider batch compute identical bits per abscissa.
pub fn bessel_k_fractional(nu: f64, x: f64) -> f64 {
    bessel_k_frac_lanes(nu, [x])[0]
}

/// Simpson panel count of the `K_ν` quadrature (even, fixed).
const KNU_PANELS: usize = 400;

/// Generic-lane Simpson quadrature for `K_ν` (shared order `ν`, `L`
/// abscissae).
///
/// Three things make this the hot-path form (DESIGN.md §13):
///
/// 1. **No libm in the inner loop.** `cosh(i·h)` and `cosh(ν·i·h)` are
///    advanced by the stable three-term recurrence
///    `c_{i+1} = 2 cosh(h) · c_i − c_{i−1}`, so the only transcendental
///    per node is one [`simd::fq_exp`] — down from an exp and two coshes.
/// 2. **Lane-parallel evaluation.** All per-node work is an `l`-indexed
///    elementwise loop with no cross-lane data flow, which LLVM
///    autovectorizes at `L = 8` (two AVX2 vectors per loop-carried
///    chain) — and which guarantees the `L = 1` instantiation computes
///    bit-for-bit the lane-`l` value of the `L = 8` one.
/// 3. **Fixed accumulation order.** Per lane: `f(0)`, then the interior
///    nodes ascending with their Simpson weights, then the `t_max`
///    endpoint taken from the recurrence (not a fresh `cosh(t_max)`),
///    then the `h/3` scale. This order is canonical and
///    platform-independent.
///
/// Non-positive abscissae are substituted with `x = 1` and patched to
/// `K_ν(x ≤ 0) = ∞` afterwards.
pub fn bessel_k_frac_lanes<const L: usize>(nu: f64, xs: [f64; L]) -> [f64; L] {
    let nu = nu.clamp(0.0, 1.0);
    let mut x = xs;
    for v in &mut x {
        if *v <= 0.0 {
            *v = 1.0;
        }
    }
    // Integrand ~ e^{-x cosh t}; negligible once x(cosh t - 1) > 45.
    let mut h = [0.0; L];
    for l in 0..L {
        let b = 1.0 + 45.0 / x[l];
        h[l] = (b + (b * b - 1.0).sqrt()).ln() / KNU_PANELS as f64;
    }
    // Recurrence state: c tracks cosh(i h), d tracks cosh(nu i h).
    let mut two_ch = [0.0; L];
    let mut two_cnh = [0.0; L];
    let mut c_prev = [1.0; L];
    let mut c_cur = [0.0; L];
    let mut d_prev = [1.0; L];
    let mut d_cur = [0.0; L];
    let mut sum = [0.0; L];
    for l in 0..L {
        let ch = simd::fq_cosh(h[l]);
        let cnh = simd::fq_cosh(nu * h[l]);
        two_ch[l] = 2.0 * ch;
        two_cnh[l] = 2.0 * cnh;
        c_cur[l] = ch;
        d_cur[l] = cnh;
        sum[l] = simd::fq_exp(-x[l]); // f(0) = e^{-x cosh 0} cosh 0
    }
    for i in 1..KNU_PANELS {
        let w = if i % 2 == 1 { 4.0 } else { 2.0 };
        for l in 0..L {
            sum[l] += w * (simd::fq_exp(-(x[l] * c_cur[l])) * d_cur[l]);
            let c_next = two_ch[l] * c_cur[l] - c_prev[l];
            c_prev[l] = c_cur[l];
            c_cur[l] = c_next;
            let d_next = two_cnh[l] * d_cur[l] - d_prev[l];
            d_prev[l] = d_cur[l];
            d_cur[l] = d_next;
        }
    }
    let mut out = [0.0; L];
    for l in 0..L {
        let s = sum[l] + simd::fq_exp(-(x[l] * c_cur[l])) * d_cur[l];
        out[l] = if xs[l] <= 0.0 {
            f64::INFINITY
        } else {
            s * h[l] / 3.0
        };
    }
    out
}

/// The original libm Simpson quadrature for `K_ν`, frozen pre-SIMD: the
/// bench baseline and the accuracy cross-check for
/// [`bessel_k_fractional`]. Not used by any hot path.
pub fn bessel_k_fractional_libm(nu: f64, x: f64) -> f64 {
    let nu = nu.clamp(0.0, 1.0);
    if x <= 0.0 {
        return f64::INFINITY;
    }
    let t_max = ((1.0 + 45.0 / x) + ((1.0 + 45.0 / x).powi(2) - 1.0).sqrt()).ln();
    let n = KNU_PANELS;
    let h = t_max / n as f64;
    let f = |t: f64| (-(x * t.cosh())).exp() * (nu * t).cosh();
    let mut sum = f(0.0) + f(t_max);
    for i in 1..n {
        let w = if i % 2 == 1 { 4.0 } else { 2.0 };
        sum += w * f(i as f64 * h);
    }
    sum * h / 3.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, rel: f64) -> bool {
        (a - b).abs() <= rel * b.abs().max(1e-30)
    }

    #[test]
    fn gamma_known_values() {
        assert!(approx(gamma(1.0), 1.0, 1e-10));
        assert!(approx(gamma(2.0), 1.0, 1e-10));
        assert!(approx(gamma(5.0), 24.0, 1e-10));
        assert!(approx(gamma(0.5), std::f64::consts::PI.sqrt(), 1e-10));
        assert!(approx(gamma(1.5), 0.5 * std::f64::consts::PI.sqrt(), 1e-10));
    }

    #[test]
    fn bessel_k0_known_values() {
        // Reference values from A&S tables.
        assert!(approx(bessel_k0(0.1), 2.427_069, 1e-4));
        assert!(approx(bessel_k0(1.0), 0.421_024, 1e-4));
        assert!(approx(bessel_k0(2.0), 0.113_894, 1e-4));
        assert!(approx(bessel_k0(5.0), 3.691_1e-3, 1e-3));
    }

    #[test]
    fn bessel_k1_known_values() {
        assert!(approx(bessel_k1(0.1), 9.853_84, 1e-4));
        assert!(approx(bessel_k1(1.0), 0.601_907, 1e-4));
        assert!(approx(bessel_k1(2.0), 0.139_866, 1e-4));
        assert!(approx(bessel_k1(5.0), 4.044_6e-3, 1e-3));
    }

    #[test]
    fn kernel_is_one_at_zero() {
        for h in [0.25, 0.5, 0.75, 1.0] {
            assert_eq!(von_karman_kernel(0.0, h), 1.0);
        }
    }

    #[test]
    fn kernel_decreases_monotonically() {
        for h in [0.3, 0.75] {
            let mut prev = 1.0;
            for i in 1..100 {
                let x = i as f64 * 0.1;
                let v = von_karman_kernel(x, h);
                assert!(v <= prev + 1e-12, "kernel not monotone at x={x}, h={h}");
                assert!((0.0..=1.0).contains(&v));
                prev = v;
            }
        }
    }

    #[test]
    fn kernel_vanishes_at_large_distance() {
        assert_eq!(von_karman_kernel(100.0, 0.75), 0.0);
        assert!(von_karman_kernel(20.0, 0.75) < 1e-6);
    }

    #[test]
    fn exponential_limit_at_h_half() {
        // K_{1/2}(x) = sqrt(pi/(2x)) e^{-x}, so G_{1/2}(x) = e^{-x}.
        for x in [0.2, 0.5, 1.0, 2.0, 4.0] {
            let g = von_karman_kernel(x, 0.5);
            assert!(approx(g, (-x).exp(), 1e-4), "x={x}: {g} vs {}", (-x).exp());
        }
    }

    #[test]
    fn fractional_k_matches_integer_orders() {
        for x in [0.1, 0.5, 1.0, 2.0, 5.0] {
            assert!(approx(bessel_k_fractional(0.0, x), bessel_k0(x), 1e-4));
            assert!(approx(bessel_k_fractional(1.0, x), bessel_k1(x), 1e-4));
        }
        assert_eq!(bessel_k_fractional(0.5, 0.0), f64::INFINITY);
    }

    #[test]
    fn bessel_i0_i1_tabulated_values() {
        // I_0 / I_1 reference values (A&S tables / DLMF 10.25).
        // The A&S 9.8.1–9.8.4 polynomials carry ~2e-7 error.
        for (x, want) in [
            (0.1, 1.002_501_562_934_095_6),
            (0.5, 1.063_483_370_741_324),
            (1.0, 1.266_065_877_752_008_4),
            (2.0, 2.279_585_302_336_067_3),
            (5.0, 27.239_871_823_604_44),
        ] {
            assert!(approx(bessel_i0(x), want, 2e-6), "I0({x})");
        }
        for (x, want) in [
            (0.5, 0.257_894_305_390_896_1),
            (1.0, 0.565_159_103_992_485_1),
            (2.0, 1.590_636_854_637_329_3),
            (5.0, 24.335_642_142_450_53),
        ] {
            assert!(approx(bessel_i1(x), want, 2e-6), "I1({x})");
        }
    }

    #[test]
    fn bessel_k0_tabulated_values_tight() {
        // DLMF-grade references; the A&S polynomial is good to ~1e-7.
        for (x, want) in [
            (0.1, 2.427_069_024_702_017),
            (0.5, 0.924_419_071_227_666),
            (1.0, 0.421_024_438_240_708_4),
            (2.0, 0.113_893_872_749_533_5),
            (5.0, 3.691_098_334_042_594e-3),
        ] {
            assert!(approx(bessel_k0(x), want, 2e-6), "K0({x})");
        }
    }

    #[test]
    fn bessel_k_fractional_tabulated_values() {
        // K_{1/2}(x) = sqrt(pi/(2x)) e^{-x} exactly: pins the laned
        // quadrature (recurrence + fq_exp) to ~1e-7 against a closed
        // form, well past the quadrature's own design accuracy.
        for x in [0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0] {
            let exact = (std::f64::consts::PI / (2.0 * x)).sqrt() * (-x).exp();
            assert!(
                approx(bessel_k_fractional(0.5, x), exact, 1e-7),
                "K_1/2({x})"
            );
        }
        // Integer-order ends of the nu range against tabulated K0/K1.
        for (nu, x, want) in [
            (0.0, 0.5, 0.924_419_071_227_666),
            (0.0, 1.0, 0.421_024_438_240_708_4),
            (0.0, 2.0, 0.113_893_872_749_533_5),
            (1.0, 0.5, 1.656_441_120_003_301),
            (1.0, 1.0, 0.601_907_230_197_234_6),
            (1.0, 2.0, 0.139_865_881_816_522_6),
        ] {
            assert!(
                approx(bessel_k_fractional(nu, x), want, 1e-6),
                "K_{nu}({x})"
            );
        }
    }

    #[test]
    fn laned_quadrature_matches_scalar_bitwise() {
        // The 8-lane batch must compute exactly the scalar path per lane,
        // including out-of-range lanes mixed into the batch.
        for nu in [0.0, 0.25, 0.75, 1.0] {
            let xs = [0.3, 7.0, 0.001, 42.0, 0.0, 1.5, -2.0, 59.9];
            let batch = bessel_k_frac_lanes(nu, xs);
            for (l, x) in xs.into_iter().enumerate() {
                assert_eq!(
                    batch[l].to_bits(),
                    bessel_k_fractional(nu, x).to_bits(),
                    "nu={nu} lane {l}"
                );
            }
        }
        let mixed = [-1.0, 0.5, 61.0, 3.0, 0.0, 60.0, 1e-3, 1e9];
        let batch = von_karman_lanes(mixed, 0.75);
        for (l, x) in mixed.into_iter().enumerate() {
            assert_eq!(
                batch[l].to_bits(),
                von_karman_kernel(x, 0.75).to_bits(),
                "lane {l}"
            );
        }
        assert_eq!(batch[0], 1.0, "x <= 0 patches to 1");
        assert_eq!(batch[2], 0.0, "x > 60 patches to 0");
        assert_eq!(bessel_k_frac_lanes(0.5, [0.0; 8]), [f64::INFINITY; 8]);
    }

    #[test]
    fn fq_quadrature_cross_checks_libm_quadrature() {
        // Same Simpson rule, different exp/cosh evaluation: the two must
        // agree to the transcendental error budget (~1e-12), far inside
        // the quadrature's 1e-8 design accuracy.
        for nu in [0.0, 0.4, 0.75, 1.0] {
            for x in [0.05, 0.3, 1.0, 4.0, 20.0, 55.0] {
                let fq = bessel_k_fractional(nu, x);
                let libm = bessel_k_fractional_libm(nu, x);
                assert!(approx(fq, libm, 1e-10), "nu={nu} x={x}: {fq} vs {libm}");
            }
        }
        for x in [0.2, 1.0, 5.0, 30.0] {
            assert!(approx(
                von_karman_kernel(x, 0.75),
                von_karman_kernel_libm(x, 0.75),
                1e-10
            ));
        }
    }

    #[test]
    fn correlation_lanes_match_scalar_bitwise() {
        let vk = VonKarman::default();
        let rs = [0.0, 3.0, 12.5, 700.0, -4.0, 0.2, 48.0, 1270.0];
        let batch = vk.correlation_lanes(rs);
        for (l, r) in rs.into_iter().enumerate() {
            assert_eq!(batch[l].to_bits(), vk.correlation(r).to_bits(), "lane {l}");
        }
    }

    #[test]
    fn correlation_respects_anisotropy() {
        let vk = VonKarman {
            a_strike_km: 40.0,
            a_dip_km: 10.0,
            hurst: 0.75,
        };
        // Same physical distance decorrelates faster in the dip direction.
        let along = vk.correlation_anisotropic(20.0, 0.0);
        let down = vk.correlation_anisotropic(0.0, 20.0);
        assert!(along > down);
    }

    #[test]
    fn rupture_scaled_lengths() {
        let vk = VonKarman::for_rupture(200.0, 80.0, 0.75);
        assert!((vk.a_strike_km - 34.0).abs() < 1e-9);
        assert!((vk.a_dip_km - 21.6).abs() < 1e-9);
        // Degenerate ruptures still get a positive correlation length.
        let tiny = VonKarman::for_rupture(0.1, 0.1, 0.75);
        assert!(tiny.a_strike_km >= 1.0 && tiny.a_dip_km >= 1.0);
    }

    #[test]
    fn isotropic_correlation_at_zero_is_one() {
        let vk = VonKarman::default();
        assert_eq!(vk.correlation(0.0), 1.0);
        assert!(vk.correlation(5.0) < 1.0);
        assert!(vk.correlation(5.0) > vk.correlation(15.0));
    }
}
