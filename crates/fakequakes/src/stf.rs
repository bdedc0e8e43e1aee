//! Source time functions (STFs): the normalised slip-rate histories that
//! spread each subfault's slip over its rise time.
//!
//! MudPy's kinematic synthesis uses Dreger-style exponential and cosine
//! STFs. We implement both plus a triangle; the cumulative form (needed for
//! displacement waveforms, which are what GNSS records) is available in
//! closed form for each.

/// Supported source-time-function shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StfKind {
    /// Dreger STF: `s(t) ∝ t·exp(-t/τ)`, a realistic asymmetric pulse.
    Dreger,
    /// Cosine bell over the rise time.
    Cosine,
    /// Symmetric triangle over the rise time.
    Triangle,
}

impl StfKind {
    /// Normalised cumulative STF: fraction of the final slip completed at
    /// time `t` after onset, for a subfault with rise time `rise_s`.
    /// Returns 0 before onset, approaches 1 well after `rise_s`.
    pub fn cumulative(self, t: f64, rise_s: f64) -> f64 {
        if t <= 0.0 || rise_s <= 0.0 {
            return if t > 0.0 { 1.0 } else { 0.0 };
        }
        match self {
            StfKind::Dreger => {
                // s(t) = t e^{-t/tau}; integral = tau^2 (1 - e^{-t/tau}(1 + t/tau)).
                // tau chosen so that ~85% of moment is released within rise_s.
                let tau = rise_s / 3.0;
                let x = t / tau;
                1.0 - (-x).exp() * (1.0 + x)
            }
            StfKind::Cosine => {
                if t >= rise_s {
                    1.0
                } else {
                    0.5 - 0.5 * (std::f64::consts::PI * t / rise_s).cos()
                }
            }
            StfKind::Triangle => {
                let f = (t / rise_s).min(1.0);
                if f < 0.5 {
                    2.0 * f * f
                } else {
                    1.0 - 2.0 * (1.0 - f) * (1.0 - f)
                }
            }
        }
    }

    /// The lag after onset from which [`Self::cumulative`] returns exactly
    /// `1.0`: every lag `t > 0` with `t ≥ settled_after(rise_s)` gives
    /// `1.0` (for Dreger, while `t / τ` stays finite). Waveform synthesis
    /// adds the settled tail as a constant instead of evaluating the STF
    /// there.
    ///
    /// Cosine and Triangle finish at the rise time. Dreger's
    /// `1 − e^{-x}(1 + x)` (x = t/τ, τ = rise/3) rounds to exactly 1.0
    /// once `e^{-x}(1 + x)` falls to 2⁻⁵⁴, half the spacing of doubles
    /// below 1.0, which happens at x ≈ 41.17; 44 τ leaves a margin for
    /// rounding in `x` and `exp`. A NaN rise time never settles.
    pub fn settled_after(self, rise_s: f64) -> f64 {
        if rise_s.is_nan() {
            return f64::INFINITY;
        }
        match self {
            StfKind::Dreger => 44.0 * (rise_s / 3.0),
            StfKind::Cosine | StfKind::Triangle => rise_s,
        }
    }

    /// Instantaneous slip rate (derivative of [`Self::cumulative`]) —
    /// useful for velocity waveforms and tests.
    pub fn rate(self, t: f64, rise_s: f64) -> f64 {
        if t <= 0.0 || rise_s <= 0.0 {
            return 0.0;
        }
        match self {
            StfKind::Dreger => {
                let tau = rise_s / 3.0;
                let x = t / tau;
                x * (-x).exp() / tau
            }
            StfKind::Cosine => {
                if t >= rise_s {
                    0.0
                } else {
                    0.5 * std::f64::consts::PI / rise_s * (std::f64::consts::PI * t / rise_s).sin()
                }
            }
            StfKind::Triangle => {
                let f = t / rise_s;
                if f >= 1.0 {
                    0.0
                } else if f < 0.5 {
                    4.0 * f / rise_s
                } else {
                    4.0 * (1.0 - f) / rise_s
                }
            }
        }
    }

    /// Label used in configuration files.
    pub fn label(self) -> &'static str {
        match self {
            StfKind::Dreger => "dreger",
            StfKind::Cosine => "cosine",
            StfKind::Triangle => "triangle",
        }
    }

    /// Parse a configuration label.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "dreger" => Some(StfKind::Dreger),
            "cosine" => Some(StfKind::Cosine),
            "triangle" => Some(StfKind::Triangle),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KINDS: [StfKind; 3] = [StfKind::Dreger, StfKind::Cosine, StfKind::Triangle];

    #[test]
    fn cumulative_is_zero_before_onset() {
        for k in KINDS {
            assert_eq!(k.cumulative(0.0, 5.0), 0.0);
            assert_eq!(k.cumulative(-1.0, 5.0), 0.0);
        }
    }

    #[test]
    fn cumulative_reaches_one() {
        for k in KINDS {
            let v = k.cumulative(100.0, 5.0);
            assert!((v - 1.0).abs() < 1e-6, "{}: {v}", k.label());
        }
    }

    #[test]
    fn cumulative_monotone_nondecreasing() {
        for k in KINDS {
            let mut prev = 0.0;
            for i in 0..200 {
                let t = i as f64 * 0.1;
                let v = k.cumulative(t, 8.0);
                assert!(v + 1e-12 >= prev, "{} not monotone at t={t}", k.label());
                assert!((0.0..=1.0 + 1e-12).contains(&v));
                prev = v;
            }
        }
    }

    #[test]
    fn rate_integrates_to_cumulative() {
        for k in KINDS {
            let rise = 6.0;
            let dt = 1e-3;
            let mut acc = 0.0;
            for i in 0..((3.0 * rise / dt) as usize) {
                let t = i as f64 * dt;
                acc += k.rate(t + dt / 2.0, rise) * dt;
            }
            let cum = k.cumulative(3.0 * rise, rise);
            assert!(
                (acc - cum).abs() < 1e-3,
                "{}: integral {acc} vs cumulative {cum}",
                k.label()
            );
        }
    }

    #[test]
    fn zero_rise_time_is_a_step() {
        for k in KINDS {
            assert_eq!(k.cumulative(0.1, 0.0), 1.0);
            assert_eq!(k.cumulative(-0.1, 0.0), 0.0);
            assert_eq!(k.rate(0.1, 0.0), 0.0);
        }
    }

    #[test]
    fn labels_roundtrip() {
        for k in KINDS {
            assert_eq!(StfKind::parse(k.label()), Some(k));
        }
        assert_eq!(StfKind::parse("DREGER"), Some(StfKind::Dreger));
        assert_eq!(StfKind::parse("boxcar"), None);
    }

    #[test]
    fn cumulative_is_exactly_one_from_settled_after_on() {
        // Rise times over the rupture generator's [1, 30] s clamp; lags
        // as a 1-Hz record samples them (`k - t0` for onsets t0 with
        // eight fractional parts) out to 2,000 s, plus the bound itself.
        for k in KINDS {
            for r in 0..=580 {
                let rise = 1.0 + r as f64 * 0.05;
                let settled = k.settled_after(rise);
                assert_eq!(
                    k.cumulative(settled, rise),
                    1.0,
                    "{} rise {rise}",
                    k.label()
                );
                for j in 0..8 {
                    let t0 = j as f64 * 0.1371;
                    for s in 0..=2000 {
                        let t = s as f64 - t0;
                        if t >= settled && k.cumulative(t, rise) != 1.0 {
                            panic!("{} rise {rise} t {t}", k.label());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn settled_after_bounds_are_tight_and_nan_never_settles() {
        for k in KINDS {
            assert_eq!(k.settled_after(f64::NAN), f64::INFINITY, "{}", k.label());
        }
        for rise in [1.0, 7.5, 30.0] {
            let below = 0.999 * StfKind::Cosine.settled_after(rise);
            assert!(StfKind::Cosine.cumulative(below, rise) < 1.0);
            assert!(StfKind::Triangle.cumulative(below, rise) < 1.0);
            // Dreger is still short of 1.0 at 40 τ, inside the 44 τ bound.
            assert!(StfKind::Dreger.cumulative(40.0 * rise / 3.0, rise) < 1.0);
        }
    }

    #[test]
    fn dreger_releases_most_moment_within_rise_time() {
        let v = StfKind::Dreger.cumulative(5.0, 5.0);
        assert!(v > 0.75 && v < 0.95, "Dreger at t=rise: {v}");
    }
}
