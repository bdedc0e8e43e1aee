//! Portable 4-wide f64 lanes and the canonical accumulation orders.
//!
//! The workspace forbids `unsafe`, so there are no intrinsics here: the
//! lane type is a plain `[f64; 4]` wrapper whose element-wise loops are
//! written in the fixed shape LLVM's autovectorizer reliably turns into
//! SIMD on any target. What this module pins down is not the instruction
//! selection but the **accumulation order** — the exact sequence of
//! floating-point additions every laned kernel performs — so that
//! results are bitwise invariant to `FDW_THREADS`, to cache-block sizes
//! and to the target CPU (DESIGN.md §13).
//!
//! Two canonical orders exist, each with a scalar reference twin used as
//! the bitwise oracle in tests and in-binary bench gates:
//!
//! * **Order A** (lane-parallel reduction, [`dot`] / [`lane_sum`]):
//!   independent lane accumulators walk ascending stripes, are folded
//!   pairwise into one quad, trailing full quads join ascending, one
//!   fixed horizontal sum `(s0 + s1) + (s2 + s3)`, then the `len % 4`
//!   remainder is added ascending ([`dot`] uses four accumulators over
//!   16-element stripes, [`lane_sum`] a single quad accumulator). Used
//!   by `matvec` and the `cholesky` prefix dots.
//! * **Order B** (in-place quad update, [`F64x4::horizontal_sum`] per
//!   quad): an output accumulator takes `o += (p0 + p1) + (p2 + p3)` for
//!   each ascending k-quad, remainder terms individually. Used by the
//!   blocked `matmul` microkernel, where every output element carries its
//!   own accumulator across the k loop.
//!
//! The transcendental helpers [`fq_exp`] / [`fq_cosh`] are branch-free
//! polynomial implementations with a fixed evaluation order, so laned
//! quadrature (eight abscissae at a time) computes bit-for-bit the same
//! value a one-lane call computes — something libm cannot promise across
//! glibc versions, let alone across lane positions.

use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub};

/// Lane width of the canonical accumulation order.
pub const LANES: usize = 4;

/// A 4-wide f64 vector: plain data, element-wise ops, no intrinsics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct F64x4(pub [f64; LANES]);

impl F64x4 {
    /// All four lanes set to `v`.
    #[inline]
    pub fn splat(v: f64) -> Self {
        Self([v; LANES])
    }

    /// Load the first four elements of `s` (panics if `s.len() < 4`).
    #[inline]
    pub fn from_slice(s: &[f64]) -> Self {
        Self([s[0], s[1], s[2], s[3]])
    }

    /// The lanes as a plain array.
    #[inline]
    pub fn to_array(self) -> [f64; LANES] {
        self.0
    }

    /// The canonical pairwise horizontal sum `(l0 + l1) + (l2 + l3)`.
    ///
    /// This exact association is the one both canonical orders use; it
    /// is *not* the same as `l0 + l1 + l2 + l3` in every rounding case,
    /// so all reductions in the suite must go through this helper.
    #[inline]
    pub fn horizontal_sum(self) -> f64 {
        (self.0[0] + self.0[1]) + (self.0[2] + self.0[3])
    }

    /// Element-wise [`fq_exp`].
    #[inline]
    pub fn exp(self) -> Self {
        let mut out = [0.0; LANES];
        for (o, x) in out.iter_mut().zip(self.0) {
            *o = fq_exp(x);
        }
        Self(out)
    }

    /// Element-wise square root.
    #[inline]
    pub fn sqrt(self) -> Self {
        let mut out = self.0;
        for o in &mut out {
            *o = o.sqrt();
        }
        Self(out)
    }
}

macro_rules! elementwise {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for F64x4 {
            type Output = F64x4;
            #[inline]
            #[allow(clippy::assign_op_pattern)] // `$op=` is not a single token here
            fn $method(self, rhs: F64x4) -> F64x4 {
                let mut out = self.0;
                for (o, r) in out.iter_mut().zip(rhs.0) {
                    *o = *o $op r;
                }
                F64x4(out)
            }
        }
    };
}

elementwise!(Add, add, +);
elementwise!(Sub, sub, -);
elementwise!(Mul, mul, *);
elementwise!(Div, div, /);

impl AddAssign for F64x4 {
    #[inline]
    fn add_assign(&mut self, rhs: F64x4) {
        for (o, r) in self.0.iter_mut().zip(rhs.0) {
            *o += r;
        }
    }
}

impl MulAssign for F64x4 {
    #[inline]
    fn mul_assign(&mut self, rhs: F64x4) {
        for (o, r) in self.0.iter_mut().zip(rhs.0) {
            *o *= r;
        }
    }
}

impl Neg for F64x4 {
    type Output = F64x4;
    #[inline]
    fn neg(self) -> F64x4 {
        let mut out = self.0;
        for o in &mut out {
            *o = -*o;
        }
        F64x4(out)
    }
}

/// Elements per dot-product stripe: four independent lane accumulators,
/// so the vector-add latency chain never gates throughput.
pub const STRIPE: usize = 4 * LANES;

/// Order-A dot product: the canonical laned inner product.
///
/// Four independent [`F64x4`] accumulators walk ascending 16-element
/// stripes (one quad each per stripe), are combined pairwise
/// `(acc0 + acc1) + (acc2 + acc3)` into one vector, which then absorbs
/// the remaining full quads ascending; a pairwise horizontal sum and the
/// scalar `len % 4` tail (ascending) finish the reduction. Bitwise equal
/// to [`dot_reference`] by construction, on every target — and four
/// parallel add chains deep, so an out-of-order core sustains close to
/// peak packed-double throughput.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    let stripes = n / STRIPE;
    if stripes == 0 {
        // Short-vector path: with no full stripe every accumulator is
        // still 0.0, so the general path's fold yields t = [0.0; 4] and
        // the result reduces to the quad loop + scalar tail below —
        // bitwise identical, minus the barrier spill.
        let mut t = [0.0f64; LANES];
        let mut i = 0;
        while i + LANES <= n {
            for l in 0..LANES {
                t[l] += a[i + l] * b[i + l];
            }
            i += LANES;
        }
        let mut s = (t[0] + t[1]) + (t[2] + t[3]);
        for j in i..n {
            s += a[j] * b[j];
        }
        return s;
    }
    // Flat 16-accumulator array (accumulator v, lane l at [v*4 + l]):
    // the plain indexed loop is the shape LLVM's loop vectorizer turns
    // into four packed-double streams.
    let mut acc = [0.0f64; STRIPE];
    for (qa, qb) in a[..stripes * STRIPE]
        .chunks_exact(STRIPE)
        .zip(b[..stripes * STRIPE].chunks_exact(STRIPE))
    {
        for l in 0..STRIPE {
            acc[l] += qa[l] * qb[l];
        }
    }
    // Opaque barrier between the accumulation loop and the horizontal
    // fold: without it LLVM's SLP vectorizer packs the accumulators in a
    // lane-transposed 128-bit layout to shave shuffles off the (cold)
    // fold, crippling the (hot) loop. black_box is the identity, so the
    // value — and the fixed summation order — is untouched.
    let acc = std::hint::black_box(acc);
    // Pairwise fold of the four accumulators into one quad, per lane.
    let mut t = [0.0f64; LANES];
    for l in 0..LANES {
        t[l] = (acc[l] + acc[LANES + l]) + (acc[2 * LANES + l] + acc[3 * LANES + l]);
    }
    let mut i = stripes * STRIPE;
    while i + LANES <= n {
        for l in 0..LANES {
            t[l] += a[i + l] * b[i + l];
        }
        i += LANES;
    }
    let mut s = (t[0] + t[1]) + (t[2] + t[3]);
    for j in i..n {
        s += a[j] * b[j];
    }
    s
}

/// Scalar reference twin of [`dot`]: the same order-A arithmetic written
/// without the lane type (sixteen scalar accumulators). The bitwise
/// oracle for every order-A kernel.
pub fn dot_reference(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = a.len();
    let striped = n / STRIPE * STRIPE;
    let mut c = [[0.0f64; LANES]; 4];
    let mut i = 0;
    while i < striped {
        for (v, acc) in c.iter_mut().enumerate() {
            for (l, s) in acc.iter_mut().enumerate() {
                let p = i + v * LANES + l;
                *s += a[p] * b[p];
            }
        }
        i += STRIPE;
    }
    let mut t = [0.0f64; LANES];
    for (l, s) in t.iter_mut().enumerate() {
        *s = (c[0][l] + c[1][l]) + (c[2][l] + c[3][l]);
    }
    while i + LANES <= n {
        for (l, s) in t.iter_mut().enumerate() {
            *s += a[i + l] * b[i + l];
        }
        i += LANES;
    }
    let mut s = (t[0] + t[1]) + (t[2] + t[3]);
    for j in i..n {
        s += a[j] * b[j];
    }
    s
}

/// Order-A sum: the canonical laned reduction of a slice.
///
/// The lint rule `naive-float-accum` steers fakequakes hot paths here:
/// a bare `.iter().sum::<f64>()` has an unpinned order the optimizer may
/// or may not reassociate, while this helper's order is part of the
/// suite's determinism contract.
#[inline]
pub fn lane_sum(xs: &[f64]) -> f64 {
    let mut acc = F64x4::splat(0.0);
    let quads = xs.len() / LANES;
    for q in 0..quads {
        let i = q * LANES;
        acc += F64x4::from_slice(&xs[i..i + LANES]);
    }
    let mut s = acc.horizontal_sum();
    for x in &xs[quads * LANES..] {
        s += x;
    }
    s
}

/// Scalar reference twin of [`lane_sum`] (order A, no lane type).
pub fn lane_sum_reference(xs: &[f64]) -> f64 {
    let n4 = xs.len() / LANES * LANES;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let mut i = 0;
    while i < n4 {
        s0 += xs[i];
        s1 += xs[i + 1];
        s2 += xs[i + 2];
        s3 += xs[i + 3];
        i += LANES;
    }
    let mut s = (s0 + s1) + (s2 + s3);
    for x in &xs[n4..] {
        s += x;
    }
    s
}

// exp(x) = 2^k * exp(r) with r = x - k*ln2 split Cody-Waite style so the
// reduction is exact in the leading bits. LN2_HI carries the top 33 bits
// of ln 2; LN2_LO the remainder.
const LOG2_E: f64 = std::f64::consts::LOG2_E;
const LN2_HI: f64 = 6.931_471_803_691_238e-1;
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;

/// Inverse factorials 1/0! .. 1/13! for the exp(r) Taylor polynomial.
/// |r| <= ln2/2 ~ 0.3466, so the r^14/14! truncation term is ~4e-18
/// relative — below the ~1e-13 accuracy target with margin.
const EXP_POLY: [f64; 14] = [
    1.0,
    1.0,
    0.5,
    1.0 / 6.0,
    1.0 / 24.0,
    1.0 / 120.0,
    1.0 / 720.0,
    1.0 / 5040.0,
    1.0 / 40320.0,
    1.0 / 362880.0,
    1.0 / 3628800.0,
    1.0 / 39916800.0,
    1.0 / 479001600.0,
    1.0 / 6227020800.0,
];

/// Round-to-nearest shifter: adding then subtracting 1.5 * 2^52 rounds
/// a |v| < 2^51 double to an integer, leaving that integer in the low
/// mantissa bits of the intermediate — the classic branch-free trick
/// that avoids the saturating `f64 as i64` cast (which LLVM will not
/// vectorize).
const SHIFTER: f64 = 6_755_399_441_055_744.0;

/// Branch-free portable `exp` with a fixed evaluation order.
///
/// Matches `f64::exp` to ~1e-13 relative over the finite range; the
/// value it computes is a pure function of the bit pattern of `x` — no
/// libm, no platform dispatch — so laned and scalar call sites agree
/// bitwise. Inputs beyond ±708 are clamped (the clamp range still maps
/// to 0-adjacent subnormal-free results: e^-708 ~ 3e-308); NaN
/// propagates. Every operation (clamp, shifter round, Horner, bit
/// assembly) is straight-line vectorizable code, so a laned caller
/// autovectorizes.
#[inline(always)]
pub fn fq_exp(x: f64) -> f64 {
    let x = x.clamp(-708.0, 708.0);
    let t = x * LOG2_E + SHIFTER;
    let k = t - SHIFTER; // nearest integer to x * log2(e)
    let r = (x - k * LN2_HI) - k * LN2_LO;
    // Estrin evaluation of the degree-13 Taylor polynomial: same terms
    // as Horner but a ~4-level dependency chain instead of 13, which is
    // what the out-of-order core needs to overlap quadrature nodes.
    let c = &EXP_POLY;
    let r2 = r * r;
    let r4 = r2 * r2;
    let r8 = r4 * r4;
    let q0 = (c[0] + c[1] * r) + (c[2] + c[3] * r) * r2;
    let q1 = (c[4] + c[5] * r) + (c[6] + c[7] * r) * r2;
    let q2 = (c[8] + c[9] * r) + (c[10] + c[11] * r) * r2;
    let q3 = c[12] + c[13] * r;
    let p = (q0 + q1 * r4) + (q2 + q3 * r4) * r8;
    // |k| <= round(708 * log2 e) = 1022. The shifter intermediate holds
    // 2^51 + k in its low mantissa bits; 2^51 is 0 mod 2^32, so the low
    // 32 bits are k two's-complement and the biased exponent k + 1023
    // lies in [1, 2045] — always a valid normal scale. NaN inputs have
    // a zero low word (qNaN), scale 2^0, and the NaN polynomial value
    // carries through.
    let k_i = t.to_bits() as u32 as i32;
    let scale = f64::from_bits((((k_i + 1023) as u32) as u64) << 52);
    p * scale
}

/// Portable `cosh` built on [`fq_exp`]: `(e^t + e^-t) / 2` evaluated as
/// `0.5 * (e + 1/e)` with a single exp call.
#[inline]
pub fn fq_cosh(t: f64) -> f64 {
    let e = fq_exp(t);
    0.5 * (e + 1.0 / e)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64) * 0.37 - 1.5).collect()
    }

    #[test]
    fn dot_matches_reference_bitwise_all_remainders() {
        for n in [
            0usize, 1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 20, 23, 31, 32, 33, 61, 240, 241, 243,
        ] {
            let a = ramp(n);
            let b: Vec<f64> = a.iter().map(|x| x * 1.7 + 0.3).collect();
            assert_eq!(
                dot(&a, &b).to_bits(),
                dot_reference(&a, &b).to_bits(),
                "n={n}"
            );
        }
    }

    #[test]
    fn lane_sum_matches_reference_bitwise_all_remainders() {
        for n in [0usize, 1, 2, 3, 4, 5, 7, 9, 240, 241, 242, 243] {
            let xs = ramp(n);
            assert_eq!(
                lane_sum(&xs).to_bits(),
                lane_sum_reference(&xs).to_bits(),
                "n={n}"
            );
        }
    }

    #[test]
    fn lane_sum_agrees_with_naive_sum_approximately() {
        let xs = ramp(1001);
        let naive: f64 = xs.iter().sum();
        let laned = lane_sum(&xs);
        assert!((laned - naive).abs() <= 1e-9 * naive.abs().max(1.0));
    }

    #[test]
    fn horizontal_sum_is_pairwise() {
        // A case where (a+b)+(c+d) != ((a+b)+c)+d in f64.
        let v = F64x4([1.0, 1e-16, 1e-16, -1.0]);
        let pairwise: f64 = (1.0 + 1e-16) + (1e-16 - 1.0);
        assert_eq!(v.horizontal_sum().to_bits(), pairwise.to_bits());
    }

    #[test]
    fn fq_exp_matches_std_exp() {
        let mut worst = 0.0f64;
        let mut x = -700.0;
        while x <= 700.0 {
            let got = fq_exp(x);
            let want = x.exp();
            let rel = ((got - want) / want).abs();
            worst = worst.max(rel);
            x += 0.618; // irrational-ish step avoids hitting only round k
        }
        assert!(worst < 1e-13, "worst rel err {worst:e}");
    }

    #[test]
    fn fq_exp_edge_cases() {
        assert_eq!(fq_exp(0.0), 1.0);
        assert!(fq_exp(f64::NAN).is_nan());
        assert!(fq_exp(-1e9) > 0.0, "clamped, not zero");
        assert!(fq_exp(-1e9) < 1e-300);
        assert!(fq_exp(1e9).is_finite());
        assert_eq!(fq_exp(f64::NEG_INFINITY), fq_exp(-708.0));
        assert_eq!(fq_exp(f64::INFINITY), fq_exp(708.0));
    }

    #[test]
    fn fq_cosh_matches_std_cosh() {
        let mut t = 0.0;
        while t <= 20.0 {
            let got = fq_cosh(t);
            let want = t.cosh();
            assert!(
                ((got - want) / want).abs() < 1e-13,
                "t={t} got={got} want={want}"
            );
            t += 0.1237;
        }
    }

    #[test]
    fn f64x4_ops_are_elementwise() {
        let a = F64x4([1.0, 2.0, 3.0, 4.0]);
        let b = F64x4([0.5, 0.25, 2.0, -1.0]);
        assert_eq!((a + b).to_array(), [1.5, 2.25, 5.0, 3.0]);
        assert_eq!((a - b).to_array(), [0.5, 1.75, 1.0, 5.0]);
        assert_eq!((a * b).to_array(), [0.5, 0.5, 6.0, -4.0]);
        assert_eq!((a / b).to_array(), [2.0, 8.0, 1.5, -4.0]);
        assert_eq!((-a).to_array(), [-1.0, -2.0, -3.0, -4.0]);
        let mut c = a;
        c += b;
        assert_eq!(c.to_array(), [1.5, 2.25, 5.0, 3.0]);
        let mut d = a;
        d *= b;
        assert_eq!(d.to_array(), [0.5, 0.5, 6.0, -4.0]);
        assert_eq!(F64x4::splat(2.0).sqrt().to_array()[0], 2.0f64.sqrt());
        assert_eq!(
            F64x4::from_slice(&[9.0, 8.0, 7.0, 6.0, 5.0]).to_array()[3],
            6.0
        );
        let e = F64x4::splat(1.5).exp();
        for l in e.to_array() {
            assert_eq!(l.to_bits(), fq_exp(1.5).to_bits());
        }
    }
}
