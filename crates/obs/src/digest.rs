//! The suite's one content digest: 64-bit FNV-1a and the word-wise folds
//! built on it.
//!
//! Every byte-identity claim in the workspace (science digests, DES
//! engine fingerprints, lane seeds, fault-plan draws, retry jitter, the
//! bench kernel digest) folds through these functions, so a recorded
//! digest is reproducible from this module alone. Three variants are in
//! use, and each caller keeps the one its pinned values were recorded
//! with:
//!
//! * [`fnv1a`] / [`fnv1a_f64`] — textbook byte-wise FNV-1a-64;
//! * [`fnv1a_word`] — one FNV step over a whole `u64` word;
//! * [`digest_fold`] — the DES engines' word step plus an xor-shift.
//!
//! The folds are tiny and sit on hot paths in other crates, so each is
//! `#[inline]`.

/// FNV-1a-64 offset basis: the initial state of a digest.
pub const DIGEST_INIT: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a-64 prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Byte-wise FNV-1a over `bytes`, continuing from state `h` (start a
/// fresh digest at [`DIGEST_INIT`]).
#[inline]
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Byte-wise FNV-1a over the little-endian bit patterns of `xs`: exact,
/// so any bitwise difference in the floats changes the digest.
#[inline]
pub fn fnv1a_f64(h: u64, xs: &[f64]) -> u64 {
    xs.iter()
        .fold(h, |h, x| fnv1a(h, &x.to_bits().to_le_bytes()))
}

/// One FNV-1a step over a whole word: `(h ^ x) · prime`.
#[inline]
pub fn fnv1a_word(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(FNV_PRIME)
}

/// The DES digest fold: an FNV-1a word step, then `h ^ (h >> 32)`. Lane
/// models fingerprint every handled event with it and the engines fold
/// lane digests in lane order, so the combined digest pins the full
/// execution history.
#[inline]
pub fn digest_fold(h: u64, x: u64) -> u64 {
    let h = fnv1a_word(h, x);
    h ^ (h >> 32)
}
