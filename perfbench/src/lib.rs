//! The FDW benchmark's workloads, tracer and host probes.
//!
//! Each workload module offers the same three items: a `Size` (the full
//! benchmark shape and a tiny one for tests), `setup` (the work a workload
//! pays once before its run) and `pass` (one repetition of its run phase).
//! Everything is called through the repository's public API; no program
//! code is changed to measure it.

#![forbid(unsafe_code)]

pub mod burst;
pub mod grid;
pub mod host;
pub mod live;
pub mod service;
pub mod trace;

use std::panic::AssertUnwindSafe;

use htcsim::des::{digest_fold, DIGEST_INIT};

pub use trace::Tracer;

/// What one pass of a workload's run phase produced.
#[derive(Debug, Clone, PartialEq)]
pub struct PassOutput {
    /// Work units finished (the workload's own unit).
    pub units: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error, panicked or failed a gate.
    pub failed: u64,
    /// Fold of every output the workload's gate covers.
    pub digest: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Default for PassOutput {
    fn default() -> Self {
        Self {
            units: 0,
            attempted: 0,
            failed: 0,
            digest: DIGEST_INIT,
            errors: Vec::new(),
        }
    }
}

impl PassOutput {
    /// Account one operation's result: count it, and on failure keep its
    /// message.
    pub fn record<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    /// Account a failure of an operation already counted as attempted.
    pub fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(e);
        }
    }

    /// Fold one value into the digest.
    pub fn fold(&mut self, x: u64) {
        self.digest = digest_fold(self.digest, x);
    }
}

/// Run one operation, turning a panic into an error.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match std::panic::catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(p) => Err(match p.downcast_ref::<&str>() {
            Some(s) => format!("panic: {s}"),
            None => match p.downcast_ref::<String>() {
                Some(s) => format!("panic: {s}"),
                None => "panic".to_string(),
            },
        }),
    }
}

/// Fold a byte string into a digest, eight bytes at a time, then its
/// length.
pub fn fold_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = digest_fold(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    h = digest_fold(h, u64::from_le_bytes(tail));
    digest_fold(h, bytes.len() as u64)
}

/// Fold the bit patterns of a float slice into a digest.
pub fn fold_f64s(mut h: u64, xs: &[f64]) -> u64 {
    for x in xs {
        h = digest_fold(h, x.to_bits());
    }
    digest_fold(h, xs.len() as u64)
}

/// The `k`-th input seed derived from the workload seed (splitmix64), so
/// the program sees only seeds generated from the benchmark's argument.
pub fn derive_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(k.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    // Keep seeds small and non-zero: some generators treat 0 specially.
    (z ^ (z >> 31)) % 1_000_000_007 + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guarded_turns_panics_into_errors() {
        let r: Result<(), String> = guarded(|| panic!("bad {}", 1));
        assert_eq!(r, Err("panic: bad 1".to_string()));
        assert_eq!(guarded(|| Ok::<_, String>(3)), Ok(3));
    }

    #[test]
    fn byte_fold_sees_every_byte_and_the_length() {
        let a = fold_bytes(DIGEST_INIT, b"abcdefghij");
        assert_ne!(a, fold_bytes(DIGEST_INIT, b"abcdefghik"));
        assert_ne!(a, fold_bytes(DIGEST_INIT, b"abcdefghij\0"));
    }

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        assert_eq!(derive_seed(1, 0), derive_seed(1, 0));
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
        assert!(derive_seed(0, 0) > 0);
    }
}
