//! The content-addressed shared artifact store.
//!
//! FDW's single-campaign trick is recycling: distance matrices,
//! Green's-function libraries and covariance factors are computed once
//! and reused across a campaign's jobs. This store generalises that
//! fleet-wide: artifacts are keyed by a digest of their *content
//! inputs* (scenario class, artifact kind, factorisation mode), so two
//! tenants requesting the same scenario class share one computation.
//!
//! Robustness properties mirror the `FactorCache` satellite work:
//!
//! * **verify-on-read** — each entry carries a checksum; a mismatch
//!   (the PR-5 silent-corruption fault class, injected deterministically
//!   at insert time) quarantines the entry and forces a recompute
//!   instead of serving poison;
//! * **bounded memory** — least-recently-used artifacts are evicted
//!   once the summed footprint exceeds the byte budget;
//! * **determinism** — all state lives in `BTreeMap`s and every
//!   decision is a pure function of the call sequence, so the store is
//!   safe inside a DES lane.

use std::collections::BTreeMap;

use fdw_obs::digest::{digest_fold, DIGEST_INIT};
use htcsim::service::ArtifactKind;

/// Content digest of an artifact: a pure function of what the artifact
/// *is* (class, kind, degraded factorisation or not) — never of who
/// computed it or when.
pub fn content_digest(kind: ArtifactKind, class: u32, truncated_kl: bool) -> u64 {
    let mut h = DIGEST_INIT;
    h = digest_fold(h, kind as u64 + 1);
    h = digest_fold(h, class as u64 + 1);
    h = digest_fold(h, truncated_kl as u64 + 1);
    h
}

/// Simulated byte footprint of an artifact (drives LRU eviction):
/// distance matrices scale O(n²), GF libraries dominate, factors sit
/// between — the same ordering as the real `.npy`/`.mseed` files.
pub fn artifact_bytes(kind: ArtifactKind, class: u32) -> u64 {
    let n = 8 + 2 * class as u64;
    match kind {
        ArtifactKind::DistanceMatrix => n * n * 8,
        ArtifactKind::GfLibrary => n * n * 64,
        ArtifactKind::Factor => n * n * 16,
    }
}

/// Outcome of one store lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Served intact from the store; zero recompute cost.
    Hit {
        /// Whether the entry was inserted by a *different* tenant —
        /// the cross-tenant dedupe the service exists for.
        cross_tenant: bool,
    },
    /// Present but failed verify-on-read; quarantined, caller must
    /// recompute (and reinsert).
    Quarantined,
    /// Absent (never computed, or evicted); caller must compute.
    Miss,
    /// Present and corrupt, but verification is off: served anyway.
    /// The caller's campaign is now poisoned.
    ServedCorrupt,
}

/// Counters of a store's lifetime, all mode-invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Lookups served intact from the store.
    pub hits: u64,
    /// Hits whose entry another tenant inserted.
    pub cross_tenant_hits: u64,
    /// Lookups that found nothing and computed.
    pub misses: u64,
    /// Entries quarantined by verify-on-read.
    pub quarantines: u64,
    /// Corrupt entries served because verification was off.
    pub served_corrupt: u64,
    /// Entries dropped by LRU eviction.
    pub evictions: u64,
    /// Current entry count.
    pub entries: usize,
    /// Current summed byte footprint.
    pub bytes: u64,
}

#[derive(Debug)]
struct Entry {
    inserter: u32,
    bytes: u64,
    corrupt: bool,
    last_used: u64,
}

/// The store itself. `verify` gates the checksum-on-read path;
/// `byte_budget` of zero means unbounded.
#[derive(Debug)]
pub struct ArtifactStore {
    map: BTreeMap<u64, Entry>,
    verify: bool,
    byte_budget: u64,
    corrupt_permille: u32,
    corrupt_seed: u64,
    bytes: u64,
    tick: u64,
    inserts: u64,
    stats: StoreStats,
}

impl ArtifactStore {
    /// An empty store. `budget_mb` of zero means unbounded;
    /// `corrupt_permille` inserts are silently corrupted, keyed off
    /// `corrupt_seed` and the insert counter (deterministic).
    pub fn new(budget_mb: u32, verify: bool, corrupt_permille: u32, corrupt_seed: u64) -> Self {
        Self {
            map: BTreeMap::new(),
            verify,
            byte_budget: budget_mb as u64 * 1024 * 1024,
            corrupt_permille,
            corrupt_seed,
            bytes: 0,
            tick: 0,
            inserts: 0,
            stats: StoreStats::default(),
        }
    }

    /// Look up an artifact by content digest on behalf of `tenant`.
    /// Quarantined entries are removed before returning, so the caller's
    /// recompute-and-[`insert`](Self::insert) lands in a clean slot.
    pub fn lookup(&mut self, digest: u64, tenant: u32) -> Lookup {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(&digest) {
            None => {
                self.stats.misses += 1;
                Lookup::Miss
            }
            Some(e) if e.corrupt && self.verify => {
                let bytes = e.bytes;
                self.map.remove(&digest);
                self.bytes -= bytes;
                self.stats.quarantines += 1;
                Lookup::Quarantined
            }
            Some(e) => {
                e.last_used = tick;
                if e.corrupt {
                    self.stats.served_corrupt += 1;
                    Lookup::ServedCorrupt
                } else {
                    let cross = e.inserter != tenant;
                    self.stats.hits += 1;
                    if cross {
                        self.stats.cross_tenant_hits += 1;
                    }
                    Lookup::Hit {
                        cross_tenant: cross,
                    }
                }
            }
        }
    }

    /// Insert a freshly computed artifact. The deterministic corruption
    /// draw happens here — recomputed inserts roll again, so a
    /// quarantine-and-recompute cycle converges to a clean entry with
    /// probability 1.
    pub fn insert(&mut self, digest: u64, bytes: u64, tenant: u32) {
        self.tick += 1;
        self.inserts += 1;
        let corrupt = self.corrupt_permille > 0 && {
            let mut h = digest_fold(self.corrupt_seed ^ DIGEST_INIT, digest);
            h = digest_fold(h, self.inserts);
            h % 1000 < self.corrupt_permille as u64
        };
        if let Some(old) = self.map.insert(
            digest,
            Entry {
                inserter: tenant,
                bytes,
                corrupt,
                last_used: self.tick,
            },
        ) {
            self.bytes -= old.bytes;
        }
        self.bytes += bytes;
        self.evict_to_budget(digest);
    }

    /// Evict LRU entries (never the just-touched `keep` key) until the
    /// byte budget is met.
    fn evict_to_budget(&mut self, keep: u64) {
        if self.byte_budget == 0 {
            return;
        }
        while self.bytes > self.byte_budget && self.map.len() > 1 {
            let victim = self
                .map
                .iter()
                .filter(|(k, _)| **k != keep)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            match victim {
                Some(v) => {
                    if let Some(e) = self.map.remove(&v) {
                        self.bytes -= e.bytes;
                        self.stats.evictions += 1;
                    }
                }
                None => break,
            }
        }
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            entries: self.map.len(),
            bytes: self.bytes,
            ..self.stats
        }
    }

    /// Order-sensitive digest of the store's current content (keys,
    /// inserters, corruption flags) — folded into the service decision
    /// digest so store divergence across run modes is detectable.
    pub fn content_fingerprint(&self) -> u64 {
        let mut h = DIGEST_INIT;
        for (k, e) in &self.map {
            h = digest_fold(h, *k);
            h = digest_fold(h, e.inserter as u64 + 1);
            h = digest_fold(h, e.corrupt as u64 + 1);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds() -> [ArtifactKind; 3] {
        ArtifactKind::ALL
    }

    #[test]
    fn digests_separate_kinds_classes_and_modes() {
        let mut seen = std::collections::BTreeSet::new();
        for kind in kinds() {
            for class in 0..4 {
                for kl in [false, true] {
                    assert!(seen.insert(content_digest(kind, class, kl)));
                }
            }
        }
    }

    #[test]
    fn miss_insert_hit_cycle_with_cross_tenant() {
        let mut s = ArtifactStore::new(0, true, 0, 1);
        let d = content_digest(ArtifactKind::GfLibrary, 2, false);
        assert_eq!(s.lookup(d, 0), Lookup::Miss);
        s.insert(d, 1000, 0);
        assert_eq!(
            s.lookup(d, 0),
            Lookup::Hit {
                cross_tenant: false
            }
        );
        assert_eq!(s.lookup(d, 3), Lookup::Hit { cross_tenant: true });
        let st = s.stats();
        assert_eq!((st.hits, st.cross_tenant_hits, st.misses), (2, 1, 1));
        assert_eq!((st.entries, st.bytes), (1, 1000));
    }

    #[test]
    fn verify_on_read_quarantines_and_recompute_clears() {
        // corrupt_permille = 1000: every insert is corrupt.
        let mut s = ArtifactStore::new(0, true, 1000, 7);
        let d = content_digest(ArtifactKind::Factor, 1, false);
        s.insert(d, 10, 0);
        assert_eq!(s.lookup(d, 0), Lookup::Quarantined);
        assert_eq!(s.stats().quarantines, 1);
        assert_eq!(s.stats().entries, 0, "quarantine removes the entry");
        // With verification off the same corruption is served silently.
        let mut s = ArtifactStore::new(0, false, 1000, 7);
        s.insert(d, 10, 0);
        assert_eq!(s.lookup(d, 0), Lookup::ServedCorrupt);
        assert_eq!(s.stats().served_corrupt, 1);
    }

    #[test]
    fn recompute_cycle_converges_to_clean_entry() {
        // At 500 permille, repeated quarantine→recompute must terminate
        // with a clean entry (different insert counter → new draw).
        let mut s = ArtifactStore::new(0, true, 500, 3);
        let d = content_digest(ArtifactKind::DistanceMatrix, 0, false);
        let mut rounds = 0;
        loop {
            match s.lookup(d, 0) {
                Lookup::Hit { .. } => break,
                Lookup::Miss | Lookup::Quarantined => {
                    s.insert(d, 10, 0);
                    rounds += 1;
                    assert!(rounds < 64, "corruption draw never cleared");
                }
                Lookup::ServedCorrupt => unreachable!("verify is on"),
            }
        }
    }

    #[test]
    fn lru_eviction_respects_byte_budget() {
        // Budget of 1 MB; entries of 600 KB — the second insert evicts
        // the first, a third evicts the second.
        let mut s = ArtifactStore::new(1, true, 0, 1);
        let d = |c| content_digest(ArtifactKind::GfLibrary, c, false);
        s.insert(d(0), 600 * 1024, 0);
        s.insert(d(1), 600 * 1024, 1);
        assert_eq!(s.stats().evictions, 1);
        assert_eq!(s.lookup(d(0), 0), Lookup::Miss, "evicted");
        assert_eq!(s.lookup(d(1), 0), Lookup::Hit { cross_tenant: true });
        // Oversized single entry still caches (budget best-effort).
        let mut s = ArtifactStore::new(1, true, 0, 1);
        s.insert(d(9), 5 * 1024 * 1024, 0);
        assert_eq!(s.stats().entries, 1);
    }

    #[test]
    fn fingerprint_tracks_content() {
        let mut a = ArtifactStore::new(0, true, 0, 1);
        let mut b = ArtifactStore::new(0, true, 0, 1);
        assert_eq!(a.content_fingerprint(), b.content_fingerprint());
        a.insert(content_digest(ArtifactKind::Factor, 0, false), 10, 0);
        assert_ne!(a.content_fingerprint(), b.content_fingerprint());
        b.insert(content_digest(ArtifactKind::Factor, 0, false), 10, 0);
        assert_eq!(a.content_fingerprint(), b.content_fingerprint());
    }
}
