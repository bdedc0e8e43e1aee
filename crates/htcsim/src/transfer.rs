//! File transfer model with a Stash/OSDF cache.
//!
//! OSG distributes large, shared input files (the FDW's Singularity image,
//! `.npy` distance matrices, and `.mseed` GF bundles) through regional
//! caches. The first job at a site pulls a file from the origin; subsequent
//! jobs at that site hit the cache and stage in an order of magnitude
//! faster. This module models exactly that, plus plain origin transfers for
//! non-cacheable files and outputs.

use std::collections::{HashMap, HashSet};

use crate::fault::FaultPlan;
use crate::job::JobSpec;

/// Identifier of a site (a university cluster contributing glideins).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteId(pub u32);

/// Origin (submit-node) to execute-node bandwidth per transfer, MB/s.
const ORIGIN_MBPS: f64 = 25.0;

/// Aggregate capacity of the origin's uplink, MB/s. Concurrent origin
/// fetches share it; this is why OSG fronts large shared inputs with the
/// Stash cache at all.
const ORIGIN_CAPACITY_MBPS: f64 = 400.0;

/// Site cache to execute-node bandwidth, MB/s (caches are distributed,
/// so no shared-capacity term).
const CACHE_MBPS: f64 = 250.0;

/// Fixed per-transfer latency, seconds (connection setup, directory
/// creation, Singularity start).
const SETUP_LATENCY_S: f64 = 10.0;

/// Effective per-transfer origin bandwidth when `active` origin transfers
/// (including this one) share the uplink.
fn effective_origin_mbps(active: usize) -> f64 {
    let share = ORIGIN_CAPACITY_MBPS / active.max(1) as f64;
    ORIGIN_MBPS.min(share).max(0.01)
}

/// Outcome of one defended stage-in ([`StashCache::stage_in_verified`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StagedIn {
    /// Transfer time in seconds (includes time spent pulling a copy
    /// that then failed verification).
    pub secs: f64,
    /// Whether any input came over the origin uplink.
    pub used_origin: bool,
    /// Corrupted cache entries detected and evicted during this
    /// stage-in (non-zero only with verification on).
    pub quarantined: u32,
    /// Whether an *undetected* corrupted file was delivered to the job
    /// (non-zero corruption with verification off).
    pub poisoned: bool,
}

/// The Stash cache: per-site sets of already-cached file names.
///
/// Corruption model: each insertion of a cacheable file rolls the fault
/// plan's `corrupt` domain once, keyed by `(site, file, generation)`
/// where the generation counts insertions of that key — so a re-fetch
/// after a quarantine rolls a fresh (usually clean) copy. A corrupted
/// entry serves poisoned bytes on every hit until verify-on-read
/// quarantines it.
#[derive(Debug, Clone, Default)]
pub struct StashCache {
    cached: HashSet<(SiteId, String)>,
    /// Insertion count per key (point lookups only; never iterated).
    generations: HashMap<(SiteId, String), u64>,
    corrupt: HashSet<(SiteId, String)>,
    hits: u64,
    misses: u64,
    quarantines: u64,
    enabled: bool,
}

impl StashCache {
    /// Create an enabled cache.
    pub fn new() -> Self {
        Self {
            enabled: true,
            ..Default::default()
        }
    }

    /// Create a disabled cache (every fetch goes to the origin) — the
    /// `ablate_cache` bench baseline.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Default::default()
        }
    }

    /// Whether caching is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Corrupted entries detected and evicted so far.
    pub fn quarantines(&self) -> u64 {
        self.quarantines
    }

    /// Hit rate in `[0, 1]`; zero when nothing has been fetched.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Stage in all of `spec`'s inputs at `site`, updating cache state.
    /// Cacheable files fetched at a site for the first time are pulled
    /// from the origin, at the effective bandwidth given `active_origin`
    /// concurrent origin transfers, and become cached there; each such
    /// insertion rolls `plan`'s corruption domain. With `verify` on, cache
    /// hits are checksum-verified: a corrupt hit is quarantined (evicted
    /// from the cache) after paying its transfer time, and the caller is
    /// expected to hold and re-queue the job, whose retry re-fetches from
    /// origin. A corrupt hit without verification is delivered silently
    /// and reported as `poisoned`.
    pub fn stage_in_verified(
        &mut self,
        site: SiteId,
        spec: &JobSpec,
        active_origin: usize,
        plan: &FaultPlan,
        verify: bool,
    ) -> StagedIn {
        let mut out = StagedIn {
            secs: SETUP_LATENCY_S,
            used_origin: false,
            quarantined: 0,
            poisoned: false,
        };
        for f in &spec.inputs {
            let key = (site, f.name.clone());
            let cached = self.enabled && f.cacheable && self.cached.contains(&key);
            if cached {
                // The transfer itself happens either way; verification
                // runs on the delivered bytes.
                self.hits += 1;
                out.secs += f.size_mb / CACHE_MBPS;
                if self.corrupt.contains(&key) {
                    if verify {
                        self.cached.remove(&key);
                        self.corrupt.remove(&key);
                        self.quarantines += 1;
                        out.quarantined += 1;
                    } else {
                        out.poisoned = true;
                    }
                }
            } else {
                if self.enabled && f.cacheable {
                    self.misses += 1;
                    self.cached.insert(key.clone());
                    let generation = self.generations.entry(key.clone()).or_insert(0);
                    *generation += 1;
                    if plan.cache_corrupts(site.0, &f.name, *generation) {
                        self.corrupt.insert(key);
                    }
                }
                out.secs += f.size_mb / effective_origin_mbps(active_origin);
                out.used_origin = true;
            }
        }
        out
    }

    /// Compute the stage-out time of a job's output, seconds. Outputs are
    /// never cached (they are unique per job).
    pub fn stage_out_secs(&self, spec: &JobSpec) -> f64 {
        SETUP_LATENCY_S / 2.0 + spec.output_mb / ORIGIN_MBPS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultConfig;
    use crate::job::InputFile;

    /// A fault-free, unverified stage-in with `active` origin transfers.
    fn stage_in(cache: &mut StashCache, site: SiteId, j: &JobSpec, active: usize) -> StagedIn {
        let clean = FaultPlan::new(FaultConfig::default());
        cache.stage_in_verified(site, j, active, &clean, false)
    }

    fn job_with_input(name: &str, mb: f64, cacheable: bool) -> JobSpec {
        let mut j = JobSpec::fixed("t", 60.0);
        j.inputs.push(InputFile {
            name: name.into(),
            size_mb: mb,
            cacheable,
        });
        j
    }

    #[test]
    fn first_fetch_misses_then_hits() {
        let mut cache = StashCache::new();
        let j = job_with_input("gf.mseed", 1000.0, true);
        let site = SiteId(3);
        let cold = stage_in(&mut cache, site, &j, 1).secs;
        let warm = stage_in(&mut cache, site, &j, 1).secs;
        assert!(cold > warm * 3.0, "cold {cold} vs warm {warm}");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hit_rate(), 0.5);
    }

    #[test]
    fn caches_are_per_site() {
        let mut cache = StashCache::new();
        let j = job_with_input("gf.mseed", 1000.0, true);
        stage_in(&mut cache, SiteId(1), &j, 1);
        let other_site = stage_in(&mut cache, SiteId(2), &j, 1).secs;
        // Both cold: different sites don't share cache contents.
        assert!(other_site > 40.0);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn non_cacheable_always_origin() {
        let mut cache = StashCache::new();
        let j = job_with_input("unique_input.bin", 500.0, false);
        let a = stage_in(&mut cache, SiteId(1), &j, 1).secs;
        let b = stage_in(&mut cache, SiteId(1), &j, 1).secs;
        assert_eq!(a, b);
        assert_eq!(cache.hits() + cache.misses(), 0);
    }

    #[test]
    fn disabled_cache_never_hits() {
        let mut cache = StashCache::disabled();
        assert!(!cache.is_enabled());
        let j = job_with_input("gf.mseed", 1000.0, true);
        let a = stage_in(&mut cache, SiteId(1), &j, 1).secs;
        let b = stage_in(&mut cache, SiteId(1), &j, 1).secs;
        assert_eq!(a, b);
        assert_eq!(cache.hit_rate(), 0.0);
    }

    #[test]
    fn empty_inputs_cost_only_latency() {
        let mut cache = StashCache::new();
        let j = JobSpec::fixed("t", 60.0);
        assert_eq!(stage_in(&mut cache, SiteId(0), &j, 1).secs, SETUP_LATENCY_S);
    }

    #[test]
    fn stage_out_scales_with_output() {
        let cache = StashCache::new();
        let mut j = JobSpec::fixed("t", 60.0);
        j.output_mb = 250.0;
        let big = cache.stage_out_secs(&j);
        j.output_mb = 10.0;
        let small = cache.stage_out_secs(&j);
        assert!(big > small);
        assert!((big - (5.0 + 10.0)).abs() < 1e-9);
    }

    #[test]
    fn origin_contention_slows_concurrent_fetches() {
        // Few transfers: per-transfer bandwidth is the limit.
        assert_eq!(effective_origin_mbps(1), 25.0);
        assert_eq!(effective_origin_mbps(16), 25.0);
        // Many transfers: the uplink capacity is the limit.
        assert_eq!(effective_origin_mbps(40), 10.0);
        assert_eq!(effective_origin_mbps(400), 1.0);
        // Floor prevents zero bandwidth.
        assert!(effective_origin_mbps(usize::MAX) >= 0.01);
    }

    #[test]
    fn contended_stage_in_reports_origin_use() {
        let mut cache = StashCache::new();
        let j = job_with_input("gf.mseed", 1000.0, true);
        let cold = stage_in(&mut cache, SiteId(0), &j, 100);
        assert!(cold.used_origin, "first fetch hits the origin");
        let uncontended = stage_in(&mut cache, SiteId(9), &j, 1).secs;
        assert!(
            cold.secs > uncontended * 2.0,
            "{} vs {uncontended}",
            cold.secs
        );
        let warm = stage_in(&mut cache, SiteId(0), &j, 100);
        assert!(!warm.used_origin, "cache hit avoids the origin entirely");
        assert!(warm.secs < uncontended);
    }

    #[test]
    fn verified_read_quarantines_and_refetch_is_clean() {
        // Every insertion corrupts; verification must catch each one.
        let plan = FaultPlan::new(FaultConfig {
            seed: 7,
            corrupt_prob: 1.0,
            ..Default::default()
        });
        let j = job_with_input("gf.mseed", 1000.0, true);
        let site = SiteId(3);
        let mut cache = StashCache::new();
        let cold = cache.stage_in_verified(site, &j, 1, &plan, true);
        assert!(cold.used_origin && cold.quarantined == 0 && !cold.poisoned);
        // The cached copy is corrupt: the verified read pays the cache
        // transfer, detects, and evicts.
        let bad = cache.stage_in_verified(site, &j, 1, &plan, true);
        assert_eq!(bad.quarantined, 1);
        assert!(!bad.poisoned && !bad.used_origin);
        assert_eq!(cache.quarantines(), 1);
        // Retry after quarantine: entry gone, origin re-fetch.
        let retry = cache.stage_in_verified(site, &j, 1, &plan, true);
        assert!(retry.used_origin);
        assert_eq!(retry.quarantined, 0);
    }

    #[test]
    fn unverified_read_delivers_poison_silently() {
        let plan = FaultPlan::new(FaultConfig {
            seed: 7,
            corrupt_prob: 1.0,
            ..Default::default()
        });
        let j = job_with_input("gf.mseed", 1000.0, true);
        let site = SiteId(3);
        let mut cache = StashCache::new();
        cache.stage_in_verified(site, &j, 1, &plan, false);
        // Without verification the corrupt entry persists and poisons
        // every subsequent hit at the site.
        for _ in 0..3 {
            let hit = cache.stage_in_verified(site, &j, 1, &plan, false);
            assert!(hit.poisoned && hit.quarantined == 0);
        }
        assert_eq!(cache.quarantines(), 0);
    }

    #[test]
    fn multiple_inputs_accumulate() {
        let mut cache = StashCache::new();
        let mut j = job_with_input("a.npy", 250.0, true);
        j.inputs.push(InputFile {
            name: "b.npy".into(),
            size_mb: 250.0,
            cacheable: true,
        });
        let t = stage_in(&mut cache, SiteId(0), &j, 1).secs;
        assert!((t - (10.0 + 500.0 / 25.0)).abs() < 1e-9);
    }
}
