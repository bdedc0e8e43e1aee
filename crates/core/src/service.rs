//! Bridge from the multi-tenant campaign front-end (`fdw-service`) to
//! the FakeQuakes science: map each *completed* campaign onto actual
//! rupture draws and fold the slip fields into a science digest.
//!
//! The digest is the ground truth the robustness claims are checked
//! against: the front-end may admit, shed, degrade or dedupe however it
//! likes, but for the campaigns it *completes*, the science must be a
//! pure function of `(workload seed, request id, degrade mode, replica
//! count)` — never of which tenant's insert populated the shared store,
//! what order campaigns finished in, or how many threads the DES ran
//! on. `science_digest` realises the mapping; the cross-arm equality
//! tests (shared store vs isolated recompute, 1 vs N threads) enforce
//! it.

use std::collections::BTreeMap;

use fakequakes::distance::DistanceMatrices;
use fakequakes::error::FqResult;
use fakequakes::geometry::FaultModel;
use fakequakes::rupture::{RuptureConfig, RuptureGenerator};
use fakequakes::stations::{ChileanInput, StationNetwork};
use fakequakes::stochastic::{FactorCache, FieldMethod};
use fdw_service::config::ServiceConfig;
use fdw_service::engine::{run_service, ServiceReport};
use fdw_service::request::{Disposition, RequestOutcome, WorkloadConfig};
use htcsim::des::{digest_fold, DIGEST_INIT};

/// FNV-1a over the bit patterns of a slip field — the same digest idiom
/// the DES differential harness uses, so "bit-identical science" means
/// exactly that.
fn slip_hash(xs: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in xs {
        for b in x.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Per-class mesh inputs: class `c` gets an `(8 + 2c) × 4` Chilean
/// mesh, mirroring the byte model of
/// [`fdw_service::store::artifact_bytes`] so heavier classes really are
/// bigger factorisations.
struct ClassInputs {
    fault: FaultModel,
    distances: DistanceMatrices,
}

fn class_inputs(class: u32, seed: u64) -> FqResult<ClassInputs> {
    let fault = FaultModel::chilean_subduction(8 + 2 * class as usize, 4)?;
    let network = StationNetwork::chilean_input(ChileanInput::Small, seed);
    let distances = DistanceMatrices::compute(&fault, &network);
    Ok(ClassInputs { fault, distances })
}

/// What the science pass produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScienceReport {
    /// Order-stable fold of every completed campaign's slip fields
    /// (request-id order), the cross-arm comparison value.
    pub digest: u64,
    /// Completed campaigns mapped.
    pub campaigns: u64,
    /// Total rupture scenarios drawn.
    pub ruptures: u64,
    /// Covariance factorisations actually computed — the work the
    /// shared factor cache saves relative to the isolated arm.
    pub factorisations: u64,
}

/// Map every [`Disposition::Completed`] outcome onto rupture draws and
/// fold the slip fields into a digest, in request-id order.
///
/// `shared` selects the artifact-sharing arm: `Some(cache)` routes
/// every campaign's factorisation through one (optionally budgeted)
/// [`FactorCache`] — the front-end's shared store, where tenant B
/// reuses the factor tenant A computed; `None` gives each campaign a
/// fresh private cache — the isolated-recompute arm. The returned
/// `digest` must be identical either way (the cache's bit-identical
/// draw guarantee), while `factorisations` shows the saved work.
pub fn science_digest(
    outcomes: &[RequestOutcome],
    seed: u64,
    shared: Option<&FactorCache>,
) -> FqResult<ScienceReport> {
    let mut inputs: BTreeMap<u32, ClassInputs> = BTreeMap::new();
    let mut sorted: Vec<&RequestOutcome> = outcomes.iter().collect();
    sorted.sort_by_key(|o| o.request.id);
    let mut digest = DIGEST_INIT;
    let mut campaigns = 0u64;
    let mut ruptures = 0u64;
    let mut factorisations = 0u64;
    for o in sorted {
        let Disposition::Completed {
            degraded, replicas, ..
        } = o.disposition
        else {
            continue;
        };
        let req = o.request;
        let ci = match inputs.entry(req.class) {
            std::collections::btree_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(class_inputs(req.class, seed)?)
            }
        };
        // Degraded campaigns run the truncated Karhunen–Loève
        // factorisation (half the modes) — same switch the engine's
        // cost model halves the factor price for.
        let method = if degraded.is_some() {
            FieldMethod::KarhunenLoeve {
                modes: (ci.fault.len() / 2).max(1),
            }
        } else {
            FieldMethod::Cholesky
        };
        let rcfg = RuptureConfig {
            method,
            ..Default::default()
        };
        let fresh;
        let cache: &FactorCache = match shared {
            Some(c) => c,
            None => {
                fresh = FactorCache::new();
                &fresh
            }
        };
        let before = cache.stats().misses;
        let generator = RuptureGenerator::new_cached(
            &ci.fault,
            &ci.distances.subfault_to_subfault,
            rcfg,
            cache,
        )?;
        let batch_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (req.id + 1);
        for k in 0..replicas as u64 {
            let sc = generator.generate(batch_seed, k);
            digest = digest_fold(digest, req.id + 1);
            digest = digest_fold(digest, slip_hash(&sc.slip_m));
            ruptures += 1;
        }
        factorisations += cache.stats().misses - before;
        campaigns += 1;
    }
    Ok(ScienceReport {
        digest,
        campaigns,
        ruptures,
        factorisations,
    })
}

/// A front-end run plus the science of its completed campaigns.
#[derive(Debug)]
pub struct ServiceCampaignReport {
    /// The service-layer report (dispositions, stats, store, log).
    pub service: ServiceReport,
    /// The science pass over its completed outcomes.
    pub science: ScienceReport,
}

/// Run the multi-tenant front-end over a workload, then map its
/// completed campaigns to science. When the config's store is on, the
/// science pass shares one byte-budgeted [`FactorCache`] fleet-wide
/// (the store arm); otherwise every campaign recomputes privately.
pub fn run_service_campaign(
    cfg: &ServiceConfig,
    wl: &WorkloadConfig,
    exec_shards: u32,
    epoch_s: u64,
    threads: usize,
) -> FqResult<ServiceCampaignReport> {
    let service = run_service(cfg, wl, exec_shards, epoch_s, threads);
    let science = if cfg.enabled && cfg.store_enabled {
        let cache = FactorCache::with_byte_budget(cfg.store_budget_mb as usize * 1024 * 1024);
        science_digest(&service.outcomes, wl.seed, Some(&cache))?
    } else {
        science_digest(&service.outcomes, wl.seed, None)?
    };
    Ok(ServiceCampaignReport { service, science })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_wl() -> WorkloadConfig {
        WorkloadConfig {
            seed: 11,
            campaigns: 24,
            classes: 2,
            overload_x: 3.0,
            replicas: 2,
            ..Default::default()
        }
    }

    #[test]
    fn shared_store_and_isolated_recompute_agree_bit_for_bit() {
        let cfg = ServiceConfig::defended(3);
        let report = run_service(&cfg, &small_wl(), 2, 60, 2);
        assert!(report.stats.completed > 0);
        let shared_cache = FactorCache::with_byte_budget(64 * 1024 * 1024);
        let shared = science_digest(&report.outcomes, 11, Some(&shared_cache)).expect("shared");
        let isolated = science_digest(&report.outcomes, 11, None).expect("isolated");
        assert_eq!(shared.digest, isolated.digest, "dedupe changed the science");
        assert_eq!(shared.campaigns, isolated.campaigns);
        assert_eq!(shared.ruptures, isolated.ruptures);
        assert!(
            shared.factorisations < isolated.factorisations,
            "sharing must save factorisations: {} vs {}",
            shared.factorisations,
            isolated.factorisations
        );
    }

    #[test]
    fn campaign_report_is_thread_invariant() {
        let cfg = ServiceConfig::defended(3);
        let a = run_service_campaign(&cfg, &small_wl(), 2, 60, 1).expect("run");
        let b = run_service_campaign(&cfg, &small_wl(), 2, 60, 4).expect("run");
        assert_eq!(a.service.decision_digest, b.service.decision_digest);
        assert_eq!(a.science, b.science);
        assert_eq!(a.science.campaigns, a.service.stats.completed);
    }

    #[test]
    fn degraded_campaigns_draw_different_but_deterministic_science() {
        // Same outcomes, but flipping a completion's degrade mode must
        // change the digest (truncated KL is a different factorisation),
        // while re-running identically must not.
        let cfg = ServiceConfig::defended(3);
        let report = run_service(&cfg, &small_wl(), 2, 60, 2);
        let base = science_digest(&report.outcomes, 11, None).expect("base");
        let again = science_digest(&report.outcomes, 11, None).expect("again");
        assert_eq!(base, again);
        let mut flipped = report.outcomes.clone();
        let victim = flipped
            .iter_mut()
            .find_map(|o| match &mut o.disposition {
                Disposition::Completed { degraded, .. } if degraded.is_none() => Some(degraded),
                _ => None,
            })
            .expect("an undegraded completion");
        *victim = Some(htcsim::service::DegradeMode::TruncatedKl);
        let bent = science_digest(&flipped, 11, None).expect("bent");
        assert_ne!(base.digest, bent.digest);
    }
}
