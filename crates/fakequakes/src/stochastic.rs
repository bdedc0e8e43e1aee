//! Stochastic slip field synthesis: correlated Gaussian fields on the fault
//! mesh via Cholesky sampling or truncated Karhunen–Loève expansion.
//!
//! This is the heart of FakeQuakes' "stochastic slip" method: build the von
//! Kármán covariance over the (recycled) subfault–subfault distance matrix,
//! factor it once, then draw as many independent slip realisations as the
//! batch needs. The factorisation is the expensive, recyclable part; draws
//! are cheap — exactly the cost structure that makes the A Phase
//! embarrassingly parallel once the `.npy` matrices exist.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use rand::rngs::StdRng;
use rand::Rng;
#[cfg(test)]
use rand::SeedableRng;

use crate::error::{FqError, FqResult};
use crate::linalg::Matrix;
use crate::par;
use crate::simd;
use crate::vonkarman::VonKarman;

/// How to factor the covariance for sampling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldMethod {
    /// Exact sampling via Cholesky factorisation.
    Cholesky,
    /// Truncated Karhunen–Loève expansion keeping the leading `modes`
    /// eigenmodes. Cheaper draws, smoother fields; FakeQuakes' default
    /// approach (Melgar et al. use the leading ~K modes).
    KarhunenLoeve {
        /// Number of leading eigenmodes retained.
        modes: usize,
    },
}

/// A factored correlated-Gaussian-field sampler over `n` mesh points.
#[derive(Debug, Clone)]
pub struct CorrelatedField {
    n: usize,
    method_label: &'static str,
    /// For Cholesky: lower-triangular L. For KL: `V * diag(sqrt(λ))`
    /// restricted to the retained modes (an `n × k` matrix).
    factor: Matrix,
    /// True for a Cholesky factor: every entry above the diagonal is an
    /// exact +0.0.
    lower_triangular: bool,
    /// Fraction of total variance captured by the retained modes (1.0 for
    /// Cholesky).
    variance_captured: f64,
}

impl CorrelatedField {
    /// Build a sampler from the von Kármán kernel evaluated on the
    /// subfault–subfault distance matrix.
    pub fn from_distances(
        distances: &Matrix,
        kernel: &VonKarman,
        method: FieldMethod,
    ) -> FqResult<Self> {
        if distances.rows() != distances.cols() {
            return Err(FqError::Linalg("distance matrix must be square".into()));
        }
        let n = distances.rows();
        if n == 0 {
            return Err(FqError::Linalg("empty distance matrix".into()));
        }
        let cov = assemble_covariance(distances, kernel);
        match method {
            FieldMethod::Cholesky => {
                let l = cov.cholesky()?;
                Ok(Self {
                    n,
                    method_label: "cholesky",
                    factor: l,
                    lower_triangular: true,
                    variance_captured: 1.0,
                })
            }
            FieldMethod::KarhunenLoeve { modes } => {
                let k = modes.clamp(1, n);
                // The truncated path skips the O(n³) eigenvector
                // accumulation for the n − k discarded modes; it still
                // returns all n eigenvalues, so variance bookkeeping is
                // exact. With k = n the full QL path is cheaper.
                let (vals, vecs) = if k < n {
                    cov.symmetric_eigen_topk(k)?
                } else {
                    cov.symmetric_eigen()?
                };
                let total: f64 = vals.iter().map(|v| v.max(0.0)).sum();
                let kept: f64 = vals.iter().take(k).map(|v| v.max(0.0)).sum();
                let factor = Matrix::from_fn(n, k, |i, m| vecs[(i, m)] * vals[m].max(0.0).sqrt());
                Ok(Self {
                    n,
                    method_label: "karhunen-loeve",
                    factor,
                    lower_triangular: false,
                    variance_captured: if total > 0.0 { kept / total } else { 0.0 },
                })
            }
        }
    }

    /// Number of mesh points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the field covers no mesh points (cannot occur after construction).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Label of the factorisation method ("cholesky" / "karhunen-loeve").
    pub fn method_label(&self) -> &'static str {
        self.method_label
    }

    /// Fraction of field variance the factorisation preserves.
    pub fn variance_captured(&self) -> f64 {
        self.variance_captured
    }

    /// Draw one zero-mean, unit-marginal-variance correlated field.
    pub fn sample(&self, rng: &mut StdRng) -> Vec<f64> {
        self.sample_rows(rng, &vec![true; self.n])
    }

    /// Draw one field, computing only the rows where `rows[i]` is true;
    /// the other entries are 0.0. A computed row equals the same row of
    /// [`CorrelatedField::sample`] from the same RNG state, except that
    /// an exact zero may carry the other sign, and the RNG ends in the
    /// same state.
    ///
    /// Each computed row is `simd::dot(factor.row(i), &z)`, as in
    /// [`Matrix::matvec`]. A Cholesky factor is lower triangular, so the
    /// normals past the last computed row only meet exact zeros: they
    /// enter `z` as 0.0 and their uniforms are drawn but not transformed.
    pub fn sample_rows(&self, rng: &mut StdRng, rows: &[bool]) -> Vec<f64> {
        assert_eq!(rows.len(), self.n, "row mask length mismatch");
        let k = self.factor.cols();
        let live = if self.lower_triangular {
            rows.iter().rposition(|&r| r).map_or(0, |last| last + 1)
        } else {
            k
        };
        let mut z = vec![0.0; k];
        for zi in &mut z[..live] {
            *zi = standard_normal(rng);
        }
        skip_standard_normals(rng, k - live);
        rows.iter()
            .enumerate()
            .map(|(i, &r)| {
                if r {
                    simd::dot(self.factor.row(i), &z)
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Approximate heap footprint of the factor matrix in bytes (what a
    /// byte-budgeted [`FactorCache`] charges for this entry).
    pub fn approx_bytes(&self) -> usize {
        self.factor.rows() * self.factor.cols() * std::mem::size_of::<f64>()
    }
}

/// Kernel evaluations per batch of [`assemble_covariance`]. Eight lanes
/// give each loop-carried chain of the Bessel quadrature (the two cosh
/// recurrences and the running Simpson sum) two independent AVX2 vectors;
/// four leave the chains latency-bound, sixteen measured no faster
/// (DESIGN.md §13).
const COV_LANES: usize = 8;

/// Assemble the von Kármán correlation matrix over a symmetric distance
/// matrix, evaluating the kernel for the **upper half only** and
/// mirroring — the kernel's fractional-order Bessel quadrature is the
/// expensive part, and `correlation(d_ij)` ≡ `correlation(d_ji)` because
/// the distance matrix is exactly symmetric. Rows of the upper triangle
/// fan out across threads; each leaf walks its pairs row-major across
/// row boundaries and feeds them eight at a time to the laned kernel
/// ([`crate::vonkarman::von_karman_lanes`]). Every lane computes the bits
/// the one-lane path computes, so the result is byte-identical to
/// [`assemble_covariance_seq`].
pub fn assemble_covariance(distances: &Matrix, kernel: &VonKarman) -> Matrix {
    let n = distances.rows();
    let mut cov = Matrix::zeros(n, n);
    if n == 0 {
        return cov;
    }
    {
        let data = cov.as_mut_slice();
        let chunk = par::chunk_for(n, 4) * n;
        par::for_each_chunk(data, chunk, |start, leaf| {
            let first_row = start / n;
            // Distances of the pending batch and their offsets in `leaf`.
            let mut batch = [0.0; COV_LANES];
            let mut slot = [0usize; COV_LANES];
            let mut fill = 0;
            for r in 0..leaf.len() / n {
                let i = first_row + r;
                leaf[r * n + i] = 1.0;
                for (j, &d) in distances.row(i).iter().enumerate().skip(i + 1) {
                    batch[fill] = d;
                    slot[fill] = r * n + j;
                    fill += 1;
                    if fill == COV_LANES {
                        store_batch(leaf, kernel, batch, &slot[..fill]);
                        fill = 0;
                    }
                }
            }
            if fill > 0 {
                store_batch(leaf, kernel, batch, &slot[..fill]);
            }
        });
        // Mirror the computed upper half into the lower half (cheap
        // copies, sequential).
        for i in 1..n {
            for j in 0..i {
                data[i * n + j] = data[j * n + i];
            }
        }
    }
    cov
}

/// Evaluate one batch of [`assemble_covariance`] and store lane `l` at
/// `leaf[slot[l]]`. A partial batch (the leaf's last) pads its unused
/// lanes with a copy of its first distance and discards them.
fn store_batch(leaf: &mut [f64], kernel: &VonKarman, mut batch: [f64; COV_LANES], slot: &[usize]) {
    let first = batch[0];
    batch[slot.len()..].fill(first);
    let c = kernel.correlation_lanes(batch);
    for (&s, v) in slot.iter().zip(c) {
        leaf[s] = v;
    }
}

/// Sequential full-matrix covariance assembly (scalar kernel path,
/// evaluating every off-diagonal element). Kept as the determinism
/// oracle: the parallel half-assembly must match it byte for byte.
pub fn assemble_covariance_seq(distances: &Matrix, kernel: &VonKarman) -> Matrix {
    let n = distances.rows();
    Matrix::from_fn(n, n, |i, j| {
        if i == j {
            1.0
        } else {
            kernel.correlation(distances[(i, j)])
        }
    })
}

/// Frozen pre-SIMD covariance assembly: sequential, full-matrix, on the
/// libm Bessel quadrature ([`crate::vonkarman::von_karman_kernel_libm`]).
/// Only the `bench_snapshot` baseline calls this; it is the "before"
/// arm every committed covariance speedup is measured against.
pub fn assemble_covariance_reference_libm(distances: &Matrix, kernel: &VonKarman) -> Matrix {
    let n = distances.rows();
    let a = (kernel.a_strike_km * kernel.a_dip_km).sqrt();
    Matrix::from_fn(n, n, |i, j| {
        if i == j {
            1.0
        } else {
            let x = (distances[(i, j)] / a).max(0.0);
            crate::vonkarman::von_karman_kernel_libm(x, kernel.hurst)
        }
    })
}

/// Method component of a [`FactorCache`] key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum MethodKey {
    Cholesky,
    KarhunenLoeve(usize),
}

impl From<FieldMethod> for MethodKey {
    fn from(m: FieldMethod) -> Self {
        match m {
            FieldMethod::Cholesky => MethodKey::Cholesky,
            FieldMethod::KarhunenLoeve { modes } => MethodKey::KarhunenLoeve(modes),
        }
    }
}

/// Cache key: fault-mesh identity, matrix size, an FNV digest of the
/// distance matrix bits, the kernel parameters (bit-exact), and the
/// factorisation method.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct FactorKey {
    mesh: String,
    n: usize,
    dist_digest: u64,
    kernel_bits: [u64; 3],
    method: MethodKey,
}

/// Lanes of [`distance_key`]'s interleaved fold.
const KEY_LANES: usize = 8;

/// Content key of a distance matrix: FNV-1a word steps over the bit
/// patterns, distance `p` into lane `p % 8` of eight interleaved lanes,
/// then the eight lane words and the remainder folded into one word.
/// The lanes are independent multiply chains, so a warm lookup is not
/// bound by the latency of n² serial multiplies. Cheap (O(n²), against
/// the O(n³) factorisation it guards) and exact where it matters: every
/// step is a bijection of the state it updates, so two matrices that
/// differ in any single distance get different keys. The key never
/// leaves the cache, so its values are not pinned anywhere.
///
/// This is the one FNV fold outside `fdw_obs::digest`: a normal
/// dependency on `fdw-obs` would add a line to the benchmark package's
/// `Cargo.lock`, which may not change with this crate.
fn distance_key(xs: &[f64]) -> u64 {
    // fdwlint::allow(fnv-outside-digest): depending on fdw-obs would move perfbench/Cargo.lock (see above)
    let (basis, prime) = (0xcbf2_9ce4_8422_2325, 0x0000_0100_0000_01b3);
    let step = |h: u64, x: u64| (h ^ x).wrapping_mul(prime);
    let mut lanes = [basis; KEY_LANES];
    let chunks = xs.chunks_exact(KEY_LANES);
    let rest = chunks.remainder();
    for chunk in chunks {
        for (lane, x) in lanes.iter_mut().zip(chunk) {
            *lane = step(*lane, x.to_bits());
        }
    }
    let h = lanes.into_iter().fold(basis, step);
    rest.iter().fold(h, |h, x| step(h, x.to_bits()))
}

/// Hit/miss/entry counts of a [`FactorCache`], for telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FactorCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to factorise.
    pub misses: u64,
    /// Entries dropped by LRU eviction under a byte budget.
    pub evictions: u64,
    /// Distinct factors currently cached.
    pub entries: usize,
    /// Approximate bytes held by cached factor matrices.
    pub bytes: usize,
}

/// One cached factor plus its LRU bookkeeping.
#[derive(Debug)]
struct CacheEntry {
    field: Arc<CorrelatedField>,
    bytes: usize,
    last_used: u64,
}

#[derive(Debug, Default)]
struct CacheInner {
    map: BTreeMap<FactorKey, CacheEntry>,
    bytes: usize,
    tick: u64,
}

/// A cache of factored [`CorrelatedField`]s keyed by
/// `(fault-mesh id, distance-matrix digest, correlation params, method)`,
/// so a catalog of N rupture draws factorises once and draws N times —
/// the same recycling the FDW applies to its `.npy` distance matrices
/// and Green's-function libraries.
///
/// Memory is bounded: construct with [`FactorCache::with_byte_budget`]
/// and the least-recently-used factors are evicted once the summed
/// factor-matrix footprint exceeds the budget. Eviction only discards the
/// cache's reference — in-flight `Arc`s stay valid — and a later lookup
/// recomputes the factor, bit-identically, by determinism of the
/// factorisation. A budget of zero (the default) means unbounded.
///
/// Thread-safe; the factorisation itself runs outside the lock, so
/// concurrent misses on different keys don't serialise (concurrent
/// misses on the *same* key may both factorise — first insert wins, and
/// both results are identical by determinism).
#[derive(Debug, Default)]
pub struct FactorCache {
    inner: Mutex<CacheInner>,
    byte_budget: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl FactorCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache that evicts least-recently-used factors once the
    /// summed factor footprint exceeds `bytes` (`0` = unbounded). The
    /// most recently touched entry is never evicted, so a single factor
    /// larger than the budget still caches (and the budget is treated as
    /// best-effort for it).
    pub fn with_byte_budget(bytes: usize) -> Self {
        Self {
            byte_budget: bytes,
            ..Self::default()
        }
    }

    /// The configured eviction budget in bytes (`0` = unbounded).
    pub fn byte_budget(&self) -> usize {
        self.byte_budget
    }

    /// The process-wide shared cache.
    pub fn global() -> &'static FactorCache {
        static CACHE: OnceLock<FactorCache> = OnceLock::new();
        CACHE.get_or_init(FactorCache::new)
    }

    /// Fetch the factored field for this mesh/kernel/method, building it
    /// via [`CorrelatedField::from_distances`] on a miss.
    pub fn get_or_build(
        &self,
        mesh_id: &str,
        distances: &Matrix,
        kernel: &VonKarman,
        method: FieldMethod,
    ) -> FqResult<Arc<CorrelatedField>> {
        let key = FactorKey {
            mesh: mesh_id.to_string(),
            n: distances.rows(),
            dist_digest: distance_key(distances.as_slice()),
            kernel_bits: [
                kernel.a_strike_km.to_bits(),
                kernel.a_dip_km.to_bits(),
                kernel.hurst.to_bits(),
            ],
            method: method.into(),
        };
        {
            let mut inner = self.inner.lock().expect("factor cache poisoned");
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(entry) = inner.map.get_mut(&key) {
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(&entry.field));
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let built = Arc::new(CorrelatedField::from_distances(distances, kernel, method)?);
        let mut inner = self.inner.lock().expect("factor cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        let field = match inner.map.get_mut(&key) {
            // A concurrent miss on the same key beat us to the insert;
            // its factor is bit-identical to ours, so serve it.
            Some(entry) => {
                entry.last_used = tick;
                Arc::clone(&entry.field)
            }
            None => {
                let bytes = built.approx_bytes();
                inner.bytes += bytes;
                inner.map.insert(
                    key.clone(),
                    CacheEntry {
                        field: Arc::clone(&built),
                        bytes,
                        last_used: tick,
                    },
                );
                built
            }
        };
        if self.byte_budget > 0 {
            while inner.bytes > self.byte_budget && inner.map.len() > 1 {
                // Victim: smallest last_used tick, excluding the entry we
                // just touched. BTreeMap iteration order makes the scan
                // deterministic even on ties (ticks are unique anyway).
                let victim = inner
                    .map
                    .iter()
                    .filter(|(k, _)| **k != key)
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| k.clone());
                match victim {
                    Some(v) => {
                        if let Some(evicted) = inner.map.remove(&v) {
                            inner.bytes -= evicted.bytes;
                            self.evictions.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    None => break,
                }
            }
        }
        Ok(field)
    }

    /// Snapshot of hit/miss/eviction/entry/byte counts.
    pub fn stats(&self) -> FactorCacheStats {
        let inner = self.inner.lock().expect("factor cache poisoned");
        FactorCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: inner.map.len(),
            bytes: inner.bytes,
        }
    }

    /// Drop all cached factors and reset counters (tests, benchmarks).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("factor cache poisoned");
        inner.map.clear();
        inner.bytes = 0;
        inner.tick = 0;
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }
}

/// Draw a standard normal via Box–Muller (avoids a distribution-crate
/// dependency; the polar form is rejection-free here because we always use
/// both uniforms).
pub fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Advance `rng` past `count` [`standard_normal`] draws without
/// transforming them: the same two uniforms per draw.
fn skip_standard_normals(rng: &mut StdRng, count: usize) {
    for _ in 0..2 * count {
        let _: f64 = rng.gen();
    }
}

/// Summary statistics of a sampled field (used by tests and the Fig. 1
/// product report).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FieldStats {
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
}

/// Compute summary statistics of a slice; empty input yields all-zero stats.
pub fn field_stats(x: &[f64]) -> FieldStats {
    if x.is_empty() {
        return FieldStats {
            mean: 0.0,
            std: 0.0,
            min: 0.0,
            max: 0.0,
        };
    }
    let n = x.len() as f64;
    let mean = simd::lane_sum(x) / n;
    let sq: Vec<f64> = x.iter().map(|v| (v - mean) * (v - mean)).collect();
    let var = simd::lane_sum(&sq) / n;
    let min = x.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = x.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    FieldStats {
        mean,
        std: var.sqrt(),
        min,
        max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::DistanceMatrices;
    use crate::geometry::FaultModel;
    use crate::stations::{ChileanInput, StationNetwork};

    fn field_fixture(method: FieldMethod) -> CorrelatedField {
        let fault = FaultModel::chilean_subduction(8, 4).unwrap();
        let net = StationNetwork::chilean_input(ChileanInput::Small, 1);
        let d = DistanceMatrices::compute(&fault, &net);
        CorrelatedField::from_distances(
            &d.subfault_to_subfault,
            &VonKarman {
                a_strike_km: 120.0,
                a_dip_km: 60.0,
                hurst: 0.75,
            },
            method,
        )
        .unwrap()
    }

    #[test]
    fn cholesky_field_covers_mesh() {
        let f = field_fixture(FieldMethod::Cholesky);
        assert_eq!(f.len(), 32);
        assert!(!f.is_empty());
        assert_eq!(f.method_label(), "cholesky");
        assert_eq!(f.variance_captured(), 1.0);
    }

    #[test]
    fn kl_truncation_captures_most_variance() {
        let f = field_fixture(FieldMethod::KarhunenLoeve { modes: 16 });
        assert_eq!(f.method_label(), "karhunen-loeve");
        assert!(
            f.variance_captured() > 0.8,
            "16/32 modes capture {}",
            f.variance_captured()
        );
        assert!(f.variance_captured() <= 1.0 + 1e-9);
    }

    #[test]
    fn kl_modes_clamped_to_mesh_size() {
        let f = field_fixture(FieldMethod::KarhunenLoeve { modes: 10_000 });
        assert!((f.variance_captured() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn samples_are_deterministic_given_seed() {
        let f = field_fixture(FieldMethod::Cholesky);
        let mut r1 = StdRng::seed_from_u64(11);
        let mut r2 = StdRng::seed_from_u64(11);
        assert_eq!(f.sample(&mut r1), f.sample(&mut r2));
    }

    #[test]
    fn samples_have_roughly_unit_variance() {
        let f = field_fixture(FieldMethod::Cholesky);
        let mut rng = StdRng::seed_from_u64(5);
        let mut acc = 0.0;
        let reps = 200;
        for _ in 0..reps {
            let s = f.sample(&mut rng);
            let st = field_stats(&s);
            acc += st.std * st.std + st.mean * st.mean;
        }
        let var = acc / reps as f64;
        assert!((0.7..1.3).contains(&var), "ensemble variance {var}");
    }

    #[test]
    fn nearby_points_are_correlated() {
        // With long correlation lengths, adjacent subfaults must co-vary
        // strongly across an ensemble.
        let f = field_fixture(FieldMethod::Cholesky);
        let mut rng = StdRng::seed_from_u64(17);
        let mut cov01 = 0.0;
        let reps = 400;
        for _ in 0..reps {
            let s = f.sample(&mut rng);
            cov01 += s[0] * s[1]; // adjacent down-dip neighbours
        }
        cov01 /= reps as f64;
        assert!(cov01 > 0.5, "neighbour covariance {cov01}");
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(99);
        let xs: Vec<f64> = (0..20_000).map(|_| standard_normal(&mut rng)).collect();
        let st = field_stats(&xs);
        assert!(st.mean.abs() < 0.03, "mean {}", st.mean);
        assert!((st.std - 1.0).abs() < 0.03, "std {}", st.std);
    }

    #[test]
    fn rejects_bad_inputs() {
        let vk = VonKarman::default();
        let rect = Matrix::zeros(2, 3);
        assert!(CorrelatedField::from_distances(&rect, &vk, FieldMethod::Cholesky).is_err());
        let empty = Matrix::zeros(0, 0);
        assert!(CorrelatedField::from_distances(&empty, &vk, FieldMethod::Cholesky).is_err());
    }

    #[test]
    fn half_assembly_matches_sequential_bytewise() {
        let fault = FaultModel::chilean_subduction(9, 5).unwrap();
        let net = StationNetwork::chilean_input(ChileanInput::Small, 1);
        let d = DistanceMatrices::compute(&fault, &net);
        let vk = VonKarman {
            a_strike_km: 80.0,
            a_dip_km: 35.0,
            hurst: 0.6,
        };
        let par = assemble_covariance(&d.subfault_to_subfault, &vk);
        let seq = assemble_covariance_seq(&d.subfault_to_subfault, &vk);
        assert_eq!(par.as_slice(), seq.as_slice());
        assert_eq!(assemble_covariance(&Matrix::zeros(0, 0), &vk).rows(), 0);
    }

    #[test]
    fn kl_truncated_path_matches_full_eigen_metadata() {
        // modes < n takes the top-k path; its variance bookkeeping must
        // agree with the full path because both see all n eigenvalues.
        let full = field_fixture(FieldMethod::KarhunenLoeve { modes: 32 });
        let trunc = field_fixture(FieldMethod::KarhunenLoeve { modes: 12 });
        assert!(trunc.variance_captured() < full.variance_captured());
        assert!(trunc.variance_captured() > 0.5);
    }

    #[test]
    fn factor_cache_hits_on_identical_inputs() {
        let fault = FaultModel::chilean_subduction(6, 3).unwrap();
        let net = StationNetwork::chilean_input(ChileanInput::Small, 1);
        let d = DistanceMatrices::compute(&fault, &net);
        let vk = VonKarman::default();
        let cache = FactorCache::new();
        let a = cache
            .get_or_build(
                "mesh-a",
                &d.subfault_to_subfault,
                &vk,
                FieldMethod::Cholesky,
            )
            .unwrap();
        let b = cache
            .get_or_build(
                "mesh-a",
                &d.subfault_to_subfault,
                &vk,
                FieldMethod::Cholesky,
            )
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must be a cache hit");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        // Different method → different entry.
        cache
            .get_or_build(
                "mesh-a",
                &d.subfault_to_subfault,
                &vk,
                FieldMethod::KarhunenLoeve { modes: 4 },
            )
            .unwrap();
        assert_eq!(cache.stats().entries, 2);
        // Different kernel parameters → different entry.
        let vk2 = VonKarman {
            hurst: vk.hurst * 0.5,
            ..vk
        };
        cache
            .get_or_build(
                "mesh-a",
                &d.subfault_to_subfault,
                &vk2,
                FieldMethod::Cholesky,
            )
            .unwrap();
        assert_eq!(cache.stats().entries, 3);
        // Different distances under the same mesh name and size → each
        // a miss with its own entry: the 8×4 and 4×8 meshes (n = 32),
        // then the first matrix with one distance moved by one ulp.
        let mesh_dists = |nx, nd| {
            let fault = FaultModel::chilean_subduction(nx, nd).unwrap();
            DistanceMatrices::compute(&fault, &net).subfault_to_subfault
        };
        let (wide, deep) = (mesh_dists(8, 4), mesh_dists(4, 8));
        assert_eq!((wide.rows(), deep.rows()), (32, 32));
        let mut nudged = d.subfault_to_subfault.clone();
        let next_up = f64::from_bits(nudged[(0, 1)].to_bits() + 1);
        nudged[(0, 1)] = next_up;
        nudged[(1, 0)] = next_up;
        for (i, m) in [wide, deep, nudged].iter().enumerate() {
            cache
                .get_or_build("mesh-a", m, &vk, FieldMethod::Cholesky)
                .unwrap();
            let s = cache.stats();
            assert_eq!((s.hits, s.misses, s.entries), (1, 4 + i as u64, 4 + i));
        }
        // One distance moved one ulp misses in each of the key's eight
        // lanes and in its remainder: n² = 324 is not a multiple of 8, so
        // the last 4 distances fold after the lanes.
        let len = d.subfault_to_subfault.as_slice().len();
        assert_ne!(len % KEY_LANES, 0);
        let positions = (0..KEY_LANES).map(|lane| 17 * KEY_LANES + lane);
        for (i, p) in positions.chain([len - 1]).enumerate() {
            let mut moved = d.subfault_to_subfault.clone();
            let x = &mut moved.as_mut_slice()[p];
            *x = f64::from_bits(x.to_bits() + 1);
            cache
                .get_or_build("mesh-a", &moved, &vk, FieldMethod::Cholesky)
                .unwrap();
            let s = cache.stats();
            assert_eq!((s.hits, s.misses, s.entries), (1, 7 + i as u64, 7 + i));
        }
        cache.clear();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 0, 0));
    }

    #[test]
    fn cached_factor_draw_is_bit_identical_to_fresh() {
        let fault = FaultModel::chilean_subduction(6, 3).unwrap();
        let net = StationNetwork::chilean_input(ChileanInput::Small, 1);
        let d = DistanceMatrices::compute(&fault, &net);
        let vk = VonKarman::default();
        let cache = FactorCache::new();
        let fresh =
            CorrelatedField::from_distances(&d.subfault_to_subfault, &vk, FieldMethod::Cholesky)
                .unwrap();
        // Warm the cache, then read it back.
        cache
            .get_or_build("m", &d.subfault_to_subfault, &vk, FieldMethod::Cholesky)
            .unwrap();
        let cached = cache
            .get_or_build("m", &d.subfault_to_subfault, &vk, FieldMethod::Cholesky)
            .unwrap();
        let mut r1 = StdRng::seed_from_u64(31);
        let mut r2 = StdRng::seed_from_u64(31);
        assert_eq!(fresh.sample(&mut r1), cached.sample(&mut r2));
    }

    #[test]
    fn lru_eviction_respects_byte_budget() {
        let fault = FaultModel::chilean_subduction(6, 3).unwrap();
        let net = StationNetwork::chilean_input(ChileanInput::Small, 1);
        let d = DistanceMatrices::compute(&fault, &net);
        let vk = VonKarman::default();
        let one_factor = 18 * 18 * std::mem::size_of::<f64>();
        // Budget fits exactly one Cholesky factor of this mesh.
        let cache = FactorCache::with_byte_budget(one_factor + 64);
        assert_eq!(cache.byte_budget(), one_factor + 64);
        let a = cache
            .get_or_build("m", &d.subfault_to_subfault, &vk, FieldMethod::Cholesky)
            .unwrap();
        assert_eq!(cache.stats().bytes, one_factor);
        let vk2 = VonKarman {
            hurst: vk.hurst * 0.5,
            ..vk
        };
        cache
            .get_or_build("m", &d.subfault_to_subfault, &vk2, FieldMethod::Cholesky)
            .unwrap();
        let s = cache.stats();
        assert_eq!(s.evictions, 1, "first factor evicted under budget");
        assert_eq!(s.entries, 1);
        assert!(s.bytes <= cache.byte_budget());
        // Re-fetching the evicted key recomputes (a miss), and the
        // recomputed factor draws bit-identically to the evicted one.
        let a2 = cache
            .get_or_build("m", &d.subfault_to_subfault, &vk, FieldMethod::Cholesky)
            .unwrap();
        assert_eq!(cache.stats().misses, 3, "post-eviction lookup is a miss");
        assert!(!Arc::ptr_eq(&a, &a2), "recompute, not the original Arc");
        let mut r1 = StdRng::seed_from_u64(77);
        let mut r2 = StdRng::seed_from_u64(77);
        assert_eq!(a.sample(&mut r1), a2.sample(&mut r2));
    }

    #[test]
    fn lru_prefers_least_recently_used_victim() {
        let fault = FaultModel::chilean_subduction(6, 3).unwrap();
        let net = StationNetwork::chilean_input(ChileanInput::Small, 1);
        let d = DistanceMatrices::compute(&fault, &net);
        let vk = |h: f64| VonKarman {
            hurst: h,
            ..VonKarman::default()
        };
        let one_factor = 18 * 18 * std::mem::size_of::<f64>();
        // Budget fits two factors; the third insert evicts one.
        let cache = FactorCache::with_byte_budget(2 * one_factor + 64);
        let dm = &d.subfault_to_subfault;
        cache
            .get_or_build("m", dm, &vk(0.9), FieldMethod::Cholesky)
            .unwrap();
        cache
            .get_or_build("m", dm, &vk(0.8), FieldMethod::Cholesky)
            .unwrap();
        // Touch the first key so the second becomes the LRU victim.
        cache
            .get_or_build("m", dm, &vk(0.9), FieldMethod::Cholesky)
            .unwrap();
        cache
            .get_or_build("m", dm, &vk(0.7), FieldMethod::Cholesky)
            .unwrap();
        assert_eq!(cache.stats().evictions, 1);
        // 0.9 survived (hit); 0.8 was evicted (miss on re-fetch).
        let hits_before = cache.stats().hits;
        cache
            .get_or_build("m", dm, &vk(0.9), FieldMethod::Cholesky)
            .unwrap();
        assert_eq!(cache.stats().hits, hits_before + 1);
        let misses_before = cache.stats().misses;
        cache
            .get_or_build("m", dm, &vk(0.8), FieldMethod::Cholesky)
            .unwrap();
        assert_eq!(cache.stats().misses, misses_before + 1);
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let fault = FaultModel::chilean_subduction(6, 3).unwrap();
        let net = StationNetwork::chilean_input(ChileanInput::Small, 1);
        let d = DistanceMatrices::compute(&fault, &net);
        let cache = FactorCache::new();
        for i in 0..5 {
            let vk = VonKarman {
                hurst: 0.5 + 0.05 * i as f64,
                ..VonKarman::default()
            };
            cache
                .get_or_build("m", &d.subfault_to_subfault, &vk, FieldMethod::Cholesky)
                .unwrap();
        }
        let s = cache.stats();
        assert_eq!((s.evictions, s.entries), (0, 5));
    }

    #[test]
    fn field_stats_empty_and_known() {
        let st = field_stats(&[]);
        assert_eq!(st.mean, 0.0);
        let st = field_stats(&[1.0, 2.0, 3.0]);
        assert_eq!(st.mean, 2.0);
        assert_eq!(st.min, 1.0);
        assert_eq!(st.max, 3.0);
        assert!((st.std - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }
}
