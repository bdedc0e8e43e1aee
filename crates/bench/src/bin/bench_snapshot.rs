//! Perf snapshot harness: times each optimised compute kernel against its
//! retained baseline **in the same process and run**, then writes the
//! results as `BENCH_kernels.json` (median ns per kernel, machine info,
//! git revision).
//!
//! Schema v2 additions over v1:
//!
//! * a **measurement floor** per row — every median runs for at least
//!   `floor_ms` of wall clock (and `min_iters` calls), both recorded in
//!   the JSON so a reader can judge how settled the median is;
//! * **multi-scale rows** for the mesh-bound kernels (cholesky,
//!   covariance assembly, matmul, distances) at n = 240/480/960 plus a
//!   log-log **scaling exponent** fit per kernel;
//! * a **1000-station** Green's-function row (station-batched synthesis
//!   vs the per-pair reference loop);
//! * **bitwise oracle gates**: every optimised kernel is compared against
//!   its scalar/sequential twin in-process and the run aborts on any
//!   mismatch;
//! * **FDW_THREADS invariance gates**: the harness re-executes itself as
//!   a child under `FDW_THREADS ∈ {1, 2, 8}` and asserts the kernel
//!   digests agree across thread counts;
//! * **flop-rate gauges** routed through the fdw-obs metrics registry.
//!
//! The committed snapshot is the evidence for the PR-level acceptance
//! criteria; CI re-runs it at reduced scale under `FDW_SMOKE=1` and
//! ratchets the recorded speedups (`scripts/ci.sh`).
//!
//! Output path: `BENCH_kernels.json` in the working directory, or
//! `$FDW_BENCH_OUT` when set. Regenerate with
//! `cargo run --release -p fdw-bench --bin bench_snapshot`.

#![forbid(unsafe_code)]
use std::hint::black_box;
use std::time::{Duration, Instant};

use fakequakes::distance::DistanceMatrices;
use fakequakes::geometry::FaultModel;
use fakequakes::greens::{GfLibrary, GfMethod};
use fakequakes::linalg::Matrix;
use fakequakes::rupture::{RuptureConfig, RuptureGenerator};
use fakequakes::stations::StationNetwork;
use fakequakes::stochastic::{
    assemble_covariance, assemble_covariance_reference_libm, assemble_covariance_seq, FactorCache,
};
use fakequakes::vonkarman::VonKarman;
use fdw_obs::digest::{fnv1a_word, DIGEST_INIT};

/// One timed baseline-vs-optimised pair.
struct KernelRow {
    name: &'static str,
    n: usize,
    baseline: &'static str,
    baseline_median_ns: u64,
    baseline_iters: usize,
    optimized: &'static str,
    optimized_median_ns: u64,
    optimized_iters: usize,
    floor_ms: u64,
    min_iters: usize,
}

impl KernelRow {
    fn speedup(&self) -> f64 {
        self.baseline_median_ns as f64 / self.optimized_median_ns.max(1) as f64
    }

    fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"name\":\"{}\",\"n\":{},",
                "\"baseline\":\"{}\",\"baseline_median_ns\":{},\"baseline_iters\":{},",
                "\"optimized\":\"{}\",\"optimized_median_ns\":{},\"optimized_iters\":{},",
                "\"floor_ms\":{},\"min_iters\":{},",
                "\"speedup\":{:.3}}}"
            ),
            self.name,
            self.n,
            self.baseline,
            self.baseline_median_ns,
            self.baseline_iters,
            self.optimized,
            self.optimized_median_ns,
            self.optimized_iters,
            self.floor_ms,
            self.min_iters,
            self.speedup(),
        )
    }
}

/// Median wall-clock nanoseconds over repeated calls: at least
/// `min_iters` iterations, continuing until the `floor` of wall time has
/// elapsed (capped at 1000 iterations so fast kernels terminate).
fn median_ns(min_iters: usize, floor: Duration, mut f: impl FnMut()) -> (u64, usize) {
    let mut samples = Vec::new();
    let start = Instant::now();
    loop {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_nanos() as u64);
        if (samples.len() >= min_iters && start.elapsed() >= floor) || samples.len() >= 1000 {
            break;
        }
    }
    samples.sort_unstable();
    (samples[samples.len() / 2], samples.len())
}

/// One FNV-1a word step per value, over the bit patterns of `xs`.
fn fold_slice(h: u64, xs: &[f64]) -> u64 {
    xs.iter().fold(h, |h, x| fnv1a_word(h, x.to_bits()))
}

/// Deterministic digest over every laned kernel's output at the given
/// mesh scale. Children re-executed under different `FDW_THREADS` print
/// this; the parent asserts the values agree.
fn kernel_digest(nx: usize, nd: usize) -> u64 {
    let fault = FaultModel::chilean_subduction(nx, nd).expect("fault mesh");
    let net = StationNetwork::chilean(8, 1).expect("station network");
    let dists = DistanceMatrices::compute(&fault, &net);
    let kernel = VonKarman::default();
    let cov = assemble_covariance(&dists.subfault_to_subfault, &kernel);
    let chol = cov.cholesky().expect("spd covariance");
    let n = fault.len();
    let a = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 3) % 11) as f64 * 0.1 - 0.5);
    let prod = a.matmul(&cov).expect("matmul");
    let v: Vec<f64> = (0..n)
        .map(|i| ((i * 13) % 17) as f64 * 0.25 - 2.0)
        .collect();
    let mv = cov.matvec(&v);
    let gfs = GfLibrary::compute(&fault, &net).expect("gf library");
    let mut h = DIGEST_INIT;
    h = fold_slice(h, dists.subfault_to_subfault.as_slice());
    h = fold_slice(h, dists.station_to_subfault.as_slice());
    h = fold_slice(h, cov.as_slice());
    h = fold_slice(h, chol.as_slice());
    h = fold_slice(h, prod.as_slice());
    h = fold_slice(h, &mv);
    for s in gfs.stations() {
        for r in &s.responses {
            h = fnv1a_word(h, r.e.to_bits());
            h = fnv1a_word(h, r.n.to_bits());
            h = fnv1a_word(h, r.u.to_bits());
        }
    }
    h
}

/// Every optimised kernel against its scalar/sequential oracle, bitwise.
/// Panics (aborting the snapshot) on the first mismatch.
fn assert_oracles_bitwise(
    fault: &FaultModel,
    net: &StationNetwork,
    dists: &DistanceMatrices,
    kernel: &VonKarman,
    cov: &Matrix,
) {
    let seq = DistanceMatrices::compute_seq(fault, net);
    assert_eq!(
        dists.subfault_to_subfault.as_slice(),
        seq.subfault_to_subfault.as_slice(),
        "distance matrix: parallel != sequential"
    );
    assert_eq!(
        dists.station_to_subfault.as_slice(),
        seq.station_to_subfault.as_slice(),
        "station distances: parallel != sequential"
    );
    let cov_seq = assemble_covariance_seq(&dists.subfault_to_subfault, kernel);
    assert_eq!(
        cov.as_slice(),
        cov_seq.as_slice(),
        "covariance: laned != scalar oracle"
    );
    assert_eq!(
        cov.cholesky().unwrap().as_slice(),
        cov.cholesky_reference().unwrap().as_slice(),
        "cholesky: blocked != reference"
    );
    let n = fault.len();
    let a = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 3) % 11) as f64 * 0.1 - 0.5);
    assert_eq!(
        a.matmul(cov).unwrap().as_slice(),
        a.matmul_reference(cov).unwrap().as_slice(),
        "matmul: panel-blocked != reference"
    );
    let v: Vec<f64> = (0..n)
        .map(|i| ((i * 13) % 17) as f64 * 0.25 - 2.0)
        .collect();
    assert_eq!(
        cov.matvec(&v),
        cov.matvec_reference(&v),
        "matvec: laned != reference"
    );
    let hoisted = GfLibrary::compute(fault, net).unwrap();
    let reference = GfLibrary::compute_reference(fault, net, GfMethod::PointSource).unwrap();
    for (a, b) in hoisted.stations().iter().zip(reference.stations()) {
        assert_eq!(a.responses, b.responses, "greens: hoisted != per-pair");
    }
    eprintln!("  oracles: all kernels bitwise-equal to their references");
}

/// Re-execute this binary under each `FDW_THREADS` setting and collect
/// the kernel digest each child prints. Returns (digests, invariant?).
fn thread_invariance_digests(smoke: bool) -> (Vec<(usize, u64)>, bool) {
    let exe = std::env::current_exe().expect("current_exe");
    let mut out = Vec::new();
    for threads in [1usize, 2, 8] {
        let mut cmd = std::process::Command::new(&exe);
        // FDW_THREADS is the suite-level knob; it maps onto
        // RAYON_NUM_THREADS, which rayon reads once at pool init — hence
        // child processes rather than in-process pool juggling.
        cmd.env("FDW_BENCH_CHILD", "digest")
            .env("FDW_THREADS", threads.to_string())
            .env("RAYON_NUM_THREADS", threads.to_string());
        if smoke {
            cmd.env("FDW_SMOKE", "1");
        }
        let o = cmd.output().expect("spawn digest child");
        assert!(
            o.status.success(),
            "digest child (FDW_THREADS={threads}) failed: {}",
            String::from_utf8_lossy(&o.stderr)
        );
        let text = String::from_utf8_lossy(&o.stdout);
        let digest = text
            .lines()
            .find_map(|l| l.strip_prefix("digest="))
            .and_then(|d| u64::from_str_radix(d.trim(), 16).ok())
            .expect("child digest line");
        out.push((threads, digest));
    }
    let invariant = out.iter().all(|(_, d)| *d == out[0].1);
    (out, invariant)
}

/// Least-squares slope of log(median_ns) vs log(n) — the empirical
/// scaling exponent of a kernel across mesh sizes.
fn scaling_exponent(points: &[(usize, u64)]) -> f64 {
    let k = points.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(n, ns) in points {
        let x = (n as f64).ln();
        let y = (ns as f64).ln();
        sx += x;
        sy += y;
        sxx += x * x;
        sxy += x * y;
    }
    (k * sxy - sx * sy) / (k * sxx - sx * sx)
}

/// Timed rows for the mesh-bound kernels at one mesh scale.
#[allow(clippy::too_many_arguments)]
fn scale_rows(
    nx: usize,
    nd: usize,
    net: &StationNetwork,
    min_iters: usize,
    floor: Duration,
    rows: &mut Vec<KernelRow>,
) {
    let fault = FaultModel::chilean_subduction(nx, nd).expect("fault mesh");
    let n = fault.len();
    let kernel = VonKarman::default();
    let dists = DistanceMatrices::compute(&fault, net);
    let cov = assemble_covariance(&dists.subfault_to_subfault, &kernel);
    let floor_ms = floor.as_millis() as u64;

    let (b_ns, b_it) = median_ns(min_iters, floor, || {
        black_box(cov.cholesky_reference().unwrap());
    });
    let (o_ns, o_it) = median_ns(min_iters, floor, || {
        black_box(cov.cholesky().unwrap());
    });
    rows.push(KernelRow {
        name: "cholesky",
        n,
        baseline: "cholesky_reference",
        baseline_median_ns: b_ns,
        baseline_iters: b_it,
        optimized: "cholesky",
        optimized_median_ns: o_ns,
        optimized_iters: o_it,
        floor_ms,
        min_iters,
    });

    let (b_ns, b_it) = median_ns(min_iters, floor, || {
        black_box(assemble_covariance_reference_libm(
            &dists.subfault_to_subfault,
            &kernel,
        ));
    });
    let (o_ns, o_it) = median_ns(min_iters, floor, || {
        black_box(assemble_covariance(&dists.subfault_to_subfault, &kernel));
    });
    rows.push(KernelRow {
        name: "assemble_covariance",
        n,
        baseline: "assemble_covariance_reference_libm",
        baseline_median_ns: b_ns,
        baseline_iters: b_it,
        optimized: "assemble_covariance",
        optimized_median_ns: o_ns,
        optimized_iters: o_it,
        floor_ms,
        min_iters,
    });

    let a = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 3) % 11) as f64 * 0.1 - 0.5);
    let b = Matrix::from_fn(n, n, |i, j| ((i * 5 + j * 13) % 7) as f64 * 0.2 - 0.6);
    let (b_ns, b_it) = median_ns(min_iters, floor, || {
        black_box(a.matmul_reference(&b).unwrap());
    });
    let (o_ns, o_it) = median_ns(min_iters, floor, || {
        black_box(a.matmul(&b).unwrap());
    });
    rows.push(KernelRow {
        name: "matmul",
        n,
        baseline: "matmul_reference",
        baseline_median_ns: b_ns,
        baseline_iters: b_it,
        optimized: "matmul",
        optimized_median_ns: o_ns,
        optimized_iters: o_it,
        floor_ms,
        min_iters,
    });

    // Baseline is the frozen per-pair trig path: `compute_seq` shares the
    // hoisted UnitEcef kernel (it must stay the bitwise oracle of the
    // parallel path), so timing against it would only measure fan-out
    // overhead, not the trig hoist.
    let (b_ns, b_it) = median_ns(min_iters, floor, || {
        black_box(DistanceMatrices::compute_reference_trig(&fault, net));
    });
    let (o_ns, o_it) = median_ns(min_iters, floor, || {
        black_box(DistanceMatrices::compute(&fault, net));
    });
    rows.push(KernelRow {
        name: "distance_matrices",
        n,
        baseline: "compute_reference_trig",
        baseline_median_ns: b_ns,
        baseline_iters: b_it,
        optimized: "compute",
        optimized_median_ns: o_ns,
        optimized_iters: o_it,
        floor_ms,
        min_iters,
    });
}

fn main() {
    let smoke = fdw_bench::smoke();

    // Child mode: print the kernel digest for the parent's FDW_THREADS
    // invariance gate and exit. The mesh matches the parent's primary
    // scale so the digest covers the same code paths it times.
    if std::env::var("FDW_BENCH_CHILD").is_ok() {
        let (nx, nd) = if smoke { (12, 5) } else { (24, 10) };
        println!("digest={:016x}", kernel_digest(nx, nd));
        return;
    }

    // Full scale matches the acceptance criterion (24×10 ⇒ n = 240);
    // smoke keeps the same pairs honest at CI-friendly size.
    let (nx, nd) = if smoke { (12, 5) } else { (24, 10) };
    let floor = if smoke {
        Duration::from_millis(40)
    } else {
        Duration::from_millis(300)
    };
    let floor_ms = floor.as_millis() as u64;

    let fault = FaultModel::chilean_subduction(nx, nd).expect("fault mesh");
    let net = StationNetwork::chilean(8, 1).expect("station network");
    let n = fault.len();
    let dists = DistanceMatrices::compute(&fault, &net);
    let kernel = VonKarman::default();
    let cov = assemble_covariance(&dists.subfault_to_subfault, &kernel);
    let mut rows = Vec::new();

    eprintln!("bench_snapshot: n = {n} ({nx}×{nd} mesh), smoke = {smoke}");

    // Gate 1: bitwise oracles, in this very process.
    assert_oracles_bitwise(&fault, &net, &dists, &kernel, &cov);

    // Gate 2: digests under FDW_THREADS ∈ {1, 2, 8} must agree.
    let (digests, invariant) = thread_invariance_digests(smoke);
    for (t, d) in &digests {
        eprintln!("  FDW_THREADS={t}: digest {d:016x}");
    }
    assert!(invariant, "kernel digests differ across FDW_THREADS");

    // 1. Symmetric eigensolver: classical Jacobi vs Householder+QL.
    let (b_ns, b_it) = median_ns(3, floor, || {
        black_box(cov.jacobi_eigen_reference(30).unwrap());
    });
    let (o_ns, o_it) = median_ns(3, floor, || {
        black_box(cov.symmetric_eigen(30).unwrap());
    });
    rows.push(KernelRow {
        name: "symmetric_eigen",
        n,
        baseline: "jacobi_eigen_reference",
        baseline_median_ns: b_ns,
        baseline_iters: b_it,
        optimized: "symmetric_eigen",
        optimized_median_ns: o_ns,
        optimized_iters: o_it,
        floor_ms,
        min_iters: 3,
    });

    // 2. Truncated KL eigensolver vs the full decomposition it replaces.
    let k = (n / 4).max(1);
    let (o_ns, o_it) = median_ns(3, floor, || {
        black_box(cov.symmetric_eigen_topk(k, 30).unwrap());
    });
    rows.push(KernelRow {
        name: "symmetric_eigen_topk",
        n,
        baseline: "symmetric_eigen",
        baseline_median_ns: rows[0].optimized_median_ns,
        baseline_iters: rows[0].optimized_iters,
        optimized: "symmetric_eigen_topk",
        optimized_median_ns: o_ns,
        optimized_iters: o_it,
        floor_ms,
        min_iters: 3,
    });

    // 3–6. Mesh-bound kernels at the primary scale.
    scale_rows(nx, nd, &net, 3, floor, &mut rows);

    // 7. End-to-end rupture draw: build a generator and draw one scenario,
    //    fresh factorisation vs recycled factor from a warmed cache.
    let rcfg = RuptureConfig::default();
    let cache = FactorCache::new();
    RuptureGenerator::new_cached(&fault, &dists.subfault_to_subfault, rcfg.clone(), &cache)
        .expect("warm factor cache");
    let (b_ns, b_it) = median_ns(3, floor, || {
        let g = RuptureGenerator::new(&fault, &dists.subfault_to_subfault, rcfg.clone()).unwrap();
        black_box(g.generate(7, 1));
    });
    let (o_ns, o_it) = median_ns(3, floor, || {
        let g =
            RuptureGenerator::new_cached(&fault, &dists.subfault_to_subfault, rcfg.clone(), &cache)
                .unwrap();
        black_box(g.generate(7, 1));
    });
    rows.push(KernelRow {
        name: "rupture_draw_end_to_end",
        n,
        baseline: "fresh_factorization",
        baseline_median_ns: b_ns,
        baseline_iters: b_it,
        optimized: "recycled_factor",
        optimized_median_ns: o_ns,
        optimized_iters: o_it,
        floor_ms,
        min_iters: 3,
    });

    // 8. Station-batched Green's functions on a large network: hoisted
    //    per-subfault geometry vs the per-pair reference loop.
    let big_net = StationNetwork::chilean(if smoke { 50 } else { 1000 }, 1).expect("big network");
    let (b_ns, b_it) = median_ns(2, floor, || {
        black_box(GfLibrary::compute_reference(&fault, &big_net, GfMethod::PointSource).unwrap());
    });
    let (o_ns, o_it) = median_ns(2, floor, || {
        black_box(GfLibrary::compute(&fault, &big_net).unwrap());
    });
    rows.push(KernelRow {
        name: "gf_point_source_big_network",
        n: big_net.len(),
        baseline: "compute_reference",
        baseline_median_ns: b_ns,
        baseline_iters: b_it,
        optimized: "compute",
        optimized_median_ns: o_ns,
        optimized_iters: o_it,
        floor_ms,
        min_iters: 2,
    });

    // Multi-scale rows + scaling exponents (full mode only — the 4×/16×
    // meshes are too heavy for CI smoke).
    let scale_meshes: &[(usize, usize)] = if smoke { &[] } else { &[(24, 20), (48, 20)] };
    let scale_start = rows.len();
    for &(sx, sd) in scale_meshes {
        eprintln!("  scaling mesh {sx}×{sd} (n = {})", sx * sd);
        scale_rows(sx, sd, &net, 2, floor, &mut rows);
    }
    let mut scaling = Vec::new();
    if !scale_meshes.is_empty() {
        for name in [
            "cholesky",
            "assemble_covariance",
            "matmul",
            "distance_matrices",
        ] {
            let mut points: Vec<(usize, u64)> = rows
                .iter()
                .filter(|r| r.name == name)
                .map(|r| (r.n, r.optimized_median_ns))
                .collect();
            points.sort_unstable();
            let exponent = scaling_exponent(&points);
            let pts_json = points
                .iter()
                .map(|(pn, ns)| format!("[{pn},{ns}]"))
                .collect::<Vec<_>>()
                .join(",");
            scaling.push(format!(
                "{{\"name\":\"{name}\",\"points\":[{pts_json}],\"exponent\":{exponent:.3}}}"
            ));
        }
    }
    let _ = scale_start;

    // Flop-rate gauges through the fdw-obs registry: set from the timed
    // medians, then read back for the snapshot so the JSON reflects what
    // an observer subscribing to the registry would see.
    let obs = fdw_obs::Obs::metrics_only();
    for r in &rows {
        let flops = match r.name {
            "cholesky" => (r.n as f64).powi(3) / 3.0,
            "matmul" => 2.0 * (r.n as f64).powi(3),
            _ => continue,
        };
        let gname = format!("bench.{}.n{}.gflops", r.name, r.n);
        obs.gauge(&gname, flops / r.optimized_median_ns.max(1) as f64);
    }
    let mut gauge_json = Vec::new();
    for r in &rows {
        if matches!(r.name, "cholesky" | "matmul") {
            let gname = format!("bench.{}.n{}.gflops", r.name, r.n);
            if let Some(v) = obs.sink().and_then(|s| s.registry.gauge_value(&gname)) {
                gauge_json.push(format!("\"{gname}\":{v:.3}"));
            }
        }
    }

    let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    let stats = cache.stats();
    let digests_json = digests
        .iter()
        .map(|(t, d)| format!("{{\"threads\":{t},\"digest\":\"{d:016x}\"}}"))
        .collect::<Vec<_>>()
        .join(",");
    let doc = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"fdw-bench-kernels-v2\",\n",
            "  \"git_rev\": \"{}\",\n",
            "  \"smoke\": {},\n",
            "  \"machine\": {{\"os\": \"{}\", \"arch\": \"{}\", \"cpus\": {}}},\n",
            "  \"mesh\": {{\"nx\": {}, \"nd\": {}, \"n_subfaults\": {}}},\n",
            "  \"measure\": {{\"floor_ms\": {}, \"max_iters\": 1000}},\n",
            "  \"determinism\": {{\"oracles_bitwise\": true, \"threads_invariant\": {}, \"digests\": [{}]}},\n",
            "  \"factor_cache\": {{\"hits\": {}, \"misses\": {}}},\n",
            "  \"flop_rate_gflops\": {{{}}},\n",
            "  \"scaling\": [{}],\n",
            "  \"kernels\": [\n    {}\n  ]\n",
            "}}\n"
        ),
        fdw_bench::git_rev(),
        smoke,
        std::env::consts::OS,
        std::env::consts::ARCH,
        cpus,
        nx,
        nd,
        n,
        floor_ms,
        invariant,
        digests_json,
        stats.hits,
        stats.misses,
        gauge_json.join(","),
        scaling.join(","),
        rows.iter()
            .map(KernelRow::to_json)
            .collect::<Vec<_>>()
            .join(",\n    "),
    );
    fdw_obs::json::validate(&doc).expect("snapshot JSON must parse");

    for r in &rows {
        eprintln!(
            "  {:<28} n={:<4} {:>12} ns -> {:>12} ns  ({:.2}x)",
            r.name,
            r.n,
            r.baseline_median_ns,
            r.optimized_median_ns,
            r.speedup()
        );
    }

    let out = std::env::var("FDW_BENCH_OUT").unwrap_or_else(|_| "BENCH_kernels.json".into());
    std::fs::write(&out, &doc).expect("write snapshot");
    println!("wrote {out}");
}
