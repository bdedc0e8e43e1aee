//! Integration gates for the portable SIMD lane layer (`fakequakes::simd`)
//! and the cache-blocked kernels built on it.
//!
//! Three invariants are pinned here, per DESIGN.md §13:
//!
//! 1. every laned/blocked kernel is **bitwise identical** to its scalar
//!    reference twin — at small sizes, at the acceptance scale (n = 240),
//!    and at sizes that exercise the remainder lanes (n ≢ 0 mod 4);
//! 2. results are **invariant to the thread count**: the same kernels run
//!    under rayon pools of 1, 2 and 8 threads (the FDW_THREADS settings
//!    the suite maps onto rayon) fold identical digests;
//! 3. the laned Bessel quadrature agrees with its scalar instantiation
//!    lane-for-lane, including out-of-range substitution lanes.

use fakequakes::distance::DistanceMatrices;
use fakequakes::geometry::FaultModel;
use fakequakes::linalg::Matrix;
use fakequakes::simd;
use fakequakes::stations::{ChileanInput, StationNetwork};
use fakequakes::stochastic::{assemble_covariance, assemble_covariance_seq};
use fakequakes::vonkarman::{bessel_k_fractional, bessel_k_fractional_x4, VonKarman};
use fdw_obs::digest::{fnv1a_word, DIGEST_INIT};
use proptest::prelude::*;

fn pattern_vec(len: usize, salt: usize) -> Vec<f64> {
    (0..len)
        .map(|i| ((i * 7 + salt * 13) % 23) as f64 * 0.37 - 3.1)
        .collect()
}

fn spd_matrix(n: usize) -> Matrix {
    // B·Bᵀ scaled plus a dominant diagonal: well-conditioned SPD at any n.
    let b = Matrix::from_fn(n, n, |i, j| ((i * 5 + j * 11) % 13) as f64 * 0.1 - 0.6);
    let mut m = b.matmul(&b.transpose()).unwrap();
    for i in 0..n {
        m[(i, i)] += n as f64;
    }
    m
}

proptest! {
    #[test]
    fn dot_matches_reference_bitwise_any_length(
        len in 0usize..70,
        salt in 0usize..32,
    ) {
        let a = pattern_vec(len, salt);
        let b = pattern_vec(len, salt + 1);
        prop_assert_eq!(
            simd::dot(&a, &b).to_bits(),
            simd::dot_reference(&a, &b).to_bits()
        );
    }

    #[test]
    fn lane_sum_matches_reference_bitwise_any_length(
        len in 0usize..70,
        salt in 0usize..32,
    ) {
        let x = pattern_vec(len, salt);
        prop_assert_eq!(
            simd::lane_sum(&x).to_bits(),
            simd::lane_sum_reference(&x).to_bits()
        );
    }

    #[test]
    fn matmul_matches_reference_bitwise_random_shapes(
        m in 1usize..12,
        k in 1usize..40,
        n in 1usize..12,
        salt in 0usize..16,
    ) {
        let a = Matrix::from_fn(m, k, |i, j| ((i * 3 + j * 7 + salt) % 17) as f64 * 0.2 - 1.1);
        let b = Matrix::from_fn(k, n, |i, j| ((i * 5 + j * 2 + salt) % 19) as f64 * 0.3 - 2.0);
        let blocked = a.matmul(&b).unwrap();
        let reference = a.matmul_reference(&b).unwrap();
        prop_assert_eq!(blocked.as_slice(), reference.as_slice());
    }

    #[test]
    fn laned_bessel_matches_scalar_lane_for_lane(
        x0 in 0.01f64..50.0, x1 in 0.01f64..50.0,
        x2 in 0.01f64..50.0, x3 in 0.01f64..50.0,
        hurst in 0.05f64..0.95,
    ) {
        let xs = [x0, x1, x2, x3];
        let lanes = bessel_k_fractional_x4(hurst, xs);
        for l in 0..4 {
            prop_assert_eq!(
                lanes[l].to_bits(),
                bessel_k_fractional(hurst, xs[l]).to_bits()
            );
        }
    }
}

/// The acceptance scale plus the sizes that stress remainder lanes:
/// one over a quad boundary (241) and a stripe-plus-tail size (243).
#[test]
fn kernels_match_reference_bitwise_at_acceptance_scale() {
    for n in [240usize, 241, 243] {
        let a = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 3) % 11) as f64 * 0.1 - 0.5);
        let b = Matrix::from_fn(n, n, |i, j| ((i * 5 + j * 13) % 7) as f64 * 0.2 - 0.6);
        assert_eq!(
            a.matmul(&b).unwrap().as_slice(),
            a.matmul_reference(&b).unwrap().as_slice(),
            "matmul mismatch at n={n}"
        );
        let v = pattern_vec(n, 3);
        assert_eq!(
            a.matvec(&v),
            a.matvec_reference(&v),
            "matvec mismatch at n={n}"
        );
        let spd = spd_matrix(n);
        assert_eq!(
            spd.cholesky().unwrap().as_slice(),
            spd.cholesky_reference().unwrap().as_slice(),
            "cholesky mismatch at n={n}"
        );
    }
}

/// Covariance assembly on a mesh whose row remainders are ≢ 0 mod 4 —
/// every row of the upper triangle ends in a partial quad somewhere.
#[test]
fn covariance_matches_scalar_oracle_on_odd_mesh() {
    let fault = FaultModel::chilean_subduction(9, 7).unwrap(); // n = 63
    let net = StationNetwork::chilean_input(ChileanInput::Small, 1);
    let d = DistanceMatrices::compute(&fault, &net);
    let vk = VonKarman::default();
    let laned = assemble_covariance(&d.subfault_to_subfault, &vk);
    let scalar = assemble_covariance_seq(&d.subfault_to_subfault, &vk);
    assert_eq!(laned.as_slice(), scalar.as_slice());
}

/// Explicit remainder-lane cases: every split of a 16-element stripe, a
/// quad, and a scalar tail shows up in one of these lengths.
#[test]
fn dot_remainder_lanes_explicit() {
    for len in [
        0usize, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 19, 20, 31, 32, 33, 47, 63,
    ] {
        let a = pattern_vec(len, 5);
        let b = pattern_vec(len, 9);
        assert_eq!(
            simd::dot(&a, &b).to_bits(),
            simd::dot_reference(&a, &b).to_bits(),
            "dot mismatch at len={len}"
        );
        assert_eq!(
            simd::lane_sum(&a).to_bits(),
            simd::lane_sum_reference(&a).to_bits(),
            "lane_sum mismatch at len={len}"
        );
    }
}

fn kernel_digest() -> u64 {
    let fault = FaultModel::chilean_subduction(12, 5).unwrap();
    let net = StationNetwork::chilean(6, 1).unwrap();
    let d = DistanceMatrices::compute(&fault, &net);
    let vk = VonKarman::default();
    let cov = assemble_covariance(&d.subfault_to_subfault, &vk);
    let chol = cov.cholesky().unwrap();
    let n = fault.len();
    let a = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 3) % 11) as f64 * 0.1 - 0.5);
    let prod = a.matmul(&cov).unwrap();
    let mv = cov.matvec(&pattern_vec(n, 2));
    [
        d.subfault_to_subfault.as_slice(),
        d.station_to_subfault.as_slice(),
        cov.as_slice(),
        chol.as_slice(),
        prod.as_slice(),
        &mv,
    ]
    .into_iter()
    .flatten()
    .fold(DIGEST_INIT, |h, x| fnv1a_word(h, x.to_bits()))
}

/// The full kernel chain folds the same digest under FDW_THREADS 1, 2
/// and 8. The thread-count knob is read once per process (a OnceLock in
/// the rayon shim), so each setting runs in a re-executed child of this
/// test binary; child mode just prints the digest and exits.
#[test]
fn kernel_outputs_invariant_under_thread_count() {
    if std::env::var("FDW_LANES_CHILD").is_ok() {
        println!("digest={:016x}", kernel_digest());
        return;
    }
    let exe = std::env::current_exe().expect("test binary path");
    let mut digests = Vec::new();
    for threads in [1usize, 2, 8] {
        let out = std::process::Command::new(&exe)
            .args([
                "--exact",
                "kernel_outputs_invariant_under_thread_count",
                "--nocapture",
            ])
            .env("FDW_LANES_CHILD", "1")
            .env("FDW_THREADS", threads.to_string())
            .output()
            .expect("spawn digest child");
        assert!(
            out.status.success(),
            "child (FDW_THREADS={threads}) failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        // libtest may interleave its own "test ... ok" prefix on the same
        // line, so scan for the marker rather than anchoring at col 0.
        let digest = text
            .lines()
            .find_map(|l| l.find("digest=").map(|p| &l[p + 7..p + 23]))
            .and_then(|d| u64::from_str_radix(d, 16).ok())
            .expect("child digest line");
        digests.push(digest);
    }
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "digests differ across FDW_THREADS: {digests:x?}"
    );
}
