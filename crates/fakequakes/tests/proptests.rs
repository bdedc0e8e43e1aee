//! Property-based tests of the fakequakes crate's core invariants.

use proptest::prelude::*;

use fakequakes::distance::DistanceMatrices;
use fakequakes::geo::{EnuPoint, GeoPoint, LocalFrame};
use fakequakes::geometry::{moment_from_mw, mw_from_moment, FaultModel, ScalingLaw};
use fakequakes::linalg::Matrix;
use fakequakes::mseed::{crc32, MseedFile};
use fakequakes::npy;
use fakequakes::rupture::{RuptureConfig, RuptureGenerator};
use fakequakes::stations::StationNetwork;
use fakequakes::stf::StfKind;
use fakequakes::stochastic::{
    assemble_covariance, field_stats, standard_normal, CorrelatedField, FactorCache, FieldMethod,
};
use fakequakes::vonkarman::{von_karman_kernel, VonKarman};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The bit-at-a-time CRC-32 the table-driven `crc32` must reproduce.
fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

fn finite_f64() -> impl Strategy<Value = f64> {
    // Payload values that survive exact roundtrips.
    prop_oneof![
        -1e12f64..1e12,
        Just(0.0),
        Just(-0.0),
        Just(f64::MAX),
        Just(f64::MIN_POSITIVE),
    ]
}

proptest! {
    #[test]
    fn geo_distance_is_a_symmetric_nonnegative_form(
        lon1 in -75.0..-68.0f64, lat1 in -40.0..-17.0f64, d1 in 0.0..80.0f64,
        lon2 in -75.0..-68.0f64, lat2 in -40.0..-17.0f64, d2 in 0.0..80.0f64,
    ) {
        let a = GeoPoint::new(lon1, lat1, d1);
        let b = GeoPoint::new(lon2, lat2, d2);
        let ab = a.distance_3d_km(&b);
        let ba = b.distance_3d_km(&a);
        prop_assert!(ab >= 0.0);
        prop_assert!((ab - ba).abs() < 1e-9);
        // 3-D distance dominates both the surface separation and the
        // depth difference.
        prop_assert!(ab + 1e-9 >= (d1 - d2).abs());
        prop_assert!(ab + 1e-9 >= a.surface_distance_km(&b));
    }

    #[test]
    fn local_frame_roundtrips(
        lon in -75.0..-68.0f64, lat in -40.0..-17.0f64, depth in 0.0..80.0f64,
        olon in -75.0..-68.0f64, olat in -40.0..-17.0f64,
    ) {
        let frame = LocalFrame::new(GeoPoint::new(olon, olat, 0.0));
        let p = GeoPoint::new(lon, lat, depth);
        let back = frame.unproject(&frame.project(&p));
        prop_assert!((back.lon - p.lon).abs() < 1e-9);
        prop_assert!((back.lat - p.lat).abs() < 1e-9);
        prop_assert!((back.depth_km - p.depth_km).abs() < 1e-9);
    }

    #[test]
    fn enu_norm_exceeds_components(e in -500.0..500.0f64, n in -500.0..500.0f64, u in -80.0..0.0f64) {
        let p = EnuPoint { e, n, u };
        prop_assert!(p.norm() + 1e-12 >= p.horizontal_norm());
        prop_assert!(p.norm() + 1e-12 >= u.abs());
    }

    #[test]
    fn moment_magnitude_bijection(mw in 6.0..9.5f64) {
        prop_assert!((mw_from_moment(moment_from_mw(mw)) - mw).abs() < 1e-9);
    }

    #[test]
    fn scaling_laws_monotone(mw in 6.0..9.4f64, dmw in 0.01..0.5f64) {
        let s = ScalingLaw::default();
        prop_assert!(s.length_km(mw + dmw) > s.length_km(mw));
        prop_assert!(s.width_km(mw + dmw) > s.width_km(mw));
    }

    #[test]
    fn von_karman_kernel_bounded_and_decreasing(
        h in 0.05..1.0f64,
        x in 0.0..50.0f64,
        dx in 0.01..5.0f64,
    ) {
        let g1 = von_karman_kernel(x, h);
        let g2 = von_karman_kernel(x + dx, h);
        prop_assert!((0.0..=1.0).contains(&g1));
        prop_assert!(g2 <= g1 + 1e-9, "kernel increased: G({x})={g1} G({})={g2}", x + dx);
    }

    #[test]
    fn stf_cumulative_is_a_cdf(kind in 0usize..3, rise in 0.5..30.0f64, t in 0.0..100.0f64) {
        let stf = [StfKind::Dreger, StfKind::Cosine, StfKind::Triangle][kind];
        let c = stf.cumulative(t, rise);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&c));
        prop_assert!(stf.cumulative(t + 1.0, rise) + 1e-9 >= c);
        prop_assert!(stf.rate(t, rise) >= 0.0);
    }

    #[test]
    fn npy_roundtrip_arbitrary_matrices(
        rows in 1usize..12,
        cols in 1usize..12,
        seedvals in proptest::collection::vec(finite_f64(), 1..144),
    ) {
        let m = Matrix::from_fn(rows, cols, |i, j| {
            seedvals[(i * cols + j) % seedvals.len()]
        });
        let back = npy::from_npy_bytes(&npy::to_npy_bytes(&m)).unwrap();
        prop_assert_eq!(back, m);
    }

    #[test]
    fn mseed_roundtrip_arbitrary_records(
        recs in proptest::collection::vec(
            ("[A-Z]{1,6}\\.[A-Z]{2,3}", 0.01..10.0f64,
             proptest::collection::vec(finite_f64(), 0..64)),
            0..8,
        )
    ) {
        let mut f = MseedFile::new();
        for (code, dt, samples) in &recs {
            f.push(code.clone(), *dt, samples.clone());
        }
        let bytes = f.to_bytes().unwrap();
        prop_assert_eq!(bytes.len(), f.nbytes());
        let back = MseedFile::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, f);
    }

    #[test]
    fn crc_detects_any_single_bit_flip(
        data in proptest::collection::vec(any::<u8>(), 1..128),
        bit in any::<u16>(),
    ) {
        let mut corrupted = data.clone();
        let idx = (bit as usize / 8) % corrupted.len();
        corrupted[idx] ^= 1 << (bit % 8);
        prop_assert_ne!(crc32(&data), crc32(&corrupted));
    }

    #[test]
    fn crc_matches_bitwise_oracle(
        buf in proptest::collection::vec(any::<u8>(), 316),
        offset in 0usize..16,
    ) {
        // Every length 0..=300 (each remainder mod 8, many times over)
        // at an arbitrary, usually unaligned, start.
        for len in 0..=300 {
            let data = &buf[offset..offset + len];
            prop_assert_eq!(crc32(data), crc32_bitwise(data), "len {}", len);
        }
    }

    #[test]
    fn cholesky_reconstructs_random_spd(
        n in 2usize..8,
        vals in proptest::collection::vec(-1.0..1.0f64, 64),
    ) {
        // A = B B^T + n*I is SPD for any B.
        let b = Matrix::from_fn(n, n, |i, j| vals[(i * n + j) % vals.len()]);
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let mut s = if i == j { n as f64 } else { 0.0 };
                for k in 0..n {
                    s += b[(i, k)] * b[(j, k)];
                }
                a[(i, j)] = s;
            }
        }
        let l = a.cholesky().unwrap();
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += l[(i, k)] * l[(j, k)];
                }
                prop_assert!((s - a[(i, j)]).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn field_stats_bounds(xs in proptest::collection::vec(-1e6..1e6f64, 0..64)) {
        let st = field_stats(&xs);
        if !xs.is_empty() {
            prop_assert!(st.min <= st.mean + 1e-9);
            prop_assert!(st.mean <= st.max + 1e-9);
            prop_assert!(st.std >= 0.0);
            prop_assert!(st.std <= (st.max - st.min) + 1e-9);
        }
    }

    #[test]
    fn station_file_roundtrip_arbitrary_networks(n in 1usize..40, seed in any::<u64>()) {
        let net = StationNetwork::chilean(n, seed).unwrap();
        let parsed =
            StationNetwork::from_station_file("p", &net.to_station_file()).unwrap();
        prop_assert_eq!(parsed.len(), n);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn rupture_invariants_hold_for_any_seed(
        seed in any::<u64>(),
        id in 0u64..1000,
        mw in 7.5..9.0f64,
    ) {
        let fault = FaultModel::chilean_subduction(12, 6).unwrap();
        let net = StationNetwork::chilean(2, 1).unwrap();
        let d = DistanceMatrices::compute(&fault, &net);
        let gen = RuptureGenerator::new(
            &fault,
            &d.subfault_to_subfault,
            RuptureConfig { mw_range: (mw, mw), ..Default::default() },
        )
        .unwrap();
        let r = gen.generate(seed, id);
        // Moment matches target magnitude exactly after rescaling.
        prop_assert!((mw_from_moment(r.moment(&fault)) - mw).abs() < 1e-6);
        // Hypocentre slips and starts at t=0.
        prop_assert!(r.slip_m[r.hypocenter_idx] > 0.0);
        prop_assert!(r.onset_s[r.hypocenter_idx].abs() < 1e-9);
        // Slip nonnegative everywhere; onset finite exactly on the patch.
        for i in 0..fault.len() {
            prop_assert!(r.slip_m[i] >= 0.0);
            prop_assert_eq!(r.slip_m[i] > 0.0, r.onset_s[i].is_finite());
        }
        prop_assert!(r.duration_s().is_finite());
    }

    #[test]
    fn truncated_kl_draw_matches_full_eigen_truncation(
        seed in any::<u64>(),
        nx in 4usize..8,
        nd in 3usize..6,
        modes in 1usize..4,
    ) {
        // The fast top-k path behind `FieldMethod::KarhunenLoeve` must
        // draw the same field the full eigendecomposition would after
        // keeping the same modes.
        let fault = FaultModel::chilean_subduction(nx, nd).unwrap();
        let net = StationNetwork::chilean(2, 1).unwrap();
        let d = DistanceMatrices::compute(&fault, &net);
        let n = fault.len();
        let k = modes.min(n);
        let kernel = VonKarman::default();
        let cov = assemble_covariance(&d.subfault_to_subfault, &kernel);
        let (vals, vecs) = cov.symmetric_eigen().unwrap();
        // Near-degenerate retained modes admit basis rotations the two
        // solvers may resolve differently; only well-separated spectra
        // pin the eigenvectors down to sign canonicalisation.
        let scale = vals[0].abs().max(1e-12);
        for m in 0..k {
            prop_assume!((vals[m] - vals[m + 1]).abs() / scale > 1e-6);
        }
        let field = CorrelatedField::from_distances(
            &d.subfault_to_subfault,
            &kernel,
            FieldMethod::KarhunenLoeve { modes: k },
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let draw = field.sample(&mut rng);
        // Reference draw: full eigendecomposition, truncated to the same
        // modes, applied to the same normal deviates.
        let mut rng_ref = StdRng::seed_from_u64(seed);
        let z: Vec<f64> = (0..k).map(|_| standard_normal(&mut rng_ref)).collect();
        for i in 0..n {
            let want: f64 = (0..k)
                .map(|m| vecs[(i, m)] * vals[m].max(0.0).sqrt() * z[m])
                .sum();
            prop_assert!(
                (draw[i] - want).abs() < 1e-7 * scale.max(1.0),
                "component {i}: truncated {} vs full {want}",
                draw[i]
            );
        }
    }

    #[test]
    fn recycled_factor_draw_is_bit_identical_to_fresh(
        seed in any::<u64>(),
        id in 0u64..500,
        cholesky in any::<bool>(),
    ) {
        let fault = FaultModel::chilean_subduction(8, 4).unwrap();
        let net = StationNetwork::chilean(2, 1).unwrap();
        let d = DistanceMatrices::compute(&fault, &net);
        let cfg = RuptureConfig {
            method: if cholesky {
                FieldMethod::Cholesky
            } else {
                FieldMethod::KarhunenLoeve { modes: 8 }
            },
            ..Default::default()
        };
        let fresh =
            RuptureGenerator::new(&fault, &d.subfault_to_subfault, cfg.clone()).unwrap();
        let cache = FactorCache::new();
        // Warm the cache, then build a second generator that must hit it.
        RuptureGenerator::new_cached(&fault, &d.subfault_to_subfault, cfg.clone(), &cache)
            .unwrap();
        let cached =
            RuptureGenerator::new_cached(&fault, &d.subfault_to_subfault, cfg, &cache).unwrap();
        prop_assert!(cache.stats().hits >= 1, "second build must hit the cache");
        let a = fresh.generate(seed, id);
        let b = cached.generate(seed, id);
        prop_assert_eq!(a.slip_m, b.slip_m);
        prop_assert_eq!(a.onset_s, b.onset_s);
        prop_assert_eq!(a.rise_time_s, b.rise_time_s);
        prop_assert_eq!(a.hypocenter_idx, b.hypocenter_idx);
    }
}
