//! Workspace-wide determinism: identical seeds must reproduce identical
//! results across every layer — the property DESIGN.md §5 promises and
//! the paper's "3 replications" methodology depends on.

use fdw_suite::fakequakes::prelude::*;
use fdw_suite::fdw_core::prelude::*;
use fdw_suite::htcsim::cluster::ClusterConfig;
use fdw_suite::htcsim::pool::PoolConfig;
use fdw_suite::vdc_burst::prelude::*;

fn cluster() -> ClusterConfig {
    ClusterConfig {
        pool: PoolConfig {
            target_slots: 64,
            glidein_slots: 8,
            ..Default::default()
        },
        cache_enabled: true,
        max_evictions_per_job: 0,
        faults: Default::default(),
        defense: Default::default(),
        federation: Default::default(),
        shards: 1,
    }
}

#[test]
fn full_stack_replay_is_bit_identical() {
    let cfg = FdwConfig::parse("station_input = small\nn_waveforms = 96\n").unwrap();
    let run = || {
        let out = run_fdw(&cfg, cluster(), 11).unwrap();
        let jobs_csv = out.report.log.jobs_csv(out.report.name_of());
        let batch_csv = out.report.log.batch_csv();
        (
            out.report.makespan,
            out.report.evictions,
            batch_csv,
            jobs_csv,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "makespan");
    assert_eq!(a.1, b.1, "evictions");
    assert_eq!(a.2, b.2, "batch CSV");
    assert_eq!(a.3, b.3, "jobs CSV");
}

#[test]
fn bursting_replay_is_deterministic() {
    let cfg = FdwConfig::parse("station_input = small\nn_waveforms = 96\n").unwrap();
    let out = run_fdw(&cfg, cluster(), 13).unwrap();
    let input = BatchInput::from_report(&out.report).unwrap();
    let policies = BurstPolicies::paper_sweep(5, 90);
    let x = simulate(&input, &policies).unwrap();
    let y = simulate(&input, &policies).unwrap();
    assert_eq!(x.bursted_jobs, y.bursted_jobs);
    assert_eq!(x.runtime_secs, y.runtime_secs);
    assert_eq!(x.instant_series, y.instant_series);
}

#[test]
fn science_is_seed_stable_across_catalog_sizes() {
    // Scenario k of a batch must not depend on how many other scenarios
    // the batch contains — the contract that lets the FDW partition the
    // id space across jobs arbitrarily.
    let fault = FaultModel::chilean_subduction(10, 5).unwrap();
    let net = StationNetwork::chilean(3, 2).unwrap();
    let wcfg = WaveformConfig {
        duration_s: 64.0,
        noise: NoiseModel::none(),
        ..Default::default()
    };
    let small = generate_catalog(
        &fault,
        &net,
        None,
        None,
        RuptureConfig::default(),
        wcfg,
        2,
        9,
    )
    .unwrap();
    let large = generate_catalog(
        &fault,
        &net,
        None,
        None,
        RuptureConfig::default(),
        wcfg,
        6,
        9,
    )
    .unwrap();
    for k in 0..2 {
        assert_eq!(small.scenarios[k].slip_m, large.scenarios[k].slip_m);
        for (a, b) in small.waveforms[k].iter().zip(&large.waveforms[k]) {
            assert_eq!(a.east_m, b.east_m);
        }
    }
}

#[test]
fn telemetry_exports_are_byte_identical_across_replays() {
    // The observability layer must add zero nondeterminism: two same-seed
    // runs export byte-identical Chrome traces, registry JSON, and
    // .dag.metrics documents. This is what makes a trace diffable as a
    // regression artifact.
    let cfg = FdwConfig::parse("station_input = small\nn_waveforms = 96\n").unwrap();
    let run = || {
        let obs = Obs::enabled();
        let out = run_concurrent_fdw_with_obs(&cfg, 2, 96, cluster(), 17, &obs).unwrap();
        (obs.chrome_trace(), obs.registry_json(), out.dag_metrics)
    };
    let (trace_a, reg_a, dm_a) = run();
    let (trace_b, reg_b, dm_b) = run();
    assert_eq!(trace_a, trace_b, "Chrome trace");
    assert_eq!(reg_a, reg_b, "registry JSON");
    assert_eq!(dm_a, dm_b, ".dag.metrics documents");
    // And the artifacts are well-formed, not just stable.
    fdw_suite::fdw_obs::json::validate(&trace_a).unwrap();
    fdw_suite::fdw_obs::json::validate(&reg_a).unwrap();
    for doc in &dm_a {
        fdw_suite::fdw_obs::json::validate(doc).unwrap();
    }
    assert_eq!(dm_a.len(), 2, "one .dag.metrics per DAGMan");
}

#[test]
fn chaos_telemetry_is_byte_identical_across_replays() {
    let cfg = FdwConfig::parse(
        "station_input = small\nn_waveforms = 8\nruptures_per_job = 2\nwaveforms_per_job = 2\n\
         fault_nx = 10\nfault_nd = 5\nretries = 3\nretry_defer_s = 30\nseed = 5\n",
    )
    .unwrap();
    let run = || {
        let obs = Obs::enabled();
        let rep = run_chaos_campaign_with_obs(
            FaultClass::TransferFail,
            0.6,
            &cfg,
            &chaos_cluster_config(),
            4,
            &obs,
        )
        .unwrap();
        (obs.chrome_trace(), obs.registry_json(), rep.round_metrics)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "chaos telemetry replay");
}

#[test]
fn parallel_covariance_and_distance_npy_bytes_match_sequential() {
    // The blocked/parallel kernels must not change a single bit of the
    // serialised science artifacts relative to their sequential oracles.
    use fdw_suite::fakequakes::{artifacts, npy, stochastic, vonkarman::VonKarman};
    let fault = FaultModel::chilean_subduction(12, 6).unwrap();
    let net = StationNetwork::chilean(4, 3).unwrap();
    let par = DistanceMatrices::compute(&fault, &net);
    let seq = DistanceMatrices::compute_seq(&fault, &net);
    assert_eq!(
        artifacts::distance_matrices_to_npy(&par),
        artifacts::distance_matrices_to_npy(&seq),
        "distance-matrix .npy bytes"
    );
    let kernel = VonKarman::default();
    let cov_par = stochastic::assemble_covariance(&par.subfault_to_subfault, &kernel);
    let cov_seq = stochastic::assemble_covariance_seq(&seq.subfault_to_subfault, &kernel);
    assert_eq!(
        npy::to_npy_bytes(&cov_par),
        npy::to_npy_bytes(&cov_seq),
        "covariance .npy bytes"
    );
}

#[test]
fn parallel_waveform_mseed_bytes_match_sequential() {
    use fdw_suite::fakequakes::{artifacts, mseed::MseedFile, waveform};
    use fdw_suite::fdw_obs::digest::{digest_fold, DIGEST_INIT};
    let fault = FaultModel::chilean_subduction(10, 5).unwrap();
    let net = StationNetwork::chilean(4, 2).unwrap();
    let dists = DistanceMatrices::compute(&fault, &net);
    let gfs = GfLibrary::compute(&fault, &net).unwrap();
    let generator = RuptureGenerator::new(
        &fault,
        &dists.subfault_to_subfault,
        RuptureConfig::default(),
    )
    .unwrap();
    let scenario = generator.generate(3, 1);
    let to_bytes = |wfs: &[GnssWaveform]| {
        let mut f = MseedFile::new();
        for w in wfs {
            artifacts::waveform_to_mseed(&mut f, w);
        }
        f.to_bytes().unwrap()
    };
    // Each STF over the default 512-s record, long enough to reach the
    // subfaults' settled tails. The digests were recorded with the STF
    // evaluated at every sample and a bitwise CRC-32, so the settled-tail
    // split and the table-driven CRC must reproduce those bytes exactly.
    for (stf, pinned) in [
        (StfKind::Dreger, 0xadf4_67d8_86a8_1157),
        (StfKind::Cosine, 0x5cc0_8b5f_7471_0754),
        (StfKind::Triangle, 0xbe59_bc25_88d6_877d),
    ] {
        let cfg = WaveformConfig {
            stf,
            ..Default::default()
        };
        let par = waveform::synthesize_all_stations(
            &fault,
            &gfs,
            &dists.station_to_subfault,
            &scenario,
            &cfg,
            5,
        )
        .unwrap();
        let seq = waveform::synthesize_all_stations_seq(
            &fault,
            &gfs,
            &dists.station_to_subfault,
            &scenario,
            &cfg,
            5,
        )
        .unwrap();
        let bytes = to_bytes(&par);
        assert_eq!(
            bytes,
            to_bytes(&seq),
            "{} waveform .mseed bytes",
            stf.label()
        );
        let digest = bytes
            .chunks(8)
            .map(|w| {
                let mut word = [0u8; 8];
                word[..w.len()].copy_from_slice(w);
                u64::from_le_bytes(word)
            })
            .fold(digest_fold(DIGEST_INIT, bytes.len() as u64), digest_fold);
        assert_eq!(digest, pinned, "{} waveform .mseed digest", stf.label());
    }
}

#[test]
fn fnv1a_matches_the_published_vectors() {
    use fdw_suite::fdw_obs::digest::{fnv1a, DIGEST_INIT};
    assert_eq!(fnv1a(DIGEST_INIT, b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(DIGEST_INIT, b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a(DIGEST_INIT, b"foobar"), 0x8594_4171_f739_67e8);
}

#[test]
fn lane_seeds_and_science_digests_are_pinned() {
    // Each caller of fdw_obs::digest folds with one variant: byte-wise
    // for lane seeds and the chaos and service science digests, the DES
    // fold around the service's per-campaign hashes. These values were
    // recorded before the folds moved into one module, so a caller that
    // picks up the wrong variant fails here.
    use fdw_suite::fdw_core::chaos::baseline_digest;
    use fdw_suite::fdw_core::service::run_service_campaign;
    use fdw_suite::fdw_service::config::ServiceConfig;
    use fdw_suite::fdw_service::request::WorkloadConfig;
    use fdw_suite::htcsim::fault::lane_seed;
    assert_eq!(lane_seed(1, 0), 0x0539_8ef6_43fb_6e5c);
    assert_eq!(lane_seed(9, 3), 0x06db_56de_ab4c_6140);
    assert_eq!(lane_seed(0xdead_beef, 63), 0xa785_cf43_07f9_ecd7);

    let cfg = FdwConfig::parse(
        "station_input = 2\nn_waveforms = 4\nruptures_per_job = 2\nwaveforms_per_job = 2\n\
         fault_nx = 10\nfault_nd = 5\nseed = 5\n",
    )
    .unwrap();
    assert_eq!(baseline_digest(&cfg).unwrap(), 0x133b_eb39_d853_1735);

    let wl = WorkloadConfig {
        seed: 11,
        campaigns: 24,
        classes: 2,
        overload_x: 3.0,
        replicas: 2,
        ..Default::default()
    };
    let report = run_service_campaign(&ServiceConfig::defended(3), &wl, 2, 60, 2).unwrap();
    assert_eq!(report.science.campaigns, 24);
    assert_eq!(report.science.digest, 0x3115_2500_feba_a80d);
}

#[test]
fn different_seeds_give_different_worlds() {
    let cfg = FdwConfig::parse("station_input = small\nn_waveforms = 96\n").unwrap();
    let a = run_fdw(&cfg, cluster(), 1).unwrap().report.makespan;
    let b = run_fdw(&cfg, cluster(), 2).unwrap().report.makespan;
    assert_ne!(a, b);
}

#[test]
fn glidein_churn_replay_is_byte_identical() {
    // Short-lived glideins depart mid-job and evict what they run. The
    // evicted jobs re-enter the idle queue in a fixed order, so two
    // same-seed runs must write byte-identical user logs.
    use fdw_suite::htcsim::condor_log::to_condor_log;
    let cfg = FdwConfig::parse("station_input = small\nn_waveforms = 400\n").unwrap();
    let mut churny = cluster();
    churny.pool.glidein_lifetime_s = 600.0;
    let run = || {
        let out = run_fdw(&cfg, churny.clone(), 11).unwrap();
        (out.report.evictions, to_condor_log(&out.report.log))
    };
    let (evictions_a, log_a) = run();
    let (evictions_b, log_b) = run();
    assert!(evictions_a > 0, "the pool must evict for this test to bite");
    assert_eq!(evictions_a, evictions_b, "evictions");
    assert!(log_a == log_b, "ULOG bytes differ between same-seed runs");
}
