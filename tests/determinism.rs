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

/// FNV-1a digest of a bursting outcome: its series, rates, counts, VDC
/// minutes and cost. The two slot figures are pinned beside it.
fn outcome_digest(o: &BurstOutcome) -> u64 {
    use fdw_suite::fdw_obs::digest::{fnv1a, fnv1a_f64, DIGEST_INIT};
    let h = fnv1a_f64(DIGEST_INIT, &o.instant_series);
    let h = fnv1a_f64(h, &[o.ait_jpm, o.vdc_minutes, o.cost_usd]);
    [
        o.runtime_secs,
        o.total_jobs as u64,
        o.bursted_jobs as u64,
        o.unfinished_jobs as u64,
    ]
    .iter()
    .fold(h, |h, x| fnv1a(h, &x.to_le_bytes()))
}

#[test]
fn bursting_replay_is_deterministic() {
    let cfg = FdwConfig::parse("station_input = small\nn_waveforms = 96\n").unwrap();
    let out = run_fdw(&cfg, cluster(), 13).unwrap();
    let input = BatchInput::from_report(&out.report).unwrap();

    let gap_capped = BurstPolicies {
        submission_gap: Some(SubmissionGapPolicy {
            max_gap_secs: 120,
            check_secs: 30,
        }),
        max_burst_fraction: Some(0.30),
        ..Default::default()
    };
    // The elastic controller at `elastic_bursting`'s parameters, over the
    // record and over two copies that each hold one incomplete record:
    // a job that started and never finished (the replay runs to its
    // day-past cap) and one that never started (the controller bursts it).
    let elastic = BurstPolicies {
        elastic: Some(ElasticPolicy {
            target_jpm: 20.0,
            control_period_s: 30,
            gain: 0.5,
            max_vdc_slots: 150,
            window_s: 300,
        }),
        ..Default::default()
    };
    let mut never_finished = input.clone();
    never_finished.jobs[0].terminate_s = None;
    let mut never_started = never_finished.clone();
    never_started.jobs[0].execute_s = None;

    // (case, batch, policies, outcome digest, peak and mean VDC slots)
    let cases = [
        (
            "control",
            &input,
            BurstPolicies::control(),
            0xff80_0b37_4b14_f052,
            0,
            0.0,
        ),
        (
            "paper_sweep(5, 90)",
            &input,
            BurstPolicies::paper_sweep(5, 90),
            0xff80_0b37_4b14_f052,
            0,
            0.0,
        ),
        // No job of this batch queues past 204 s, so only a 1-minute
        // queue limit makes Policy 2 fire.
        (
            "paper_sweep(5, 1)",
            &input,
            BurstPolicies::paper_sweep(5, 1),
            0xea7d_9f1a_2322_c3a5,
            33,
            4.6,
        ),
        (
            "policy 3, 0.30 cap",
            &input,
            gap_capped,
            0x5e4e_3873_b784_5a53,
            5,
            1.7323308270676692,
        ),
        (
            "elastic",
            &input,
            elastic,
            0x098e_4ddc_95ab_fb73,
            50,
            12.187158469945356,
        ),
        (
            "elastic, never-finished record",
            &never_finished,
            elastic,
            0xd647_cc2d_a588_4198,
            50,
            0.10162675719395776,
        ),
        (
            "elastic, never-started record",
            &never_started,
            elastic,
            0x9f27_b084_3582_eac5,
            50,
            12.579234972677595,
        ),
    ];
    for (name, batch, policies, pin, peak, mean) in cases {
        let x = simulate(batch, &policies).unwrap();
        let y = simulate(batch, &policies).unwrap();
        assert_eq!(format!("{x:?}"), format!("{y:?}"), "{name}");
        assert_eq!(outcome_digest(&x), pin, "{name}");
        assert_eq!((x.peak_vdc_slots, x.mean_vdc_slots), (peak, mean), "{name}");
    }
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
    assert_eq!(
        telemetry_digests(&trace_a, &reg_a, &dm_a),
        [
            0xa6ba_7514_1e2b_a348,
            0x394e_9068_9bb6_1bc5,
            0x0d08_a790_4b58_1159,
        ],
        "pinned trace, registry and .dag.metrics digests"
    );
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
    assert_eq!(
        telemetry_digests(&a.0, &a.1, &a.2),
        [
            0x3c59_dac3_5f6a_b9f8,
            0x2449_0c3e_25a4_f0ef,
            0x8d97_2f45_214d_3a71,
        ],
        "pinned trace, registry and .dag.metrics digests"
    );
}

/// FNV-1a digests of one run's exported telemetry: its Chrome trace, its
/// registry JSON, and its `.dag.metrics` documents folded in order.
fn telemetry_digests(trace: &str, registry: &str, dag_metrics: &[String]) -> [u64; 3] {
    use fdw_suite::fdw_obs::digest::{fnv1a, DIGEST_INIT};
    [
        fnv1a(DIGEST_INIT, trace.as_bytes()),
        fnv1a(DIGEST_INIT, registry.as_bytes()),
        dag_metrics
            .iter()
            .fold(DIGEST_INIT, |h, d| fnv1a(h, d.as_bytes())),
    ]
}

#[test]
fn defended_and_failover_telemetry_is_pinned() {
    // The pool-side scenarios behind `defended_run.log` and
    // `failover_run.log`, traced: the pins cover the defense
    // (blacklist, quarantine) and federation registry keys.
    use fdw_suite::htcsim::scenarios::{defended_run, failover_run};
    let digests = |run: fn(usize, Obs) -> fdw_suite::htcsim::cluster::RunReport| {
        let obs = Obs::enabled();
        run(1, obs.clone());
        let registry = obs.registry_json();
        (
            telemetry_digests(&obs.chrome_trace(), &registry, &[]),
            registry,
        )
    };
    let (defended, registry) = digests(defended_run);
    assert!(
        registry.contains("\"pool.defense.blacklists\""),
        "{registry}"
    );
    assert!(
        registry.contains("\"pool.defense.quarantines\""),
        "{registry}"
    );
    assert_eq!(
        defended[..2],
        [0x736a_482d_18fc_ca67, 0x103d_96f4_29d4_bd2a],
        "defended_run trace and registry digests"
    );
    let (failover, registry) = digests(failover_run);
    assert!(
        registry.contains("\"pool.federation.migrations\""),
        "{registry}"
    );
    assert_eq!(
        failover[..2],
        [0xf7cb_f728_b07e_ef8f, 0x672c_c721_9026_cc0b],
        "failover_run trace and registry digests"
    );
}

#[test]
fn speculative_chaos_telemetry_is_pinned() {
    // Straggler speculation on a churny pool with a wide machine-speed
    // spread, under a tight walltime limit: the campaign holds, retries,
    // evicts, speculates (both winners and losers), and needs a rescue
    // round, so the pins cover those registry keys too.
    let cfg = FdwConfig::parse(
        "station_input = small\nn_waveforms = 16\nruptures_per_job = 2\nwaveforms_per_job = 2\n\
         fault_nx = 10\nfault_nd = 5\nretries = 3\nretry_defer_s = 30\nseed = 5\n\
         speculation = true\n",
    )
    .unwrap();
    let mut cluster = chaos_cluster_config();
    cluster.pool.speed_sigma = 1.0;
    cluster.pool.glidein_slots = 1;
    cluster.pool.glidein_lifetime_s = 1_200.0;
    let obs = Obs::enabled();
    let rep =
        run_chaos_campaign_with_obs(FaultClass::Timeout, 0.3, &cfg, &cluster, 4, &obs).unwrap();
    assert_eq!((rep.rounds, rep.speculations), (2, 4));
    let registry = obs.registry_json();
    for key in [
        "pool.holds.walltime",
        "pool.evictions",
        "dagman.retries",
        "dagman.spec_wins",
        "dagman.spec_losses",
        "dagman.spec_wasted_s",
    ] {
        assert!(
            registry.contains(&format!("\"{key}\"")),
            "{key}: {registry}"
        );
    }
    assert_eq!(
        telemetry_digests(&obs.chrome_trace(), &registry, &rep.round_metrics),
        [
            0x7b75_d08d_ba65_42fd,
            0x6c67_dc47_4068_777d,
            0xdf72_9420_9407_127c,
        ],
        "pinned trace, registry and .dag.metrics digests"
    );
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
fn covariance_batches_match_sequential_at_every_pair_residue() {
    // The assembly feeds the kernel eight upper-triangle pairs at a time
    // and pads each leaf's last batch. The pair counts n(n-1)/2 of
    // n = 1..=8 take every residue mod 8, so that batch holds every live
    // lane count. A single down-dip column keeps every separation inside
    // the kernel's quadrature range.
    use fdw_suite::fakequakes::{stochastic, vonkarman::VonKarman};
    let kernel = VonKarman::default();
    let net = StationNetwork::chilean(4, 3).unwrap();
    let bits = |m: &[f64]| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let mut residues = std::collections::BTreeSet::new();
    for n in 1..=8usize {
        let fault = FaultModel::chilean_subduction(1, n).unwrap();
        let d = DistanceMatrices::compute(&fault, &net).subfault_to_subfault;
        let par = stochastic::assemble_covariance(&d, &kernel);
        let seq = stochastic::assemble_covariance_seq(&d, &kernel);
        assert_eq!(bits(par.as_slice()), bits(seq.as_slice()), "n = {n}");
        residues.insert(n * (n - 1) / 2 % 8);
    }
    assert_eq!(residues.len(), 8, "pair counts must cover every residue");
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
fn service_log_and_digests_are_pinned_at_one_and_two_threads() {
    // The defended front-end run of the test above, at DES threads 1 and
    // 2: its rendered user log and both engine digests. The log is built
    // post-run in (time, job, kind) order, so a change to how the
    // controller buffers or sorts its events fails here first.
    use fdw_suite::fdw_obs::digest::{fnv1a, DIGEST_INIT};
    use fdw_suite::fdw_service::config::ServiceConfig;
    use fdw_suite::fdw_service::engine::run_service;
    use fdw_suite::fdw_service::request::WorkloadConfig;
    use fdw_suite::htcsim::condor_log::to_condor_log;
    let wl = WorkloadConfig {
        seed: 11,
        campaigns: 24,
        classes: 2,
        overload_x: 3.0,
        replicas: 2,
        ..Default::default()
    };
    for threads in [1, 2] {
        let report = run_service(&ServiceConfig::defended(3), &wl, 2, 60, threads);
        let ulog = to_condor_log(&report.log);
        assert_eq!(
            [
                fnv1a(DIGEST_INIT, ulog.as_bytes()),
                report.decision_digest,
                report.engine_digest,
            ],
            [
                0x4dd5_65b9_e52c_58ed,
                0x6884_87c0_1789_3156,
                0xec51_b1d2_882a_b882,
            ],
            "pinned ULOG, decision and engine digests at {threads} threads"
        );
    }
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

#[test]
fn throttled_dagman_replay_is_pinned() {
    // Two DAGMans whose maxidle and maxjobs throttles bind, with transient
    // exits retried after a backoff, holds and straggler speculation on a
    // churny pool: every node transition the idle and in-flight tallies
    // count. The same run with either throttle off must submit
    // differently, or the pin would not bind it.
    use fdw_suite::fdw_obs::digest::{fnv1a, DIGEST_INIT};
    use fdw_suite::htcsim::condor_log::to_condor_log;
    let mut churny = cluster();
    churny.pool.glidein_lifetime_s = 600.0;
    churny.pool.speed_sigma = 1.0;
    let run = |max_idle: usize, max_jobs: usize| {
        let cfg = FdwConfig::parse(&format!(
            "station_input = small\nn_waveforms = 64\nruptures_per_job = 4\n\
             waveforms_per_job = 1\nmax_idle = {max_idle}\nmax_jobs = {max_jobs}\n\
             retries = 6\nretry_defer_s = 30\nfault_seed = 9\nfault_transient = 0.2\n\
             fault_hold = 0.1\nfault_hold_release_s = 120\nspeculation = true\n"
        ))
        .unwrap();
        run_concurrent_fdw(&cfg, 2, 64, churny.clone(), 23).unwrap()
    };
    let out = run(4, 6);
    assert!(out.report.evictions > 0, "the pool must evict");
    for doc in &out.dag_metrics {
        for zero in ["\"retries\":0,", "\"holds\":0,", "\"spec_wins\":0,"] {
            assert!(!doc.contains(zero), "{zero} in {doc}");
        }
    }
    let ulog = to_condor_log(&out.report.log);
    assert_eq!(
        [
            fnv1a(DIGEST_INIT, ulog.as_bytes()),
            fnv1a(DIGEST_INIT, out.dag_metrics[0].as_bytes()),
            fnv1a(DIGEST_INIT, out.dag_metrics[1].as_bytes()),
        ],
        [
            0xfa80_f232_3e8a_7b30,
            0x8dbd_8611_71c8_0526,
            0x8ab9_8bfd_52c5_7ebc,
        ],
        "pinned ULOG and .dag.metrics digests"
    );
    for (max_idle, max_jobs) in [(0, 6), (4, 0)] {
        let other = to_condor_log(&run(max_idle, max_jobs).report.log);
        assert!(other != ulog, "max_idle {max_idle}, max_jobs {max_jobs}");
    }
}

/// A rupture draws only its patch's rows of the slip field. Each drawn
/// row must equal the full draw's row (`==`: the sign of an exact zero may
/// differ, which `exp(σ·z)` cannot see), and the RNG must end in the full
/// draw's state, so later draws from the same stream match. Runs on the
/// Chile 32×16 and Cascadia 20×8 meshes; `method(n)` picks the
/// factorisation for an n-subfault mesh.
fn check_masked_draws(method: impl Fn(usize) -> FieldMethod) {
    use fdw_suite::fakequakes::stochastic::CorrelatedField;
    use fdw_suite::fakequakes::vonkarman::VonKarman;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let net = StationNetwork::chilean_input(ChileanInput::Small, 1);
    let meshes = [
        FaultModel::chilean_subduction(32, 16).unwrap(),
        FaultModel::cascadia_subduction(20, 8).unwrap(),
    ];
    for fault in &meshes {
        let n = fault.len();
        let dists = DistanceMatrices::compute(fault, &net).subfault_to_subfault;
        let kernel = VonKarman::for_rupture(300.0, 100.0, 0.75);
        let method = method(n);
        let field = CorrelatedField::from_distances(&dists, &kernel, method).unwrap();
        let hypo = (fault.n_strike() / 2) * fault.n_dip() + fault.n_dip() / 2;
        let edge_rect: Vec<bool> = fault
            .subfaults()
            .iter()
            .map(|sf| sf.along_strike < 4 && (1..4).contains(&sf.down_dip))
            .collect();
        let only = |i: usize| (0..n).map(|j| j == i).collect::<Vec<bool>>();
        let masks = [
            ("hypocentre", only(hypo)),
            ("first row", only(0)),
            ("last row", only(n - 1)),
            ("strike-edge rectangle", edge_rect),
            ("all rows", vec![true; n]),
        ];
        for (seed, (label, mask)) in masks.iter().enumerate() {
            let mut full_rng = StdRng::seed_from_u64(seed as u64);
            let mut masked_rng = StdRng::seed_from_u64(seed as u64);
            let full = field.sample(&mut full_rng);
            let masked = field.sample_rows(&mut masked_rng, mask);
            for i in 0..n {
                let want = if mask[i] { full[i] } else { 0.0 };
                assert!(
                    masked[i] == want,
                    "{} {method:?} {label}: row {i} {} vs {want}",
                    fault.name(),
                    masked[i]
                );
            }
            assert_eq!(
                masked_rng.gen::<u64>(),
                full_rng.gen::<u64>(),
                "{} {method:?} {label}: RNG state after the draw",
                fault.name()
            );
        }
    }
}

#[test]
fn masked_cholesky_draws_match_full_draws() {
    check_masked_draws(|_| FieldMethod::Cholesky);
}

#[test]
fn masked_karhunen_loeve_draws_match_full_draws() {
    check_masked_draws(|n| FieldMethod::KarhunenLoeve { modes: n / 2 });
}

#[test]
fn fnv1a_f64_zero_step_matches_the_byte_fold() {
    // fnv1a_f64 folds a +0.0 element with one multiply; every value must
    // still digest exactly as the byte-wise fold of its bit pattern.
    use fdw_suite::fdw_obs::digest::{fnv1a, fnv1a_f64, DIGEST_INIT};
    let byte_fold = |xs: &[f64]| {
        xs.iter()
            .fold(DIGEST_INIT, |h, x| fnv1a(h, &x.to_bits().to_le_bytes()))
    };
    let specials = [
        0.0,
        -0.0,
        f64::from_bits(0x7ff8_0000_0000_0000),
        f64::from_bits(0x7ff0_0000_0000_0001),
        f64::from_bits(0xfff8_dead_beef_0001),
        f64::from_bits(1),
        f64::from_bits(0x000f_ffff_ffff_ffff),
        -f64::from_bits(3),
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        1.0,
        -2.5e300,
    ];
    let mixed: Vec<f64> = (0..97)
        .map(|i| specials[(i * 7) % specials.len()])
        .collect();
    let mostly_zero: Vec<f64> = (0..64)
        .map(|i| {
            if i % 9 == 4 {
                -0.0
            } else if i % 13 == 5 {
                3.25
            } else {
                0.0
            }
        })
        .collect();
    for xs in [&specials[..], &mixed, &mostly_zero, &[], &[0.0; 8]] {
        assert_eq!(fnv1a_f64(DIGEST_INIT, xs), byte_fold(xs), "{xs:?}");
    }
    for h in [0, 1, u64::MAX, 0x1234_5678_9abc_def0] {
        assert_eq!(fnv1a_f64(h, &[0.0]), fnv1a(h, &[0; 8]));
    }
    assert_ne!(
        fnv1a_f64(DIGEST_INIT, &[0.0]),
        fnv1a_f64(DIGEST_INIT, &[-0.0])
    );
}

/// Every key group off its default: region, station count, STF, job
/// faults and pool faults, both defenses, speculation, federation with
/// checkpoints, a defended service front-end and DES shards.
fn all_groups_config() -> FdwConfig {
    use fdw_suite::fakequakes::stf::StfKind;
    use fdw_suite::fdw_core::config::Region;
    use fdw_suite::fdw_service::config::ServiceConfig;
    use fdw_suite::htcsim::fault::{FaultConfig, PoolFaultConfig};
    use fdw_suite::htcsim::federation::FederationConfig;
    use fdw_suite::htcsim::scoreboard::DefenseConfig;
    FdwConfig {
        region: Region::Cascadia,
        fault_nx: 24,
        fault_nd: 12,
        station_input: StationInput::Count(60),
        n_waveforms: 2_000,
        ruptures_per_job: 8,
        waveforms_per_job: 4,
        mw_range: (7.8, 8.6),
        stf: StfKind::Triangle,
        recycle_npy: true,
        max_idle: 250,
        max_jobs: 40,
        seed: 42,
        retries: 5,
        retry_defer_s: 90,
        job_timeout_s: 7_200,
        fault: FaultConfig {
            seed: 7,
            transient_exit_prob: 0.1,
            permanent_job_fraction: 0.02,
            black_hole_fraction: 0.05,
            transfer_fail_prob: 0.03,
            hold_prob: 0.04,
            corrupt_prob: 0.01,
            hold_release_s: 450.5,
            pool: PoolFaultConfig {
                outage_pool: 1,
                outage_start_s: 600.0,
                outage_duration_s: 1_800.0,
                partition_pool: 2,
                partition_start_s: 120.25,
                partition_duration_s: 900.0,
                preempt_prob: 0.35,
            },
        },
        defense: DefenseConfig {
            scoreboard_enabled: true,
            checksum_enabled: true,
        },
        speculation: true,
        federation: FederationConfig {
            enabled: true,
            failover_enabled: true,
            burst_idle_threshold: 12,
            checkpoint_enabled: true,
            checkpoint_interval_s: 90.0,
            cloud_spinup_s: 240.0,
        },
        service: ServiceConfig::defended(4),
        des_shards: 8,
    }
}

#[test]
fn parameter_file_bytes_are_pinned() {
    use fdw_suite::fdw_obs::digest::{fnv1a, DIGEST_INIT};
    for (cfg, want) in [
        (FdwConfig::default(), 0x1fbc_59b2_e53b_ea9f_u64),
        (all_groups_config(), 0x86fd_8bc6_3bbc_eb24),
    ] {
        let text = cfg.to_config_file();
        assert_eq!(fnv1a(DIGEST_INIT, text.as_bytes()), want, "{text}");
        assert_eq!(FdwConfig::parse(&text).unwrap(), cfg);
    }
}
