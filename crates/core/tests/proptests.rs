//! Property-based tests of fdw-core: configuration roundtrips, DAG
//! structure invariants, work partitioning, and the evaluation formulas.

use proptest::prelude::*;

use fakequakes::stations::ChileanInput;
use fakequakes::stf::StfKind;
use fdw_core::config::{FdwConfig, Region, StationInput};
use fdw_core::phases::{build_fdw_dag, split_waveforms};
use fdw_core::stats::{avg_total_runtime, avg_total_throughput};

fn arb_config() -> impl Strategy<Value = FdwConfig> {
    (
        1usize..40,
        1usize..16,
        prop_oneof![
            Just(StationInput::Chilean(ChileanInput::Full)),
            Just(StationInput::Chilean(ChileanInput::Small)),
            (1u32..200).prop_map(StationInput::Count),
        ],
        1u64..5_000,
        1u32..64,
        1u32..16,
        (0u8..3).prop_map(|k| [StfKind::Dreger, StfKind::Cosine, StfKind::Triangle][k as usize]),
        any::<bool>(),
        0usize..2_000,
        0usize..2_000,
        any::<u64>(),
        any::<bool>(),
        (0u32..8, 0u64..600, 0u64..20_000),
        (any::<u64>(), 0u8..=4, 0u8..=4),
    )
        .prop_map(
            |(
                nx,
                nd,
                station_input,
                n,
                rpj,
                wpj,
                stf,
                recycle,
                mi,
                mj,
                seed,
                casc,
                (retries, defer, timeout),
                (fseed, ftransient, fhold),
            )| {
                let fault = htcsim::fault::FaultConfig {
                    seed: fseed,
                    transient_exit_prob: f64::from(ftransient) / 16.0,
                    hold_prob: f64::from(fhold) / 16.0,
                    ..Default::default()
                };
                FdwConfig {
                    region: if casc {
                        Region::Cascadia
                    } else {
                        Region::Chile
                    },
                    fault_nx: nx,
                    fault_nd: nd,
                    station_input,
                    n_waveforms: n,
                    ruptures_per_job: rpj,
                    waveforms_per_job: wpj,
                    mw_range: (7.5, 9.0),
                    stf,
                    recycle_npy: recycle,
                    max_idle: mi,
                    max_jobs: mj,
                    seed,
                    retries,
                    retry_defer_s: defer,
                    job_timeout_s: timeout,
                    fault,
                    defense: Default::default(),
                    speculation: Default::default(),
                    federation: Default::default(),
                    service: Default::default(),
                    des_shards: 0,
                }
            },
        )
}

proptest! {
    #[test]
    fn config_file_roundtrip_any_config(cfg in arb_config()) {
        let parsed = FdwConfig::parse(&cfg.to_config_file()).unwrap();
        prop_assert_eq!(parsed, cfg);
    }

    #[test]
    fn job_counts_cover_the_workload(cfg in arb_config()) {
        // Enough jobs to cover every scenario, without a whole spare job.
        let rj = cfg.n_rupture_jobs();
        prop_assert!(rj * (cfg.ruptures_per_job as u64) >= cfg.n_waveforms);
        prop_assert!((rj - 1) * (cfg.ruptures_per_job as u64) < cfg.n_waveforms);
        let wj = cfg.n_waveform_jobs();
        prop_assert!(wj * (cfg.waveforms_per_job as u64) >= cfg.n_waveforms);
        prop_assert!((wj - 1) * (cfg.waveforms_per_job as u64) < cfg.n_waveforms);
        let expected = rj + wj + 1 + u64::from(!cfg.recycle_npy);
        prop_assert_eq!(cfg.total_jobs(), expected);
    }

    #[test]
    fn dag_structure_invariants(cfg in arb_config()) {
        let dag = build_fdw_dag(&cfg).unwrap();
        prop_assert_eq!(dag.len() as u64, cfg.total_jobs());
        dag.topological_order().unwrap();
        // Exactly one GF node; it gates every waveform node.
        let gf = dag.id_of("gf.0").unwrap();
        prop_assert_eq!(dag.node(gf).children.len() as u64, cfg.n_waveform_jobs());
        prop_assert_eq!(dag.node(gf).parents.len() as u64, cfg.n_rupture_jobs());
        // Matrix node present iff not recycling.
        prop_assert_eq!(dag.id_of("matrix.0").is_some(), !cfg.recycle_npy);
        // Throttles propagate.
        prop_assert_eq!(dag.throttles.max_idle, cfg.max_idle);
        prop_assert_eq!(dag.throttles.max_jobs, cfg.max_jobs);
    }

    #[test]
    fn split_conserves_and_balances(total in 1u64..1_000_000, n in 1usize..64) {
        let parts = split_waveforms(total, n);
        prop_assert_eq!(parts.len(), n);
        prop_assert_eq!(parts.iter().sum::<u64>(), total);
        let min = *parts.iter().min().unwrap();
        let max = *parts.iter().max().unwrap();
        prop_assert!(max - min <= 1, "parts must differ by at most 1");
        // Earlier parts get the remainder.
        prop_assert!(parts.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn eq1_is_mean_and_eq2_bounded_by_extremes(
        runs in proptest::collection::vec((1u64..10_000, 1.0..10_000.0f64), 1..10)
    ) {
        let runtimes: Vec<f64> = runs.iter().map(|(_, r)| *r).collect();
        let alpha = avg_total_runtime(&runtimes);
        let min = runtimes.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = runtimes.iter().cloned().fold(0.0f64, f64::max);
        prop_assert!(alpha >= min - 1e-9 && alpha <= max + 1e-9);

        let beta = avg_total_throughput(&runs);
        let per: Vec<f64> = runs.iter().map(|(j, r)| *j as f64 / r).collect();
        let pmin = per.iter().cloned().fold(f64::INFINITY, f64::min);
        let pmax = per.iter().cloned().fold(0.0f64, f64::max);
        prop_assert!(beta >= pmin - 1e-9 && beta <= pmax + 1e-9);
    }

    #[test]
    fn calibration_models_scale_sanely(stations in 1u32..300, wpj in 1u32..16) {
        use fdw_core::calibration::*;
        // GF and waveform jobs must cost strictly more with more stations.
        prop_assert!(
            gf_job_exec(stations + 1).median_s() > gf_job_exec(stations).median_s()
        );
        prop_assert!(
            waveform_job_exec(stations + 1, wpj).median_s()
                > waveform_job_exec(stations, wpj).median_s()
        );
        prop_assert!(
            waveform_job_exec(stations, wpj + 1).median_s()
                > waveform_job_exec(stations, wpj).median_s()
        );
        // GF bundle grows with the station list.
        prop_assert!(gf_mseed(stations + 1).size_mb > gf_mseed(stations).size_mb);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The self-healing defenses change scheduling, never science: for
    /// any seeded black-hole + corruption campaign, the product digest
    /// with every defense on is byte-identical to the digest with all of
    /// them off, and both match the fault-free baseline.
    #[test]
    fn defenses_never_change_science_products(
        seed in 1u64..500,
        fseed in any::<u64>(),
        bh in 0u8..4,
        cp in 0u8..5,
    ) {
        use fdw_core::chaos::{
            baseline_digest, chaos_cluster_config, run_chaos_campaign, FaultClass,
        };

        let mut cfg = FdwConfig {
            fault_nx: 10,
            fault_nd: 5,
            station_input: StationInput::Chilean(ChileanInput::Small),
            n_waveforms: 4,
            ruptures_per_job: 2,
            waveforms_per_job: 2,
            retries: 3,
            retry_defer_s: 30,
            seed,
            ..Default::default()
        };
        cfg.fault.seed = fseed;
        cfg.fault.corrupt_prob = f64::from(cp) / 8.0;
        // Every slot big: an unlucky pool seed must not starve the 16 GB
        // matrix/GF requests — this test is about defenses, not matching.
        let mut cluster = chaos_cluster_config();
        cluster.pool.big_slot_fraction = 1.0;
        let baseline = baseline_digest(&cfg).unwrap();

        let off = run_chaos_campaign(
            FaultClass::BlackHole,
            f64::from(bh) / 10.0,
            &cfg,
            &cluster,
            6,
        )
        .unwrap();
        prop_assert_eq!(off.digest, baseline);

        let mut defended = cfg.clone();
        defended.defense.scoreboard_enabled = true;
        defended.defense.checksum_enabled = true;
        defended.speculation = true;
        let on = run_chaos_campaign(
            FaultClass::BlackHole,
            f64::from(bh) / 10.0,
            &defended,
            &cluster,
            6,
        )
        .unwrap();
        prop_assert_eq!(on.digest, baseline, "defenses must never alter products");
        prop_assert_eq!(on.digest, off.digest);
    }
}

/// A tiny federated campaign under cloud spot preemption and a mid-run
/// outage of the dedicated pool, for the checkpoint/restart properties.
fn federated_faulty_cfg(seed: u64, fseed: u64, preempt: f64) -> FdwConfig {
    use htcsim::fault::PoolFaultConfig;
    use htcsim::federation::FederationConfig;
    let mut cfg = FdwConfig {
        fault_nx: 10,
        fault_nd: 5,
        station_input: StationInput::Chilean(ChileanInput::Small),
        n_waveforms: 8,
        ruptures_per_job: 2,
        waveforms_per_job: 2,
        retries: 3,
        retry_defer_s: 30,
        seed,
        federation: FederationConfig {
            enabled: true,
            burst_idle_threshold: 0,
            checkpoint_enabled: true,
            checkpoint_interval_s: 5.0,
            cloud_spinup_s: 60.0,
            ..Default::default()
        },
        ..Default::default()
    };
    cfg.fault.seed = fseed;
    cfg.fault.pool = PoolFaultConfig {
        outage_pool: 1,
        outage_start_s: 500.0,
        outage_duration_s: 1500.0,
        partition_pool: 0,
        partition_start_s: 0.0,
        partition_duration_s: 0.0,
        preempt_prob: preempt,
    };
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Checkpoint/restart moves work, never changes it: for any seeded
    /// spot-preemption + pool-outage campaign, resuming preempted jobs
    /// from their checkpoints yields science products byte-identical to
    /// the uninterrupted fault-free run — and to the no-failover arm that
    /// re-runs every preempted job from scratch.
    #[test]
    fn checkpoint_resume_is_byte_identical_to_uninterrupted(
        seed in 1u64..400,
        fseed in any::<u64>(),
        preempt in 5u8..10,
    ) {
        use fdw_core::chaos::baseline_digest;
        use fdw_core::failover::{federated_cluster_config, run_failover_campaign};

        let cfg = federated_faulty_cfg(seed, fseed, f64::from(preempt) / 10.0);
        let baseline = baseline_digest(&cfg).unwrap();
        let cluster = federated_cluster_config();
        let on = run_failover_campaign(&cfg, &cluster, true).unwrap();
        prop_assert_eq!(on.digest, baseline, "resume must not alter products");
        let off = run_failover_campaign(&cfg, &cluster, false).unwrap();
        prop_assert_eq!(off.digest, baseline, "re-run must not alter products");
    }

    /// A migrated (preempted, checkpointed, resumed elsewhere) job is
    /// counted exactly once in goodput: the monitor's goodput total must
    /// equal an independent tally of one final-attempt interval per
    /// completed job from the user log — never the earlier, displaced
    /// attempts.
    #[test]
    fn migrated_jobs_count_exactly_once_in_goodput(
        seed in 1u64..400,
        fseed in any::<u64>(),
    ) {
        use std::collections::HashMap;
        use fdw_core::failover::federated_cluster_config;
        use fdw_core::workflow::run_fdw;
        use htcsim::job::{JobEventKind, JobId};

        let cfg = federated_faulty_cfg(seed, fseed, 0.8);
        let out = run_fdw(&cfg, federated_cluster_config(), seed).unwrap();
        let stats = &out.stats[0];
        prop_assert_eq!(stats.completed as u64, cfg.total_jobs());

        // Independent goodput tally: the last execute-start before each
        // job's completion opens its one goodput interval.
        let mut open: HashMap<JobId, u64> = HashMap::new();
        let mut expected = 0u64;
        let mut completions = 0u64;
        for e in out.report.log.events() {
            match e.kind {
                JobEventKind::ExecuteStarted => {
                    open.insert(e.job, e.time.as_secs());
                }
                JobEventKind::Completed => {
                    completions += 1;
                    if let Some(s) = open.remove(&e.job) {
                        expected += e.time.as_secs() - s;
                    }
                }
                _ => {}
            }
        }
        prop_assert_eq!(completions, cfg.total_jobs(), "one completion per job");
        prop_assert_eq!(stats.goodput_secs, expected,
            "goodput must count exactly one final attempt per job");
    }
}
