//! End-to-end integration: config file → DAG → simulated OSG run →
//! monitoring statistics → bursting-simulator CSVs → bursting replay.
//! Exercises every crate of the workspace in one pipeline.

use fdw_suite::dagman::monitor::per_dagman_stats;
use fdw_suite::fdw_core::prelude::*;
use fdw_suite::htcsim::cluster::ClusterConfig;
use fdw_suite::htcsim::pool::PoolConfig;
use fdw_suite::vdc_burst::prelude::*;

/// A fast pool for integration tests: high availability, no churn.
fn test_cluster() -> ClusterConfig {
    ClusterConfig {
        pool: PoolConfig {
            target_slots: 96,
            glidein_slots: 8,
            avail_mean: 0.9,
            avail_sigma: 0.05,
            glidein_lifetime_s: 1e9,
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
fn config_to_bursting_pipeline() {
    // 1. Parse a user config.
    let cfg = FdwConfig::parse("station_input = small\nn_waveforms = 128\nseed = 3\n")
        .expect("config parses");
    assert_eq!(cfg.total_jobs(), 8 + 64 + 2);

    // 2. Build and sanity-check the DAG.
    let dag = build_fdw_dag(&cfg).expect("DAG builds");
    assert_eq!(dag.len() as u64, cfg.total_jobs());
    dag.topological_order().expect("DAG acyclic");

    // 3. Run on the simulated pool.
    let out = run_fdw(&cfg, test_cluster(), 3).expect("run completes");
    assert_eq!(out.stats[0].completed as u64, cfg.total_jobs());

    // 4. Monitoring statistics exist and are sane.
    let stats = per_dagman_stats(&out.report);
    assert_eq!(stats.len(), 1);
    assert!(stats[0].throughput_jpm() > 0.0);
    assert_eq!(
        stats[0].rupture_exec_secs.len() as u64,
        cfg.n_rupture_jobs()
    );
    assert_eq!(
        stats[0].waveform_exec_secs.len() as u64,
        cfg.n_waveform_jobs()
    );

    // 5. Export the bursting-simulator CSVs and replay them.
    let batch_csv = out.report.log.batch_csv();
    let jobs_csv = out.report.log.jobs_csv(out.report.name_of());
    let input = BatchInput::from_csv(&batch_csv, &jobs_csv).expect("CSV parse");
    assert_eq!(input.jobs.len() as u64, cfg.total_jobs());

    let control = simulate(&input, &BurstPolicies::control()).expect("control");
    assert_eq!(control.bursted_jobs, 0);
    assert_eq!(control.unfinished_jobs, 0);
    assert_eq!(
        control.runtime_secs,
        out.report.makespan.as_secs() - input.batch.submit_s
    );

    // 6. An aggressive queue policy bursts something and never loses jobs.
    let policies = BurstPolicies {
        queue_time: Some(QueueTimePolicy {
            max_queue_secs: 60,
            check_secs: 10,
        }),
        ..Default::default()
    };
    let bursted = simulate(&input, &policies).expect("bursted");
    assert_eq!(bursted.unfinished_jobs, 0);
    // Bursting is not guaranteed to shorten a batch (paper §5.3.3: batch 2
    // barely moved) but can exceed the control by at most one VDC job
    // duration — a job bursted just before the batch would have finished.
    assert!(
        bursted.runtime_secs <= control.runtime_secs + 287,
        "bursted {} vs control {}",
        bursted.runtime_secs,
        control.runtime_secs
    );
    assert!(
        (bursted.cost_usd - bursted.vdc_minutes * 0.0017).abs() < 1e-9,
        "eq. (7) must hold"
    );

    // 7. The HTCondor-dialect text log round-trips and stays greppable —
    //    the artifact the paper's shell scripts actually parse.
    let condor_text = fdw_suite::htcsim::condor_log::to_condor_log(&out.report.log);
    let reparsed = fdw_suite::htcsim::condor_log::parse_condor_log(&condor_text).unwrap();
    assert_eq!(reparsed.completed_count(), out.report.completed);
    let grep_005 = condor_text
        .lines()
        .filter(|l| l.starts_with("005 "))
        .count();
    assert_eq!(grep_005 as u64, cfg.total_jobs());
}

#[test]
fn concurrent_dagmans_fair_share_shape() {
    // The §4.2 result at integration-test scale: doubling DAGMans must
    // substantially cut per-DAGMan throughput while total runtime does
    // not shrink accordingly.
    let base = FdwConfig::parse("station_input = small\nn_waveforms = 256\n").unwrap();
    let one = run_concurrent_fdw(&base, 1, 256, test_cluster(), 5).unwrap();
    let four = run_concurrent_fdw(&base, 4, 256, test_cluster(), 5).unwrap();
    let thpt = |o: &FdwOutcome| {
        let inputs = o.throughput_inputs();
        inputs.iter().map(|(j, r)| *j as f64 / r).sum::<f64>() / inputs.len() as f64
    };
    let t1 = thpt(&one);
    let t4 = thpt(&four);
    assert!(
        t4 < t1 * 0.6,
        "per-DAGMan throughput should collapse: 1-way {t1:.2} vs 4-way {t4:.2}"
    );
    let rt1 = one.runtimes_hours()[0];
    let rt4 = four.runtimes_hours().iter().cloned().fold(0.0, f64::max);
    assert!(
        rt4 > rt1 * 0.5,
        "runtime must not drop 4x: 1-way {rt1:.2} h vs slowest of 4-way {rt4:.2} h"
    );
}

#[test]
fn recycled_npy_skips_matrix_job_in_real_run() {
    let cfg =
        FdwConfig::parse("station_input = small\nn_waveforms = 64\nrecycle_npy = true\n").unwrap();
    let out = run_fdw(&cfg, test_cluster(), 9).unwrap();
    assert!(
        !out.report
            .job_names
            .values()
            .any(|n| n.starts_with("matrix")),
        "recycled run must not submit a matrix job"
    );
    assert_eq!(out.stats[0].completed as u64, cfg.total_jobs());
}

#[test]
fn fdw_beats_single_machine_baseline() {
    // The §6 headline at test scale: the parallel workflow must beat the
    // 4-slot single machine. The batch must be large enough that the
    // serial GF phase (~2.9 h, identical on both sides) does not dominate
    // the 96-slot test pool's advantage.
    let cfg = FdwConfig::parse("station_input = full\nn_waveforms = 2000\n").unwrap();
    let fdw = run_fdw(&cfg, test_cluster(), 1).unwrap().stats[0].runtime_secs();
    let aws = aws_baseline(&cfg, 1).makespan.as_secs();
    assert!(
        fdw < aws,
        "FDW ({fdw}s) must beat the single machine ({aws}s)"
    );
}
