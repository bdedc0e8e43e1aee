//! Failover ablation: the same federated campaign — cloud spot
//! reclamation at 0.9 plus a mid-run outage of the dedicated pool — run
//! with the health-gated burst controller off, then on (circuit
//! breakers, drain-and-migrate, checkpoint/restart). Proves three
//! things:
//!
//! 1. **Science is untouched**: both arms produce products byte-identical
//!    to the fault-free baseline digest — the controller only moves work.
//! 2. **Failover pays**: failover-on time-to-done and badput must never
//!    exceed failover-off.
//! 3. **Determinism**: each arm runs twice and must reproduce its
//!    makespan, badput, digest and federation counters exactly.
//!
//! Output: `BENCH_failover.json` in the working directory (or
//! `$FDW_BENCH_OUT`). `FDW_SMOKE` shrinks the workload. Exits 1 on any
//! digest mismatch, determinism break, or time/badput regression.

#![forbid(unsafe_code)]
use fakequakes::stations::ChileanInput;
use fdw_bench::{smoke, smoke_scaled};
use fdw_core::prelude::*;
use htcsim::fault::PoolFaultConfig;
use htcsim::federation::FederationConfig;

/// One ablation arm, summarised.
struct Arm {
    label: &'static str,
    makespan_s: u64,
    goodput_s: u64,
    badput_s: u64,
    outages: u64,
    preemptions: u64,
    checkpoints: u64,
    resumes: u64,
    migrations: u64,
    breaker_opens: u64,
    drained: u64,
    digest_ok: bool,
    deterministic: bool,
}

fn run_arm(
    label: &'static str,
    cfg: &FdwConfig,
    cluster: &htcsim::cluster::ClusterConfig,
    failover_on: bool,
    baseline: u64,
) -> Arm {
    let run = || {
        run_failover_campaign(cfg, cluster, failover_on)
            .unwrap_or_else(|e| panic!("{label} campaign: {e}"))
    };
    let a = run();
    let b = run();
    let deterministic = a.digest == b.digest
        && a.makespan_s == b.makespan_s
        && a.goodput_s == b.goodput_s
        && a.badput_s == b.badput_s
        && a.federation == b.federation
        && a.dag_metrics == b.dag_metrics;
    Arm {
        label,
        makespan_s: a.makespan_s,
        goodput_s: a.goodput_s,
        badput_s: a.badput_s,
        outages: a.federation.outages,
        preemptions: a.federation.preemptions,
        checkpoints: a.federation.checkpoints,
        resumes: a.federation.resumes,
        migrations: a.federation.migrations,
        breaker_opens: a.federation.breaker_opens,
        drained: a.federation.drained,
        digest_ok: a.digest == baseline,
        deterministic,
    }
}

fn arm_json(a: &Arm) -> String {
    format!(
        "{{\"label\":\"{}\",\"makespan_s\":{},\"goodput_s\":{},\"badput_s\":{},\
         \"outages\":{},\"preemptions\":{},\"checkpoints\":{},\"resumes\":{},\
         \"migrations\":{},\"breaker_opens\":{},\"jobs_drained\":{},\
         \"digest_matches_baseline\":{},\"deterministic\":{}}}",
        a.label,
        a.makespan_s,
        a.goodput_s,
        a.badput_s,
        a.outages,
        a.preemptions,
        a.checkpoints,
        a.resumes,
        a.migrations,
        a.breaker_opens,
        a.drained,
        a.digest_ok,
        a.deterministic,
    )
}

fn main() {
    println!("Failover ablation — spot preemption 0.9 + vdc outage, failover off vs on\n");
    let mut cfg = FdwConfig {
        fault_nx: 10,
        fault_nd: 5,
        station_input: StationInput::Chilean(ChileanInput::Small),
        n_waveforms: smoke_scaled(64, 16),
        ruptures_per_job: 2,
        waveforms_per_job: 2,
        retries: 3,
        retry_defer_s: 30,
        seed: 11,
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
    cfg.fault.pool = PoolFaultConfig {
        outage_pool: 1,
        outage_start_s: 500.0,
        outage_duration_s: 2000.0,
        partition_pool: 0,
        partition_start_s: 0.0,
        partition_duration_s: 0.0,
        preempt_prob: 0.9,
    };
    let cluster = federated_cluster_config();
    let baseline = baseline_digest(&cfg).expect("baseline digest");
    println!("fault-free baseline digest: {baseline:#018x}");
    println!(
        "workload: {} jobs ({} waveforms) on 3 federated pools\n",
        cfg.total_jobs(),
        cfg.n_waveforms
    );

    let off = run_arm("failover-off", &cfg, &cluster, false, baseline);
    let on = run_arm("failover-on", &cfg, &cluster, true, baseline);

    println!(
        "{:<13} {:>10} {:>9} {:>8} {:>7} {:>8} {:>7} {:>7} {:>8} {:>7} {:>8} {:>6}",
        "arm",
        "makespan_s",
        "goodput_s",
        "badput_s",
        "outages",
        "preempts",
        "ckpts",
        "resumes",
        "migrates",
        "breaker",
        "digest",
        "deter"
    );
    for a in [&off, &on] {
        println!(
            "{:<13} {:>10} {:>9} {:>8} {:>7} {:>8} {:>7} {:>7} {:>8} {:>7} {:>8} {:>6}",
            a.label,
            a.makespan_s,
            a.goodput_s,
            a.badput_s,
            a.outages,
            a.preemptions,
            a.checkpoints,
            a.resumes,
            a.migrations,
            a.breaker_opens,
            if a.digest_ok { "match" } else { "MISMATCH" },
            if a.deterministic { "yes" } else { "NO" },
        );
    }

    let time_saved = off.makespan_s.saturating_sub(on.makespan_s);
    let badput_cut = if off.badput_s > 0 {
        100.0 * (off.badput_s.saturating_sub(on.badput_s)) as f64 / off.badput_s as f64
    } else {
        0.0
    };
    println!(
        "\ntime-to-done: off={} s, on={} s ({time_saved} s saved)",
        off.makespan_s, on.makespan_s
    );
    println!(
        "badput: off={} s, on={} s ({badput_cut:.1}% cut); on-arm migrated {} jobs",
        off.badput_s, on.badput_s, on.migrations
    );

    let doc = format!(
        "{{\n\
         \"schema\": \"fdw-bench-failover-v1\",\n\
         \"git_rev\": \"{}\",\n\
         \"smoke\": {},\n\
         \"campaign\": {{\"preempt_prob\": 0.9, \"outage_pool\": 1, \"outage_s\": 2000, \"seed\": {}}},\n\
         \"baseline_digest\": \"{baseline:#018x}\",\n\
         \"time_saved_s\": {time_saved},\n\
         \"badput_cut_pct\": {},\n\
         \"arms\": [\n  {},\n  {}\n]\n\
         }}\n",
        fdw_bench::git_rev(),
        smoke(),
        cfg.seed,
        fdw_obs::json::fmt_f64((badput_cut * 10.0).round() / 10.0),
        arm_json(&off),
        arm_json(&on),
    );
    fdw_bench::write_bench("BENCH_failover.json", &doc);

    let mut ok = true;
    for a in [&off, &on] {
        if !a.digest_ok {
            println!("FAIL: {} science digest deviates from baseline", a.label);
            ok = false;
        }
        if !a.deterministic {
            println!("FAIL: {} is not run-to-run deterministic", a.label);
            ok = false;
        }
    }
    if on.makespan_s > off.makespan_s {
        println!(
            "FAIL: failover-on time-to-done ({}) exceeds failover-off ({})",
            on.makespan_s, off.makespan_s
        );
        ok = false;
    }
    if on.badput_s > off.badput_s {
        println!(
            "FAIL: failover-on badput ({}) exceeds failover-off ({})",
            on.badput_s, off.badput_s
        );
        ok = false;
    }
    // Both arms must actually face the faults, and the controller must
    // visibly respond: checkpoints resumed and displaced jobs migrated.
    if off.preemptions == 0 || on.preemptions == 0 || off.outages == 0 {
        println!("FAIL: pool faults never fired — the ablation compared nothing");
        ok = false;
    }
    if on.resumes == 0 || on.migrations == 0 {
        println!("FAIL: failover arm never exercised checkpoint/restart or migration");
        ok = false;
    }
    if off.resumes != 0 || off.drained != 0 {
        println!("FAIL: baseline arm ran controller actions with failover off");
        ok = false;
    }
    if ok {
        println!(
            "\nfailover-on: same science, {time_saved} s sooner, {badput_cut:.1}% less badput"
        );
    } else {
        std::process::exit(1);
    }
}
