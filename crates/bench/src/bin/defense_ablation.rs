//! Defense ablation: the same hostile campaign — black holes at 0.3 plus
//! a silent-corruption campaign on the cached GF bundle — run with every
//! self-healing defense off, then on (reliability scoreboard, transfer
//! checksums, speculative re-execution). Proves three things:
//!
//! 1. **Science is untouched**: both arms produce products byte-identical
//!    to the fault-free baseline digest.
//! 2. **The defenses pay**: defenses-on badput must come in at least 30%
//!    under defenses-off badput, and never above it.
//! 3. **Determinism**: each arm runs twice and must reproduce its badput,
//!    makespan, digest and defense counters exactly.
//!
//! Output: `BENCH_defenses.json` in the working directory (or
//! `$FDW_BENCH_OUT`). `FDW_SMOKE` shrinks the workload. Exits 1 on any
//! digest mismatch, determinism break, or badput regression.

#![forbid(unsafe_code)]
use fakequakes::stations::ChileanInput;
use fdw_bench::{smoke, smoke_scaled};
use fdw_core::prelude::*;

/// One ablation arm, summarised.
struct Arm {
    label: &'static str,
    badput_s: u64,
    goodput_s: u64,
    makespan_s: u64,
    rounds: u32,
    retries: u64,
    blacklists: u64,
    paroles: u64,
    quarantines: u64,
    speculations: u64,
    spec_wasted_s: f64,
    digest_ok: bool,
    deterministic: bool,
}

fn run_arm(
    label: &'static str,
    cfg: &FdwConfig,
    cluster: &htcsim::cluster::ClusterConfig,
    baseline: u64,
) -> Arm {
    let run = || {
        run_chaos_campaign(FaultClass::BlackHole, 0.3, cfg, cluster, 8)
            .unwrap_or_else(|e| panic!("{label} campaign: {e}"))
    };
    let a = run();
    let b = run();
    let deterministic = a.digest == b.digest
        && a.badput_s == b.badput_s
        && a.goodput_s == b.goodput_s
        && a.makespan_s == b.makespan_s
        && a.defense == b.defense
        && a.speculations == b.speculations
        && a.round_metrics == b.round_metrics;
    Arm {
        label,
        badput_s: a.badput_s,
        goodput_s: a.goodput_s,
        makespan_s: a.makespan_s,
        rounds: a.rounds,
        retries: a.retries,
        blacklists: a.defense.blacklists,
        paroles: a.defense.paroles,
        quarantines: a.defense.quarantines,
        speculations: a.speculations,
        spec_wasted_s: a.spec_wasted_s,
        digest_ok: a.digest == baseline,
        deterministic,
    }
}

fn arm_json(a: &Arm) -> String {
    format!(
        "{{\"label\":\"{}\",\"badput_s\":{},\"goodput_s\":{},\"makespan_s\":{},\
         \"rounds\":{},\"retries\":{},\"blacklists\":{},\"paroles\":{},\
         \"quarantines\":{},\"speculations\":{},\"spec_wasted_s\":{},\
         \"digest_matches_baseline\":{},\"deterministic\":{}}}",
        a.label,
        a.badput_s,
        a.goodput_s,
        a.makespan_s,
        a.rounds,
        a.retries,
        a.blacklists,
        a.paroles,
        a.quarantines,
        a.speculations,
        fdw_obs::json::fmt_f64(a.spec_wasted_s),
        a.digest_ok,
        a.deterministic,
    )
}

fn main() {
    println!("Defense ablation — black holes 0.3 + corruption 0.5, defenses off vs on\n");
    let mut cfg = FdwConfig {
        fault_nx: 10,
        fault_nd: 5,
        station_input: StationInput::Chilean(ChileanInput::Small),
        n_waveforms: smoke_scaled(16, 6),
        ruptures_per_job: 2,
        waveforms_per_job: 2,
        retries: 6,
        retry_defer_s: 30,
        seed: 5,
        ..Default::default()
    };
    cfg.fault.corrupt_prob = 0.5;
    // Every slot big so an unlucky pool draw cannot starve the 16 GB
    // matrix/GF requests — the ablation compares defenses, not matching.
    // Single-slot glideins spread the 16 slots over 16 distinct machines,
    // so black_hole_fraction=0.3 poisons several and the scoreboard has
    // real offenders to catch.
    let mut cluster = chaos_cluster_config();
    cluster.pool.big_slot_fraction = 1.0;
    cluster.pool.glidein_slots = 1;
    let baseline = baseline_digest(&cfg).expect("baseline digest");
    println!("fault-free baseline digest: {baseline:#018x}");
    println!(
        "workload: {} jobs ({} waveforms)\n",
        cfg.total_jobs(),
        cfg.n_waveforms
    );

    let off = run_arm("defenses-off", &cfg, &cluster, baseline);

    let mut defended = cfg.clone();
    defended.defense.scoreboard_enabled = true;
    defended.defense.checksum_enabled = true;
    defended.speculation = true;
    let on = run_arm("defenses-on", &defended, &cluster, baseline);

    println!(
        "{:<14} {:>9} {:>9} {:>10} {:>7} {:>8} {:>7} {:>7} {:>6} {:>6} {:>8} {:>6}",
        "arm",
        "badput_s",
        "goodput_s",
        "makespan_s",
        "rounds",
        "retries",
        "blackl",
        "parole",
        "quarn",
        "specs",
        "digest",
        "deter"
    );
    for a in [&off, &on] {
        println!(
            "{:<14} {:>9} {:>9} {:>10} {:>7} {:>8} {:>7} {:>7} {:>6} {:>6} {:>8} {:>6}",
            a.label,
            a.badput_s,
            a.goodput_s,
            a.makespan_s,
            a.rounds,
            a.retries,
            a.blacklists,
            a.paroles,
            a.quarantines,
            a.speculations,
            if a.digest_ok { "match" } else { "MISMATCH" },
            if a.deterministic { "yes" } else { "NO" },
        );
    }

    let reduction = if off.badput_s > 0 {
        100.0 * (off.badput_s.saturating_sub(on.badput_s)) as f64 / off.badput_s as f64
    } else {
        0.0
    };
    println!(
        "\nbadput: off={} s, on={} s ({reduction:.1}% reduction)",
        off.badput_s, on.badput_s
    );
    println!(
        "time-to-done: off={} s, on={} s; wasted speculative work: {} s",
        off.makespan_s,
        on.makespan_s,
        fdw_obs::json::fmt_f64(on.spec_wasted_s)
    );

    let doc = format!(
        "{{\n\
         \"schema\": \"fdw-bench-defenses-v1\",\n\
         \"git_rev\": \"{}\",\n\
         \"smoke\": {},\n\
         \"campaign\": {{\"black_hole_fraction\": 0.3, \"corrupt_prob\": 0.5, \"seed\": {}}},\n\
         \"baseline_digest\": \"{baseline:#018x}\",\n\
         \"badput_reduction_pct\": {},\n\
         \"arms\": [\n  {},\n  {}\n]\n\
         }}\n",
        fdw_bench::git_rev(),
        smoke(),
        cfg.seed,
        fdw_obs::json::fmt_f64((reduction * 10.0).round() / 10.0),
        arm_json(&off),
        arm_json(&on),
    );
    fdw_bench::write_bench("BENCH_defenses.json", &doc);

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
    if on.badput_s > off.badput_s {
        println!(
            "FAIL: defenses-on badput ({}) exceeds defenses-off ({})",
            on.badput_s, off.badput_s
        );
        ok = false;
    }
    if !smoke() && reduction < 30.0 {
        println!("FAIL: badput reduction {reduction:.1}% below the 30% acceptance floor");
        ok = false;
    }
    // The smoke workload is too small to guarantee a blacklisting; the
    // full run must exercise both defense layers to count.
    if !smoke() && (on.blacklists == 0 || on.quarantines == 0) {
        println!("FAIL: defended arm never exercised the scoreboard/checksum defenses");
        ok = false;
    }
    if ok {
        println!("\ndefenses-on: same science, {reduction:.1}% less badput");
    } else {
        std::process::exit(1);
    }
}
