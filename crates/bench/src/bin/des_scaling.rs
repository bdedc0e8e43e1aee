//! DES event-loop scaling: the sharded engine against its own monolithic
//! baseline on a synthetic federated pool — ~10⁵ slots and 10⁶ jobs
//! spread over 64 lanes, heavy enough that the single global heap stops
//! fitting in cache. Two claims, both gated in-binary:
//!
//! 1. **Determinism**: every configuration — monolithic, and sharded at
//!    1/2/4/8 worker threads — must produce the identical
//!    `EngineReport` (events handled, makespan, digest). Any deviation
//!    exits 1; a fast-but-wrong engine is worthless.
//! 2. **Throughput**: the sharded engine must beat the monolithic
//!    baseline. Per-lane heaps stay small and cache-resident and the
//!    k-way merge runs per epoch instead of per event, so the win holds
//!    even at one worker thread; extra threads then scale it further on
//!    multi-core hosts (CI containers may be single-core — the committed
//!    curve records whatever the host honestly measured).
//!
//! Output: `BENCH_des.json` in the working directory (or
//! `$FDW_BENCH_OUT`). `FDW_SMOKE` shrinks the workload. Timing is the
//! median of three runs per configuration.

#![forbid(unsafe_code)]
use std::time::Instant;

use fdw_bench::smoke;
use htcsim::des::{synth_engine, EngineReport, SynthConfig};

/// One measured configuration.
struct Arm {
    label: String,
    threads: usize,
    report: EngineReport,
    /// Median wall-clock seconds over three runs.
    secs: f64,
    events_per_sec: f64,
}

/// Median-of-3 timing of one engine configuration; every run must
/// reproduce the same report or the measurement itself is invalid.
fn measure(cfg: &SynthConfig, label: &str, threads: Option<usize>) -> Arm {
    let mut secs = Vec::with_capacity(3);
    let mut report: Option<EngineReport> = None;
    for _ in 0..3 {
        let mut engine = synth_engine(cfg);
        let t0 = Instant::now();
        let rep = match threads {
            None => engine.run_monolithic(),
            Some(n) => engine.run_sharded(n),
        };
        secs.push(t0.elapsed().as_secs_f64());
        match &report {
            None => report = Some(rep),
            Some(prev) => assert_eq!(
                &rep, prev,
                "{label}: run-to-run nondeterminism within one configuration"
            ),
        }
    }
    secs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let report = report.unwrap();
    let median = secs[1];
    Arm {
        label: label.to_string(),
        threads: threads.unwrap_or(1),
        events_per_sec: report.events as f64 / median,
        report,
        secs: median,
    }
}

fn main() {
    let cfg = if smoke() {
        SynthConfig::smoke()
    } else {
        SynthConfig::full()
    };
    println!(
        "DES scaling — {} lanes × {} slots ({} jobs), epoch {} s{}\n",
        cfg.lanes,
        cfg.slots_per_lane,
        cfg.lanes * cfg.jobs_per_lane,
        cfg.epoch_s,
        if smoke() { " [smoke]" } else { "" },
    );

    let baseline = measure(&cfg, "monolithic", None);
    let mut arms = vec![baseline];
    for threads in [1usize, 2, 4, 8] {
        arms.push(measure(&cfg, &format!("sharded-t{threads}"), Some(threads)));
    }

    println!(
        "{:<12} {:>8} {:>12} {:>12} {:>14} {:>10} {:>8}",
        "arm", "threads", "secs", "events", "events/sec", "speedup", "digest"
    );
    let base = &arms[0];
    let base_eps = base.events_per_sec;
    let base_digest = base.report.digest;
    let mut ok = true;
    let mut speedups = Vec::new();
    for a in &arms {
        let speedup = a.events_per_sec / base_eps;
        let digest_ok = a.report == arms[0].report;
        if !digest_ok {
            ok = false;
        }
        println!(
            "{:<12} {:>8} {:>12.3} {:>12} {:>14.0} {:>9.2}x {:>8}",
            a.label,
            a.threads,
            a.secs,
            a.report.events,
            a.events_per_sec,
            speedup,
            if digest_ok { "match" } else { "MISMATCH" },
        );
        speedups.push((a.label.clone(), speedup, digest_ok));
    }
    println!(
        "\nreport: {} events, makespan {} s, digest {:#018x}",
        base.report.events,
        base.report.makespan.as_secs(),
        base_digest
    );

    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let arm_json = |a: &Arm| {
        format!(
            "{{\"label\":\"{}\",\"threads\":{},\"secs\":{},\"events\":{},\
             \"events_per_sec\":{},\"speedup_vs_monolithic\":{},\"digest_matches\":{}}}",
            a.label,
            a.threads,
            fdw_obs::json::fmt_f64((a.secs * 1e6).round() / 1e6),
            a.report.events,
            fdw_obs::json::fmt_f64(a.events_per_sec.round()),
            fdw_obs::json::fmt_f64((a.events_per_sec / base_eps * 1000.0).round() / 1000.0),
            a.report == arms[0].report,
        )
    };
    let doc = format!(
        "{{\n\
         \"schema\": \"fdw-bench-des-v1\",\n\
         \"git_rev\": \"{}\",\n\
         \"smoke\": {},\n\
         \"cpus\": {cpus},\n\
         \"workload\": {{\"lanes\": {}, \"slots\": {}, \"jobs\": {}, \"epoch_s\": {}, \"seed\": {}}},\n\
         \"digest\": \"{base_digest:#018x}\",\n\
         \"events\": {},\n\
         \"makespan_s\": {},\n\
         \"arms\": [\n  {}\n]\n\
         }}\n",
        fdw_bench::git_rev(),
        smoke(),
        cfg.lanes,
        cfg.lanes * cfg.slots_per_lane,
        cfg.lanes * cfg.jobs_per_lane,
        cfg.epoch_s,
        cfg.seed,
        base.report.events,
        base.report.makespan.as_secs(),
        arms.iter().map(arm_json).collect::<Vec<_>>().join(",\n  "),
    );
    fdw_bench::write_bench("BENCH_des.json", &doc);

    // Hard gates: byte-identical reports everywhere, and sharding must
    // actually pay against the monolithic heap at every thread count.
    for (label, speedup, digest_ok) in &speedups {
        if !digest_ok {
            println!("FAIL: {label} deviates from the monolithic report");
            ok = false;
        }
        if label != "monolithic" && *speedup < 1.0 {
            println!("FAIL: {label} is slower than the monolithic baseline ({speedup:.2}x)");
            ok = false;
        }
    }
    if !ok {
        std::process::exit(1);
    }
    let best = speedups
        .iter()
        .skip(1)
        .map(|(_, s, _)| *s)
        .fold(0.0f64, f64::max);
    println!("\nsharded engine: same digest, up to {best:.2}x the monolithic event rate");
}
