//! Service overload ablation: the same multi-tenant campaign stream —
//! execution failures plus silent artifact corruption — pushed at the
//! front-end at 2x, 6x and 10x capacity, with every protection off
//! (admit-everything FIFO, no store) and then on (quotas, fair share,
//! shedding, degradation, breakers, verified shared store). Proves four
//! things:
//!
//! 1. **Nothing is dropped silently**: every request in every arm ends
//!    in exactly one terminal disposition (`unaccounted == 0`).
//! 2. **Robustness pays**: defended goodput fraction never falls below
//!    undefended at any overload level, and the shared store's
//!    cross-tenant hits are strictly positive.
//! 3. **Science is untouched**: the completed campaigns' rupture draws
//!    fold to the same digest whether factors come from one shared
//!    budgeted cache or per-campaign recompute, and across DES thread
//!    and executor-shard counts.
//! 4. **Determinism**: every arm reproduces its decision digest, stats
//!    and outcomes exactly across reruns with different thread counts.
//!
//! Output: `BENCH_service.json` in the working directory (or
//! `$FDW_BENCH_OUT`). `FDW_SMOKE` shrinks the workload. Exits 1 on any
//! gate failure.

#![forbid(unsafe_code)]
use fakequakes::stochastic::FactorCache;
use fdw_bench::{smoke, smoke_scaled};
use fdw_core::service::science_digest;
use fdw_service::config::ServiceConfig;
use fdw_service::engine::run_service;
use fdw_service::request::WorkloadConfig;

/// One (overload level, policy) arm, summarised.
struct Arm {
    label: String,
    overload_x: f64,
    goodput_fraction: f64,
    goodput_s: u64,
    badput_s: u64,
    completed: u64,
    completed_late: u64,
    failed: u64,
    rejected: u64,
    shed: u64,
    degraded: u64,
    breaker_opens: u64,
    store_hits: u64,
    cross_tenant_hits: u64,
    quarantines: u64,
    evictions: u64,
    p99_latency_s: Vec<u64>,
    unaccounted: usize,
    science_digest: u64,
    science_factorisations_shared: u64,
    science_factorisations_isolated: u64,
    deterministic: bool,
    science_store_invariant: bool,
}

fn run_arm(label: String, cfg: &ServiceConfig, wl: &WorkloadConfig) -> Arm {
    // Two runs with different thread counts AND different executor shard
    // counts: the decision digest, outcomes and stats must all agree.
    let a = run_service(cfg, wl, 2, 60, 1);
    let b = run_service(cfg, wl, 4, 60, 4);
    let deterministic = a.decision_digest == b.decision_digest
        && a.outcomes == b.outcomes
        && a.stats == b.stats
        && a.per_tenant == b.per_tenant;
    // Science pass, both sharing arms: one budgeted fleet-wide factor
    // cache vs per-campaign recompute. Bit-identical or the store is
    // changing the physics.
    let shared_cache = FactorCache::with_byte_budget(64 * 1024 * 1024);
    let shared = science_digest(&a.outcomes, wl.seed, Some(&shared_cache))
        .unwrap_or_else(|e| panic!("{label} shared science pass: {e}"));
    let isolated = science_digest(&a.outcomes, wl.seed, None)
        .unwrap_or_else(|e| panic!("{label} isolated science pass: {e}"));
    let s = &a.stats;
    Arm {
        label,
        overload_x: wl.overload_x,
        goodput_fraction: a.goodput_fraction(),
        goodput_s: s.goodput_s,
        badput_s: s.badput_s,
        completed: s.completed,
        completed_late: s.completed_late,
        failed: s.failed,
        rejected: s.rejected_quota + s.rejected_queue + s.rejected_breaker,
        shed: s.shed_backlog + s.shed_deadline,
        degraded: s.degraded_kl + s.degraded_replicas,
        breaker_opens: s.breaker_opens,
        store_hits: a.store.hits,
        cross_tenant_hits: a.store.cross_tenant_hits,
        quarantines: a.store.quarantines,
        evictions: a.store.evictions,
        p99_latency_s: a.per_tenant.values().map(|t| t.p99_latency_s).collect(),
        unaccounted: a.unaccounted,
        science_digest: shared.digest,
        science_factorisations_shared: shared.factorisations,
        science_factorisations_isolated: isolated.factorisations,
        deterministic,
        science_store_invariant: shared.digest == isolated.digest
            && shared.ruptures == isolated.ruptures,
    }
}

fn arm_json(a: &Arm) -> String {
    let p99s: Vec<String> = a.p99_latency_s.iter().map(|v| v.to_string()).collect();
    format!(
        "{{\"label\":\"{}\",\"overload_x\":{},\"goodput_fraction\":{},\
         \"goodput_s\":{},\"badput_s\":{},\"completed\":{},\"completed_late\":{},\
         \"failed\":{},\"rejected\":{},\"shed\":{},\"degraded\":{},\
         \"breaker_opens\":{},\"store_hits\":{},\"cross_tenant_hits\":{},\
         \"quarantines\":{},\"evictions\":{},\"p99_latency_s\":[{}],\
         \"unaccounted\":{},\"science_digest\":\"{:#018x}\",\
         \"factorisations_shared\":{},\"factorisations_isolated\":{},\
         \"deterministic\":{},\"science_store_invariant\":{}}}",
        a.label,
        fdw_obs::json::fmt_f64(a.overload_x),
        fdw_obs::json::fmt_f64((a.goodput_fraction * 1000.0).round() / 1000.0),
        a.goodput_s,
        a.badput_s,
        a.completed,
        a.completed_late,
        a.failed,
        a.rejected,
        a.shed,
        a.degraded,
        a.breaker_opens,
        a.store_hits,
        a.cross_tenant_hits,
        a.quarantines,
        a.evictions,
        p99s.join(","),
        a.unaccounted,
        a.science_digest,
        a.science_factorisations_shared,
        a.science_factorisations_isolated,
        a.deterministic,
        a.science_store_invariant,
    )
}

fn main() {
    println!("Service overload ablation — multi-tenant front-end off vs on, 2x/6x/10x\n");
    let tenants = 4;
    let base_wl = WorkloadConfig {
        seed: 17,
        campaigns: smoke_scaled(240, 60) as u32,
        classes: 4,
        overload_x: 2.0,
        fail_permille: 150,
        corrupt_permille: 150,
        replicas: 8,
        deadline_slack: 4.0,
    };
    let undefended = ServiceConfig::undefended(tenants);
    let defended = ServiceConfig::defended(tenants);
    println!(
        "workload: {} campaigns, {} tenants, {} classes, fail {}‰, corrupt {}‰\n",
        base_wl.campaigns,
        tenants,
        base_wl.classes,
        base_wl.fail_permille,
        base_wl.corrupt_permille
    );

    let levels = [2.0f64, 6.0, 10.0];
    let mut arms: Vec<(Arm, Arm)> = Vec::new();
    for x in levels {
        let wl = WorkloadConfig {
            overload_x: x,
            ..base_wl.clone()
        };
        let off = run_arm(format!("undefended-{x}x"), &undefended, &wl);
        let on = run_arm(format!("defended-{x}x"), &defended, &wl);
        arms.push((off, on));
    }

    println!(
        "{:<15} {:>8} {:>9} {:>9} {:>6} {:>6} {:>5} {:>5} {:>6} {:>7} {:>8} {:>6}",
        "arm",
        "goodput%",
        "goodput_s",
        "badput_s",
        "compl",
        "late",
        "rej",
        "shed",
        "degr",
        "xt-hits",
        "p99max",
        "deter"
    );
    for (off, on) in &arms {
        for a in [off, on] {
            println!(
                "{:<15} {:>8.1} {:>9} {:>9} {:>6} {:>6} {:>5} {:>5} {:>6} {:>7} {:>8} {:>6}",
                a.label,
                a.goodput_fraction * 100.0,
                a.goodput_s,
                a.badput_s,
                a.completed,
                a.completed_late,
                a.rejected,
                a.shed,
                a.degraded,
                a.cross_tenant_hits,
                a.p99_latency_s.iter().copied().max().unwrap_or(0),
                if a.deterministic { "yes" } else { "NO" },
            );
        }
    }

    let arms_json: Vec<String> = arms
        .iter()
        .flat_map(|(off, on)| [arm_json(off), arm_json(on)])
        .collect();
    let doc = format!(
        "{{\n\
         \"schema\": \"fdw-bench-service-v1\",\n\
         \"git_rev\": \"{}\",\n\
         \"smoke\": {},\n\
         \"workload\": {{\"campaigns\": {}, \"tenants\": {}, \"classes\": {}, \
         \"fail_permille\": {}, \"corrupt_permille\": {}, \"seed\": {}}},\n\
         \"overload_levels\": [2, 6, 10],\n\
         \"arms\": [\n  {}\n]\n\
         }}\n",
        fdw_bench::git_rev(),
        smoke(),
        base_wl.campaigns,
        tenants,
        base_wl.classes,
        base_wl.fail_permille,
        base_wl.corrupt_permille,
        base_wl.seed,
        arms_json.join(",\n  "),
    );
    fdw_bench::write_bench("BENCH_service.json", &doc);

    let mut ok = true;
    for (off, on) in &arms {
        for a in [off, on] {
            if a.unaccounted != 0 {
                println!(
                    "FAIL: {} dropped {} requests silently",
                    a.label, a.unaccounted
                );
                ok = false;
            }
            if !a.deterministic {
                println!("FAIL: {} decisions vary across threads/shards", a.label);
                ok = false;
            }
            if !a.science_store_invariant {
                println!("FAIL: {} shared store changed the science digest", a.label);
                ok = false;
            }
        }
        if on.goodput_fraction + 1e-9 < off.goodput_fraction {
            println!(
                "FAIL: defended goodput {:.3} below undefended {:.3} at {}x",
                on.goodput_fraction, off.goodput_fraction, on.overload_x
            );
            ok = false;
        }
        if on.cross_tenant_hits == 0 {
            println!("FAIL: {} saw no cross-tenant artifact reuse", on.label);
            ok = false;
        }
        if on.science_factorisations_shared >= on.science_factorisations_isolated {
            println!(
                "FAIL: {} sharing saved no factorisations ({} vs {})",
                on.label, on.science_factorisations_shared, on.science_factorisations_isolated
            );
            ok = false;
        }
        if off.rejected + off.shed + off.degraded + off.store_hits != 0 {
            println!("FAIL: {} ran protections with the service off", off.label);
            ok = false;
        }
    }
    // The top overload level must actually exercise the defenses.
    let (_, top) = arms.last().expect("levels nonempty");
    if top.shed + top.rejected == 0 || top.degraded == 0 {
        println!("FAIL: 10x arm never shed/rejected or never degraded — compared nothing");
        ok = false;
    }
    if top.quarantines == 0 {
        println!("FAIL: corruption never quarantined in the defended arm");
        ok = false;
    }
    if ok {
        let worst = &arms.last().expect("levels nonempty");
        println!(
            "\ndefended at 10x: goodput {:.1}% vs {:.1}% undefended, same science, nothing dropped",
            worst.1.goodput_fraction * 100.0,
            worst.0.goodput_fraction * 100.0
        );
    } else {
        std::process::exit(1);
    }
}
