//! Benchmark child process. `run.py` starts one per measurement so that
//! process-wide state (the factor cache, `FDW_THREADS`, the peak resident
//! set) starts fresh each time.
//!
//! ```text
//! fdw-perfbench host
//! fdw-perfbench child --workload W --seed N [--size full|tiny] [--threads T]
//!                     [--budget-s S] [--setup-budget-s S] [--trace 0|1]
//!                     [--spans PATH]
//! ```
//!
//! `host` prints the host record. `child` sets the workload up (repeating
//! cheap set-ups until `--setup-budget-s` is spent; `live_campaign` sets up
//! exactly once, since its factorisation is cached process-wide), then runs
//! passes of its run phase until `--budget-s` is spent (none at a zero
//! budget, so that a child can measure set-up alone), and prints one JSON
//! line with every set-up and pass time, the pass digests and failure
//! counts, and the peak resident set. With `--trace 1` it runs one traced
//! pass and adds per-layer times and counters, and writes the spans to
//! `--spans`.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use fdw_obs::json::{escape, fmt_f64};
use fdw_perfbench::{burst, grid, host, live, service, PassOutput, Tracer};

/// Cap on set-ups in one child, whatever the set-up budget.
const MAX_SETUPS: usize = 100;

struct Args {
    workload: String,
    seed: u64,
    tiny: bool,
    threads: usize,
    budget_s: f64,
    setup_budget_s: f64,
    trace: bool,
    spans: Option<String>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        tiny: false,
        threads: 2,
        budget_s: 1.0,
        setup_budget_s: 0.0,
        trace: false,
        spans: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--size" => {
                a.tiny = match value()?.as_str() {
                    "full" => false,
                    "tiny" => true,
                    other => return Err(format!("--size: unknown size {other}")),
                }
            }
            "--threads" => a.threads = value()?.parse().map_err(|e| format!("--threads: {e}"))?,
            "--budget-s" => {
                a.budget_s = value()?.parse().map_err(|e| format!("--budget-s: {e}"))?
            }
            "--setup-budget-s" => {
                a.setup_budget_s = value()?
                    .parse()
                    .map_err(|e| format!("--setup-budget-s: {e}"))?
            }
            "--trace" => a.trace = value()? == "1",
            "--spans" => a.spans = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    Ok(a)
}

/// A workload set up and ready to run passes.
enum Ready {
    Live(Box<live::State>),
    Grid(grid::State),
    Service(service::State),
    Burst(burst::State),
}

impl Ready {
    fn setup(a: &Args, tr: &Tracer) -> Result<Self, String> {
        let t = a.tiny;
        Ok(match a.workload.as_str() {
            "live_campaign" => {
                let size = if t {
                    live::Size::tiny()
                } else {
                    live::Size::full()
                };
                Ready::Live(Box::new(live::setup(a.seed, &size, tr)?))
            }
            "grid_sweep" => {
                let size = if t {
                    grid::Size::tiny()
                } else {
                    grid::Size::full()
                };
                Ready::Grid(grid::setup(a.seed, &size, tr)?)
            }
            "service_overload" => {
                let size = if t {
                    service::Size::tiny()
                } else {
                    service::Size::full()
                };
                Ready::Service(service::setup(a.seed, &size, a.threads, tr)?)
            }
            "burst_replay" => {
                let size = if t {
                    burst::Size::tiny()
                } else {
                    burst::Size::full()
                };
                Ready::Burst(burst::setup(a.seed, &size, tr)?)
            }
            other => return Err(format!("unknown workload {other}")),
        })
    }

    /// True when a second set-up in this process would skip work the
    /// first one did.
    fn setup_once(&self) -> bool {
        matches!(self, Ready::Live(_))
    }

    /// Check the inputs the set-up produced, outside the set-up's timing.
    fn check_inputs(&self) -> Result<(), String> {
        match self {
            Ready::Service(s) => service::check_inputs(s),
            _ => Ok(()),
        }
    }

    fn pass(&self, tr: &Tracer) -> PassOutput {
        match self {
            Ready::Live(s) => live::pass(s, tr),
            Ready::Grid(s) => grid::pass(s, tr),
            Ready::Service(s) => service::pass(s, tr),
            Ready::Burst(s) => burst::pass(s, tr),
        }
    }
}

fn host_record() -> String {
    let l2 = host::l2_bytes();
    let compute = host::compute_loop_s();
    let scan = host::l2_scan_s(l2);
    format!(
        "{{\"cpu_model\":\"{}\",\"available_parallelism\":{},\"l2_bytes\":{l2},\
         \"ref_compute_s\":{},\"ref_l2_scan_s\":{}}}",
        escape(&host::cpu_model()),
        host::available_parallelism(),
        fmt_f64(compute),
        fmt_f64(scan),
    )
}

/// Whether a child runs another pass. A traced child runs exactly one. An
/// untraced one runs passes while the next would end nearer its budget than
/// the last one did, and none at a zero budget: it then only sets up.
fn want_pass(a: &Args, done: usize, spent_s: f64) -> bool {
    if a.trace {
        done == 0
    } else if done == 0 {
        a.budget_s > 0.0
    } else {
        spent_s + spent_s / done as f64 / 2.0 <= a.budget_s
    }
}

fn child(a: &Args) -> Result<String, String> {
    let tr = if a.trace { Tracer::on() } else { Tracer::off() };
    let mut setup_s = Vec::new();
    let setup_start = Instant::now();
    let ready = loop {
        let t0 = Instant::now();
        let r = tr.span("setup", 0, || Ready::setup(a, &tr))?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if r.setup_once()
            || a.trace
            || setup_s.len() >= MAX_SETUPS
            || setup_start.elapsed().as_secs_f64() >= a.setup_budget_s
        {
            break r;
        }
    };
    let setup_misses = match &ready {
        Ready::Live(s) => Some(s.setup_misses),
        _ => None,
    };
    ready.check_inputs()?;

    let mut passes: Vec<(f64, PassOutput)> = Vec::new();
    let run_start = Instant::now();
    while want_pass(a, passes.len(), run_start.elapsed().as_secs_f64()) {
        let t0 = Instant::now();
        let out = tr.span("run", passes.len() as u64, || ready.pass(&tr));
        passes.push((t0.elapsed().as_secs_f64(), out));
    }
    let peak_kib = host::peak_rss_kib();

    let mut j = String::new();
    let _ = write!(
        j,
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"threads\":{},\"fdw_threads\":{},\
         \"available_parallelism\":{},\"peak_rss_kib\":{peak_kib},\"setup_s\":[{}]",
        escape(&a.workload),
        a.seed,
        a.trace,
        a.threads,
        rayon::current_num_threads(),
        host::available_parallelism(),
        setup_s
            .iter()
            .map(|x| fmt_f64(*x))
            .collect::<Vec<_>>()
            .join(","),
    );
    if let Some(m) = setup_misses {
        let _ = write!(j, ",\"setup_factor_misses\":{m}");
    }
    let rows: Vec<String> = passes
        .iter()
        .map(|(s, p)| {
            let errs: Vec<String> = p
                .errors
                .iter()
                .map(|e| format!("\"{}\"", escape(e)))
                .collect();
            format!(
                "{{\"run_s\":{},\"units\":{},\"attempted\":{},\"failed\":{},\
                 \"digest\":\"{:016x}\",\"errors\":[{}]}}",
                fmt_f64(*s),
                p.units,
                p.attempted,
                p.failed,
                p.digest,
                errs.join(",")
            )
        })
        .collect();
    let _ = write!(j, ",\"passes\":[{}]", rows.join(","));
    if a.trace {
        let layers: Vec<String> = tr
            .layer_times()
            .iter()
            .map(|(name, lt)| {
                format!(
                    "\"{}\":{{\"total_s\":{},\"self_s\":{},\"calls\":{}}}",
                    escape(name),
                    fmt_f64(lt.total_s),
                    fmt_f64(lt.self_s),
                    lt.calls
                )
            })
            .collect();
        let counts: BTreeMap<String, f64> = tr.counts();
        let counts: Vec<String> = counts
            .iter()
            .map(|(k, v)| format!("\"{}\":{}", escape(k), fmt_f64(*v)))
            .collect();
        let _ = write!(
            j,
            ",\"layers\":{{{}}},\"counts\":{{{}}}",
            layers.join(","),
            counts.join(",")
        );
        if let Some(path) = &a.spans {
            std::fs::write(path, tr.spans_jsonl()).map_err(|e| format!("{path}: {e}"))?;
        }
    }
    j.push('}');
    Ok(j)
}

fn main() -> ExitCode {
    let mut it = std::env::args().skip(1);
    let cmd = it.next().unwrap_or_default();
    let result = match cmd.as_str() {
        "host" => Ok(host_record()),
        "child" => parse_args(it).and_then(|a| child(&a)),
        _ => Err("usage: fdw-perfbench host | child --workload W --seed N ...".to_string()),
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fdw-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
