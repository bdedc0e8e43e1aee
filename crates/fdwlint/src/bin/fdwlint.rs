//! The `fdwlint` CLI — scan the workspace (token rules + the table
//! rules) and report.
//!
//! ```text
//! fdwlint [--root DIR] [--json] [--list-rules] [--explain RULE]
//! ```
//!
//! Exit status: `0` clean, `1` violations (any finding or bad allow
//! directive), `2` usage/IO errors. Diagnostics go to stderr; stdout gets
//! the summary line, or the JSON report under `--json`.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use fdwlint::{collect_workspace_sources, find_root, report, rules};

struct Args {
    root: Option<PathBuf>,
    json: bool,
    list_rules: bool,
    explain: Option<String>,
}

const USAGE: &str = "usage: fdwlint [--root DIR] [--json] [--list-rules] [--explain RULE]\n\
     exit codes: 0 clean, 1 violations, 2 usage/IO error";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        json: false,
        list_rules: false,
        explain: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => args.root = Some(it.next().ok_or("--root needs a path")?.into()),
            "--json" => args.json = true,
            "--list-rules" => args.list_rules = true,
            "--explain" => args.explain = Some(it.next().ok_or("--explain needs a rule name")?),
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument '{other}' (try --help)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    if args.list_rules {
        for r in rules::RULES {
            println!("{:<32} {}", r.name, r.description);
        }
        return ExitCode::SUCCESS;
    }

    if let Some(name) = &args.explain {
        let Some(r) = rules::RULES.iter().find(|r| r.name == *name) else {
            eprintln!("fdwlint: no rule named '{name}' (see --list-rules)");
            return ExitCode::from(2);
        };
        println!("{}\n", r.name);
        println!("  invariant: {}\n", r.description);
        println!("  example (violating):");
        for line in r.example.lines() {
            println!("    {line}");
        }
        return ExitCode::SUCCESS;
    }

    let root = match args
        .root
        .or_else(|| std::env::current_dir().ok().and_then(|d| find_root(&d)))
    {
        Some(r) => r,
        None => {
            eprintln!("fdwlint: could not locate the workspace root (pass --root)");
            return ExitCode::from(2);
        }
    };

    let sources = match collect_workspace_sources(&root) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("fdwlint: failed to read workspace sources: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = fdwlint::scan_workspace(&sources);

    eprint!("{}", report::human(&outcome));
    if args.json {
        print!("{}", report::json(&outcome));
    } else {
        println!("{}", report::summary(&outcome));
    }
    if outcome.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
