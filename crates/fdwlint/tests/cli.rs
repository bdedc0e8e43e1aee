//! End-to-end CLI tests against a throwaway mini-workspace with no
//! baseline file: the single verdict's exit codes, its stderr
//! diagnostics, and the introspection flags.

use std::path::PathBuf;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_fdwlint");

/// A scratch workspace shaped the way `find_root` expects
/// (`Cargo.toml` + `crates/`), removed on drop.
struct Scratch {
    root: PathBuf,
}

impl Scratch {
    fn new(tag: &str) -> Self {
        let root = std::env::temp_dir().join(format!("fdwlint-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("crates/eew/src")).unwrap();
        std::fs::write(root.join("Cargo.toml"), "[workspace]\n").unwrap();
        Self { root }
    }

    fn write_fx(&self, text: &str) {
        std::fs::write(self.root.join("crates/eew/src/fx.rs"), text).unwrap();
    }

    fn run(&self, args: &[&str]) -> Output {
        Command::new(BIN)
            .arg("--root")
            .arg(&self.root)
            .args(args)
            .output()
            .expect("fdwlint binary runs")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("exit code")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn clean_tree_exits_0_and_one_finding_exits_1() {
    let ws = Scratch::new("verdict");
    ws.write_fx("fn ok(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n");
    let out = ws.run(&[]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    assert!(stderr(&out).is_empty(), "{}", stderr(&out));

    ws.write_fx("fn f(x: Option<u32>) -> u32 { x.unwrap() }\n");
    let out = ws.run(&[]);
    assert_eq!(code(&out), 1);
    assert!(
        stderr(&out).contains("error[unwrap-in-lib]: crates/eew/src/fx.rs:1:"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn malformed_allow_exits_1() {
    let ws = Scratch::new("directives");
    ws.write_fx(
        "// fdwlint::allow(unwrap-in-lib)\nfn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n",
    );
    let out = ws.run(&[]);
    assert_eq!(code(&out), 1);
    assert!(
        stderr(&out).contains("error[bad-allow-directive]: crates/eew/src/fx.rs:1:"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn ratchet_flags_are_unknown_arguments() {
    let ws = Scratch::new("flags");
    ws.write_fx("fn ok() {}\n");
    for flag in [
        "--baseline",
        "--write-baseline",
        "--update-baseline",
        "--force",
    ] {
        let out = ws.run(&[flag]);
        assert_eq!(code(&out), 2, "{flag}");
        assert!(
            stderr(&out).contains("unknown argument"),
            "{flag}: {}",
            stderr(&out)
        );
    }
}

#[test]
fn json_report_is_valid_and_machine_readable() {
    let ws = Scratch::new("json");
    ws.write_fx("fn f(x: Option<u32>) -> u32 { x.unwrap() }\n");
    let out = ws.run(&["--json"]);
    assert_eq!(code(&out), 1, "violations still exit 1 under --json");
    let doc = stdout(&out);
    assert!(fdw_obs::json::validate(&doc).is_ok(), "{doc}");
    assert!(doc.contains("\"status\": \"violations\""));
    assert!(doc.contains("\"rule\": \"unwrap-in-lib\""), "{doc}");
    assert!(doc.contains("\"version\": 3,"), "{doc}");
    assert!(!doc.contains("\"graph\""), "{doc}");
    assert!(!doc.contains("\"allowed_flows\""), "{doc}");
    // The human diagnostics still go to stderr.
    assert!(
        stderr(&out).contains("error[unwrap-in-lib]"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn introspection_flags_and_exit_code_2() {
    let ws = Scratch::new("introspect");
    ws.write_fx("fn ok() {}\n");

    let out = ws.run(&["--list-rules"]);
    assert_eq!(code(&out), 0);
    assert_eq!(stdout(&out).lines().count(), 9, "{}", stdout(&out));
    for rule in [
        "unordered-hash-iteration",
        "fnv-outside-digest",
        "dead-config-knob",
        "ulog-code-registry",
    ] {
        assert!(stdout(&out).contains(rule), "{rule} missing from list");
    }
    assert!(!stdout(&out).contains("nondet-flow-to-sink"));

    let out = ws.run(&["--explain", "unordered-hash-iteration"]);
    assert_eq!(code(&out), 0);
    let text = stdout(&out);
    assert!(text.contains("invariant:"), "{text}");
    assert!(text.contains("example"), "{text}");
    assert!(text.contains("for (job, rt) in &self.jobs"), "{text}");

    assert_eq!(code(&ws.run(&["--explain", "no-such-rule"])), 2);
    assert_eq!(code(&ws.run(&["--no-such-flag"])), 2);
    let out = ws.run(&["--taint-depth", "4"]);
    assert_eq!(code(&out), 2);
    assert!(
        stderr(&out).contains("unknown argument"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn each_clock_read_of_the_chain_fixture_fails_on_its_own_line() {
    // Three wall-clock reads 1, 2 and 3 calls below the function that
    // feeds the reading to a telemetry sink: each read is a finding on its
    // own line, however deep it sits, and nothing else is.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/clock_chains");
    let out = Command::new(BIN)
        .arg("--root")
        .arg(&root)
        .output()
        .expect("fdwlint binary runs");
    assert_eq!(code(&out), 1, "{}", stderr(&out));
    let errors: Vec<String> = stderr(&out)
        .lines()
        .filter(|l| l.starts_with("error["))
        .map(|l| l.split(": ").take(2).collect::<Vec<_>>().join(": "))
        .collect();
    assert_eq!(
        errors,
        [11, 25, 43]
            .map(|line| format!("error[wall-clock-in-sim]: crates/core/src/chain.rs:{line}")),
        "{}",
        stderr(&out)
    );
}
