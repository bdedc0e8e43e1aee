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
    assert!(doc.contains("\"graph\""));
    assert!(doc.contains("\"allowed_flows\""));
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
    assert_eq!(stdout(&out).lines().count(), 10, "{}", stdout(&out));
    for rule in [
        "fnv-outside-digest",
        "nondet-flow-to-sink",
        "dead-config-knob",
        "ulog-code-registry",
    ] {
        assert!(stdout(&out).contains(rule), "{rule} missing from list");
    }

    let out = ws.run(&["--explain", "nondet-flow-to-sink"]);
    assert_eq!(code(&out), 0);
    let text = stdout(&out);
    assert!(text.contains("invariant:"), "{text}");
    assert!(text.contains("example"), "{text}");
    assert!(text.contains("obs.observe"), "{text}");

    assert_eq!(code(&ws.run(&["--explain", "no-such-rule"])), 2);
    assert_eq!(code(&ws.run(&["--no-such-flag"])), 2);
    assert_eq!(code(&ws.run(&["--taint-depth", "wat"])), 2);
}
