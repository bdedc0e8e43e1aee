//! End-to-end CLI tests against a throwaway mini-workspace: exit codes,
//! `--write-baseline`'s one-way ratchet, the `--force` override with its
//! printed loosening diff, and the introspection flags.

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

    fn write_fx(&self, n_unwraps: usize) {
        let mut text = String::new();
        for i in 0..n_unwraps {
            text.push_str(&format!(
                "fn f{i}(x: Option<u32>) -> u32 {{ x.unwrap() }}\n"
            ));
        }
        if text.is_empty() {
            text.push_str("fn ok() {}\n");
        }
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

    fn baseline(&self) -> BaselineFile {
        BaselineFile(self.root.join("fdwlint.baseline.json"))
    }
}

struct BaselineFile(PathBuf);
impl BaselineFile {
    fn text(&self) -> String {
        std::fs::read_to_string(&self.0).unwrap()
    }
    fn exists(&self) -> bool {
        self.0.is_file()
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
fn ratchet_lifecycle_bootstrap_refuse_force_tighten() {
    let ws = Scratch::new("ratchet");
    ws.write_fx(2);

    // Without a baseline the scan is over the (empty) budget: exit 1.
    assert_eq!(code(&ws.run(&[])), 1);

    // Bootstrap freezes the current counts.
    let out = ws.run(&["--write-baseline"]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    assert!(ws.baseline().exists());
    assert!(ws.baseline().text().contains("\"unwrap-in-lib/eew\": 2"));
    assert_eq!(code(&ws.run(&[])), 0, "status quo is clean");

    // Growth: scan fails, and --write-baseline refuses to loosen.
    ws.write_fx(3);
    assert_eq!(code(&ws.run(&[])), 1);
    let out = ws.run(&["--write-baseline"]);
    assert_eq!(code(&out), 1);
    assert!(
        stderr(&out).contains("refusing to loosen"),
        "{}",
        stderr(&out)
    );
    assert!(
        ws.baseline().text().contains("\"unwrap-in-lib/eew\": 2"),
        "refusal must not touch the file"
    );

    // --force overrides and prints exactly what was loosened.
    let out = ws.run(&["--write-baseline", "--force"]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    assert!(
        stdout(&out).contains("unwrap-in-lib/eew: 2 -> 3"),
        "{}",
        stdout(&out)
    );
    assert!(ws.baseline().text().contains("\"unwrap-in-lib/eew\": 3"));

    // Improvement tightens without --force, and the legacy alias works.
    ws.write_fx(1);
    let out = ws.run(&["--update-baseline"]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    assert!(ws.baseline().text().contains("\"unwrap-in-lib/eew\": 1"));
}

#[test]
fn malformed_directives_block_baseline_writes_even_with_force() {
    let ws = Scratch::new("directives");
    std::fs::write(
        ws.root.join("crates/eew/src/fx.rs"),
        "// fdwlint::allow(unwrap-in-lib)\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
    )
    .unwrap();
    let out = ws.run(&["--write-baseline", "--force"]);
    assert_eq!(code(&out), 1);
    assert!(
        stderr(&out).contains("malformed allow directives"),
        "{}",
        stderr(&out)
    );
    assert!(!ws.baseline().exists());
}

#[test]
fn json_report_is_valid_and_machine_readable() {
    let ws = Scratch::new("json");
    ws.write_fx(1);
    let out = ws.run(&["--json"]);
    assert_eq!(code(&out), 1, "violations still exit 1 under --json");
    let doc = stdout(&out);
    assert!(fdw_obs::json::validate(&doc).is_ok(), "{doc}");
    assert!(doc.contains("\"status\": \"violations\""));
    assert!(doc.contains("\"graph\""));
    assert!(doc.contains("\"allowed_flows\""));
}

#[test]
fn introspection_flags_and_exit_code_2() {
    let ws = Scratch::new("introspect");
    ws.write_fx(0);

    let out = ws.run(&["--list-rules"]);
    assert_eq!(code(&out), 0);
    for rule in [
        "fnv-outside-digest",
        "nondet-flow-to-sink",
        "dead-config-knob",
        "ulog-code-registry",
        "unblessed-parallel-reachability",
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
