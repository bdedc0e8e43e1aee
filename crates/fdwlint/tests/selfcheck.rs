//! The workspace self-check: scanning the repository this test lives in
//! must come back clean, with no finding and no directive error. This is
//! the same gate `scripts/ci.sh` runs via the CLI, wired into
//! `cargo test` so a violating edit fails before CI ever sees it.

use std::path::PathBuf;

use fdwlint::{collect_workspace_sources, report, scan_workspace, SourceFile};

fn workspace_root() -> PathBuf {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    root.canonicalize().expect("workspace root resolves")
}

#[test]
fn workspace_scans_clean() {
    let root = workspace_root();
    let sources = collect_workspace_sources(&root).expect("workspace sources readable");
    assert!(
        sources.len() > 50,
        "suspiciously few sources ({}) — walker broken?",
        sources.len()
    );
    // This very file must be in the walk (tests are scanned for
    // directive errors even though path-scoped rules skip them).
    assert!(sources
        .iter()
        .any(|s| s.rel_path == "crates/fdwlint/tests/selfcheck.rs"));

    let outcome = scan_workspace(&sources);
    assert!(
        outcome.is_clean(),
        "fdwlint violations — fix the findings or add an allow with a \
         rationale:\n{}",
        report::human(&outcome)
    );
}

#[test]
fn json_report_of_the_workspace_validates() {
    let root = workspace_root();
    let sources = collect_workspace_sources(&root).unwrap();
    let outcome = scan_workspace(&sources);
    let doc = report::json(&outcome);
    assert!(
        fdw_obs::json::validate(&doc).is_ok(),
        "fdwlint --json emits invalid JSON"
    );
    assert!(doc.contains("\"tool\": \"fdwlint\""));
    assert!(doc.contains("\"status\": \"clean\""));
    assert!(doc.contains("\"version\": 3,"), "{doc}");
    assert!(doc.contains("\"findings\": [\n  ]"), "{doc}");
    for gone in ["\"allowed_flows\"", "\"graph\""] {
        assert!(!doc.contains(gone), "{gone} in {doc}");
    }
}

#[test]
fn dead_config_knob_binds_every_key_of_the_real_table() {
    // Scanned alone, the parameter-file module has no reader outside it,
    // so every row the rule binds fires once. All 56 must: a change to
    // the row shape that the rule no longer parses fails here instead of
    // silently disarming it.
    let rel_path = "crates/core/src/config.rs";
    let text = std::fs::read_to_string(workspace_root().join(rel_path)).unwrap();
    let sources = [SourceFile {
        crate_name: "fdw-core".into(),
        rel_path: rel_path.into(),
        text,
    }];
    let outcome = scan_workspace(&sources);
    let keys: Vec<&str> = outcome
        .findings
        .iter()
        .filter(|f| f.rule == "dead-config-knob")
        .filter_map(|f| f.chain[0].strip_prefix("knob '")?.split('\'').next())
        .collect();
    assert_eq!(keys.len(), 56, "{keys:?}");
    let mut distinct = keys.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), 56, "duplicate rows: {keys:?}");
    assert_eq!(keys.first(), Some(&"region"));
    assert_eq!(keys.last(), Some(&"des_shards"));
    for key in [
        "station_input",
        "mw_min",
        "mw_max",
        "stf",
        "fault_pool_outage_s",
    ] {
        assert!(keys.contains(&key), "{key} not bound: {keys:?}");
    }
}
