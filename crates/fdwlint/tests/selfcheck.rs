//! The workspace self-check: scanning the repository this test lives in
//! must come back clean against the committed `fdwlint.baseline.json`.
//! This is the same gate `scripts/ci.sh` runs via the CLI, wired into
//! `cargo test` so a violating edit fails before CI ever sees it.

use std::path::PathBuf;

use fdwlint::{
    collect_workspace_sources, report, scan_workspace, AnalysisOptions, Baseline, Ratchet,
    SourceFile,
};

fn workspace_root() -> PathBuf {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    root.canonicalize().expect("workspace root resolves")
}

#[test]
fn workspace_is_clean_against_committed_baseline() {
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

    let outcome = scan_workspace(&sources, &AnalysisOptions::default());
    assert!(
        outcome.directive_errors.is_empty(),
        "broken allow directives:\n{:#?}",
        outcome.directive_errors
    );

    let baseline_text = std::fs::read_to_string(root.join("fdwlint.baseline.json"))
        .expect("committed fdwlint.baseline.json");
    let baseline = Baseline::parse(&baseline_text).expect("committed baseline parses");
    let ratchet = Ratchet::compare(&outcome, &baseline);
    assert!(
        ratchet.is_clean(&outcome),
        "workspace over fdwlint budget — fix the findings, add an allow \
         with a rationale, or (for reductions only) run \
         `cargo run -p fdwlint -- --write-baseline`:\n{}",
        report::human(&outcome, &ratchet)
    );
}

#[test]
fn real_workspace_call_graph_resolves_95_percent_of_sites() {
    // The taint pass is only as sound as its call resolution. If the
    // item parser or the resolver regresses, unresolved sites silently
    // hide flows — gate on the real workspace's resolution rate.
    let root = workspace_root();
    let sources = collect_workspace_sources(&root).unwrap();
    let outcome = scan_workspace(&sources, &AnalysisOptions::default());
    let g = outcome.graph_stats.expect("graph pass ran");
    assert!(g.total_sites > 5_000, "suspiciously few call sites: {g:?}");
    assert!(
        g.resolution_rate() >= 0.95,
        "call-site resolution regressed below 95%: {g:?}"
    );
}

#[test]
fn no_nondet_flow_is_allowed_in_the_workspace() {
    // No source->sink flow in the workspace is blessed: host time is
    // measured by perfbench, outside it, so no allow directive downgrades
    // a flow to an AllowedFlow and every flow the pass finds is reported.
    let root = workspace_root();
    let sources = collect_workspace_sources(&root).unwrap();
    let outcome = scan_workspace(&sources, &AnalysisOptions::default());
    assert!(
        outcome.allowed_flows.is_empty(),
        "unexpected allowed flows: {:#?}",
        outcome.allowed_flows
    );
}

#[test]
fn committed_baseline_is_canonical() {
    // The committed file must be byte-for-byte what fdwlint itself would
    // write: hand-edits that reorder keys or tweak whitespace break the
    // "one canonical artifact" property diffs rely on.
    let root = workspace_root();
    let text = std::fs::read_to_string(root.join("fdwlint.baseline.json")).unwrap();
    assert!(fdw_obs::json::validate(&text).is_ok());
    let parsed = Baseline::parse(&text).unwrap();
    assert_eq!(text, parsed.to_json(), "baseline not in canonical form");
}

#[test]
fn json_report_of_the_workspace_validates() {
    let root = workspace_root();
    let sources = collect_workspace_sources(&root).unwrap();
    let outcome = scan_workspace(&sources, &AnalysisOptions::default());
    let baseline =
        Baseline::parse(&std::fs::read_to_string(root.join("fdwlint.baseline.json")).unwrap())
            .unwrap();
    let ratchet = Ratchet::compare(&outcome, &baseline);
    let doc = report::json(&outcome, &ratchet, &baseline);
    assert!(
        fdw_obs::json::validate(&doc).is_ok(),
        "fdwlint --json emits invalid JSON"
    );
    assert!(doc.contains("\"tool\": \"fdwlint\""));
    assert!(doc.contains("\"status\": \"clean\""));
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
    let outcome = scan_workspace(&sources, &AnalysisOptions::default());
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
