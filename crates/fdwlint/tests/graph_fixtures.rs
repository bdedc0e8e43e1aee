//! Inter-procedural taint fixtures, loaded from the on-disk mini
//! workspaces under `tests/fixtures/`: flows whose source sits 1, 2 and
//! 3 calls below the join point, the `--taint-depth` bound, and an
//! `fdwlint::allow` on an intermediate hop downgrading a flow to a
//! recorded AllowedFlow.

use std::path::Path;

use fdwlint::{scan_workspace, AnalysisOptions, ScanOutcome, SourceFile};

/// Load `tests/fixtures/<name>/` as an in-memory workspace: each
/// `crates/<dir>/src/**.rs` becomes a SourceFile with the same
/// crate-name mapping the real scanner uses.
fn load_fixture(name: &str) -> Vec<SourceFile> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
        .join("crates");
    let crate_name = |dir: &str| match dir {
        "core" => "fdw-core".to_string(),
        "obs" => "fdw-obs".to_string(),
        "bench" => "fdw-bench".to_string(),
        other => other.to_string(),
    };
    let mut files = Vec::new();
    let mut members: Vec<_> = std::fs::read_dir(&root)
        .expect("fixture exists")
        .map(|e| e.expect("readable fixture entry").path())
        .collect();
    members.sort();
    for member in members {
        let dir = member
            .file_name()
            .expect("named")
            .to_string_lossy()
            .to_string();
        let src = member.join("src");
        let mut entries: Vec<_> = std::fs::read_dir(&src)
            .expect("fixture crate has src/")
            .map(|e| e.expect("readable source entry").path())
            .collect();
        entries.sort();
        for path in entries {
            let rel = path
                .file_name()
                .expect("named")
                .to_string_lossy()
                .to_string();
            files.push(SourceFile {
                crate_name: crate_name(&dir),
                rel_path: format!("crates/{dir}/src/{rel}"),
                text: std::fs::read_to_string(&path).expect("readable fixture source"),
            });
        }
    }
    files
}

fn scan_at(name: &str, depth: usize) -> ScanOutcome {
    scan_workspace(&load_fixture(name), &AnalysisOptions { taint_depth: depth })
}

/// The join-point fns flagged by nondet-flow-to-sink, by name.
fn flagged_joins(out: &ScanOutcome) -> Vec<String> {
    out.findings
        .iter()
        .filter(|f| f.rule == "nondet-flow-to-sink")
        .map(|f| {
            f.excerpt
                .split("fn ")
                .nth(1)
                .and_then(|s| s.split('(').next())
                .expect("finding anchors on a fn header")
                .to_string()
        })
        .collect()
}

#[test]
fn taint_depth_gates_each_chain() {
    // The fixture's three chains put the source 1, 2 and 3 calls below
    // the join; the sink is always 1 call away.
    assert_eq!(flagged_joins(&scan_at("taint_depth", 1)), ["join_depth1"]);
    assert_eq!(
        flagged_joins(&scan_at("taint_depth", 2)),
        ["join_depth1", "join_depth2"]
    );
    assert_eq!(
        flagged_joins(&scan_at("taint_depth", 3)),
        ["join_depth1", "join_depth2", "join_depth3"]
    );
    // Depth 0 only sees same-fn flows; the fixture has none.
    assert_eq!(flagged_joins(&scan_at("taint_depth", 0)), [] as [&str; 0]);
}

#[test]
fn depth_three_chain_is_printed_in_full() {
    let out = scan_at("taint_depth", 3);
    let f = out
        .findings
        .iter()
        .find(|f| f.rule == "nondet-flow-to-sink" && f.excerpt.contains("join_depth3"))
        .expect("depth-3 flow flagged");
    let chain = f.chain.join("\n");
    for hop in ["join_depth3", "mid3a", "mid3b", "clock_leaf3", "observe"] {
        assert!(chain.contains(hop), "missing hop {hop} in:\n{chain}");
    }
    assert!(chain.contains("Instant::now"), "{chain}");
    assert!(chain.contains("sink: telemetry"), "{chain}");
    assert!(
        chain.contains("crates/core/src/chain.rs"),
        "hops carry file:line — {chain}"
    );
}

#[test]
fn allow_on_intermediate_hop_downgrades_to_allowed_flow() {
    let out = scan_at("allow_hop", 4);
    assert!(
        out.findings.iter().all(|f| f.rule != "nondet-flow-to-sink"),
        "allowed flow still reported as a finding: {:?}",
        out.findings
    );
    assert!(
        out.directive_errors.is_empty(),
        "{:?}",
        out.directive_errors
    );
    assert_eq!(out.allowed_flows.len(), 1, "{:?}", out.allowed_flows);
    let a = &out.allowed_flows[0];
    assert_eq!(a.rule, "nondet-flow-to-sink");
    assert_eq!(a.sink_kind, "telemetry");
    assert!(a.reason.contains("telemetry payload by design"));
    // The chain survives the downgrade; the allowed hop is on it.
    assert!(a.chain.join("\n").contains("mid2"));
}

#[test]
fn fixtures_resolve_their_own_call_graphs() {
    for name in ["taint_depth", "allow_hop"] {
        let g = scan_at(name, 4).graph_stats;
        assert!(
            g.resolution_rate() >= 0.95,
            "{name}: resolution rate {:.3}",
            g.resolution_rate()
        );
    }
}
