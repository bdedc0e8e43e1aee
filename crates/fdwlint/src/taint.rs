//! Forward taint analysis and the call-graph rules (DESIGN.md §14).
//!
//! The determinism invariant the whole suite leans on — parallel ==
//! sequential, bitwise, all the way to serialized bytes — is only as
//! strong as the guarantee that no *nondeterminism source* can reach a
//! *serialized sink*. The per-file rules catch a source next to a sink;
//! this module catches the flow that crosses function boundaries:
//!
//! * `nondet-flow-to-sink` — a small forward taint lattice over the
//!   workspace call graph: per function, the bounded call-distance to
//!   the nearest source and to the nearest sink. The *join point* — the
//!   innermost function from which both are reachable — is the finding,
//!   reported with both call chains. `fdwlint::allow` at any hop on
//!   either chain downgrades the flow to a recorded [`AllowedFlow`],
//!   listed in the report with its written reason.
//! * `dead-config-knob` — rows of the parameter file's key table whose
//!   `FdwConfig` field no code outside `config.rs` ever reads.
//! * `ulog-code-registry` — ULOG numeric event codes defined once, in
//!   `htcsim::condor_log::codes`, and spelled via the registry elsewhere.

use std::collections::BTreeMap;

use crate::graph::{FileInfo, Graph};
use crate::rules::{
    self, Finding, LANE_SUM_ALLOWLIST, NAIVE_FLOAT_SUM, UNSEEDED_RNG_PATTERNS, WALL_CLOCK_PATTERNS,
};
use crate::syntax;

/// Knobs of the workspace analysis.
#[derive(Debug, Clone, Copy)]
pub struct AnalysisOptions {
    /// Maximum inter-procedural call depth the taint follows on each
    /// side of a flow (`--taint-depth`).
    pub taint_depth: usize,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        Self { taint_depth: 4 }
    }
}

/// A source→sink flow suppressed by an `fdwlint::allow` on some hop —
/// kept in the report, with its reason, rather than dropped.
#[derive(Debug, Clone)]
pub struct AllowedFlow {
    /// The rule that would have fired (`nondet-flow-to-sink`).
    pub rule: &'static str,
    /// Join-point file.
    pub rel_path: String,
    /// Join-point definition line.
    pub line: usize,
    /// Sink category the flow ends in (`ulog`, `telemetry`,
    /// `npy-serializer`, `mseed-serializer`, `digest`, `bench-json`).
    pub sink_kind: String,
    /// The same chain a finding would have printed.
    pub chain: Vec<String>,
    /// The directive's written justification.
    pub reason: String,
}

/// The FdwConfig parser — scope of `dead-config-knob`.
const CONFIG_FILE: &str = "crates/core/src/config.rs";

/// The invocation in `CONFIG_FILE` whose rows bind each parameter-file
/// key to its `FdwConfig` field.
const KEY_TABLE: &str = "config_keys!";

/// The ULOG code registry's home — scope of `ulog-code-registry`.
const REGISTRY_FILE: &str = "crates/htcsim/src/condor_log.rs";

/// Crates that read/write ULOG text and must spell codes via the
/// registry.
const ULOG_CRATES: &[&str] = &["htcsim", "dagman"];

/// Unreachable distance marker (room for +1 without overflow).
const INF: usize = usize::MAX / 2;

/// One entry of the serialized-sink table. `self_type` of `Some(T)`
/// requires the method to live in `impl T`; `None` accepts any def of
/// that name in the crate.
struct SinkSpec {
    kind: &'static str,
    krate: &'static str,
    name: &'static str,
    self_type: Option<&'static str>,
}

/// Every function whose output bytes land in an artifact the suite
/// byte-compares: ULOG writers, telemetry/trace exporters and
/// recorders, `.npy`/`.mseed` serializers, digests, bench JSON.
const SINKS: &[SinkSpec] = &[
    SinkSpec {
        kind: "ulog",
        krate: "htcsim",
        name: "record",
        self_type: Some("UserLog"),
    },
    SinkSpec {
        kind: "ulog",
        krate: "htcsim",
        name: "to_condor_log",
        self_type: None,
    },
    SinkSpec {
        kind: "digest",
        krate: "fdw-obs",
        name: "fnv1a",
        self_type: None,
    },
    SinkSpec {
        kind: "digest",
        krate: "fdw-obs",
        name: "fnv1a_f64",
        self_type: None,
    },
    SinkSpec {
        kind: "digest",
        krate: "fdw-obs",
        name: "fnv1a_word",
        self_type: None,
    },
    SinkSpec {
        kind: "digest",
        krate: "fdw-obs",
        name: "digest_fold",
        self_type: None,
    },
    SinkSpec {
        kind: "digest",
        krate: "fakequakes",
        name: "distance_key",
        self_type: None,
    },
    SinkSpec {
        kind: "digest",
        krate: "fakequakes",
        name: "crc32",
        self_type: None,
    },
    SinkSpec {
        kind: "npy-serializer",
        krate: "fakequakes",
        name: "write_npy",
        self_type: None,
    },
    SinkSpec {
        kind: "mseed-serializer",
        krate: "fakequakes",
        name: "push",
        self_type: Some("MseedFile"),
    },
    SinkSpec {
        kind: "mseed-serializer",
        krate: "fakequakes",
        name: "write",
        self_type: Some("MseedFile"),
    },
    SinkSpec {
        kind: "mseed-serializer",
        krate: "fakequakes",
        name: "to_bytes",
        self_type: Some("MseedFile"),
    },
    SinkSpec {
        kind: "telemetry",
        krate: "fdw-obs",
        name: "observe",
        self_type: None,
    },
    SinkSpec {
        kind: "telemetry",
        krate: "fdw-obs",
        name: "inc",
        self_type: None,
    },
    SinkSpec {
        kind: "telemetry",
        krate: "fdw-obs",
        name: "gauge",
        self_type: None,
    },
    SinkSpec {
        kind: "telemetry",
        krate: "fdw-obs",
        name: "instant",
        self_type: None,
    },
    SinkSpec {
        kind: "telemetry",
        krate: "fdw-obs",
        name: "complete",
        self_type: None,
    },
    SinkSpec {
        kind: "telemetry",
        krate: "fdw-obs",
        name: "export",
        self_type: None,
    },
    SinkSpec {
        kind: "telemetry",
        krate: "fdw-obs",
        name: "render",
        self_type: None,
    },
    SinkSpec {
        kind: "telemetry",
        krate: "fdw-obs",
        name: "to_json",
        self_type: None,
    },
    SinkSpec {
        kind: "bench-json",
        krate: "fdw-bench",
        name: "write_obs_artifact",
        self_type: None,
    },
];

/// Sink category of a graph node, if it is one.
fn sink_kind_of(graph: &Graph, node: usize) -> Option<&'static str> {
    let n = &graph.fns[node];
    let krate = &graph.files[n.file].crate_name;
    SINKS
        .iter()
        .find(|s| {
            s.krate == krate
                && s.name == n.name
                && s.self_type
                    .is_none_or(|ty| n.self_type.as_deref() == Some(ty))
        })
        .map(|s| s.kind)
}

/// Nondeterminism sources in one file's non-test code, as
/// `(line, label)`. A per-file allow for the matching token rule counts
/// as a blessing here too — its rationale already covers the
/// nondeterminism.
fn find_sources(file: &FileInfo) -> Vec<(usize, &'static str)> {
    let m = &file.masked;
    let allows = &file.allows;
    let mut out = Vec::new();
    let hash_names = rules::collect_hash_names(&m.code, &m.in_test);
    for (idx, code) in m.code.iter().enumerate() {
        if m.in_test[idx] {
            continue;
        }
        let line = idx + 1;
        if file.crate_name != "fdw-bench"
            && WALL_CLOCK_PATTERNS.iter().any(|p| code.contains(p))
            && !allows.allowed("wall-clock-in-sim", line)
        {
            out.push((line, "wall clock (Instant::now/SystemTime::now)"));
        }
        if UNSEEDED_RNG_PATTERNS.iter().any(|p| code.contains(p))
            && !allows.allowed("unseeded-randomness", line)
        {
            out.push((line, "unseeded RNG"));
        }
        if rules::iterates_hash(code, &hash_names)
            && !rules::order_insensitive(&m.code, idx)
            && !allows.allowed("unordered-hash-iteration", line)
        {
            out.push((line, "HashMap/HashSet iteration order"));
        }
        if file.crate_name == "fakequakes"
            && !LANE_SUM_ALLOWLIST.contains(&file.rel_path.as_str())
            && code.contains(NAIVE_FLOAT_SUM)
            && !allows.allowed("naive-float-accum", line)
        {
            out.push((line, "non-canonical float fold (.sum::<f64>())"));
        }
    }
    out
}

/// Run every graph rule over the workspace.
pub fn analyze(graph: &Graph, opts: &AnalysisOptions) -> (Vec<Finding>, Vec<AllowedFlow>) {
    let mut findings = Vec::new();
    let mut allowed_flows = Vec::new();
    nondet_flow_to_sink(graph, opts, &mut findings, &mut allowed_flows);
    dead_config_knob(graph, &mut findings);
    ulog_code_registry(graph, &mut findings);
    (findings, allowed_flows)
}

/// The finding constructor for graph rules: located at a node's
/// definition line.
fn finding_at(
    graph: &Graph,
    rule: &'static str,
    file: usize,
    line: usize,
    chain: Vec<String>,
) -> Finding {
    let f = &graph.files[file];
    Finding {
        rule,
        rel_path: f.rel_path.clone(),
        line,
        excerpt: f
            .masked
            .code
            .get(line.saturating_sub(1))
            .map(|l| l.trim().to_string())
            .unwrap_or_default(),
        chain,
    }
}

/// `a -> b -> c` rendering of a node path, with file:line per hop.
fn render_path(graph: &Graph, path: &[usize]) -> String {
    path.iter()
        .map(|&n| graph.label(n))
        .collect::<Vec<_>>()
        .join(" -> ")
}

/// Walk from `from` toward distance zero, following callees whose
/// distance strictly decreases. Deterministic: edges are in build order.
fn walk_to_zero(graph: &Graph, from: usize, dist: &[usize]) -> Vec<usize> {
    let mut path = vec![from];
    let mut cur = from;
    while dist[cur] > 0 {
        let Some(next) = graph.edges[cur]
            .iter()
            .map(|e| e.callee)
            .find(|&g| dist[g] == dist[cur] - 1)
        else {
            break; // can't happen for a relaxed distance; stay safe
        };
        path.push(next);
        cur = next;
    }
    path
}

fn nondet_flow_to_sink(
    graph: &Graph,
    opts: &AnalysisOptions,
    findings: &mut Vec<Finding>,
    allowed_flows: &mut Vec<AllowedFlow>,
) {
    const RULE: &str = "nondet-flow-to-sink";
    let n = graph.fns.len();
    let d = opts.taint_depth;

    // Direct sources, attributed to the innermost containing fn.
    let mut direct: Vec<Option<(usize, &'static str)>> = vec![None; n];
    for (fi, file) in graph.files.iter().enumerate() {
        if file.is_test_path {
            continue;
        }
        for (line, label) in find_sources(file) {
            if let Some(f) = graph.fn_at(fi, line) {
                if direct[f].is_none() {
                    direct[f] = Some((line, label));
                }
            }
        }
    }

    // Bounded forward distances: to the nearest source-holding fn and to
    // the nearest sink fn. `d` relaxation rounds bound the depth.
    let mut src = vec![INF; n];
    let mut sink = vec![INF; n];
    for f in 0..n {
        if direct[f].is_some() {
            src[f] = 0;
        }
        if sink_kind_of(graph, f).is_some() {
            sink[f] = 0;
        }
    }
    for _ in 0..d {
        for caller in 0..n {
            for e in &graph.edges[caller] {
                src[caller] = src[caller].min(src[e.callee] + 1);
                sink[caller] = sink[caller].min(sink[e.callee] + 1);
            }
        }
    }

    for f in 0..n {
        if src[f] > d || sink[f] > d {
            continue;
        }
        let src_direct = src[f] == 0;
        let sink_direct = sink[f] == 0;
        if !src_direct && !sink_direct {
            // If one callee already joins both sides, the join point is
            // deeper — report there, not at every transitive caller.
            let covered = graph.edges[f]
                .iter()
                .any(|e| src[e.callee] < d && sink[e.callee] < d);
            if covered {
                continue;
            }
        }

        let src_path = walk_to_zero(graph, f, &src);
        let sink_path = walk_to_zero(graph, f, &sink);
        let src_holder = *src_path.last().unwrap_or(&f);
        let sink_node = *sink_path.last().unwrap_or(&f);
        let (sline, slabel) = direct[src_holder].unwrap_or((graph.fns[src_holder].start_line, "?"));
        let kind = sink_kind_of(graph, sink_node).unwrap_or("?");
        let chain = vec![
            format!(
                "source path: {} [{} at {}:{}]",
                render_path(graph, &src_path),
                slabel,
                graph.files[graph.fns[src_holder].file].rel_path,
                sline
            ),
            format!(
                "sink path: {} [sink: {}]",
                render_path(graph, &sink_path),
                kind
            ),
        ];

        // Allow at any hop of either chain downgrades the flow.
        let mut reason = None;
        for &hop in src_path.iter().chain(sink_path.iter()) {
            let node = &graph.fns[hop];
            if let Some(r) = graph.files[node.file].allows.reason_in_span(
                RULE,
                node.start_line.saturating_sub(1),
                node.end_line,
            ) {
                reason = Some(r);
                break;
            }
        }
        let node = &graph.fns[f];
        match reason {
            Some(reason) => allowed_flows.push(AllowedFlow {
                rule: RULE,
                rel_path: graph.files[node.file].rel_path.clone(),
                line: node.start_line,
                sink_kind: kind.to_string(),
                chain,
                reason,
            }),
            None => findings.push(finding_at(graph, RULE, node.file, node.start_line, chain)),
        }
    }
}

/// Read the `"<key>" => <field path>` rows of the parameter file's key
/// table and check each bound field is read somewhere outside the config
/// module.
fn dead_config_knob(graph: &Graph, findings: &mut Vec<Finding>) {
    const RULE: &str = "dead-config-knob";
    let Some(ci) = graph.files.iter().position(|f| f.rel_path == CONFIG_FILE) else {
        return;
    };
    let m = &graph.files[ci].masked;
    let Some(table) = (0..m.code.len()).find(|&idx| {
        !m.in_test[idx]
            && m.code[idx]
                .trim_start()
                .strip_prefix(KEY_TABLE)
                .is_some_and(|rest| rest.trim_start().starts_with('{'))
    }) else {
        return;
    };

    let valid_key =
        |s: &str| !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
    let mut knobs: Vec<(String, String, usize)> = Vec::new(); // (key, field, line)
    for (idx, code) in m.code.iter().enumerate().skip(table + 1) {
        if code.trim_start().starts_with('}') {
            break;
        }
        let (Some(key), Some((_, bound))) = (m.strings[idx].first(), code.split_once("=>")) else {
            continue;
        };
        let field: String = bound
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_' || *c == '.')
            .collect();
        if valid_key(key) && !field.is_empty() {
            knobs.push((key.clone(), field, idx + 1));
        }
    }

    // The name a read would use: the last alphabetic segment of the
    // field path (`fault.pool.outage_pool` → `outage_pool`,
    // `mw_range.0` → `mw_range`).
    let read_name = |field: &str| -> Option<String> {
        field
            .split('.')
            .rfind(|s| s.chars().next().is_some_and(|c| c.is_ascii_alphabetic()))
            .map(str::to_string)
    };

    let mut read_fields: Vec<String> = Vec::new();
    for (_, field, _) in &knobs {
        if let Some(rn) = read_name(field) {
            if !read_fields.contains(&rn) {
                read_fields.push(rn);
            }
        }
    }
    let mut seen_read: BTreeMap<&str, bool> =
        read_fields.iter().map(|f| (f.as_str(), false)).collect();
    for file in &graph.files {
        if file.is_test_path || file.rel_path == CONFIG_FILE {
            continue;
        }
        for (idx, code) in file.masked.code.iter().enumerate() {
            if file.masked.in_test[idx] {
                continue;
            }
            for (fname, seen) in seen_read.iter_mut() {
                if *seen {
                    continue;
                }
                let pat = format!(".{fname}");
                let mut from = 0usize;
                while let Some(p) = code[from..].find(&pat) {
                    let abs = from + p;
                    let after = code[abs + pat.len()..].chars().next();
                    if !after.is_some_and(|c| c.is_alphanumeric() || c == '_') {
                        *seen = true;
                        break;
                    }
                    from = abs + pat.len();
                }
            }
        }
    }

    for (key, field, line) in &knobs {
        let Some(rn) = read_name(field) else { continue };
        if seen_read.get(rn.as_str()).copied().unwrap_or(true) {
            continue;
        }
        if graph.files[ci].allows.allowed(RULE, *line) {
            continue;
        }
        let chain = vec![format!(
            "knob '{key}' binds {field}; no read of `.{rn}` outside {CONFIG_FILE}"
        )];
        findings.push(finding_at(graph, RULE, ci, *line, chain));
    }
}

/// Exact-three-digit string literal?
fn is_ulog_code(s: &str) -> bool {
    s.len() == 3 && s.chars().all(|c| c.is_ascii_digit())
}

fn ulog_code_registry(graph: &Graph, findings: &mut Vec<Finding>) {
    const RULE: &str = "ulog-code-registry";
    let reg_idx = graph.files.iter().position(|f| f.rel_path == REGISTRY_FILE);
    let mut reg_codes: BTreeMap<String, usize> = BTreeMap::new();
    let mut reg_span: Option<(usize, usize, usize)> = None; // (file, lo, hi)

    if let Some(ri) = reg_idx {
        let file = &graph.files[ri];
        let fx = syntax::parse(&file.masked);
        match fx.mods.iter().find(|msp| msp.name == "codes") {
            Some(msp) => {
                reg_span = Some((ri, msp.start_line, msp.end_line));
                for idx in msp.start_line - 1..msp.end_line.min(file.masked.code.len()) {
                    for lit in file.masked.strings.get(idx).into_iter().flatten() {
                        if !is_ulog_code(lit) {
                            continue;
                        }
                        let line = idx + 1;
                        if let Some(first) = reg_codes.get(lit) {
                            if !file.allows.allowed(RULE, line) {
                                let chain = vec![format!(
                                    "code \"{lit}\" already defined at {REGISTRY_FILE}:{first}"
                                )];
                                findings.push(finding_at(graph, RULE, ri, line, chain));
                            }
                        } else {
                            reg_codes.insert(lit.clone(), line);
                        }
                    }
                }
            }
            None => {
                if !file.allows.allowed(RULE, 1) {
                    let chain = vec![format!("{REGISTRY_FILE} has no `mod codes` registry block")];
                    findings.push(finding_at(graph, RULE, ri, 1, chain));
                }
                return;
            }
        }
    }

    for (fi, file) in graph.files.iter().enumerate() {
        if file.is_test_path || !ULOG_CRATES.contains(&file.crate_name.as_str()) {
            continue;
        }
        for (idx, lits) in file.masked.strings.iter().enumerate() {
            if file.masked.in_test[idx] {
                continue;
            }
            let line = idx + 1;
            if let Some((ri, lo, hi)) = reg_span {
                if ri == fi && line >= lo && line <= hi {
                    continue;
                }
            }
            for lit in lits {
                let is_registered = reg_codes.contains_key(lit);
                // With a registry present, only its codes are ULOG
                // codes; with none, any bare 3-digit literal in a ULOG
                // crate is suspect.
                if !is_ulog_code(lit) || (reg_idx.is_some() && !is_registered) {
                    continue;
                }
                if file.allows.allowed(RULE, line) {
                    continue;
                }
                let chain = vec![format!(
                    "ULOG code \"{lit}\" spelled as a literal; reference htcsim::condor_log::codes"
                )];
                findings.push(finding_at(graph, RULE, fi, line, chain));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::build;
    use crate::rules::SourceFile;

    fn src(crate_name: &str, rel_path: &str, text: &str) -> SourceFile {
        SourceFile {
            crate_name: crate_name.into(),
            rel_path: rel_path.into(),
            text: text.into(),
        }
    }

    fn run(files: &[SourceFile], depth: usize) -> (Vec<Finding>, Vec<AllowedFlow>) {
        let g = build(files);
        analyze(&g, &AnalysisOptions { taint_depth: depth })
    }

    // A minimal two-crate workspace where the wall clock flows through a
    // helper into a telemetry sink: source and sink two calls apart.
    fn flow_fixture(allow_on_mid: bool) -> Vec<SourceFile> {
        let mid = if allow_on_mid {
            "pub fn mid(obs: &Obs) -> u64 {\n\
             \x20   // fdwlint::allow(nondet-flow-to-sink): host timing is the payload here\n\
             \x20   let us = read_clock();\n\
             \x20   us\n\
             }\n"
        } else {
            "pub fn mid(obs: &Obs) -> u64 {\n\
             \x20   let us = read_clock();\n\
             \x20   us\n\
             }\n"
        };
        vec![
            src(
                "fdw-core",
                "crates/core/src/pipeline.rs",
                &format!(
                    "pub fn drive(obs: &Obs) {{\n\
                     \x20   let us = mid(obs);\n\
                     \x20   obs.observe(us as f64);\n\
                     }}\n{mid}\
                     fn read_clock() -> u64 {{\n\
                     \x20   let t = std::time::Instant::now();\n\
                     \x20   0\n\
                     }}\n"
                ),
            ),
            src(
                "fdw-obs",
                "crates/obs/src/lib.rs",
                "pub struct Obs;\nimpl Obs {\n    pub fn observe(&self, v: f64) { let _ = v; }\n}\n",
            ),
        ]
    }

    #[test]
    fn interprocedural_flow_two_calls_apart_is_flagged_with_chain() {
        let (findings, allowed) = run(&flow_fixture(false), 4);
        let flows: Vec<&Finding> = findings
            .iter()
            .filter(|f| f.rule == "nondet-flow-to-sink")
            .collect();
        assert_eq!(flows.len(), 1, "{findings:?}");
        let f = flows[0];
        // The join point is `drive`: source two hops down (mid ->
        // read_clock), sink one hop (observe).
        assert_eq!(f.rel_path, "crates/core/src/pipeline.rs");
        assert_eq!(f.line, 1);
        let chain = f.chain.join("\n");
        assert!(chain.contains("drive"), "{chain}");
        assert!(chain.contains("mid"), "{chain}");
        assert!(chain.contains("read_clock"), "{chain}");
        assert!(chain.contains("Instant::now"), "{chain}");
        assert!(chain.contains("sink: telemetry"), "{chain}");
        assert!(allowed.is_empty());
    }

    #[test]
    fn allow_on_intermediate_hop_downgrades_to_allowed_flow() {
        let (findings, allowed) = run(&flow_fixture(true), 4);
        assert!(
            findings.iter().all(|f| f.rule != "nondet-flow-to-sink"),
            "{findings:?}"
        );
        assert_eq!(allowed.len(), 1);
        assert_eq!(allowed[0].sink_kind, "telemetry");
        assert_eq!(allowed[0].reason, "host timing is the payload here");
        assert!(allowed[0].chain.join("\n").contains("mid"));
    }

    #[test]
    fn taint_depth_bounds_the_search() {
        // source is 2 hops from the join; depth 1 cannot see it.
        let (findings, _) = run(&flow_fixture(false), 1);
        assert!(
            findings.iter().all(|f| f.rule != "nondet-flow-to-sink"),
            "{findings:?}"
        );
    }

    #[test]
    fn join_point_is_the_innermost_function() {
        // outer -> drive -> {mid -> clock, observe}: drive joins, outer
        // must not duplicate the finding.
        let mut files = flow_fixture(false);
        files.push(src(
            "fdw-core",
            "crates/core/src/outer.rs",
            "pub fn outer(obs: &Obs) { drive(obs); }\n",
        ));
        let (findings, _) = run(&files, 4);
        let flows: Vec<&Finding> = findings
            .iter()
            .filter(|f| f.rule == "nondet-flow-to-sink")
            .collect();
        assert_eq!(flows.len(), 1, "{flows:?}");
        assert_eq!(flows[0].rel_path, "crates/core/src/pipeline.rs");
    }

    #[test]
    fn direct_source_and_sink_in_one_fn() {
        let files = vec![src(
            "fdw-obs",
            "crates/obs/src/x.rs",
            "pub fn digest_fold(h: u64, x: u64) -> u64 { h ^ x }\n\
                 pub fn stamp(m: &HashMap<u64, u64>) -> u64 {\n\
                 \x20   let mut h = 0;\n\
                 \x20   for (k, v) in m.iter() {\n\
                 \x20       h = digest_fold(h, k ^ v);\n\
                 \x20   }\n\
                 \x20   h\n\
                 }\n",
        )];
        // `stamp` iterates a HashMap (source, dist 0) and calls
        // digest_fold (sink, dist 1).
        let (findings, _) = run(&files, 4);
        let flows: Vec<&Finding> = findings
            .iter()
            .filter(|f| f.rule == "nondet-flow-to-sink")
            .collect();
        assert_eq!(flows.len(), 1, "{findings:?}");
        assert!(flows[0].chain.join("\n").contains("iteration order"));
    }

    #[test]
    fn dead_config_knob_fires_and_read_silences() {
        let config = "config_keys! {\n\
                      \x20   \"region\" => region via Region,\n\
                      \x20   \"mw_min\" => mw_range.0,\n\
                      \x20   \"fault_seed\" => fault.seed,\n\
                      \x20   \"live_knob\" => live_knob,\n\
                      \x20   \"ghost_knob\" => ghost_knob,\n\
                      }\n";
        let reader = "pub fn run(cfg: &FdwConfig) -> u32 {\n\
                      \x20   steer(cfg.region, cfg.mw_range.0, cfg.fault.seed);\n\
                      \x20   cfg.live_knob\n\
                      }\n";
        let (findings, _) = run(
            &[
                src("fdw-core", "crates/core/src/config.rs", config),
                src("fdw-core", "crates/core/src/runner.rs", reader),
            ],
            4,
        );
        let dead: Vec<&Finding> = findings
            .iter()
            .filter(|f| f.rule == "dead-config-knob")
            .collect();
        assert_eq!(dead.len(), 1, "{findings:?}");
        assert_eq!(dead[0].line, 6);
        assert!(dead[0].chain[0].contains("ghost_knob"));
    }

    #[test]
    fn ulog_registry_duplicates_and_stray_literals() {
        let registry = "pub mod codes {\n\
                        \x20   pub const SUBMITTED: &str = \"000\";\n\
                        \x20   pub const TERMINATED: &str = \"005\";\n\
                        \x20   pub const DUP: &str = \"005\";\n\
                        }\n";
        let stray = "pub fn grep_terminations(text: &str) -> usize {\n\
                     \x20   text.matches(\"005\").count()\n\
                     }\n";
        let (findings, _) = run(
            &[
                src("htcsim", "crates/htcsim/src/condor_log.rs", registry),
                src("dagman", "crates/dagman/src/monitor.rs", stray),
            ],
            4,
        );
        let hits: Vec<&Finding> = findings
            .iter()
            .filter(|f| f.rule == "ulog-code-registry")
            .collect();
        assert_eq!(hits.len(), 2, "{findings:?}");
        assert!(hits.iter().any(
            |f| f.rel_path.ends_with("condor_log.rs") && f.chain[0].contains("already defined")
        ));
        assert!(hits
            .iter()
            .any(|f| f.rel_path.ends_with("monitor.rs") && f.chain[0].contains("\"005\"")));
        // Non-code literals ("100" not in the registry) never fire.
        assert!(findings
            .iter()
            .all(|f| f.rule != "ulog-code-registry" || !f.chain[0].contains("100")));
    }
}
