//! Workspace symbol table and call graph (DESIGN.md §14).
//!
//! Built from the item-parse layer ([`crate::syntax`]): every function
//! definition in non-test sources becomes a node; every call expression
//! is resolved against the symbol table by name and path suffix, with a
//! same-file → same-crate → workspace tier preference. Resolution is an
//! over-approximation — a method call resolves to *every* workspace
//! method of that name that survives the tier filter, and taint flows
//! along all edges — so the graph can produce false paths but will not
//! silently drop a real one for any call it resolves.

use std::collections::BTreeMap;

use crate::lexer::{mask, Masked};
use crate::rules::SourceFile;
use crate::syntax::{self, Call};

/// Path roots that mark a call as outside the workspace.
const EXTERNAL_ROOTS: &[&str] = &["std", "core", "alloc", "rayon"];

/// Method names too generic to resolve *across crates*: `.write(` in
/// dagman must not grow an edge to `MseedFile::write` in fakequakes just
/// because the names collide. Within the defining file or crate the
/// receiver is plausibly the workspace type; across crates these names
/// are treated as non-workspace calls. Distinctive sink methods
/// (`observe`, `record`, `to_json`, ...) are deliberately absent.
const COMMON_METHOD_NAMES: &[&str] = &[
    "write", "read", "push", "pop", "insert", "remove", "get", "set", "len", "is_empty", "new",
    "clone", "next", "flush", "extend", "iter", "drain", "contains", "take", "send", "recv",
    "join", "run", "start", "stop", "clear", "append", "from", "into", "default", "fmt", "eq",
    "cmp", "hash", "drop", "tick", "step", "add", "sub", "emit", "apply", "build", "init", "reset",
    "update", "finish", "close", "open", "load", "store", "parse", "name", "id",
];

/// One source file of the graph, with its masked channels retained for
/// the downstream taint pass.
#[derive(Debug)]
pub struct FileInfo {
    /// Package name owning the file.
    pub crate_name: String,
    /// Workspace-relative path.
    pub rel_path: String,
    /// Masked lexer channels.
    pub masked: Masked,
    /// Under a `tests/`/`benches/`/`examples/` tree — no defs taken.
    pub is_test_path: bool,
}

/// One function definition node.
#[derive(Debug)]
pub struct FnNode {
    /// Index into [`Graph::files`].
    pub file: usize,
    /// Bare name.
    pub name: String,
    /// `impl`/`trait` type, if a method.
    pub self_type: Option<String>,
    /// Fully qualified segments: crate ident, file modules, inline
    /// modules, self type (if any), name.
    pub qualified: Vec<String>,
    /// 1-based span of the definition.
    pub start_line: usize,
    /// 1-based line of the closing brace.
    pub end_line: usize,
    /// Declared with a visibility qualifier.
    pub is_pub: bool,
    /// Raw call expressions in the body (pre-resolution).
    pub calls: Vec<Call>,
}

impl FnNode {
    /// `path::to::fn` display form.
    pub fn display(&self) -> String {
        self.qualified.join("::")
    }
}

/// A resolved caller→callee edge.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Callee node index.
    pub callee: usize,
    /// 1-based call-site line in the caller's file.
    pub line: usize,
}

/// How one call site classified.
#[derive(Debug, PartialEq)]
pub enum Resolution {
    /// Matched ≥1 workspace definition (all listed; >1 = ambiguous).
    Workspace(Vec<usize>),
    /// External root, std method, tuple constructor, closure call —
    /// provably or plausibly not a workspace function.
    NonWorkspace,
    /// Name matches a workspace def but qualification/kind rejected
    /// every candidate — a site the graph honestly failed to place.
    Unresolved,
}

/// Call-site classification counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct GraphStats {
    /// All call sites seen in non-test sources.
    pub total_sites: usize,
    /// Sites resolved to ≥1 workspace definition.
    pub workspace_sites: usize,
    /// Sites classified as outside the workspace.
    pub non_workspace_sites: usize,
    /// Sites the resolver could not place.
    pub unresolved_sites: usize,
    /// Workspace sites that matched more than one definition.
    pub ambiguous_sites: usize,
}

impl GraphStats {
    /// Fraction of call sites classified (workspace or non-workspace).
    /// The workspace self-check asserts this stays ≥ 0.95.
    pub fn resolution_rate(&self) -> f64 {
        if self.total_sites == 0 {
            return 1.0;
        }
        (self.workspace_sites + self.non_workspace_sites) as f64 / self.total_sites as f64
    }
}

/// The workspace call graph.
#[derive(Debug)]
pub struct Graph {
    /// Files, aligned with [`FnNode::file`].
    pub files: Vec<FileInfo>,
    /// Function nodes.
    pub fns: Vec<FnNode>,
    /// Forward edges per node (deduped per callee, first call line kept).
    pub edges: Vec<Vec<Edge>>,
    /// Reverse adjacency: for each node, its callers.
    pub reverse: Vec<Vec<usize>>,
    /// Resolution counters.
    pub stats: GraphStats,
}

/// Module path a file contributes from its location: `crates/x/src/a/b.rs`
/// → `[a, b]`; `lib.rs`/`main.rs`/`mod.rs` tails drop.
fn module_path(rel_path: &str) -> Vec<String> {
    let mut p = rel_path;
    if let Some(rest) = p.strip_prefix("crates/") {
        p = rest.split_once('/').map(|x| x.1).unwrap_or(rest);
    }
    p = p.strip_prefix("src/").unwrap_or(p);
    p = p.strip_suffix(".rs").unwrap_or(p);
    let mut segs: Vec<String> = p
        .split('/')
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    if segs
        .last()
        .is_some_and(|l| l == "lib" || l == "main" || l == "mod")
    {
        segs.pop();
    }
    segs
}

/// Same test-tree predicate the per-file rules use.
pub fn is_test_path(rel_path: &str) -> bool {
    ["tests/", "benches/", "examples/"]
        .iter()
        .any(|d| rel_path.starts_with(d) || rel_path.contains(&format!("/{d}")))
}

/// Build the call graph over `files`.
pub fn build(files: &[SourceFile]) -> Graph {
    let mut infos = Vec::with_capacity(files.len());
    let mut fns: Vec<FnNode> = Vec::new();

    for (fi, f) in files.iter().enumerate() {
        let masked = mask(&f.text);
        let test_path = is_test_path(&f.rel_path);
        if !test_path {
            let parsed = syntax::parse(&masked);
            let crate_ident = f.crate_name.replace('-', "_");
            let file_mods = module_path(&f.rel_path);
            for d in parsed.fns {
                let mut qualified = vec![crate_ident.clone()];
                qualified.extend(file_mods.iter().cloned());
                qualified.extend(d.mods.iter().cloned());
                if let Some(ty) = &d.self_type {
                    qualified.push(ty.clone());
                }
                qualified.push(d.name.clone());
                fns.push(FnNode {
                    file: fi,
                    name: d.name,
                    self_type: d.self_type,
                    qualified,
                    start_line: d.start_line,
                    end_line: d.end_line,
                    is_pub: d.is_pub,
                    calls: d.calls,
                });
            }
        }
        infos.push(FileInfo {
            crate_name: f.crate_name.clone(),
            rel_path: f.rel_path.clone(),
            masked,
            is_test_path: test_path,
        });
    }

    // Name → candidate node indices (BTreeMap keeps everything ordered
    // and deterministic; fdwlint holds itself to its own hash rules).
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, n) in fns.iter().enumerate() {
        by_name.entry(n.name.as_str()).or_default().push(i);
    }

    let mut stats = GraphStats::default();
    let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); fns.len()];
    for caller in 0..fns.len() {
        let mut seen: Vec<usize> = Vec::new();
        // Immutable borrows of surrounding tables; collect edges after.
        let resolved: Vec<(Resolution, usize)> = fns[caller]
            .calls
            .iter()
            .map(|c| (resolve(c, caller, &fns, &infos, &by_name), c.line))
            .collect();
        for (res, line) in resolved {
            stats.total_sites += 1;
            match res {
                Resolution::Workspace(targets) => {
                    stats.workspace_sites += 1;
                    if targets.len() > 1 {
                        stats.ambiguous_sites += 1;
                    }
                    for t in targets {
                        if !seen.contains(&t) {
                            seen.push(t);
                            edges[caller].push(Edge { callee: t, line });
                        }
                    }
                }
                Resolution::NonWorkspace => stats.non_workspace_sites += 1,
                Resolution::Unresolved => stats.unresolved_sites += 1,
            }
        }
    }

    let mut reverse: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
    for (caller, out) in edges.iter().enumerate() {
        for e in out {
            reverse[e.callee].push(caller);
        }
    }

    Graph {
        files: infos,
        fns,
        edges,
        reverse,
        stats,
    }
}

/// Classify one call site made by `caller`.
fn resolve(
    call: &Call,
    caller: usize,
    fns: &[FnNode],
    files: &[FileInfo],
    by_name: &BTreeMap<&str, Vec<usize>>,
) -> Resolution {
    // Normalize the path: `crate::` → caller's crate ident, `Self::` →
    // caller's impl type, `self::`/`super::` stripped (approximate —
    // suffix matching absorbs the lost precision).
    let caller_node = &fns[caller];
    let caller_file = &files[caller_node.file];
    let mut path: Vec<String> = Vec::with_capacity(call.path.len());
    for (i, seg) in call.path.iter().enumerate() {
        if i == 0 {
            match seg.as_str() {
                "crate" => {
                    path.push(caller_file.crate_name.replace('-', "_"));
                    continue;
                }
                "Self" => {
                    if let Some(ty) = &caller_node.self_type {
                        path.push(ty.clone());
                    }
                    continue;
                }
                "self" | "super" => continue,
                _ => {}
            }
        }
        path.push(seg.clone());
    }
    if path.is_empty() {
        return Resolution::NonWorkspace;
    }
    if path.len() > 1 && EXTERNAL_ROOTS.contains(&path[0].as_str()) {
        return Resolution::NonWorkspace;
    }
    let name = path.last().map(String::as_str).unwrap_or("");
    let Some(candidates) = by_name.get(name) else {
        // No workspace definition bears this name: std call, tuple
        // constructor, closure invocation — not a workspace edge.
        return Resolution::NonWorkspace;
    };

    let filtered: Vec<usize> = if call.is_method {
        // A `.name(` call can only land on a method.
        candidates
            .iter()
            .copied()
            .filter(|&i| fns[i].self_type.is_some())
            .collect()
    } else if path.len() > 1 {
        // Qualified call: the definition's qualified path must end with
        // the written path.
        candidates
            .iter()
            .copied()
            .filter(|&i| {
                let q = &fns[i].qualified;
                q.len() >= path.len() && q[q.len() - path.len()..] == path[..]
            })
            .collect()
    } else {
        // Bare `name(` call: prefer free functions; fall back to any
        // (an associated fn brought in scope by `use Type::assoc`).
        let free: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&i| fns[i].self_type.is_none())
            .collect();
        if free.is_empty() {
            candidates.clone()
        } else {
            free
        }
    };
    if filtered.is_empty() {
        if call.is_method {
            // Methods of this name exist but none survived the kind
            // filter — can't happen (filter is kind-only); defensive.
            return Resolution::Unresolved;
        }
        // Qualified path mismatch on a known name: e.g. enum-variant
        // "calls" (`E::B(x)`) where `B` collides with a fn name.
        return Resolution::Unresolved;
    }

    // Tier preference: same file, then same crate, then workspace-wide.
    let same_file: Vec<usize> = filtered
        .iter()
        .copied()
        .filter(|&i| fns[i].file == caller_node.file)
        .collect();
    if !same_file.is_empty() {
        return Resolution::Workspace(same_file);
    }
    let same_crate: Vec<usize> = filtered
        .iter()
        .copied()
        .filter(|&i| files[fns[i].file].crate_name == caller_file.crate_name)
        .collect();
    if !same_crate.is_empty() {
        return Resolution::Workspace(same_crate);
    }
    if call.is_method && COMMON_METHOD_NAMES.contains(&name) {
        // Too generic to trust across crate boundaries.
        return Resolution::NonWorkspace;
    }
    Resolution::Workspace(filtered)
}

impl Graph {
    /// Node whose span contains `(file, line)`, innermost-last wins.
    pub fn fn_at(&self, file: usize, line: usize) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, n) in self.fns.iter().enumerate() {
            if n.file == file && n.start_line <= line && line <= n.end_line {
                // Later defs with tighter spans (nested fns) override.
                if best.is_none_or(|b| {
                    let bn = &self.fns[b];
                    n.end_line - n.start_line <= bn.end_line - bn.start_line
                }) {
                    best = Some(i);
                }
            }
        }
        best
    }

    /// `file:line (qualified::name)` label for chain rendering.
    pub fn label(&self, node: usize) -> String {
        let n = &self.fns[node];
        let f = &self.files[n.file];
        format!("{}:{} {}", f.rel_path, n.start_line, n.display())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(crate_name: &str, rel_path: &str, text: &str) -> SourceFile {
        SourceFile {
            crate_name: crate_name.into(),
            rel_path: rel_path.into(),
            text: text.into(),
        }
    }

    fn idx(g: &Graph, name: &str) -> usize {
        g.fns
            .iter()
            .position(|n| n.name == name)
            .unwrap_or_else(|| panic!("no fn {name}"))
    }

    fn callees(g: &Graph, name: &str) -> Vec<String> {
        let i = idx(g, name);
        g.edges[i]
            .iter()
            .map(|e| g.fns[e.callee].name.clone())
            .collect()
    }

    #[test]
    fn resolves_free_path_and_method_calls_across_crates() {
        let g = build(&[
            src(
                "fdw-core",
                "crates/core/src/live.rs",
                "pub fn timed(obs: &Obs) {\n    let t = now_marker();\n    obs.observe(t);\n}\nfn now_marker() -> u64 { 0 }\n",
            ),
            src(
                "fdw-obs",
                "crates/obs/src/metrics.rs",
                "pub struct MetricsRegistry;\nimpl MetricsRegistry {\n    pub fn observe(&self, v: u64) { let _ = v; }\n}\n",
            ),
        ]);
        assert_eq!(callees(&g, "timed"), vec!["now_marker", "observe"]);
        assert_eq!(
            g.fns[idx(&g, "observe")].qualified,
            vec!["fdw_obs", "metrics", "MetricsRegistry", "observe"]
        );
        // Reverse edge present.
        assert_eq!(g.reverse[idx(&g, "observe")], vec![idx(&g, "timed")]);
    }

    #[test]
    fn common_method_names_do_not_cross_crates() {
        let g = build(&[
            src(
                "dagman",
                "crates/dagman/src/driver.rs",
                "fn flush_log(f: &mut File) {\n    f.write(b);\n}\n",
            ),
            src(
                "fakequakes",
                "crates/fakequakes/src/mseed.rs",
                "pub struct MseedFile;\nimpl MseedFile {\n    pub fn write(&self, p: &Path) { let _ = p; }\n}\n",
            ),
        ]);
        assert!(
            callees(&g, "flush_log").is_empty(),
            ".write must not jump crates"
        );
        // ...but within the defining crate the edge exists.
        let g2 = build(&[src(
            "fakequakes",
            "crates/fakequakes/src/mseed.rs",
            "pub struct MseedFile;\nimpl MseedFile {\n    pub fn write(&self, p: &Path) { let _ = p; }\n}\npub fn save(m: &MseedFile, p: &Path) { m.write(p); }\n",
        )]);
        assert_eq!(callees(&g2, "save"), vec!["write"]);
    }

    #[test]
    fn crate_and_self_prefixes_normalize() {
        let g = build(&[src(
            "htcsim",
            "crates/htcsim/src/userlog.rs",
            "pub struct UserLog;\nimpl UserLog {\n    pub fn record(&mut self) { Self::stamp(); crate::userlog::helper(); }\n    fn stamp() {}\n}\npub fn helper() {}\n",
        )]);
        let rec = callees(&g, "record");
        assert!(rec.contains(&"stamp".to_string()), "{rec:?}");
        assert!(rec.contains(&"helper".to_string()), "{rec:?}");
    }

    #[test]
    fn std_paths_and_unknown_names_are_non_workspace() {
        let g = build(&[src(
            "fdw-core",
            "crates/core/src/x.rs",
            "fn f() {\n    std::mem::swap(a, b);\n    format(x);\n    rayon::join(p, q);\n}\n",
        )]);
        assert!(callees(&g, "f").is_empty());
        assert_eq!(g.stats.total_sites, 3);
        assert_eq!(g.stats.non_workspace_sites, 3);
        assert!((g.stats.resolution_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn test_tree_files_contribute_no_defs() {
        let g = build(&[
            src(
                "htcsim",
                "crates/htcsim/tests/golden.rs",
                "fn helper_only_in_tests() {}\n",
            ),
            src(
                "htcsim",
                "crates/htcsim/src/lib.rs",
                "fn f() { helper_only_in_tests(); }\n",
            ),
        ]);
        assert_eq!(g.fns.len(), 1);
        assert!(callees(&g, "f").is_empty());
        assert_eq!(g.stats.non_workspace_sites, 1);
    }

    #[test]
    fn fn_at_picks_the_innermost_span() {
        let g = build(&[src(
            "fdw-core",
            "crates/core/src/x.rs",
            "fn outer() {\n    fn inner() {\n        work();\n    }\n    inner();\n}\nfn work() {}\n",
        )]);
        let at = g.fn_at(0, 3).map(|i| g.fns[i].name.clone());
        assert_eq!(at.as_deref(), Some("inner"));
        let at5 = g.fn_at(0, 5).map(|i| g.fns[i].name.clone());
        assert_eq!(at5.as_deref(), Some("outer"));
    }

    #[test]
    fn module_paths_from_rel_paths() {
        assert!(module_path("crates/htcsim/src/lib.rs").is_empty());
        assert_eq!(module_path("crates/obs/src/metrics.rs"), vec!["metrics"]);
        assert_eq!(
            module_path("crates/core/src/fault/mesh.rs"),
            vec!["fault", "mesh"]
        );
        assert_eq!(module_path("crates/core/src/fault/mod.rs"), vec!["fault"]);
        assert_eq!(module_path("src/runner.rs"), vec!["runner"]);
    }
}
