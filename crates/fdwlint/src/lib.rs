//! # fdwlint — workspace determinism lints
//!
//! The suite's core guarantees — bitwise parallel==sequential kernels
//! (DESIGN.md §8), byte-identical telemetry, ULOG and rescue round-trips
//! (§5–§7) — are enforced dynamically by tests. This crate adds the
//! static layer: a zero-external-dependency analysis pass over the
//! workspace's own `.rs` sources that machine-checks the invariants those
//! tests rely on, on every commit, via `scripts/ci.sh`.
//!
//! * [`lexer`] — masks comments, string/char literals and
//!   `#[cfg(test)]`/`mod tests` regions so rules never fire on quoted
//!   rule text or test code;
//! * [`rules`] — the rule set ([`rules::RULES`]) with per-crate scoping
//!   and inline `// fdwlint::allow(<rule>): <reason>` escape hatches;
//! * [`baseline`] — the committed ratchet (`fdwlint.baseline.json`):
//!   existing violations are frozen per `(rule, crate)` bucket and counts
//!   may only decrease;
//! * [`report`] — human `file:line` diagnostics and the machine-readable
//!   JSON report (validated by `fdw_obs::json::validate`).
//!
//! Run it locally with `cargo run -p fdwlint` from anywhere in the repo.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod graph;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod syntax;
pub mod taint;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

pub use baseline::Baseline;
pub use graph::GraphStats;
pub use rules::{DirectiveError, Finding, SourceFile};
pub use taint::{AllowedFlow, AnalysisOptions};

/// Everything one scan produced, before ratcheting.
#[derive(Debug, Default)]
pub struct ScanOutcome {
    /// Every violation found (allow-directives already applied).
    pub findings: Vec<Finding>,
    /// Malformed/unknown allow directives — always hard errors.
    pub directive_errors: Vec<DirectiveError>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Source→sink flows downgraded by an `fdwlint::allow` on some hop
    /// (graph pass only).
    pub allowed_flows: Vec<AllowedFlow>,
    /// Call-site resolution statistics of the graph pass, if it ran.
    pub graph_stats: Option<GraphStats>,
}

impl ScanOutcome {
    /// Violation counts per `rule/crate` bucket.
    pub fn counts(&self) -> BTreeMap<String, u64> {
        let mut counts = BTreeMap::new();
        for f in &self.findings {
            *counts.entry(f.bucket()).or_insert(0) += 1;
        }
        counts
    }
}

/// Scan a set of in-memory sources (what the fixture tests drive).
pub fn scan_sources(files: &[SourceFile]) -> ScanOutcome {
    let mut out = ScanOutcome {
        files_scanned: files.len(),
        ..Default::default()
    };
    for f in files {
        let (findings, errors) = rules::scan_file(f);
        out.findings.extend(findings);
        out.directive_errors.extend(errors);
    }
    // Deterministic report order regardless of the walk.
    out.findings
        .sort_by(|a, b| (&a.rel_path, a.line, a.rule).cmp(&(&b.rel_path, b.line, b.rule)));
    out.directive_errors
        .sort_by(|a, b| (&a.rel_path, a.line).cmp(&(&b.rel_path, b.line)));
    out
}

/// Full workspace analysis: the per-file token rules of [`scan_sources`]
/// plus the call-graph pass ([`graph`] + [`taint`]) that follows
/// nondeterminism across function boundaries.
pub fn scan_workspace(files: &[SourceFile], opts: &AnalysisOptions) -> ScanOutcome {
    let mut out = scan_sources(files);
    let g = graph::build(files);
    let (graph_findings, allowed_flows) = taint::analyze(&g, opts);
    out.findings.extend(graph_findings);
    out.findings
        .sort_by(|a, b| (&a.rel_path, a.line, a.rule).cmp(&(&b.rel_path, b.line, b.rule)));
    out.allowed_flows = allowed_flows;
    out.graph_stats = Some(g.stats);
    out
}

/// The comparison of a scan against the committed ratchet.
#[derive(Debug)]
pub struct Ratchet {
    /// Buckets whose current count exceeds the frozen one, with every
    /// finding in the bucket (the offender is among them).
    pub over_budget: Vec<(String, u64, u64, Vec<Finding>)>,
    /// Buckets whose current count dropped below the frozen one:
    /// `(bucket, frozen, current)` — candidates for `--update-baseline`.
    pub improved: Vec<(String, u64, u64)>,
    /// Current counts per bucket.
    pub counts: BTreeMap<String, u64>,
}

impl Ratchet {
    /// Compare `outcome` against `base`.
    pub fn compare(outcome: &ScanOutcome, base: &Baseline) -> Self {
        let counts = outcome.counts();
        let mut over_budget = Vec::new();
        let mut improved = Vec::new();
        for (bucket, &n) in &counts {
            let frozen = base.count(bucket);
            if n > frozen {
                let members: Vec<Finding> = outcome
                    .findings
                    .iter()
                    .filter(|f| f.bucket() == *bucket)
                    .cloned()
                    .collect();
                over_budget.push((bucket.clone(), frozen, n, members));
            }
        }
        for (bucket, &frozen) in &base.counts {
            let n = counts.get(bucket).copied().unwrap_or(0);
            if n < frozen {
                improved.push((bucket.clone(), frozen, n));
            }
        }
        Self {
            over_budget,
            improved,
            counts,
        }
    }

    /// Clean means nothing over budget (improvements are advisory).
    pub fn is_clean(&self, outcome: &ScanOutcome) -> bool {
        self.over_budget.is_empty() && outcome.directive_errors.is_empty()
    }

    /// The baseline the current tree deserves.
    pub fn tightened(&self) -> Baseline {
        Baseline {
            counts: self.counts.clone(),
        }
    }
}

/// Locate the workspace root: walk up from `start` to the first directory
/// holding both `Cargo.toml` and `crates/`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Package names per `crates/<dir>` (directory name where they agree).
fn crate_name_for(dir: &str) -> String {
    match dir {
        "core" => "fdw-core".to_string(),
        "obs" => "fdw-obs".to_string(),
        "bench" => "fdw-bench".to_string(),
        other => other.to_string(),
    }
}

/// Collect every lintable source of the workspace: `src/**/*.rs` of the
/// umbrella crate and of each member under `crates/` (including this
/// crate — fdwlint lints itself), plus members' `tests/` and `benches/`
/// trees (scanned for directive errors only; path-scoped rules skip
/// them). `vendor/`, `examples/` and `target/` are out of scope.
pub fn collect_workspace_sources(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    let mut push_tree = |crate_name: &str, tree: &Path, rel_prefix: &str| -> std::io::Result<()> {
        if !tree.is_dir() {
            return Ok(());
        }
        let mut stack = vec![tree.to_path_buf()];
        while let Some(dir) = stack.pop() {
            let mut entries: Vec<_> = std::fs::read_dir(&dir)?
                .collect::<Result<Vec<_>, _>>()?
                .into_iter()
                .map(|e| e.path())
                .collect();
            entries.sort();
            for path in entries {
                if path.is_dir() {
                    stack.push(path);
                } else if path.extension().is_some_and(|e| e == "rs") {
                    let rel = path
                        .strip_prefix(tree)
                        .expect("walked path is under its tree")
                        .to_string_lossy()
                        .replace('\\', "/");
                    files.push(SourceFile {
                        crate_name: crate_name.to_string(),
                        rel_path: format!("{rel_prefix}/{rel}"),
                        text: std::fs::read_to_string(&path)?,
                    });
                }
            }
        }
        Ok(())
    };

    for sub in ["src", "tests", "benches"] {
        push_tree("fdw-suite", &root.join(sub), sub)?;
    }
    let mut members: Vec<_> = std::fs::read_dir(root.join("crates"))?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    members.sort();
    for member in members {
        let dir = member
            .file_name()
            .expect("crates/* entries are named")
            .to_string_lossy()
            .to_string();
        let name = crate_name_for(&dir);
        for sub in ["src", "tests", "benches"] {
            push_tree(&name, &member.join(sub), &format!("crates/{dir}/{sub}"))?;
        }
    }
    files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome_with(buckets: &[(&str, &str, usize)]) -> ScanOutcome {
        let mut out = ScanOutcome::default();
        for (rule, krate, n) in buckets {
            let rule = rules::RULES
                .iter()
                .find(|r| r.name == *rule)
                .expect("known rule")
                .name;
            for i in 0..*n {
                out.findings.push(Finding {
                    rule,
                    crate_name: krate.to_string(),
                    rel_path: format!("crates/{krate}/src/x.rs"),
                    line: i + 1,
                    excerpt: String::new(),
                    chain: Vec::new(),
                });
            }
        }
        out
    }

    #[test]
    fn ratchet_flags_growth_and_notes_improvement() {
        let mut base = Baseline::default();
        base.counts.insert("unwrap-in-lib/htcsim".into(), 2);
        base.counts.insert("raw-parallelism/fakequakes".into(), 3);

        let grown = outcome_with(&[("unwrap-in-lib", "htcsim", 3)]);
        let r = Ratchet::compare(&grown, &base);
        assert_eq!(r.over_budget.len(), 1);
        assert_eq!(r.over_budget[0].1, 2);
        assert_eq!(r.over_budget[0].2, 3);
        assert!(!r.is_clean(&grown));
        // The vanished fakequakes bucket counts as improved.
        assert!(r
            .improved
            .iter()
            .any(|(b, f, n)| b == "raw-parallelism/fakequakes" && *f == 3 && *n == 0));

        let within = outcome_with(&[
            ("unwrap-in-lib", "htcsim", 2),
            ("raw-parallelism", "fakequakes", 1),
        ]);
        let r = Ratchet::compare(&within, &base);
        assert!(r.is_clean(&within));
        assert_eq!(r.improved.len(), 1);
        assert_eq!(r.tightened().count("raw-parallelism/fakequakes"), 1);
    }

    #[test]
    fn directive_errors_are_never_clean() {
        let mut out = ScanOutcome::default();
        out.directive_errors.push(DirectiveError {
            rel_path: "crates/core/src/x.rs".into(),
            line: 1,
            message: "bad".into(),
        });
        let r = Ratchet::compare(&out, &Baseline::default());
        assert!(!r.is_clean(&out));
    }
}
