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
//! * [`tables`] — the two rules that check the workspace against a
//!   table kept in one file (the parameter-file keys, the ULOG codes);
//! * [`report`] — human `file:line` diagnostics and the machine-readable
//!   JSON report (validated by `fdw_obs::json::validate`).
//!
//! A scan has one verdict: any finding or malformed allow directive fails
//! it. Run it locally with `cargo run -p fdwlint` from anywhere in the
//! repo.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod report;
pub mod rules;
pub mod tables;

use std::path::{Path, PathBuf};

use rules::FileInfo;
pub use rules::{DirectiveError, Finding, SourceFile};

/// Everything one scan produced.
#[derive(Debug)]
pub struct ScanOutcome {
    /// Every violation found (allow-directives already applied).
    pub findings: Vec<Finding>,
    /// Malformed/unknown allow directives.
    pub directive_errors: Vec<DirectiveError>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl ScanOutcome {
    /// Clean means no finding and no directive error.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.directive_errors.is_empty()
    }
}

/// Scan `files`: lex each one once, then run the per-file token rules and
/// the table rules over the lexed files.
pub fn scan_workspace(files: &[SourceFile]) -> ScanOutcome {
    let infos: Vec<FileInfo> = files.iter().map(FileInfo::new).collect();
    let mut findings = tables::scan(&infos);
    let mut directive_errors = Vec::new();
    for info in &infos {
        findings.extend(rules::scan_file(info));
        directive_errors.extend(info.allows.errors.iter().cloned());
    }
    // Deterministic report order regardless of the walk.
    findings.sort_by(|a, b| (&a.rel_path, a.line, a.rule).cmp(&(&b.rel_path, b.line, b.rule)));
    directive_errors.sort_by(|a, b| (&a.rel_path, a.line).cmp(&(&b.rel_path, b.line)));
    ScanOutcome {
        findings,
        directive_errors,
        files_scanned: files.len(),
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
