//! The table rules: each reads a table kept in one file and checks the
//! rest of the workspace against it.
//!
//! * `dead-config-knob` — rows of the parameter file's key table whose
//!   `FdwConfig` field no code outside `config.rs` ever reads.
//! * `ulog-code-registry` — ULOG numeric event codes defined once, in
//!   `htcsim::condor_log::codes`, and spelled via the registry elsewhere.

use std::collections::BTreeMap;

use crate::rules::{FileInfo, Finding};

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

/// Run both table rules over the workspace.
pub(crate) fn scan(files: &[FileInfo]) -> Vec<Finding> {
    let mut findings = Vec::new();
    dead_config_knob(files, &mut findings);
    ulog_code_registry(files, &mut findings);
    findings
}

/// Read the `"<key>" => <field path>` rows of the parameter file's key
/// table and check each bound field is read somewhere outside the config
/// module.
fn dead_config_knob(files: &[FileInfo], findings: &mut Vec<Finding>) {
    const RULE: &str = "dead-config-knob";
    let Some(config) = files.iter().find(|f| f.rel_path == CONFIG_FILE) else {
        return;
    };
    let m = &config.masked;
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
    for file in files {
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
        if config.allows.allowed(RULE, *line) {
            continue;
        }
        let chain = vec![format!(
            "knob '{key}' binds {field}; no read of `.{rn}` outside {CONFIG_FILE}"
        )];
        findings.push(config.finding(RULE, *line, chain));
    }
}

/// Exact-three-digit string literal?
fn is_ulog_code(s: &str) -> bool {
    s.len() == 3 && s.chars().all(|c| c.is_ascii_digit())
}

/// 1-based line span of the inline `mod <name> { … }` block in masked
/// `code`, from the `mod` keyword to the brace that closes the block
/// (found by counting brace depth; the last line if it never closes).
fn inline_mod_span(code: &[String], name: &str) -> Option<(usize, usize)> {
    // (line, token): identifiers whole, every other glyph on its own.
    let mut toks: Vec<(usize, String)> = Vec::new();
    for (idx, text) in code.iter().enumerate() {
        let mut word = String::new();
        for c in text.chars().chain([' ']) {
            if c.is_alphanumeric() || c == '_' {
                word.push(c);
                continue;
            }
            if !word.is_empty() {
                toks.push((idx + 1, std::mem::take(&mut word)));
            }
            if !c.is_whitespace() {
                toks.push((idx + 1, c.to_string()));
            }
        }
    }
    let open = toks
        .windows(3)
        .position(|w| w[0].1 == "mod" && w[1].1 == name && w[2].1 == "{")?;
    let mut depth = 0usize;
    for (line, tok) in &toks[open + 2..] {
        match tok.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return Some((toks[open].0, *line));
                }
            }
            _ => {}
        }
    }
    Some((toks[open].0, code.len()))
}

fn ulog_code_registry(files: &[FileInfo], findings: &mut Vec<Finding>) {
    const RULE: &str = "ulog-code-registry";
    let registry = files.iter().find(|f| f.rel_path == REGISTRY_FILE);
    let mut reg_codes: BTreeMap<String, usize> = BTreeMap::new();
    let mut reg_span: Option<(usize, usize)> = None;

    if let Some(file) = registry {
        let Some((lo, hi)) = inline_mod_span(&file.masked.code, "codes") else {
            if !file.allows.allowed(RULE, 1) {
                let chain = vec![format!("{REGISTRY_FILE} has no `mod codes` registry block")];
                findings.push(file.finding(RULE, 1, chain));
            }
            return;
        };
        reg_span = Some((lo, hi));
        for idx in lo - 1..hi.min(file.masked.code.len()) {
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
                        findings.push(file.finding(RULE, line, chain));
                    }
                } else {
                    reg_codes.insert(lit.clone(), line);
                }
            }
        }
    }

    for file in files {
        if file.is_test_path || !ULOG_CRATES.contains(&file.crate_name.as_str()) {
            continue;
        }
        for (idx, lits) in file.masked.strings.iter().enumerate() {
            if file.masked.in_test[idx] {
                continue;
            }
            let line = idx + 1;
            if let Some((lo, hi)) = reg_span {
                if file.rel_path == REGISTRY_FILE && line >= lo && line <= hi {
                    continue;
                }
            }
            for lit in lits {
                let is_registered = reg_codes.contains_key(lit);
                // With a registry present, only its codes are ULOG
                // codes; with none, any bare 3-digit literal in a ULOG
                // crate is suspect.
                if !is_ulog_code(lit) || (registry.is_some() && !is_registered) {
                    continue;
                }
                if file.allows.allowed(RULE, line) {
                    continue;
                }
                let chain = vec![format!(
                    "ULOG code \"{lit}\" spelled as a literal; reference htcsim::condor_log::codes"
                )];
                findings.push(file.finding(RULE, line, chain));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::SourceFile;

    fn src(crate_name: &str, rel_path: &str, text: &str) -> SourceFile {
        SourceFile {
            crate_name: crate_name.into(),
            rel_path: rel_path.into(),
            text: text.into(),
        }
    }

    fn run(files: &[SourceFile]) -> Vec<Finding> {
        scan(&files.iter().map(FileInfo::new).collect::<Vec<_>>())
    }

    /// A key table whose last row binds a field nothing reads.
    const CONFIG: &str = "config_keys! {\n\
                          \x20   \"region\" => region via Region,\n\
                          \x20   \"mw_min\" => mw_range.0,\n\
                          \x20   \"fault_seed\" => fault.seed,\n\
                          \x20   \"live_knob\" => live_knob,\n\
                          \x20   \"ghost_knob\" => ghost_knob,\n\
                          }\n";
    /// Reads every field of `CONFIG` but the ghost knob's.
    const READER: &str = "pub fn run(cfg: &FdwConfig) -> u32 {\n\
                          \x20   steer(cfg.region, cfg.mw_range.0, cfg.fault.seed);\n\
                          \x20   cfg.live_knob\n\
                          }\n";
    /// A registry that defines "005" twice.
    const REGISTRY: &str = "pub mod codes {\n\
                            \x20   pub const SUBMITTED: &str = \"000\";\n\
                            \x20   pub const TERMINATED: &str = \"005\";\n\
                            \x20   pub const DUP: &str = \"005\";\n\
                            }\n";
    /// Spells a registered code as a literal.
    const STRAY: &str = "pub fn grep_terminations(text: &str) -> usize {\n\
                         \x20   text.matches(\"005\").count()\n\
                         }\n";

    #[test]
    fn dead_config_knob_fires_and_read_silences() {
        let findings = run(&[
            src("fdw-core", "crates/core/src/config.rs", CONFIG),
            src("fdw-core", "crates/core/src/runner.rs", READER),
        ]);
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
        let findings = run(&[
            src("htcsim", "crates/htcsim/src/condor_log.rs", REGISTRY),
            src("dagman", "crates/dagman/src/monitor.rs", STRAY),
        ]);
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

    #[test]
    fn table_findings_quote_the_source_line() {
        // The masked line blanks the literal a finding is about.
        let findings = run(&[
            src("fdw-core", "crates/core/src/config.rs", CONFIG),
            src("fdw-core", "crates/core/src/runner.rs", READER),
            src("htcsim", "crates/htcsim/src/condor_log.rs", REGISTRY),
            src("dagman", "crates/dagman/src/monitor.rs", STRAY),
        ]);
        let excerpt = |rule: &str, path: &str| -> Vec<&str> {
            findings
                .iter()
                .filter(|f| f.rule == rule && f.rel_path.ends_with(path))
                .map(|f| f.excerpt.as_str())
                .collect()
        };
        assert_eq!(
            excerpt("dead-config-knob", "config.rs"),
            ["\"ghost_knob\" => ghost_knob,"]
        );
        assert_eq!(
            excerpt("ulog-code-registry", "monitor.rs"),
            ["text.matches(\"005\").count()"]
        );
        assert_eq!(
            excerpt("ulog-code-registry", "condor_log.rs"),
            ["pub const DUP: &str = \"005\";"]
        );
    }

    #[test]
    fn inline_mod_span_counts_brace_depth() {
        let code = |text: &str| crate::lexer::mask(text).code;
        let nested = "use x;\npub mod codes\n{\n    pub fn f() { if a { b } }\n}\nfn after() {}\n";
        assert_eq!(inline_mod_span(&code(nested), "codes"), Some((2, 5)));
        // Braces inside literals and comments are masked out.
        let quoted = "mod codes {\n    const A: &str = \"}\"; // }\n}\n";
        assert_eq!(inline_mod_span(&code(quoted), "codes"), Some((1, 3)));
        // A file module or a differently named block is no registry.
        assert_eq!(
            inline_mod_span(&code("mod codes;\nmod codex {}\n"), "codes"),
            None
        );
        // An unclosed block runs to the last line.
        assert_eq!(
            inline_mod_span(&code("mod codes {\n    x\n"), "codes"),
            Some((1, 2))
        );
    }
}
