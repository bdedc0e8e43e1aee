//! The determinism rule set and the per-file scanner.
//!
//! Each rule encodes one invariant the suite's reproducibility guarantees
//! depend on (DESIGN.md §5/§8/§9). Rules run over the masked code channel
//! of a [`FileInfo`], skip test regions, honour inline
//! `fdwlint::allow(<rule>): <reason>` / file-level
//! `fdwlint::allow-file(<rule>): <reason>` directives, and are scoped per
//! crate so e.g. the bench harness may read the wall clock while
//! simulation crates may not.

use crate::lexer::{mask, Masked};

/// Rule identifiers, in report order. The first seven are per-file token
/// rules; the last two check the workspace against a table kept in one
/// file ([`crate::tables`]).
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "wall-clock-in-sim",
        description: "Instant::now/SystemTime::now outside the bench crate: sim crates must \
                      take time from SimTime so seeded runs never observe the host clock \
                      (host time is measured by perfbench's traced pass, outside the workspace)",
        example: "let t0 = std::time::Instant::now(); // in a sim crate",
    },
    RuleInfo {
        name: "unordered-hash-iteration",
        description: "iterating a HashMap/HashSet without sorting or an order-insensitive \
                      consumer, in any crate: ULOG, metrics, rescue, .npy/.mseed, digest and \
                      BENCH bytes must not depend on hasher state",
        example: "for (job, rt) in &self.jobs { out.push_str(&render(job, rt)); }",
    },
    RuleInfo {
        name: "unseeded-randomness",
        description: "thread_rng/rand::random/from_entropy/OsRng: every RNG in the workspace \
                      must be constructed from an explicit u64 seed",
        example: "let mut rng = rand::thread_rng();",
    },
    RuleInfo {
        name: "raw-parallelism",
        description: "parallel constructs (thread::spawn, rayon::join/scope, par_iter) outside \
                      fakequakes::par's chunk-aligned helpers, which are the only fan-out \
                      primitives proven bitwise parallel==sequential",
        example: "rayon::join(|| left(), || right()); // outside fakequakes::par",
    },
    RuleInfo {
        name: "unwrap-in-lib",
        description: ".unwrap()/panic! in non-test library code: library code returns a typed \
                      error instead of panicking (bin targets and the bench crate are exempt)",
        example: "let spec = self.specs.get(&id).unwrap();",
    },
    RuleInfo {
        name: "naive-float-accum",
        description: "bare .sum::<f64>() in fakequakes non-test code: hot-path float reductions \
                      must go through simd::lane_sum, whose lane-width-4 accumulation order is \
                      the canonical one the goldens and the parallel==sequential proofs pin \
                      (DESIGN.md §13); a bare iterator sum is both slower and a second, \
                      unblessed summation order",
        example: "let total = samples.iter().sum::<f64>(); // use simd::lane_sum",
    },
    RuleInfo {
        name: "fnv-outside-digest",
        description: "the FNV-1a offset basis or prime (any case, any `_` grouping, leading \
                      zeros ignored) in non-test code outside fdw_obs::digest: every digest \
                      folds through the one module, so a pinned value is reproducible from it \
                      alone and a private copy cannot drift (the fakequakes factor-cache key \
                      fold, which cannot depend on fdw-obs, carries an inline allow)",
        example: "let mut h = 0xcbf2_9ce4_…u64; // the offset basis: use fdw_obs::digest",
    },
    RuleInfo {
        name: "dead-config-knob",
        description: "a row of the parameter-file key table (config_keys! in \
                      crates/core/src/config.rs) whose FdwConfig field is never read outside \
                      config.rs: a knob that validates but steers nothing silently lies to \
                      every experiment config that sets it",
        example: "\"recycle_npy\" => recycle_npy, // a config_keys! row whose field nothing reads",
    },
    RuleInfo {
        name: "ulog-code-registry",
        description: "every ULOG numeric event code is defined exactly once, in \
                      htcsim::condor_log::codes, and spelled via the registry everywhere else \
                      in htcsim/dagman: a fat-fingered duplicate literal would silently fork \
                      the log dialect the paper's shell scripts grep",
        example: "out.push_str(\"005 \"); // spell it codes::TERMINATED",
    },
];

/// Static metadata of one rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// The identifier used in directives and reports.
    pub name: &'static str,
    /// One-sentence statement of the invariant.
    pub description: &'static str,
    /// A violating snippet, shown by `fdwlint --explain <rule>`.
    pub example: &'static str,
}

/// True iff `name` names a known rule.
pub fn is_rule(name: &str) -> bool {
    RULES.iter().any(|r| r.name == name)
}

/// The single sanctioned home of parallel primitives.
const PARALLELISM_ALLOWLIST: &[&str] = &["crates/fakequakes/src/par.rs"];

/// The sanctioned home of lane-ordered float reductions — the module that
/// *defines* `lane_sum` may of course spell out scalar sums (its reference
/// twins and doc text) — the scope exemption of `naive-float-accum`.
const LANE_SUM_ALLOWLIST: &[&str] = &["crates/fakequakes/src/simd.rs"];

/// The home of the FNV-1a constants — the scope exemption of
/// `fnv-outside-digest`. The one other fold, fakequakes' factor-cache
/// key, carries an inline allow with its reason.
const FNV_ALLOWLIST: &[&str] = &["crates/obs/src/digest.rs"];

/// Wall-clock spellings — the `wall-clock-in-sim` rule.
const WALL_CLOCK_PATTERNS: &[&str] = &["Instant::now", "SystemTime::now"];

/// Unseeded-RNG spellings — the `unseeded-randomness` rule.
const UNSEEDED_RNG_PATTERNS: &[&str] = &[
    "thread_rng",
    "rand::random",
    "from_entropy",
    "OsRng",
    "getrandom",
];

/// The non-canonical float fold — the `naive-float-accum` rule.
const NAIVE_FLOAT_SUM: &str = ".sum::<f64>()";

/// Raw parallel-primitive spellings — the `raw-parallelism` rule.
const PAR_PATTERNS: &[&str] = &[
    "thread::spawn",
    "rayon::join",
    "rayon::scope",
    "rayon::spawn",
    "par_iter",
    "par_chunks",
    "par_bridge",
];

/// One source file handed to the scanner. `rel_path` is
/// workspace-root-relative with forward slashes; `crate_name` is the
/// package name (`htcsim`, `fdw-core`, ...).
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Package name owning the file.
    pub crate_name: String,
    /// Workspace-relative path (`crates/htcsim/src/cluster.rs`).
    pub rel_path: String,
    /// Full source text.
    pub text: String,
}

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule that fired.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub rel_path: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub excerpt: String,
    /// For the table rules: why the line fails, rendered into the human
    /// and JSON reports. Empty for per-file rules.
    pub chain: Vec<String>,
}

/// A malformed or unknown allow directive — reported as a hard error so
/// escape hatches can't silently rot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirectiveError {
    /// Workspace-relative path.
    pub rel_path: String,
    /// 1-based line number of the directive.
    pub line: usize,
    /// What is wrong with it.
    pub message: String,
}

/// One source file of a scan, lexed once: the token rules and the table
/// rules all read these channels and directives.
#[derive(Debug)]
pub(crate) struct FileInfo {
    /// Package name owning the file.
    pub(crate) crate_name: String,
    /// Workspace-relative path.
    pub(crate) rel_path: String,
    /// Masked lexer channels.
    pub(crate) masked: Masked,
    /// Under a `tests/`/`benches/`/`examples/` tree: every rule skips it.
    pub(crate) is_test_path: bool,
    /// The file's allow directives; their errors are the scan's
    /// directive errors.
    pub(crate) allows: Allows,
}

impl FileInfo {
    /// Mask `f` and parse its allow directives.
    pub(crate) fn new(f: &SourceFile) -> Self {
        let masked = mask(&f.text);
        Self {
            crate_name: f.crate_name.clone(),
            rel_path: f.rel_path.clone(),
            is_test_path: ["tests/", "benches/", "examples/"]
                .iter()
                .any(|d| f.rel_path.starts_with(d) || f.rel_path.contains(&format!("/{d}"))),
            allows: parse_allows(&f.rel_path, &masked.comments),
            masked,
        }
    }
}

/// Parsed allow directives of one file.
#[derive(Debug, Default)]
pub(crate) struct Allows {
    /// (line, rule): suppress `rule` on that line and the next.
    inline: Vec<(usize, String)>,
    /// Rules suppressed for the whole file.
    file: Vec<String>,
    pub(crate) errors: Vec<DirectiveError>,
}

impl Allows {
    /// Is `rule` suppressed at `line` (directive on the line or the one
    /// above, or file-wide)?
    pub(crate) fn allowed(&self, rule: &str, line: usize) -> bool {
        self.file.iter().any(|r| r == rule)
            || self
                .inline
                .iter()
                .any(|(l, r)| r == rule && (*l == line || *l + 1 == line))
    }
}

/// Extract `fdwlint::allow(...)` / `fdwlint::allow-file(...)` directives
/// from the per-line comment channel. A directive must name a known rule
/// and carry a non-empty `: <reason>` tail, and must open the comment
/// (`// fdwlint::allow(...)`) — prose *mentioning* the syntax mid-comment
/// is not a directive.
fn parse_allows(rel_path: &str, comments: &[String]) -> Allows {
    let mut out = Allows::default();
    for (idx, text) in comments.iter().enumerate() {
        let trimmed = text.trim_start();
        let Some(rest) = trimmed.strip_prefix("fdwlint::allow") else {
            continue;
        };
        let (is_file, rest) = match rest.strip_prefix("-file") {
            Some(r) => (true, r),
            None => (false, rest),
        };
        let mut err = |msg: String| {
            out.errors.push(DirectiveError {
                rel_path: rel_path.to_string(),
                line: idx + 1,
                message: msg,
            });
        };
        let Some(rest) = rest.strip_prefix('(') else {
            err("allow directive missing '(<rule>)'".into());
            continue;
        };
        let Some(close) = rest.find(')') else {
            err("allow directive missing closing ')'".into());
            continue;
        };
        let rule = rest[..close].trim().to_string();
        if !is_rule(&rule) {
            err(format!("allow directive names unknown rule '{rule}'"));
            continue;
        }
        let has_reason = rest[close + 1..]
            .strip_prefix(':')
            .is_some_and(|r| !r.trim().is_empty());
        if !has_reason {
            err(format!(
                "allow({rule}) needs a rationale: `fdwlint::allow({rule}): <why>`"
            ));
            continue;
        }
        if is_file {
            out.file.push(rule);
        } else {
            out.inline.push((idx + 1, rule));
        }
    }
    out
}

/// Scan one file against every token rule. `text` is the file's source,
/// which the findings quote.
pub(crate) fn scan_file(file: &FileInfo, text: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    if file.is_test_path {
        return findings;
    }
    let m = &file.masked;
    let mut push = |rule: &'static str, line: usize| {
        if file.allows.allowed(rule, line) {
            return;
        }
        findings.push(Finding {
            rule,
            rel_path: file.rel_path.clone(),
            line,
            excerpt: text.lines().nth(line - 1).unwrap_or("").trim().to_string(),
            chain: Vec::new(),
        });
    };

    let hash_names = collect_hash_names(&m.code, &m.in_test);

    for (idx, code) in m.code.iter().enumerate() {
        if m.in_test[idx] {
            continue;
        }
        let line = idx + 1;

        // wall-clock-in-sim
        if file.crate_name != "fdw-bench" && WALL_CLOCK_PATTERNS.iter().any(|p| code.contains(p)) {
            push("wall-clock-in-sim", line);
        }

        // unseeded-randomness
        if UNSEEDED_RNG_PATTERNS.iter().any(|p| code.contains(p)) {
            push("unseeded-randomness", line);
        }

        // raw-parallelism
        if !PARALLELISM_ALLOWLIST.contains(&file.rel_path.as_str())
            && PAR_PATTERNS.iter().any(|p| code.contains(p))
        {
            push("raw-parallelism", line);
        }

        // unordered-hash-iteration
        if iterates_hash(code, &hash_names) && !order_insensitive(&m.code, idx) {
            push("unordered-hash-iteration", line);
        }

        // unwrap-in-lib: library sources only (not bin targets), and the
        // bench harness is exempt wholesale (its bins may panic freely).
        if file.crate_name != "fdw-bench" && !file.rel_path.contains("/src/bin/") {
            let hits = count_occurrences(code, ".unwrap()") + count_occurrences(code, "panic!(");
            for _ in 0..hits {
                push("unwrap-in-lib", line);
            }
        }

        // fnv-outside-digest
        if !FNV_ALLOWLIST.contains(&file.rel_path.as_str()) && spells_fnv_constant(code) {
            push("fnv-outside-digest", line);
        }

        // naive-float-accum: fakequakes only; the simd module itself (home
        // of lane_sum and its scalar reference twin) is exempt.
        if file.crate_name == "fakequakes" && !LANE_SUM_ALLOWLIST.contains(&file.rel_path.as_str())
        {
            let hits = count_occurrences(code, NAIVE_FLOAT_SUM);
            for _ in 0..hits {
                push("naive-float-accum", line);
            }
        }
    }
    findings
}

/// Names bound to a `HashMap`/`HashSet` anywhere in the file's non-test
/// code: `x: HashMap<..>` (let, param, field) and
/// `x = HashMap::new()` / `HashSet::with_capacity(..)` forms. A
/// name-level (not type-level) analysis — deliberately conservative, with
/// the allow directive as the escape hatch.
fn collect_hash_names(code: &[String], in_test: &[bool]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for (idx, line) in code.iter().enumerate() {
        if in_test[idx] {
            continue;
        }
        for marker in ["HashMap", "HashSet"] {
            let mut from = 0usize;
            while let Some(p) = line[from..].find(marker) {
                let abs = from + p;
                // Word boundary on both sides (skip e.g. `XHashMapY`).
                let before = line[..abs].chars().next_back();
                let after = line[abs + marker.len()..].chars().next();
                let bounded = !before.is_some_and(|c| c.is_alphanumeric() || c == '_')
                    && !after.is_some_and(|c| c.is_alphanumeric() || c == '_');
                if bounded {
                    if let Some(name) = binder_before(&line[..abs]) {
                        if !names.contains(&name) {
                            names.push(name);
                        }
                    }
                }
                from = abs + marker.len();
            }
        }
    }
    names
}

/// Given the text preceding a `HashMap`/`HashSet` token, extract the
/// identifier it is bound to: `... name : [&mut] [path::]` or
/// `... name = `.
fn binder_before(prefix: &str) -> Option<String> {
    let mut rest = prefix.trim_end();
    // Strip type-path/reference noise between the binder and the marker:
    // `std::collections::`, `&`, `&mut`, `Option<`, etc. Walk back over
    // path segments and punctuation until we hit `:` or `=`.
    loop {
        rest = rest.trim_end();
        if rest.ends_with("::") {
            rest = &rest[..rest.len() - 2];
            rest = rest.trim_end_matches(|c: char| c.is_alphanumeric() || c == '_');
        } else if rest.ends_with('&') || rest.ends_with('<') || rest.ends_with('(') {
            rest = &rest[..rest.len() - 1];
        } else if rest.ends_with("mut") {
            rest = &rest[..rest.len() - 3];
        } else {
            break;
        }
    }
    rest = rest.trim_end();
    let sep = rest.chars().next_back()?;
    if sep != ':' && sep != '=' {
        return None;
    }
    // `::` path separator is not a binder.
    if sep == ':' && rest.len() >= 2 && rest.as_bytes()[rest.len() - 2] == b':' {
        return None;
    }
    if sep == '='
        && rest.len() >= 2
        && matches!(rest.as_bytes()[rest.len() - 2], b'=' | b'!' | b'<' | b'>')
    {
        return None;
    }
    let rest = rest[..rest.len() - 1].trim_end();
    let name: String = rest
        .chars()
        .rev()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    if name.is_empty() || name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        None
    } else {
        Some(name)
    }
}

/// Does this masked line iterate one of the hash-typed names?
fn iterates_hash(code: &str, names: &[String]) -> bool {
    for name in names {
        for suffix in [
            ".iter()",
            ".iter_mut()",
            ".keys()",
            ".values()",
            ".values_mut()",
            ".drain(",
            ".into_iter()",
            ".into_keys()",
            ".into_values()",
        ] {
            let pat = format!("{name}{suffix}");
            if contains_ident(code, &pat, name.len()) {
                return true;
            }
        }
        // `for x in name` / `for x in &name` / `for x in self.name`
        if let Some(p) = code.find(" in ") {
            let tail = code[p + 4..].trim_start();
            let tail = tail
                .trim_start_matches(['&', ' '])
                .trim_start_matches("mut ");
            let tail = tail.strip_prefix("self.").unwrap_or(tail);
            if tail.starts_with(name.as_str()) {
                let after = tail[name.len()..].chars().next();
                if !after.is_some_and(|c| c.is_alphanumeric() || c == '_' || c == '(') {
                    return true;
                }
            }
        }
    }
    false
}

/// Does this masked line hold a hex literal equal to the FNV-1a offset
/// basis or prime? Case, `_` grouping, leading zeros and a type suffix
/// do not matter.
fn spells_fnv_constant(code: &str) -> bool {
    use fdw_obs::digest::{DIGEST_INIT, FNV_PRIME};
    code.split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
        .filter_map(|word| word.strip_prefix("0x").or(word.strip_prefix("0X")))
        .any(|hex| {
            let digits: String = hex
                .chars()
                .take_while(|c| c.is_ascii_hexdigit() || *c == '_')
                .filter(|c| *c != '_')
                .collect();
            u64::from_str_radix(digits.trim_start_matches('0'), 16)
                .is_ok_and(|v| v == DIGEST_INIT || v == FNV_PRIME)
        })
}

/// Non-overlapping occurrences of `pat` in `code` — the unwrap budget
/// counts call sites, not lines.
fn count_occurrences(code: &str, pat: &str) -> usize {
    let mut n = 0;
    let mut from = 0;
    while let Some(p) = code[from..].find(pat) {
        n += 1;
        from += p + pat.len();
    }
    n
}

/// `pat` occurs in `code` with an identifier boundary before the name
/// part (so `self.map.iter()` matches `map.iter()` but `bitmap.iter()`
/// does not match `map.iter()`).
fn contains_ident(code: &str, pat: &str, name_len: usize) -> bool {
    let mut from = 0usize;
    while let Some(p) = code[from..].find(pat) {
        let abs = from + p;
        let before = code[..abs].chars().next_back();
        if !before.is_some_and(|c| c.is_alphanumeric() || c == '_') {
            return true;
        }
        from = abs + name_len.max(1);
    }
    false
}

/// Is the iteration starting at line `idx` consumed order-insensitively?
/// Looks ahead up to 4 lines for a sort, a BTree re-collection, or a
/// commutative consumer; an opening `{` stops the window, because a loop
/// body observes elements in hash order no matter what follows it.
fn order_insensitive(code: &[String], idx: usize) -> bool {
    let mut stmt = String::new();
    for line in code.iter().skip(idx).take(4) {
        stmt.push_str(line);
        stmt.push(' ');
        if line.trim_end().ends_with('{') {
            break;
        }
    }
    [
        ".sort", // sort()/sort_by/sort_unstable after collect
        "BTree", // re-collected into an ordered container
        ".sum()",
        ".sum::",
        ".product()",
        ".count()",
        ".all(",
        ".any(",
        ".fold(", // only safe for commutative folds; reviewed case by case
        ".min(",
        ".max(",
        ".min_by",
        ".max_by",
        ".contains(",
        ".extend(", // extending an ordered/keyed container re-sorts on key
    ]
    .iter()
    .any(|p| stmt.contains(p))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(crate_name: &str, rel_path: &str, text: &str) -> SourceFile {
        SourceFile {
            crate_name: crate_name.into(),
            rel_path: rel_path.into(),
            text: text.into(),
        }
    }

    /// Token-rule findings and directive errors of one file.
    fn scan(f: &SourceFile) -> (Vec<Finding>, Vec<DirectiveError>) {
        let info = FileInfo::new(f);
        (scan_file(&info, &f.text), info.allows.errors)
    }

    fn rules_fired(f: &SourceFile) -> Vec<&'static str> {
        scan(f).0.into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn binder_extraction() {
        assert_eq!(binder_before("    let mut held: "), Some("held".into()));
        assert_eq!(binder_before("    jobs: "), Some("jobs".into()));
        assert_eq!(
            binder_before("let m = std::collections::"),
            Some("m".into())
        );
        assert_eq!(binder_before("    counts: BTreeMap<String, "), None);
        assert_eq!(binder_before("use std::collections::"), None);
        assert_eq!(binder_before("    pub fn f(x: &mut "), Some("x".into()));
    }

    #[test]
    fn wall_clock_fires_and_scopes() {
        let f = file(
            "htcsim",
            "crates/htcsim/src/x.rs",
            "fn f() { let t = std::time::Instant::now(); }\n",
        );
        assert_eq!(rules_fired(&f), vec!["wall-clock-in-sim"]);
        // Bench crate is exempt (crate-level allow).
        let b = file(
            "fdw-bench",
            "crates/bench/src/bin/x.rs",
            "fn f() { let t = Instant::now(); }\n",
        );
        assert!(rules_fired(&b).is_empty());
        // No file of a sim crate is exempt, fdw-obs included.
        let o = file(
            "fdw-obs",
            "crates/obs/src/wallclock.rs",
            "fn f() { let t = Instant::now(); }\n",
        );
        assert_eq!(rules_fired(&o), vec!["wall-clock-in-sim"]);
    }

    #[test]
    fn directives_suppress_and_validate() {
        let same_line = file(
            "fdw-core",
            "crates/core/src/x.rs",
            "let t = Instant::now(); // fdwlint::allow(wall-clock-in-sim): bench-only path\n",
        );
        assert!(rules_fired(&same_line).is_empty());
        let prev_line = file(
            "fdw-core",
            "crates/core/src/x.rs",
            "// fdwlint::allow(wall-clock-in-sim): measured outside sim\nlet t = Instant::now();\n",
        );
        assert!(rules_fired(&prev_line).is_empty());
        let whole_file = file(
            "fdw-core",
            "crates/core/src/x.rs",
            "// fdwlint::allow-file(wall-clock-in-sim): this file is wall-time tooling\n\nfn f() { Instant::now(); }\n",
        );
        assert!(rules_fired(&whole_file).is_empty());

        let bad_rule = file(
            "fdw-core",
            "crates/core/src/x.rs",
            "// fdwlint::allow(no-such-rule): whatever\n",
        );
        let (_, errs) = scan(&bad_rule);
        assert_eq!(errs.len(), 1);
        assert!(errs[0].message.contains("unknown rule"));

        let no_reason = file(
            "fdw-core",
            "crates/core/src/x.rs",
            "// fdwlint::allow(unwrap-in-lib)\nx.unwrap();\n",
        );
        let (f, errs) = scan(&no_reason);
        assert_eq!(errs.len(), 1, "reason-less directive is an error");
        assert_eq!(f.len(), 1, "and does not suppress");
    }

    #[test]
    fn hash_iteration_fires_in_every_crate() {
        let src = "fn f() {\n    let mut m: HashMap<u32, u32> = HashMap::new();\n    for (k, v) in &m { emit(k, v); }\n}\n";
        for (krate, path) in [
            ("htcsim", "crates/htcsim/src/x.rs"),
            ("fakequakes", "crates/fakequakes/src/x.rs"),
            ("fdw-core", "crates/core/src/x.rs"),
            ("fdw-bench", "crates/bench/src/bin/x.rs"),
        ] {
            let hit = file(krate, path, src);
            assert_eq!(
                rules_fired(&hit),
                vec!["unordered-hash-iteration"],
                "{path}"
            );
        }
    }

    #[test]
    fn hash_iteration_suppressed_by_sort_or_commutative_consumer() {
        for src in [
            "fn f(m: HashMap<u32, u32>) {\n    let mut v: Vec<_> = m.keys().collect();\n    v.sort();\n}\n",
            "fn f(m: HashMap<u32, u32>) -> u32 { m.values().sum() }\n",
            "fn f(m: HashMap<u32, u32>) -> bool { m.values().all(|v| *v > 0) }\n",
            "fn f(m: HashSet<u32>) -> usize { m.iter().count() }\n",
        ] {
            let f = file("dagman", "crates/dagman/src/x.rs", src);
            assert!(rules_fired(&f).is_empty(), "should not fire: {src}");
        }
    }

    #[test]
    fn unseeded_randomness_and_raw_parallelism() {
        let r = file(
            "eew",
            "crates/eew/src/x.rs",
            "fn f() { let mut rng = rand::thread_rng(); }\n",
        );
        assert_eq!(rules_fired(&r), vec!["unseeded-randomness"]);
        let p = file(
            "fdw-core",
            "crates/core/src/x.rs",
            "fn f() { std::thread::spawn(|| work()); }\n",
        );
        assert_eq!(rules_fired(&p), vec!["raw-parallelism"]);
        let par = file(
            "fakequakes",
            "crates/fakequakes/src/par.rs",
            "fn f() { rayon::join(|| a(), || b()); }\n",
        );
        assert!(
            rules_fired(&par).is_empty(),
            "par.rs is the sanctioned home"
        );
    }

    #[test]
    fn patterns_in_strings_comments_and_tests_do_not_fire() {
        let src = concat!(
            "// Instant::now() would be wrong here\n",
            "const HINT: &str = \"never call thread_rng or x.unwrap()\";\n",
            "const RAW: &str = r#\"par_iter in a raw string\"#;\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    #[test]\n",
            "    fn t() { let t = std::time::Instant::now(); x.unwrap(); }\n",
            "}\n",
        );
        let f = file("htcsim", "crates/htcsim/src/x.rs", src);
        assert!(rules_fired(&f).is_empty(), "{:?}", scan(&f).0);
    }

    #[test]
    fn naive_float_accum_scoped_to_fakequakes_outside_simd() {
        let src = "fn m0(terms: &[f64]) -> f64 { terms.iter().sum::<f64>() }\n";
        let hot = file("fakequakes", "crates/fakequakes/src/rupture.rs", src);
        assert_eq!(rules_fired(&hot), vec!["naive-float-accum"]);
        // The simd module defines lane_sum and its scalar twin — exempt.
        let home = file("fakequakes", "crates/fakequakes/src/simd.rs", src);
        assert!(rules_fired(&home).is_empty());
        // So is a fakequakes bin target.
        let bin = file("fakequakes", "crates/fakequakes/src/bin/tool.rs", src);
        assert_eq!(rules_fired(&bin), vec!["naive-float-accum"]);
        // Other crates are out of scope (their sums feed no goldens).
        let other = file("htcsim", "crates/htcsim/src/x.rs", src);
        assert!(rules_fired(&other).is_empty());
        // Typed sums of other widths and untyped sums are not matched:
        // the rule targets the one spelling the hot paths actually used.
        let f32_sum = file(
            "fakequakes",
            "crates/fakequakes/src/x.rs",
            "fn f(x: &[f32]) -> f32 { x.iter().sum::<f32>() }\n",
        );
        assert!(rules_fired(&f32_sum).is_empty());
        let lane = file(
            "fakequakes",
            "crates/fakequakes/src/x.rs",
            "fn f(x: &[f64]) -> f64 { crate::simd::lane_sum(x) }\n",
        );
        assert!(rules_fired(&lane).is_empty());
    }

    #[test]
    fn unwrap_budget_counts_lib_code_only() {
        let lib = file(
            "dagman",
            "crates/dagman/src/x.rs",
            "fn f() { x.unwrap(); panic!(\"boom\"); }\n",
        );
        assert_eq!(rules_fired(&lib), vec!["unwrap-in-lib", "unwrap-in-lib"]);
        let bin = file(
            "fdw-core",
            "crates/core/src/bin/tool.rs",
            "fn main() { x.unwrap(); }\n",
        );
        assert!(rules_fired(&bin).is_empty());
        let test_file = file(
            "dagman",
            "crates/dagman/tests/proptests.rs",
            "fn f() { x.unwrap(); }\n",
        );
        assert!(rules_fired(&test_file).is_empty());
    }
}
