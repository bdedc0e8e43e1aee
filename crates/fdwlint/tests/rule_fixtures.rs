//! Per-rule fixture tests through the public API: every rule has a
//! passing and a violating snippet, rule text quoted in strings, comments
//! or `#[cfg(test)]` regions never fires, and the allow/ratchet machinery
//! behaves end to end the way `scripts/ci.sh` depends on.

use fdw_obs::digest::{DIGEST_INIT, FNV_PRIME};
use fdwlint::{scan_sources, scan_workspace, AnalysisOptions, Baseline, Ratchet, SourceFile};

fn src(crate_name: &str, rel_path: &str, text: &str) -> SourceFile {
    SourceFile {
        crate_name: crate_name.into(),
        rel_path: rel_path.into(),
        text: text.into(),
    }
}

/// Full scan (token rules + call-graph pass) at the default taint depth.
fn scan(files: &[SourceFile]) -> fdwlint::ScanOutcome {
    scan_workspace(files, &AnalysisOptions::default())
}

/// `v` as an upper-case hex literal in `_`-separated groups of four
/// (`0xCBF2_9CE4_…`), the spelling least like the digest module's.
fn grouped_upper_hex(v: u64) -> String {
    let hex = format!("{v:016X}");
    let groups: Vec<&str> = (0..4).map(|i| &hex[4 * i..4 * i + 4]).collect();
    format!("0x{}", groups.join("_"))
}

/// `(rule, violating source, passing source)` triples; all placed in a
/// crate/path where the rule is in scope.
fn per_rule_fixtures() -> Vec<(&'static str, SourceFile, SourceFile)> {
    vec![
        (
            "wall-clock-in-sim",
            src(
                "htcsim",
                "crates/htcsim/src/fx.rs",
                "fn f() -> std::time::Instant { std::time::Instant::now() }\n",
            ),
            src(
                "htcsim",
                "crates/htcsim/src/fx.rs",
                "fn f(now: SimTime) -> SimTime { now + 1 }\n",
            ),
        ),
        (
            "unordered-hash-iteration",
            src(
                "dagman",
                "crates/dagman/src/fx.rs",
                "fn f(m: HashMap<u32, u32>) {\n    for (k, v) in &m {\n        emit(k, v);\n    }\n}\n",
            ),
            src(
                "dagman",
                "crates/dagman/src/fx.rs",
                "fn f(m: BTreeMap<u32, u32>) {\n    for (k, v) in &m {\n        emit(k, v);\n    }\n}\n",
            ),
        ),
        (
            "unseeded-randomness",
            src(
                "fakequakes",
                "crates/fakequakes/src/fx.rs",
                "fn f() -> f64 { rand::thread_rng().gen() }\n",
            ),
            src(
                "fakequakes",
                "crates/fakequakes/src/fx.rs",
                "fn f(seed: u64) -> StdRng { StdRng::seed_from_u64(seed) }\n",
            ),
        ),
        (
            "raw-parallelism",
            src(
                "fakequakes",
                "crates/fakequakes/src/fx.rs",
                "fn f(xs: &[f64]) -> Vec<f64> { xs.par_iter().map(|x| x * 2.0).collect() }\n",
            ),
            src(
                "fakequakes",
                "crates/fakequakes/src/fx.rs",
                "fn f(xs: &[f64]) -> Vec<f64> { par::map_chunked(xs, |x| x * 2.0) }\n",
            ),
        ),
        (
            "naive-float-accum",
            src(
                "fakequakes",
                "crates/fakequakes/src/fx.rs",
                "fn moment(terms: &[f64]) -> f64 { terms.iter().sum::<f64>() }\n",
            ),
            src(
                "fakequakes",
                "crates/fakequakes/src/fx.rs",
                "fn moment(terms: &[f64]) -> f64 { crate::simd::lane_sum(terms) }\n",
            ),
        ),
        (
            "fnv-outside-digest",
            src(
                "dagman",
                "crates/dagman/src/fx.rs",
                &format!(
                    "fn jitter(name: &str) -> u64 {{ fold({}, name) }}\n",
                    grouped_upper_hex(DIGEST_INIT)
                ),
            ),
            src(
                "dagman",
                "crates/dagman/src/fx.rs",
                "fn jitter(name: &str) -> u64 { fnv1a(DIGEST_INIT, name.as_bytes()) }\n",
            ),
        ),
        (
            "unwrap-in-lib",
            src(
                "eew",
                "crates/eew/src/fx.rs",
                "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
            ),
            src(
                "eew",
                "crates/eew/src/fx.rs",
                "fn f(x: Option<u32>) -> Result<u32, Error> { x.ok_or(Error::Missing) }\n",
            ),
        ),
        (
            "nondet-flow-to-sink",
            src(
                "fdw-obs",
                "crates/obs/src/fx.rs",
                "pub fn digest_fold(h: u64, x: u64) -> u64 { h ^ x }\n\
                 pub fn stamp(m: &HashMap<u64, u64>) -> u64 {\n\
                 \x20   let mut h = 0;\n\
                 \x20   for (k, v) in m.iter() {\n\
                 \x20       h = digest_fold(h, k ^ v);\n\
                 \x20   }\n\
                 \x20   h\n\
                 }\n",
            ),
            src(
                "fdw-obs",
                "crates/obs/src/fx.rs",
                "pub fn digest_fold(h: u64, x: u64) -> u64 { h ^ x }\n\
                 pub fn stamp(m: &BTreeMap<u64, u64>) -> u64 {\n\
                 \x20   let mut h = 0;\n\
                 \x20   for (k, v) in m.iter() {\n\
                 \x20       h = digest_fold(h, k ^ v);\n\
                 \x20   }\n\
                 \x20   h\n\
                 }\n",
            ),
        ),
        (
            "dead-config-knob",
            src(
                "fdw-core",
                "crates/core/src/config.rs",
                "config_keys! {\n\
                 \x20   \"ghost_knob\" => ghost_knob,\n\
                 }\n",
            ),
            src(
                "fdw-core",
                "crates/core/src/config.rs",
                "config_keys! {\n\
                 \x20   // fdwlint::allow(dead-config-knob): staged rollout; the reader lands with the next engine PR\n\
                 \x20   \"ghost_knob\" => ghost_knob,\n\
                 }\n",
            ),
        ),
        (
            "ulog-code-registry",
            src(
                "htcsim",
                "crates/htcsim/src/condor_log.rs",
                "pub mod codes {\n\
                 \x20   pub const SUBMITTED: &str = \"000\";\n\
                 \x20   pub const TERMINATED: &str = \"005\";\n\
                 \x20   pub const DUP: &str = \"005\";\n\
                 }\n",
            ),
            src(
                "htcsim",
                "crates/htcsim/src/condor_log.rs",
                "pub mod codes {\n\
                 \x20   pub const SUBMITTED: &str = \"000\";\n\
                 \x20   pub const TERMINATED: &str = \"005\";\n\
                 }\n\
                 pub fn writer(code: &str) -> String { format!(\"{code} ...\") }\n",
            ),
        ),
        (
            "unblessed-parallel-reachability",
            src(
                "htcsim",
                "crates/htcsim/src/des.rs",
                "pub fn run_epochs() { drain(); }\n\
                 fn drain() {\n\
                 \x20   rayon::join(|| 1, || 2);\n\
                 }\n",
            ),
            src(
                "htcsim",
                "crates/htcsim/src/des.rs",
                "pub fn run_epochs() { drain(); }\n\
                 fn drain() {\n\
                 \x20   // fdwlint::allow(raw-parallelism): epoch halves are disjoint index ranges; merge order is fixed\n\
                 \x20   rayon::join(|| 1, || 2);\n\
                 }\n",
            ),
        ),
    ]
}

#[test]
fn every_rule_has_a_firing_and_a_passing_fixture() {
    for (rule, bad, good) in per_rule_fixtures() {
        let hit = scan(&[bad]);
        assert!(
            hit.findings.iter().any(|f| f.rule == rule),
            "{rule}: violating fixture did not fire ({:?})",
            hit.findings
        );
        assert!(hit.directive_errors.is_empty());
        let clean = scan(&[good]);
        assert!(
            clean.findings.is_empty(),
            "{rule}: passing fixture fired {:?}",
            clean.findings
        );
    }
}

#[test]
fn every_registered_rule_is_covered_by_a_fixture() {
    // per_rule_fixtures() must not silently fall behind the rule set.
    let covered: Vec<&str> = per_rule_fixtures().iter().map(|(r, _, _)| *r).collect();
    for r in fdwlint::rules::RULES {
        assert!(covered.contains(&r.name), "no fixture for rule {}", r.name);
    }
    assert_eq!(covered.len(), fdwlint::rules::RULES.len());
}

#[test]
fn fnv_constants_fire_outside_the_digest_module_and_the_allowed_key_fold() {
    let basis = grouped_upper_hex(DIGEST_INIT);
    let prime = format!("0x{FNV_PRIME:020x}u64"); // leading zeros, suffix
    let key_fold = |allow: &str| {
        format!(
            "fn distance_key(xs: &[f64]) -> u64 {{\n{allow}\
             \x20   xs.iter().fold({basis}, |h, x| (h ^ x.to_bits()).wrapping_mul({prime}))\n\
             }}\n"
        )
    };
    let lines_hit = |krate: &str, path: &str, text: &str| -> Vec<usize> {
        scan(&[src(krate, path, text)])
            .findings
            .iter()
            .filter(|f| f.rule == "fnv-outside-digest")
            .map(|f| f.line)
            .collect()
    };
    let stochastic = "crates/fakequakes/src/stochastic.rs";
    // Silent in the digest module, and at the fakequakes key fold under
    // its inline allow.
    assert!(lines_hit("fdw-obs", "crates/obs/src/digest.rs", &key_fold("")).is_empty());
    let allowed = key_fold("    // fdwlint::allow(fnv-outside-digest): no fdw-obs dependency\n");
    assert!(lines_hit("fakequakes", stochastic, &allowed).is_empty());
    // Caught in another file, and at the key fold without its allow.
    assert_eq!(
        lines_hit("dagman", "crates/dagman/src/driver.rs", &key_fold("")),
        vec![2]
    );
    assert_eq!(lines_hit("fakequakes", stochastic, &key_fold("")), vec![2]);
    // Near misses and test regions stay silent.
    let quiet = format!(
        "const NEAR: u64 = {:#x};\n#[cfg(test)]\nmod tests {{\n    const P: u64 = {FNV_PRIME:#X};\n}}\n",
        DIGEST_INIT ^ 1
    );
    assert!(lines_hit("dagman", "crates/dagman/src/fx.rs", &quiet).is_empty());
}

#[test]
fn rule_text_in_strings_comments_and_test_regions_never_fires() {
    let text = concat!(
        "//! Mentions Instant::now(), thread_rng(), par_iter and .unwrap()\n",
        "//! in prose, which must not fire.\n",
        "\n",
        "const DOC: &str = \"call Instant::now() then x.unwrap() in par_iter\";\n",
        "const RAW: &str = r#\"thread_rng inside a raw \"string\" literal\"#;\n",
        "const CH: char = '\\\"'; // and panic!(...) in a trailing comment\n",
        "\n",
        "fn ok(m: &BTreeMap<u32, u32>) -> usize { m.len() }\n",
        "\n",
        "#[cfg(test)]\n",
        "mod tests {\n",
        "    #[test]\n",
        "    fn t() {\n",
        "        let t = std::time::Instant::now();\n",
        "        let mut rng = rand::thread_rng();\n",
        "        let m: HashMap<u32, u32> = HashMap::new();\n",
        "        for (k, v) in &m { assert!(k <= v); }\n",
        "        std::thread::spawn(|| {}).join().unwrap();\n",
        "        panic!(\"tests may panic\");\n",
        "    }\n",
        "}\n",
    );
    let out = scan_sources(&[src("htcsim", "crates/htcsim/src/fx.rs", text)]);
    assert!(out.findings.is_empty(), "{:?}", out.findings);
    assert!(
        out.directive_errors.is_empty(),
        "{:?}",
        out.directive_errors
    );
}

#[test]
fn allow_directives_suppress_with_reason_and_error_without() {
    let allowed = src(
        "htcsim",
        "crates/htcsim/src/fx.rs",
        "// fdwlint::allow(wall-clock-in-sim): measuring host-side setup cost only\n\
         fn f() { let _ = std::time::Instant::now(); }\n",
    );
    let out = scan_sources(&[allowed]);
    assert!(out.findings.is_empty());
    assert!(out.directive_errors.is_empty());

    let reasonless = src(
        "htcsim",
        "crates/htcsim/src/fx.rs",
        "// fdwlint::allow(wall-clock-in-sim)\n\
         fn f() { let _ = std::time::Instant::now(); }\n",
    );
    let out = scan_sources(&[reasonless]);
    assert_eq!(out.directive_errors.len(), 1, "reason is mandatory");
    assert_eq!(out.findings.len(), 1, "broken directive must not suppress");

    let unknown = src(
        "htcsim",
        "crates/htcsim/src/fx.rs",
        "// fdwlint::allow(made-up-rule): nope\n",
    );
    let out = scan_sources(&[unknown]);
    assert_eq!(out.directive_errors.len(), 1);
    assert!(out.directive_errors[0].message.contains("unknown rule"));
    // Directive errors alone make the scan dirty even under an empty tree.
    let r = Ratchet::compare(&out, &Baseline::default());
    assert!(!r.is_clean(&out));
}

#[test]
fn ratchet_fails_growth_accepts_status_quo_and_notes_reduction() {
    let two = scan_sources(&[src(
        "eew",
        "crates/eew/src/fx.rs",
        "fn f(a: Option<u32>, b: Option<u32>) -> u32 { a.unwrap() + b.unwrap() }\n",
    )]);
    assert_eq!(two.counts().get("unwrap-in-lib/eew"), Some(&2));

    let mut frozen = Baseline::default();
    frozen.counts.insert("unwrap-in-lib/eew".into(), 2);

    // Status quo is clean; growth is not; reduction is clean + improved.
    let r = Ratchet::compare(&two, &frozen);
    assert!(r.is_clean(&two), "{:?}", r.over_budget);

    let mut tighter = Baseline::default();
    tighter.counts.insert("unwrap-in-lib/eew".into(), 1);
    let r = Ratchet::compare(&two, &tighter);
    assert!(!r.is_clean(&two));
    assert_eq!(r.over_budget.len(), 1);
    assert_eq!(r.over_budget[0].3.len(), 2, "members listed for the bucket");

    let one = scan_sources(&[src(
        "eew",
        "crates/eew/src/fx.rs",
        "fn f(a: Option<u32>) -> u32 { a.unwrap() }\n",
    )]);
    let r = Ratchet::compare(&one, &frozen);
    assert!(r.is_clean(&one));
    assert_eq!(r.improved, vec![("unwrap-in-lib/eew".to_string(), 2, 1)]);
    assert_eq!(r.tightened().count("unwrap-in-lib/eew"), 1);
}

#[test]
fn baseline_json_roundtrips_through_the_obs_dialect() {
    let mut b = Baseline::default();
    b.counts.insert("unwrap-in-lib/eew".into(), 1);
    b.counts.insert("raw-parallelism/fakequakes".into(), 3);
    let text = b.to_json();
    assert!(fdw_obs::json::validate(&text).is_ok(), "{text}");
    let back = Baseline::parse(&text).expect("own output parses");
    assert_eq!(back.counts, b.counts);
    // Corrupt documents are rejected, not half-read; a missing counts
    // object is an empty baseline, not an error.
    assert!(Baseline::parse("{\"version\": 99, \"counts\": {}}").is_err());
    assert!(Baseline::parse("{\"counts\": {}}").is_err());
    assert!(Baseline::parse("not json").is_err());
    assert!(Baseline::parse("{\"version\": 1}")
        .unwrap()
        .counts
        .is_empty());
}
