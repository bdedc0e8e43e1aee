//! Report rendering: human `file:line` diagnostics for the terminal and
//! a machine-readable JSON document (one JSON dialect with the telemetry
//! exporters — escaped with `fdw_obs::json::escape`, validated by
//! `fdw_obs::json::validate`).

use crate::ScanOutcome;
use fdw_obs::json::escape;

/// Schema version of the JSON report.
const REPORT_VERSION: u64 = 3;

/// Human diagnostics: directive errors, then every finding with its
/// explanation lines. Empty string when the scan is clean.
pub fn human(outcome: &ScanOutcome) -> String {
    let mut out = String::new();
    for e in &outcome.directive_errors {
        out.push_str(&format!(
            "error[bad-allow-directive]: {}:{}: {}\n",
            e.rel_path, e.line, e.message
        ));
    }
    for f in &outcome.findings {
        out.push_str(&format!(
            "error[{}]: {}:{}: {}\n",
            f.rule, f.rel_path, f.line, f.excerpt
        ));
        for hop in &f.chain {
            out.push_str(&format!("    {hop}\n"));
        }
    }
    out
}

/// One-line summary of a scan.
pub fn summary(outcome: &ScanOutcome) -> String {
    format!(
        "fdwlint: {} file(s), {} rule(s), {} finding(s), {} directive error(s)",
        outcome.files_scanned,
        crate::rules::RULES.len(),
        outcome.findings.len(),
        outcome.directive_errors.len(),
    )
}

/// The machine-readable report. Always well-formed JSON (debug-asserted
/// against the shared validator).
pub fn json(outcome: &ScanOutcome) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"tool\": \"fdwlint\",\n");
    out.push_str(&format!("  \"version\": {REPORT_VERSION},\n"));
    out.push_str(&format!(
        "  \"files_scanned\": {},\n",
        outcome.files_scanned
    ));
    out.push_str(&format!(
        "  \"status\": \"{}\",\n",
        if outcome.is_clean() {
            "clean"
        } else {
            "violations"
        }
    ));

    out.push_str("  \"rules\": [");
    for (i, r) in crate::rules::RULES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"name\": \"{}\", \"description\": \"{}\"}}",
            escape(r.name),
            escape(r.description)
        ));
    }
    out.push_str("\n  ],\n");

    out.push_str("  \"directive_errors\": [");
    for (i, e) in outcome.directive_errors.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
            escape(&e.rel_path),
            e.line,
            escape(&e.message)
        ));
    }
    out.push_str("\n  ],\n");

    out.push_str("  \"findings\": [");
    for (i, f) in outcome.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"excerpt\": \"{}\", \"chain\": [{}]}}",
            escape(f.rule),
            escape(&f.rel_path),
            f.line,
            escape(&f.excerpt),
            str_array(&f.chain)
        ));
    }
    out.push_str("\n  ]\n}\n");
    debug_assert!(fdw_obs::json::validate(&out).is_ok());
    out
}

/// `"a", "b"` — a JSON string array body.
fn str_array(items: &[String]) -> String {
    items
        .iter()
        .map(|s| format!("\"{}\"", escape(s)))
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::SourceFile;
    use crate::scan_workspace;

    fn sample() -> ScanOutcome {
        let files = [SourceFile {
            crate_name: "htcsim".into(),
            rel_path: "crates/htcsim/src/x.rs".into(),
            text: "fn f() { let t = std::time::Instant::now(); }\n".into(),
        }];
        scan_workspace(&files)
    }

    #[test]
    fn json_report_validates_and_carries_findings() {
        let doc = json(&sample());
        assert!(fdw_obs::json::validate(&doc).is_ok());
        assert!(doc.contains("\"status\": \"violations\""));
        assert!(doc.contains("\"rule\": \"wall-clock-in-sim\""));
        assert!(doc.contains("\"line\": 1"));
    }

    #[test]
    fn human_report_is_file_line_addressable() {
        let outcome = sample();
        let text = human(&outcome);
        assert!(
            text.contains("error[wall-clock-in-sim]: crates/htcsim/src/x.rs:1:"),
            "{text}"
        );
        assert!(summary(&outcome).contains("1 finding(s)"));
    }
}
