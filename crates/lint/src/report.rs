//! `LINT_report.json` emission.
//!
//! Hand-rolled JSON (this crate is intentionally dependency-free) with a
//! stable field and entry order, so same-tree runs emit byte-identical
//! reports.

use crate::rules::Finding;

/// The rules in report order.
pub(crate) const RULES: [&str; 10] = [
    "raw-unit",
    "determinism",
    "determinism-taint",
    "panic-path",
    "telemetry-ownership",
    "safety-comment",
    "event-coverage",
    "dead-pub",
    "narrow-pub",
    "stale-waiver",
];

/// Escapes a string for inclusion in a JSON document.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn finding_json(f: &Finding, indent: &str) -> String {
    format!(
        "{indent}{{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
        esc(f.rule),
        esc(&f.file),
        f.line,
        esc(&f.message)
    )
}

/// Renders the full report. `findings` must already be sorted.
#[must_use]
pub fn render(findings: &[Finding], files_scanned: usize) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"report\": \"inca-lint\",\n");
    s.push_str(&format!("  \"files_scanned\": {files_scanned},\n"));

    s.push_str("  \"rules\": [\n");
    for (i, rule) in RULES.iter().enumerate() {
        let violations = findings.iter().filter(|f| f.rule == *rule && !f.waived).count();
        let waived = findings.iter().filter(|f| f.rule == *rule && f.waived).count();
        s.push_str(&format!(
            "    {{\"rule\": \"{rule}\", \"violations\": {violations}, \"waived\": {waived}}}{}\n",
            if i + 1 < RULES.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");

    for (key, waived) in [("violations", false), ("waived", true)] {
        let subset: Vec<&Finding> = findings.iter().filter(|f| f.waived == waived).collect();
        s.push_str(&format!("  \"{key}\": [\n"));
        for (i, f) in subset.iter().enumerate() {
            s.push_str(&finding_json(f, "    "));
            s.push_str(if i + 1 < subset.len() { ",\n" } else { "\n" });
        }
        s.push_str(if key == "violations" { "  ],\n" } else { "  ]\n" });
    }
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_counts_violations_and_waivers_separately() {
        let findings = vec![
            Finding {
                rule: "panic-path",
                file: "crates/x/src/lib.rs".into(),
                line: 3,
                message: "`.unwrap()` panics".into(),
                waived: false,
            },
            Finding {
                rule: "panic-path",
                file: "crates/x/src/lib.rs".into(),
                line: 9,
                message: "`.expect()` panics".into(),
                waived: true,
            },
        ];
        let json = render(&findings, 1);
        assert!(json.contains("\"rule\": \"panic-path\", \"violations\": 1, \"waived\": 1"));
        assert!(json.contains("\"files_scanned\": 1"));
        // All rules present even when empty.
        for rule in RULES {
            assert!(json.contains(&format!("\"rule\": \"{rule}\"")), "{rule}");
        }
    }

    #[test]
    fn escaping_is_json_safe() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
