//! End-to-end tests of the `inca-lint` binary over the rule fixtures:
//! each rule has a clean, a violating and a waived mini-workspace under
//! `tests/fixtures/`, and the CLI must exit 0 / 1 / 0 respectively.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn run_lint(root: &Path, extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_inca-lint"))
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .expect("spawn inca-lint")
}

const RULES: [&str; 8] =
    ["raw_unit", "determinism", "taint", "panic_path", "telemetry", "safety", "dead_pub", "narrow_pub"];

#[test]
fn clean_fixtures_exit_zero() {
    for rule in RULES {
        let out = run_lint(&fixture(&format!("{rule}_clean")), &[]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{rule}: {stdout}");
        assert!(stdout.contains("0 violation(s)"), "{rule}: {stdout}");
    }
}

#[test]
fn violating_fixtures_exit_nonzero() {
    for rule in RULES {
        let out = run_lint(&fixture(&format!("{rule}_violating")), &[]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(1), "{rule}: {stdout}");
        assert!(stdout.contains("VIOLATION"), "{rule}: {stdout}");
    }
}

#[test]
fn waived_fixtures_exit_zero_but_count_waivers() {
    for rule in RULES {
        let out = run_lint(&fixture(&format!("{rule}_waived")), &[]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{rule}: {stdout}");
        assert!(stdout.contains("(waived)"), "{rule}: {stdout}");
        assert!(stdout.contains("0 violation(s)"), "{rule}: {stdout}");
        assert!(!stdout.contains(" 0 waived"), "{rule}: {stdout}");
    }
}

#[test]
fn violating_fixture_messages_name_the_rules() {
    let cases = [
        ("raw_unit_violating", "raw-unit"),
        ("determinism_violating", "determinism"),
        ("taint_violating", "determinism-taint"),
        ("panic_path_violating", "panic-path"),
        ("telemetry_violating", "telemetry-ownership"),
        ("safety_violating", "safety-comment"),
        ("dead_pub_violating", "dead-pub"),
        ("narrow_pub_violating", "narrow-pub"),
        ("stale_waiver_violating", "stale-waiver"),
    ];
    for (fix, rule) in cases {
        let out = run_lint(&fixture(fix), &[]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(&format!("[{rule}]")), "{fix}: {stdout}");
    }
}

#[test]
fn report_json_is_written_and_counts_match() {
    let dir = std::env::temp_dir().join("inca_lint_cli_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let report = dir.join("LINT_report.json");
    let out = run_lint(&fixture("panic_path_violating"), &["--report", report.to_str().expect("utf8 path")]);
    assert_eq!(out.status.code(), Some(1));
    let json = std::fs::read_to_string(&report).expect("report written");
    assert!(json.contains("\"report\": \"inca-lint\""), "{json}");
    assert!(json.contains("\"rule\": \"panic-path\", \"violations\": 2, \"waived\": 0"), "{json}");
    // All ten rule summaries present even when empty.
    for rule in [
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
    ] {
        assert!(json.contains(&format!("\"rule\": \"{rule}\"")), "{rule} missing: {json}");
    }
    std::fs::remove_file(&report).ok();
}

#[test]
fn taint_finding_prints_the_full_source_to_sink_chain() {
    let out = run_lint(&fixture("taint_violating"), &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    // The wall-clock source is two hops from the artifact writer; the
    // finding must spell out every hop of the chain plus the source site.
    assert!(stdout.contains("`core::write_artifact` -> `core::summarize` -> `core::stamp`"), "{stdout}");
    assert!(stdout.contains("source at crates/core/src/clock.rs:3"), "{stdout}");
}

#[test]
fn taint_barrier_waiver_downgrades_the_chain() {
    let out = run_lint(&fixture("taint_waived"), &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("taint barrier `core::summarize`"), "{stdout}");
    assert!(stdout.contains("(waived)"), "{stdout}");
}

#[test]
fn stale_waivers_fail_the_run() {
    let out = run_lint(&fixture("stale_waiver_violating"), &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("[stale-waiver]"), "{stdout}");
    assert!(stdout.contains("no longer suppresses any finding"), "{stdout}");
}

#[test]
fn an_unparseable_file_fails_the_run() {
    let out = run_lint(&fixture("parse_error"), &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    // A file the parser cannot recover is an error, like an unreadable
    // one: the run names the file and line and exits 2.
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("cannot parse crates/sim/src/report.rs:3"), "{stderr}");
}

#[test]
fn semantic_fixture_with_generics_and_test_modules_is_clean() {
    // Generics, trait impls, nested modules, and a cfg(test) module full
    // of wall-clock and HashMap usage: all parse cleanly and the test
    // code is masked.
    let out = run_lint(&fixture("semantic_clean"), &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("0 violation(s)"), "{stdout}");
}

#[test]
fn missing_ownership_map_skips_rule_with_notice() {
    // The raw_unit fixtures carry no DESIGN.md: the telemetry rule must
    // be skipped (with a notice on stderr), not fail the run.
    let out = run_lint(&fixture("raw_unit_clean"), &[]);
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("skipping the telemetry-ownership rule"), "{stderr}");
}

#[test]
fn quiet_suppresses_findings() {
    let out = run_lint(&fixture("panic_path_violating"), &["--quiet"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty(), "{}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn bad_arguments_exit_two() {
    let out = Command::new(env!("CARGO_BIN_EXE_inca-lint"))
        .arg("--no-such-flag")
        .output()
        .expect("spawn inca-lint");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn workspace_itself_is_clean() {
    // The real tree this linter guards must stay green: every finding is
    // either fixed or carries a justified waiver.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = run_lint(&root, &["--quiet"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stdout));
}
