//! End-to-end checks of the `obs_diff` regression gate: identical
//! artifacts pass, injected p99 regressions fail, sub-threshold drift
//! passes, and malformed input is a usage error (exit 2), not a pass.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_obs_diff"))
}

/// Writes `content` to a unique temp file and returns its path.
fn temp_artifact(name: &str, content: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("obs_diff_test_{}_{name}", std::process::id()));
    std::fs::write(&path, content).expect("write temp artifact");
    path
}

/// A minimal but structurally faithful serve report.
fn serve_report(p99_scale: f64, throughput_scale: f64) -> String {
    format!(
        r#"{{
  "report": "inca-serve load sweep",
  "backends": [
    {{
      "backend": "inca",
      "sustainable_rps": 5000.0,
      "points": [
        {{"offered_rps": 100.0, "p99_ms": {:.4}, "throughput_rps": {:.4}, "energy_per_request_mj": 2.5}},
        {{"offered_rps": 200.0, "p99_ms": {:.4}, "throughput_rps": {:.4}, "energy_per_request_mj": 2.4}},
        {{"offered_rps": 400.0, "p99_ms": null, "throughput_rps": 0.0, "energy_per_request_mj": 0.0}}
      ]
    }}
  ]
}}"#,
        350.0 * p99_scale,
        99.0 * throughput_scale,
        420.0 * p99_scale,
        197.0 * throughput_scale,
    )
}

#[test]
fn identical_serve_reports_pass() {
    let a = temp_artifact("ident_a.json", &serve_report(1.0, 1.0));
    let b = temp_artifact("ident_b.json", &serve_report(1.0, 1.0));
    let status = bin().arg(&a).arg(&b).status().unwrap();
    assert_eq!(status.code(), Some(0), "identical artifacts must pass");
}

#[test]
fn injected_p99_regression_fails() {
    let a = temp_artifact("inj_a.json", &serve_report(1.0, 1.0));
    let b = temp_artifact("inj_b.json", &serve_report(1.0, 1.0));
    let status = bin().args(["--inject-p99", "1.15"]).arg(&a).arg(&b).status().unwrap();
    assert_eq!(status.code(), Some(1), "a 15% injected p99 regression must fail at 10%");
}

#[test]
fn real_p99_regression_fails_and_small_drift_passes() {
    let base = temp_artifact("drift_base.json", &serve_report(1.0, 1.0));
    let worse = temp_artifact("drift_worse.json", &serve_report(1.25, 1.0));
    let status = bin().arg(&base).arg(&worse).status().unwrap();
    assert_eq!(status.code(), Some(1), "a 25% p99 regression must fail");

    let slight = temp_artifact("drift_slight.json", &serve_report(1.05, 1.0));
    let status = bin().arg(&base).arg(&slight).status().unwrap();
    assert_eq!(status.code(), Some(0), "5% drift is inside the default 10% threshold");

    // The same drift fails under a tightened threshold.
    let status = bin().args(["--threshold", "0.02"]).arg(&base).arg(&slight).status().unwrap();
    assert_eq!(status.code(), Some(1), "5% drift must fail a 2% threshold");
}

#[test]
fn throughput_collapse_fails() {
    let base = temp_artifact("thru_base.json", &serve_report(1.0, 1.0));
    let worse = temp_artifact("thru_worse.json", &serve_report(1.0, 0.5));
    let status = bin().arg(&base).arg(&worse).status().unwrap();
    assert_eq!(status.code(), Some(1), "halved throughput must fail");
}

#[test]
fn vanished_percentile_is_a_regression() {
    let base = temp_artifact("vanish_base.json", &serve_report(1.0, 1.0));
    // Current run completes nothing at the first point: p99 null where
    // the baseline had data.
    let broken = serve_report(1.0, 1.0).replacen("\"p99_ms\": 350.0000", "\"p99_ms\": null", 1);
    let cur = temp_artifact("vanish_cur.json", &broken);
    let status = bin().arg(&base).arg(&cur).status().unwrap();
    assert_eq!(status.code(), Some(1), "a vanished p99 must count as a regression");
}

#[test]
fn bench_artifact_ratios_gate() {
    let base = temp_artifact(
        "bench_base.json",
        r#"{"benchmark":"hw_exec","hw_conv":{"packed_over_scalar":4.8},"hw_batch_conv":{"packed_over_scalar":5.7,"parallel":{"skipped":"host_threads < 4"}},"telemetry":{"on_over_off":1.2}}"#,
    );
    let same = temp_artifact(
        "bench_same.json",
        r#"{"benchmark":"hw_exec","hw_conv":{"packed_over_scalar":4.9},"hw_batch_conv":{"packed_over_scalar":5.6,"parallel":{"skipped":"host_threads < 4"}},"telemetry":{"on_over_off":1.21}}"#,
    );
    let status = bin().arg(&base).arg(&same).status().unwrap();
    assert_eq!(status.code(), Some(0), "noise-level drift must pass");

    let worse = temp_artifact(
        "bench_worse.json",
        r#"{"benchmark":"hw_exec","hw_conv":{"packed_over_scalar":3.0},"hw_batch_conv":{"packed_over_scalar":5.7},"telemetry":{"on_over_off":1.2}}"#,
    );
    let status = bin().arg(&base).arg(&worse).status().unwrap();
    assert_eq!(status.code(), Some(1), "a lost packed speedup must fail");
}

#[test]
fn saturating_ratio_gates_whenever_the_baseline_carries_it() {
    let artifact = |saturating: Option<f64>| {
        let section = saturating
            .map(|r| format!(r#","hw_conv_saturating":{{"packed_over_scalar":{r}}}"#))
            .unwrap_or_default();
        format!(
            r#"{{"benchmark":"hw_exec","hw_conv":{{"packed_over_scalar":900}},"hw_batch_conv":{{"packed_over_scalar":1200}}{section},"telemetry":{{"on_over_off":1.0}}}}"#
        )
    };
    let with = temp_artifact("sat_with.json", &artifact(Some(60.0)));
    let without = temp_artifact("sat_without.json", &artifact(None));
    for (name, base, cur, code) in [
        ("baseline without it", &without, &with, 0),
        ("vanished from current", &with, &without, 1),
        ("noise", &with, &temp_artifact("sat_noise.json", &artifact(Some(57.0))), 0),
        ("collapse", &with, &temp_artifact("sat_collapse.json", &artifact(Some(20.0))), 1),
    ] {
        let status = bin().arg(base).arg(cur).status().unwrap();
        assert_eq!(status.code(), Some(code), "{name}");
    }
}

#[test]
fn malformed_input_is_a_usage_error() {
    let good = temp_artifact("mal_good.json", &serve_report(1.0, 1.0));
    let bad = temp_artifact("mal_bad.json", "{not json");
    let status = bin().arg(&good).arg(&bad).status().unwrap();
    assert_eq!(status.code(), Some(2), "malformed JSON is exit 2");

    let unknown = temp_artifact("mal_unknown.json", r#"{"something":"else"}"#);
    let status = bin().arg(&unknown).arg(&good).status().unwrap();
    assert_eq!(status.code(), Some(2), "unrecognized artifact kind is exit 2");

    let status = bin().arg(&good).status().unwrap();
    assert_eq!(status.code(), Some(2), "missing operand is exit 2");
}

#[test]
fn gate_accepts_the_committed_artifacts_against_themselves() {
    // The committed repo artifacts must both be recognized and
    // self-compare clean — this is exactly what CI runs.
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    for artifact in ["SERVE_report.json", "BENCH_hw_exec.json"] {
        let path = format!("{root}/{artifact}");
        let status = bin().arg(&path).arg(&path).status().unwrap();
        assert_eq!(status.code(), Some(0), "{artifact} failed to self-compare");
    }
}

/// A minimal lint report with two rules.
fn lint_report(det_violations: u32, panic_waived: u32, drop_rule: bool) -> String {
    let panic_rule = if drop_rule {
        String::new()
    } else {
        format!(",\n    {{\"rule\": \"panic-path\", \"violations\": 0, \"waived\": {panic_waived}}}")
    };
    format!(
        r#"{{
  "report": "inca-lint",
  "files_scanned": 10,
  "rules": [
    {{"rule": "determinism", "violations": {det_violations}, "waived": 1}}{panic_rule}
  ],
  "violations": [],
  "waived": []
}}"#
    )
}

#[test]
fn identical_lint_reports_pass() {
    let a = temp_artifact("lint_ident_a.json", &lint_report(0, 3, false));
    let b = temp_artifact("lint_ident_b.json", &lint_report(0, 3, false));
    let status = bin().arg(&a).arg(&b).status().unwrap();
    assert_eq!(status.code(), Some(0), "identical lint reports must pass");
}

#[test]
fn lint_violation_increase_from_zero_baseline_fails() {
    // The relative gate ignores zero baselines; the lint path must not.
    let base = temp_artifact("lint_zero_base.json", &lint_report(0, 3, false));
    let cur = temp_artifact("lint_zero_cur.json", &lint_report(1, 3, false));
    let status = bin().arg(&base).arg(&cur).status().unwrap();
    assert_eq!(status.code(), Some(1), "0 -> 1 violations must fail even though the baseline is zero");
}

#[test]
fn lint_waiver_increases_fail_but_decreases_pass() {
    let base = temp_artifact("lint_wf_base.json", &lint_report(0, 3, false));
    let more_waivers = temp_artifact("lint_wf_waiv.json", &lint_report(0, 4, false));
    let status = bin().arg(&base).arg(&more_waivers).status().unwrap();
    assert_eq!(status.code(), Some(1), "new waivers must force a deliberate baseline refresh");

    let improved = temp_artifact("lint_wf_better.json", &lint_report(0, 2, false));
    let status = bin().arg(&base).arg(&improved).status().unwrap();
    assert_eq!(status.code(), Some(0), "burning counts down passes");
}

#[test]
fn lint_missing_rule_fails_and_new_rule_passes() {
    let two_rules = temp_artifact("lint_rules_base.json", &lint_report(0, 3, false));
    let one_rule = temp_artifact("lint_rules_cur.json", &lint_report(0, 3, true));
    let status = bin().arg(&two_rules).arg(&one_rule).status().unwrap();
    assert_eq!(status.code(), Some(1), "a rule vanishing from the report must fail");

    // The reverse — the current report grew a rule — is fine.
    let status = bin().arg(&one_rule).arg(&two_rules).status().unwrap();
    assert_eq!(status.code(), Some(0), "a new rule absent from the baseline must not fail");
}

#[test]
fn committed_lint_baseline_self_compares_clean() {
    // The committed baseline must be a valid lint report the gate can
    // parse and pass against itself (CI diffs fresh runs against it).
    let baseline = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/baselines/LINT_report.json");
    let status = bin().arg(&baseline).arg(&baseline).status().unwrap();
    assert_eq!(status.code(), Some(0), "baseline must self-compare clean");
}
