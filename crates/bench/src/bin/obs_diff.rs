//! `obs_diff` — artifact regression gate. Compares two runs of the same
//! reproducible artifact (`SERVE_report.json`, `NET_report.json`,
//! `BENCH_hw_exec.json`, or `LINT_report.json`) and exits non-zero when
//! a headline metric regressed past a configurable threshold, so CI can
//! hold the line against committed baselines instead of eyeballing
//! diffs.
//!
//! Serve and fleet (`NET`) reports share the sweep shape and gate the
//! same way — per-backend sustainable load may not fall, per-point p99
//! may not rise, throughput may not fall — with the fleet's
//! `sustainable_rps_per_rack` headline gated on top.
//!
//! Lint reports gate on exact integers, ignoring `--threshold`: per-rule
//! violation and waiver counts may not rise above the baseline, and
//! rules may not disappear. Burning counts *down* passes (and prints a
//! reminder to refresh the baseline).
//!
//! ```text
//! obs_diff [--threshold F] [--inject-p99 FACTOR] BASELINE.json CURRENT.json
//! ```
//!
//! * `--threshold` — relative regression tolerance (default `0.10`,
//!   i.e. 10 %). Latency/overhead metrics fail above `base * (1 + F)`;
//!   throughput/speedup metrics fail below `base * (1 - F)`.
//! * `--inject-p99` — multiplies every current p99 by `FACTOR` before
//!   comparing (serve reports only). CI uses this to prove the gate
//!   trips: identical artifacts must pass bare and fail with
//!   `--inject-p99 1.15` at the default threshold.
//!
//! Exit codes: `0` within tolerance, `1` regression detected, `2` usage
//! or parse error.

use serde_json::Value;
use std::process::ExitCode;

/// Direction a metric is allowed to drift in.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Better {
    /// Bigger is better (throughput, speedups): fail when current
    /// drops below `base * (1 - threshold)`.
    Higher,
    /// Smaller is better (latency, overhead): fail when current rises
    /// above `base * (1 + threshold)`.
    Lower,
}

struct Gate {
    threshold: f64,
    failures: u32,
    compared: u32,
}

impl Gate {
    fn new(threshold: f64) -> Self {
        Self { threshold, failures: 0, compared: 0 }
    }

    /// Compares one metric; `None` values mean "no data at this point".
    fn check(&mut self, label: &str, base: Option<f64>, cur: Option<f64>, better: Better) {
        match (base, cur) {
            (Some(b), Some(c)) => {
                self.compared += 1;
                // A zero baseline carries no regression information.
                if b == 0.0 {
                    return;
                }
                let (bad, bound) = match better {
                    Better::Higher => (c < b * (1.0 - self.threshold), b * (1.0 - self.threshold)),
                    Better::Lower => (c > b * (1.0 + self.threshold), b * (1.0 + self.threshold)),
                };
                if bad {
                    self.failures += 1;
                    eprintln!("obs_diff: REGRESSION {label}: {c:.4} vs baseline {b:.4} (bound {bound:.4})");
                } else {
                    eprintln!("obs_diff: ok {label}: {c:.4} vs baseline {b:.4}");
                }
            }
            (Some(b), None) => {
                // The baseline had data here and the current run does
                // not — e.g. a load point that used to complete requests
                // now completes none. That is a regression, not a skip.
                self.compared += 1;
                self.failures += 1;
                eprintln!("obs_diff: REGRESSION {label}: metric vanished (baseline {b:.4}, current null)");
            }
            // No baseline → nothing to regress against.
            (None, _) => {}
        }
    }
}

fn opt_f64(v: &Value) -> Option<f64> {
    v.as_f64()
}

/// Compares two serving sweep reports backend by backend, point by
/// point.
fn diff_serve(base: &Value, cur: &Value, gate: &mut Gate, inject_p99: f64) {
    let empty = Vec::new();
    let base_backends = base["backends"].as_array().unwrap_or(&empty);
    for bb in base_backends {
        let id = bb["backend"].as_str().unwrap_or("?");
        let Some(cb) =
            cur["backends"].as_array().and_then(|arr| arr.iter().find(|c| c["backend"].as_str() == Some(id)))
        else {
            gate.failures += 1;
            eprintln!("obs_diff: REGRESSION backend {id} missing from current report");
            continue;
        };
        gate.check(
            &format!("{id}.sustainable_rps"),
            opt_f64(&bb["sustainable_rps"]),
            opt_f64(&cb["sustainable_rps"]),
            Better::Higher,
        );
        // Fleet (NET) reports only: the rps-per-rack headline. Absent
        // from serve reports, where the check is skipped.
        gate.check(
            &format!("{id}.sustainable_rps_per_rack"),
            opt_f64(&bb["sustainable_rps_per_rack"]),
            opt_f64(&cb["sustainable_rps_per_rack"]),
            Better::Higher,
        );
        let base_points = bb["points"].as_array().unwrap_or(&empty);
        let cur_points = cb["points"].as_array().unwrap_or(&empty);
        if base_points.len() != cur_points.len() {
            gate.failures += 1;
            eprintln!(
                "obs_diff: REGRESSION {id}: point count changed {} -> {} (grids differ; regenerate the baseline)",
                base_points.len(),
                cur_points.len()
            );
            continue;
        }
        for (i, (bp, cp)) in base_points.iter().zip(cur_points).enumerate() {
            let tag = |m: &str| format!("{id}.points[{i}].{m}");
            gate.check(
                &tag("p99_ms"),
                opt_f64(&bp["p99_ms"]),
                opt_f64(&cp["p99_ms"]).map(|v| v * inject_p99),
                Better::Lower,
            );
            gate.check(
                &tag("throughput_rps"),
                opt_f64(&bp["throughput_rps"]),
                opt_f64(&cp["throughput_rps"]),
                Better::Higher,
            );
            gate.check(
                &tag("energy_per_request_mj"),
                opt_f64(&bp["energy_per_request_mj"]),
                opt_f64(&cp["energy_per_request_mj"]),
                Better::Lower,
            );
        }
    }
}

/// Compares two `inca-lint` reports. Counts are exact integers with no
/// tolerance: static-analysis regressions are discrete events, and a
/// zero baseline (the steady state for `violations`) must still gate —
/// `Gate::check`'s relative bounds treat zero baselines as "no
/// information", so this path bypasses it entirely.
fn diff_lint(base: &Value, cur: &Value, gate: &mut Gate) {
    fn check_int(gate: &mut Gate, label: &str, b: Option<u64>, c: Option<u64>) {
        let (Some(b), Some(c)) = (b, c) else {
            gate.failures += 1;
            eprintln!("obs_diff: REGRESSION {label}: count missing (baseline {b:?}, current {c:?})");
            return;
        };
        gate.compared += 1;
        if c > b {
            gate.failures += 1;
            eprintln!("obs_diff: REGRESSION {label}: {c} vs baseline {b}");
        } else {
            eprintln!("obs_diff: ok {label}: {c} vs baseline {b}");
            if c < b {
                eprintln!("obs_diff: note {label} improved ({b} -> {c}); refresh the committed baseline");
            }
        }
    }
    let count = |v: &Value| v.as_u64();
    let empty = Vec::new();
    for br in base["rules"].as_array().unwrap_or(&empty) {
        let rule = br["rule"].as_str().unwrap_or("?");
        let Some(cr) =
            cur["rules"].as_array().and_then(|arr| arr.iter().find(|c| c["rule"].as_str() == Some(rule)))
        else {
            gate.failures += 1;
            eprintln!("obs_diff: REGRESSION rule {rule} missing from current report");
            continue;
        };
        check_int(gate, &format!("{rule}.violations"), count(&br["violations"]), count(&cr["violations"]));
        check_int(gate, &format!("{rule}.waived"), count(&br["waived"]), count(&cr["waived"]));
    }
    // New rules in the current report are fine (the linter grew); note
    // them so the baseline gets refreshed to start gating them too.
    for cr in cur["rules"].as_array().unwrap_or(&empty) {
        let rule = cr["rule"].as_str().unwrap_or("?");
        let known =
            base["rules"].as_array().is_some_and(|arr| arr.iter().any(|b| b["rule"].as_str() == Some(rule)));
        if !known {
            eprintln!("obs_diff: note new rule {rule} absent from baseline; refresh it to gate the rule");
        }
    }
}

/// Compares two `hw_exec` bench artifacts on their headline ratios.
fn diff_bench(base: &Value, cur: &Value, gate: &mut Gate) {
    for engine in ["hw_conv", "hw_batch_conv", "hw_conv_saturating"] {
        gate.check(
            &format!("{engine}.packed_over_scalar"),
            opt_f64(&base[engine]["packed_over_scalar"]),
            opt_f64(&cur[engine]["packed_over_scalar"]),
            Better::Higher,
        );
        // Parallel speedup only gates when both runs measured it (small
        // hosts carry an explicit skip marker instead of a number).
        let (b, c) = (opt_f64(&base[engine]["parallel_speedup"]), opt_f64(&cur[engine]["parallel_speedup"]));
        if b.is_some() && c.is_some() {
            gate.check(&format!("{engine}.parallel_speedup"), b, c, Better::Higher);
        }
    }
    gate.check(
        "telemetry.on_over_off",
        opt_f64(&base["telemetry"]["on_over_off"]),
        opt_f64(&cur["telemetry"]["on_over_off"]),
        Better::Lower,
    );
    // Serve-engine keys (added with the calendar queue) gate only when
    // both artifacts carry them, so pre-0.8 baselines keep working —
    // and `sweep_parallel_speedup` is additionally absent on small
    // hosts, which carry the explicit skip marker instead.
    for key in ["event_queue_events_per_s", "calendar_over_heap", "sweep_parallel_speedup"] {
        let (b, c) = (opt_f64(&base["serve"][key]), opt_f64(&cur["serve"][key]));
        if b.is_some() && c.is_some() {
            gate.check(&format!("serve.{key}"), b, c, Better::Higher);
        }
    }
}

fn load(path: &str) -> Result<Value, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&raw).map_err(|e| format!("{path} is not valid JSON: {e}"))
}

fn usage() -> &'static str {
    "usage: obs_diff [--threshold F] [--inject-p99 FACTOR] BASELINE.json CURRENT.json\n"
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut threshold = 0.10f64;
    let mut inject_p99 = 1.0f64;
    let mut paths: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threshold" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v >= 0.0 => threshold = v,
                _ => {
                    eprintln!("obs_diff: --threshold requires a non-negative number");
                    return ExitCode::from(2);
                }
            },
            "--inject-p99" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v > 0.0 => inject_p99 = v,
                _ => {
                    eprintln!("obs_diff: --inject-p99 requires a positive factor");
                    return ExitCode::from(2);
                }
            },
            "-h" | "--help" => {
                print!("{}", usage());
                return ExitCode::SUCCESS;
            }
            p => paths.push(p),
        }
    }
    let [base_path, cur_path] = paths[..] else {
        eprint!("{}", usage());
        return ExitCode::from(2);
    };
    let (base, cur) = match (load(base_path), load(cur_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("obs_diff: {e}");
            return ExitCode::from(2);
        }
    };

    let mut gate = Gate::new(threshold);
    let kind = if base["report"].as_str() == Some("inca-lint") {
        if cur["report"].as_str() != Some("inca-lint") {
            eprintln!("obs_diff: artifacts disagree on report kind");
            return ExitCode::from(2);
        }
        diff_lint(&base, &cur, &mut gate);
        "lint report"
    } else if base["report"].as_str().is_some() && base["backends"].as_array().is_some() {
        if cur["report"].as_str() != base["report"].as_str() {
            eprintln!("obs_diff: artifacts disagree on report kind");
            return ExitCode::from(2);
        }
        diff_serve(&base, &cur, &mut gate, inject_p99);
        "serve report"
    } else if base["benchmark"].as_str().is_some() {
        if cur["benchmark"].as_str() != base["benchmark"].as_str() {
            eprintln!("obs_diff: artifacts disagree on benchmark kind");
            return ExitCode::from(2);
        }
        diff_bench(&base, &cur, &mut gate);
        "bench artifact"
    } else {
        eprintln!("obs_diff: {base_path} is neither a serve report nor a bench artifact");
        return ExitCode::from(2);
    };

    if gate.compared == 0 {
        eprintln!("obs_diff: no comparable metrics found in {kind}");
        return ExitCode::from(2);
    }
    if gate.failures > 0 {
        eprintln!(
            "obs_diff: FAIL {} of {} {kind} metrics regressed past {:.0}%",
            gate.failures,
            gate.compared,
            threshold * 100.0
        );
        ExitCode::FAILURE
    } else {
        eprintln!("obs_diff: PASS all {} {kind} metrics within {:.0}%", gate.compared, threshold * 100.0);
        ExitCode::SUCCESS
    }
}
