//! Experiment harness and benchmarks reproducing every table and figure of
//! the INCA paper.
//!
//! The `experiments` binary regenerates each artifact:
//!
//! ```text
//! cargo run -p inca-bench --bin experiments -- all        # every artifact (quick ML settings)
//! cargo run -p inca-bench --bin experiments -- fig11 fig14
//! cargo run -p inca-bench --bin experiments -- --full table6
//! cargo run -p inca-bench --bin experiments -- --json out.json all
//! ```
//!
//! The Criterion benches (`cargo bench -p inca-bench`) time the analytic
//! experiments and the core simulation kernels.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use inca_core::{Experiment, ExperimentOpts, ExperimentResult};
use inca_serve::{
    ns_to_ms, run_fleet_sweep, run_point_observed, run_sweep, ArrivalKind, BackendKind, FleetSweepConfig,
    ObsConfig, ServeConfig, SweepConfig,
};
use serde_json::json;

/// Identifier of the serving sweep. It is not a paper artifact, so it
/// lives beside the `Experiment` registry rather than in it (keeping
/// `inca-core` independent of the serving layer).
pub const SERVE_ID: &str = "serve";

/// Title of the serving sweep, for listings.
pub(crate) const SERVE_TITLE: &str =
    "Serving: p99 latency vs offered load, INCA vs WS vs GPU fleets (writes SERVE_report.json)";

/// Identifier of the fleet-scale network sweep.
pub const NET_ID: &str = "net";

/// Title of the fleet-scale network sweep, for listings.
pub(crate) const NET_TITLE: &str = "Fleet: sustainable rps per rack under the p99 SLO, INCA vs WS on a fat-tree fabric with DCTCP flows (writes NET_report.json)";

/// Identifier of the observability run.
pub(crate) const OBS_ID: &str = "obs";

/// Title of the observability run, for listings.
pub(crate) const OBS_TITLE: &str = "Observability: traced bursty INCA serving run with time-series sampling and SLO burn-rate monitoring (writes OBS_trace.json + OBS_timeseries.json)";

/// Runs the serving sweep: a Poisson request stream over multi-chip
/// fleets of all three backends, reported as the latency-vs-load table
/// behind `SERVE_report.json`.
#[must_use]
pub(crate) fn serve_experiment(opts: &ExperimentOpts) -> ExperimentResult {
    let cfg = if opts.quick { SweepConfig::quick() } else { SweepConfig::full() };
    let report = run_sweep(&cfg);
    ExperimentResult {
        id: SERVE_ID.to_string(),
        title: SERVE_TITLE.to_string(),
        text: report.text_table(),
        data: report.to_json(),
    }
}

/// Runs the fleet sweep: the serving traffic of [`serve_experiment`]
/// pushed through the `inca-net` datacenter fabric — every dispatch,
/// response, and weight transfer a DCTCP flow — reported as the
/// sustainable-rps-per-rack table behind `NET_report.json`.
#[must_use]
pub(crate) fn net_experiment(opts: &ExperimentOpts) -> ExperimentResult {
    let cfg = if opts.quick { FleetSweepConfig::quick() } else { FleetSweepConfig::full() };
    let report = run_fleet_sweep(&cfg);
    ExperimentResult {
        id: NET_ID.to_string(),
        title: NET_TITLE.to_string(),
        text: report.text_table(),
        data: report.to_json(),
    }
}

/// The two observability artifacts of one traced serving run, ready to
/// land as `OBS_trace.json` and `OBS_timeseries.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsArtifacts {
    /// Chrome trace-event JSON (`OBS_trace.json`).
    pub trace_json: String,
    /// Columnar time-series + latency histogram + SLO verdicts
    /// (`OBS_timeseries.json`).
    pub timeseries_json: String,
}

/// The serving configuration the observability run traces: an INCA
/// fleet under a bursty MMPP arrival process whose burst state sits far
/// past capacity, so the run exercises every instrument — deep queues,
/// shedding, reprogram churn, and SLO burn.
#[must_use]
fn obs_config(opts: &ExperimentOpts) -> ServeConfig {
    let mut cfg = ServeConfig::default_fleet(BackendKind::Inca, 0.0);
    cfg.arrivals = ArrivalKind::Mmpp { rate_hi: 400_000.0, rate_lo: 200.0, mean_dwell_s: 0.05 };
    cfg.queue_cap = 512;
    cfg.seed = 0x0B5_CAFE;
    cfg.requests = if opts.quick { 2500 } else { 10_000 };
    cfg
}

/// Runs the observability experiment: one fully instrumented bursty
/// serving run, summarized as a report plus the two `OBS_*` artifacts.
#[must_use]
pub(crate) fn obs_experiment(opts: &ExperimentOpts) -> (ExperimentResult, ObsArtifacts) {
    let cfg = obs_config(opts);
    let obs = ObsConfig::full();
    let (run, out) = run_point_observed(&cfg, &obs);
    let samples = out.timeseries.as_ref().map_or(0, inca_telemetry::TimeSeries::len);
    let p50_ms = out.latency_hist.quantile(0.50).map(ns_to_ms);
    let p99_ms = out.latency_hist.quantile(0.99).map(ns_to_ms);
    let fmt_opt = |v: Option<f64>| v.map_or_else(|| "n/a".to_owned(), |x| format!("{x:.2}"));
    let mut text = format!(
        "bursty INCA run: {} completed, {} shed, {} switches over {:.2}s of virtual time\n\
         p50 {} ms, p99 {} ms ({} samples in {} time-series rows)\n",
        run.completed.len(),
        run.shed,
        run.switches,
        run.makespan_ns as f64 / 1e9,
        fmt_opt(p50_ms),
        fmt_opt(p99_ms),
        out.latency_hist.count(),
        samples,
    );
    if out.violations.is_empty() {
        text.push_str("SLO: no burn-rate violations\n");
    } else {
        text.push_str(&format!("SLO: {} burn-rate violation window(s)\n", out.violations.len()));
        for v in &out.violations {
            text.push_str(&format!(
                "  [{:.3}s .. {:.3}s] peak burn {:.1}x, {} breaches\n",
                v.start_ns as f64 / 1e9,
                v.end_ns as f64 / 1e9,
                v.peak_burn,
                v.breaches
            ));
        }
    }
    let result = ExperimentResult {
        id: OBS_ID.to_string(),
        title: OBS_TITLE.to_string(),
        text,
        data: json!({
            "completed": run.completed.len() as u64,
            "shed": run.shed,
            "switches": run.switches,
            "makespan_ns": run.makespan_ns,
            "p50_ms": p50_ms,
            "p99_ms": p99_ms,
            "timeseries_rows": samples as u64,
            "slo_violations": out.violations.len() as u64,
        }),
    };
    let timeseries_json = out.timeseries_json();
    let artifacts = ObsArtifacts { trace_json: out.trace_json.unwrap_or_default(), timeseries_json };
    (result, artifacts)
}

/// Everything one harness invocation produced: the experiment results in
/// request order, plus the observability artifacts when the `obs` run
/// was among them.
#[derive(Debug)]
pub struct RunOutput {
    /// One result per requested experiment, in order.
    pub results: Vec<ExperimentResult>,
    /// `OBS_*` artifact payloads, when the `obs` experiment ran.
    pub obs: Option<ObsArtifacts>,
}

/// Runs a list of experiment ids (or all of them for `"all"`), returning
/// the results in order, plus the observability artifacts so the
/// binary can write `OBS_trace.json` / `OBS_timeseries.json`.
///
/// # Errors
///
/// Returns the offending id when it is unknown.
pub fn run_ids_full<'a>(
    ids: impl IntoIterator<Item = &'a str>,
    opts: &ExperimentOpts,
) -> Result<RunOutput, String> {
    let mut out = RunOutput { results: Vec::new(), obs: None };
    let run_obs = |out: &mut RunOutput| {
        let (result, artifacts) = obs_experiment(opts);
        out.results.push(result);
        out.obs = Some(artifacts);
    };
    for id in ids {
        if id == "all" {
            for e in Experiment::all() {
                out.results.push(e.run(opts));
            }
            out.results.push(serve_experiment(opts));
            out.results.push(net_experiment(opts));
            run_obs(&mut out);
        } else if id == SERVE_ID {
            out.results.push(serve_experiment(opts));
        } else if id == NET_ID {
            out.results.push(net_experiment(opts));
        } else if id == OBS_ID {
            run_obs(&mut out);
        } else {
            let e = Experiment::from_id(id).ok_or_else(|| id.to_string())?;
            out.results.push(e.run(opts));
        }
    }
    Ok(out)
}

/// The `--list` output: every runnable experiment id with its
/// description, one per line.
#[must_use]
pub fn list_text() -> String {
    let mut s = String::new();
    for e in Experiment::all() {
        s.push_str(&format!("{:<22} {}\n", e.id(), e.title()));
    }
    s.push_str(&format!("{SERVE_ID:<22} {SERVE_TITLE}\n"));
    s.push_str(&format!("{NET_ID:<22} {NET_TITLE}\n"));
    s.push_str(&format!("{OBS_ID:<22} {OBS_TITLE}\n"));
    s
}

/// The usage string of the experiments binary.
#[must_use]
pub fn usage() -> String {
    let mut s = String::from(
        "usage: experiments [--full] [--json PATH] <id>... | all\n       experiments --list | list\n\navailable experiments:\n",
    );
    for line in list_text().lines() {
        s.push_str("  ");
        s.push_str(line);
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_single_id() {
        let r = run_ids_full(["table5"], &ExperimentOpts { quick: true }).unwrap().results;
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].id, "table5");
    }

    #[test]
    fn unknown_id_is_reported() {
        let err = run_ids_full(["fig99"], &ExperimentOpts { quick: true }).unwrap_err();
        assert_eq!(err, "fig99");
    }

    #[test]
    fn usage_lists_everything() {
        let u = usage();
        for e in Experiment::all() {
            assert!(u.contains(e.id()), "{} missing from usage", e.id());
        }
        assert!(u.contains(SERVE_ID), "serve missing from usage");
        assert!(u.contains(NET_TITLE), "net missing from usage");
    }

    #[test]
    fn list_has_one_line_per_experiment() {
        let l = list_text();
        assert_eq!(l.lines().count(), Experiment::all().len() + 3);
        assert!(l.lines().all(|line| line.split_whitespace().count() >= 2));
    }

    #[test]
    fn obs_runs_through_the_harness_with_artifacts() {
        let out = run_ids_full([OBS_ID], &ExperimentOpts { quick: true }).unwrap();
        assert_eq!(out.results.len(), 1);
        assert_eq!(out.results[0].id, OBS_ID);
        let artifacts = out.obs.expect("obs artifacts present");
        assert!(artifacts.trace_json.contains("\"queue_wait\""));
        assert!(artifacts.timeseries_json.contains("\"latency_hist_ns\""));
        // The bursty overload profile must actually trip the monitor —
        // an obs artifact with nothing to show would gate nothing in CI.
        assert!(out.results[0].data["slo_violations"].as_u64().unwrap() > 0);
        assert!(out.results[0].data["shed"].as_u64().unwrap() > 0);
    }

    #[test]
    fn obs_artifacts_are_byte_reproducible() {
        let opts = ExperimentOpts { quick: true };
        let (_, a) = obs_experiment(&opts);
        let (_, b) = obs_experiment(&opts);
        assert_eq!(a, b);
    }

    #[test]
    fn serve_runs_through_the_harness() {
        let r = run_ids_full([SERVE_ID], &ExperimentOpts { quick: true }).unwrap().results;
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].id, SERVE_ID);
        assert!(r[0].text.contains("-- inca"));
        assert!(r[0].data["backends"].as_array().is_some_and(|b| b.len() == 3));
    }

    #[test]
    fn net_runs_through_the_harness() {
        let r = run_ids_full([NET_ID], &ExperimentOpts { quick: true }).unwrap().results;
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].id, NET_ID);
        assert!(r[0].text.contains("-- inca"));
        // The paper fleet: ≥128 chips behind the dispatchers on the
        // fat-tree, INCA vs WS.
        assert!(r[0].data["chips"].as_u64().is_some_and(|c| c >= 128));
        assert!(r[0].data["backends"].as_array().is_some_and(|b| b.len() == 2));
        // The headline must be present and INCA must beat WS per rack.
        let per_rack = |i: usize| r[0].data["backends"][i]["sustainable_rps_per_rack"].as_f64().unwrap();
        assert!(per_rack(0) > per_rack(1), "inca {} vs ws {}", per_rack(0), per_rack(1));
    }
}
