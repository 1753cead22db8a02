//! Observability guardrails: recording must not perturb the engine,
//! exported artifacts must be byte-reproducible, and the SLO monitor
//! must fire exactly when the load it watches goes bad.

use inca_serve::{
    run_point, run_point_observed, ArrivalKind, BackendKind, ObsConfig, ServeConfig, SloPolicy,
};

fn base_cfg(rate_rps: f64, requests: u64) -> ServeConfig {
    let mut cfg = ServeConfig::default_fleet(BackendKind::Inca, rate_rps);
    cfg.requests = requests;
    cfg
}

#[test]
fn observed_run_result_is_identical_to_unobserved() {
    let cfg = base_cfg(3000.0, 600);
    let plain = run_point(&cfg);
    let (observed, out) = run_point_observed(&cfg, &ObsConfig::full());
    assert_eq!(plain, observed, "observability perturbed the engine");
    // And the recorder actually saw the run.
    assert_eq!(out.latency_hist.count(), plain.completed.len() as u64);
    assert!(out.trace_json.is_some());
    assert!(out.timeseries.is_some());
}

#[test]
fn disabled_observer_is_equivalent_to_none() {
    let cfg = base_cfg(2000.0, 400);
    let plain = run_point(&cfg);
    let (observed, out) =
        run_point_observed(&cfg, &ObsConfig { trace: false, sample_interval_ns: 0, slo: None });
    assert_eq!(plain, observed);
    assert!(out.trace_json.is_none());
    assert!(out.timeseries.is_none());
    assert!(out.violations.is_empty());
}

#[test]
fn artifacts_are_byte_reproducible() {
    let cfg = base_cfg(4000.0, 800);
    let obs = ObsConfig::full();
    let (_, a) = run_point_observed(&cfg, &obs);
    let (_, b) = run_point_observed(&cfg, &obs);
    assert_eq!(a.trace_json, b.trace_json, "trace bytes drifted between runs");
    assert_eq!(a.timeseries_json(), b.timeseries_json(), "timeseries bytes drifted");
    assert_eq!(a.violations, b.violations);
}

#[test]
fn trace_covers_every_span_kind() {
    // Round-robin over the full mix forces reprogram switches; high
    // load with a small queue cap forces sheds.
    let mut cfg = base_cfg(200_000.0, 1500);
    cfg.policy = inca_serve::DispatchPolicy::RoundRobin;
    cfg.queue_cap = 64;
    let (run, out) = run_point_observed(&cfg, &ObsConfig::full());
    assert!(run.shed > 0, "load too low to exercise shedding");
    assert!(run.switches > 0, "no reprogram churn to trace");
    let trace = out.trace_json.unwrap();
    for needle in
        ["\"queue_wait\"", "\"batch_fill\"", "\"reprogram\"", "\"compute\"", "\"response\"", "\"shed\""]
    {
        assert!(trace.contains(needle), "trace missing {needle}");
    }
    // The whole log parses as one JSON document.
    let parsed = serde_json::from_str(&trace).expect("trace is valid JSON");
    assert!(parsed["traceEvents"].as_array().unwrap().len() > 100);
}

#[test]
fn sampler_rows_are_on_grid_and_utilization_bounded() {
    let cfg = base_cfg(5000.0, 1000);
    let obs = ObsConfig { trace: false, sample_interval_ns: 5_000_000, slo: None };
    let (run, out) = run_point_observed(&cfg, &obs);
    let ts = out.timeseries.unwrap();
    assert!(!ts.is_empty(), "sampler produced no rows");
    for (i, &t) in ts.times_ns().iter().enumerate() {
        assert_eq!(t, (i as u64 + 1) * 5_000_000, "row {i} off the sampling grid");
    }
    assert!(*ts.times_ns().last().unwrap() <= run.makespan_ns + 5_000_000);
    for c in 0..cfg.chips {
        let util = ts.column(&format!("util_chip{c}")).unwrap();
        assert!(util.iter().all(|&u| (0.0..=1.0).contains(&u)), "chip {c} utilization out of [0,1]");
    }
    // Under sustained load some chip does real work.
    let busy: f64 =
        (0..cfg.chips).map(|c| ts.column(&format!("util_chip{c}")).unwrap().iter().sum::<f64>()).sum();
    assert!(busy > 0.0, "no utilization recorded under load");
}

#[test]
fn slo_monitor_fires_under_overload_and_stays_quiet_when_healthy() {
    let slo = SloPolicy {
        quantile: 0.99,
        target_ms: 1000.0,
        window_ns: 2_000_000_000,
        burn_threshold: 2.0,
        min_samples: 50,
    };
    let obs = ObsConfig { trace: false, sample_interval_ns: 0, slo: Some(slo) };

    // Healthy: far below capacity, tails stay deep under the target.
    let (_, healthy) = run_point_observed(&base_cfg(500.0, 800), &obs);
    assert!(healthy.violations.is_empty(), "false positive: {:?}", healthy.violations);

    // Overloaded: a bursty process way past capacity blows the p99.
    let mut bad = base_cfg(0.0, 2000);
    bad.arrivals = ArrivalKind::Mmpp { rate_hi: 400_000.0, rate_lo: 100.0, mean_dwell_s: 0.05 };
    let (run, out) = run_point_observed(&bad, &obs);
    assert!(!out.violations.is_empty(), "no violation despite overload");
    for v in &out.violations {
        assert!(v.start_ns <= v.end_ns);
        assert!(v.end_ns <= run.makespan_ns);
        assert!(v.peak_burn >= slo.burn_threshold);
    }
    // Violation windows are disjoint and ordered.
    for w in out.violations.windows(2) {
        assert!(w[0].end_ns < w[1].start_ns, "overlapping violation windows");
    }
}

#[test]
fn timeseries_artifact_parses_and_carries_the_histogram() {
    let cfg = base_cfg(3000.0, 500);
    let (run, out) = run_point_observed(&cfg, &ObsConfig::full());
    let json = out.timeseries_json();
    let parsed = serde_json::from_str(&json).expect("artifact is valid JSON");
    assert_eq!(parsed["latency_hist_ns"]["count"].as_u64(), Some(run.completed.len() as u64));
    assert!(parsed["series"]["samples"].as_u64().unwrap() > 0);
    assert!(!parsed["latency_hist_ns"]["buckets"].as_array().unwrap().is_empty());
    assert!(parsed["slo"]["violations"].as_array().is_some());
}
