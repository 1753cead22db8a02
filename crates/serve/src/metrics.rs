//! Serving metrics: latency percentiles, throughput, energy per request
//! and batch-size statistics, summarized per offered-load point.
//!
//! Latency percentiles come from a deterministic log-linear histogram
//! ([`LogLinearHist`]): O(1) per completion instead of a sort per
//! report, bit-reproducible bucket counts, and a quantization error
//! bounded below 0.8 % — far under the sampling noise of any tail
//! percentile. Empty and degenerate inputs are explicit: a point with
//! no completions reports `null` percentiles, never a fabricated zero.

use inca_events::ns_to_ms;
use inca_telemetry::LogLinearHist;
use serde_json::{json, Value};

use crate::engine::RunResult;

/// One offered-load point, summarized for the report.
#[derive(Debug, Clone, PartialEq)]
pub struct PointSummary {
    /// Offered load in requests/second.
    pub offered_rps: f64,
    /// Requests offered to the fleet.
    pub offered: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Completed throughput, requests/second of virtual time.
    pub throughput_rps: f64,
    /// Median end-to-end latency, ms (`None` when nothing completed).
    pub p50_ms: Option<f64>,
    /// 95th-percentile latency, ms (`None` when nothing completed).
    pub p95_ms: Option<f64>,
    /// 99th-percentile latency, ms (`None` when nothing completed).
    pub p99_ms: Option<f64>,
    /// Mean launched batch size.
    pub mean_batch: f64,
    /// `hist[s]` = batches launched at size `s` (0 unused).
    pub batch_hist: Vec<u64>,
    /// Energy per completed request, millijoules.
    pub energy_per_request_mj: f64,
    /// Mean fleet queue depth seen by arrivals.
    pub mean_queue_depth: f64,
    /// Deepest single-chip queue observed.
    pub max_queue_depth: usize,
    /// Weight re-programming switches across the fleet.
    pub switches: u64,
    /// Engine events processed.
    pub events: u64,
}

impl PointSummary {
    /// Condenses a run at `offered_rps` into report form.
    #[must_use]
    pub fn from_run(offered_rps: f64, run: &RunResult) -> Self {
        let mut lat = LogLinearHist::default_ns();
        for c in &run.completed {
            lat.record(c.latency_ns());
        }
        Self {
            offered_rps,
            offered: run.offered,
            completed: run.completed.len() as u64,
            shed: run.shed,
            throughput_rps: run.throughput_rps(),
            p50_ms: lat.quantile(0.50).map(ns_to_ms),
            p95_ms: lat.quantile(0.95).map(ns_to_ms),
            p99_ms: lat.quantile(0.99).map(ns_to_ms),
            mean_batch: run.mean_batch(),
            batch_hist: run.batch_hist.clone(),
            energy_per_request_mj: run.energy_per_request_j().millijoules(),
            mean_queue_depth: run.mean_queue_depth(),
            max_queue_depth: run.max_queue_depth,
            switches: run.switches,
            events: run.events,
        }
    }

    /// JSON form for `SERVE_report.json`. Missing percentiles (a point
    /// where nothing completed) serialize as `null`.
    #[must_use]
    pub fn to_json(&self) -> Value {
        // The histogram is emitted sparsely (size -> count) to keep the
        // report readable at max_batch = 64.
        let hist: Vec<Value> = self
            .batch_hist
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(s, &n)| json!([s as u64, n]))
            .collect();
        json!({
            "offered_rps": self.offered_rps,
            "offered": self.offered,
            "completed": self.completed,
            "shed": self.shed,
            "throughput_rps": self.throughput_rps,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "mean_batch": self.mean_batch,
            "batch_hist": Value::Array(hist),
            "energy_per_request_mj": self.energy_per_request_mj,
            "mean_queue_depth": self.mean_queue_depth,
            "max_queue_depth": self.max_queue_depth as u64,
            "switches": self.switches,
            "events": self.events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inca_units::Energy;

    /// Nearest-rank percentile over a sorted slice: the exact reference
    /// the report's histogram quantiles are checked against. Returns
    /// `None` for an empty slice: "no data" is not "zero latency".
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    fn percentile_ns(sorted: &[u64], p: f64) -> Option<u64> {
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        if sorted.is_empty() {
            return None;
        }
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        Some(sorted[rank.clamp(1, sorted.len()) - 1])
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_ns(&v, 50.0), Some(50));
        assert_eq!(percentile_ns(&v, 99.0), Some(99));
        assert_eq!(percentile_ns(&v, 100.0), Some(100));
        assert_eq!(percentile_ns(&v, 0.0), Some(1));
    }

    #[test]
    fn empty_input_is_explicitly_none() {
        assert_eq!(percentile_ns(&[], 50.0), None);
        assert_eq!(percentile_ns(&[], 0.0), None);
        assert_eq!(percentile_ns(&[], 100.0), None);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(percentile_ns(&[42], p), Some(42));
        }
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn out_of_range_percentile_panics() {
        let _ = percentile_ns(&[1], 101.0);
    }

    fn empty_run() -> RunResult {
        RunResult {
            completed: Vec::new(),
            shed: 5,
            makespan_ns: 0,
            energy_j: Energy::ZERO,
            batch_hist: vec![0; 65],
            switches: 0,
            events: 10,
            queue_depth_sum: 0,
            max_queue_depth: 0,
            offered: 5,
        }
    }

    #[test]
    fn summary_of_empty_run_has_null_percentiles() {
        let s = PointSummary::from_run(100.0, &empty_run());
        assert_eq!(s.p50_ms, None);
        assert_eq!(s.p95_ms, None);
        assert_eq!(s.p99_ms, None);
        let json = s.to_json();
        assert!(json["p50_ms"].is_null());
        assert!(json["p99_ms"].is_null());
        // A shed-only point still reports its shed count.
        assert_eq!(json["shed"].as_u64(), Some(5));
    }

    #[test]
    fn histogram_percentiles_match_exact_within_error_bound() {
        use crate::engine::CompletedRequest;
        let mut run = empty_run();
        for i in 0..500u64 {
            let latency = 1_000_000 + i * 37_123; // 1.0 .. ~19.6 ms spread
            run.completed.push(CompletedRequest {
                id: i,
                model_idx: 0,
                arrival_ns: 0,
                done_ns: latency,
                batch_size: 1,
                service_ns: latency,
            });
        }
        run.makespan_ns = run.completed.last().unwrap().done_ns;
        let s = PointSummary::from_run(100.0, &run);
        let mut sorted: Vec<u64> = run.completed.iter().map(|c| c.latency_ns()).collect();
        sorted.sort_unstable();
        for (est_ms, p) in [(s.p50_ms, 50.0), (s.p95_ms, 95.0), (s.p99_ms, 99.0)] {
            let exact_ms = ns_to_ms(percentile_ns(&sorted, p).unwrap());
            let est_ms = est_ms.unwrap();
            assert!(est_ms >= exact_ms, "p{p}: {est_ms} under exact {exact_ms}");
            assert!(est_ms <= exact_ms * 1.008, "p{p}: {est_ms} over bound vs {exact_ms}");
        }
    }
}
