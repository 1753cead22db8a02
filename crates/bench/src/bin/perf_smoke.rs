//! CI perf smoke test: reads the `BENCH_hw_exec.json` artifact (written
//! by the `hw_exec` bench) and asserts the two performance claims of the
//! packed read path hold on the machine that produced it:
//!
//! 1. packed window reads are at least 10x faster than the scalar
//!    byte-loop reference on both single-sample workloads:
//!    `hw_conv` (3×3, whose reads the 4-bit ADC never saturates, so the
//!    packed path is one integer dot product per window) and
//!    `hw_conv_saturating` (5×5, whose reads can saturate, so the packed
//!    path is the bit-serial `and_popcount_accumulate` loop). On a
//!    2-vCPU x86-64 host, with every forward programming its input, the
//!    integer path measured ~850x and the bit-serial loop ~89x on the
//!    5×5 layer with AVX2. On a 3×3 layer the bit-serial loop — one
//!    compact word per window read — measured ~70x with AVX2 and ~26x
//!    with dispatch forced to the portable loop;
//!    the tiled-mask layout it replaced measured 6x, so falling back to
//!    that layout fails on either dispatch level,
//! 2. on hosts with at least 4 threads, the parallel schedule beats the
//!    sequential one by ≥ 3x for **both** conv engines, and the figure
//!    was measured honestly: `host_threads ≥ par_workers`, never
//!    timesliced. On smaller hosts the artifact must carry the explicit
//!    `"parallel": {"skipped": "host_threads < 4"}` marker instead of a
//!    number, and this gate reports a loud SKIP rather than silently
//!    passing,
//! 3. recording telemetry costs less than 1.5x on the packed path —
//!    coalescing each forward's reads into four `record()` calls retired
//!    the 1.69x overhead the per-read scheme used to pay.
//!
//! It also measures the serving simulator in-process (wall-clock numbers
//! never enter `SERVE_report.json`, which must stay byte-reproducible,
//! so the perf gates live here instead):
//!
//! 4. the discrete-event engine sustains at least 5M events/second of
//!    schedule/pop churn — the calendar-queue floor; the old binary heap
//!    cleared 1M, the bucket queue measures well past 5M in release,
//! 5. telemetry on vs off (inside vs outside a capture) changes serving
//!    throughput by less than 1.5x,
//! 6. on hosts with at least 4 threads, fanning the sweep's point grid
//!    across 4 workers beats the sequential sweep by ≥ 2x wall-clock.
//!    Smaller hosts get a loud SKIP — an oversubscribed speedup is
//!    noise, not data (same refusal rule as gate 2),
//! 7. the network-enabled fleet engine — compute events interleaved with
//!    per-packet hop/ack events over the fat-tree fabric — sustains at
//!    least 2M events/second end to end (cost-model warmup excluded),
//! 8. observing a run under every instrument costs less than 4x the plain
//!    run: median-of-3 wall time of `run_point_observed(ObsConfig::full())`
//!    over `run_point_with_costs` on a fresh cost model, on the ledger's
//!    observed configuration (bursty MMPP arrivals, `queue_cap` 512,
//!    200,000 requests). On a 2-vCPU x86-64 host the trace writer that
//!    appends each event in place measured 2.2–3.3x; the one that
//!    formatted a `String` per event and copied them all at the end
//!    measured 6.9–7.1x.
//!
//! Exits non-zero with a diagnostic if any bound is violated, so a perf
//! regression fails the pipeline instead of silently shipping.

use inca_serve::{
    run_fleet_point_with_costs, run_point_observed, run_point_with_costs, run_sweep, ArrivalKind,
    BackendKind, CostCache, EventQueue, FleetConfig, ObsConfig, ServeConfig, SweepConfig,
};
use std::process::ExitCode;
use std::time::Instant;

/// Events/second through the future-event list under interleaved
/// schedule/pop churn (the serving hot loop).
fn event_engine_events_per_s() -> f64 {
    let start = Instant::now();
    let mut processed = 0u64;
    for _ in 0..64 {
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..4096u64 {
            q.schedule(q.now() + 1 + (i * 2_654_435_761) % 1000, i);
            if i % 2 == 0 {
                let _ = q.pop();
            }
        }
        while q.pop().is_some() {}
        processed += q.processed();
    }
    processed as f64 / start.elapsed().as_secs_f64()
}

/// Wall time of one full load sweep at the worker count in `cfg`.
fn sweep_secs(cfg: &SweepConfig) -> f64 {
    let start = Instant::now();
    let report = run_sweep(cfg);
    assert!(!report.backends.is_empty());
    start.elapsed().as_secs_f64()
}

/// Events/second through the network-enabled fleet engine: one fleet
/// point on the paper fat-tree, every request/response/weight transfer
/// a packetized flow. The cost cache is warmed by the caller so only
/// event processing is on the clock.
fn fleet_engine_events_per_s(cache: &mut CostCache) -> f64 {
    let mut cfg = FleetConfig::default_fleet(BackendKind::Inca, 40_000.0);
    cfg.requests = 5000;
    let start = Instant::now();
    let run = run_fleet_point_with_costs(&cfg, cache).run;
    let secs = start.elapsed().as_secs_f64();
    assert!(!run.completed.is_empty());
    run.events as f64 / secs
}

/// Wall time of one serving point with pre-warmed costs.
fn serve_point_secs(cfg: &ServeConfig, cache: &mut CostCache) -> f64 {
    let start = Instant::now();
    let run = run_point_with_costs(cfg, cache);
    assert!(!run.completed.is_empty());
    start.elapsed().as_secs_f64()
}

/// Observed over plain wall time on the ledger's observed configuration:
/// an INCA fleet whose MMPP burst state sits far past capacity, so queues
/// deepen, requests shed and every trace event kind is emitted. Each run
/// builds its own cost model, as `run_point_observed` does; the two kinds
/// of run alternate, and each side takes its median of 3.
fn observed_over_plain() -> f64 {
    let mut cfg = ServeConfig::default_fleet(BackendKind::Inca, 0.0);
    cfg.arrivals = ArrivalKind::Mmpp { rate_hi: 400_000.0, rate_lo: 200.0, mean_dwell_s: 0.05 };
    cfg.queue_cap = 512;
    cfg.seed = 2026;
    cfg.requests = 200_000;
    let obs = ObsConfig::full();
    let (mut plain, mut observed) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let start = Instant::now();
        let run = run_point_with_costs(&cfg, &mut CostCache::new(cfg.backend, &cfg.mix));
        plain.push(start.elapsed().as_secs_f64());
        assert!(!run.completed.is_empty());
        let start = Instant::now();
        let (run, out) = run_point_observed(&cfg, &obs);
        observed.push(start.elapsed().as_secs_f64());
        assert!(!run.completed.is_empty() && out.trace_json.is_some());
    }
    plain.sort_by(f64::total_cmp);
    observed.sort_by(f64::total_cmp);
    observed[1] / plain[1]
}

fn main() -> ExitCode {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hw_exec.json");
    let raw = match std::fs::read_to_string(path) {
        Ok(raw) => raw,
        Err(e) => {
            eprintln!("perf_smoke: cannot read {path}: {e}");
            eprintln!("perf_smoke: run `cargo bench -p inca-bench --bench hw_exec` first");
            return ExitCode::FAILURE;
        }
    };
    let artifact: serde_json::Value = match serde_json::from_str(&raw) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perf_smoke: {path} is not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Missing keys index to `Null`, whose `as_f64()` is `None`.
    let Some(on_over_off) = artifact["telemetry"]["on_over_off"].as_f64() else {
        eprintln!("perf_smoke: telemetry.on_over_off missing from {path}");
        return ExitCode::FAILURE;
    };

    let mut failed = false;
    for engine in ["hw_conv", "hw_conv_saturating"] {
        let Some(packed_over_scalar) = artifact[engine]["packed_over_scalar"].as_f64() else {
            eprintln!("perf_smoke: {engine}.packed_over_scalar missing from {path} (stale artifact?)");
            return ExitCode::FAILURE;
        };
        if packed_over_scalar < 10.0 {
            eprintln!(
                "perf_smoke: FAIL {engine}.packed_over_scalar = {packed_over_scalar:.2} < 10.0 — \
                 the packed read path lost its advantage over the per-cell reads"
            );
            failed = true;
        } else {
            eprintln!("perf_smoke: ok {engine}.packed_over_scalar = {packed_over_scalar:.2} (>= 10.0)");
        }
    }

    // Parallel-schedule gate. Engines publishing a speedup must have
    // measured it on a host that could really run the workers
    // concurrently; engines skipping must say so explicitly.
    let host_threads = artifact["host_threads"].as_u64().unwrap_or(0);
    let par_workers = artifact["par_workers"].as_u64().unwrap_or(0);
    for engine in ["hw_conv", "hw_batch_conv"] {
        match artifact[engine]["parallel_speedup"].as_f64() {
            Some(speedup) => {
                if host_threads < 4 {
                    eprintln!(
                        "perf_smoke: FAIL {engine}.parallel_speedup published with host_threads = \
                         {host_threads} < 4 — the bench must skip, not publish, undersized hosts"
                    );
                    failed = true;
                } else if par_workers > host_threads {
                    eprintln!(
                        "perf_smoke: FAIL {engine}.parallel_speedup measured oversubscribed \
                         (par_workers {par_workers} > host_threads {host_threads}) — \
                         a timesliced speedup is noise, not data"
                    );
                    failed = true;
                } else if speedup < 3.0 {
                    eprintln!(
                        "perf_smoke: FAIL {engine}.parallel_speedup = {speedup:.2} < 3.0 — \
                         the parallel schedule is not earning its threads"
                    );
                    failed = true;
                } else {
                    eprintln!(
                        "perf_smoke: ok {engine}.parallel_speedup = {speedup:.2} \
                         (>= 3.0, {par_workers} workers on {host_threads} host threads)"
                    );
                }
            }
            None => {
                if artifact[engine]["parallel"]["skipped"].as_str().is_some() && host_threads < 4 {
                    eprintln!(
                        "perf_smoke: SKIP {engine} parallel gate — host_threads = {host_threads} < 4; \
                         artifact carries the explicit skip marker, no oversubscribed number published"
                    );
                } else {
                    eprintln!(
                        "perf_smoke: FAIL {engine} has neither parallel_speedup nor a valid \
                         skip marker (stale artifact?)"
                    );
                    failed = true;
                }
            }
        }
    }
    if on_over_off >= 1.5 {
        eprintln!(
            "perf_smoke: FAIL telemetry on_over_off = {on_over_off:.3} >= 1.5 — \
             coalesced recording regressed toward the old 1.69x per-read overhead"
        );
        failed = true;
    } else {
        eprintln!("perf_smoke: ok telemetry on_over_off = {on_over_off:.3} (< 1.5)");
    }
    let events_per_s = event_engine_events_per_s();
    if events_per_s < 5e6 {
        eprintln!(
            "perf_smoke: FAIL event engine {events_per_s:.0} events/s < 5e6 — \
             the calendar queue lost its O(1) bucket discipline"
        );
        failed = true;
    } else {
        eprintln!("perf_smoke: ok event engine {:.1}M events/s (>= 5M)", events_per_s / 1e6);
    }

    // Fleet-network gate: splicing per-packet fabric events into the
    // serving loop must not sink the engine below 2M events/s.
    {
        let cfg = FleetConfig::default_fleet(BackendKind::Inca, 40_000.0);
        let mut cache = CostCache::new(cfg.backend, &cfg.mix);
        let _warm = fleet_engine_events_per_s(&mut cache); // warm costs + touch memory
        let fleet_events_per_s = (0..3).map(|_| fleet_engine_events_per_s(&mut cache)).fold(0.0, f64::max);
        if fleet_events_per_s < 2e6 {
            eprintln!(
                "perf_smoke: FAIL fleet engine {fleet_events_per_s:.0} events/s < 2e6 — \
                 the network event path is too heavy for the serving loop"
            );
            failed = true;
        } else {
            eprintln!(
                "perf_smoke: ok fleet engine {:.1}M events/s (>= 2M, network enabled)",
                fleet_events_per_s / 1e6
            );
        }
    }

    // Parallel-sweep gate: the point fan-out must buy real wall-clock.
    // Measured in-process (wall times never enter SERVE_report.json,
    // which stays byte-reproducible) and only on hosts that can really
    // run 4 workers concurrently — never timesliced.
    let live_threads = std::thread::available_parallelism().map_or(1, usize::from);
    if live_threads < 4 {
        eprintln!(
            "perf_smoke: SKIP parallel-sweep gate — host_threads = {live_threads} < 4; \
             refusing to publish an oversubscribed speedup"
        );
    } else {
        let mut sweep_cfg = SweepConfig { requests_per_point: 4000, ..SweepConfig::quick() };
        sweep_cfg.workers = 1;
        let seq = (0..2).map(|_| sweep_secs(&sweep_cfg)).fold(f64::INFINITY, f64::min);
        sweep_cfg.workers = 4; // <= live_threads by the guard above
        let par = (0..2).map(|_| sweep_secs(&sweep_cfg)).fold(f64::INFINITY, f64::min);
        let speedup = seq / par;
        if speedup < 2.0 {
            eprintln!(
                "perf_smoke: FAIL parallel sweep speedup = {speedup:.2} < 2.0 \
                 (seq {seq:.3}s vs {par:.3}s on 4 workers) — \
                 the point fan-out is not earning its threads"
            );
            failed = true;
        } else {
            eprintln!(
                "perf_smoke: ok parallel sweep speedup = {speedup:.2} \
                 (>= 2.0, 4 workers on {live_threads} host threads)"
            );
        }
    }

    // Serving telemetry overhead: median-of-3 wall times, costs warmed.
    let mut cfg = ServeConfig::default_fleet(BackendKind::Inca, 400.0);
    cfg.requests = 50_000;
    let mut cache = CostCache::new(cfg.backend, &cfg.mix);
    let _warm = serve_point_secs(&cfg, &mut cache);
    let median = |cfg: &ServeConfig, cache: &mut CostCache| {
        let mut t: Vec<f64> = (0..3).map(|_| serve_point_secs(cfg, cache)).collect();
        t.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
        t[1]
    };
    let off = median(&cfg, &mut cache);
    let (on, _) = inca_telemetry::capture(|| median(&cfg, &mut cache));
    let serve_on_over_off = on / off;
    if serve_on_over_off >= 1.5 {
        eprintln!(
            "perf_smoke: FAIL serve telemetry on_over_off = {serve_on_over_off:.3} >= 1.5 — \
             per-request counters are too hot for the serving loop"
        );
        failed = true;
    } else {
        eprintln!("perf_smoke: ok serve telemetry on_over_off = {serve_on_over_off:.3} (< 1.5)");
    }

    // Observability overhead: tracing, sampling and SLO monitoring.
    let observed = observed_over_plain();
    if observed >= 4.0 {
        eprintln!(
            "perf_smoke: FAIL observed serving = {observed:.2}x the plain run >= 4.0 — \
             the observability hooks are too heavy to observe a run routinely"
        );
        failed = true;
    } else {
        eprintln!("perf_smoke: ok observed serving = {observed:.2}x the plain run (< 4.0)");
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
