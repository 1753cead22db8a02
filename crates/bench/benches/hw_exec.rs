//! Reference-vs-fast (and sequential-vs-parallel) benchmark of the
//! hardware-functional execution engine, emitting a machine-readable
//! `BENCH_hw_exec.json` artifact at the workspace root.
//!
//! Three engine sections, all `HwConv`: `hw_conv` (one sample) and
//! `hw_batch_conv` (a batch of 8 on the planes of the 3D stacks) run a 3×3
//! layer, whose reads the 4-bit ADC never saturates, so their fast read
//! is the integer dot product; `hw_conv_saturating` runs a 5×5 layer,
//! whose reads can saturate, so its fast read is the bit-serial
//! `and_popcount_accumulate` loop.
//!
//! Modes per engine, every forward programming its input:
//!
//! * `scalar_seq` — per-cell byte-loop reads
//!   ([`HwConv::forward_reference`]), sequential schedule — the
//!   reference read model,
//! * `seq`        — [`HwConv::forward`], sequential schedule,
//! * `par`        — [`HwConv::forward`], parallel schedule sized by
//!   [`ExecPolicy::parallel`] (clamped to the host).
//!
//! `scalar_seq` and `seq` are timed against each other in alternating
//! blocks of calls, [`ITERS`] pairs of them, and `packed_over_scalar` is
//! the median of the per-pair ratios: one neighbour's burst of load then
//! moves one pair, not the published figure.
//!
//! Honesty rules baked into the artifact: `host_threads` is the
//! machine's actual available parallelism, `par_workers_requested` /
//! `par_workers` are the worker counts the parallel policy asked for and
//! can actually run concurrently, and **no `parallel_speedup` figure is
//! ever published from an oversubscribed run**: on hosts with fewer than
//! 4 threads the parallel mode is not measured at all and each engine
//! section carries `"parallel": {"skipped": "host_threads < 4"}`
//! instead — a speedup measured by timeslicing one core is noise, not
//! data. The `simd` field records which implementation
//! ([`inca_xbar::simd::active_impl`]) both fast reads dispatched to.
//!
//! The `telemetry` section times `hw_conv`'s fast read inside a capture
//! against outside any with the same timer, until each side has run for
//! 100 ms; `on_over_off` is the median of the per-pair ratios.
//!
//! Each mode is timed once, for the artifact: the bench runs under
//! criterion's harness but makes no criterion measurement of its own.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use inca_core::{ExecPolicy, HwConv};
use inca_events::HeapEventQueue;
use inca_nn::Tensor;
use inca_serve::{run_sweep, EventQueue, SweepConfig};
use rand::{Rng, SeedableRng};
use serde_json::json;

fn random_tensor(shape: &[usize], seed: u64, lo: f32, hi: f32) -> Tensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Tensor::from_vec((0..shape.iter().product::<usize>()).map(|_| rng.gen_range(lo..hi)).collect(), shape)
}

/// Mean wall-clock nanoseconds per call after a short warmup.
fn mean_ns<O, F: FnMut() -> O>(mut f: F, iters: u32) -> f64 {
    for _ in 0..2 {
        black_box(f());
    }
    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    t0.elapsed().as_secs_f64() * 1e9 / f64::from(iters)
}

/// Pairs behind each published ratio, and calls per parallel mode.
const ITERS: u32 = 5;

/// Time each side of the telemetry guardrail runs before its ratio is
/// published.
const GUARD_SIDE_S: f64 = 0.1;

/// A block of calls lasts at least this long, so timer resolution and
/// one-off stalls stay small against it.
const BLOCK_S: f64 = 1e-3;

/// Seconds taken by `calls` calls of `f`.
fn time_calls<O>(f: impl Fn() -> O, calls: u32) -> f64 {
    let t0 = Instant::now();
    for _ in 0..calls {
        black_box(f());
    }
    t0.elapsed().as_secs_f64()
}

/// Times two ways of doing one job against each other. `a(n)` and `b(n)`
/// each run a block of `n` calls and return its seconds; a side's block
/// holds as many calls as last [`BLOCK_S`] (found by doubling, which
/// also warms it up). Blocks alternate between the sides, the first side
/// swapping every pair, until there are [`ITERS`] pairs and each side has
/// run for `side_s`. Returns the mean ns per call of `a` and of `b`, and
/// the median of the per-pair ratios of `a`'s time per call to `b`'s.
fn paired(mut a: impl FnMut(u32) -> f64, mut b: impl FnMut(u32) -> f64, side_s: f64) -> (f64, f64, f64) {
    let block = |run: &mut dyn FnMut(u32) -> f64| {
        let mut calls = 1;
        while run(calls) < BLOCK_S {
            calls *= 2;
        }
        calls
    };
    let (a_calls, b_calls) = (block(&mut a), block(&mut b));
    let (mut a_s, mut b_s, mut ratios) = (0.0, 0.0, Vec::new());
    while ratios.len() < ITERS as usize || a_s < side_s || b_s < side_s {
        let (ta, tb) = if ratios.len() % 2 == 0 {
            let ta = a(a_calls);
            (ta, b(b_calls))
        } else {
            let tb = b(b_calls);
            (a(a_calls), tb)
        };
        a_s += ta;
        b_s += tb;
        ratios.push((ta / f64::from(a_calls)) / (tb / f64::from(b_calls)));
    }
    ratios.sort_by(f64::total_cmp);
    let pairs = ratios.len() as f64;
    let ns_per_call = |secs: f64, calls: u32| secs * 1e9 / (pairs * f64::from(calls));
    (ns_per_call(a_s, a_calls), ns_per_call(b_s, b_calls), ratios[ratios.len() / 2])
}

/// Events/second of interleaved schedule/pop churn — the serving hot
/// loop. A macro rather than a function so the retired binary heap stays
/// measurable next to the calendar queue without a shared trait.
macro_rules! churn_events_per_s {
    ($Q:ty) => {{
        let t0 = Instant::now();
        let mut processed = 0u64;
        for _ in 0..64 {
            let mut q: $Q = <$Q>::new();
            for i in 0..4096u64 {
                q.schedule(q.now() + 1 + (i * 2_654_435_761) % 1000, i);
                if i % 2 == 0 {
                    black_box(q.pop());
                }
            }
            while q.pop().is_some() {}
            processed += q.processed();
        }
        processed as f64 / t0.elapsed().as_secs_f64()
    }};
}

fn hw_exec_benches(_: &mut Criterion) {
    let host_threads = inca_core::exec::available_threads();
    let par_policy = ExecPolicy::parallel();
    let par_requested = par_policy.threads();
    let par_workers = par_policy.effective_threads();
    // A parallel measurement is only meaningful when the host can truly
    // run ≥4 workers side by side; otherwise the artifact records an
    // explicit skip instead of an oversubscribed number.
    let measure_parallel = host_threads >= 4;
    let simd_impl = inca_xbar::simd::active_impl();

    // A mid-sized layer: 4 -> 8 channels, 3x3 on a 16x16 map.
    let w = random_tensor(&[8, 4, 3, 3], 101, -0.5, 0.5);
    let bias = vec![0.0f32; 8];
    let x = random_tensor(&[1, 4, 16, 16], 102, -0.5, 1.0);
    let conv_seq = HwConv::from_float(&w, &bias, 1, 1).unwrap();
    let conv_par = conv_seq.clone().with_policy(par_policy);
    let reference_vs_fast = |conv: &HwConv, x: &Tensor| {
        paired(
            |n| time_calls(|| conv.forward_reference(x).unwrap().len(), n),
            |n| time_calls(|| conv.forward(x).unwrap().len(), n),
            0.0,
        )
    };
    let (conv_scalar_ns, conv_seq_ns, conv_ratio) = reference_vs_fast(&conv_seq, &x);
    let conv_par_ns =
        measure_parallel.then(|| mean_ns(|| black_box(conv_par.forward(&x).unwrap()).len(), ITERS));

    // The same input under a 5x5 kernel: 25 cells per read can pass the
    // ADC's max code of 15, so the fast read goes bit by bit.
    let ws = random_tensor(&[8, 4, 5, 5], 104, -0.5, 0.5);
    let sat_seq = HwConv::from_float(&ws, &bias, 1, 2).unwrap();
    let sat_par = sat_seq.clone().with_policy(par_policy);
    let (sat_scalar_ns, sat_seq_ns, sat_ratio) = reference_vs_fast(&sat_seq, &x);
    let sat_par_ns =
        measure_parallel.then(|| mean_ns(|| black_box(sat_par.forward(&x).unwrap()).len(), ITERS));

    // Telemetry guardrail: the same forward inside a capture vs outside
    // any. The fast read coalesces each forward's reads into
    // four `record()` calls, so the ratio should sit inside run-to-run
    // noise; the recorded numbers keep that claim honest.
    let fast = || conv_seq.forward(&x).unwrap().len();
    let (telemetry_on_ns, telemetry_off_ns, on_over_off) =
        paired(|n| inca_telemetry::capture(|| time_calls(fast, n)).0, |n| time_calls(fast, n), GUARD_SIDE_S);

    // The same layer over a batch of 8.
    let xb = random_tensor(&[8, 4, 16, 16], 103, -0.5, 1.0);
    let batch_seq = HwConv::from_float(&w, &bias, 1, 1).unwrap();
    let batch_par = batch_seq.clone().with_policy(par_policy);
    let (batch_scalar_ns, batch_seq_ns, batch_ratio) = reference_vs_fast(&batch_seq, &xb);
    let batch_par_ns =
        measure_parallel.then(|| mean_ns(|| black_box(batch_par.forward(&xb).unwrap()).len(), ITERS));

    let engine_section = |scalar: f64, seq: f64, ratio: f64, par: Option<f64>| match par {
        Some(par_ns) => json!({
            "scalar_seq_ns": scalar,
            "seq_ns": seq,
            "packed_over_scalar": ratio,
            "par_ns": par_ns,
            "parallel_speedup": seq / par_ns,
        }),
        None => json!({
            "scalar_seq_ns": scalar,
            "seq_ns": seq,
            "packed_over_scalar": ratio,
            "parallel": json!({ "skipped": "host_threads < 4" }),
        }),
    };

    // Serving engine: the calendar queue vs the binary heap it replaced
    // on the identical churn pattern, plus the load sweep sequential vs
    // fanned across 4 workers — measured only on hosts that can truly
    // run them (same refusal rule as the conv engines above).
    let queue_events_per_s = churn_events_per_s!(EventQueue<u64>);
    let queue_heap_events_per_s = churn_events_per_s!(HeapEventQueue<u64>);
    let sweep_cfg = SweepConfig { requests_per_point: 2500, workers: 1, ..SweepConfig::quick() };
    let sweep_secs = |cfg: &SweepConfig| {
        let t0 = Instant::now();
        black_box(run_sweep(cfg));
        t0.elapsed().as_secs_f64()
    };
    let sweep_seq_s = sweep_secs(&sweep_cfg);
    let sweep_par_s = measure_parallel.then(|| sweep_secs(&SweepConfig { workers: 4, ..sweep_cfg.clone() }));
    let serve_section = match sweep_par_s {
        Some(par_s) => json!({
            "event_queue_events_per_s": queue_events_per_s,
            "event_queue_heap_events_per_s": queue_heap_events_per_s,
            "calendar_over_heap": queue_events_per_s / queue_heap_events_per_s,
            "sweep_seq_s": sweep_seq_s,
            "sweep_par_s": par_s,
            "sweep_parallel_speedup": sweep_seq_s / par_s,
        }),
        None => json!({
            "event_queue_events_per_s": queue_events_per_s,
            "event_queue_heap_events_per_s": queue_heap_events_per_s,
            "calendar_over_heap": queue_events_per_s / queue_heap_events_per_s,
            "sweep_seq_s": sweep_seq_s,
            "parallel": json!({ "skipped": "host_threads < 4" }),
        }),
    };

    let artifact = json!({
        "benchmark": "hw_exec",
        "host_threads": host_threads,
        "par_workers_requested": par_requested,
        "par_workers": par_workers,
        "simd": simd_impl,
        "iters_per_mode": ITERS,
        "workload": json!({
            "conv": "8x4x3x3 on 1x4x16x16, stride 1, pad 1",
            "conv_saturating": "8x4x5x5 on 1x4x16x16, stride 1, pad 2",
            "batch_conv": "8x4x3x3 on 8x4x16x16, stride 1, pad 1"
        }),
        "hw_conv": engine_section(conv_scalar_ns, conv_seq_ns, conv_ratio, conv_par_ns),
        "hw_conv_saturating": engine_section(sat_scalar_ns, sat_seq_ns, sat_ratio, sat_par_ns),
        "hw_batch_conv": engine_section(batch_scalar_ns, batch_seq_ns, batch_ratio, batch_par_ns),
        "telemetry": json!({
            "conv_seq_off_ns": telemetry_off_ns,
            "conv_seq_on_ns": telemetry_on_ns,
            "on_over_off": on_over_off
        }),
        "serve": serve_section
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hw_exec.json");
    std::fs::write(path, serde_json::to_string_pretty(&artifact).unwrap()).unwrap();
    eprintln!("hw_exec artifact written to {path}");
    eprintln!(
        "hw_conv: scalar {conv_scalar_ns:.0}ns packed {conv_seq_ns:.0}ns (median pair x{conv_ratio:.2}, simd {simd_impl})"
    );
    eprintln!(
        "hw_conv_saturating: scalar {sat_scalar_ns:.0}ns packed {sat_seq_ns:.0}ns (median pair x{sat_ratio:.2})"
    );
    eprintln!(
        "hw_batch_conv: scalar {batch_scalar_ns:.0}ns packed {batch_seq_ns:.0}ns (median pair x{batch_ratio:.2})"
    );
    match (conv_par_ns, batch_par_ns) {
        (Some(cp), Some(bp)) => eprintln!(
            "parallel ({par_workers} workers on {host_threads} host threads): conv x{:.2} batch x{:.2}",
            conv_seq_ns / cp,
            batch_seq_ns / bp
        ),
        _ => eprintln!(
            "parallel: SKIPPED (host_threads {host_threads} < 4; refusing to publish an oversubscribed speedup)"
        ),
    }
    eprintln!(
        "telemetry: off {telemetry_off_ns:.0}ns on {telemetry_on_ns:.0}ns (median pair x{on_over_off:.3})"
    );
    eprintln!(
        "serve queue: calendar {:.1}M events/s, heap {:.1}M events/s (x{:.2})",
        queue_events_per_s / 1e6,
        queue_heap_events_per_s / 1e6,
        queue_events_per_s / queue_heap_events_per_s
    );
    match sweep_par_s {
        Some(par_s) => eprintln!(
            "serve sweep: seq {sweep_seq_s:.3}s, 4 workers {par_s:.3}s (x{:.2})",
            sweep_seq_s / par_s
        ),
        None => eprintln!(
            "serve sweep: seq {sweep_seq_s:.3}s, parallel SKIPPED (host_threads {host_threads} < 4)"
        ),
    }
}

criterion_group!(hw_exec, hw_exec_benches);
criterion_main!(hw_exec);
