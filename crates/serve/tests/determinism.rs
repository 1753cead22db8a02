//! Property-based tests on the serving simulator's headline guarantees:
//! bit-exact reproducibility under a fixed seed, and causality of the
//! reported latencies.

use inca_serve::{
    run_point, run_sweep, ArrivalKind, BackendKind, DispatchPolicy, ModelMix, ServeConfig, SweepConfig,
};
use inca_workloads::Model;
use proptest::prelude::*;

fn small_config(seed: u64, rate: f64, policy_pick: u8, backend_pick: u8) -> ServeConfig {
    let backend = match backend_pick % 3 {
        0 => BackendKind::Inca,
        1 => BackendKind::WsBaseline,
        _ => BackendKind::Gpu,
    };
    let mut cfg = ServeConfig::default_fleet(backend, rate);
    cfg.policy = match policy_pick % 3 {
        0 => DispatchPolicy::RoundRobin,
        1 => DispatchPolicy::JoinShortestQueue,
        _ => DispatchPolicy::ModelAffinity,
    };
    cfg.seed = seed;
    cfg.chips = 2;
    cfg.requests = 150;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Same seed, same config -> identical run, regardless of backend,
    /// policy, or load. The engine uses only virtual time and a seeded
    /// RNG, so nothing about the host may leak in.
    #[test]
    fn same_seed_runs_are_identical(
        seed in any::<u64>(),
        rate in 20.0f64..2000.0,
        policy in 0u8..3,
        backend in 0u8..3,
    ) {
        let cfg = small_config(seed, rate, policy, backend);
        let a = run_point(&cfg);
        let b = run_point(&cfg);
        prop_assert_eq!(a, b);
    }

    /// No time travel: every completed request's end-to-end latency is at
    /// least the service time of the batch that carried it, and its
    /// completion is never before its arrival.
    #[test]
    fn latency_bounded_below_by_service(
        seed in any::<u64>(),
        rate in 20.0f64..2000.0,
        policy in 0u8..3,
        backend in 0u8..3,
    ) {
        let cfg = small_config(seed, rate, policy, backend);
        let run = run_point(&cfg);
        prop_assert!(run.completed.len() as u64 + run.shed == run.offered);
        for c in &run.completed {
            prop_assert!(c.done_ns >= c.arrival_ns);
            prop_assert!(c.done_ns - c.arrival_ns >= c.service_ns);
        }
    }

    /// Bursty arrivals obey the same determinism contract as Poisson.
    #[test]
    fn mmpp_runs_are_identical(seed in any::<u64>()) {
        let mut cfg = small_config(seed, 300.0, 1, 0);
        cfg.arrivals = ArrivalKind::Mmpp { rate_hi: 600.0, rate_lo: 60.0, mean_dwell_s: 0.05 };
        let a = run_point(&cfg);
        let b = run_point(&cfg);
        prop_assert_eq!(a, b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The sweep's worker count is an execution knob, not a semantic one:
    /// any fan-out — including more workers than the sweep has points —
    /// produces the byte-identical report of the sequential sweep.
    #[test]
    fn parallel_sweep_is_byte_identical(
        seed in any::<u64>(),
        reqs in 50u64..200,
        workers in 2usize..9,
        backend_pick in 0u8..3,
    ) {
        let backends = match backend_pick % 3 {
            0 => vec![BackendKind::Inca],
            1 => vec![BackendKind::WsBaseline, BackendKind::Gpu],
            _ => BackendKind::all().to_vec(),
        };
        let mut cfg = SweepConfig {
            backends,
            requests_per_point: reqs,
            mix: ModelMix { models: vec![Model::ResNet18, Model::MobileNetV2], weights: vec![2.0, 1.0] },
            seed,
            ws_grid: vec![0.3, 1.0],
            inca_grid: vec![0.8],
            gpu_grid: vec![],
            ..SweepConfig::quick()
        };
        cfg.workers = 1;
        let sequential = run_sweep(&cfg).to_pretty_json();
        cfg.workers = workers;
        prop_assert_eq!(&run_sweep(&cfg).to_pretty_json(), &sequential);
        // Worker count exceeding the sweep's total point count: the pool
        // caps at one point per worker and the bytes still hold.
        cfg.workers = 64;
        prop_assert_eq!(&run_sweep(&cfg).to_pretty_json(), &sequential);
    }
}

/// The full sweep artifact is byte-identical across same-seed runs —
/// the exact guarantee `SERVE_report.json` ships under.
#[test]
fn serve_report_bytes_reproduce() {
    let cfg = SweepConfig {
        requests_per_point: 200,
        ws_grid: vec![0.2, 1.0],
        inca_grid: vec![0.8],
        gpu_grid: vec![],
        ..SweepConfig::quick()
    };
    let a = run_sweep(&cfg).to_pretty_json();
    let b = run_sweep(&cfg).to_pretty_json();
    assert_eq!(a, b);
    assert!(a.contains("\"sustainable_rps\""));
}

/// Different seeds actually produce different traffic (the RNG is wired
/// through, not ignored).
#[test]
fn different_seeds_differ() {
    let mut a_cfg = ServeConfig::default_fleet(BackendKind::Inca, 500.0);
    a_cfg.requests = 300;
    let mut b_cfg = a_cfg.clone();
    b_cfg.seed ^= 0xDEAD_BEEF;
    let mix_differs = run_point(&a_cfg)
        .completed
        .iter()
        .zip(run_point(&b_cfg).completed.iter())
        .any(|(x, y)| x.model_idx != y.model_idx || x.done_ns != y.done_ns);
    assert!(mix_differs);
}
