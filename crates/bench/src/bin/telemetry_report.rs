//! Hardware event telemetry report: runs a representative slice of the
//! stack (the functional conv engine on one sample and on a batch, the
//! linear engine, plus the analytical simulator) with recording enabled, then prints the counter table and
//! writes two artifacts at the workspace root:
//!
//! * `TELEMETRY_snapshot.json` — counters + span tree,
//! * `TELEMETRY_trace.json` — Chrome trace-event file; open it at
//!   `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! ```text
//! cargo run -p inca-bench --bin telemetry_report
//! ```

use inca_core::{ExecPolicy, HwConv, HwLinear};
use inca_nn::Tensor;
use inca_sim::{simulate_inference, simulate_training};
use inca_telemetry::{chrome_trace_json, Snapshot};
use inca_workloads::Model;
use rand::{Rng, SeedableRng};

fn random_tensor(shape: &[usize], seed: u64, lo: f32, hi: f32) -> Tensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Tensor::from_vec((0..shape.iter().product::<usize>()).map(|_| rng.gen_range(lo..hi)).collect(), shape)
}

fn main() {
    inca_telemetry::reset();
    inca_telemetry::set_enabled(true);

    // Functional engines: a small conv layer (twice, to show the program
    // cache), the same layer over a batch of 4 images on the 3D stacks,
    // and a linear layer.
    let w = random_tensor(&[4, 2, 3, 3], 7, -0.5, 0.5);
    let bias = vec![0.0f32; 4];
    let x = random_tensor(&[1, 2, 8, 8], 8, -0.5, 1.0);
    let conv = HwConv::from_float(&w, &bias, 1, 1).expect("conv build");
    conv.forward(&x).expect("conv forward");
    conv.forward(&x).expect("conv forward (cached)");

    let xb = random_tensor(&[4, 2, 8, 8], 9, -0.5, 1.0);
    let batch = HwConv::from_float(&w, &bias, 1, 1).expect("batch build").with_policy(ExecPolicy::parallel());
    batch.forward(&xb).expect("batch forward");

    let lw = random_tensor(&[10, 16], 10, -0.5, 0.5);
    let linear = HwLinear::from_float(&lw, &[0.0f32; 10]).expect("linear build");
    linear.forward(&random_tensor(&[16], 11, -0.5, 1.0)).expect("linear forward");

    // Device endurance: a WS-style rewrite burst over a small array.
    let mut tracker = inca_device::EnduranceTracker::new(64, 1_000_000);
    tracker.record_uniform(100).expect("endurance record");

    // Analytical simulator: inference + training on both dataflows.
    let spec = Model::Vgg16Cifar.spec();
    for cfg in [inca_arch::ArchConfig::inca_paper(), inca_arch::ArchConfig::baseline_paper()] {
        let _ = simulate_inference(&cfg, &spec);
        let _ = simulate_training(&cfg, &spec);
    }

    inca_telemetry::set_enabled(false);
    let snapshot = Snapshot::capture();

    println!("{}", snapshot.counter_table());

    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let snap_path = format!("{root}/TELEMETRY_snapshot.json");
    let trace_path = format!("{root}/TELEMETRY_trace.json");
    std::fs::write(&snap_path, snapshot.to_json()).expect("write snapshot");
    std::fs::write(&trace_path, chrome_trace_json()).expect("write trace");
    println!("snapshot written to {snap_path}");
    println!("trace written to {trace_path} (open in chrome://tracing or ui.perfetto.dev)");
}
