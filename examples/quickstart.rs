//! Quickstart: build both accelerators with the paper's configuration and
//! reproduce the headline comparison for one network.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use inca::prelude::*;

fn main() {
    // The paper's Table II configurations: INCA (16x16x64 subarrays, 4-bit
    // ADC) vs the ISAAC/PipeLayer-style weight-stationary baseline
    // (128x128 arrays, 8-bit ADC).
    let report = Comparison::paper_default().run(Model::ResNet18);
    let acc = Accelerator::inca();
    let inference = acc.run_inference(Model::ResNet18);

    println!(
        "ResNet-18 inference: INCA {:.3e} J/img vs baseline {:.3e} J/img -> {:.1}x energy, {:.1}x speed",
        inference.energy_per_image_j(),
        Accelerator::baseline().run_inference(Model::ResNet18).energy_per_image_j(),
        report.inference_energy_ratio,
        report.inference_speedup,
    );
    println!(
        "ResNet-18 training:  {:.1}x energy efficiency, {:.1}x speedup (batch {})",
        report.training_energy_ratio,
        report.training_speedup,
        acc.run_training(Model::ResNet18).batch,
    );

    // Where the energy goes (the Fig 13b breakdown):
    println!("\nINCA inference energy breakdown:");
    let e = &inference.energy;
    for (name, j) in [
        ("DRAM", e.dram_j),
        ("buffer", e.buffer_j),
        ("ADC", e.adc_j),
        ("DAC", e.dac_j),
        ("array", e.array_j),
        ("digital", e.digital_j),
        ("static", e.static_j),
    ] {
        println!("  {name:<8} {:>6.1}%", 100.0 * j / e.total_j());
    }

    // Memory footprint (Table IV) and area (Table V):
    let fp = acc.footprint(Model::ResNet18);
    println!(
        "\nFootprint: INCA needs {:.2} MiB RRAM vs {:.2} MiB for the baseline; chip area {:.1} mm² vs {:.1} mm²",
        fp.inca_rram_mib,
        fp.baseline_rram_mib,
        acc.area_mm2(),
        Accelerator::baseline().area_mm2(),
    );
}
