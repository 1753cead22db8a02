//! The light-model story (§V-B4): depthwise and pointwise convolutions
//! collapse the weight-stationary baseline's array utilization, while
//! INCA's input-stationary mapping is indifferent to kernel shape —
//! producing the paper's most dramatic improvements.
//!
//! ```text
//! cargo run --release --example light_models
//! ```

use inca::arch::mapping::{IsMapping, WsMapping};
use inca::prelude::*;

fn main() {
    let inca_cfg = ArchConfig::inca_paper();
    let base_cfg = ArchConfig::baseline_paper();
    let is = IsMapping::new(&inca_cfg);
    let ws = WsMapping::new(&base_cfg);

    println!("Fig 16b — utilization (compute-weighted for WS):");
    for model in Model::paper_suite() {
        let spec = model.spec();
        println!(
            "  {:<14} INCA {:>5.1}%   WS {:>5.1}%",
            model.name(),
            is.utilization(&spec) * 100.0,
            ws.utilization_by_cycles(&spec) * 100.0,
        );
    }

    println!("\nFigs 11/14 — improvements on the two light models:");
    let comparison = Comparison::paper_default();
    for model in Model::light_suite() {
        let r = comparison.run(model);
        println!(
            "  {:<14} inference {:>6.1}x energy, {:>6.1}x speed | training {:>7.1}x energy, {:>7.1}x speed",
            model.name(),
            r.inference_energy_ratio,
            r.inference_speedup,
            r.training_energy_ratio,
            r.training_speedup,
        );
    }

    // Why: a 3x3 depthwise kernel occupies 9 of 128 cells in a column of a
    // 128x128 WS crossbar — and channels cannot share rows.
    let spec = Model::MobileNetV2.spec();
    let dw = spec.layers().iter().find(|l| l.is_depthwise()).expect("MobileNetV2 has depthwise layers");
    let mapping = ws.map_layer(dw).expect("depthwise maps");
    println!(
        "\nFirst MobileNetV2 depthwise layer on the WS baseline: {} arrays at {:.2}% utilization",
        mapping.units,
        mapping.utilization() * 100.0,
    );
}
