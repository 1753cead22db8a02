//! Cross-crate integration tests of the paper's headline claims — the
//! contract EXPERIMENTS.md reports against.

use inca::prelude::*;
use inca::sim::access;
use inca::workloads::Model as M;

/// Fig 11 / Fig 14: INCA wins energy and latency everywhere; training
/// gains exceed inference gains; light models gain the most.
#[test]
fn headline_ratios_have_paper_shape() {
    let c = Comparison::paper_default();
    let mut heavy_best_tr = 0.0f64;
    for model in M::heavy_suite() {
        let r = c.run(model);
        assert!(r.inference_energy_ratio > 3.0, "{model} inf energy {}", r.inference_energy_ratio);
        assert!(r.inference_energy_ratio < 60.0, "{model} inf energy {}", r.inference_energy_ratio);
        assert!(r.training_energy_ratio > r.inference_energy_ratio, "{model}");
        assert!(r.training_speedup > r.inference_speedup, "{model}");
        heavy_best_tr = heavy_best_tr.max(r.training_energy_ratio);
    }
    for model in M::light_suite() {
        let r = c.run(model);
        assert!(r.training_energy_ratio > heavy_best_tr, "{model} should beat every heavy model");
        assert!(r.inference_speedup > 20.0, "{model} speedup {}", r.inference_speedup);
    }
}

/// Table III: the INCA access formula matches the published VGG16 number
/// exactly (459,712 ≈ "460,000").
#[test]
fn table_iii_vgg16_exact() {
    let total = access::inca_total(&M::Vgg16.spec(), &access::AccessConfig::table_iii());
    assert_eq!(total, 459_712);
}

/// Table IV: the footprint decomposition reproduces all 24 published cells
/// within a few percent.
#[test]
fn table_iv_within_tolerance() {
    let rows = [
        (M::Vgg16, 272.57, 8.69, 8.69, 131.94),
        (M::Vgg19, 283.94, 9.94, 9.94, 137.00),
        (M::ResNet18, 24.36, 2.08, 2.08, 11.14),
        (M::ResNet50, 58.79, 10.15, 10.15, 24.32),
        (M::MobileNetV2, 13.05, 6.45, 6.45, 3.31),
        (M::MnasNet, 13.57, 5.29, 5.29, 4.14),
    ];
    let acc = Accelerator::inca();
    for (model, b_rram, b_buf, i_rram, i_buf) in rows {
        let r = acc.footprint(model);
        for (name, got, want) in [
            ("baseline rram", r.baseline_rram_mib, b_rram),
            ("baseline buffers", r.baseline_buffers_mib, b_buf),
            ("inca rram", r.inca_rram_mib, i_rram),
            ("inca buffers", r.inca_buffers_mib, i_buf),
        ] {
            assert!((got - want).abs() / want < 0.08, "{model} {name}: {got} vs {want}");
        }
    }
}

/// Table V: total areas within 1 % of the published 84.088 / 47.914 mm².
#[test]
fn table_v_totals() {
    let base = Accelerator::baseline().area_mm2().mm2();
    let inca = Accelerator::inca().area_mm2().mm2();
    assert!((base - 84.088).abs() / 84.088 < 0.01, "baseline {base}");
    assert!((inca - 47.914).abs() / 47.914 < 0.01, "inca {inca}");
}

/// Fig 13a: INCA's total ADC energy is ~5x below the baseline's.
#[test]
fn fig13a_adc_reduction() {
    let spec = M::Vgg16.spec();
    let base = simulate_inference(&ArchConfig::baseline_paper(), &spec);
    let inca = simulate_inference(&ArchConfig::inca_paper(), &spec);
    let ratio = base.energy.adc_j / inca.energy.adc_j;
    assert!(ratio > 3.0 && ratio < 8.0, "ADC ratio {ratio} (paper: 5x)");
}

/// Fig 16a: 16x16 subarrays keep utilization high; 128x128 wastes most
/// cells.
#[test]
fn fig16a_array_size() {
    use inca::arch::mapping::IsMapping;
    let cfg = ArchConfig::inca_paper();
    let spec = M::Vgg16.spec();
    let u16 = IsMapping::with_side(&cfg, 16).utilization(&spec);
    let u128 = IsMapping::with_side(&cfg, 128).utilization(&spec);
    assert!(u16 > 0.85, "16x16 {u16}");
    assert!(u128 < 0.25, "128x128 {u128}");
}

/// §V-B2 latency structure: baseline read ≈ 2x INCA write; INCA write ≈ 2x
/// its own read.
#[test]
fn latency_structure() {
    let inca = ArchConfig::inca_paper();
    let base = ArchConfig::baseline_paper();
    let r1 = base.array_read_latency_s() / inca.array_write_latency_s();
    assert!(r1 > 1.5 && r1 < 3.5, "baseline-read / inca-write = {r1}");
    assert!(inca.array_write_latency_s() > inca.array_read_latency_s());
}

/// Fig 15: INCA beats the Titan RTX on training energy for every model.
#[test]
fn fig15_gpu_comparison() {
    let c = Comparison::paper_default();
    for model in M::paper_suite() {
        let r = c.run(model);
        assert!(r.gpu_energy_ratio > 1.0, "{model}: {}", r.gpu_energy_ratio);
    }
}

/// Iso-capacity (§V-B6): one INCA 16x16x64 stack holds exactly as many
/// cells as one 128x128 baseline crossbar, chip-wide.
#[test]
fn iso_capacity() {
    let inca = ArchConfig::inca_paper();
    let base = ArchConfig::baseline_paper();
    assert_eq!(inca.cells_per_chip(), base.cells_per_chip());
}
