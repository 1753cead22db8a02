//! Property-based tests on mapping and area-model invariants.

use inca_arch::{ArchConfig, AreaModel, FootprintModel};
use inca_workloads::Model;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Footprint scales linearly with precision for every model.
    #[test]
    fn footprint_linear_in_precision(bits in 1u32..33) {
        let spec = Model::ResNet18.spec();
        let base = FootprintModel { data_bits: bits }.evaluate(&spec);
        let double = FootprintModel { data_bits: 2 * bits }.evaluate(&spec);
        prop_assert!((double.baseline_rram_mib - 2.0 * base.baseline_rram_mib).abs() < 1e-9);
        prop_assert!((double.inca_buffers_mib - 2.0 * base.inca_buffers_mib).abs() < 1e-9);
    }
}

/// Area totals are strictly positive and componentwise additive.
#[test]
fn area_breakdown_consistency() {
    let m = AreaModel::new();
    for cfg in [ArchConfig::inca_paper(), ArchConfig::baseline_paper()] {
        let b = m.breakdown(&cfg);
        let sum = b.buffer_mm2 + b.array_mm2 + b.adc_mm2 + b.dac_mm2 + b.post_processing_mm2 + b.others_mm2;
        assert!((sum - b.total_mm2()).abs() < 1e-12);
        for v in [b.buffer_mm2, b.array_mm2, b.adc_mm2, b.dac_mm2, b.post_processing_mm2, b.others_mm2] {
            assert!(v > 0.0);
        }
    }
}

/// Doubling the tile count doubles buffer + post-processing area but not
/// the "others" constant.
#[test]
fn area_scales_with_tiles() {
    let m = AreaModel::new();
    let mut cfg = ArchConfig::inca_paper();
    let base = m.breakdown(&cfg);
    cfg.tiles *= 2;
    let doubled = m.breakdown(&cfg);
    assert!((doubled.buffer_mm2 - 2.0 * base.buffer_mm2).abs() < 1e-9);
    assert!((doubled.array_mm2 - 2.0 * base.array_mm2).abs() < 1e-9);
    assert_eq!(doubled.others_mm2, base.others_mm2);
}
