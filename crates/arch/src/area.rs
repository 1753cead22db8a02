use serde::{Deserialize, Serialize};

use crate::ArchConfig;

/// The Table V area breakdown of one accelerator chip, in mm².
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AreaBreakdown {
    /// On-chip buffers (168 × 64 KB).
    // lint: allow(raw-unit)
    pub buffer_mm2: f64,
    /// RRAM arrays (16 128 units).
    // lint: allow(raw-unit)
    pub array_mm2: f64,
    /// ADCs.
    // lint: allow(raw-unit)
    pub adc_mm2: f64,
    /// DACs (input drivers).
    // lint: allow(raw-unit)
    pub dac_mm2: f64,
    /// Post-processing (ReLU + max-pooling units).
    // lint: allow(raw-unit)
    pub post_processing_mm2: f64,
    /// Everything else (interconnect, control, registers) — measured by
    /// NeuroSim+ in the paper and carried as published constants.
    // lint: allow(raw-unit)
    pub others_mm2: f64,
}

impl AreaBreakdown {
    /// Total chip area.
    #[must_use]
    // Serialized-report scalar, raw by design (DESIGN.md §10).
    // lint: allow(raw-unit)
    pub fn total_mm2(&self) -> f64 {
        self.buffer_mm2
            + self.array_mm2
            + self.adc_mm2
            + self.dac_mm2
            + self.post_processing_mm2
            + self.others_mm2
    }
}

/// Computes Table V from an [`ArchConfig`].
///
/// Anchors (published in the paper):
/// * one baseline 128 × 128 crossbar = 491.52 µm²; one INCA 16 × 16 × 64
///   stack = 49.152 µm² (§V-B6),
/// * buffer area 13.944 mm² for 168 × 64 KB,
/// * post-processing 3.656 mm²,
/// * "others" 27.920 / 24.249 mm² (NeuroSim-measured constants).
#[derive(Debug, Clone, Copy, Default)]
pub struct AreaModel {
    _private: (),
}

impl AreaModel {
    /// Creates the model.
    #[must_use]
    pub fn new() -> Self {
        Self { _private: () }
    }

    /// Area of one subarray unit in µm².
    ///
    /// INCA stacks 16 cells per footprint position (§V-B6): "16 cells of
    /// INCA occupy only 0.048 µm², while the baseline one-cell area is
    /// 0.030 µm²". The plane-spacing factor (doubled transistor thickness)
    /// is folded into the published per-stack figure.
    #[must_use]
    pub(crate) fn unit_area_um2(&self, config: &ArchConfig) -> f64 {
        let cell = config.scaling.scale_area_raw(config.cell_geometry.area_um2());
        match config.dataflow {
            crate::Dataflow::WeightStationary => cell * (config.subarray * config.subarray) as f64,
            crate::Dataflow::InputStationary => {
                // 16-deep vertical stacking shares one footprint.
                const STACK_DEPTH_PER_FOOTPRINT: f64 = 16.0;
                cell * config.cells_per_unit() as f64 / STACK_DEPTH_PER_FOOTPRINT
            }
        }
    }

    /// The full Table V breakdown.
    #[must_use]
    pub fn breakdown(&self, config: &ArchConfig) -> AreaBreakdown {
        let units = config.units_per_chip() as f64;
        let array_mm2 = units * self.unit_area_um2(config) * 1e-6;
        let adc_mm2 = units * config.adc.area_um2() * 1e-6;
        // One 1-bit driver per row input: 128 for the baseline crossbar,
        // 256 pillars (16 × 16) for the INCA stack.
        let drivers_per_unit = match config.dataflow {
            crate::Dataflow::WeightStationary => config.subarray as f64,
            crate::Dataflow::InputStationary => (config.subarray * config.subarray) as f64,
        };
        let dac_mm2 = units * drivers_per_unit * config.dac.area_um2() * 1e-6;
        // 0.083 mm² per 64 KB buffer (13.944 / 168).
        let buffer_mm2 = config.tiles as f64 * 0.083 * (config.buffer.capacity_bytes() as f64 / 65_536.0);
        let post_processing_mm2 = config.tiles as f64 * (3.656 / 168.0);
        let others_mm2 = match config.dataflow {
            crate::Dataflow::WeightStationary => 27.920,
            crate::Dataflow::InputStationary => 24.249,
        };
        AreaBreakdown { buffer_mm2, array_mm2, adc_mm2, dac_mm2, post_processing_mm2, others_mm2 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() / b.abs() < tol
    }

    #[test]
    fn baseline_unit_area_matches_paper() {
        let m = AreaModel::new();
        let a = m.unit_area_um2(&ArchConfig::baseline_paper());
        assert!(close(a, 491.52, 0.03), "got {a}");
    }

    #[test]
    fn inca_unit_area_matches_paper() {
        let m = AreaModel::new();
        let a = m.unit_area_um2(&ArchConfig::inca_paper());
        assert!(close(a, 49.152, 0.05), "got {a}");
    }

    #[test]
    fn table_v_baseline_breakdown() {
        let b = AreaModel::new().breakdown(&ArchConfig::baseline_paper());
        assert!(close(b.buffer_mm2, 13.944, 0.01), "buffer {}", b.buffer_mm2);
        assert!(close(b.array_mm2, 7.927, 0.05), "array {}", b.array_mm2);
        assert!(close(b.adc_mm2, 30.298, 0.02), "adc {}", b.adc_mm2);
        assert!(close(b.dac_mm2, 0.343, 0.05), "dac {}", b.dac_mm2);
        assert!(close(b.total_mm2(), 84.088, 0.03), "total {}", b.total_mm2());
    }

    #[test]
    fn table_v_inca_breakdown() {
        let b = AreaModel::new().breakdown(&ArchConfig::inca_paper());
        assert!(close(b.array_mm2, 0.793, 0.06), "array {}", b.array_mm2);
        assert!(close(b.adc_mm2, 4.5864, 0.02), "adc {}", b.adc_mm2);
        assert!(close(b.dac_mm2, 0.686, 0.05), "dac {}", b.dac_mm2);
        assert!(close(b.total_mm2(), 47.914, 0.03), "total {}", b.total_mm2());
    }

    #[test]
    fn inca_saves_area_overall() {
        let m = AreaModel::new();
        let base = m.breakdown(&ArchConfig::baseline_paper()).total_mm2();
        let inca = m.breakdown(&ArchConfig::inca_paper()).total_mm2();
        assert!(inca < 0.65 * base, "inca {inca} vs baseline {base}");
    }
}
