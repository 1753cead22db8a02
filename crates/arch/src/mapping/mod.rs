//! Dataflow mapping engines.
//!
//! [`WsMapping`] places unrolled weights on 2D crossbars (the GEMM-based
//! convolution of the ISAAC-style baseline); [`IsMapping`] partitions input
//! feature maps across INCA's 3D stacks (direct convolution, §IV-C). Both
//! report per-layer array allocation and utilization — the raw material of
//! Fig 16 and the array-energy terms of the simulator.

mod is_map;
mod ws_map;

pub use is_map::{direct_input_elems, unrolled_input_elems, IsMapping};
pub use ws_map::WsMapping;

use serde::{Deserialize, Serialize};

/// The mapping of one weighted layer onto PIM arrays.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LayerMapping {
    /// Subarray units (2D crossbars or 3D stacks) allocated.
    pub units: u64,
    /// Cells actually holding data.
    pub cells_used: u64,
    /// Cells allocated (units × cells-per-unit).
    pub cells_allocated: u64,
}

impl LayerMapping {
    /// Utilization: used / allocated cells.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        if self.cells_allocated == 0 {
            0.0
        } else {
            self.cells_used as f64 / self.cells_allocated as f64
        }
    }
}

/// Aggregate mapping statistics over a whole network.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct MappingSummary {
    /// Total units allocated across all weighted layers.
    pub total_units: u64,
    /// Total cells used.
    pub cells_used: u64,
    /// Total cells allocated.
    pub cells_allocated: u64,
}

impl MappingSummary {
    /// Builds a summary from per-layer mappings.
    #[must_use]
    pub(crate) fn from_layers<'a>(layers: impl IntoIterator<Item = &'a LayerMapping>) -> Self {
        let mut s = Self { total_units: 0, cells_used: 0, cells_allocated: 0 };
        for l in layers {
            s.total_units += l.units;
            s.cells_used += l.cells_used;
            s.cells_allocated += l.cells_allocated;
        }
        s
    }

    /// Network-level utilization (cell-weighted mean).
    #[must_use]
    pub fn utilization(&self) -> f64 {
        if self.cells_allocated == 0 {
            0.0
        } else {
            self.cells_used as f64 / self.cells_allocated as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ArchConfig;
    use inca_workloads::{Model, ModelBuilder, ModelSpec};
    use proptest::prelude::*;

    /// A single conv layer with `cin` input channels.
    fn custom_spec(cin: usize, h: usize, k: usize) -> ModelSpec {
        let layers = ModelBuilder::new(cin, h, h).conv(8, k, 1, k / 2, false).finish();
        ModelSpec { model: Model::ResNet18, layers }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Utilization is always in (0, 1] for both mappings, for any conv
        /// geometry.
        #[test]
        fn utilization_bounded(c in 1usize..64, h in 8usize..64, k in 1usize..5) {
            prop_assume!(h >= k);
            let spec = custom_spec(c, h, k);
            let is = IsMapping::new(&ArchConfig::inca_paper()).utilization(&spec);
            let ws = WsMapping::new(&ArchConfig::baseline_paper()).summarize(&spec).utilization();
            prop_assert!(is > 0.0 && is <= 1.0, "IS {is}");
            prop_assert!(ws > 0.0 && ws <= 1.0, "WS {ws}");
        }

        /// Cells used never exceed cells allocated, and used cells scale
        /// linearly with *input* channels for the IS mapping (inputs are what
        /// lives in the arrays).
        #[test]
        fn is_mapping_accounting(cin in 2usize..32, h in 8usize..40) {
            let engine = IsMapping::new(&ArchConfig::inca_paper());
            let one = engine.map_model(&custom_spec(2, h, 3))[0];
            let many = engine.map_model(&custom_spec(cin, h, 3))[0];
            prop_assert!(many.cells_used <= many.cells_allocated);
            prop_assert_eq!(many.cells_used * 2, one.cells_used * cin as u64);
        }

        /// WS mapping allocates at least enough cells for the weights.
        #[test]
        fn ws_allocates_for_weights(c in 1usize..64, k in 1usize..5) {
            let spec = custom_spec(c, 16, k);
            let engine = WsMapping::new(&ArchConfig::baseline_paper());
            for (layer, m) in spec.weighted_layers().zip(engine.map_model(&spec)) {
                let weight_cells = layer.fan_in() * layer.cout as u64 * 8;
                prop_assert!(m.cells_allocated >= weight_cells);
                prop_assert_eq!(m.cells_used, weight_cells);
            }
        }
    }

    #[test]
    fn utilization_math() {
        let m = LayerMapping { units: 2, cells_used: 100, cells_allocated: 400 };
        assert!((m.utilization() - 0.25).abs() < 1e-12);
        let empty = LayerMapping { units: 0, cells_used: 0, cells_allocated: 0 };
        assert_eq!(empty.utilization(), 0.0);
    }

    #[test]
    fn summary_accumulates() {
        let a = LayerMapping { units: 1, cells_used: 10, cells_allocated: 20 };
        let b = LayerMapping { units: 3, cells_used: 30, cells_allocated: 60 };
        let s = MappingSummary::from_layers([&a, &b]);
        assert_eq!(s.total_units, 4);
        assert!((s.utilization() - 0.5).abs() < 1e-12);
    }
}
