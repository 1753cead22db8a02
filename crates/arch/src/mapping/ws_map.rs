use inca_workloads::{LayerSpec, ModelSpec};

use super::LayerMapping;
use crate::ArchConfig;

/// The weight-stationary (ISAAC-style) mapping engine.
///
/// Each weighted layer's kernels are unrolled into columns: a dense layer
/// needs `K·K·C` rows and `N · data_bits` columns (1-bit cells, one column
/// per weight bit). Depthwise layers cannot share rows across channels —
/// each channel's window drives its own row band — so channels pack
/// diagonally, wasting most of the array ("3×3 kernels in depthwise
/// convolution only use nine of 128 cells in a column", §V-B4).
#[derive(Debug, Clone)]
pub struct WsMapping {
    rows: u64,
    cols: u64,
    data_bits: u64,
}

impl WsMapping {
    /// Creates the engine from an architecture configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is not weight-stationary.
    #[must_use]
    pub fn new(config: &ArchConfig) -> Self {
        assert_eq!(
            config.dataflow,
            crate::Dataflow::WeightStationary,
            "WsMapping requires a weight-stationary configuration"
        );
        Self {
            rows: config.subarray as u64,
            cols: config.subarray as u64,
            data_bits: u64::from(config.data_bits),
        }
    }

    /// Maps one weighted layer; returns `None` for non-weighted layers.
    #[must_use]
    pub fn map_layer(&self, layer: &LayerSpec) -> Option<LayerMapping> {
        if !layer.is_weighted() {
            return None;
        }
        let cells_per_array = self.rows * self.cols;
        if layer.is_depthwise() {
            // One channel per array: each depthwise channel convolves its
            // own input slice, so its window occupies the array's driven
            // rows exclusively — "3x3 kernels in depthwise convolution only
            // use nine of 128 cells in a column" (§V-B4). Channels cannot
            // share rows (their inputs differ), so each gets its own array.
            let fan_in = layer.fan_in();
            let units = layer.cout as u64;
            let cells_used = units * fan_in * self.data_bits;
            Some(LayerMapping { units, cells_used, cells_allocated: units * cells_per_array })
        } else {
            let rows_needed = layer.fan_in();
            let cols_needed = layer.cout as u64 * self.data_bits;
            let units = rows_needed.div_ceil(self.rows) * cols_needed.div_ceil(self.cols);
            let cells_used = rows_needed * cols_needed;
            Some(LayerMapping { units, cells_used, cells_allocated: units * cells_per_array })
        }
    }

    /// Compute-weighted utilization (the Fig 16b metric): each layer's
    /// utilization weighted by its array-cycles (`units × OH·OW` — how long
    /// the allocated arrays stay busy). Depthwise layers run for many
    /// cycles at tiny utilization, which is what collapses the WS series on
    /// light models.
    #[must_use]
    pub fn utilization_by_cycles(&self, spec: &ModelSpec) -> f64 {
        let mut used = 0.0f64;
        let mut alloc = 0.0f64;
        for layer in spec.weighted_layers() {
            let Some(m) = self.map_layer(layer) else { continue };
            let cycles = (layer.oh * layer.ow) as f64;
            used += m.cells_used as f64 * cycles;
            alloc += m.cells_allocated as f64 * cycles;
        }
        if alloc == 0.0 {
            0.0
        } else {
            used / alloc
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::MappingSummary;
    use inca_workloads::Model;

    impl WsMapping {
        /// Maps every weighted layer of a model.
        pub(crate) fn map_model(&self, spec: &ModelSpec) -> Vec<LayerMapping> {
            spec.weighted_layers().filter_map(|l| self.map_layer(l)).collect()
        }

        /// Network-level utilization summary.
        pub(crate) fn summarize(&self, spec: &ModelSpec) -> MappingSummary {
            MappingSummary::from_layers(&self.map_model(spec))
        }
    }

    fn engine() -> WsMapping {
        WsMapping::new(&ArchConfig::baseline_paper())
    }

    #[test]
    fn dense_conv_fills_arrays() {
        // VGG conv3_2: 3x3x256 -> 256 at 8-bit: 2304 rows x 2048 cols.
        let spec = Model::Vgg16.spec();
        let layer = spec.conv_layers().find(|l| l.cin == 256 && l.cout == 256).unwrap();
        let m = engine().map_layer(layer).unwrap();
        assert_eq!(m.units, 18 * 16); // ceil(2304/128) * ceil(2048/128)
        assert!((m.utilization() - 1.0).abs() < 1e-9); // exact multiples
    }

    #[test]
    fn depthwise_utilization_collapses() {
        let spec = Model::MobileNetV2.spec();
        let dw = spec.layers().iter().find(|l| l.is_depthwise()).unwrap();
        let m = engine().map_layer(dw).unwrap();
        // One channel per array: 9 rows x 8 bit-columns of 128x128 used.
        assert!((m.utilization() - 72.0 / 16384.0).abs() < 1e-9, "utilization {}", m.utilization());
        assert_eq!(m.units, dw.cout as u64);
    }

    #[test]
    fn light_model_utilization_below_heavy() {
        let e = engine();
        let heavy = e.summarize(&Model::Vgg16.spec()).utilization();
        let light = e.summarize(&Model::MobileNetV2.spec()).utilization();
        assert!(heavy > 0.9, "heavy {heavy}");
        assert!(light < 0.75 * heavy, "light {light} vs heavy {heavy}");
    }

    #[test]
    fn compute_weighted_utilization_collapses_on_light_models() {
        // Fig 16b: the WS series drops drastically on MobileNetV2/MNasNet.
        let e = engine();
        let heavy = e.utilization_by_cycles(&Model::Vgg16.spec());
        for light_model in Model::light_suite() {
            let light = e.utilization_by_cycles(&light_model.spec());
            assert!(light < heavy / 2.0, "{light_model}: {light} vs VGG16 {heavy}");
        }
    }

    #[test]
    fn non_weighted_layers_skipped() {
        let spec = Model::Vgg16.spec();
        let pool = spec.layers().iter().find(|l| !l.is_weighted()).unwrap();
        assert!(engine().map_layer(pool).is_none());
    }

    #[test]
    #[should_panic(expected = "weight-stationary")]
    fn rejects_is_config() {
        let _ = WsMapping::new(&ArchConfig::inca_paper());
    }
}
