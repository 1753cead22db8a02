use inca_workloads::{LayerSpec, ModelSpec};

use super::{LayerMapping, MappingSummary};
use crate::ArchConfig;

/// The input-stationary (INCA) mapping engine (§IV-C).
///
/// Each weighted layer's *input* feature map is partitioned into
/// `subarray × subarray` tiles; each partition of all channel-wise samples
/// maps to one 3D stack, with the batch occupying the stacked planes.
/// 1-bit cells mean one stack per activation bit. Pointwise and FC layers
/// fold their accumulation dimension onto the 2D plane and slide with
/// stride equal to the window size.
#[derive(Debug, Clone)]
pub struct IsMapping {
    side: u64,
    planes: u64,
    data_bits: u64,
    batch: u64,
}

impl IsMapping {
    /// Creates the engine from an architecture configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is not input-stationary.
    #[must_use]
    pub fn new(config: &ArchConfig) -> Self {
        assert_eq!(
            config.dataflow,
            crate::Dataflow::InputStationary,
            "IsMapping requires an input-stationary configuration"
        );
        Self {
            side: config.subarray as u64,
            planes: config.stacked_planes as u64,
            data_bits: u64::from(config.data_bits),
            batch: config.batch_size as u64,
        }
    }

    /// Creates an engine with an explicit array side (for the Fig 16a array
    /// size sweep).
    #[must_use]
    pub fn with_side(config: &ArchConfig, side: usize) -> Self {
        let mut e = Self::new(config);
        e.side = side as u64;
        e
    }

    /// Maps one weighted layer; returns `None` for non-weighted layers.
    #[must_use]
    pub fn map_layer(&self, layer: &LayerSpec) -> Option<LayerMapping> {
        if !layer.is_weighted() {
            return None;
        }
        let cells_per_stack = self.side * self.side * self.planes;
        let batch_in_stack = self.batch.min(self.planes);
        let (partitions, used_per_bitplane) = if layer.is_pointwise() || layer.is_linear() {
            // Fold the accumulation dimension (input channels / features)
            // onto the plane; every element of the input participates.
            let elems = layer.input_elems();
            (elems.div_ceil(self.side * self.side), elems)
        } else {
            // Spatial partitioning, one set of tiles per input channel.
            let tiles = (layer.h as u64).div_ceil(self.side) * (layer.w as u64).div_ceil(self.side);
            let per_channel_used = (layer.h * layer.w) as u64;
            (tiles * layer.cin as u64, per_channel_used * layer.cin as u64)
        };
        let units = partitions * self.data_bits;
        let cells_used = used_per_bitplane * self.data_bits * batch_in_stack;
        Some(LayerMapping { units, cells_used, cells_allocated: units * cells_per_stack })
    }

    /// Maps every weighted layer of a model.
    #[must_use]
    pub(crate) fn map_model(&self, spec: &ModelSpec) -> Vec<LayerMapping> {
        spec.weighted_layers().filter_map(|l| self.map_layer(l)).collect()
    }

    /// Network-level utilization (Fig 16a/16b, INCA series).
    #[must_use]
    pub fn utilization(&self, spec: &ModelSpec) -> f64 {
        MappingSummary::from_layers(&self.map_model(spec)).utilization()
    }
}

/// RRAM parameters needed when the input is *unrolled* for GEMM-based
/// convolution: every window's elements are replicated
/// (`OH·OW·K·K·C` per conv layer) — the rejected design of Fig 7b.
#[must_use]
pub fn unrolled_input_elems(spec: &ModelSpec) -> u64 {
    spec.weighted_layers()
        .map(|l| {
            if l.is_conv() {
                (l.oh * l.ow) as u64 * l.fan_in() * if l.is_depthwise() { l.cout as u64 } else { 1 }
            } else {
                l.input_elems()
            }
        })
        .sum()
}

/// RRAM parameters with INCA's direct convolution: inputs keep their
/// original shape (`H·W·C` per layer) — the adopted design of Fig 7b.
#[must_use]
pub fn direct_input_elems(spec: &ModelSpec) -> u64 {
    spec.weighted_layers().map(LayerSpec::input_elems).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use inca_workloads::Model;

    fn engine() -> IsMapping {
        IsMapping::new(&ArchConfig::inca_paper())
    }

    #[test]
    fn perfect_tiling_at_16() {
        // 224 = 14 x 16: the first VGG conv tiles exactly.
        let spec = Model::Vgg16.spec();
        let first = spec.conv_layers().next().expect("VGG16 has conv layers");
        let m = engine().map_layer(first).unwrap();
        assert!((m.utilization() - 1.0).abs() < 1e-9, "util {}", m.utilization());
        // 14x14 tiles x 3 channels x 8 bits.
        assert_eq!(m.units, 14 * 14 * 3 * 8);
    }

    #[test]
    fn utilization_drops_with_array_size() {
        // Fig 16a: 16x16 is near-optimal; larger arrays waste cells.
        let spec = Model::Vgg16.spec();
        let cfg = ArchConfig::inca_paper();
        let mut prev = 1.1;
        for side in [16usize, 32, 64, 128] {
            let u = IsMapping::with_side(&cfg, side).utilization(&spec);
            assert!(u <= prev + 1e-9, "side {side}: {u} > {prev}");
            prev = u;
        }
        let u16 = IsMapping::with_side(&cfg, 16).utilization(&spec);
        let u128 = IsMapping::with_side(&cfg, 128).utilization(&spec);
        assert!(u16 > 0.85, "16x16 utilization {u16}");
        assert!(u128 < 0.75, "128x128 utilization {u128}");
    }

    #[test]
    fn utilization_stable_across_networks() {
        // Fig 16b: INCA's utilization does not collapse on light models.
        let e = engine();
        let heavy = e.utilization(&Model::Vgg16.spec());
        let light = e.utilization(&Model::MobileNetV2.spec());
        assert!(light > heavy * 0.6, "light {light} vs heavy {heavy}");
        assert!(light > 0.5, "light-model utilization {light}");
    }

    #[test]
    fn batch_fills_planes() {
        let spec = Model::Vgg16.spec();
        let first = spec.conv_layers().next().expect("VGG16 has conv layers");
        let full = engine().map_layer(first).unwrap();
        let mut half_batch = engine();
        half_batch.batch = 32;
        let half = half_batch.map_layer(first).unwrap();
        assert!((half.utilization() - full.utilization() / 2.0).abs() < 1e-9);
    }

    #[test]
    fn unroll_blowup_matches_fig7b_shape() {
        // Fig 7b: 4.4x, 5.0x, 8.0x, 2.1x for VGG16, VGG19, RN18, RN50. The
        // paper's exact accounting is not published; our im2col accounting
        // reproduces the two qualitative claims: every network blows up by
        // several x, and pointwise-heavy ResNet50 blows up the least (1x1
        // kernels replicate nothing).
        let ratio = |m: Model| {
            let spec = m.spec();
            unrolled_input_elems(&spec) as f64 / direct_input_elems(&spec) as f64
        };
        let vgg16 = ratio(Model::Vgg16);
        let vgg19 = ratio(Model::Vgg19);
        let rn18 = ratio(Model::ResNet18);
        let rn50 = ratio(Model::ResNet50);
        for (name, r) in [("VGG16", vgg16), ("VGG19", vgg19), ("RN18", rn18), ("RN50", rn50)] {
            assert!(r > 2.0, "{name} blow-up {r} should exceed 2x");
        }
        assert!(rn50 < vgg16 && rn50 < rn18, "ResNet50 {rn50} should be the smallest blow-up");
    }

    #[test]
    #[should_panic(expected = "input-stationary")]
    fn rejects_ws_config() {
        let _ = IsMapping::new(&ArchConfig::baseline_paper());
    }
}
