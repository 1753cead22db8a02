use serde::{Deserialize, Serialize};

use crate::{mnasnet, mobilenet, resnet, vgg, LayerSpec};

/// The six evaluated networks plus the CIFAR-10 variants of Fig 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Model {
    /// VGG-16 at 224 × 224 (ImageNet).
    Vgg16,
    /// VGG-19 at 224 × 224.
    Vgg19,
    /// ResNet-18 at 224 × 224.
    ResNet18,
    /// ResNet-50 at 224 × 224.
    ResNet50,
    /// MobileNetV2 (width 1.0) at 224 × 224 — a "light model".
    MobileNetV2,
    /// MNasNet-B1 (depth 1.0) at 224 × 224 — a "light model".
    MnasNet,
    /// VGG-16 adapted to CIFAR-10 (32 × 32) — used in Fig 6.
    Vgg16Cifar,
    /// ResNet-18 adapted to CIFAR-10 (32 × 32) — used in Fig 6.
    ResNet18Cifar,
}

impl Model {
    /// The six ImageNet models of the main evaluation, in the paper's
    /// presentation order.
    #[must_use]
    pub fn paper_suite() -> [Model; 6] {
        [Model::Vgg16, Model::Vgg19, Model::ResNet18, Model::ResNet50, Model::MobileNetV2, Model::MnasNet]
    }

    /// The heavy (non-light) models, reported separately in Figs 11/14.
    #[must_use]
    // Needed by tests/paper_claims.rs, crates/sim/src/comparison.rs (tests)
    // lint: allow(narrow-pub)
    pub fn heavy_suite() -> [Model; 4] {
        [Model::Vgg16, Model::Vgg19, Model::ResNet18, Model::ResNet50]
    }

    /// The light models (depthwise/pointwise convolution), discussed in
    /// §V-B4.
    #[must_use]
    pub fn light_suite() -> [Model; 2] {
        [Model::MobileNetV2, Model::MnasNet]
    }

    /// Display name as used in the paper's tables.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Model::Vgg16 => "VGG16",
            Model::Vgg19 => "VGG19",
            Model::ResNet18 => "ResNet18",
            Model::ResNet50 => "ResNet50",
            Model::MobileNetV2 => "MobileNetV2",
            Model::MnasNet => "MNasNet",
            Model::Vgg16Cifar => "VGG16-CIFAR10",
            Model::ResNet18Cifar => "ResNet18-CIFAR10",
        }
    }

    /// Builds the full layer specification.
    #[must_use]
    pub fn spec(&self) -> ModelSpec {
        let layers = match self {
            Model::Vgg16 => vgg::vgg16(224),
            Model::Vgg19 => vgg::vgg19(224),
            Model::ResNet18 => resnet::resnet18(224),
            Model::ResNet50 => resnet::resnet50(224),
            Model::MobileNetV2 => mobilenet::mobilenet_v2(224),
            Model::MnasNet => mnasnet::mnasnet_b1(224),
            Model::Vgg16Cifar => vgg::vgg16_cifar(),
            Model::ResNet18Cifar => resnet::resnet18_cifar(),
        };
        ModelSpec { model: *self, layers }
    }
}

impl std::fmt::Display for Model {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A fully resolved model description: ordered layers with shapes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelSpec {
    /// Which model this is.
    pub model: Model,
    /// The ordered layer list (residual branches linearized; downsample
    /// convs appear with their true input shapes).
    pub layers: Vec<LayerSpec>,
}

impl ModelSpec {
    /// All layers.
    #[must_use]
    pub fn layers(&self) -> &[LayerSpec] {
        &self.layers
    }

    /// The weighted (conv + FC) layers the PIM arrays execute.
    pub fn weighted_layers(&self) -> impl Iterator<Item = &LayerSpec> {
        self.layers.iter().filter(|l| l.is_weighted())
    }

    /// The convolution layers only.
    pub fn conv_layers(&self) -> impl Iterator<Item = &LayerSpec> {
        self.layers.iter().filter(|l| l.is_conv())
    }

    /// Total trainable parameters.
    #[must_use]
    pub fn param_count(&self) -> u64 {
        self.layers.iter().map(LayerSpec::param_count).sum()
    }

    /// Total multiply-accumulates of one forward pass.
    #[must_use]
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(LayerSpec::macs).sum()
    }

    /// Sum of *input* activation elements over weighted layers — the
    /// quantity Table IV prices as the activation footprint.
    #[must_use]
    pub fn activation_input_elems(&self) -> u64 {
        self.weighted_layers().map(LayerSpec::input_elems).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: f64 = (1u64 << 20) as f64;

    /// Table IV "INCA buffers" column = weight bytes at 8 bits.
    #[test]
    fn param_counts_match_table_iv_weights() {
        let cases = [
            (Model::Vgg16, 131.94),
            (Model::Vgg19, 137.00),
            (Model::ResNet18, 11.14),
            (Model::ResNet50, 24.32),
            (Model::MobileNetV2, 3.31),
            (Model::MnasNet, 4.14),
        ];
        for (model, expected_mib) in cases {
            let got = model.spec().param_count() as f64 / MIB;
            assert!(
                (got - expected_mib).abs() / expected_mib < 0.03,
                "{model}: weights {got:.2} MiB vs Table IV {expected_mib}"
            );
        }
    }

    /// Table IV "INCA RRAM" column = activation-input bytes at 8 bits.
    #[test]
    fn activation_sums_match_table_iv() {
        let cases = [
            (Model::Vgg16, 8.69),
            (Model::Vgg19, 9.94),
            (Model::ResNet18, 2.08),
            (Model::ResNet50, 10.15),
            (Model::MobileNetV2, 6.45),
            (Model::MnasNet, 5.29),
        ];
        for (model, expected_mib) in cases {
            let got = model.spec().activation_input_elems() as f64 / MIB;
            assert!(
                (got - expected_mib).abs() / expected_mib < 0.10,
                "{model}: activations {got:.2} MiB vs Table IV {expected_mib}"
            );
        }
    }

    #[test]
    fn torchvision_param_counts() {
        let cases: [(Model, u64); 6] = [
            (Model::Vgg16, 138_357_544),
            (Model::Vgg19, 143_667_240),
            (Model::ResNet18, 11_689_512),
            (Model::ResNet50, 25_557_032),
            (Model::MobileNetV2, 3_504_872),
            (Model::MnasNet, 4_383_312),
        ];
        for (model, expected) in cases {
            let got = model.spec().param_count();
            let rel = (got as f64 - expected as f64).abs() / expected as f64;
            assert!(rel < 0.02, "{model}: {got} params vs torchvision {expected}");
        }
    }

    #[test]
    fn suites_partition() {
        let all = Model::paper_suite();
        assert_eq!(all.len(), 6);
        assert_eq!(Model::heavy_suite().len() + Model::light_suite().len(), 6);
    }

    #[test]
    fn macs_in_expected_ranges() {
        // Published MAC counts: VGG16 ~15.5 G, ResNet18 ~1.8 G,
        // ResNet50 ~4.1 G, MobileNetV2 ~0.3 G.
        let g = |m: Model| m.spec().total_macs() as f64 / 1e9;
        assert!((g(Model::Vgg16) - 15.5).abs() < 1.0, "VGG16 {}", g(Model::Vgg16));
        assert!((g(Model::ResNet18) - 1.82).abs() < 0.2, "RN18 {}", g(Model::ResNet18));
        assert!((g(Model::ResNet50) - 4.1).abs() < 0.4, "RN50 {}", g(Model::ResNet50));
        assert!(g(Model::MobileNetV2) < 0.5, "MBv2 {}", g(Model::MobileNetV2));
    }

    #[test]
    fn cifar_variants_are_smaller() {
        assert!(
            Model::Vgg16Cifar.spec().activation_input_elems() < Model::Vgg16.spec().activation_input_elems()
        );
        assert!(Model::ResNet18Cifar.spec().total_macs() < Model::ResNet18.spec().total_macs());
    }

    #[test]
    fn first_layer_shapes() {
        for m in Model::paper_suite() {
            let spec = m.spec();
            let first = spec.layers()[0];
            assert_eq!(first.cin, 3, "{m}");
            assert_eq!(first.h, 224, "{m}");
        }
    }

    #[test]
    fn every_paper_model_has_a_conv_layer() {
        for m in Model::paper_suite() {
            assert!(m.spec().conv_layers().next().is_some_and(LayerSpec::is_conv), "{m}");
        }
    }
}
