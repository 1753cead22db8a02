//! Buffer access counting — Eqs 5/6, Table III and Fig 7a.
//!
//! The paper quantifies dataflow quality as the number of bus-width-
//! quantized buffer accesses:
//!
//! * Eq 5 (fetch one output's operands): `ceil(K_H·K_W·C·bits / bus)`.
//! * Eq 6 (save one layer's outputs):    `ceil(N·bits / bus) · O_H·O_W`.
//! * Baseline per layer: `Eq5 · O_H·O_W + Eq6` — inputs re-fetched for
//!   every output position, outputs saved for the pipeline.
//! * INCA per layer:     `Eq5 · N` — a weight fetch is reused across the
//!   entire output channel; outputs stay in RRAM.

use inca_circuit::Bus;
use inca_workloads::{LayerSpec, ModelSpec};
use serde::{Deserialize, Serialize};

/// Access-counting configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessConfig {
    /// Data precision in bits.
    pub data_bits: u32,
    /// Bus width in bits.
    pub bus_bits: u32,
    /// Include fully-connected layers (Table III counts conv layers; Fig 7a
    /// uses the full network).
    pub include_fc: bool,
}

impl AccessConfig {
    /// The Table III configuration: 8-bit data, 256-bit bus, conv only.
    #[must_use]
    pub fn table_iii() -> Self {
        Self { data_bits: 8, bus_bits: 256, include_fc: false }
    }

    /// The Fig 7a configuration: 16-bit data, 256-bit bus, conv only.
    #[must_use]
    pub fn fig_7a() -> Self {
        Self { data_bits: 16, bus_bits: 256, include_fc: false }
    }

    fn bus(&self) -> Bus {
        Bus::new(self.bus_bits)
    }

    fn layers<'a>(&self, spec: &'a ModelSpec) -> impl Iterator<Item = &'a LayerSpec> + use<'a> {
        let include_fc = self.include_fc;
        spec.weighted_layers().filter(move |l| include_fc || l.is_conv())
    }
}

/// Eq 5: bus transfers to fetch one output element's operands.
#[must_use]
pub(crate) fn eq5_fetch_per_output(layer: &LayerSpec, cfg: &AccessConfig) -> u64 {
    cfg.bus().transfers(layer.fan_in(), cfg.data_bits)
}

/// Eq 6: bus transfers to save one layer's outputs.
#[must_use]
pub(crate) fn eq6_save_outputs(layer: &LayerSpec, cfg: &AccessConfig) -> u64 {
    cfg.bus().transfers(layer.cout as u64, cfg.data_bits) * (layer.oh * layer.ow) as u64
}

/// Baseline (WS) buffer accesses for one layer:
/// `Eq5 · O_H·O_W + Eq6` (Table III caption).
#[must_use]
pub(crate) fn baseline_layer_accesses(layer: &LayerSpec, cfg: &AccessConfig) -> u64 {
    eq5_fetch_per_output(layer, cfg) * (layer.oh * layer.ow) as u64 + eq6_save_outputs(layer, cfg)
}

/// INCA (IS) buffer accesses for one layer: `Eq5 · N` — one weight-channel
/// fetch per output channel.
#[must_use]
pub(crate) fn inca_layer_accesses(layer: &LayerSpec, cfg: &AccessConfig) -> u64 {
    eq5_fetch_per_output(layer, cfg) * layer.cout as u64
}

/// Total baseline accesses over a network.
#[must_use]
pub fn baseline_total(spec: &ModelSpec, cfg: &AccessConfig) -> u64 {
    cfg.layers(spec).map(|l| baseline_layer_accesses(l, cfg)).sum()
}

/// Total INCA accesses over a network.
#[must_use]
pub fn inca_total(spec: &ModelSpec, cfg: &AccessConfig) -> u64 {
    cfg.layers(spec).map(|l| inca_layer_accesses(l, cfg)).sum()
}

/// Per-layer access pairs `(baseline, inca)` — the layerwise trend behind
/// Fig 12b.
#[must_use]
pub fn per_layer(spec: &ModelSpec, cfg: &AccessConfig) -> Vec<(u64, u64)> {
    cfg.layers(spec).map(|l| (baseline_layer_accesses(l, cfg), inca_layer_accesses(l, cfg))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use inca_workloads::Model;

    #[test]
    fn inca_vgg16_matches_table_iii() {
        // Table III: INCA VGG16 = 460,000 (rounded); exact formula value is
        // 459,712 — derived in DESIGN.md.
        let total = inca_total(&Model::Vgg16.spec(), &AccessConfig::table_iii());
        assert_eq!(total, 459_712);
    }

    #[test]
    fn inca_accesses_close_to_table_iii_all_models() {
        let cases = [
            (Model::Vgg16, 460_000u64),
            (Model::Vgg19, 625_888),
            (Model::ResNet18, 349_024),
            (Model::ResNet50, 508_950),
            (Model::MobileNetV2, 66_832),
            (Model::MnasNet, 92_333),
        ];
        let cfg = AccessConfig::table_iii();
        for (model, expected) in cases {
            let got = inca_total(&model.spec(), &cfg);
            let rel = (got as f64 - expected as f64).abs() / expected as f64;
            // VGGs match exactly; the residual-network deviations come from
            // downsample-conv accounting choices the paper doesn't publish
            // (see EXPERIMENTS.md).
            assert!(rel < 0.45, "{model}: {got} vs Table III {expected}");
        }
    }

    #[test]
    fn baseline_needs_many_more_accesses() {
        // Table III shows 2-3.4x; the literal Eq5·OHOW + Eq6 evaluation
        // gives a larger gap (see EXPERIMENTS.md) — the qualitative claim
        // (baseline ≫ INCA, VGGs worse than ResNets) must hold.
        let cfg = AccessConfig::table_iii();
        for model in Model::paper_suite() {
            let spec = model.spec();
            let base = baseline_total(&spec, &cfg);
            let inca = inca_total(&spec, &cfg);
            // Table III: 1.4-3.9x more accesses depending on the network.
            assert!(base as f64 > 1.3 * inca as f64, "{model}: baseline {base} vs inca {inca}");
        }
    }

    #[test]
    fn vgg_ratio_exceeds_resnet_ratio() {
        // §V-B1: "VGGs would experience higher improvement than ResNets".
        let cfg = AccessConfig::table_iii();
        let ratio = |m: Model| {
            let spec = m.spec();
            baseline_total(&spec, &cfg) as f64 / inca_total(&spec, &cfg) as f64
        };
        assert!(ratio(Model::Vgg16) > ratio(Model::ResNet18));
        assert!(ratio(Model::Vgg19) > ratio(Model::ResNet50));
    }

    #[test]
    fn fig7a_sixteen_bit_doubles_fetch_width() {
        let spec = Model::Vgg16.spec();
        let t8 = inca_total(&spec, &AccessConfig::table_iii());
        let t16 = inca_total(&spec, &AccessConfig::fig_7a());
        assert!(t16 > t8 && t16 <= 2 * t8 + 1000);
    }

    #[test]
    fn eq5_first_vgg_layer() {
        // ceil(3·3·3·16/256) = 2 (§III-B worked example).
        let spec = Model::Vgg16.spec();
        let first = spec.conv_layers().next().expect("VGG16 has conv layers");
        assert_eq!(eq5_fetch_per_output(first, &AccessConfig::fig_7a()), 2);
    }

    #[test]
    fn per_layer_matches_totals() {
        let cfg = AccessConfig::table_iii();
        let spec = Model::ResNet18.spec();
        let pairs = per_layer(&spec, &cfg);
        let base_sum: u64 = pairs.iter().map(|p| p.0).sum();
        let inca_sum: u64 = pairs.iter().map(|p| p.1).sum();
        assert_eq!(base_sum, baseline_total(&spec, &cfg));
        assert_eq!(inca_sum, inca_total(&spec, &cfg));
    }
}
