use serde::{Deserialize, Serialize};

use crate::{Network, Tensor};

/// Uniform fake-quantization configuration for the Table I study.
///
/// Table I measures the accuracy drop when the weight or activation bit
/// depth falls below 8 bits. Fake quantization rounds values to the
/// `2^bits`-level uniform grid over a symmetric range while keeping f32
/// storage, exactly as post-training quantization studies do.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuantConfig {
    /// Weight bit depth (`None` = full precision).
    pub weight_bits: Option<u8>,
    /// Activation bit depth (`None` = full precision).
    pub activation_bits: Option<u8>,
    /// Clipping range for weights as a multiple of the per-layer max-abs
    /// weight (1.0 = no clipping, just grid rounding).
    pub weight_range: f32,
    /// Clipping range for activations as a multiple of the per-tensor
    /// max-abs value.
    pub activation_range: f32,
}

impl QuantConfig {
    /// Full precision (no quantization).
    #[must_use]
    pub fn full_precision() -> Self {
        Self { weight_bits: None, activation_bits: None, weight_range: 1.0, activation_range: 1.0 }
    }

    /// Quantizes a single value to a symmetric `bits`-bit grid over
    /// `[-range, range]`.
    #[must_use]
    pub fn quantize_symmetric(value: f32, range: f32, bits: u8) -> f32 {
        debug_assert!(bits >= 1 && range > 0.0);
        let levels = ((1u32 << bits) - 1) as f32;
        let clipped = value.clamp(-range, range);
        let t = (clipped + range) / (2.0 * range);
        let code = round_ties_away(t * levels);
        code / levels * 2.0 * range - range
    }

    /// Applies weight fake-quantization to the whole network (no-op at full
    /// precision). The grid is auto-ranged per layer: `[-m·r, m·r]` where
    /// `m` is the layer's max-abs weight and `r` is
    /// [`QuantConfig::weight_range`] — the standard post-training
    /// quantization calibration.
    pub fn apply_to_weights(&self, net: &mut Network) {
        let Some(bits) = self.weight_bits else { return };
        let r = self.weight_range;
        for layer in net.layers_mut() {
            let mut scale = 0.0f32;
            layer.map_weights(&mut |w| {
                scale = scale.max(w.abs());
                w
            });
            if scale == 0.0 {
                continue;
            }
            let range = scale * r;
            layer.map_weights(&mut |w| Self::quantize_symmetric(w, range, bits));
        }
    }

    /// Applies activation fake-quantization to a layer output (no-op at
    /// full precision). Auto-ranged per tensor (dynamic quantization).
    #[must_use]
    pub fn apply_to_activation(&self, mut t: Tensor) -> Tensor {
        let Some(bits) = self.activation_bits else { return t };
        let scale = t.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        if scale == 0.0 {
            return t;
        }
        let range = scale * self.activation_range;
        for v in t.data_mut() {
            // Activations may be signed pre-ReLU; use a symmetric grid.
            *v = Self::quantize_symmetric(*v, range, bits);
        }
        t
    }
}

/// `f32::round` (halves away from zero), bit for bit on every input with
/// any NaN giving a NaN, but inline: at the x86-64 baseline `f32::round`
/// is a call to libm's `roundf`.
fn round_ties_away(x: f32) -> f32 {
    // From 2^23 up every f32 is an integer.
    if x.is_nan() || x.abs() >= 8_388_608.0 {
        return x;
    }
    // Truncation toward zero and the fraction it leaves are both exact.
    let t = x as i32 as f32;
    let frac = x - t;
    let r = if frac >= 0.5 {
        t + 1.0
    } else if frac <= -0.5 {
        t - 1.0
    } else {
        t
    };
    // A negative x that rounds to zero gives −0, as `f32::round` does.
    r.copysign(x)
}

impl Default for QuantConfig {
    fn default() -> Self {
        Self::full_precision()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers;

    /// Rounding agrees with `f32::round` bit for bit (any NaN equal to any
    /// NaN) at the edge cases and on a stride through all bit patterns.
    #[test]
    fn inline_round_matches_f32_round() {
        let edges = [
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.5,
            -2.5,
            0.499_999_97,
            -0.499_999_97,
            8_388_607.5,
            -8_388_607.5,
            8_388_608.0,
            16_777_215.0,
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            1e-45,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
        ];
        let halves = (-1000..1000).map(|i| i as f32 + 0.5).flat_map(|h| [h.next_down(), h, h.next_up()]);
        let stride = (0..=u32::MAX).step_by(4099).map(f32::from_bits);
        for x in edges.into_iter().chain(halves).chain(stride) {
            let (got, want) = (round_ties_away(x), x.round());
            assert!(
                got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                "{x:e}: {got:e} vs {want:e}"
            );
        }
    }

    #[test]
    fn symmetric_grid_endpoints() {
        assert_eq!(QuantConfig::quantize_symmetric(-5.0, 1.0, 8), -1.0);
        assert_eq!(QuantConfig::quantize_symmetric(5.0, 1.0, 8), 1.0);
        assert!((QuantConfig::quantize_symmetric(0.0, 1.0, 8)).abs() < 0.005);
    }

    #[test]
    fn fewer_bits_coarser_grid() {
        let fine = QuantConfig::quantize_symmetric(0.3, 1.0, 8);
        let coarse = QuantConfig::quantize_symmetric(0.3, 1.0, 2);
        assert!((fine - 0.3).abs() < (coarse - 0.3).abs());
    }

    #[test]
    fn one_bit_symmetric_is_sign_like() {
        // 1-bit symmetric grid has 2 levels: -1 and +1.
        assert_eq!(QuantConfig::quantize_symmetric(0.4, 1.0, 1), 1.0);
        assert_eq!(QuantConfig::quantize_symmetric(-0.4, 1.0, 1), -1.0);
    }

    #[test]
    fn quantization_error_bounded_by_half_step() {
        let bits = 5u8;
        let range = 2.0f32;
        let step = 2.0 * range / ((1u32 << bits) - 1) as f32;
        for i in 0..100 {
            let x = -range + 2.0 * range * i as f32 / 99.0;
            let q = QuantConfig::quantize_symmetric(x, range, bits);
            assert!((q - x).abs() <= step / 2.0 + 1e-6);
        }
    }

    #[test]
    fn apply_to_weights_snaps_to_auto_ranged_grid() {
        let mut net = Network::new();
        net.push(layers::Linear::new(8, 8, 0));
        // The grid scale is the layer's max-abs weight.
        let mut scale = 0.0f32;
        net.map_weights(&mut |w| {
            scale = scale.max(w.abs());
            w
        });
        let cfg = QuantConfig { weight_bits: Some(2), ..QuantConfig::full_precision() };
        cfg.apply_to_weights(&mut net);
        let levels = [-scale, -scale / 3.0, scale / 3.0, scale];
        net.map_weights(&mut |w| {
            assert!(levels.iter().any(|&l| (w - l).abs() < 1e-5), "weight {w} off-grid (scale {scale})");
            w
        });
    }

    #[test]
    fn auto_range_preserves_large_weights() {
        // Trained weights often exceed 1.0; the auto-ranged grid must not
        // clip them.
        let mut net = Network::new();
        net.push(layers::Linear::new(2, 1, 0));
        net.map_weights(&mut |_| 3.0);
        let cfg = QuantConfig { weight_bits: Some(8), ..QuantConfig::full_precision() };
        cfg.apply_to_weights(&mut net);
        net.map_weights(&mut |w| {
            assert!((w - 3.0).abs() < 0.05, "weight {w} was clipped");
            w
        });
    }

    #[test]
    fn full_precision_is_identity() {
        let cfg = QuantConfig::full_precision();
        let t = Tensor::from_vec(vec![0.123456], &[1]);
        assert_eq!(cfg.apply_to_activation(t.clone()), t);
    }
}
