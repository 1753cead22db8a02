use serde::{Deserialize, Serialize};

use crate::tensor::max_abs;
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

    /// Panics unless both bit depths (where set) lie in `1..=24` and both
    /// ranges are finite and positive.
    pub(crate) fn assert_valid(&self) {
        assert_grid("weight", self.weight_bits, self.weight_range);
        assert_grid("activation", self.activation_bits, self.activation_range);
    }

    /// Applies weight fake-quantization to the whole network (no-op at full
    /// precision). The grid is auto-ranged per layer: `[-m·r, m·r]` where
    /// `m` is the layer's max-abs weight and `r` is
    /// [`QuantConfig::weight_range`] — the standard post-training
    /// quantization calibration.
    ///
    /// # Panics
    ///
    /// Panics if `weight_bits` is set outside `1..=24` or `weight_range`
    /// is not finite and positive.
    pub(crate) fn apply_to_weights(&self, net: &mut Network) {
        assert_grid("weight", self.weight_bits, self.weight_range);
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
            let grid = Grid::new(scale * r, bits);
            layer.map_weights(&mut |w| grid.quantize(w));
        }
    }

    /// Applies activation fake-quantization to a layer output (no-op at
    /// full precision). Auto-ranged per tensor (dynamic quantization).
    ///
    /// # Panics
    ///
    /// Panics if `activation_bits` is set outside `1..=24` or
    /// `activation_range` is not finite and positive.
    #[must_use]
    pub fn apply_to_activation(&self, mut t: Tensor) -> Tensor {
        assert_grid("activation", self.activation_bits, self.activation_range);
        let Some(bits) = self.activation_bits else { return t };
        let scale = max_abs(t.data());
        if scale == 0.0 {
            return t;
        }
        // Activations may be signed pre-ReLU; use a symmetric grid.
        let grid = Grid::new(scale * self.activation_range, bits);
        for v in t.data_mut() {
            *v = grid.quantize(*v);
        }
        t
    }
}

/// The deepest grid: every level count `2^bits − 1` up to 24 bits is an
/// exact `f32`.
const MAX_BITS: u8 = 24;

/// Panics unless `bits` (where set) lies in `1..=MAX_BITS` and `range` is
/// finite and positive. Past 24 bits the level count is not an exact
/// `f32`, and from 32 the shift overflows; 0 bits or a zero range make
/// every level NaN; a negative or non-finite range spans no grid.
fn assert_grid(what: &str, bits: Option<u8>, range: f32) {
    if let Some(bits) = bits {
        assert!((1..=MAX_BITS).contains(&bits), "{what} bits must lie in 1..={MAX_BITS}, got {bits}");
    }
    assert!(range.is_finite() && range > 0.0, "{what} range must be finite and positive, got {range}");
}

/// A symmetric grid over `[-range, range]` with `levels + 1` points, and
/// the constants every value quantized on it shares.
struct Grid {
    range: f32,
    two_range: f32,
    levels: f32,
}

impl Grid {
    fn new(range: f32, bits: u8) -> Self {
        Self { range, two_range: 2.0 * range, levels: ((1u32 << bits) - 1) as f32 }
    }

    /// Clips `value` to the grid and snaps it to the nearest point, halves
    /// away from zero. A NaN stays a NaN.
    fn quantize(&self, value: f32) -> f32 {
        // `f32::clamp`'s two selects, without its `min <= max` check.
        let low = if value < -self.range { -self.range } else { value };
        let clipped = if low > self.range { self.range } else { low };
        let t = (clipped + self.range) / self.two_range;
        let code = round_ties_away(t * self.levels);
        code / self.levels * 2.0 * self.range - self.range
    }
}

/// `f32::round` (halves away from zero), bit for bit on every input with
/// any NaN giving a NaN, but inline and branch-free: at the x86-64
/// baseline `f32::round` is a call to libm's `roundf`, and a saturating
/// `as i32` keeps a loop from vectorizing.
fn round_ties_away(x: f32) -> f32 {
    const TWO_POW_23: f32 = 8_388_608.0;
    let a = x.abs();
    // Below 2^23, adding and taking away 2^23 rounds to an integer, ties
    // to even; stepping down where that went up gives the floor.
    let even = (a + TWO_POW_23) - TWO_POW_23;
    let floor = if even > a { even - 1.0 } else { even };
    // The fraction the floor leaves is exact.
    let r = if a - floor >= 0.5 { floor + 1.0 } else { floor };
    // From 2^23 up every f32 is an integer, and a NaN fails the compare
    // too: both pass through. A negative x that rounds to zero gives −0,
    // as `f32::round` does.
    if a < TWO_POW_23 {
        r.copysign(x)
    } else {
        x
    }
}

impl Default for QuantConfig {
    fn default() -> Self {
        Self::full_precision()
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::layers;
    use crate::layers::assert_same_bits;

    /// `apply_to_activation` before its constants were hoisted, kept as its
    /// bit-exact oracle: a sequential max fold, then `f32::clamp` and
    /// `f32::round` per element.
    fn apply_to_activation_oracle(cfg: &QuantConfig, mut t: Tensor) -> Tensor {
        let Some(bits) = cfg.activation_bits else { return t };
        let scale = t.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        if scale == 0.0 {
            return t;
        }
        let range = scale * cfg.activation_range;
        for v in t.data_mut() {
            let levels = ((1u32 << bits) - 1) as f32;
            let clipped = v.clamp(-range, range);
            let t = (clipped + range) / (2.0 * range);
            let code = (t * levels).round();
            *v = code / levels * 2.0 * range - range;
        }
        t
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The hoisted quantizer reproduces the oracle bit for bit, with
        /// ±0, ±∞, NaN and values on both sides of the clipping range.
        #[test]
        fn activation_quantizer_matches_the_oracle_bit_for_bit(
            len in 1usize..=40,
            bits in 1u8..=24,
            range in 0.25f32..1.5,
            specials in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let levels = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
            let data = (0..len)
                .map(|_| match rng.gen_range(0..20usize) {
                    i @ 0..=4 if specials => levels[i],
                    _ => rng.gen_range(-3.0f32..3.0),
                })
                .collect();
            let t = Tensor::from_vec(data, &[len]);
            let cfg = QuantConfig { activation_bits: Some(bits), activation_range: range, ..QuantConfig::full_precision() };
            let (fast, oracle) = (cfg.apply_to_activation(t.clone()), apply_to_activation_oracle(&cfg, t));
            assert_same_bits("activations", fast.data(), oracle.data());
        }
    }

    #[test]
    #[should_panic(expected = "activation bits must lie in 1..=24, got 32")]
    fn apply_to_activation_rejects_32_bits() {
        let cfg = QuantConfig { activation_bits: Some(32), ..QuantConfig::full_precision() };
        let _ = cfg.apply_to_activation(Tensor::full(&[4], 1.0));
    }

    #[test]
    #[should_panic(expected = "weight range must be finite and positive, got -1")]
    fn apply_to_weights_rejects_a_negative_range() {
        let mut net = Network::new();
        net.push(layers::Linear::new(2, 2, 0));
        let cfg = QuantConfig { weight_bits: Some(8), weight_range: -1.0, ..QuantConfig::full_precision() };
        cfg.apply_to_weights(&mut net);
    }

    #[test]
    fn one_and_24_bits_are_valid() {
        for bits in [1, 24] {
            let cfg = QuantConfig {
                weight_bits: Some(bits),
                activation_bits: Some(bits),
                ..QuantConfig::full_precision()
            };
            cfg.assert_valid();
            let y = cfg.apply_to_activation(Tensor::from_vec(vec![-1.0, 0.5, 1.0], &[3]));
            assert!(y.data().iter().all(|v| v.is_finite()), "{bits} bits: {:?}", y.data());
        }
    }

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
        assert_eq!(Grid::new(1.0, 8).quantize(-5.0), -1.0);
        assert_eq!(Grid::new(1.0, 8).quantize(5.0), 1.0);
        assert!((Grid::new(1.0, 8).quantize(0.0)).abs() < 0.005);
    }

    #[test]
    fn fewer_bits_coarser_grid() {
        let fine = Grid::new(1.0, 8).quantize(0.3);
        let coarse = Grid::new(1.0, 2).quantize(0.3);
        assert!((fine - 0.3).abs() < (coarse - 0.3).abs());
    }

    #[test]
    fn one_bit_symmetric_is_sign_like() {
        // 1-bit symmetric grid has 2 levels: -1 and +1.
        assert_eq!(Grid::new(1.0, 1).quantize(0.4), 1.0);
        assert_eq!(Grid::new(1.0, 1).quantize(-0.4), -1.0);
    }

    #[test]
    fn quantization_error_bounded_by_half_step() {
        let bits = 5u8;
        let range = 2.0f32;
        let step = 2.0 * range / ((1u32 << bits) - 1) as f32;
        for i in 0..100 {
            let x = -range + 2.0 * range * i as f32 / 99.0;
            let q = Grid::new(range, bits).quantize(x);
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
