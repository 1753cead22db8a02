//! Functional in-situ training on the simulated INCA hardware — the
//! paper's flagship capability (§IV-C "Backward", Fig 10).
//!
//! Three hardware behaviours are executed for real here:
//!
//! 1. **Resident activations** — the layer input written for the forward
//!    pass stays in the planes and serves the weight-update convolution.
//! 2. **Weight update by direct convolution (Eq. 4)** — the gradient
//!    `∂W(kh, kw, c, n) = Σ_{y,x} δ(y, x, n) · X(y + kh, x + kw, c)` is a
//!    convolution of the resident input with the error supplied as the
//!    kernel: the hardware slides a `O_H × O_W` window of δ-codes over the
//!    stored X-bit-planes — exactly the red-box computation of Fig 4/10.
//!    No gradient read is digitized, so each position is the exact
//!    integer correlation of the δ codes with the resident codes.
//! 3. **Error overwrite** — after the update, the errors replace the
//!    activations in the same cells (one one-shot write per bit-plane),
//!    freeing the paper's "redundant RRAM".
//!
//! The unit holds its channel as the code image that `HwConv` programs
//! (one sample, one channel, no padding): the planes' cells, one code per
//! cell, with each write's program pulses recorded when it happens.
//!
//! The test suite checks the hardware gradient against the float
//! framework's `Conv2d` backward pass and against a bit-serial oracle
//! that builds the planes from the unit's codes and reads them one (side,
//! δ bit, activation bit) at a time.

use inca_nn::Tensor;
use inca_telemetry::Event;

use crate::hw_exec::{DATA_BITS, WEIGHT_BITS};
use crate::hw_kernel::{CodeImage, SignedQuantizer};
use crate::{Error, Result};

/// A single-channel-pair in-situ gradient unit: holds one input channel
/// resident in its bit-planes and computes weight gradients against
/// supplied error maps.
///
/// # Examples
///
/// ```
/// use inca_core::HwGradientUnit;
/// use inca_nn::Tensor;
///
/// // A 5x5 input channel resident in the arrays.
/// let x = Tensor::from_vec((0..25).map(|i| i as f32 / 25.0).collect(), &[5, 5]);
/// let unit = HwGradientUnit::program(&x)?;
/// // A 3x3 error map (valid conv with a 3x3 kernel on 5x5).
/// let delta = Tensor::from_vec(vec![0.1; 9], &[3, 3]);
/// let grad = unit.weight_gradient(&delta, 3)?;
/// assert_eq!(grad.shape(), &[3, 3]);
/// # Ok::<(), inca_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct HwGradientUnit {
    /// The resident channel's codes, `[1][1][H][W]`.
    image: CodeImage,
    /// Write pulses the resident planes have received.
    writes: u64,
}

impl HwGradientUnit {
    /// Writes one input channel (`[H, W]` tensor) into bit-planes — the
    /// forward pass's activation write.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for a non-2-D or empty input.
    pub fn program(x: &Tensor) -> Result<Self> {
        if x.shape().len() != 2 || x.is_empty() {
            return Err(Error::Config(format!("expected a nonempty [H, W] channel, got {:?}", x.shape())));
        }
        let image = CodeImage::quantize(x, 0);
        Ok(Self { writes: image.record_writes(1), image })
    }

    /// Computes the `k × k` weight gradient for this channel against the
    /// error map `delta` (`[O_H, O_W]`) by direct-convolution reads of the
    /// resident input: gradient position `(kh, kw)` is one window read at
    /// offset `(kh, kw)` with δ as the kernel.
    ///
    /// δ is quantized like a weight, by the same signed quantizer: signed
    /// 8-bit, a 7-bit magnitude on either side of the differential pair,
    /// with a NaN error at code 0. A gradient read is never
    /// digitized, so no read saturates, and the shift-add of a position's
    /// bit-serial reads (one per δ side, δ bit and activation bit) is
    /// exactly the integer correlation `Σ q_δ(y, x) · code(y + kh, x + kw)`
    /// with the resident codes, which this computes directly. Telemetry
    /// counts those reads: per position, `2 · WEIGHT_BITS · DATA_BITS`
    /// [`Event::XbarReadPulse`]s and [`Event::BitSerialCycle`]s, `O_H · O_W`
    /// [`Event::DacDrive`]s per read, and no [`Event::AdcConversion`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for `k = 0`, and when `delta` is not the
    /// nonempty error map of a valid `k × k` convolution of the resident
    /// input.
    pub fn weight_gradient(&self, delta: &Tensor, k: usize) -> Result<Tensor> {
        if k == 0 {
            return Err(Error::Config("a weight gradient needs a kernel side of at least 1".into()));
        }
        if delta.shape().len() != 2 {
            return Err(Error::Config(format!("expected [OH, OW] errors, got {:?}", delta.shape())));
        }
        let (oh, ow) = (delta.shape()[0], delta.shape()[1]);
        // A valid conv maps H to H − k + 1; compared without a subtraction
        // that could underflow.
        let (h, w) = (self.image.ph, self.image.pw);
        if oh == 0 || ow == 0 || oh + k != h + 1 || ow + k != w + 1 {
            return Err(Error::Config(format!(
                "error map {oh}x{ow} inconsistent with {k}x{k} valid conv of {h}x{w}"
            )));
        }
        let d_quantizer = SignedQuantizer::of(delta.data());
        let mut d_codes = vec![0i16; delta.len()];
        d_quantizer.codes(delta.data(), &mut d_codes);
        // Offset-correction term: Σδ (for the x_min offset of the codes).
        let delta_sum: f32 = delta.data().iter().sum();

        let _span = inca_telemetry::span("hw_train.weight_gradient");
        let (codes, quantizer) = (self.image.channel(0, 0), self.image.quantizer);
        let mut grad = Tensor::zeros(&[k, k]);
        for (pos, slot) in grad.data_mut().iter_mut().enumerate() {
            let (kh, kw) = (pos / k, pos % k);
            let acc: i64 = d_codes
                .chunks_exact(ow)
                .enumerate()
                .map(|(y, row)| {
                    let window = &codes[(y + kh) * w + kw..][..ow];
                    row.iter().zip(window).map(|(&d, &x)| i64::from(d) * i64::from(x)).sum::<i64>()
                })
                .sum();
            *slot = acc as f32 * quantizer.x_scale * d_quantizer.scale + quantizer.x_min * delta_sum;
        }
        let reads = (2 * usize::from(WEIGHT_BITS) * usize::from(DATA_BITS) * k * k) as u64;
        inca_telemetry::record(Event::XbarReadPulse, reads);
        inca_telemetry::record(Event::BitSerialCycle, reads);
        inca_telemetry::record(Event::DacDrive, reads * (oh * ow) as u64);
        Ok(grad)
    }

    /// Overwrites the resident activations with the (quantized) error map
    /// — the §IV-C cell-recycling step. After this call the planes hold δ,
    /// ready to serve the next layer's backward computation.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] on shape mismatch.
    pub fn overwrite_with_errors(&mut self, errors: &Tensor) -> Result<()> {
        let (h, w) = (self.image.ph, self.image.pw);
        if errors.shape() != [h, w] {
            return Err(Error::Config(format!(
                "errors {:?} do not match resident shape {h}x{w}",
                errors.shape()
            )));
        }
        self.image = CodeImage::quantize(errors, 0);
        self.writes += self.image.record_writes(1);
        Ok(())
    }

    /// Total write pulses the resident planes have received — the wear the
    /// endurance model tracks.
    #[must_use]
    pub fn write_count(&self) -> u64 {
        self.writes
    }
}

/// Propagates errors backward through a convolution layer on hardware
/// (Eq. 3): `δ_l = δ_{l+1} *_full W^T`, computed as a padded direct
/// convolution of the (resident) next-layer errors with the
/// rotated-and-transposed kernel — the same [`crate::HwConv`] machinery
/// driven by different weights, exactly the paper's Fig 10 red box.
///
/// `delta_next` has shape `[1, N, OH, OW]`; `weights` is the layer's
/// forward kernel `[N, C, k, k]`; the result is `[1, C, OH + k - 1,
/// OW + k - 1]` (the full-convolution output that matches the forward
/// input shape for valid convolutions).
///
/// # Errors
///
/// Propagates [`crate::HwConv`] construction and execution errors.
// lint: allow(dead-pub) consumer: the ROADMAP training item, which runs the gradient on it.
pub fn backprop_error_hw(delta_next: &Tensor, weights: &Tensor) -> Result<Tensor> {
    if weights.shape().len() != 4 {
        return Err(Error::Config(format!("expected [N,C,k,k] weights, got {:?}", weights.shape())));
    }
    let _span = inca_telemetry::span("hw_train.backprop_error");
    let [n_ch, c_ch, k, _] = weights.dims4();
    // Build the transposed kernel: W^T(c, n, kh, kw) = W(n, c, k-1-kh, k-1-kw).
    let mut wt = Tensor::zeros(&[c_ch, n_ch, k, k]);
    for n in 0..n_ch {
        for c in 0..c_ch {
            for kh in 0..k {
                for kw in 0..k {
                    *wt.at4_mut(c, n, kh, kw) = weights.at4(n, c, k - 1 - kh, k - 1 - kw);
                }
            }
        }
    }
    // Full convolution = valid convolution with (k-1) zero padding.
    crate::HwConv::from_float(&wt, &vec![0.0; c_ch], 1, k - 1)?.forward(delta_next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use inca_nn::layers::{self, Layer as _};
    use inca_telemetry::capture;
    use inca_xbar::quant::slice_to_bit_planes;
    use inca_xbar::VerticalPlane;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn random_tensor(shape: &[usize], seed: u64, lo: f32, hi: f32) -> Tensor {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Tensor::from_vec((0..shape.iter().product::<usize>()).map(|_| rng.gen_range(lo..hi)).collect(), shape)
    }

    /// The hardware weight gradient must match the float framework's
    /// Conv2d backward (single channel, valid padding).
    #[test]
    fn hw_gradient_matches_framework() {
        let (h, k) = (8usize, 3usize);
        let oh = h - k + 1;
        let x2d = random_tensor(&[h, h], 41, -0.5, 1.0);
        let delta2d = random_tensor(&[oh, oh], 42, -0.3, 0.3);

        // Framework reference: forward caches x, backward with delta
        // accumulates grad_w.
        let mut conv = layers::Conv2d::new(1, 1, k, 1, 0, 0);
        let x4 = x2d.clone().reshaped(&[1, 1, h, h]);
        let _ = conv.forward(&x4);
        let d4 = delta2d.clone().reshaped(&[1, 1, oh, oh]);
        let _ = conv.backward(&d4);
        // Extract grad_w via an SGD step of lr=1 from known weights.
        let before = conv.weights().data().to_vec();
        conv.sgd_step(1.0);
        let reference: Vec<f32> = before.iter().zip(conv.weights().data()).map(|(b, a)| b - a).collect();

        let unit = HwGradientUnit::program(&x2d).unwrap();
        let grad = unit.weight_gradient(&delta2d, k).unwrap();
        let scale = reference.iter().fold(0.0f32, |m, &v| m.max(v.abs())).max(1e-6);
        for (hw, fl) in grad.data().iter().zip(&reference) {
            assert!((hw - fl).abs() < 0.03 * scale, "hw {hw} vs framework {fl}");
        }
    }

    #[test]
    fn sgd_step_with_hw_gradients_reduces_loss() {
        // One full in-situ training step on hardware gradients: the
        // post-update forward loss must drop.
        let (h, k) = (7usize, 3usize);
        let oh = h - k + 1;
        let x2d = random_tensor(&[h, h], 7, 0.0, 1.0);
        let target = random_tensor(&[oh, oh], 8, 0.0, 1.0);

        let mut conv = layers::Conv2d::new(1, 1, k, 1, 0, 3);
        let x4 = x2d.clone().reshaped(&[1, 1, h, h]);
        let loss = |conv: &mut layers::Conv2d| -> f32 {
            let y = conv.forward(&x4);
            y.data().iter().zip(target.data()).map(|(a, b)| (a - b) * (a - b)).sum()
        };
        let before = loss(&mut conv);
        // dL/dy = 2(y - t)
        let y = conv.forward(&x4);
        let delta2d = Tensor::from_vec(
            y.data().iter().zip(target.data()).map(|(a, b)| 2.0 * (a - b)).collect(),
            &[oh, oh],
        );
        let unit = HwGradientUnit::program(&x2d).unwrap();
        let grad = unit.weight_gradient(&delta2d, k).unwrap();
        // Eq. 4: W <- W - eta * grad, applied to the float weights.
        let eta = 0.01;
        for (w, g) in conv.weights_mut().data_mut().iter_mut().zip(grad.data()) {
            *w -= eta * g;
        }
        let after = loss(&mut conv);
        assert!(after < before, "loss {before} -> {after}");
    }

    #[test]
    fn error_overwrite_recycles_cells() {
        let x2d = random_tensor(&[6, 6], 9, 0.0, 1.0);
        let (mut unit, programmed) = capture(|| HwGradientUnit::program(&x2d).unwrap());
        let writes_after_program = unit.write_count();
        assert_eq!(writes_after_program, u64::from(DATA_BITS)); // one pulse per bit-plane
        assert_eq!(programmed.get(Event::RramProgramPulse), u64::from(DATA_BITS));
        let errors = random_tensor(&[6, 6], 10, -0.2, 0.2);
        let ((), overwritten) = capture(|| unit.overwrite_with_errors(&errors).unwrap());
        assert_eq!(unit.write_count(), 2 * u64::from(DATA_BITS));
        assert_eq!(overwritten.get(Event::RramProgramPulse), u64::from(DATA_BITS));
    }

    /// Eq. 3 on hardware: the backpropagated error must match the float
    /// framework's input gradient.
    #[test]
    fn hw_error_backprop_matches_framework() {
        let (h, k, cin, cout) = (7usize, 3usize, 2usize, 3usize);
        let oh = h - k + 1;
        let w = random_tensor(&[cout, cin, k, k], 61, -0.5, 0.5);
        let x = random_tensor(&[1, cin, h, h], 62, -0.5, 1.0);
        let delta = random_tensor(&[1, cout, oh, oh], 63, -0.4, 0.4);

        // Framework reference: valid conv forward, backward(delta) input
        // gradient.
        let mut conv = layers::Conv2d::new(cin, cout, k, 1, 0, 0);
        conv.weights_mut().data_mut().copy_from_slice(w.data());
        let _ = conv.forward(&x);
        let reference = conv.backward(&delta);

        let hw = crate::hw_train::backprop_error_hw(&delta, &w).unwrap();
        assert_eq!(hw.shape(), reference.shape());
        let scale = reference.data().iter().fold(0.0f32, |m, &v| m.max(v.abs())).max(1e-6);
        for (a, b) in hw.data().iter().zip(reference.data()) {
            assert!((a - b).abs() < 0.04 * scale, "hw {a} vs framework {b}");
        }
    }

    /// The bit-serial oracle of [`HwGradientUnit::weight_gradient`]: the
    /// unit's codes built into one plane per activation bit (uncounted, as
    /// the unit recorded their writes at programming), δ split into
    /// positive and negative 7-bit magnitude planes, and each gradient
    /// position the shift-add of one counted plane read per (side, δ bit,
    /// activation bit), one bit-serial cycle each. δ spans `O_H × O_W`,
    /// larger than a weight kernel, but the 2T1R select lines gate any
    /// rectangle.
    fn bit_serial_gradient(unit: &HwGradientUnit, delta: &Tensor, k: usize) -> Tensor {
        let (h, w) = (unit.image.ph, unit.image.pw);
        let codes: Vec<u32> = unit.image.channel(0, 0).iter().map(|&code| u32::from(code)).collect();
        let planes: Vec<VerticalPlane> = slice_to_bit_planes(&codes, DATA_BITS)
            .iter()
            .map(|bits| VerticalPlane::from_bits(h, w, bits).unwrap())
            .collect();
        let (oh, ow) = (delta.shape()[0], delta.shape()[1]);
        let d_max = delta.data().iter().fold(0.0f32, |m, &v| m.max(v.abs())).max(1e-12);
        let d_scale = d_max / f32::from((1u16 << WEIGHT_BITS) - 1);
        let mut d_pos = vec![0u32; oh * ow];
        let mut d_neg = vec![0u32; oh * ow];
        for (i, &v) in delta.data().iter().enumerate() {
            let q = (v / d_scale).round() as i64;
            if q >= 0 {
                d_pos[i] = q as u32;
            } else {
                d_neg[i] = (-q) as u32;
            }
        }
        let pos_planes = slice_to_bit_planes(&d_pos, WEIGHT_BITS);
        let neg_planes = slice_to_bit_planes(&d_neg, WEIGHT_BITS);
        let delta_sum: f32 = delta.data().iter().sum();
        let quantizer = unit.image.quantizer;
        let mut grad = Tensor::zeros(&[k, k]);
        for (pos, slot) in grad.data_mut().iter_mut().enumerate() {
            let (kh, kw) = (pos / k, pos % k);
            inca_telemetry::record(Event::BitSerialCycle, (2 * pos_planes.len() * planes.len()) as u64);
            let mut acc: i64 = 0;
            for (db, (pp, np)) in pos_planes.iter().zip(&neg_planes).enumerate() {
                for (xb, plane) in planes.iter().enumerate() {
                    let p = plane.direct_conv_window(kh, kw, oh, ow, pp).unwrap();
                    let n = plane.direct_conv_window(kh, kw, oh, ow, np).unwrap();
                    acc += (i64::from(p) - i64::from(n)) << (db + xb);
                }
            }
            *slot = acc as f32 * quantizer.x_scale * d_scale + quantizer.x_min * delta_sum;
        }
        grad
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The gradient equals the bit-serial oracle bit for bit and
        /// counts exactly its events: k = 1–5, maps up to 32×32, signed
        /// inputs, and signed or all-zero errors.
        #[test]
        fn weight_gradient_matches_the_bit_serial_oracle(
            seed in 0u64..1_000_000,
            k in 1usize..=5,
            h in 1usize..=32,
            w in 1usize..=32,
            zero_delta in any::<bool>(),
        ) {
            let (h, w) = (h.max(k), w.max(k));
            let (oh, ow) = (h - k + 1, w - k + 1);
            let unit = HwGradientUnit::program(&random_tensor(&[h, w], seed, -0.8, 1.0)).unwrap();
            let delta = if zero_delta {
                Tensor::zeros(&[oh, ow])
            } else {
                random_tensor(&[oh, ow], seed.wrapping_add(1), -0.5, 0.5)
            };
            let (grad, counted) = capture(|| unit.weight_gradient(&delta, k).unwrap());
            let (oracle, oracle_counted) = capture(|| bit_serial_gradient(&unit, &delta, k));
            prop_assert_eq!(bits(&grad), bits(&oracle), "k {} on {}x{}", k, h, w);
            prop_assert_eq!(counted.counters(), oracle_counted.counters(), "k {} on {}x{}", k, h, w);
        }
    }

    #[test]
    fn weight_gradient_counts_its_bit_serial_reads() {
        let (h, w, k) = (9usize, 7usize, 3usize);
        let (oh, ow) = (h - k + 1, w - k + 1);
        let unit = HwGradientUnit::program(&random_tensor(&[h, w], 91, -0.5, 1.0)).unwrap();
        let delta = random_tensor(&[oh, ow], 92, -0.4, 0.4);
        let (_, counted) = capture(|| unit.weight_gradient(&delta, k).unwrap());
        let reads = 2 * u64::from(WEIGHT_BITS) * u64::from(DATA_BITS) * (k * k) as u64;
        assert_eq!(counted.get(Event::XbarReadPulse), reads);
        assert_eq!(counted.get(Event::BitSerialCycle), reads);
        assert_eq!(counted.get(Event::DacDrive), reads * (oh * ow) as u64);
        assert_eq!(counted.get(Event::AdcConversion), 0);
    }

    #[test]
    fn shape_validation() {
        let x2d = random_tensor(&[6, 6], 11, 0.0, 1.0);
        let unit = HwGradientUnit::program(&x2d).unwrap();
        // 6x6 input with 3x3 kernel needs a 4x4 error map.
        assert!(unit.weight_gradient(&Tensor::zeros(&[3, 3]), 3).is_err());
        assert!(unit.weight_gradient(&Tensor::zeros(&[4, 4]), 3).is_ok());
        // k = 0 is no kernel, even with the (H+1)x(W+1) map that
        // satisfies `oh + k == h + 1`, and an empty map has no window to
        // read, even for the kernel wider than the input that it fits.
        let config_error =
            |delta: Tensor, k| matches!(unit.weight_gradient(&delta, k), Err(Error::Config(_)));
        assert!(config_error(Tensor::zeros(&[7, 7]), 0));
        assert!(config_error(Tensor::from_vec(Vec::new(), &[0, 0]), 0));
        assert!(config_error(Tensor::from_vec(Vec::new(), &[0, 0]), 7));
        assert!(HwGradientUnit::program(&Tensor::zeros(&[2, 2, 2])).is_err());
        assert!(matches!(
            HwGradientUnit::program(&Tensor::from_vec(Vec::new(), &[0, 5])),
            Err(Error::Config(_))
        ));
        let mut unit = unit;
        assert!(unit.overwrite_with_errors(&Tensor::zeros(&[5, 5])).is_err());
    }
}
