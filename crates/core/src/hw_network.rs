//! A multi-layer network executor on simulated INCA hardware: chains
//! [`crate::HwConv`] layers with digital ReLU / max-pool units (the
//! paper's post-processing blocks, Fig 8a) and a [`crate::HwLinear`] head,
//! forwarding a whole batch through every stage.

use inca_nn::Tensor;

use crate::exec::ExecPolicy;
use crate::hw_exec::batch_rows;
use crate::{Error, HwConv, HwLinear, Result};

/// One stage of a hardware network.
#[derive(Debug, Clone)]
pub(crate) enum HwStage {
    /// A 2T1R direct-convolution layer, the batch on the planes of its
    /// 3D stacks.
    Conv(HwConv),
    /// Digital ReLU (the nonlinear unit of Fig 8a).
    Relu,
    /// Digital `k × k` max pool with stride `k` (LUT-backed in hardware,
    /// §IV-C).
    MaxPool(usize),
    /// Flatten to `[B, features]`.
    Flatten,
    /// A differential-pair crossbar FC layer.
    Linear(HwLinear),
}

/// A sequential hardware network.
///
/// # Examples
///
/// ```
/// use inca_core::{HwConv, HwLinear, HwNetwork};
/// use inca_nn::Tensor;
///
/// let mut w = Tensor::zeros(&[2, 1, 3, 3]);
/// w.data_mut()[4] = 1.0;
/// w.data_mut()[9 + 4] = -1.0;
/// let fc_w = Tensor::full(&[3, 2 * 2 * 2], 0.1);
/// let net = HwNetwork::new()
///     .conv(HwConv::from_float(&w, &[0.0, 0.0], 1, 1)?)
///     .relu()
///     .max_pool(2)
///     .flatten()
///     .linear(HwLinear::from_float(&fc_w, &[0.0, 0.0, 0.0])?);
/// let logits = net.forward(&Tensor::full(&[1, 1, 4, 4], 0.5))?;
/// assert_eq!(logits.shape(), &[1, 3]);
/// // A batch of 5 forwards in one pass.
/// assert_eq!(net.forward(&Tensor::full(&[5, 1, 4, 4], 0.5))?.shape(), &[5, 3]);
/// # Ok::<(), inca_core::Error>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct HwNetwork {
    stages: Vec<HwStage>,
}

impl HwNetwork {
    /// Creates an empty network.
    #[must_use]
    pub fn new() -> Self {
        Self { stages: Vec::new() }
    }

    /// Appends a hardware convolution.
    #[must_use]
    pub fn conv(mut self, layer: HwConv) -> Self {
        self.stages.push(HwStage::Conv(layer));
        self
    }

    /// Appends a digital ReLU.
    #[must_use]
    pub fn relu(mut self) -> Self {
        self.stages.push(HwStage::Relu);
        self
    }

    /// Appends a `k × k`/stride-`k` max pool.
    #[must_use]
    pub fn max_pool(mut self, k: usize) -> Self {
        self.stages.push(HwStage::MaxPool(k));
        self
    }

    /// Appends a flatten stage.
    #[must_use]
    pub fn flatten(mut self) -> Self {
        self.stages.push(HwStage::Flatten);
        self
    }

    /// Appends a hardware FC layer.
    #[must_use]
    pub fn linear(mut self, layer: HwLinear) -> Self {
        self.stages.push(HwStage::Linear(layer));
        self
    }

    /// Applies an execution policy to every convolution stage currently
    /// in the network (call this after assembling the stages).
    #[must_use]
    pub fn with_policy(mut self, policy: ExecPolicy) -> Self {
        for stage in &mut self.stages {
            if let HwStage::Conv(conv) = stage {
                conv.set_policy(policy);
            }
        }
        self
    }

    /// Number of stages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether the network has no stages.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Executes the network on a `[B, C, H, W]` batch.
    ///
    /// # Errors
    ///
    /// Propagates stage-level configuration and hardware errors.
    pub fn forward(&self, x: &Tensor) -> Result<Tensor> {
        let mut cur = x.clone();
        for (i, stage) in self.stages.iter().enumerate() {
            cur = match stage {
                HwStage::Conv(conv) => conv.forward(&cur)?,
                HwStage::Relu => {
                    let mut t = cur;
                    for v in t.data_mut() {
                        *v = v.max(0.0);
                    }
                    t
                }
                HwStage::MaxPool(k) => max_pool(&cur, *k, i)?,
                HwStage::Flatten => {
                    let (rows, len) = (batch_rows(&cur), cur.len());
                    cur.reshaped(&[rows, len / rows.max(1)])
                }
                HwStage::Linear(fc) => fc.forward(&cur)?,
            };
        }
        Ok(cur)
    }

    /// Executes the network on one sample and returns the argmax class.
    ///
    /// # Errors
    ///
    /// Propagates [`HwNetwork::forward`] errors.
    pub(crate) fn classify(&self, x: &Tensor) -> Result<usize> {
        Ok(self.forward(x)?.argmax())
    }
}

fn max_pool(x: &Tensor, k: usize, stage: usize) -> Result<Tensor> {
    if k == 0 {
        return Err(Error::Config(format!("stage {stage}: pool size must be positive")));
    }
    let [n, c, h, w] = x.dims4();
    if x.is_empty() || h < k || w < k {
        return Err(Error::Config(format!("stage {stage}: cannot pool {:?} by {k}", x.shape())));
    }
    let (oh, ow) = (h / k, w / k);
    let mut out = Vec::with_capacity(n * c * oh * ow);
    // Every (sample, channel) plane pools on its own, one band of `k`
    // input rows per output row.
    for channel in x.data().chunks_exact(h * w) {
        for rows in channel.chunks_exact(k * w).take(oh) {
            // VGG's 2×2 pool gets its taps unrolled.
            if k == 2 {
                out.extend((0..ow).map(|xx| window_max(rows, w, 2, xx)));
            } else {
                out.extend((0..ow).map(|xx| window_max(rows, w, k, xx)));
            }
        }
    }
    Ok(Tensor::from_vec(out, &[n, c, oh, ow]))
}

/// The max of the `k × k` window at column `xx` of a band of `k` rows of
/// width `w`, in one pass: its taps combine in (dy, dx) order from −∞
/// through `f32::max`, so a NaN tap is skipped.
#[inline(always)]
fn window_max(rows: &[f32], w: usize, k: usize, xx: usize) -> f32 {
    let mut best = f32::NEG_INFINITY;
    for dy in 0..k {
        for dx in 0..k {
            best = best.max(rows[dy * w + xx * k + dx]);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use inca_nn::layers::{self, Layer as _};
    use rand::{Rng, SeedableRng};

    fn random_tensor(shape: &[usize], seed: u64, lo: f32, hi: f32) -> Tensor {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Tensor::from_vec((0..shape.iter().product::<usize>()).map(|_| rng.gen_range(lo..hi)).collect(), shape)
    }

    #[test]
    fn full_pipeline_matches_float_network() {
        let w = random_tensor(&[4, 1, 3, 3], 61, -0.4, 0.4);
        let fc_w = random_tensor(&[3, 4 * 5 * 5], 62, -0.3, 0.3);
        let x = random_tensor(&[1, 1, 10, 10], 63, 0.0, 1.0);

        // Float reference.
        let mut conv = layers::Conv2d::new(1, 4, 3, 1, 1, 0);
        conv.weights_mut().data_mut().copy_from_slice(w.data());
        let mut relu = layers::Relu::new();
        let mut pool = layers::MaxPool2d::new(2, 2);
        let mut fc = layers::Linear::new(4 * 5 * 5, 3, 0);
        fc.weights_mut().data_mut().copy_from_slice(fc_w.data());
        assert!(fc.bias().data().iter().all(|&b| b == 0.0));
        let y = pool.forward(&relu.forward(&conv.forward(&x)));
        let reference = fc.forward(&y.reshaped(&[1, 100]));

        // Hardware network.
        let net = HwNetwork::new()
            .conv(HwConv::from_float(&w, &[0.0; 4], 1, 1).unwrap())
            .relu()
            .max_pool(2)
            .flatten()
            .linear(HwLinear::from_float(&fc_w, &[0.0; 3]).unwrap());
        let logits = net.forward(&x).unwrap();

        let scale = reference.data().iter().fold(0.0f32, |m, &v| m.max(v.abs())).max(1e-6);
        for (a, b) in logits.data().iter().zip(reference.data()) {
            assert!((a - b).abs() < 0.05 * scale, "hw {a} vs float {b}");
        }
        assert_eq!(net.classify(&x).unwrap(), reference.argmax());
    }

    #[test]
    fn stage_count_and_emptiness() {
        let net = HwNetwork::new();
        assert!(net.is_empty());
        let net = net.relu().max_pool(2).flatten();
        assert_eq!(net.len(), 3);
    }

    #[test]
    fn pool_shape_errors() {
        let net = HwNetwork::new().max_pool(4);
        assert!(net.forward(&Tensor::zeros(&[1, 1, 3, 3])).is_err());
        let net = HwNetwork::new().max_pool(0);
        assert!(net.forward(&Tensor::zeros(&[1, 1, 4, 4])).is_err());
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn digital_stages_and_linear_read_each_sample_on_its_own() {
        // Distinct samples with distinct ranges: ReLU, pooling, flatten
        // and the per-row linear quantization never mix them.
        let fc_w = random_tensor(&[3, 2 * 3 * 2], 65, -0.5, 0.5);
        let net = HwNetwork::new()
            .relu()
            .max_pool(2)
            .flatten()
            .linear(HwLinear::from_float(&fc_w, &[0.1, 0.0, -0.1]).unwrap());
        let x = Tensor::from_vec(
            (0..4 * 2 * 6 * 5).map(|i| ((i * 37 % 101) as f32 / 50.0 - 1.0) * (1 + i / 60) as f32).collect(),
            &[4, 2, 6, 5],
        );
        let y = net.forward(&x).unwrap();
        assert_eq!(y.shape(), &[4, 3]);
        for bi in 0..4 {
            let one = net.forward(&x.sample(bi)).unwrap();
            assert_eq!(bits(&one), &bits(&y)[bi * 3..(bi + 1) * 3], "sample {bi}");
        }
    }

    #[test]
    fn batch_of_identical_copies_equals_the_single_sample_forward() {
        // Identical copies share the single sample's quantization range,
        // so the broadcast reads, pooling and per-row FC reproduce it bit
        // for bit on every plane.
        let w = random_tensor(&[4, 2, 3, 3], 66, -0.4, 0.4);
        let fc_w = random_tensor(&[5, 4 * 3 * 3], 67, -0.3, 0.3);
        let net = HwNetwork::new()
            .conv(HwConv::from_float(&w, &[0.05, 0.0, -0.05, 0.1], 1, 1).unwrap())
            .relu()
            .max_pool(2)
            .flatten()
            .linear(HwLinear::from_float(&fc_w, &[0.0; 5]).unwrap());
        let x = random_tensor(&[1, 2, 7, 7], 68, -0.5, 1.0);
        let one = bits(&net.forward(&x).unwrap());
        let batch = 3;
        let copies = Tensor::from_vec(x.data().repeat(batch), &[batch, 2, 7, 7]);
        let y = net.forward(&copies).unwrap();
        assert_eq!(y.shape(), &[batch, 5]);
        for (bi, row) in bits(&y).chunks_exact(5).enumerate() {
            assert_eq!(row, one.as_slice(), "copy {bi}");
        }
    }

    /// `max_pool` before its one-pass rewrite: per window, each of its
    /// `k` rows a slice folded through `f32::max` from −∞.
    fn max_pool_oracle(x: &Tensor, k: usize) -> Tensor {
        let [n, c, h, w] = x.dims4();
        let (oh, ow) = (h / k, w / k);
        let mut out = Tensor::zeros(&[n, c, oh, ow]);
        let src = x.data();
        for (plane, dst) in out.data_mut().chunks_exact_mut(oh * ow).enumerate() {
            let channel = &src[plane * h * w..(plane + 1) * h * w];
            for (y, dst_row) in dst.chunks_exact_mut(ow).enumerate() {
                for (xx, slot) in dst_row.iter_mut().enumerate() {
                    let mut best = f32::NEG_INFINITY;
                    for dy in 0..k {
                        let row = &channel[(y * k + dy) * w + xx * k..][..k];
                        best = row.iter().fold(best, |m, &v| m.max(v));
                    }
                    *slot = best;
                }
            }
        }
        out
    }

    #[test]
    fn pool_matches_its_oracle_on_nan_signed_zeros_and_infinities() {
        // Windows drawn from NaN, ±0, ±∞ and small values, k = 1–4, on
        // sizes on and off multiples of k, two samples of two channels.
        let specials = [f32::NAN, 0.0, -0.0, f32::NEG_INFINITY, f32::INFINITY, -1.0, 0.5, -f32::NAN];
        let mut rng = rand::rngs::StdRng::seed_from_u64(69);
        for k in 1..=4 {
            for (h, w) in [(k, k), (k + 1, 2 * k + 1), (3 * k - 1, k), (2 * k + 1, 3 * k + 2)] {
                let len = 2 * 2 * h * w;
                let data = (0..len).map(|_| specials[rng.gen_range(0..specials.len())]).collect();
                let x = Tensor::from_vec(data, &[2, 2, h, w]);
                let y = max_pool(&x, k, 0).unwrap();
                assert_eq!(y.shape(), max_pool_oracle(&x, k).shape());
                assert_eq!(bits(&y), bits(&max_pool_oracle(&x, k)), "k {k}, {h}x{w}");
            }
        }
        // Every ordered pair of signed zeros, and NaN in each tap.
        for (a, b) in [(0.0f32, -0.0f32), (-0.0, 0.0), (-0.0, -0.0), (f32::NAN, -0.0), (-0.0, f32::NAN)] {
            let x = Tensor::from_vec(vec![a, b, b, a], &[1, 1, 2, 2]);
            assert_eq!(bits(&max_pool(&x, 2, 0).unwrap()), bits(&max_pool_oracle(&x, 2)), "{a} {b}");
            let x = Tensor::from_vec(vec![a, b, a, b, b, a, b, a, a], &[1, 1, 3, 3]);
            assert_eq!(bits(&max_pool(&x, 3, 0).unwrap()), bits(&max_pool_oracle(&x, 3)), "{a} {b}");
        }
    }

    #[test]
    fn pool_takes_each_window_max_and_drops_the_ragged_edge() {
        // 2 channels of 5x4 pooled by 2: the fifth row is dropped.
        let x = random_tensor(&[1, 2, 5, 4], 64, -1.0, 1.0);
        let y = max_pool(&x, 2, 0).unwrap();
        assert_eq!(y.shape(), &[1, 2, 2, 2]);
        for ci in 0..2 {
            for oy in 0..2 {
                for ox in 0..2 {
                    let window = [(0, 0), (0, 1), (1, 0), (1, 1)]
                        .map(|(dy, dx)| x.at4(0, ci, 2 * oy + dy, 2 * ox + dx));
                    let best = window.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
                    assert_eq!(y.at4(0, ci, oy, ox).to_bits(), best.to_bits(), "c{ci} ({oy}, {ox})");
                }
            }
        }
    }
}
