//! A multi-layer network executor on simulated INCA hardware: chains
//! [`crate::HwConv`] layers with digital ReLU / max-pool units (the
//! paper's post-processing blocks, Fig 8a) and a [`crate::HwLinear`] head.

use inca_nn::Tensor;

use crate::exec::ExecPolicy;
use crate::{Error, HwConv, HwLinear, Result};

/// One stage of a hardware network.
#[derive(Debug, Clone)]
pub enum HwStage {
    /// A 2T1R direct-convolution layer.
    Conv(HwConv),
    /// Digital ReLU (the nonlinear unit of Fig 8a).
    Relu,
    /// Digital `k × k` max pool with stride `k` (LUT-backed in hardware,
    /// §IV-C).
    MaxPool(usize),
    /// Flatten to `[1, features]`.
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

    /// Executes the network on one sample.
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
                    let len = cur.len();
                    cur.reshaped(&[1, len])
                }
                HwStage::Linear(fc) => fc.forward(&cur)?,
            };
        }
        Ok(cur)
    }

    /// Executes the network and returns the argmax class.
    ///
    /// # Errors
    ///
    /// Propagates [`HwNetwork::forward`] errors.
    pub fn classify(&self, x: &Tensor) -> Result<usize> {
        Ok(self.forward(x)?.argmax())
    }
}

fn max_pool(x: &Tensor, k: usize, stage: usize) -> Result<Tensor> {
    if k == 0 {
        return Err(Error::Config(format!("stage {stage}: pool size must be positive")));
    }
    let [n, c, h, w] = x.dims4();
    if n != 1 {
        return Err(Error::Config(format!(
            "stage {stage}: max pool executes one sample, got a batch of {n}"
        )));
    }
    if h < k || w < k {
        return Err(Error::Config(format!("stage {stage}: cannot pool {h}x{w} by {k}")));
    }
    let (oh, ow) = (h / k, w / k);
    let mut out = Tensor::zeros(&[1, c, oh, ow]);
    let src = x.data();
    for (ci, dst) in out.data_mut().chunks_exact_mut(oh * ow).enumerate() {
        let channel = &src[ci * h * w..(ci + 1) * h * w];
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
    Ok(out)
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
        fc.bias_mut().data_mut().fill(0.0);
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

    #[test]
    fn pool_rejects_a_batch_by_its_size() {
        let net = HwNetwork::new().relu().max_pool(2);
        match net.forward(&Tensor::zeros(&[4, 1, 4, 4])) {
            Err(Error::Config(msg)) => {
                assert_eq!(msg, "stage 1: max pool executes one sample, got a batch of 4");
            }
            other => panic!("expected a config error, got {other:?}"),
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
