use rand::{Rng, SeedableRng};

use super::{dims4_checked, output_len, Layer};
use crate::Tensor;

/// A depthwise 2-D convolution (Fig 3b): each input channel is convolved
/// with its own `k × k` kernel and **not** accumulated across channels —
/// the defining property that collapses WS crossbar utilization in light
/// models (§V-B4: "3×3 kernels in depthwise convolution only use nine of
/// 128 cells in a column").
#[derive(Debug, Clone)]
pub struct DepthwiseConv2d {
    channels: usize,
    k: usize,
    stride: usize,
    pad: usize,
    /// `[channels, k, k]`.
    weights: Tensor,
    bias: Tensor,
    grad_w: Tensor,
    grad_b: Tensor,
    cached_input: Option<Tensor>,
}

impl DepthwiseConv2d {
    /// Creates a depthwise convolution over `channels` channels.
    ///
    /// # Panics
    ///
    /// Panics if `channels`, `k` or `stride` is zero.
    #[must_use]
    pub fn new(channels: usize, k: usize, stride: usize, pad: usize, seed: u64) -> Self {
        assert!(channels > 0 && k > 0 && stride > 0, "depthwise dimensions must be positive");
        let limit = (6.0 / (k * k) as f32).sqrt();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let w: Vec<f32> = (0..channels * k * k).map(|_| rng.gen_range(-limit..limit)).collect();
        Self {
            channels,
            k,
            stride,
            pad,
            weights: Tensor::from_vec(w, &[channels, k, k]),
            bias: Tensor::zeros(&[channels]),
            grad_w: Tensor::zeros(&[channels, k, k]),
            grad_b: Tensor::zeros(&[channels]),
            cached_input: None,
        }
    }

    /// The weight tensor (`[channels, k, k]`).
    #[must_use]
    pub fn weights(&self) -> &Tensor {
        &self.weights
    }

    /// The bias vector.
    #[must_use]
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// Mutable bias access.
    pub fn bias_mut(&mut self) -> &mut Tensor {
        &mut self.bias
    }

    /// Mutable weight access.
    pub fn weights_mut(&mut self) -> &mut Tensor {
        &mut self.weights
    }

    fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (
            output_len("DepthwiseConv2d", h, self.k, self.stride, self.pad),
            output_len("DepthwiseConv2d", w, self.k, self.stride, self.pad),
        )
    }

    fn w_at(&self, c: usize, kh: usize, kw: usize) -> f32 {
        self.weights.data()[(c * self.k + kh) * self.k + kw]
    }
}

impl Layer for DepthwiseConv2d {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let [n, c, h, w] = dims4_checked(x, "DepthwiseConv2d");
        assert_eq!(c, self.channels, "DepthwiseConv2d expects {} channels, got {c}", self.channels);
        let (oh, ow) = self.output_hw(h, w);
        let mut out = Tensor::zeros(&[n, c, oh, ow]);
        for ni in 0..n {
            for ci in 0..c {
                for y in 0..oh {
                    for xo in 0..ow {
                        let mut acc = self.bias.data()[ci];
                        for kh in 0..self.k {
                            let iy = y * self.stride + kh;
                            if iy < self.pad || iy - self.pad >= h {
                                continue;
                            }
                            for kw in 0..self.k {
                                let ix = xo * self.stride + kw;
                                if ix < self.pad || ix - self.pad >= w {
                                    continue;
                                }
                                acc += self.w_at(ci, kh, kw) * x.at4(ni, ci, iy - self.pad, ix - self.pad);
                            }
                        }
                        *out.at4_mut(ni, ci, y, xo) = acc;
                    }
                }
            }
        }
        self.cached_input = Some(x.clone());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self.cached_input.as_ref().expect("backward before forward"); // documented Layer contract. lint: allow(panic-path)
        let [n, c, h, w] = x.dims4();
        let [_, _, oh, ow] = grad_out.dims4();
        let mut grad_in = Tensor::zeros(&[n, c, h, w]);
        for ni in 0..n {
            for ci in 0..c {
                for y in 0..oh {
                    for xo in 0..ow {
                        let g = grad_out.at4(ni, ci, y, xo);
                        if g == 0.0 {
                            continue;
                        }
                        self.grad_b.data_mut()[ci] += g;
                        for kh in 0..self.k {
                            let iy = y * self.stride + kh;
                            if iy < self.pad || iy - self.pad >= h {
                                continue;
                            }
                            for kw in 0..self.k {
                                let ix = xo * self.stride + kw;
                                if ix < self.pad || ix - self.pad >= w {
                                    continue;
                                }
                                let xi = x.at4(ni, ci, iy - self.pad, ix - self.pad);
                                self.grad_w.data_mut()[(ci * self.k + kh) * self.k + kw] += g * xi;
                                *grad_in.at4_mut(ni, ci, iy - self.pad, ix - self.pad) +=
                                    g * self.w_at(ci, kh, kw);
                            }
                        }
                    }
                }
            }
        }
        grad_in
    }

    fn sgd_step(&mut self, lr: f32) {
        for (w, g) in self.weights.data_mut().iter_mut().zip(self.grad_w.data()) {
            *w -= lr * g;
        }
        for (b, g) in self.bias.data_mut().iter_mut().zip(self.grad_b.data()) {
            *b -= lr * g;
        }
        self.zero_grads();
    }

    fn zero_grads(&mut self) {
        self.grad_w.data_mut().fill(0.0);
        self.grad_b.data_mut().fill(0.0);
    }

    fn param_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    fn map_weights(&mut self, f: &mut dyn FnMut(f32) -> f32) {
        for w in self.weights.data_mut() {
            *w = f(*w);
        }
    }

    fn name(&self) -> &'static str {
        "depthwise_conv2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channels_do_not_mix() {
        let mut dw = DepthwiseConv2d::new(2, 2, 1, 0, 0);
        // Channel 0 kernel = identity-ish; channel 1 kernel = zero.
        dw.weights_mut().data_mut().copy_from_slice(&[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        let mut x = Tensor::zeros(&[1, 2, 3, 3]);
        for i in 0..9 {
            x.data_mut()[i] = 1.0; // channel 0 all ones
            x.data_mut()[9 + i] = 5.0; // channel 1 all fives
        }
        let y = dw.forward(&x);
        // Channel 0 outputs 1 (top-left of kernel), channel 1 outputs 0.
        for r in 0..2 {
            for c in 0..2 {
                assert_eq!(y.at4(0, 0, r, c), 1.0);
                assert_eq!(y.at4(0, 1, r, c), 0.0);
            }
        }
    }

    #[test]
    fn gradient_check() {
        let make = || DepthwiseConv2d::new(2, 2, 1, 0, 9);
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let x = Tensor::from_vec((0..2 * 9).map(|_| rng.gen_range(-1.0f32..1.0)).collect(), &[1, 2, 3, 3]);
        let mut dw = make();
        let y = dw.forward(&x);
        let grad_in = dw.backward(&Tensor::full(y.shape(), 1.0));
        let eps = 1e-3;
        for wi in 0..dw.weights.len() {
            let mut p = make();
            p.weights_mut().data_mut()[wi] += eps;
            let mut m = make();
            m.weights_mut().data_mut()[wi] -= eps;
            let numeric = (p.forward(&x).sum() - m.forward(&x).sum()) / (2.0 * eps);
            assert!((numeric - dw.grad_w.data()[wi]).abs() < 1e-2, "weight {wi}");
        }
        for xi in [0usize, 5, 17] {
            let mut xp = x.clone();
            xp.data_mut()[xi] += eps;
            let mut xm = x.clone();
            xm.data_mut()[xi] -= eps;
            let numeric = (make().forward(&xp).sum() - make().forward(&xm).sum()) / (2.0 * eps);
            assert!((numeric - grad_in.data()[xi]).abs() < 1e-2, "input {xi}");
        }
    }

    #[test]
    fn output_shape_with_stride_and_pad() {
        let mut dw = DepthwiseConv2d::new(3, 3, 2, 1, 0);
        let y = dw.forward(&Tensor::zeros(&[2, 3, 8, 8]));
        assert_eq!(y.shape(), &[2, 3, 4, 4]);
    }

    #[test]
    fn param_count_is_per_channel() {
        let dw = DepthwiseConv2d::new(16, 3, 1, 1, 0);
        assert_eq!(dw.param_count(), 16 * 9 + 16);
    }

    #[test]
    #[should_panic(expected = "DepthwiseConv2d: kernel 5 (stride 1, padding 1) does not fit input size 2")]
    fn kernel_larger_than_padded_input_panics() {
        let _ = DepthwiseConv2d::new(1, 5, 1, 1, 0).forward(&Tensor::zeros(&[1, 1, 2, 8]));
    }
}
