//! Neural-network layers with full forward and backward passes.
//!
//! Every layer caches what its backward pass needs during `forward` — the
//! same discipline INCA exploits in hardware, where "the activations will
//! remain in the array to be used in the backpropagation, until overwritten
//! by errors" (§IV-C).

mod activation;
mod conv;
mod flatten;
mod linear;
mod pool;

pub use activation::Relu;
pub use conv::Conv2d;
pub use flatten::Flatten;
pub use linear::Linear;
pub use pool::MaxPool2d;

use std::ops::Range;

use crate::Tensor;

/// A trainable network layer.
///
/// `forward` consumes an input batch and caches whatever the backward pass
/// requires; `backward` consumes the gradient w.r.t. the layer output and
/// returns the gradient w.r.t. the layer input, accumulating parameter
/// gradients internally.
pub trait Layer {
    /// Runs the layer on an input batch.
    fn forward(&mut self, x: &Tensor) -> Tensor;

    /// Propagates the output gradient; returns the input gradient.
    ///
    /// # Panics
    ///
    /// Implementations panic when called before `forward`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Applies one vanilla-SGD step with learning rate `lr` and clears the
    /// accumulated gradients. Layers without parameters do nothing.
    fn sgd_step(&mut self, _lr: f32) {}

    /// Clears accumulated gradients without updating.
    fn zero_grads(&mut self) {}

    /// Number of trainable parameters.
    fn param_count(&self) -> usize {
        0
    }

    /// Applies `f` to every trainable weight (used for noise injection and
    /// fake quantization). Layers without parameters do nothing.
    fn map_weights(&mut self, _f: &mut dyn FnMut(f32) -> f32) {}

    /// A short human-readable layer name.
    fn name(&self) -> &'static str;
}

/// Shared helper: validates that a tensor is 4-D NCHW and returns its dims.
pub(crate) fn dims4_checked(x: &Tensor, layer: &str) -> [usize; 4] {
    assert_eq!(x.shape().len(), 4, "{layer} expects an NCHW tensor, got shape {:?}", x.shape());
    x.dims4()
}

/// Output size of a `k`-wide window swept with `stride` over an input of
/// size `input` zero-padded by `pad` on both sides: `(input + 2·pad − k) /
/// stride + 1`.
///
/// # Panics
///
/// Panics if the window does not fit in the padded input.
pub(crate) fn output_len(layer: &str, input: usize, k: usize, stride: usize, pad: usize) -> usize {
    let padded = pad.checked_mul(2).and_then(|both| input.checked_add(both));
    assert!(
        padded.is_some_and(|padded| padded >= k),
        "{layer}: kernel {k} (stride {stride}, padding {pad}) does not fit input size {input}"
    );
    (input + 2 * pad - k) / stride + 1
}

/// The outputs among `0..out` whose tap `t` reads inside an input of size
/// `input`: those `o` with `0 ≤ o·stride + t − pad < input`.
pub(crate) fn tap_range(out: usize, input: usize, t: usize, stride: usize, pad: usize) -> Range<usize> {
    let lo = pad.saturating_sub(t).div_ceil(stride);
    let hi = (input + pad).saturating_sub(t).div_ceil(stride).min(out);
    lo..hi.max(lo)
}

/// Copies the `rows × cols` matrix whose rows start `src_stride` apart in
/// `src` into `dst` transposed, with `dst`'s rows `dst_stride` apart:
/// `dst[j·dst_stride + i] = src[i·src_stride + j]`. Whole 4 × 4 tiles go
/// through registers, the ragged edges one by one.
pub(crate) fn transpose(
    src: &[f32],
    src_stride: usize,
    rows: usize,
    cols: usize,
    dst: &mut [f32],
    dst_stride: usize,
) {
    let (tiled_rows, tiled_cols) = (rows - rows % 4, cols - cols % 4);
    for i in (0..tiled_rows).step_by(4) {
        for j in (0..tiled_cols).step_by(4) {
            let mut tile = [[0.0f32; 4]; 4];
            for (a, row) in tile.iter_mut().enumerate() {
                row.copy_from_slice(&src[(i + a) * src_stride + j..][..4]);
            }
            for (b, d) in dst[j * dst_stride + i..].chunks_mut(dst_stride).take(4).enumerate() {
                d[..4].copy_from_slice(&[tile[0][b], tile[1][b], tile[2][b], tile[3][b]]);
            }
        }
    }
    for i in 0..rows {
        let from = if i < tiled_rows { tiled_cols } else { 0 };
        for j in from..cols {
            dst[j * dst_stride + i] = src[i * src_stride + j];
        }
    }
}

/// Asserts `a` and `b` hold the same bits, any NaN equal to any NaN: the
/// check the layer kernels' oracle tests make.
#[cfg(test)]
pub(crate) fn assert_same_bits(what: &str, a: &[f32], b: &[f32]) {
    assert_eq!(a.len(), b.len(), "{what}: lengths differ");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()), "{what}[{i}]: {x:e} vs {y:e}");
    }
}

/// A layer's per-element loops, which its kernels replaced and must match
/// bit for bit.
#[cfg(test)]
pub(crate) trait Oracle: Layer {
    /// The forward pass as per-element loops.
    fn forward_oracle(&mut self, x: &Tensor) -> Tensor;

    /// The backward pass as per-element loops; the kernel itself where it
    /// never changed.
    fn backward_oracle(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward(grad_out)
    }
}

/// Runs a layer on its [`Oracle`] loops, so a whole network can train on
/// them.
#[cfg(test)]
pub(crate) struct Oracled<L>(pub L);

#[cfg(test)]
impl<L: Oracle> Layer for Oracled<L> {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        self.0.forward_oracle(x)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.0.backward_oracle(grad_out)
    }

    fn sgd_step(&mut self, lr: f32) {
        self.0.sgd_step(lr);
    }

    fn zero_grads(&mut self) {
        self.0.zero_grads();
    }

    fn param_count(&self) -> usize {
        self.0.param_count()
    }

    fn map_weights(&mut self, f: &mut dyn FnMut(f32) -> f32) {
        self.0.map_weights(f);
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}
