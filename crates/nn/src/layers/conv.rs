use std::ops::Range;

use rand::{Rng, SeedableRng};

use super::{dims4_checked, output_len, tap_range, Layer};
use crate::Tensor;

/// A 2-D convolution layer (Eq. 1 of the paper).
///
/// Weights have shape `[out_channels, in_channels, k, k]`; the forward pass
/// computes
///
/// ```text
/// a(n, o, y, x) = b(o) + Σ_c Σ_kh Σ_kw w(o, c, kh, kw) · x(n, c, y·s + kh - p, x·s + kw - p)
/// ```
///
/// with stride `s` and symmetric zero padding `p`. The backward pass
/// implements Eq. 3 (input errors = output errors convolved with the
/// transposed kernel) and Eq. 4 (weight gradients = input convolved with
/// output errors).
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_ch: usize,
    out_ch: usize,
    k: usize,
    stride: usize,
    pad: usize,
    weights: Tensor,
    bias: Tensor,
    grad_w: Tensor,
    grad_b: Tensor,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution layer with He-uniform initialized weights.
    ///
    /// # Panics
    ///
    /// Panics if any of `in_ch`, `out_ch`, `k`, `stride` is zero.
    #[must_use]
    pub fn new(in_ch: usize, out_ch: usize, k: usize, stride: usize, pad: usize, seed: u64) -> Self {
        assert!(in_ch > 0 && out_ch > 0 && k > 0 && stride > 0, "conv dimensions must be positive");
        let fan_in = (in_ch * k * k) as f32;
        let limit = (6.0 / fan_in).sqrt();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let w: Vec<f32> = (0..out_ch * in_ch * k * k).map(|_| rng.gen_range(-limit..limit)).collect();
        Self {
            in_ch,
            out_ch,
            k,
            stride,
            pad,
            weights: Tensor::from_vec(w, &[out_ch, in_ch, k, k]),
            bias: Tensor::zeros(&[out_ch]),
            grad_w: Tensor::zeros(&[out_ch, in_ch, k, k]),
            grad_b: Tensor::zeros(&[out_ch]),
            cached_input: None,
        }
    }

    /// The weight tensor (`[out, in, k, k]`).
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

    /// Mutable weight access (used by tests and quantization).
    pub fn weights_mut(&mut self) -> &mut Tensor {
        &mut self.weights
    }

    /// Output spatial size for an input of `h × w`.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit in the padded input.
    #[must_use]
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (
            output_len("Conv2d", h, self.k, self.stride, self.pad),
            output_len("Conv2d", w, self.k, self.stride, self.pad),
        )
    }

    /// Each kernel row's valid output rows and each kernel column's valid
    /// output columns, for an `h × w` input and `oh × ow` output.
    fn taps(&self, h: usize, w: usize, oh: usize, ow: usize) -> (Vec<Range<usize>>, Vec<Range<usize>>) {
        let (k, s, p) = (self.k, self.stride, self.pad);
        (
            (0..k).map(|t| tap_range(oh, h, t, s, p)).collect(),
            (0..k).map(|t| tap_range(ow, w, t, s, p)).collect(),
        )
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let [n, c, h, w] = dims4_checked(x, "Conv2d");
        assert_eq!(c, self.in_ch, "Conv2d expects {} input channels, got {c}", self.in_ch);
        let (oh, ow) = self.output_hw(h, w);
        let (k, s, p) = (self.k, self.stride, self.pad);
        let (rows, cols) = self.taps(h, w, oh, ow);
        let mut out = Tensor::zeros(&[n, self.out_ch, oh, ow]);
        // Tap by tap, output column innermost: each output element still
        // takes its terms in (ci, kh, kw) order, starting from the bias.
        let images =
            x.data().chunks_exact(c * h * w).zip(out.data_mut().chunks_exact_mut(self.out_ch * oh * ow));
        for (x_img, out_img) in images {
            let per_out = out_img.chunks_exact_mut(oh * ow).zip(self.weights.data().chunks_exact(c * k * k));
            for ((out_plane, w_o), &b) in per_out.zip(self.bias.data()) {
                out_plane.fill(b);
                for (x_plane, w_c) in x_img.chunks_exact(h * w).zip(w_o.chunks_exact(k * k)) {
                    for (t, &wv) in w_c.iter().enumerate() {
                        let (kh, kw) = (t / k, t % k);
                        let cols = cols[kw].clone();
                        // A tap with no valid column reads nothing, and its
                        // input offset may lie past the plane.
                        if cols.is_empty() {
                            continue;
                        }
                        for y in rows[kh].clone() {
                            let x_row = &x_plane[(y * s + kh - p) * w + cols.start * s + kw - p..];
                            let out_row = &mut out_plane[y * ow..][cols.clone()];
                            zip_strided(out_row.iter_mut(), x_row.iter(), s, |(o, &v)| *o += wv * v);
                        }
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
        let [gn, go, oh, ow] = grad_out.dims4();
        assert_eq!(gn, n, "gradient batch mismatch");
        assert_eq!(go, self.out_ch, "gradient channel mismatch");
        assert_eq!((oh, ow), self.output_hw(h, w), "gradient spatial mismatch");
        let (k, s, p) = (self.k, self.stride, self.pad);
        let (rows, cols) = self.taps(h, w, oh, ow);
        let mut grad_in = Tensor::zeros(&[n, c, h, w]);
        // Where the per-element loops skipped a zero gradient, these add +0
        // (or −0 to the bias), which leaves the sum as it was: the
        // accumulators start at +0, so they are never −0 (DESIGN.md §6).
        for g_img in grad_out.data().chunks_exact(self.out_ch * oh * ow) {
            for (gb, g_plane) in self.grad_b.data_mut().iter_mut().zip(g_img.chunks_exact(oh * ow)) {
                for &g in g_plane {
                    *gb += g;
                }
            }
        }
        let images =
            x.data().chunks_exact(c * h * w).zip(grad_out.data().chunks_exact(self.out_ch * oh * ow));
        for ((x_img, g_img), gi_img) in images.zip(grad_in.data_mut().chunks_exact_mut(c * h * w)) {
            let per_out = self
                .weights
                .data()
                .chunks_exact(c * k * k)
                .zip(self.grad_w.data_mut().chunks_exact_mut(c * k * k));
            for (g_plane, (w_o, gw_o)) in g_img.chunks_exact(oh * ow).zip(per_out) {
                let per_in = x_img.chunks_exact(h * w).zip(gi_img.chunks_exact_mut(h * w));
                for ((x_plane, gi_plane), (w_c, gw_c)) in
                    per_in.zip(w_o.chunks_exact(k * k).zip(gw_o.chunks_exact_mut(k * k)))
                {
                    // Weight gradients take their terms in (n, y, x) order.
                    // Taps in descending (kh, kw) order reach each input
                    // element in ascending (y, x) output order.
                    for t in (0..k * k).rev() {
                        let (kh, kw, wv) = (t / k, t % k, w_c[t]);
                        let cols = cols[kw].clone();
                        if cols.is_empty() {
                            continue;
                        }
                        let mut gw = gw_c[t];
                        for y in rows[kh].clone() {
                            let at = (y * s + kh - p) * w + cols.start * s + kw - p;
                            let g_row = &g_plane[y * ow..][cols.clone()];
                            zip_strided(g_row.iter(), x_plane[at..].iter(), s, |(&g, &v)| {
                                gw += if g != 0.0 { g * v } else { 0.0 };
                            });
                            zip_strided(g_row.iter(), gi_plane[at..].iter_mut(), s, |(&g, gi)| {
                                *gi += if g != 0.0 { g * wv } else { 0.0 };
                            });
                        }
                        gw_c[t] = gw;
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
        "conv2d"
    }
}

/// Calls `f` on `(a[i], b[i·stride])` for each `i` in `a`, as a plain zip at
/// stride 1 so the loop vectorizes.
#[inline(always)]
fn zip_strided<A: Iterator, B: Iterator>(a: A, b: B, stride: usize, f: impl FnMut((A::Item, B::Item))) {
    if stride == 1 {
        a.zip(b).for_each(f);
    } else {
        a.zip(b.step_by(stride)).for_each(f);
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::super::assert_same_bits;
    use super::*;

    /// `len` values in `−1..1`, about 30% of them exact zeros of either
    /// sign. With `specials`, about 6% are ±∞ or NaN.
    fn values(len: usize, specials: bool, rng: &mut rand::rngs::StdRng) -> Vec<f32> {
        (0..len)
            .map(|_| match rng.gen_range(0..100u32) {
                0..=14 => 0.0,
                15..=29 => -0.0,
                30..=31 if specials => f32::INFINITY,
                32..=33 if specials => f32::NEG_INFINITY,
                34..=35 if specials => f32::NAN,
                _ => rng.gen_range(-1.0f32..1.0),
            })
            .collect()
    }

    /// The per-element loops the slice kernels replaced, kept as their
    /// bit-exact oracle.
    impl Conv2d {
        fn forward_oracle(&mut self, x: &Tensor) -> Tensor {
            let [n, c, h, w] = dims4_checked(x, "Conv2d");
            assert_eq!(c, self.in_ch, "Conv2d expects {} input channels, got {c}", self.in_ch);
            let (oh, ow) = self.output_hw(h, w);
            let mut out = Tensor::zeros(&[n, self.out_ch, oh, ow]);
            for ni in 0..n {
                for o in 0..self.out_ch {
                    let b = self.bias.data()[o];
                    for y in 0..oh {
                        for xo in 0..ow {
                            let mut acc = b;
                            for ci in 0..self.in_ch {
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
                                        acc += self.weights.at4(o, ci, kh, kw)
                                            * x.at4(ni, ci, iy - self.pad, ix - self.pad);
                                    }
                                }
                            }
                            *out.at4_mut(ni, o, y, xo) = acc;
                        }
                    }
                }
            }
            self.cached_input = Some(x.clone());
            out
        }

        fn backward_oracle(&mut self, grad_out: &Tensor) -> Tensor {
            let x = self.cached_input.as_ref().expect("backward before forward");
            let [n, _, h, w] = x.dims4();
            let [_, _, oh, ow] = grad_out.dims4();
            let mut grad_in = Tensor::zeros(&[n, self.in_ch, h, w]);
            for ni in 0..n {
                for o in 0..self.out_ch {
                    for y in 0..oh {
                        for xo in 0..ow {
                            let g = grad_out.at4(ni, o, y, xo);
                            if g == 0.0 {
                                continue;
                            }
                            self.grad_b.data_mut()[o] += g;
                            for ci in 0..self.in_ch {
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
                                        *self.grad_w.at4_mut(o, ci, kh, kw) += g * xi;
                                        *grad_in.at4_mut(ni, ci, iy - self.pad, ix - self.pad) +=
                                            g * self.weights.at4(o, ci, kh, kw);
                                    }
                                }
                            }
                        }
                    }
                }
            }
            grad_in
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The slice kernels reproduce the oracle bit for bit: the forward
        /// output, both input gradients of two accumulating backward
        /// passes, and the weights and bias after the SGD step.
        #[test]
        fn slice_kernels_match_the_oracle_bit_for_bit(
            n in 1usize..=2,
            cin in 1usize..=3,
            cout in 1usize..=3,
            k in 1usize..=5,
            stride in 1usize..=3,
            pad in 0usize..=2,
            dh in 0usize..=8,
            dw in 0usize..=8,
            specials in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let (h, w) = (k + dh % (10 - k), k + dw % (10 - k));
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut fast = Conv2d::new(cin, cout, k, stride, pad, seed);
            let weights = values(fast.weights.len(), specials, &mut rng);
            fast.weights_mut().data_mut().copy_from_slice(&weights);
            let bias = values(cout, specials, &mut rng);
            fast.bias_mut().data_mut().copy_from_slice(&bias);
            let mut oracle = fast.clone();
            let x = Tensor::from_vec(values(n * cin * h * w, specials, &mut rng), &[n, cin, h, w]);
            let y = fast.forward(&x);
            assert_same_bits("output", y.data(), oracle.forward_oracle(&x).data());
            for pass in ["first", "second"] {
                let g = Tensor::from_vec(values(y.len(), specials, &mut rng), y.shape());
                let (gi, gi_oracle) = (fast.backward(&g), oracle.backward_oracle(&g));
                assert_same_bits(&format!("{pass} input gradient"), gi.data(), gi_oracle.data());
            }
            assert_same_bits("weight gradients", fast.grad_w.data(), oracle.grad_w.data());
            assert_same_bits("bias gradients", fast.grad_b.data(), oracle.grad_b.data());
            fast.sgd_step(0.1);
            oracle.sgd_step(0.1);
            assert_same_bits("weights", fast.weights().data(), oracle.weights().data());
            assert_same_bits("bias", fast.bias().data(), oracle.bias().data());
        }
    }

    /// Hand-computed 1-channel 3x3 input, 2x2 kernel, stride 1, no pad.
    #[test]
    fn forward_matches_hand_computation() {
        let mut conv = Conv2d::new(1, 1, 2, 1, 0, 0);
        conv.weights_mut().data_mut().copy_from_slice(&[1.0, 0.0, 0.0, -1.0]);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0], &[1, 1, 3, 3]);
        let y = conv.forward(&x);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        // window tl=1 br=5 -> 1-5=-4; etc.
        assert_eq!(y.data(), &[-4.0, -4.0, -4.0, -4.0]);
    }

    #[test]
    fn padding_preserves_spatial_size() {
        let mut conv = Conv2d::new(1, 2, 3, 1, 1, 1);
        let x = Tensor::zeros(&[2, 1, 5, 5]);
        let y = conv.forward(&x);
        assert_eq!(y.shape(), &[2, 2, 5, 5]);
    }

    #[test]
    fn stride_two_halves_output() {
        let mut conv = Conv2d::new(1, 1, 2, 2, 0, 1);
        let x = Tensor::zeros(&[1, 1, 8, 8]);
        assert_eq!(conv.forward(&x).shape(), &[1, 1, 4, 4]);
    }

    #[test]
    fn gradient_check_weights() {
        gradient_check(|| Conv2d::new(2, 2, 3, 1, 1, 3), &[1, 2, 4, 4]);
    }

    #[test]
    fn gradient_check_strided() {
        gradient_check(|| Conv2d::new(1, 2, 2, 2, 0, 5), &[1, 1, 4, 4]);
    }

    /// Finite-difference gradient check on both weights and inputs.
    fn gradient_check<F: Fn() -> Conv2d>(make: F, x_shape: &[usize]) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let x = Tensor::from_vec(
            (0..x_shape.iter().product::<usize>()).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            x_shape,
        );
        let mut conv = make();
        // Loss = sum(output); dL/dout = 1.
        let y = conv.forward(&x);
        let ones = Tensor::full(y.shape(), 1.0);
        let grad_in = conv.backward(&ones);

        let eps = 1e-3;
        // Check a handful of weight gradients.
        for wi in [0usize, 1, conv.weights.len() / 2, conv.weights.len() - 1] {
            let mut plus = make();
            plus.weights_mut().data_mut()[wi] += eps;
            let mut minus = make();
            minus.weights_mut().data_mut()[wi] -= eps;
            let numeric = (plus.forward(&x).sum() - minus.forward(&x).sum()) / (2.0 * eps);
            let analytic = conv.grad_w.data()[wi];
            assert!(
                (numeric - analytic).abs() < 1e-2 * numeric.abs().max(1.0),
                "weight {wi}: numeric {numeric} vs analytic {analytic}"
            );
        }
        // Check a handful of input gradients.
        for xi in [0usize, x.len() / 3, x.len() - 1] {
            let mut xp = x.clone();
            xp.data_mut()[xi] += eps;
            let mut xm = x.clone();
            xm.data_mut()[xi] -= eps;
            let numeric = (make().forward(&xp).sum() - make().forward(&xm).sum()) / (2.0 * eps);
            let analytic = grad_in.data()[xi];
            assert!(
                (numeric - analytic).abs() < 1e-2 * numeric.abs().max(1.0),
                "input {xi}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn sgd_step_moves_weights_against_gradient() {
        let mut conv = Conv2d::new(1, 1, 2, 1, 0, 2);
        let x = Tensor::full(&[1, 1, 3, 3], 1.0);
        let _ = conv.forward(&x);
        let before = conv.weights().data().to_vec();
        let y_shape = [1, 1, 2, 2];
        conv.backward(&Tensor::full(&y_shape, 1.0));
        conv.sgd_step(0.1);
        // dL/dw = sum of inputs in each window = 4 * 1.0; w -= 0.1*4.
        for (b, a) in before.iter().zip(conv.weights().data()) {
            assert!((b - a - 0.4).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_without_forward_panics() {
        let mut conv = Conv2d::new(1, 1, 2, 1, 0, 0);
        let _ = conv.backward(&Tensor::zeros(&[1, 1, 2, 2]));
    }

    #[test]
    fn param_count() {
        let conv = Conv2d::new(3, 8, 3, 1, 1, 0);
        assert_eq!(conv.param_count(), 8 * 3 * 9 + 8);
    }

    #[test]
    #[should_panic(expected = "Conv2d: kernel 3 (stride 2, padding 0) does not fit input size 2")]
    fn kernel_larger_than_padded_input_panics() {
        let _ = Conv2d::new(1, 1, 3, 2, 0, 0).forward(&Tensor::zeros(&[1, 1, 2, 2]));
    }
}
