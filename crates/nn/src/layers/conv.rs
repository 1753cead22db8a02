use rand::{Rng, SeedableRng};

use super::{dims4_checked, output_len, tap_range, transpose, Layer};
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
    pub(crate) fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (
            output_len("Conv2d", h, self.k, self.stride, self.pad),
            output_len("Conv2d", w, self.k, self.stride, self.pad),
        )
    }

    /// Each kernel tap's runs for an `h × w` input and `oh × ow` output,
    /// indexed by `kh·k + kw`: within an output row the tap's valid columns
    /// are one run at stride 1 and one run each otherwise.
    fn taps(&self, h: usize, w: usize, oh: usize, ow: usize) -> Vec<Vec<Run>> {
        let (k, s, p) = (self.k, self.stride, self.pad);
        let tap = |kh: usize, kw: usize| {
            let cols = tap_range(ow, w, kw, s, p);
            let len = if s == 1 { cols.len() } else { 1 };
            let row_runs = move |y: usize| {
                let iy = y * s + kh - p;
                cols.clone().step_by(len.max(1)).map(move |ox| (y * ow + ox, iy * w + ox * s + kw - p, len))
            };
            tap_range(oh, h, kh, s, p).flat_map(row_runs).collect()
        };
        (0..k * k).map(|t| tap(t / k, t % k)).collect()
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let [n, c, h, w] = dims4_checked(x, "Conv2d");
        assert_eq!(c, self.in_ch, "Conv2d expects {} input channels, got {c}", self.in_ch);
        let (oh, ow) = self.output_hw(h, w);
        let k = self.k;
        let taps = self.taps(h, w, oh, ow);
        let plane = oh * ow;
        // Batch innermost: the input as [c][h][w][n] and one output
        // channel at a time as [oh][ow][n], so a run of columns times the
        // batch is one contiguous slice.
        let mut xt = vec![0.0; n * c * h * w];
        transpose(x.data(), c * h * w, n, c * h * w, &mut xt, n);
        let mut out = Tensor::zeros(&[n, self.out_ch, oh, ow]);
        let mut acc = vec![0.0; plane * n];
        // Tap by tap, run innermost: each output element still takes its
        // terms in (ci, kh, kw) order, starting from the bias.
        let per_out = self.weights.data().chunks_exact(c * k * k).zip(self.bias.data());
        for (o, (w_o, &b)) in per_out.enumerate() {
            acc.fill(b);
            for (x_c, w_c) in xt.chunks_exact(h * w * n).zip(w_o.chunks_exact(k * k)) {
                for (&wv, runs) in w_c.iter().zip(&taps) {
                    for &(at, from, len) in runs {
                        let out_run = &mut acc[at * n..][..len * n];
                        let x_run = &x_c[from * n..][..len * n];
                        for (a, &v) in out_run.iter_mut().zip(x_run) {
                            *a += wv * v;
                        }
                    }
                }
            }
            transpose(&acc, n, plane, n, &mut out.data_mut()[o * plane..], self.out_ch * plane);
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
        let k = self.k;
        let taps = self.taps(h, w, oh, ow);
        let plane = oh * ow;
        // Where the per-element loops skipped a zero gradient, these add +0
        // (or −0 to the bias), which leaves the sum as it was: the
        // accumulators start at +0, so they are never −0 (DESIGN.md §6).
        for g_img in grad_out.data().chunks_exact(self.out_ch * plane) {
            for (gb, g_plane) in self.grad_b.data_mut().iter_mut().zip(g_img.chunks_exact(plane)) {
                for &g in g_plane {
                    *gb += g;
                }
            }
        }

        // Input gradient, batch innermost: one output channel's gradient
        // at a time as [oh][ow][n] scatters into the input gradient as
        // [c][h][w][n]. Taps in descending (kh, kw) order reach each input
        // element in ascending (y, x) output order.
        let mut g_o = vec![0.0; plane * n];
        let mut git = vec![0.0; c * h * w * n];
        for (o, w_o) in self.weights.data().chunks_exact(c * k * k).enumerate() {
            transpose(&grad_out.data()[o * plane..], self.out_ch * plane, n, plane, &mut g_o, n);
            for (gi_c, w_c) in git.chunks_exact_mut(h * w * n).zip(w_o.chunks_exact(k * k)) {
                for (&wv, runs) in w_c.iter().zip(&taps).rev() {
                    for &(at, to, len) in runs {
                        let g_run = &g_o[at * n..][..len * n];
                        let gi_run = &mut gi_c[to * n..][..len * n];
                        for (gi, &g) in gi_run.iter_mut().zip(g_run) {
                            *gi += if g != 0.0 { g * wv } else { 0.0 };
                        }
                    }
                }
            }
        }
        let mut grad_in = Tensor::zeros(&[n, c, h, w]);
        transpose(&git, n, c * h * w, n, grad_in.data_mut(), c * h * w);

        // Weight gradient, image by image: the image's output gradient as
        // [o / LANES][oh][ow][LANES], swept by groups of `GROUP` input
        // channels copied to [h][w][GROUP]. Each weight takes its terms in
        // (n, y, x) order, starting from its current value.
        let mut g_img = vec![0.0; plane * self.out_ch.next_multiple_of(LANES)];
        let mut x_group = vec![0.0; h * w * GROUP];
        let (gw, out_ch) = (self.grad_w.data_mut(), self.out_ch);
        for (x_img, g) in
            x.data().chunks_exact(c * h * w).zip(grad_out.data().chunks_exact(self.out_ch * plane))
        {
            for (g_o, g_lanes) in g.chunks(LANES * plane).zip(g_img.chunks_exact_mut(LANES * plane)) {
                transpose(g_o, plane, g_o.len() / plane, plane, g_lanes, LANES);
            }
            let grouped = c - c % GROUP;
            for ci in (0..grouped).step_by(GROUP) {
                transpose(&x_img[ci * h * w..], h * w, GROUP, h * w, &mut x_group, GROUP);
                sweep_weight_gradient::<GROUP>(gw, &x_group, &g_img, &taps, ci, c, out_ch);
            }
            for (ci, x_plane) in x_img.chunks_exact(h * w).enumerate().skip(grouped) {
                sweep_weight_gradient::<1>(gw, x_plane, &g_img, &taps, ci, c, out_ch);
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

/// `(first output pixel, first input pixel, pixels)` of one run of a kernel
/// tap: `pixels` consecutive outputs of one row, which read as many
/// consecutive inputs.
type Run = (usize, usize, usize);

/// Output channels the weight gradient accumulates at once.
const LANES: usize = 8;

/// Input channels the weight gradient accumulates at once.
const GROUP: usize = 4;

/// Adds one image's `g·x` terms to the weight gradients `gw`
/// (`[out_ch][c][k][k]`) of the `G` input channels from `ci0`, given those
/// channels as `x_group` (`[h][w][G]`) and the image's output gradient as
/// `g_img` (`[out_ch / LANES rounded up][oh][ow][LANES]`). Each (tap,
/// group of `LANES` output channels) holds `G × LANES` gradients in
/// registers, sweeps the tap's runs in (y, x) order and stores them: the
/// `G` channels share each gradient load, and their add chains are
/// independent. Padded lanes add zeros and are never stored.
fn sweep_weight_gradient<const G: usize>(
    gw: &mut [f32],
    x_group: &[f32],
    g_img: &[f32],
    taps: &[Vec<Run>],
    ci0: usize,
    c: usize,
    out_ch: usize,
) {
    let (kk, plane) = (taps.len(), g_img.len() / out_ch.next_multiple_of(LANES));
    for (t, runs) in taps.iter().enumerate() {
        for (o0, g_lanes) in (0..out_ch).step_by(LANES).zip(g_img.chunks_exact(plane * LANES)) {
            let weight = |j: usize, l: usize| ((o0 + l) * c + ci0 + j) * kk + t;
            let live = LANES.min(out_ch - o0);
            let mut acc = [[0.0f32; LANES]; G];
            for (j, acc_j) in acc.iter_mut().enumerate() {
                for (l, a) in acc_j[..live].iter_mut().enumerate() {
                    *a = gw[weight(j, l)];
                }
            }
            for &(at, from, len) in runs {
                let (g_run, _) = g_lanes[at * LANES..][..len * LANES].as_chunks::<LANES>();
                let (x_run, _) = x_group[from * G..][..len * G].as_chunks::<G>();
                for (g, xs) in g_run.iter().zip(x_run) {
                    let g: [f32; LANES] = *g;
                    for j in 0..G {
                        let v = xs[j];
                        for l in 0..LANES {
                            acc[j][l] += if g[l] != 0.0 { g[l] * v } else { 0.0 };
                        }
                    }
                }
            }
            for (j, acc_j) in acc.iter().enumerate() {
                for (l, &a) in acc_j[..live].iter().enumerate() {
                    gw[weight(j, l)] = a;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    impl super::Conv2d {
        /// Mutable bias access.
        fn bias_mut(&mut self) -> &mut Tensor {
            &mut self.bias
        }
    }

    use super::super::{assert_same_bits, Oracle};
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
    impl Oracle for Conv2d {
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
            n in 1usize..=4,
            cin in 1usize..=6,
            cout in 1usize..=17,
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
