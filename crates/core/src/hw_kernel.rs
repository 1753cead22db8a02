//! The two sides of a [`crate::HwConv`] read: the programmed kernel
//! ([`ConvKernel`]) and the programmed input batch ([`CodeImage`]), plus
//! the window walk and the linear read that combine them.
//!
//! Float kernels are quantized once to the differential-pair encoding —
//! signed 8-bit, i.e. a 7-bit magnitude on either the positive or the
//! negative side (Table II) — and kept as signed codes `[in][k·k][out]`.
//! A batch is quantized to 8-bit codes with one shared range, in one
//! zero-padded image.
//!
//! Every read saturates at the 4-bit ADC's max code. When no read can
//! reach it ([`ConvKernel::exact_reads`]), the ADC is the identity and the
//! shift-add of a window's bit-serial reads is exactly the integer dot
//! product of its activation and weight codes, which
//! [`ConvKernel::forward_linear`] computes directly (DESIGN.md §8, "Linear
//! reads"). The bit-level views of both sides are derived from the codes
//! only where a bit-level path reads them:
//!
//! * a flat mask table `[in][out][side][wbit]`, built at programming for
//!   saturable kernels only, each mask one window in the compact layout of
//!   [`inca_xbar::VerticalPlane::extract_window_compact`] (cell `(i, j)`
//!   at bit `i·k + j`, `⌈k²/64⌉` words), so one input channel's masks are
//!   one contiguous run that [`inca_xbar::simd::and_popcount_accumulate`]
//!   sweeps per (window, activation bit);
//! * flat `u8` bit-planes `[out][in][side][wbit][k·k]`, derived on first
//!   use by the reference read (`forward_reference`) and the analog
//!   (`forward_noisy`) read;
//! * the activation bit-planes (subarray tiles of 3D stacks), derived
//!   from the code image by `HwConv`.

use std::ops::AddAssign;
use std::sync::OnceLock;

use inca_nn::Tensor;
use inca_xbar::packed::words_for;
use inca_xbar::simd::and_popcount_accumulate;
use inca_xbar::sliding::output_dims_padded;

use crate::exec::{self, ExecPolicy};
use crate::hw_exec::{weight_levels, DATA_BITS, READ_CAP, WEIGHT_BITS};
use crate::{Error, Result};

/// Differential sides per weight: positive, then negative.
const SIDES: usize = 2;

/// Reads per (output channel, input channel, window, activation bit):
/// one per side and weight bit.
const READS_PER_OUT: usize = SIDES * WEIGHT_BITS as usize;

/// The largest window dot product `i32` accumulators hold exactly.
const I32_LIMIT: u128 = i32::MAX as u128;

/// Output channels per block of the linear read's register accumulators:
/// wide blocks read each weight cache line fewer times, narrow ones keep
/// 8- and 16-channel layers in registers.
const WIDE_LANES: usize = 32;
const LANES: usize = 8;

/// A quantized conv kernel with its bias and geometry, ready to be read.
#[derive(Debug, Clone)]
pub(crate) struct ConvKernel {
    out_ch: usize,
    in_ch: usize,
    k: usize,
    stride: usize,
    pad: usize,
    /// Signed weight codes (−127..=127), `[in][k·k][out]`.
    codes: Vec<i16>,
    /// Words per compact window and per mask: `⌈k²/64⌉`.
    mask_words: usize,
    /// `[in][out][side][wbit]` masks of `mask_words` words; empty unless
    /// a read can saturate.
    masks: Vec<u64>,
    /// `[out][in][side][wbit][k·k]` bit-planes (0/1), derived on first
    /// use.
    planes: OnceLock<Vec<u8>>,
    /// Per-output signed sum of weight codes (offset correction).
    code_sum: Vec<i64>,
    w_scale: f32,
    bias: Vec<f32>,
}

impl ConvKernel {
    /// Quantizes `[out, in, k, k]` float weights onto the differential
    /// encoding.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] if the weights are not a square 4-D
    /// kernel, the bias length differs from the output channels, the
    /// stride is 0, or the `u32` read accumulators could overflow
    /// (`in · min(k², 15) · 255 ≥ 2³²`).
    pub(crate) fn from_float(weights: &Tensor, bias: &[f32], stride: usize, pad: usize) -> Result<Self> {
        if weights.shape().len() != 4 {
            return Err(Error::Config(format!("expected [out,in,k,k] weights, got {:?}", weights.shape())));
        }
        let [out_ch, in_ch, k, k2] = weights.dims4();
        if k != k2 {
            return Err(Error::Config("only square kernels supported".into()));
        }
        if bias.len() != out_ch {
            return Err(Error::Config(format!("{} biases for {out_ch} output channels", bias.len())));
        }
        if stride == 0 {
            return Err(Error::Config("stride must be at least 1".into()));
        }
        if max_window_sum(in_ch, k) > u128::from(u32::MAX) {
            return Err(Error::Config(format!(
                "{in_ch} input channels of {k}x{k} reads can overflow the u32 read accumulators"
            )));
        }
        let w_max = weights.data().iter().fold(0.0f32, |m, &w| m.max(w.abs())).max(1e-12);
        let w_scale = w_max / weight_levels();
        let kk = k * k;
        let mut codes = vec![0i16; in_ch * kk * out_ch];
        let mut code_sum = vec![0i64; out_ch];
        // NCHW weights are `[out][in][k·k]` runs.
        for (oc, cells) in weights.data().chunks_exact(kk).enumerate() {
            let (o, c) = (oc / in_ch, oc % in_ch);
            for (cell, &w) in cells.iter().enumerate() {
                // |w| ≤ w_max, so the code lies in −127..=127.
                let q = (w / w_scale).round() as i16;
                code_sum[o] += i64::from(q);
                codes[(c * kk + cell) * out_ch + o] = q;
            }
        }
        let mut kernel = Self {
            out_ch,
            in_ch,
            k,
            stride,
            pad,
            codes,
            mask_words: words_for(kk),
            masks: Vec::new(),
            planes: OnceLock::new(),
            code_sum,
            w_scale,
            bias: bias.to_vec(),
        };
        if !kernel.exact_reads() {
            let mut masks = vec![0u64; in_ch * out_ch * READS_PER_OUT * kernel.mask_words];
            kernel.for_each_weight_bit(|c, o, read, cell| {
                let mask = ((c * out_ch + o) * READS_PER_OUT + read) * kernel.mask_words;
                masks[mask + cell / 64] |= 1 << (cell % 64);
            });
            kernel.masks = masks;
        }
        Ok(kernel)
    }

    pub(crate) fn out_ch(&self) -> usize {
        self.out_ch
    }

    pub(crate) fn in_ch(&self) -> usize {
        self.in_ch
    }

    /// Kernel side.
    pub(crate) fn k(&self) -> usize {
        self.k
    }

    pub(crate) fn stride(&self) -> usize {
        self.stride
    }

    /// Zero padding on each side of the input.
    pub(crate) fn pad(&self) -> usize {
        self.pad
    }

    /// Output size on an `h × w` input.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] naming the geometry when the output
    /// would be empty (the kernel is larger than the padded input).
    pub(crate) fn output_dims(&self, h: usize, w: usize) -> Result<(usize, usize)> {
        conv_output_dims(h, w, self.k, self.stride, self.pad)
    }

    /// Whether no read can saturate: a `k × k` window read sums at most
    /// `k²` binary products, so every read is exact while `k² ≤ 15`
    /// (every 1×1, 2×2 and 3×3 kernel).
    pub(crate) fn exact_reads(&self) -> bool {
        (self.k as u128).pow(2) <= u128::from(READ_CAP)
    }

    /// Calls `f(in, out, read, cell)` for every set magnitude bit of every
    /// weight code, where `read = side · WEIGHT_BITS + wbit` and `side` 0
    /// is positive, 1 negative.
    fn for_each_weight_bit(&self, mut f: impl FnMut(usize, usize, usize, usize)) {
        let (kk, wbits) = (self.k * self.k, usize::from(WEIGHT_BITS));
        for (i, &q) in self.codes.iter().enumerate() {
            let (o, cell, c) = (i % self.out_ch, i / self.out_ch % kk, i / (self.out_ch * kk));
            let side = usize::from(q < 0);
            for wb in 0..wbits {
                if (q.unsigned_abs() >> wb) & 1 == 1 {
                    f(c, o, side * wbits + wb, cell);
                }
            }
        }
    }

    /// The `WEIGHT_BITS` bit-planes of one (output, input, side), LSB
    /// first, `k·k` cells each. `side` 0 is positive, 1 negative.
    pub(crate) fn planes(&self, o: usize, ci: usize, side: usize) -> std::slice::ChunksExact<'_, u8> {
        let kk = self.k * self.k;
        let planes = self.planes.get_or_init(|| {
            let mut planes = vec![0u8; self.out_ch * self.in_ch * READS_PER_OUT * kk];
            self.for_each_weight_bit(|c, o, read, cell| {
                planes[((o * self.in_ch + c) * READS_PER_OUT + read) * kk + cell] = 1;
            });
            planes
        });
        let len = usize::from(WEIGHT_BITS) * kk;
        let start = ((o * self.in_ch + ci) * SIDES + side) * len;
        planes[start..start + len].chunks_exact(kk)
    }

    /// Words per compact window: the length of `x` in
    /// [`ConvKernel::accumulate`].
    pub(crate) fn window_words(&self) -> usize {
        self.mask_words
    }

    /// Accumulators per window: one per (output, side, weight bit).
    pub(crate) fn reads_per_window(&self) -> usize {
        self.out_ch * READS_PER_OUT
    }

    /// Reads one window's activation bit `xbit` of input channel `ci`
    /// (compact words `x`) against every output's masks, adding each
    /// saturated read `<< xbit` to `acc[(o·2 + side)·7 + wbit]`. Only
    /// saturable kernels hold masks (see [`ConvKernel::exact_reads`]).
    pub(crate) fn accumulate(&self, ci: usize, xbit: usize, x: &[u64], acc: &mut [u32]) {
        let len = self.reads_per_window() * self.mask_words;
        and_popcount_accumulate(x, &self.masks[ci * len..(ci + 1) * len], READ_CAP, xbit as u32, acc);
    }

    /// Output `o`'s integer dot product from a window's accumulators:
    /// `Σ_wbit (pos − neg) << wbit`.
    pub(crate) fn fold(&self, o: usize, acc: &[u32]) -> i64 {
        let wbits = usize::from(WEIGHT_BITS);
        let (pos, neg) = acc[o * READS_PER_OUT..(o + 1) * READS_PER_OUT].split_at(wbits);
        pos.iter().zip(neg).enumerate().map(|(wb, (&p, &n))| (i64::from(p) - i64::from(n)) << wb).sum()
    }

    /// Dequantizes output `o`'s integer dot product, correcting the
    /// activation offset `x_min` analytically and adding the bias.
    pub(crate) fn dequantize(&self, o: usize, acc: i64, x_scale: f32, x_min: f32) -> f32 {
        acc as f32 * x_scale * self.w_scale + x_min * self.w_scale * self.code_sum[o] as f32 + self.bias[o]
    }

    /// Fills a `[b, out, oh, ow]` output one row of windows at a time:
    /// `f(arena, bi, oy, row)` writes sample `bi`'s output row `oy` as
    /// `ow` runs of `out` outputs, window `ox` at `(oy, ox) · stride`.
    /// Rows fan out across the policy's workers, each with one arena from
    /// `init`.
    ///
    /// # Errors
    ///
    /// Returns `f`'s first error in row order.
    pub(crate) fn map_rows<S>(
        &self,
        policy: ExecPolicy,
        (b, oh, ow): (usize, usize, usize),
        init: impl Fn() -> S + Sync,
        f: impl Fn(&mut S, usize, usize, &mut [f32]) -> Result<()> + Sync,
    ) -> Result<Tensor> {
        let out_ch = self.out_ch;
        // Accumulate as `[b][oy][ox][o]`; transposed into NCHW afterwards.
        let mut window_major = vec![0f32; b * oh * ow * out_ch];
        exec::for_each_chunk_with(policy, &mut window_major, ow * out_ch, init, |arena, idx, row| {
            f(arena, idx / oh, idx % oh, row)
        })?;
        let mut out = Tensor::zeros(&[b, out_ch, oh, ow]);
        let (dst, windows) = (out.data_mut(), oh * ow);
        for bi in 0..b {
            for o in 0..out_ch {
                for p in 0..windows {
                    dst[(bi * out_ch + o) * windows + p] = window_major[(bi * windows + p) * out_ch + o];
                }
            }
        }
        Ok(out)
    }

    /// Every output window of every sample of `image`, each as one signed
    /// integer dot product of its activation codes and the weight codes:
    /// exactly the fold of its bit-serial reads when no read saturates
    /// ([`ConvKernel::exact_reads`]). Returns `[b, out, oh, ow]`.
    ///
    /// Accumulators are `i32` while the worst case `in · k² · 255 · 127`
    /// fits, `i64` past it.
    ///
    /// # Errors
    ///
    /// None in practice; the `Result` is the fan-out's.
    pub(crate) fn forward_linear(
        &self,
        policy: ExecPolicy,
        image: &CodeImage,
        oh: usize,
        ow: usize,
    ) -> Result<Tensor> {
        if max_window_dot(self.in_ch, self.k) <= I32_LIMIT {
            self.forward_linear_in::<i32>(policy, image, oh, ow)
        } else {
            self.forward_linear_in::<i64>(policy, image, oh, ow)
        }
    }

    /// [`ConvKernel::forward_linear`] with accumulators of type `A`.
    fn forward_linear_in<A>(
        &self,
        policy: ExecPolicy,
        image: &CodeImage,
        oh: usize,
        ow: usize,
    ) -> Result<Tensor>
    where
        A: Copy + Default + AddAssign + From<i16> + Into<i64>,
    {
        self.map_rows(
            policy,
            (image.b, oh, ow),
            // Per-worker arena: one window's codes and accumulators.
            || (vec![0i16; self.in_ch * self.k * self.k], vec![A::default(); self.out_ch]),
            |(xs, acc), bi, oy, row| {
                for (ox, slots) in row.chunks_exact_mut(self.out_ch).enumerate() {
                    self.window_dot(image, bi, (oy * self.stride, ox * self.stride), xs, acc);
                    for (o, (slot, &a)) in slots.iter_mut().zip(acc.iter()).enumerate() {
                        *slot = self.dequantize(o, a.into(), image.x_scale, image.x_min);
                    }
                }
                Ok(())
            },
        )
    }

    /// The window at `(ry, rx)` of sample `bi` dotted with the weight
    /// codes, into `acc[o]`. The window's `in · k²` activation codes are
    /// gathered into `xs` once; outputs then go in blocks of
    /// [`WIDE_LANES`], then [`LANES`], then one, each block's sums held
    /// in registers across the window.
    fn window_dot<A: Copy + Default + AddAssign + From<i16>>(
        &self,
        image: &CodeImage,
        bi: usize,
        (ry, rx): (usize, usize),
        xs: &mut [i16],
        acc: &mut [A],
    ) {
        let (k, pw) = (self.k, image.pw);
        let mut dst = xs.iter_mut();
        for ci in 0..self.in_ch {
            let channel = image.channel(bi, ci);
            for ky in 0..k {
                let start = (ry + ky) * pw + rx;
                // The row first: `zip` polls its left side first, and a
                // row's end must not consume a slot of `xs`.
                for (&a, x) in channel[start..start + k].iter().zip(&mut dst) {
                    *x = i16::from(a);
                }
            }
        }
        let mut o0 = 0;
        let (wide, rest) = acc.as_chunks_mut::<WIDE_LANES>();
        for block in wide {
            *block = self.block_dot(xs, o0);
            o0 += WIDE_LANES;
        }
        let (narrow, rest) = rest.as_chunks_mut::<LANES>();
        for block in narrow {
            *block = self.block_dot(xs, o0);
            o0 += LANES;
        }
        for slot in rest {
            [*slot] = self.block_dot(xs, o0);
            o0 += 1;
        }
    }

    /// Outputs `o0..o0 + N` of one window from its gathered activation
    /// codes `xs`: per (input channel, cell), the code times that cell's
    /// weight codes. Each product is exact in `i16` (`255 · 127 < 2¹⁵`).
    fn block_dot<A: Copy + Default + AddAssign + From<i16>, const N: usize>(
        &self,
        xs: &[i16],
        o0: usize,
    ) -> [A; N] {
        let mut sums = [A::default(); N];
        for (cell, &a) in xs.iter().enumerate() {
            let w = cell * self.out_ch + o0;
            for (s, &w) in sums.iter_mut().zip(&self.codes[w..w + N]) {
                *s += A::from(a * w);
            }
        }
        sums
    }
}

/// The largest value one read accumulator can reach: it sums one read
/// per (input channel, activation bit), each at most `min(k², 15)` and
/// shifted by the bit, so `in · min(k², 15) · (2⁸ − 1)`.
fn max_window_sum(in_ch: usize, k: usize) -> u128 {
    let max_read = (k as u128 * k as u128).min(u128::from(READ_CAP));
    in_ch as u128 * max_read * ((1u128 << DATA_BITS) - 1)
}

/// The largest magnitude a window's integer dot product can reach:
/// `in · k²` products of an activation code (at most `2⁸ − 1`) and a
/// weight code (magnitude at most `2⁷ − 1`).
fn max_window_dot(in_ch: usize, k: usize) -> u128 {
    in_ch as u128 * (k as u128).pow(2) * ((1u128 << DATA_BITS) - 1) * ((1u128 << WEIGHT_BITS) - 1)
}

/// Output size of a `k × k` conv on an `h × w` input.
///
/// # Errors
///
/// Returns [`Error::Config`] naming the geometry when the output would be
/// empty: a zero stride, or a kernel larger than the padded input.
pub(crate) fn conv_output_dims(
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
) -> Result<(usize, usize)> {
    match output_dims_padded(h, w, k, k, stride, pad) {
        (0, _) | (_, 0) => Err(Error::Config(format!(
            "empty output: {k}x{k} kernel, stride {stride}, pad {pad} on a {h}x{w} input"
        ))),
        dims => Ok(dims),
    }
}

/// An input batch quantized to 8-bit codes and zero-padded: the programmed
/// input state every read path reads. Offset encoding: codes represent
/// `v = code · x_scale + x_min`, so signed inputs (e.g. the raw image)
/// survive; the offset term is corrected analytically after accumulation
/// (standard PIM practice). One range serves the whole batch, because the
/// planes of a stack share one readout scale.
#[derive(Debug)]
pub(crate) struct CodeImage {
    /// Samples.
    pub(crate) b: usize,
    /// Channels.
    pub(crate) c: usize,
    /// Padded rows.
    pub(crate) ph: usize,
    /// Padded columns.
    pub(crate) pw: usize,
    pub(crate) x_min: f32,
    pub(crate) x_scale: f32,
    /// `[b][c][ph][pw]` codes; the halo holds the code of 0.0.
    codes: Vec<u8>,
}

impl CodeImage {
    /// Quantizes an NCHW batch with `pad` cells of zero padding, in one
    /// pass over its values.
    pub(crate) fn quantize(x: &Tensor, pad: usize) -> Self {
        let [b, c, h, w] = x.dims4();
        let levels = f32::from((1u16 << DATA_BITS) - 1);
        let (lo, hi) = x.data().iter().fold((0.0f32, 0.0f32), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        let x_min = lo.min(0.0);
        let x_max = hi.max(x_min + 1e-9);
        let x_scale = ((x_max - x_min) / levels).max(1e-12);
        // `(t.round() as u32).min(255)`, rounding half away from zero by
        // hand (`t − trunc(t)` is exact) to avoid a libm call per code.
        let max_code = (1i32 << DATA_BITS) - 1;
        let quantize = |v: f32| {
            let t = (v - x_min) / x_scale;
            let i = (t as i32).min(max_code);
            (i + i32::from(t - i as f32 >= 0.5)).clamp(0, max_code) as u8
        };
        let zero_code = quantize(0.0);
        let (ph, pw) = (h + 2 * pad, w + 2 * pad);
        let mut codes = vec![zero_code; b * c * ph * pw];
        let values = x.data();
        for plane in 0..b * c {
            for y in 0..h {
                let src = &values[(plane * h + y) * w..(plane * h + y + 1) * w];
                let start = (plane * ph + y + pad) * pw + pad;
                let row = &mut codes[start..start + w];
                for (dst, &v) in row.iter_mut().zip(src) {
                    *dst = quantize(v);
                }
            }
        }
        Self { b, c, ph, pw, x_min, x_scale, codes }
    }

    /// The `ph × pw` padded codes of one (sample, channel).
    pub(crate) fn channel(&self, bi: usize, ci: usize) -> &[u8] {
        let len = self.ph * self.pw;
        let start = (bi * self.c + ci) * len;
        &self.codes[start..start + len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HwConv;

    #[test]
    fn accumulator_bound_is_exact_at_the_u32_limit() {
        let limit = u128::from(u32::MAX);
        // A 4-bit ADC caps each 5x5 read at 15: 15 · 255 = 3825 per channel.
        assert!(max_window_sum(1_122_867, 5) <= limit);
        assert!(max_window_sum(1_122_868, 5) > limit);
        // 3x3 reads never reach the cap: 9 · 255 = 2295 per channel.
        assert!(max_window_sum(1_871_445, 3) <= limit);
        assert!(max_window_sum(1_871_446, 3) > limit);
        // The cap only binds once k² exceeds it.
        assert_eq!(max_window_sum(2, 3), 2 * 9 * 255);
        assert_eq!(max_window_sum(2, 5), 2 * 15 * 255);
    }

    #[test]
    fn dot_bound_switches_to_i64_past_i32_max() {
        // 9 · 255 · 127 = 291,465 per 3x3 channel; 49 · 255 · 127 per 7x7.
        assert!(max_window_dot(7_367, 3) <= I32_LIMIT);
        assert!(max_window_dot(7_368, 3) > I32_LIMIT);
        assert!(max_window_dot(1_353, 7) <= I32_LIMIT);
        assert!(max_window_dot(1_354, 7) > I32_LIMIT);
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// `out[0]` at weight code +127 and `out[1]` at −127 on every cell.
    fn extreme_weights(in_ch: usize, k: usize) -> Tensor {
        let per_out = in_ch * k * k;
        let data = (0..2 * per_out).map(|i| if i < per_out { 1.0 } else { -1.0 }).collect();
        Tensor::from_vec(data, &[2, in_ch, k, k])
    }

    #[test]
    fn integer_reads_are_exact_past_the_i32_bound() {
        // Every activation at code 255 against weights at ±127: the first
        // 3x3 layer whose window sums pass i32::MAX, and the last below,
        // on one sample and on a batch of two.
        for (batch, in_ch) in [(1, 7_367), (1, 7_368), (2, 7_368)] {
            let conv = HwConv::from_float(&extreme_weights(in_ch, 3), &[0.0; 2], 1, 0).unwrap();
            let x = Tensor::full(&[batch, in_ch, 3, 3], 1.0);
            assert_eq!(CodeImage::quantize(&x, 0).codes, vec![255; batch * in_ch * 9]);
            let y = conv.forward(&x).unwrap();
            assert_eq!(bits(&y), bits(&conv.forward_reference(&x).unwrap()), "{batch} x {in_ch} channels");
            let expected = (in_ch * 9 * 255 * 127) as f32 / 255.0 / 127.0;
            for sample in y.data().chunks_exact(2) {
                assert!((sample[0] / expected - 1.0).abs() < 1e-6, "{} vs {expected}", sample[0]);
                assert_eq!(sample[0], -sample[1]);
            }
        }
    }

    #[test]
    fn masks_planes_and_fold_describe_the_same_codes() {
        // Codes 0..=127 and their negatives over a 2-out, 2-in 9x9 kernel
        // (two mask words per read).
        let (out_ch, in_ch, k) = (2, 2, 9);
        let n = out_ch * in_ch * k * k;
        let data: Vec<f32> = (0..n).map(|i| (i % 255) as f32 - 127.0).collect();
        let weights = Tensor::from_vec(data.clone(), &[out_ch, in_ch, k, k]);
        let kernel = ConvKernel::from_float(&weights, &[0.0; 2], 1, 0).unwrap();
        assert!(!kernel.exact_reads());
        assert_eq!(kernel.window_words(), 2);
        for o in 0..out_ch {
            for ci in 0..in_ch {
                for cell in 0..k * k {
                    let code = data[(o * in_ch + ci) * k * k + cell] as i64;
                    assert_eq!(i64::from(kernel.codes[(ci * k * k + cell) * out_ch + o]), code);
                    // The bit-planes hold the magnitude on the sign's side.
                    let magnitude = |side: usize| -> i64 {
                        kernel.planes(o, ci, side).enumerate().map(|(wb, p)| i64::from(p[cell]) << wb).sum()
                    };
                    assert_eq!(magnitude(0) - magnitude(1), code, "out {o} in {ci} cell {cell}");
                    // An all-ones window with only this cell set reads the
                    // code back through the masks and the fold.
                    let mut x = [0u64; 2];
                    x[cell / 64] = 1 << (cell % 64);
                    let mut sums = vec![0u32; kernel.reads_per_window()];
                    kernel.accumulate(ci, 0, &x, &mut sums);
                    assert_eq!(kernel.fold(o, &sums), code, "out {o} in {ci} cell {cell}");
                }
            }
        }
    }

    #[test]
    fn only_saturable_kernels_hold_masks() {
        let exact = |k: usize| {
            let kernel = ConvKernel::from_float(&Tensor::full(&[1, 1, k, k], 0.5), &[0.0], 1, 0).unwrap();
            assert_eq!(kernel.masks.is_empty(), kernel.exact_reads());
            kernel.exact_reads()
        };
        assert!(exact(1) && exact(2) && exact(3));
        assert!(!exact(4) && !exact(5) && !exact(7));
    }

    #[test]
    fn code_image_pads_with_the_code_of_zero() {
        // Range [-1, 1] in steps of 2/255: 0.0 sits at 127.49… → code 127.
        let x = Tensor::from_vec(vec![-1.0, 1.0, 0.0, 0.5], &[1, 1, 2, 2]);
        let image = CodeImage::quantize(&x, 1);
        assert_eq!((image.b, image.c, image.ph, image.pw), (1, 1, 4, 4));
        #[rustfmt::skip]
        assert_eq!(image.channel(0, 0), &[
            127, 127, 127, 127,
            127,   0, 255, 127,
            127, 127, 191, 127,
            127, 127, 127, 127,
        ]);
    }

    #[test]
    fn empty_outputs_name_the_geometry() {
        assert_eq!(conv_output_dims(2, 2, 3, 1, 1).unwrap(), (2, 2));
        let err = conv_output_dims(2, 2, 3, 1, 0).unwrap_err().to_string();
        assert!(err.contains("3x3 kernel, stride 1, pad 0 on a 2x2 input"), "{err}");
        assert!(conv_output_dims(8, 8, 3, 0, 1).is_err());
    }
}
