//! The programmed (weight-stationary) side of a direct-convolution layer,
//! shared by [`crate::HwConv`] and [`crate::HwBatchConv`].
//!
//! Float kernels are quantized once to the differential-pair encoding —
//! signed 8-bit, i.e. a 7-bit magnitude on either the positive or the
//! negative side (Table II) — and sliced into magnitude bit-planes. The
//! planes are stored twice:
//!
//! * as a flat mask table `[in][out][side][wbit]`, each mask one window
//!   in the compact layout of
//!   [`inca_xbar::VerticalPlane::extract_window_compact`] (cell `(i, j)`
//!   at bit `i·k + j`, `⌈k²/64⌉` words), so one input channel's masks are
//!   one contiguous run that [`inca_xbar::simd::and_popcount_accumulate`]
//!   sweeps per (window, activation bit);
//! * as flat `u8` bit-planes `[out][in][side][wbit][k·k]`, read by the
//!   scalar reference path and the analog (`forward_noisy`) path.

use inca_nn::Tensor;
use inca_xbar::packed::words_for;
use inca_xbar::simd::and_popcount_accumulate;
use inca_xbar::sliding::output_dims_padded;

use crate::hw_exec::{weight_levels, DATA_BITS, WEIGHT_BITS};
use crate::{Error, Result};

/// Differential sides per weight: positive, then negative.
const SIDES: usize = 2;

/// Reads per (output channel, input channel, window, activation bit):
/// one per side and weight bit.
const READS_PER_OUT: usize = SIDES * WEIGHT_BITS as usize;

/// A quantized conv kernel with its bias and geometry, ready to be read.
#[derive(Debug, Clone)]
pub(crate) struct ConvKernel {
    out_ch: usize,
    in_ch: usize,
    k: usize,
    stride: usize,
    pad: usize,
    /// Saturation of every read: the ADC's max code, or `u32::MAX` for
    /// raw sums.
    read_cap: u32,
    /// Words per compact window and per mask: `⌈k²/64⌉`.
    mask_words: usize,
    /// `[in][out][side][wbit]` masks of `mask_words` words.
    masks: Vec<u64>,
    /// `[out][in][side][wbit][k·k]` bit-planes (0/1).
    planes: Vec<u8>,
    /// Per-output signed sum of weight codes (offset correction).
    code_sum: Vec<i64>,
    w_scale: f32,
    bias: Vec<f32>,
}

impl ConvKernel {
    /// Quantizes `[out, in, k, k]` float weights onto the differential
    /// encoding. `read_cap` saturates every read.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] if the weights are not a square 4-D
    /// kernel, the bias length differs from the output channels, the
    /// stride is 0, or the `u32` read accumulators could overflow
    /// (`in · min(k², read_cap) · 255 ≥ 2³²`).
    pub(crate) fn from_float(
        weights: &Tensor,
        bias: &[f32],
        stride: usize,
        pad: usize,
        read_cap: u32,
    ) -> Result<Self> {
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
        if max_window_sum(in_ch, k, read_cap) > u128::from(u32::MAX) {
            return Err(Error::Config(format!(
                "{in_ch} input channels of {k}x{k} reads can overflow the u32 read accumulators"
            )));
        }
        let w_max = weights.data().iter().fold(0.0f32, |m, &w| m.max(w.abs())).max(1e-12);
        let w_scale = w_max / weight_levels();
        let kk = k * k;
        let wbits = usize::from(WEIGHT_BITS);
        let mask_words = words_for(kk);
        let mut masks = vec![0u64; in_ch * out_ch * READS_PER_OUT * mask_words];
        let mut planes = vec![0u8; out_ch * in_ch * READS_PER_OUT * kk];
        let mut code_sum = vec![0i64; out_ch];
        // NCHW weights are `[out][in][k·k]` runs.
        for (oc, cells) in weights.data().chunks_exact(kk).enumerate() {
            let (o, c) = (oc / in_ch, oc % in_ch);
            for (cell, &w) in cells.iter().enumerate() {
                let q = (w / w_scale).round() as i32;
                code_sum[o] += i64::from(q);
                let (side, magnitude) = if q >= 0 { (0, q as u32) } else { (1, (-q) as u32) };
                for wb in 0..wbits {
                    if (magnitude >> wb) & 1 == 1 {
                        let read = side * wbits + wb;
                        planes[(oc * READS_PER_OUT + read) * kk + cell] = 1;
                        let mask = ((c * out_ch + o) * READS_PER_OUT + read) * mask_words;
                        masks[mask + cell / 64] |= 1 << (cell % 64);
                    }
                }
            }
        }
        Ok(Self {
            out_ch,
            in_ch,
            k,
            stride,
            pad,
            read_cap,
            mask_words,
            masks,
            planes,
            code_sum,
            w_scale,
            bias: bias.to_vec(),
        })
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

    /// The `WEIGHT_BITS` bit-planes of one (output, input, side), LSB
    /// first, `k·k` cells each. `side` 0 is positive, 1 negative.
    pub(crate) fn planes(&self, o: usize, ci: usize, side: usize) -> std::slice::ChunksExact<'_, u8> {
        let kk = self.k * self.k;
        let len = usize::from(WEIGHT_BITS) * kk;
        let start = ((o * self.in_ch + ci) * SIDES + side) * len;
        self.planes[start..start + len].chunks_exact(kk)
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
    /// saturated read `<< xbit` to `acc[(o·2 + side)·7 + wbit]`.
    pub(crate) fn accumulate(&self, ci: usize, xbit: usize, x: &[u64], acc: &mut [u32]) {
        let len = self.reads_per_window() * self.mask_words;
        and_popcount_accumulate(x, &self.masks[ci * len..(ci + 1) * len], self.read_cap, xbit as u32, acc);
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
}

/// The largest value one read accumulator can reach: it sums one read
/// per (input channel, activation bit), each at most `min(k², cap)` and
/// shifted by the bit, so `in · min(k², cap) · (2⁸ − 1)`.
fn max_window_sum(in_ch: usize, k: usize, read_cap: u32) -> u128 {
    let max_read = (k as u128 * k as u128).min(u128::from(read_cap));
    in_ch as u128 * max_read * ((1u128 << DATA_BITS) - 1)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_bound_is_exact_at_the_u32_limit() {
        let limit = u128::from(u32::MAX);
        // A 4-bit ADC caps each 5x5 read at 15: 15 · 255 = 3825 per channel.
        assert!(max_window_sum(1_122_867, 5, 15) <= limit);
        assert!(max_window_sum(1_122_868, 5, 15) > limit);
        // Raw 3x3 sums reach 9: 9 · 255 = 2295 per channel.
        assert!(max_window_sum(1_871_445, 3, u32::MAX) <= limit);
        assert!(max_window_sum(1_871_446, 3, u32::MAX) > limit);
        // The cap only binds once k² exceeds it.
        assert_eq!(max_window_sum(2, 3, 15), 2 * 9 * 255);
        assert_eq!(max_window_sum(2, 5, 15), 2 * 15 * 255);
    }

    #[test]
    fn masks_planes_and_fold_describe_the_same_codes() {
        // Codes 0..=127 and their negatives over a 2-out, 2-in 9x9 kernel
        // (two mask words per read).
        let (out_ch, in_ch, k) = (2, 2, 9);
        let n = out_ch * in_ch * k * k;
        let data: Vec<f32> = (0..n).map(|i| (i % 255) as f32 - 127.0).collect();
        let weights = Tensor::from_vec(data.clone(), &[out_ch, in_ch, k, k]);
        let kernel = ConvKernel::from_float(&weights, &[0.0; 2], 1, 0, u32::MAX).unwrap();
        assert_eq!(kernel.window_words(), 2);
        for o in 0..out_ch {
            for ci in 0..in_ch {
                for cell in 0..k * k {
                    let code = data[(o * in_ch + ci) * k * k + cell] as i64;
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
    fn empty_outputs_name_the_geometry() {
        assert_eq!(conv_output_dims(2, 2, 3, 1, 1).unwrap(), (2, 2));
        let err = conv_output_dims(2, 2, 3, 1, 0).unwrap_err().to_string();
        assert!(err.contains("3x3 kernel, stride 1, pad 0 on a 2x2 input"), "{err}");
        assert!(conv_output_dims(8, 8, 3, 0, 1).is_err());
    }
}
