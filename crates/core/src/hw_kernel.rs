//! The two sides of a [`crate::HwConv`] read: the programmed kernel
//! ([`ConvKernel`]) and the programmed input batch ([`CodeImage`]), plus
//! the window walk and the exact read that combine them, and the one
//! activation [`Quantizer`], signed [`SignedQuantizer`] and
//! [`Dequantizer`] every hardware layer shares.
//!
//! Float kernels are quantized once to the differential-pair encoding —
//! signed 8-bit, i.e. a 7-bit magnitude on either the positive or the
//! negative side (Table II) — and kept as one table of signed codes. Its
//! taps `t = (c·k + ky)·k + kx` go in pairs, each pair's two codes side
//! by side per output: `[⌈in·k²/2⌉][out][2]`, with `out` padded to a
//! multiple of 8 and the odd tap's partner at zero. Programming
//! quantizes 8 output rows at a time and writes each tap pair's 16 codes
//! into the table as one run. A batch is quantized to 8-bit codes with
//! one shared range, in one zero-padded image. Both quantizers are
//! branch-free, so their loops vectorize; the signed one also quantizes
//! `HwLinear`'s weights and the gradient unit's errors, and a weight or
//! bias that is NaN or infinite is rejected at programming.
//!
//! Every read saturates at the 4-bit ADC's max code. When no read can
//! reach it ([`ConvKernel::exact_reads`]), the ADC is the identity and the
//! shift-add of a window's bit-serial reads is exactly the integer dot
//! product of its activation and weight codes, which
//! [`ConvKernel::forward_linear`] computes as a blocked integer GEMM
//! (DESIGN.md §8, "Linear reads"): per panel of output rows (one row, or
//! enough short rows to fill a 4-window tile), the panel's windows are
//! gathered into a pair-major panel and multiplied by the code table in
//! [`inca_xbar::simd::panel_product`]'s register tiles, one weight
//! register serving a tile of windows. The bit-level views of both sides
//! are derived from the codes only where a bit-level path reads them:
//!
//! * a flat mask table `[in][out][side][wbit]`, built at programming for
//!   saturable kernels only, each mask one window in the compact layout
//!   (cell `(i, j)` at bit `i·k + j`, `⌈k²/64⌉` words), so one input
//!   channel's masks are one contiguous run that
//!   [`inca_xbar::simd::and_popcount_accumulate`] sweeps per (window,
//!   activation bit);
//! * a window's activation bits in the same layout, cut from the code
//!   image per (sample, window, input channel) by
//!   [`ConvKernel::window_bits`] for the saturable read;
//! * flat `u8` bit-planes `[out][in][side][wbit][k·k]`, derived on first
//!   use by the reference read (`forward_reference`) and the analog
//!   (`forward_noisy`) read, the only reads that also build the
//!   activation bit-planes (subarray tiles of 3D stacks) from the image.

use std::sync::OnceLock;

use inca_nn::Tensor;
use inca_xbar::packed::words_for;
use inca_xbar::simd::{and_popcount_accumulate, panel_product};
use inca_xbar::sliding::output_dims_padded;
use inca_xbar::VerticalPlane;

use crate::exec::{self, ExecPolicy};
use crate::hw_exec::{DATA_BITS, READ_CAP, WEIGHT_BITS};
use crate::{Error, Result};

/// Differential sides per weight: positive, then negative.
const SIDES: usize = 2;

/// Reads per (output channel, input channel, window, activation bit):
/// one per side and weight bit.
const READS_PER_OUT: usize = SIDES * WEIGHT_BITS as usize;

/// Outputs per register of [`panel_product`]: the code table pads its
/// outputs to a multiple with zero codes.
const LANES: usize = 8;

/// Windows per register tile of [`panel_product`]: a row's panel pads
/// its windows to a multiple with zero codes.
const TILE_WINDOWS: usize = 4;

/// The largest product of an activation code (at most `2⁸ − 1`) and a
/// weight code (magnitude at most `2⁷ − 1`).
const MAX_PRODUCT: u32 = ((1 << DATA_BITS) - 1) * ((1 << WEIGHT_BITS) - 1);

/// Tap pairs per chunk of an exact read: the most pairs whose worst-case
/// sum `2 · pairs · 255 · 127` stays within `i32` (33,155 pairs, 66,310
/// taps). Each chunk sums in `i32`; chunks add up in `i64`.
const CHUNK_PAIRS: usize = (i32::MAX as u32 / (2 * MAX_PRODUCT)) as usize;

/// Rounds half away from zero, as `t.round() as i32` does, without a libm
/// call: truncate, then step by one where the exact fraction `t −
/// trunc(t)` reaches ±0.5. NaN maps to 0, and values past `i32` saturate.
/// The oracle of both quantizers' branch-free codes.
#[cfg(test)]
pub(crate) fn round_half_away(t: f32) -> i32 {
    let i = t as i32;
    let frac = t - i as f32;
    i.saturating_add(i32::from(frac >= 0.5) - i32::from(frac <= -0.5))
}

/// `n` weights from `seed` for the tests that pin the signed codes. One
/// weight sits at the largest magnitude `127·s`, so the scale is `s`, a
/// power of two in three draws of four: then every `±(j + 0.5)·s` is an
/// exact tie of the code. The others are such ties, their 1-ulp
/// neighbours, ±0, subnormals and uniform values in range.
#[cfg(test)]
pub(crate) fn tie_weights(seed: u64, n: usize) -> Vec<f32> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let power = 2f32.powi(rng.gen_range(-20..=20));
    let scale = if rng.gen_range(0..4) > 0 { power } else { rng.gen_range(0.5f32..1.0) * power };
    let specials = [0.0, -0.0, f32::from_bits(1), f32::from_bits(0x007f_ffff), f32::MIN_POSITIVE];
    let mut weights: Vec<f32> = (0..n)
        .map(|_| {
            let tie = (rng.gen_range(0..127) as f32 + 0.5) * scale;
            let v = match rng.gen_range(0..6) {
                0 | 1 => tie,
                2 => tie.next_up(),
                3 => tie.next_down(),
                4 => specials[rng.gen_range(0..specials.len())],
                _ => rng.gen_range(-127.0f32..=127.0) * scale,
            };
            if rng.gen_range(0..2) == 0 {
                -v
            } else {
                v
            }
        })
        .collect();
    weights[rng.gen_range(0..n)] = if rng.gen_range(0..2) == 0 { 127.0 * scale } else { -127.0 * scale };
    weights
}

/// Index of tap `t`'s code for output `o` in a pair-major table of
/// `lanes` outputs per pair.
fn pair_index(t: usize, o: usize, lanes: usize) -> usize {
    (t / 2 * lanes + o) * 2 + t % 2
}

/// A quantized conv kernel with its bias and geometry, ready to be read.
#[derive(Debug, Clone)]
pub(crate) struct ConvKernel {
    out_ch: usize,
    in_ch: usize,
    k: usize,
    stride: usize,
    pad: usize,
    /// `out_ch` rounded up to a multiple of [`LANES`].
    lanes: usize,
    /// Signed weight codes (−127..=127), pair-major
    /// `[⌈in·k²/2⌉][lanes][2]` (see [`pair_index`]); padded outputs and
    /// an odd last tap's partner hold 0.
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
    /// kernel, have no output, no input or a zero side, the bias length
    /// differs from the output channels, the stride is 0, the `u32`
    /// read accumulators could overflow
    /// (`in · min(k², 15) · 255 ≥ 2³²`), or a weight or bias is NaN or
    /// infinite ([`SignedQuantizer::of_layer`]).
    pub(crate) fn from_float(weights: &Tensor, bias: &[f32], stride: usize, pad: usize) -> Result<Self> {
        if weights.shape().len() != 4 {
            return Err(Error::Config(format!("expected [out,in,k,k] weights, got {:?}", weights.shape())));
        }
        let [out_ch, in_ch, k, k2] = weights.dims4();
        if k != k2 {
            return Err(Error::Config("only square kernels supported".into()));
        }
        if out_ch == 0 || in_ch == 0 || k == 0 {
            return Err(Error::Config(format!("empty kernel: {out_ch} outputs, {in_ch} inputs, side {k}")));
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
        let quantizer = SignedQuantizer::of_layer(weights.data(), bias)?;
        let (kk, lanes) = (k * k, out_ch.next_multiple_of(LANES));
        let (taps, pairs) = (in_ch * kk, (in_ch * kk).div_ceil(2));
        let mut codes = vec![0i16; pairs * lanes * 2];
        let mut code_sum = Vec::with_capacity(out_ch);
        // NCHW weights are `[out][in·k²]` rows. Each `LANES` of them are
        // quantized into the rows of a block, where an odd last tap's
        // partner and the rows past `out` hold 0, and each tap pair's
        // `LANES × 2` codes then go into the table as one run.
        let mut block = vec![0i16; LANES * 2 * pairs];
        for (index, rows) in weights.data().chunks(LANES * taps).enumerate() {
            // Only the last block can stop short of `LANES` rows.
            block[rows.len() / taps * 2 * pairs..].fill(0);
            for (row, values) in block.chunks_exact_mut(2 * pairs).zip(rows.chunks_exact(taps)) {
                code_sum.push(quantizer.codes(values, &mut row[..taps]));
            }
            for (pair, run) in codes.chunks_exact_mut(2 * lanes).enumerate() {
                let (run, _) = run[2 * LANES * index..][..2 * LANES].as_chunks_mut::<2>();
                for (dst, row) in run.iter_mut().zip(block.chunks_exact(2 * pairs)) {
                    *dst = [row[2 * pair], row[2 * pair + 1]];
                }
            }
        }
        let mut kernel = Self {
            out_ch,
            in_ch,
            k,
            stride,
            pad,
            lanes,
            codes,
            mask_words: words_for(kk),
            masks: Vec::new(),
            planes: OnceLock::new(),
            code_sum,
            w_scale: quantizer.scale,
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

    /// Output `o`'s weight code at tap `t = (c·k + ky)·k + kx`.
    fn code(&self, t: usize, o: usize) -> i16 {
        self.codes[pair_index(t, o, self.lanes)]
    }

    /// Calls `f(in, out, read, cell)` for every set magnitude bit of every
    /// weight code, where `read = side · WEIGHT_BITS + wbit` and `side` 0
    /// is positive, 1 negative.
    fn for_each_weight_bit(&self, mut f: impl FnMut(usize, usize, usize, usize)) {
        let (kk, wbits) = (self.k * self.k, usize::from(WEIGHT_BITS));
        for t in 0..self.in_ch * kk {
            for o in 0..self.out_ch {
                let q = self.code(t, o);
                let side = usize::from(q < 0);
                for wb in 0..wbits {
                    if (q.unsigned_abs() >> wb) & 1 == 1 {
                        f(t / kk, o, side * wbits + wb, t % kk);
                    }
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

    /// Cuts the `k × k` window at `(ry, rx)` of one (sample, channel)'s
    /// padded codes, rows of `pw`, into `DATA_BITS` compact strings in the
    /// masks' layout: activation bit `xb`'s string is the
    /// [`ConvKernel::window_words`] words from `x[xb · words]` on, window
    /// cell `(i, j)` at bit `i·k + j`, and no bit past `k²` is set. Each
    /// run of up to 8 cells of a row is read as one word of codes, from
    /// which every activation bit's run is one gather of byte bits.
    pub(crate) fn window_bits(&self, codes: &[u8], pw: usize, (ry, rx): (usize, usize), x: &mut [u64]) {
        let (k, words) = (self.k, self.mask_words);
        x.fill(0);
        for i in 0..k {
            let row = &codes[(ry + i) * pw + rx..][..k];
            for (run, cells) in row.chunks(8).enumerate() {
                // Byte `j` holds the code of cell `8·run + j`.
                let bytes = cells.iter().rev().fold(0u64, |acc, &code| acc << 8 | u64::from(code));
                let pos = i * k + 8 * run;
                let (w, off) = (pos / 64, pos % 64);
                for xb in 0..usize::from(DATA_BITS) {
                    // The multiply moves bit `xb` of byte `j` to bit `56 + j`.
                    let bits =
                        ((bytes >> xb) & 0x0101_0101_0101_0101).wrapping_mul(0x0102_0408_1020_4080) >> 56;
                    x[xb * words + w] |= bits << off;
                    if off + cells.len() > 64 {
                        x[xb * words + w + 1] |= bits >> (64 - off);
                    }
                }
            }
        }
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

    /// The dequantization of this kernel's integer reads of `image`.
    pub(crate) fn dequantizer(&self, image: &CodeImage) -> Dequantizer<'_> {
        Dequantizer::new(image.quantizer, self.w_scale, &self.code_sum, &self.bias)
    }

    /// Fills a `[b, out, oh, ow]` output `rows` output rows at a time:
    /// `f(arena, bi, oy, height, outputs)` writes sample `bi`'s `height ≤
    /// rows` output rows from row `oy` on as `height·ow` runs of `out`
    /// outputs, window `ox` of row `oy + r` at `(oy + r, ox) · stride` and
    /// at run `r·ow + ox`. Panels fan out across the policy's workers,
    /// each with one arena from `init`.
    ///
    /// # Errors
    ///
    /// Returns `f`'s first error in panel order.
    pub(crate) fn map_rows<S>(
        &self,
        policy: ExecPolicy,
        (b, oh, ow): (usize, usize, usize),
        rows: usize,
        init: impl Fn() -> S + Sync,
        f: impl Fn(&mut S, usize, usize, usize, &mut [f32]) -> Result<()> + Sync,
    ) -> Result<Tensor> {
        let (out_ch, panels) = (self.out_ch, oh.div_ceil(rows));
        // Accumulate as `[b][panel·rows][ox][o]`, transposed into NCHW
        // afterwards: a sample's last panel may run past its `oh` rows, and
        // those outputs are never read.
        let per_sample = panels * rows * ow * out_ch;
        let mut window_major = vec![0f32; b * per_sample];
        exec::for_each_chunk_with(
            policy,
            &mut window_major,
            rows * ow * out_ch,
            init,
            |arena, idx, outputs| {
                let oy = idx % panels * rows;
                f(arena, idx / panels, oy, rows.min(oh - oy), outputs)
            },
        )?;
        let windows = oh * ow;
        let mut out = Vec::with_capacity(b * out_ch * windows);
        for sample in window_major.chunks_exact(per_sample) {
            for o in 0..out_ch {
                out.extend((0..windows).map(|p| sample[p * out_ch + o]));
            }
        }
        Ok(Tensor::from_vec(out, &[b, out_ch, oh, ow]))
    }

    /// Every output window of every sample of `image`, each the signed
    /// integer dot product of its activation codes and the weight codes:
    /// exactly the fold of its bit-serial reads when no read saturates
    /// ([`ConvKernel::exact_reads`]). Returns `[b, out, oh, ow]`.
    ///
    /// Per panel of output rows, the panel's windows are gathered
    /// ([`ConvKernel::gather`]) and multiplied by the code table with
    /// [`panel_product`] into exact `i32` sums. A panel is one output row,
    /// or `⌈4/ow⌉` rows (at most `oh`) where a row holds fewer windows than
    /// a register tile, so a 2×2 map fills one tile. Past [`CHUNK_PAIRS`]
    /// tap pairs (7,367 input channels of a 3×3 kernel) the product goes
    /// in chunks of at most that many pairs, each exact in `i32`, whose
    /// sums add up in `i64`.
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
        let (out_ch, lanes) = (self.out_ch, self.lanes);
        let pairs = self.codes.len() / (2 * lanes);
        let rows = if ow < TILE_WINDOWS { TILE_WINDOWS.div_ceil(ow).min(oh) } else { 1 };
        let windows = (rows * ow).next_multiple_of(TILE_WINDOWS);
        let wide = if pairs > CHUNK_PAIRS { windows * lanes } else { 0 };
        let (taps, dequantizer) = (self.tap_offsets(image), self.dequantizer(image));
        let terms: Vec<_> = (0..out_ch).map(|o| dequantizer.terms(o)).collect();
        self.map_rows(
            policy,
            (image.b, oh, ow),
            rows,
            // Per-worker arena: one panel, its `i32` sums, and their `i64`
            // total over several chunks.
            || (vec![0i16; pairs * windows * 2], vec![0i32; windows * lanes], vec![0i64; wide]),
            |(panel, sums, total), bi, oy, height, slots| {
                let image_rows = image.sample_from_row(bi, oy * self.stride);
                self.gather(image_rows, image.pw, &taps, (height, ow), panel);
                let slots = slots[..height * ow * out_ch].chunks_exact_mut(out_ch);
                if pairs <= CHUNK_PAIRS {
                    panel_product(panel, &self.codes, lanes, sums);
                    for (slots, sums) in slots.zip(sums.chunks_exact(lanes)) {
                        dequantizer.window(&terms, sums.iter().map(|&acc| acc as f32), slots);
                    }
                } else {
                    total.fill(0);
                    let chunks = panel
                        .chunks(CHUNK_PAIRS * windows * 2)
                        .zip(self.codes.chunks(CHUNK_PAIRS * lanes * 2));
                    for (panel, codes) in chunks {
                        panel_product(panel, codes, lanes, sums);
                        for (total, &sum) in total.iter_mut().zip(sums.iter()) {
                            *total += i64::from(sum);
                        }
                    }
                    for (slots, total) in slots.zip(total.chunks_exact(lanes)) {
                        dequantizer.window(&terms, total.iter().map(|&acc| acc as f32), slots);
                    }
                }
                Ok(())
            },
        )
    }

    /// Each tap's offset in a sample's codes from its window's top-left
    /// corner, taps in code-table order `t = (c·k + ky)·k + kx`.
    fn tap_offsets(&self, image: &CodeImage) -> Vec<usize> {
        let (k, ph, pw) = (self.k, image.ph, image.pw);
        let mut taps = Vec::with_capacity(self.in_ch * k * k);
        for c in 0..self.in_ch {
            for ky in 0..k {
                for kx in 0..k {
                    taps.push((c * ph + ky) * pw + kx);
                }
            }
        }
        taps
    }

    /// Gathers `height` output rows of `ow` windows into `panel`,
    /// pair-major like the code table: `[pairs][windows][2]`, tap pair `p`
    /// of window `r·ow + ox` (row `r`, column `ox`) at
    /// `(p·windows + r·ow + ox)·2`. `image_rows` holds the sample's codes
    /// from the first row's first window's top-left corner on, rows of
    /// `pw` codes, and `taps` the [`ConvKernel::tap_offsets`]. On a
    /// stride-1 row each tap's codes are one contiguous run. Windows past
    /// `height·ow`, and an odd last tap's partner, are never written:
    /// they stay 0 or hold an earlier panel's codes, and their sums are
    /// never read.
    fn gather(
        &self,
        image_rows: &[u8],
        pw: usize,
        taps: &[usize],
        (height, ow): (usize, usize),
        panel: &mut [i16],
    ) {
        let stride = self.stride;
        let windows = panel.len() / taps.len().next_multiple_of(2);
        for r in 0..height {
            let row = &image_rows[r * stride * pw..];
            // Tap `t`'s codes over the row, every `stride`-th one a window's.
            let tap_run = |t: usize| &row[t..t + (ow - 1) * stride + 1];
            for (pair, dst) in taps.chunks(2).zip(panel.chunks_exact_mut(2 * windows)) {
                let (dst, _) = dst[2 * r * ow..2 * (r + 1) * ow].as_chunks_mut::<2>();
                match *pair {
                    // Plain slices, which the compiler vectorizes; with
                    // `step_by` a VGG16-CIFAR forward ran ~20 % slower on a
                    // 2-vCPU x86-64 host.
                    [lo, hi] if stride == 1 => {
                        for (d, (&lo, &hi)) in dst.iter_mut().zip(tap_run(lo).iter().zip(tap_run(hi))) {
                            *d = [i16::from(lo), i16::from(hi)];
                        }
                    }
                    [lo, hi] => {
                        let his = tap_run(hi).iter().step_by(stride);
                        for (d, (&lo, &hi)) in dst.iter_mut().zip(tap_run(lo).iter().step_by(stride).zip(his))
                        {
                            *d = [i16::from(lo), i16::from(hi)];
                        }
                    }
                    [lo] => {
                        for (d, &lo) in dst.iter_mut().zip(tap_run(lo).iter().step_by(stride)) {
                            d[0] = i16::from(lo);
                        }
                    }
                    _ => {}
                }
            }
        }
    }
}

/// The dequantization of integer reads at one input range:
/// `acc · x_scale · w_scale + x_min · w_scale · code_sum[o] + bias[o]`.
pub(crate) struct Dequantizer<'a> {
    quantizer: Quantizer,
    w_scale: f32,
    /// Per-output signed sum of weight codes.
    code_sum: &'a [i64],
    bias: &'a [f32],
}

impl<'a> Dequantizer<'a> {
    /// The dequantization of reads against weight codes of scale
    /// `w_scale` and per-output sums `code_sum`, on inputs quantized by
    /// `quantizer`.
    pub(crate) fn new(quantizer: Quantizer, w_scale: f32, code_sum: &'a [i64], bias: &'a [f32]) -> Self {
        Self { quantizer, w_scale, code_sum, bias }
    }

    /// Output `o`'s offset term `x_min · w_scale · code_sum[o]` and bias.
    fn terms(&self, o: usize) -> (f32, f32) {
        (self.quantizer.x_min * self.w_scale * self.code_sum[o] as f32, self.bias[o])
    }

    /// One output from its integer read sum and its [`Dequantizer::terms`].
    /// `acc` is the sum rounded once to `f32`, the same value whether the
    /// sum was held in `i32` or `i64`.
    fn value(&self, acc: f32, (offset, bias): (f32, f32)) -> f32 {
        acc * self.quantizer.x_scale * self.w_scale + offset + bias
    }

    /// Output `o`'s value from its integer read sum.
    pub(crate) fn apply(&self, o: usize, acc: i64) -> f32 {
        self.value(acc as f32, self.terms(o))
    }

    /// One window's outputs from their sums, output 0 first, given every
    /// output's [`Dequantizer::terms`].
    fn window(&self, terms: &[(f32, f32)], sums: impl Iterator<Item = f32>, slots: &mut [f32]) {
        for (slot, (acc, &terms)) in slots.iter_mut().zip(sums.zip(terms)) {
            *slot = self.value(acc, terms);
        }
    }
}

/// The largest value one read accumulator can reach: it sums one read
/// per (input channel, activation bit), each at most `min(k², 15)` and
/// shifted by the bit, so `in · min(k², 15) · (2⁸ − 1)`.
fn max_window_sum(in_ch: usize, k: usize) -> u128 {
    let max_read = (k as u128 * k as u128).min(u128::from(READ_CAP));
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

/// The 8-bit activation quantizer of one input range. Offset encoding:
/// code `q` represents `q · x_scale + x_min`, so signed inputs (e.g. the
/// raw image) survive; the offset term is corrected analytically after
/// accumulation (standard PIM practice). `HwConv`, `HwLinear` and the
/// gradient unit all quantize through it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Quantizer {
    pub(crate) x_min: f32,
    pub(crate) x_scale: f32,
}

impl Quantizer {
    /// The quantizer of `values`' range widened to hold 0: `x_min` is the
    /// least value (at most 0), and 255 levels of `x_scale` reach the
    /// greatest. NaNs are skipped.
    pub(crate) fn of(values: &[f32]) -> Self {
        let levels = f32::from((1u16 << DATA_BITS) - 1);
        let (lo, hi) = values.iter().fold((0.0f32, 0.0f32), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        let x_min = lo.min(0.0);
        let x_max = hi.max(x_min + 1e-9);
        Self { x_min, x_scale: ((x_max - x_min) / levels).max(1e-12) }
    }

    /// `v`'s code: `t = (v − x_min) / x_scale` rounded half away from zero
    /// and clamped to `0..=255`, with NaN at 0. Branch-free, so a loop of
    /// it vectorizes (DESIGN.md §8, "Linear reads"): `t` is clamped
    /// first, which gives the same code because rounding is monotone and
    /// both bounds are integers; then rounded with the `2²³` trick and the
    /// exact fraction step; and the code is the low byte of `r + 2²³`,
    /// whose mantissa is `r`.
    pub(crate) fn code(self, v: f32) -> u8 {
        const TWO_POW_23: f32 = 8_388_608.0;
        let max_code = f32::from((1u16 << DATA_BITS) - 1);
        let t = (v - self.x_min) / self.x_scale;
        // `maxps`/`minps` shapes: a NaN fails the first compare.
        let t = if t > 0.0 { t } else { 0.0 };
        let t = if t < max_code { t } else { max_code };
        // Adding and taking away 2²³ rounds to an integer, ties to even;
        // stepping down where that went up gives the floor, and the
        // fraction the floor leaves is exact.
        let even = (t + TWO_POW_23) - TWO_POW_23;
        let floor = if even > t { even - 1.0 } else { even };
        let r = if t - floor >= 0.5 { floor + 1.0 } else { floor };
        (r + TWO_POW_23).to_bits() as u8
    }

    /// Quantizes `values` into `codes`, one code per value.
    pub(crate) fn codes(self, values: &[f32], codes: &mut [u8]) {
        for (code, &v) in codes.iter_mut().zip(values) {
            *code = self.code(v);
        }
    }
}

/// The signed 8-bit quantizer of weights and errors: a 7-bit magnitude on
/// either side of the differential pair (Table II), 127 levels of `scale`
/// up to the largest magnitude. `ConvKernel`, `HwLinear` and the gradient
/// unit's δ codes all quantize through it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SignedQuantizer {
    pub(crate) scale: f32,
}

impl SignedQuantizer {
    /// The largest code magnitude, `2⁷ − 1`.
    const MAX_CODE: f32 = ((1u16 << WEIGHT_BITS) - 1) as f32;

    /// The quantizer of `values`: `scale = max(abs_max, 10⁻¹²) / 127`, with
    /// NaNs skipped.
    pub(crate) fn of(values: &[f32]) -> Self {
        Self::with_abs_max(abs_max(values).0)
    }

    /// The quantizer of a layer's `weights`, as [`SignedQuantizer::of`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] naming the first NaN or infinite weight,
    /// or else bias: an infinite weight would make the scale, and so every
    /// output of the layer, non-finite, and a NaN one would program as 0.
    pub(crate) fn of_layer(weights: &[f32], bias: &[f32]) -> Result<Self> {
        let (abs_max, finite) = abs_max(weights);
        if finite && bias.iter().all(|b| b.is_finite()) {
            return Ok(Self::with_abs_max(abs_max));
        }
        // Only a rejected layer is searched again, to name the value.
        let (what, values) = if finite { ("bias", bias) } else { ("weight", weights) };
        let (i, v) = values.iter().copied().enumerate().find(|(_, v)| !v.is_finite()).unwrap_or_default();
        Err(Error::Config(format!("{what} {i} is {v}: only finite values can be programmed")))
    }

    fn with_abs_max(abs_max: f32) -> Self {
        Self { scale: abs_max.max(1e-12) / Self::MAX_CODE }
    }

    /// `v`'s code: `t = v / scale` rounded half away from zero and clamped
    /// to `−127..=127`, with NaN at 0. Branch-free, so a loop of it
    /// vectorizes (DESIGN.md §8, "Signed quantizer"): NaN goes to 0, `|t|`
    /// is clamped to 127 first, which gives the same code because rounding
    /// is monotone and the bound is an integer; the magnitude is rounded
    /// to even with the `2²³` trick and an exact tie that went down steps
    /// up; and the sign goes back on last.
    pub(crate) fn code(self, v: f32) -> i16 {
        const TWO_POW_23: f32 = 8_388_608.0;
        let t = v / self.scale;
        // `cmpunordps` and `minps` shapes.
        let t = if t.is_nan() { 0.0 } else { t };
        let a = t.abs();
        let a = if a < Self::MAX_CODE { a } else { Self::MAX_CODE };
        // Adding and taking away 2²³ rounds to an integer, ties to even,
        // and the fraction it leaves is exact: where it is +0.5, the tie
        // went down, so half away from zero is one more.
        let even = (a + TWO_POW_23) - TWO_POW_23;
        let r = even + if a - even == 0.5 { 1.0 } else { 0.0 };
        // `±r + 1.5·2²³` lies in `[2²³, 2²⁴)`, where the mantissa is
        // `±r + 2²²`: its low 16 bits are `±r` in two's complement.
        (r.copysign(t) + 12_582_912.0).to_bits() as i16
    }

    /// Quantizes `values` into `codes`, one code per value, and returns
    /// the sum of the codes.
    pub(crate) fn codes(self, values: &[f32], codes: &mut [i16]) -> i64 {
        // Runs of 2²⁴ codes of magnitude at most 127 sum exactly in `i32`.
        const RUN: usize = 1 << 24;
        let runs = values.chunks(RUN).zip(codes.chunks_mut(RUN));
        runs.map(|(values, codes)| {
            let mut sum = 0i32;
            for (code, &v) in codes.iter_mut().zip(values) {
                *code = self.code(v);
                sum += i32::from(*code);
            }
            i64::from(sum)
        })
        .sum()
    }
}

/// The largest `|v|` of `values` (0 for none), with NaNs skipped as the
/// `f32::max` fold from 0 skips them, and whether every value is finite,
/// in one pass of [`LANES`] independent lanes. A maximum is the same in
/// any order.
fn abs_max(values: &[f32]) -> (f32, bool) {
    let mut max = [0.0f32; LANES];
    // `|v|·0` is 0 for a finite `v` and NaN for NaN and ±∞, and a NaN stays
    // in a sum.
    let mut probe = [0.0f32; LANES];
    let (chunks, tail) = values.as_chunks::<LANES>();
    // The tail, padded with zeros, which change neither.
    let mut last = [0.0f32; LANES];
    last[..tail.len()].copy_from_slice(tail);
    for chunk in chunks.iter().chain([&last]) {
        for lane in 0..LANES {
            let a = chunk[lane].abs();
            max[lane] = if a > max[lane] { a } else { max[lane] };
            probe[lane] += a * 0.0;
        }
    }
    (max.into_iter().fold(0.0, f32::max), probe.iter().all(|p| !p.is_nan()))
}

/// An input batch quantized to 8-bit codes and zero-padded: the programmed
/// input state every read path reads. One [`Quantizer`] range serves the
/// whole batch, because the planes of a stack share one readout scale.
#[derive(Debug, Clone)]
pub(crate) struct CodeImage {
    /// Samples.
    pub(crate) b: usize,
    /// Channels.
    pub(crate) c: usize,
    /// Padded rows.
    pub(crate) ph: usize,
    /// Padded columns.
    pub(crate) pw: usize,
    pub(crate) quantizer: Quantizer,
    /// `[b][c][ph][pw]` codes; the halo holds the code of 0.0.
    codes: Vec<u8>,
}

impl CodeImage {
    /// Quantizes an NCHW batch with `pad` cells of zero padding.
    pub(crate) fn quantize(x: &Tensor, pad: usize) -> Self {
        let [b, c, h, w] = x.dims4();
        let quantizer = Quantizer::of(x.data());
        let (ph, pw) = (h + 2 * pad, w + 2 * pad);
        let mut codes = vec![quantizer.code(0.0); b * c * ph * pw];
        for (plane, values) in x.data().chunks_exact(h * w).enumerate() {
            for (y, values) in values.chunks_exact(w).enumerate() {
                let start = (plane * ph + y + pad) * pw + pad;
                quantizer.codes(values, &mut codes[start..start + w]);
            }
        }
        Self { b, c, ph, pw, quantizer, codes }
    }

    /// Records the one-shot plane writes that program this image onto
    /// `tiles` subarray tiles per (sample, channel), one per (sample,
    /// channel, tile, activation bit), and returns their count. The cells
    /// stay in the image; a bit-level read that needs the planes builds
    /// them uncounted ([`VerticalPlane::from_bits`]).
    pub(crate) fn record_writes(&self, tiles: usize) -> u64 {
        let planes = (self.b * self.c * tiles * usize::from(DATA_BITS)) as u64;
        VerticalPlane::record_writes(planes);
        planes
    }

    /// Sample `bi`'s padded codes from row `y` of its first channel on.
    pub(crate) fn sample_from_row(&self, bi: usize, y: usize) -> &[u8] {
        let len = self.c * self.ph * self.pw;
        &self.codes[bi * len + y * self.pw..(bi + 1) * len]
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
    use std::ops::AddAssign;

    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

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
    fn chunks_are_the_largest_i32_safe_runs() {
        // 2 · 255 · 127 = 64,770 per pair of taps.
        let worst = |pairs: usize| pairs as u128 * 2 * 255 * 127;
        assert_eq!(CHUNK_PAIRS, 33_155);
        assert!(worst(CHUNK_PAIRS) <= i32::MAX as u128);
        assert!(worst(CHUNK_PAIRS + 1) > i32::MAX as u128);
        // 7,367 channels of a 3x3 kernel read in one chunk, 7,368 in two.
        assert_eq!((7_367 * 9usize).div_ceil(2).div_ceil(CHUNK_PAIRS), 1);
        assert_eq!((7_368 * 9usize).div_ceil(2).div_ceil(CHUNK_PAIRS), 2);
    }

    #[test]
    fn rounding_matches_f32_round() {
        let ties = [0.5f32, 1.5, 2.5, 126.5, 127.0, 0.499_999_97, 0.500_000_06, 1.0e-40, f32::MIN_POSITIVE];
        for t in ties.into_iter().flat_map(|t| [t, -t]).chain([0.0, -0.0, 3.0e9, -3.0e9, f32::INFINITY]) {
            assert_eq!(round_half_away(t), t.round() as i32, "{t:e}");
        }
        assert_eq!(round_half_away(f32::NAN), 0);
        // A sweep of tenths across the weight and activation code ranges.
        for i in -2_600..=2_600 {
            let t = i as f32 * 0.1;
            assert_eq!(round_half_away(t), t.round() as i32, "{t}");
        }
    }

    /// The window at `(ry, rx)` of sample `bi` dotted with the weight
    /// codes, one output at a time in accumulators of type `A`: the
    /// oracle of [`ConvKernel::forward_linear`].
    fn window_dot<A: Copy + Default + AddAssign + From<i16> + Into<i64>>(
        kernel: &ConvKernel,
        image: &CodeImage,
        bi: usize,
        (ry, rx): (usize, usize),
    ) -> Vec<i64> {
        let (k, pw) = (kernel.k, image.pw);
        let mut xs = Vec::new();
        for ci in 0..kernel.in_ch {
            for ky in 0..k {
                let start = (ry + ky) * pw + rx;
                xs.extend(image.channel(bi, ci)[start..start + k].iter().map(|&a| i16::from(a)));
            }
        }
        (0..kernel.out_ch).map(|o| block_dot::<A>(kernel, &xs, o).into()).collect()
    }

    /// Output `o` of one window from its gathered activation codes `xs`.
    /// Each product is exact in `i16` (`255 · 127 < 2¹⁵`).
    fn block_dot<A: Copy + Default + AddAssign + From<i16>>(kernel: &ConvKernel, xs: &[i16], o: usize) -> A {
        let mut sum = A::default();
        for (t, &a) in xs.iter().enumerate() {
            sum += A::from(a * kernel.code(t, o));
        }
        sum
    }

    /// [`ConvKernel::forward_linear`]'s output from [`window_dot`] sums.
    fn oracle<A: Copy + Default + AddAssign + From<i16> + Into<i64>>(
        kernel: &ConvKernel,
        image: &CodeImage,
        (oh, ow): (usize, usize),
    ) -> Vec<u32> {
        let dequantizer = kernel.dequantizer(image);
        let mut out = vec![0u32; image.b * kernel.out_ch * oh * ow];
        for bi in 0..image.b {
            for oy in 0..oh {
                for ox in 0..ow {
                    let sums = window_dot::<A>(kernel, image, bi, (oy * kernel.stride, ox * kernel.stride));
                    for (o, &acc) in sums.iter().enumerate() {
                        let slot = ((bi * kernel.out_ch + o) * oh + oy) * ow + ox;
                        out[slot] = dequantizer.apply(o, acc).to_bits();
                    }
                }
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The panel read equals the window-by-window dot product in
        /// `i32` and in `i64` accumulators, bit for bit, sequentially and
        /// on two workers, across output widths on and off the 8-lane
        /// blocks, odd and even tap counts, strides, paddings, batches,
        /// and maps from 1 wide, whose panels span several rows.
        #[test]
        fn panel_read_matches_the_window_dot_oracle(
            seed in 0u64..10_000,
            batch in 1usize..=3,
            out_sel in 0usize..8,
            in_ch in 1usize..=5,
            k in 1usize..=3,
            stride in 1usize..=2,
            pad in 0usize..=2,
            h in 1usize..=11,
            w in 1usize..=11,
        ) {
            let out_ch = [1usize, 2, 3, 8, 9, 16, 17, 24][out_sel];
            prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut random = |shape: &[usize], lo: f32, hi: f32| {
                let n = shape.iter().product();
                Tensor::from_vec((0..n).map(|_| rng.gen_range(lo..hi)).collect(), shape)
            };
            let weights = random(&[out_ch, in_ch, k, k], -0.6, 0.6);
            let x = random(&[batch, in_ch, h, w], -0.7, 1.0);
            let bias: Vec<f32> = (0..out_ch).map(|o| o as f32 * 0.03 - 0.1).collect();
            let kernel = ConvKernel::from_float(&weights, &bias, stride, pad).unwrap();
            let image = CodeImage::quantize(&x, pad);
            let (oh, ow) = kernel.output_dims(h, w).unwrap();
            let expected = oracle::<i32>(&kernel, &image, (oh, ow));
            prop_assert_eq!(&expected, &oracle::<i64>(&kernel, &image, (oh, ow)));
            for policy in [ExecPolicy::default(), ExecPolicy::parallel_with(2)] {
                let fast = bits(&kernel.forward_linear(policy, &image, oh, ow).unwrap());
                prop_assert_eq!(&fast, &expected, "{:?}", policy);
            }
        }

        /// The branch-free code equals both oracles on any input and any
        /// range, NaN and infinite ones included.
        #[test]
        fn quantizer_matches_its_oracle_on_any_bits(v in any::<u32>(), lo in any::<u32>(), scale in any::<u32>()) {
            let quantizer = Quantizer { x_min: f32::from_bits(lo), x_scale: f32::from_bits(scale) };
            let v = f32::from_bits(v);
            prop_assert_eq!(quantizer.code(v), code_oracle(quantizer, v), "{:e} on {:?}", v, quantizer);
            prop_assert_eq!(quantizer.code(v), gradient_code_oracle(quantizer, v), "{:e} on {:?}", v, quantizer);
        }

        /// The vectorized loop equals the oracle on a batch's own range.
        #[test]
        fn quantizer_loop_matches_its_oracle_on_a_range(seed in 0u64..10_000, len in 1usize..=70, spread in 0.0f32..300.0) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let values: Vec<f32> = (0..len).map(|_| rng.gen_range(-spread..spread + 1.0)).collect();
            let quantizer = Quantizer::of(&values);
            let mut codes = vec![0u8; len];
            quantizer.codes(&values, &mut codes);
            let expected: Vec<u8> = values.iter().map(|&v| code_oracle(quantizer, v)).collect();
            prop_assert_eq!(codes, expected);
        }
    }

    /// [`Quantizer::code`] before it went branch-free: round half away
    /// from zero through a saturating `as i32`, then clamp.
    fn code_oracle(quantizer: Quantizer, v: f32) -> u8 {
        round_half_away((v - quantizer.x_min) / quantizer.x_scale).clamp(0, 255) as u8
    }

    /// The gradient unit's own copy before it shared [`Quantizer`]:
    /// `f32::round`, a saturating `as u32`, then `min`.
    fn gradient_code_oracle(quantizer: Quantizer, v: f32) -> u8 {
        (((v - quantizer.x_min) / quantizer.x_scale).round() as u32).min(255) as u8
    }

    #[test]
    fn quantizer_matches_its_oracle_on_edge_values() {
        let unit = Quantizer { x_min: 0.0, x_scale: 1.0 };
        // Every tie in the code range rounds away from zero, and its
        // neighbours round to the nearer code.
        for i in 0..=255u8 {
            let tie = f32::from(i) + 0.5;
            assert_eq!(unit.code(tie), i.saturating_add(1), "{tie}");
            assert_eq!(unit.code(tie.next_down()), i, "{tie} - ulp");
            assert_eq!(unit.code(f32::from(i)), i);
        }
        for (v, code) in [(254.5, 255), (255.49, 255), (255.5, 255), (256.0, 255), (-0.5, 0), (-0.49, 0)] {
            assert_eq!(unit.code(v), code, "{v}");
        }
        let mut edges =
            vec![f32::NAN, -f32::NAN, 0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::MAX, f32::MIN];
        edges.extend([f32::MIN_POSITIVE, f32::from_bits(1), f32::from_bits(0x007f_ffff), 0.499_999_97, 0.5]);
        edges.extend((0..=256).flat_map(|i| [i as f32 + 0.5, (i as f32 + 0.5).next_up(), i as f32 + 0.499]));
        let negated: Vec<f32> = edges.iter().map(|&v| -v).collect();
        edges.extend(negated);
        let ranges = [
            unit,
            Quantizer { x_min: -0.0, x_scale: 1.0 },
            Quantizer { x_min: -1.0, x_scale: 2.0 / 255.0 },
            Quantizer { x_min: 0.0, x_scale: 1e-12 },
            Quantizer { x_min: f32::NEG_INFINITY, x_scale: f32::INFINITY },
            Quantizer::of(&[-1.0, 1.0, 0.0]),
            Quantizer::of(&[f32::NAN, 3.0, -0.0]),
        ];
        for quantizer in ranges {
            for &v in &edges {
                assert_eq!(quantizer.code(v), code_oracle(quantizer, v), "{v:e} on {quantizer:?}");
                assert_eq!(quantizer.code(v), gradient_code_oracle(quantizer, v), "{v:e} on {quantizer:?}");
            }
            let mut codes = vec![0u8; edges.len()];
            quantizer.codes(&edges, &mut codes);
            assert!(codes.iter().zip(&edges).all(|(&c, &v)| c == code_oracle(quantizer, v)), "{quantizer:?}");
        }
        assert_eq!(unit.code(f32::NAN), 0);
    }

    /// [`SignedQuantizer::code`]'s contract on `t = v / 1`.
    fn signed_code_oracle(t: f32) -> i16 {
        round_half_away(t).clamp(-127, 127) as i16
    }

    #[test]
    fn signed_code_matches_its_oracle_on_edge_values() {
        let unit = SignedQuantizer { scale: 1.0 };
        let mut edges =
            vec![f32::NAN, -f32::NAN, 0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::MAX, f32::MIN];
        edges.extend([
            f32::MIN_POSITIVE,
            f32::from_bits(1),
            f32::from_bits(0x007f_ffff),
            127.0,
            128.0,
            3.0e9,
        ]);
        // Every tie ±(j + 0.5) up to 127.5, and 4 ulps on either side.
        for j in 0..=127u8 {
            let tie = f32::from(j) + 0.5;
            edges.push(tie);
            let (mut up, mut down) = (tie, tie);
            for _ in 0..4 {
                (up, down) = (up.next_up(), down.next_down());
                edges.extend([up, down]);
            }
        }
        let negated: Vec<f32> = edges.iter().map(|&t| -t).collect();
        edges.extend(negated);
        for &t in &edges {
            assert_eq!(unit.code(t), signed_code_oracle(t), "{t:e}");
        }
        // A tie rounds away from zero, its lower neighbour towards it.
        for j in 0..=126i16 {
            let tie = f32::from(j) + 0.5;
            assert_eq!((unit.code(tie), unit.code(-tie)), (j + 1, -j - 1), "{tie}");
            assert_eq!((unit.code(tie.next_down()), unit.code(-tie.next_down())), (j, -j), "{tie} - ulp");
        }
        assert_eq!(unit.code(f32::NAN), 0);
        // The vectorized loop gives the same codes and sums them.
        let mut codes = vec![0i16; edges.len()];
        let sum = unit.codes(&edges, &mut codes);
        assert!(codes.iter().zip(&edges).all(|(&c, &t)| c == signed_code_oracle(t)));
        assert_eq!(sum, codes.iter().map(|&c| i64::from(c)).sum::<i64>());
    }

    /// All 2³² bit patterns through the vectorized loop, in runs of 2¹²:
    /// ~16 s in release on a 2-vCPU x86-64 host. CI runs it with
    /// `cargo test --release -p inca-core -- --ignored
    /// signed_code_matches_its_oracle_on_every_f32`.
    #[test]
    #[ignore = "sweeps every f32; run in release"]
    fn signed_code_matches_its_oracle_on_every_f32() {
        let unit = SignedQuantizer { scale: 1.0 };
        let (mut values, mut codes) = (vec![0f32; 1 << 12], vec![0i16; 1 << 12]);
        for high in 0..1u32 << 20 {
            for (low, v) in (0u32..).zip(&mut values) {
                *v = f32::from_bits(high << 12 | low);
            }
            unit.codes(&values, &mut codes);
            if let Some((&t, &code)) = values.iter().zip(&codes).find(|(&t, &c)| c != signed_code_oracle(t)) {
                panic!("{t:e} ({:#010x}) codes to {code}, not {}", t.to_bits(), signed_code_oracle(t));
            }
        }
    }

    /// [`ConvKernel::from_float`]'s codes before the blocked write: one
    /// value at a time, `round_half_away` of the fold's scale, each code
    /// scattered to its [`pair_index`]. Returns the table, `code_sum` and
    /// `w_scale`.
    fn scatter_oracle(weights: &Tensor) -> (Vec<i16>, Vec<i64>, f32) {
        let [out_ch, in_ch, k, _] = weights.dims4();
        let w_max = weights.data().iter().fold(0.0f32, |m, &w| m.max(w.abs())).max(1e-12);
        let w_scale = w_max / 127.0;
        let (kk, lanes) = (k * k, out_ch.next_multiple_of(LANES));
        let mut codes = vec![0i16; (in_ch * kk).div_ceil(2) * lanes * 2];
        let mut code_sum = vec![0i64; out_ch];
        for (oc, cells) in weights.data().chunks_exact(kk).enumerate() {
            let (o, c) = (oc / in_ch, oc % in_ch);
            for (cell, &w) in cells.iter().enumerate() {
                let q = round_half_away(w / w_scale) as i16;
                code_sum[o] += i64::from(q);
                codes[pair_index(c * kk + cell, o, lanes)] = q;
            }
        }
        (codes, code_sum, w_scale)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The blocked write gives the scatter's table, sums and scale:
        /// output widths on and off the 8-row blocks, odd and even tap
        /// counts (an odd one's last partner is 0), and weights on ties.
        #[test]
        fn blocked_codes_match_the_scatter_oracle(
            seed in any::<u64>(),
            out_ch in 1usize..=20,
            in_ch in 1usize..=5,
            k in 1usize..=5,
        ) {
            let weights = Tensor::from_vec(tie_weights(seed, out_ch * in_ch * k * k), &[out_ch, in_ch, k, k]);
            let kernel = ConvKernel::from_float(&weights, &vec![0.0; out_ch], 1, 0).unwrap();
            let (codes, code_sum, w_scale) = scatter_oracle(&weights);
            prop_assert_eq!(&kernel.codes, &codes);
            prop_assert_eq!(&kernel.code_sum, &code_sum);
            prop_assert_eq!(kernel.w_scale.to_bits(), w_scale.to_bits());
        }

        /// The lane max is the fold's on any values, NaN skipped, and the
        /// probe finds exactly the non-finite ones.
        #[test]
        fn abs_max_matches_the_fold(seed in any::<u64>(), len in 0usize..=40) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let specials = [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0];
            let values: Vec<f32> = (0..len)
                .map(|_| match rng.gen_range(0..8) {
                    0 => specials[rng.gen_range(0..specials.len())],
                    _ => f32::from_bits(rng.next_u64() as u32),
                })
                .collect();
            let fold = values.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            let (max, finite) = abs_max(&values);
            prop_assert_eq!(max.to_bits(), fold.to_bits());
            prop_assert_eq!(finite, values.iter().all(|v| v.is_finite()));
        }
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
                    assert_eq!(i64::from(kernel.code(ci * k * k + cell, o)), code);
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
    fn window_bits_match_the_codes_everywhere() {
        // Values 0..=255 quantize to themselves, so every code appears,
        // over two samples and two channels padded by one. Windows run
        // from 1 cell to k² > 64: k = 9 puts row 7 across the first word
        // boundary, and k = 11 cuts each row into two runs over two words.
        let values = (0..2 * 2 * 13 * 14).map(|i| (i * 37 % 256) as f32).collect();
        let image = CodeImage::quantize(&Tensor::from_vec(values, &[2, 2, 13, 14]), 1);
        for k in [1, 3, 5, 8, 9, 11] {
            let kernel = ConvKernel::from_float(&Tensor::full(&[1, 1, k, k], 0.5), &[0.0], 1, 0).unwrap();
            let words = kernel.window_words();
            // Set bits left by an earlier window must not survive a cut.
            let mut x = vec![u64::MAX; usize::from(DATA_BITS) * words];
            for (bi, ci) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                let codes = image.channel(bi, ci);
                for (ry, rx) in (0..=image.ph - k).flat_map(|ry| (0..=image.pw - k).map(move |rx| (ry, rx))) {
                    kernel.window_bits(codes, image.pw, (ry, rx), &mut x);
                    for (xb, bits) in x.chunks_exact(words).enumerate() {
                        let at = format!("k {k}, sample {bi}, channel {ci}, ({ry}, {rx}), bit {xb}");
                        for (i, j) in (0..k).flat_map(|i| (0..k).map(move |j| (i, j))) {
                            let (cell, code) = (i * k + j, codes[(ry + i) * image.pw + rx + j]);
                            let expected = u64::from(code >> xb & 1);
                            assert_eq!(bits[cell / 64] >> (cell % 64) & 1, expected, "{at}, cell ({i}, {j})");
                        }
                        // Nothing past the window's last cell.
                        let tail = if k * k % 64 == 0 { 0 } else { bits[k * k / 64] >> (k * k % 64) };
                        assert_eq!(tail, 0, "{at}: stray bits");
                    }
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
