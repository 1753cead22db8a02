//! Batch-parallel convolution on the 3D HRRAM stack — the architectural
//! heart of INCA (§IV-B): one kernel broadcast on the shared pillars
//! evaluates the same window on *every* plane, i.e. every batch sample,
//! in a single read cycle.
//!
//! The kernel side is the same `ConvKernel` (`hw_kernel.rs`) that
//! [`crate::HwConv`] programs, read without ADC saturation (the
//! broadcast's per-plane sums are used raw). The packed read path
//! extracts each (window, channel, activation bit, sample) once as one
//! compact `k²`-bit word and reads it against every mask of that channel
//! in one SIMD call, then folds `Σ (pos − neg) << wbit` per output and
//! sample.

use std::sync::Arc;

use inca_nn::Tensor;
use inca_telemetry::Event;
use inca_xbar::Stack3d;
use parking_lot::Mutex;

use crate::exec::{self, ExecPolicy, ReadPath};
use crate::hw_exec::{KeyHasher, DATA_BITS};
use crate::hw_kernel::ConvKernel;
use crate::{Error, Result};

/// The programmed batch state: one stack per (channel, activation bit)
/// holding every sample's padded bit-plane, keyed by a streamed hash of
/// the quantized batch codes. Cached per layer and reused while the
/// quantized batch is unchanged.
#[derive(Debug)]
struct ProgrammedBatch {
    b: usize,
    h: usize,
    w: usize,
    x_min: f32,
    x_scale: f32,
    /// [`KeyHasher`] digest of the geometry, dequantization range, and
    /// quantized codes — the cache key.
    key: u64,
    stacks: Vec<Vec<Stack3d>>,
}

type BatchCache = Arc<Mutex<Option<Arc<ProgrammedBatch>>>>;

/// A convolution layer executing a whole batch on 3D stacks.
///
/// Each (input-channel, activation-bit) pair owns one [`Stack3d`] whose
/// planes hold the batch samples; forward passes broadcast each kernel
/// bit-plane once per window and collect one partial sum per plane.
/// Kernel magnitude bit-planes are pre-sliced at programming time and
/// the programmed stacks are cached on the quantized batch codes, so
/// repeated forwards of the same batch write the planes once.
///
/// # Examples
///
/// ```
/// use inca_core::HwBatchConv;
/// use inca_nn::Tensor;
///
/// let mut w = Tensor::zeros(&[1, 1, 3, 3]);
/// w.data_mut()[4] = 1.0;
/// let conv = HwBatchConv::from_float(&w, &[0.0], 1, 1)?;
/// let x = Tensor::full(&[4, 1, 6, 6], 0.25); // batch of 4
/// let y = conv.forward(&x)?;
/// assert_eq!(y.shape(), &[4, 1, 6, 6]);
/// # Ok::<(), inca_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct HwBatchConv {
    /// The quantized kernel, its read masks and bit-planes, and the conv
    /// geometry; reads are raw sums (no ADC saturation).
    kernel: ConvKernel,
    policy: ExecPolicy,
    cache: BatchCache,
}

impl HwBatchConv {
    /// Quantizes float weights (`[out, in, k, k]`) with the differential
    /// encoding (signed 8-bit: 7-bit magnitudes, sign on the pair).
    ///
    /// # Errors
    ///
    /// Same validation as [`crate::HwConv::from_float`].
    pub fn from_float(weights: &Tensor, bias: &[f32], stride: usize, pad: usize) -> Result<Self> {
        let kernel = ConvKernel::from_float(weights, bias, stride, pad, u32::MAX)?;
        Ok(Self { kernel, policy: ExecPolicy::default(), cache: Arc::default() })
    }

    /// Sets the execution policy for subsequent forwards.
    #[must_use]
    pub fn with_policy(mut self, policy: ExecPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the execution policy in place (builder-free variant).
    pub fn set_policy(&mut self, policy: ExecPolicy) {
        self.policy = policy;
    }

    /// The currently configured execution policy.
    #[must_use]
    pub fn policy(&self) -> ExecPolicy {
        self.policy
    }

    /// Drops any cached programmed batch state.
    pub fn clear_cache(&self) {
        *self.cache.lock() = None;
    }

    /// Quantizes the batch and programs (or reuses) the stack state.
    fn program(&self, x: &Tensor, b: usize, c: usize, h: usize, w: usize) -> Result<Arc<ProgrammedBatch>> {
        let pad = self.kernel.pad();
        // Batch-shared activation quantization (the planes share one
        // readout scale per stack).
        let levels = f32::from((1u16 << DATA_BITS) - 1);
        let x_min = x.data().iter().fold(0.0f32, |m, &v| m.min(v)).min(0.0);
        let x_max = x.data().iter().fold(0.0f32, |m, &v| m.max(v)).max(x_min + 1e-9);
        let x_scale = ((x_max - x_min) / levels).max(1e-12);
        let zero_code = ((-x_min / x_scale).round() as u32).min(levels as u32);
        let quantize = |v: f32| -> u32 { (((v - x_min) / x_scale).round() as u32).min(levels as u32) };

        let ph = h + 2 * pad;
        let pw = w + 2 * pad;
        // Cache key: a streamed hash over the geometry, dequantization
        // range, and interior quantized codes (the halo is fully
        // determined by `zero_code` and `pad`). The hit path never
        // materializes or compares the padded code vector.
        let mut hasher = KeyHasher::new();
        for dim in [b, c, h, w, pad] {
            hasher.write(dim as u64);
        }
        hasher.write(u64::from(x_min.to_bits()));
        hasher.write(u64::from(x_scale.to_bits()));
        hasher.write(u64::from(zero_code));
        for ci in 0..c {
            for bi in 0..b {
                for y in 0..h {
                    for xx in 0..w {
                        hasher.write(u64::from(quantize(x.at4(bi, ci, y, xx))));
                    }
                }
            }
        }
        let key = hasher.finish();
        {
            let cached = self.cache.lock();
            if let Some(pb) = cached.as_ref() {
                if pb.b == b
                    && pb.h == h
                    && pb.w == w
                    && pb.x_min.to_bits() == x_min.to_bits()
                    && pb.x_scale.to_bits() == x_scale.to_bits()
                    && pb.key == key
                {
                    inca_telemetry::incr(Event::ProgramCacheHit);
                    return Ok(Arc::clone(pb));
                }
            }
        }
        inca_telemetry::incr(Event::ProgramCacheMiss);
        let _span = inca_telemetry::span("hw_batch.program");
        let mut codes = vec![zero_code; c * b * ph * pw];
        for ci in 0..c {
            for bi in 0..b {
                let base = (ci * b + bi) * ph * pw;
                for y in 0..h {
                    for xx in 0..w {
                        codes[base + (y + pad) * pw + xx + pad] = quantize(x.at4(bi, ci, y, xx));
                    }
                }
            }
        }
        // One stack per (channel, activation bit): padded H x W planes,
        // one plane per batch sample.
        let mut stacks: Vec<Vec<Stack3d>> = Vec::with_capacity(c);
        for ci in 0..c {
            let mut per_bit = Vec::with_capacity(usize::from(DATA_BITS));
            for bit in 0..usize::from(DATA_BITS) {
                let mut stack = Stack3d::new(ph, pw, b);
                for bi in 0..b {
                    let base = (ci * b + bi) * ph * pw;
                    let bits: Vec<u8> =
                        codes[base..base + ph * pw].iter().map(|&v| ((v >> bit) & 1) as u8).collect();
                    stack.write_plane(bi, &bits)?;
                }
                per_bit.push(stack);
            }
            stacks.push(per_bit);
        }
        let pb = Arc::new(ProgrammedBatch { b, h, w, x_min, x_scale, key, stacks });
        *self.cache.lock() = Some(Arc::clone(&pb));
        Ok(pb)
    }

    /// Executes the layer on a `[B, C, H, W]` batch, returning
    /// `[B, N, OH, OW]`. One read cycle per (window, output channel,
    /// weight bit, activation bit) serves the entire batch.
    ///
    /// Respects the configured [`ExecPolicy`]: output rows are fanned
    /// across scoped workers (each window read is still one broadcast
    /// serving the whole batch), bit-exact with sequential execution.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] on channel mismatch or an input too
    /// small for one window, and propagates hardware-level errors.
    pub fn forward(&self, x: &Tensor) -> Result<Tensor> {
        let kernel = &self.kernel;
        let [b, c, h, w] = x.dims4();
        if c != kernel.in_ch() {
            return Err(Error::Config(format!("expected {} channels, got {c}", kernel.in_ch())));
        }
        let (oh, ow) = kernel.output_dims(h, w)?;
        let _span = inca_telemetry::span("hw_batch.forward");
        let pb = self.program(x, b, c, h, w)?;

        let pb_ref = &*pb;
        let accs = match self.policy.read_path {
            ReadPath::Scalar => self.accumulate_scalar(pb_ref, b, oh, ow)?,
            ReadPath::Packed => self.accumulate_packed(pb_ref, b, oh, ow)?,
        };

        let mut out = Tensor::zeros(&[b, kernel.out_ch(), oh, ow]);
        for o in 0..kernel.out_ch() {
            for oy in 0..oh {
                for ox in 0..ow {
                    let base = ((o * oh + oy) * ow + ox) * b;
                    for bi in 0..b {
                        *out.at4_mut(bi, o, oy, ox) =
                            kernel.dequantize(o, accs[base + bi], pb.x_scale, pb.x_min);
                    }
                }
            }
        }
        Ok(out)
    }

    /// The reference read path: one scalar broadcast per (output, channel,
    /// side, weight-bit, activation-bit), with per-broadcast telemetry.
    /// Accumulators laid out `[(o, oy, ox)][bi]` so one (o, oy) row is a
    /// contiguous chunk a worker owns exclusively.
    fn accumulate_scalar(&self, pb: &ProgrammedBatch, b: usize, oh: usize, ow: usize) -> Result<Vec<i64>> {
        let kernel = &self.kernel;
        let mut accs = vec![0i64; kernel.out_ch() * oh * ow * b];
        exec::for_each_chunk(self.policy, &mut accs, ow * b, |idx, row| {
            let (o, oy) = (idx / oh, idx % oh);
            for ox in 0..ow {
                let acc = &mut row[ox * b..(ox + 1) * b];
                let (ry, rx) = (oy * kernel.stride(), ox * kernel.stride());
                for (ci, stacks) in pb.stacks.iter().enumerate() {
                    for (side, sign) in [(0, 1i64), (1, -1i64)] {
                        let w_planes = kernel.planes(o, ci, side);
                        // One bit-serial cycle per (weight-bit, activation-
                        // bit) pair — each serves the whole batch.
                        inca_telemetry::record(Event::BitSerialCycle, (w_planes.len() * stacks.len()) as u64);
                        for (wb, wp) in w_planes.enumerate() {
                            for (xb, stack) in stacks.iter().enumerate() {
                                // ONE broadcast read returns the whole
                                // batch's partial sums.
                                let sums = stack.direct_conv_window(ry, rx, kernel.k(), kernel.k(), wp)?;
                                for (bi, &s) in sums.iter().enumerate() {
                                    acc[bi] += sign * (i64::from(s) << (wb + xb));
                                }
                            }
                        }
                    }
                }
            }
            Ok(())
        })?;
        Ok(accs)
    }

    /// The word-parallel read path: per output window, each (channel,
    /// activation bit, sample) window is extracted once as one compact
    /// `k²`-bit word and read against all `out · 2 · WEIGHT_BITS` kernel
    /// masks of that channel in one [`ConvKernel::accumulate`] call (raw
    /// sums, no saturation); each (output, sample) then folds its
    /// per-(side, weight bit) sums as `Σ (pos − neg) << wbit`. The
    /// extraction word and the per-sample sums live in a per-worker arena
    /// allocated once per forward pass via [`exec::for_each_chunk_with`].
    ///
    /// Telemetry is coalesced into one record per event kind per window
    /// burst, with totals exactly the per-broadcast scheme's:
    /// `out·in·2·WEIGHT_BITS·DATA_BITS` broadcasts per window, each one
    /// [`Event::BitSerialCycle`] and `k²` [`Event::DacDrive`]s (pillar
    /// drivers are shared), and `depth` [`Event::XbarReadPulse`]s plus
    /// `depth` [`Event::AdcConversion`]s (every plane conducts and
    /// senses). No ADC saturation — matching the scalar broadcast, whose
    /// per-plane sums are used raw.
    fn accumulate_packed(&self, pb: &ProgrammedBatch, b: usize, oh: usize, ow: usize) -> Result<Vec<i64>> {
        let kernel = &self.kernel;
        let (out_ch, k) = (kernel.out_ch(), kernel.k());
        let per_sample = kernel.reads_per_window();
        let broadcasts = (per_sample * kernel.in_ch()) as u64 * u64::from(DATA_BITS);
        // Work in `[oy][ox][o][bi]` order so one extraction serves every
        // output channel, then permute to the scalar layout below.
        let mut window_major = vec![0i64; oh * ow * out_ch * b];
        exec::for_each_chunk_with(
            self.policy,
            &mut window_major,
            ow * out_ch * b,
            // Per-worker arena: one compact window and every sample's
            // read sums (`[bi][o][side][wbit]`).
            || (vec![0u64; kernel.window_words()], vec![0u32; b * per_sample]),
            |arena, oy, row| {
                let (x, sums) = arena;
                for ox in 0..ow {
                    let (ry, rx) = (oy * kernel.stride(), ox * kernel.stride());
                    sums.fill(0);
                    for (ci, stacks) in pb.stacks.iter().enumerate() {
                        for (xb, stack) in stacks.iter().enumerate() {
                            for (bi, sample) in sums.chunks_exact_mut(per_sample).enumerate() {
                                stack.plane(bi)?.extract_window_compact(ry, rx, k, k, x)?;
                                kernel.accumulate(ci, xb, x, sample);
                            }
                        }
                    }
                    inca_telemetry::record(Event::XbarReadPulse, broadcasts * b as u64);
                    inca_telemetry::record(Event::DacDrive, broadcasts * (k * k) as u64);
                    inca_telemetry::record(Event::AdcConversion, broadcasts * b as u64);
                    inca_telemetry::record(Event::BitSerialCycle, broadcasts);
                    let window = &mut row[ox * out_ch * b..(ox + 1) * out_ch * b];
                    for (o, acc) in window.chunks_exact_mut(b).enumerate() {
                        for (bi, slot) in acc.iter_mut().enumerate() {
                            *slot = kernel.fold(o, &sums[bi * per_sample..(bi + 1) * per_sample]);
                        }
                    }
                }
                Ok(())
            },
        )?;
        let mut accs = vec![0i64; out_ch * oh * ow * b];
        for oy in 0..oh {
            for ox in 0..ow {
                for o in 0..out_ch {
                    let src = ((oy * ow + ox) * out_ch + o) * b;
                    let dst = ((o * oh + oy) * ow + ox) * b;
                    accs[dst..dst + b].copy_from_slice(&window_major[src..src + b]);
                }
            }
        }
        Ok(accs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HwConv;
    use rand::{Rng, SeedableRng};

    fn random_tensor(shape: &[usize], seed: u64, lo: f32, hi: f32) -> Tensor {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Tensor::from_vec((0..shape.iter().product::<usize>()).map(|_| rng.gen_range(lo..hi)).collect(), shape)
    }

    #[test]
    fn batch_matches_per_sample_execution() {
        // The 3D batch path and the per-sample 2D path must agree exactly
        // when fed the same quantization range.
        let w = random_tensor(&[2, 2, 3, 3], 51, -0.5, 0.5);
        let bias = [0.1f32, -0.05];
        let x = random_tensor(&[3, 2, 7, 7], 52, 0.0, 1.0);
        let batch_conv = HwBatchConv::from_float(&w, &bias, 1, 1).unwrap();
        let y_batch = batch_conv.forward(&x).unwrap();
        assert_eq!(y_batch.shape(), &[3, 2, 7, 7]);

        // Per-sample execution through the float reference for tolerance.
        let single = HwConv::from_float(&w, &bias, 1, 1).unwrap();
        for bi in 0..3 {
            let sample = x.sample(bi);
            let y_single = single.forward(&sample).unwrap();
            let scale = y_single.data().iter().fold(0.0f32, |m, &v| m.max(v.abs())).max(1e-6);
            for (o, (a, b)) in y_batch.sample(bi).data().iter().zip(y_single.data()).enumerate() {
                // Batch shares one activation range; per-sample uses its
                // own — allow a small quantization delta.
                assert!((a - b).abs() < 0.05 * scale, "sample {bi} elem {o}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn engines_agree_bit_exactly_for_batch_of_one() {
        // For a batch of one the two engines share the activation range
        // and quantization formulas exactly, and for 3x3 kernels the
        // 4-bit ADC is the identity on window sums (fan-in 9 ≤ 15) — so
        // the IS plane engine and the 3D stack engine must agree to the
        // last bit, not just within tolerance. This cross-checks the
        // shared signed-8-bit weight convention end to end.
        let w = random_tensor(&[3, 2, 3, 3], 61, -0.7, 0.7);
        let bias = [0.2f32, -0.3, 0.05];
        let x = random_tensor(&[1, 2, 9, 9], 62, -0.8, 1.0);
        let plane = HwConv::from_float(&w, &bias, 1, 1).unwrap().forward(&x).unwrap();
        let stack = HwBatchConv::from_float(&w, &bias, 1, 1).unwrap().forward(&x).unwrap();
        assert_eq!(plane.shape(), stack.shape());
        assert_eq!(plane.data(), stack.data());
    }

    #[test]
    fn parallel_policy_is_bit_exact() {
        let w = random_tensor(&[2, 2, 3, 3], 63, -0.5, 0.5);
        let x = random_tensor(&[4, 2, 8, 8], 64, -0.4, 1.0);
        let seq = HwBatchConv::from_float(&w, &[0.1, -0.1], 1, 1).unwrap();
        let par = seq.clone().with_policy(ExecPolicy::parallel_with(4));
        assert_eq!(seq.forward(&x).unwrap().data(), par.forward(&x).unwrap().data());
    }

    #[test]
    fn packed_read_path_is_bit_exact_with_scalar() {
        use crate::ReadPath;
        for (stride, pad) in [(1, 1), (2, 0)] {
            let w = random_tensor(&[2, 2, 3, 3], 71 + stride as u64, -0.5, 0.5);
            let x = random_tensor(&[3, 2, 9, 9], 72 + pad as u64, -0.6, 1.0);
            let conv = HwBatchConv::from_float(&w, &[0.1, -0.2], stride, pad).unwrap();
            let scalar = conv.clone().with_policy(ExecPolicy::sequential().with_read_path(ReadPath::Scalar));
            assert_eq!(
                conv.forward(&x).unwrap().data(),
                scalar.forward(&x).unwrap().data(),
                "stride {stride} pad {pad}"
            );
        }
    }

    #[test]
    fn repeated_forward_hits_stack_cache() {
        let w = random_tensor(&[1, 1, 3, 3], 65, -0.3, 0.3);
        let conv = HwBatchConv::from_float(&w, &[0.0], 1, 1).unwrap();
        let x = random_tensor(&[2, 1, 6, 6], 66, 0.0, 1.0);
        let y1 = conv.forward(&x).unwrap();
        let y2 = conv.forward(&x).unwrap();
        assert_eq!(y1.data(), y2.data());
        let x2 = random_tensor(&[2, 1, 6, 6], 67, 0.0, 1.0);
        assert_ne!(conv.forward(&x2).unwrap().data(), y1.data());
        conv.clear_cache();
        assert_eq!(conv.forward(&x).unwrap().data(), y1.data());
    }

    #[test]
    fn one_read_serves_whole_batch() {
        // Structural check: the stack returns one sum per plane from a
        // single call — the batch parallelism itself is exercised above;
        // here we confirm the read count does not scale with batch size.
        let mut stack = Stack3d::new(4, 4, 8);
        for p in 0..8 {
            stack.write_plane(p, &[1; 16]).unwrap();
        }
        let sums = stack.direct_conv_window(0, 0, 2, 2, &[1, 1, 1, 1]).unwrap();
        assert_eq!(sums, vec![4; 8]);
    }

    #[test]
    fn strided_batch_conv_shapes() {
        let w = random_tensor(&[1, 1, 3, 3], 53, -0.3, 0.3);
        let conv = HwBatchConv::from_float(&w, &[0.0], 2, 1).unwrap();
        let x = random_tensor(&[2, 1, 8, 8], 54, 0.0, 1.0);
        let y = conv.forward(&x).unwrap();
        assert_eq!(y.shape(), &[2, 1, 4, 4]);
    }

    #[test]
    fn zero_stride_is_rejected_at_construction() {
        let w = Tensor::zeros(&[1, 1, 3, 3]);
        assert!(matches!(HwBatchConv::from_float(&w, &[0.0], 0, 1), Err(Error::Config(_))));
    }

    #[test]
    fn kernel_larger_than_padded_input_is_a_config_error() {
        let w = Tensor::zeros(&[1, 1, 3, 3]);
        let conv = HwBatchConv::from_float(&w, &[0.0], 1, 0).unwrap();
        match conv.forward(&Tensor::zeros(&[2, 1, 2, 2])) {
            Err(Error::Config(msg)) => {
                assert!(msg.contains("3x3 kernel, stride 1, pad 0 on a 2x2 input"), "{msg}")
            }
            other => panic!("expected a config error, got {other:?}"),
        }
    }

    #[test]
    fn channel_mismatch_rejected() {
        let w = Tensor::zeros(&[1, 2, 3, 3]);
        let conv = HwBatchConv::from_float(&w, &[0.0], 1, 1).unwrap();
        assert!(conv.forward(&Tensor::zeros(&[1, 3, 6, 6])).is_err());
    }
}
