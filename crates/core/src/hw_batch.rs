//! Batch-parallel convolution on the 3D HRRAM stack — the architectural
//! heart of INCA (§IV-B): one kernel broadcast on the shared pillars
//! evaluates the same window on *every* plane, i.e. every batch sample,
//! in a single read cycle.
//!
//! The kernel side is the same `ConvKernel` (`hw_kernel.rs`) that
//! [`crate::HwConv`] programs, read without ADC saturation (the
//! broadcast's per-plane sums are used raw). No read can then saturate,
//! so the packed read path computes each (window, sample) as one signed
//! integer dot product of its activation and weight codes — exactly the
//! shift-add of its bit-serial broadcasts (DESIGN.md §8, "Linear reads").
//! The stacks of bit-planes are derived from the programmed code image
//! only for the scalar reference path.

use std::sync::Arc;

use inca_nn::Tensor;
use inca_telemetry::Event;
use inca_xbar::{Stack3d, VerticalPlane};

use crate::exec::{self, ExecPolicy, ReadPath};
use crate::hw_exec::DATA_BITS;
use crate::hw_kernel::{ConvKernel, ProgramCache, Programmed};
use crate::{Error, Result};

/// Per input channel, one stack per activation bit holding every
/// sample's padded bit-plane: the bit-level view of the programmed code
/// image.
type Stacks = Vec<Vec<Stack3d>>;

/// A convolution layer executing a whole batch on 3D stacks.
///
/// Each (input-channel, activation-bit) pair owns one [`Stack3d`] whose
/// planes hold the batch samples; forward passes broadcast each kernel
/// bit-plane once per window and collect one partial sum per plane.
/// Kernels are quantized once at programming time and the programmed
/// input is cached on the quantized batch codes, so repeated forwards of
/// the same batch program it once.
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
    /// The quantized kernel and the conv geometry; reads are raw sums
    /// (no ADC saturation).
    kernel: ConvKernel,
    policy: ExecPolicy,
    cache: ProgramCache<Stacks>,
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

    /// Quantizes the batch with one shared range (the planes of a stack
    /// share one readout scale) and programs (or reuses) the stack
    /// state: one plane write per (channel, activation bit, sample).
    fn program(&self, x: &Tensor) -> Arc<Programmed<Stacks>> {
        Programmed::program(&self.cache, x, self.kernel.pad(), "hw_batch.program", |image| {
            (image.c * usize::from(DATA_BITS) * image.b) as u64
        })
    }

    /// The programmed stacks, derived from the code image on first use.
    fn stacks<'a>(&self, pb: &'a Programmed<Stacks>) -> Result<&'a Stacks> {
        pb.bits(|image| {
            (0..image.c)
                .map(|ci| {
                    (0..DATA_BITS)
                        .map(|bit| {
                            let mut stack = Stack3d::new(image.ph, image.pw, image.b);
                            for bi in 0..image.b {
                                let bits: Vec<u8> =
                                    image.channel(bi, ci).iter().map(|&v| (v >> bit) & 1).collect();
                                *stack.plane_mut(bi)? = VerticalPlane::from_bits(image.ph, image.pw, &bits)?;
                            }
                            Ok(stack)
                        })
                        .collect()
                })
                .collect()
        })
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
        let pb = self.program(x);
        if self.policy.read_path == ReadPath::Packed {
            let out = kernel.forward_linear(self.policy, &pb.image, oh, ow)?;
            // The scalar broadcasts' events, one record per kind: every
            // window broadcasts each (output, channel, side, weight bit)
            // once per activation bit, each one bit-serial cycle on `k²`
            // shared pillar drivers, with every plane conducting and
            // sensing.
            let k = kernel.k();
            let broadcasts = (kernel.reads_per_window() * c * oh * ow) as u64 * u64::from(DATA_BITS);
            inca_telemetry::record(Event::XbarReadPulse, broadcasts * b as u64);
            inca_telemetry::record(Event::DacDrive, broadcasts * (k * k) as u64);
            inca_telemetry::record(Event::AdcConversion, broadcasts * b as u64);
            inca_telemetry::record(Event::BitSerialCycle, broadcasts);
            return Ok(out);
        }
        let accs = self.accumulate_scalar(self.stacks(&pb)?, b, oh, ow)?;
        let mut out = Tensor::zeros(&[b, kernel.out_ch(), oh, ow]);
        for o in 0..kernel.out_ch() {
            for oy in 0..oh {
                for ox in 0..ow {
                    let base = ((o * oh + oy) * ow + ox) * b;
                    for bi in 0..b {
                        *out.at4_mut(bi, o, oy, ox) =
                            kernel.dequantize(o, accs[base + bi], pb.image.x_scale, pb.image.x_min);
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
    fn accumulate_scalar(&self, stacks: &Stacks, b: usize, oh: usize, ow: usize) -> Result<Vec<i64>> {
        let kernel = &self.kernel;
        let mut accs = vec![0i64; kernel.out_ch() * oh * ow * b];
        exec::for_each_chunk(self.policy, &mut accs, ow * b, |idx, row| {
            let (o, oy) = (idx / oh, idx % oh);
            for ox in 0..ow {
                let acc = &mut row[ox * b..(ox + 1) * b];
                let (ry, rx) = (oy * kernel.stride(), ox * kernel.stride());
                for (ci, stacks) in stacks.iter().enumerate() {
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
