//! Functional execution of trained networks on the simulated INCA
//! hardware.
//!
//! Where [`inca_sim`] prices layers analytically, this module actually
//! *computes* them the way the hardware would (§IV-B, §IV-C):
//!
//! * a `[B, C, H, W]` batch is quantized to 8-bit codes with one shared
//!   range (the planes of a stack share one readout scale) and written,
//!   one bit-plane per activation bit, into 16 × 16 subarray tiles with
//!   halos (zero padding written as off cells); each (channel, tile,
//!   activation bit) is one [`inca_xbar::Stack3d`] whose planes hold the
//!   B samples, so a single sample is a one-plane stack,
//! * kernels are quantized to signed 8-bit (a sign carried by the
//!   differential pair plus a 7-bit magnitude, Table II) and split into
//!   positive and negative parts,
//! * every output is produced by direct-convolution window reads, each
//!   one kernel broadcast on the shared pillars that reads the same
//!   window on every plane, digitized per plane by the 4-bit ADC,
//!   recombined by shift-adds, and dequantized,
//! * fully-connected layers run on a WS-style [`inca_xbar::Crossbar2d`]
//!   with the same differential encoding, one row of the batch at a time.
//!
//! Engine-level optimizations ride on top of the hardware model without
//! changing a single output bit:
//!
//! * kernels are quantized **once at programming time** (they are
//!   weight-stationary state) into a `ConvKernel` (`hw_kernel.rs`):
//!   signed codes `[in][k·k][out]`, plus a flat `[in][out][side][wbit]`
//!   table of compact `k²`-bit masks for kernels whose reads can
//!   saturate; the `u8` bit-planes of the reference and analog reads are
//!   derived from the codes on first use,
//! * the programmed input state is the padded 8-bit code image, quantized
//!   in one pass over the batch at every forward. Its tiles of stacks are
//!   derived from the image only when a bit-level read needs them; their
//!   writes are counted at programming either way,
//! * output windows are independent read bursts, so a parallel
//!   [`ExecPolicy`] fans output rows across scoped worker threads,
//!   bit-exact with the sequential schedule,
//! * a 1×1, 2×2 or 3×3 kernel sums at most 9 binary products per read,
//!   which the 4-bit ADC never saturates; each window of each sample is
//!   then one signed integer dot product of its activation and weight
//!   codes, exactly the shift-add of its bit-serial reads (DESIGN.md §8,
//!   "Linear reads"),
//! * larger kernels, whose reads can saturate, keep the bit-serial
//!   read: each (window, sample, input channel, activation bit) is
//!   extracted **once** as one compact word — window cell `(i, j)` at bit
//!   `i·k + j`, one `u64` for every `k ≤ 8` — and read against all
//!   `out · 2 · WEIGHT_BITS` masks of that channel in one SIMD call that
//!   saturates every read at the ADC's max code before shifting it; each
//!   output folds its per-(side, weight bit) sums as
//!   `Σ (pos − neg) << wbit`.
//!
//! Either read records the per-broadcast telemetry of the reference
//! model ([`HwConv::forward_reference`]) as one record per event kind per
//! forward — totals and output bits identical to it.
//!
//! The test suite proves the hardware path classifies the synthetic task
//! with (near-)float accuracy — the end-to-end functional validation of
//! INCA's direct-convolution story.

#![allow(clippy::needless_range_loop)] // loops index several arrays with one shared variable
use inca_nn::Tensor;
use inca_telemetry::Event;
use inca_xbar::quant::slice_to_bit_planes;
use inca_xbar::{AdcReadout, Crossbar2d, Stack3d, VerticalPlane};

use crate::exec::{self, ExecPolicy};
use crate::hw_kernel::{conv_output_dims, CodeImage, ConvKernel};
use crate::{Error, Result};

/// Quantization width of activations (Table II: 8-bit codes).
pub const DATA_BITS: u8 = 8;

/// Bit-planes per weight *magnitude*: signed 8-bit weights carry their
/// sign in the differential pair, leaving a 7-bit magnitude (0..=127).
pub const WEIGHT_BITS: u8 = DATA_BITS - 1;

/// Resolution of the readout ADC (Table II: 4-bit).
const ADC_BITS: u8 = 4;

/// The ADC's max code, at which every window read saturates.
pub(crate) const READ_CAP: u32 = (1 << ADC_BITS) - 1;

/// Largest representable weight magnitude code.
pub(crate) fn weight_levels() -> f32 {
    f32::from((1u16 << WEIGHT_BITS) - 1)
}

/// Rows of a batch: the first dimension of a tensor of two or more
/// dimensions, one row otherwise.
pub(crate) fn batch_rows(x: &Tensor) -> usize {
    match x.shape() {
        [rows, _, ..] => *rows,
        _ => 1,
    }
}

/// One subarray tile of one input channel.
#[derive(Debug, Clone)]
struct Partition {
    /// Top-left of this tile in padded-image coordinates.
    row0: usize,
    col0: usize,
    /// One per activation bit; plane `bi` holds sample `bi`'s tile.
    stacks: Vec<Stack3d>,
}

/// Per input channel, the subarray tiles holding the padded activation
/// bit-planes: the bit-level view of the programmed code image.
type Tiles = Vec<Vec<Partition>>;

/// A convolution layer programmed onto INCA hardware. `forward` executes
/// a whole batch on 3D stacks: one kernel broadcast per window reads
/// every sample's plane.
///
/// # Examples
///
/// ```
/// use inca_core::HwConv;
/// use inca_nn::Tensor;
///
/// // A 1-in/1-out 3x3 conv with identity-ish weights.
/// let mut w = Tensor::zeros(&[1, 1, 3, 3]);
/// w.data_mut()[4] = 1.0; // center tap
/// let conv = HwConv::from_float(&w, &[0.0], 1, 1)?;
/// let x = Tensor::from_vec(vec![0.5; 16], &[1, 1, 4, 4]);
/// let y = conv.forward(&x)?;
/// assert_eq!(y.shape(), &[1, 1, 4, 4]);
/// // The center-tap kernel reproduces the input (up to quantization).
/// assert!((y.data()[5] - 0.5).abs() < 0.02);
/// // A batch of 4 runs as four planes of the 3D stacks.
/// assert_eq!(conv.forward(&Tensor::full(&[4, 1, 6, 6], 0.25))?.shape(), &[4, 1, 6, 6]);
/// # Ok::<(), inca_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct HwConv {
    /// The quantized kernel and the conv geometry.
    kernel: ConvKernel,
    /// Subarray side (16 in the paper, at least `k`).
    side: usize,
    policy: ExecPolicy,
}

impl HwConv {
    /// Quantizes float weights (`[out, in, k, k]`) and biases onto the
    /// differential-pair PIM encoding: signed 8-bit, i.e. a 7-bit
    /// magnitude (0..=127) on either the positive or negative column.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] if the weight tensor is not a square 4-D
    /// kernel, the bias length does not match the output channels, the
    /// stride is 0, or the layer has so many input channels that the
    /// packed read accumulators could overflow.
    pub fn from_float(weights: &Tensor, bias: &[f32], stride: usize, pad: usize) -> Result<Self> {
        let kernel = ConvKernel::from_float(weights, bias, stride, pad)?;
        Ok(Self { side: 16.max(kernel.k()), kernel, policy: ExecPolicy::default() })
    }

    /// Overrides the subarray side (for partitioning ablations).
    #[must_use]
    pub fn with_side(mut self, side: usize) -> Self {
        self.side = side.max(self.kernel.k());
        self
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

    /// Quantizes and programs the batch, recording one plane write per
    /// (channel, tile, activation bit, sample) whether or not a
    /// bit-level path ever materializes the planes.
    fn program(&self, x: &Tensor) -> CodeImage {
        let image = CodeImage::quantize(x, self.kernel.pad());
        let _span = inca_telemetry::span("hw_conv.program");
        let tiles = self.tile_walk(image.ph, image.pw).len();
        VerticalPlane::record_writes((image.b * image.c * tiles * usize::from(DATA_BITS)) as u64);
        image
    }

    /// The programmed tiles, derived from the code image for a bit-level
    /// read (uncounted: their writes were recorded at programming).
    fn tiles(&self, image: &CodeImage) -> Result<Tiles> {
        (0..image.c).map(|ci| self.partition(image, ci)).collect()
    }

    /// The `(OH, OW)` output of the `[B, C, H, W]` batch `x`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for an empty batch, a channel mismatch,
    /// or an input too small for one window.
    fn output_dims(&self, x: &Tensor) -> Result<(usize, usize)> {
        let [b, c, h, w] = x.dims4();
        if b == 0 || c != self.kernel.in_ch() {
            return Err(Error::Config(format!(
                "expected a batch of {} input channels, got {:?}",
                self.kernel.in_ch(),
                x.shape()
            )));
        }
        self.kernel.output_dims(h, w)
    }

    /// Executes the layer on a `[B, C, H, W]` batch, returning
    /// `[B, N, OH, OW]`. One broadcast per (window, output channel,
    /// input channel, side, weight bit, activation bit) serves the whole
    /// batch; B is not capped at a stack's 64 planes.
    ///
    /// The kernel size selects the read. A 1×1, 2×2 or 3×3 window sums
    /// at most 9 binary products, which the 4-bit ADC never saturates,
    /// so each window of each sample is one integer dot product of its
    /// codes; larger kernels read bit by bit, saturating every read.
    /// Both are bit-exact with [`HwConv::forward_reference`] in outputs
    /// and telemetry totals.
    ///
    /// Respects the configured [`ExecPolicy`]: output rows are either
    /// computed in order or fanned across scoped worker threads. Both
    /// schedules produce bit-identical tensors — each output element is
    /// an independent integer accumulation.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for an empty batch, a channel mismatch,
    /// or an input too small for one window, and propagates
    /// hardware-level errors.
    pub fn forward(&self, x: &Tensor) -> Result<Tensor> {
        let (oh, ow) = self.output_dims(x)?;
        let _span = inca_telemetry::span("hw_conv.forward");
        let image = self.program(x);
        let out = if self.kernel.exact_reads() {
            self.kernel.forward_linear(self.policy, &image, oh, ow)?
        } else {
            self.forward_bit_serial(&image, oh, ow)?
        };
        // The reference read's events, one record per kind: every window
        // broadcasts each (output, channel, side, weight bit) once per
        // activation bit, each broadcast one bit-serial cycle on `k²`
        // shared pillar drivers, with every plane conducting and
        // converting.
        let (b, k) = (image.b as u64, self.kernel.k());
        let broadcasts = (self.kernel.reads_per_window() * image.c * oh * ow) as u64 * u64::from(DATA_BITS);
        inca_telemetry::record(Event::XbarReadPulse, broadcasts * b);
        inca_telemetry::record(Event::DacDrive, broadcasts * (k * k) as u64);
        inca_telemetry::record(Event::AdcConversion, broadcasts * b);
        inca_telemetry::record(Event::BitSerialCycle, broadcasts);
        Ok(out)
    }

    /// The reference model of [`HwConv::forward`]'s read: one
    /// [`Stack3d::direct_conv_window`] broadcast per (window, output,
    /// channel, side, weight bit, activation bit), each plane's sum a
    /// per-cell byte loop saturated at the ADC's max code, with
    /// per-broadcast telemetry. Slow; tests and benchmarks hold the fast
    /// read to it. Accumulators are laid out `[o][oy][ox][bi]`, so one
    /// (o, oy) row is a chunk a worker of the configured [`ExecPolicy`]
    /// owns.
    ///
    /// # Errors
    ///
    /// Same as [`HwConv::forward`].
    pub fn forward_reference(&self, x: &Tensor) -> Result<Tensor> {
        let (oh, ow) = self.output_dims(x)?;
        let _span = inca_telemetry::span("hw_conv.forward_reference");
        let image = self.program(x);
        let kernel = &self.kernel;
        let (b, k, out_ch) = (image.b, kernel.k(), kernel.out_ch());
        let tiles = self.tiles(&image)?;
        let mut accs = vec![0i64; out_ch * oh * ow * b];
        exec::for_each_chunk(self.policy, &mut accs, ow * b, |idx, row| {
            let (o, oy) = (idx / oh, idx % oh);
            for (ox, acc) in row.chunks_exact_mut(b).enumerate() {
                let (ry, rx) = (oy * kernel.stride(), ox * kernel.stride());
                for (ci, partitions) in tiles.iter().enumerate() {
                    let tile = &partitions[find_tile(partitions, ry, rx, k)?];
                    for (side, sign) in [(0, 1i64), (1, -1i64)] {
                        let w_planes = kernel.planes(o, ci, side);
                        // One bit-serial cycle per (weight-bit, activation-
                        // bit) broadcast, each serving the whole batch.
                        inca_telemetry::record(
                            Event::BitSerialCycle,
                            (w_planes.len() * tile.stacks.len()) as u64,
                        );
                        for (wb, wp) in w_planes.enumerate() {
                            for (xb, stack) in tile.stacks.iter().enumerate() {
                                let sums =
                                    stack.direct_conv_window(ry - tile.row0, rx - tile.col0, k, k, wp)?;
                                acc.iter_mut().zip(sums).for_each(|(a, s)| {
                                    *a += sign * (i64::from(s.min(READ_CAP)) << (wb + xb))
                                });
                            }
                        }
                    }
                }
            }
            Ok(())
        })?;
        let mut out = Tensor::zeros(&[b, out_ch, oh, ow]);
        let windows = oh * ow;
        for (i, slot) in out.data_mut().iter_mut().enumerate() {
            let (bi, o, p) = (i / (out_ch * windows), i / windows % out_ch, i % windows);
            *slot = kernel.dequantize(o, accs[(o * windows + p) * b + bi], image.x_scale, image.x_min);
        }
        Ok(out)
    }

    /// The bit-serial packed read path, for kernels whose reads can
    /// saturate. Per output window and sample, each (input channel,
    /// activation bit) window is extracted **once** as one compact
    /// `k²`-bit word ([`VerticalPlane::extract_window_compact`]) and read
    /// against all `out · 2 · WEIGHT_BITS` kernel masks of that channel in
    /// one [`ConvKernel::accumulate`] call, which saturates every read at
    /// the ADC's max code before shifting it by the activation bit; each
    /// output then folds its per-(side, weight bit) sums as
    /// `Σ (pos − neg) << wbit`.
    ///
    /// The extraction word and the accumulators live in a per-worker
    /// arena allocated once per forward pass, not per output row. The
    /// saturation is `min(max_code)` — the same arithmetic as
    /// [`AdcReadout::digitize`] without its per-call event.
    fn forward_bit_serial(&self, image: &CodeImage, oh: usize, ow: usize) -> Result<Tensor> {
        let kernel = &self.kernel;
        let k = kernel.k();
        let tiles = &self.tiles(image)?;
        kernel.map_rows(
            self.policy,
            (image.b, oh, ow),
            // Per-worker arena: one compact window and the read sums.
            || (vec![0u64; kernel.window_words()], vec![0u32; kernel.reads_per_window()]),
            |(x, sums), bi, oy, row| {
                for (ox, slots) in row.chunks_exact_mut(kernel.out_ch()).enumerate() {
                    let (ry, rx) = (oy * kernel.stride(), ox * kernel.stride());
                    // Every channel shares the same tiling.
                    let t = find_tile(&tiles[0], ry, rx, k)?;
                    sums.fill(0);
                    for (ci, partitions) in tiles.iter().enumerate() {
                        let tile = &partitions[t];
                        for (xb, stack) in tile.stacks.iter().enumerate() {
                            stack.plane(bi)?.extract_window_compact(
                                ry - tile.row0,
                                rx - tile.col0,
                                k,
                                k,
                                x,
                            )?;
                            kernel.accumulate(ci, xb, x, sums);
                        }
                    }
                    for (o, slot) in slots.iter_mut().enumerate() {
                        *slot = kernel.dequantize(o, kernel.fold(o, sums), image.x_scale, image.x_min);
                    }
                }
                Ok(())
            },
        )
    }

    /// The halo-overlapped subarray tiles covering a `ph × pw` padded
    /// channel, as `(row0, col0, rows, cols)`. Every window lies within a
    /// single tile (halo replication; the adder-tree variant computes
    /// split partial sums — numerically identical). `side ≥ k` keeps the
    /// step positive.
    fn tile_walk(&self, ph: usize, pw: usize) -> Vec<(usize, usize, usize, usize)> {
        let step = self.side - (self.kernel.k() - 1);
        let mut tiles = Vec::new();
        let mut row0 = 0;
        while row0 < ph {
            let rows = self.side.min(ph - row0);
            let mut col0 = 0;
            while col0 < pw {
                let cols = self.side.min(pw - col0);
                tiles.push((row0, col0, rows, cols));
                if col0 + cols >= pw {
                    break;
                }
                col0 += step;
            }
            if row0 + rows >= ph {
                break;
            }
            row0 += step;
        }
        tiles
    }

    /// Partitions input channel `ci` of every sample into tiles, one
    /// stack of bit-planes per activation bit.
    fn partition(&self, image: &CodeImage, ci: usize) -> Result<Vec<Partition>> {
        let pw = image.pw;
        self.tile_walk(image.ph, pw)
            .into_iter()
            .map(|(row0, col0, rows, cols)| {
                let stacks = (0..DATA_BITS)
                    .map(|bit| {
                        let mut stack = Stack3d::new(rows, cols, image.b);
                        for bi in 0..image.b {
                            let codes = image.channel(bi, ci);
                            let bits: Vec<u8> = (row0..row0 + rows)
                                .flat_map(|y| &codes[y * pw + col0..y * pw + col0 + cols])
                                .map(|&v| (v >> bit) & 1)
                                .collect();
                            *stack.plane_mut(bi)? = VerticalPlane::from_bits(rows, cols, &bits)?;
                        }
                        Ok(stack)
                    })
                    .collect::<Result<Vec<_>>>()?;
                Ok(Partition { row0, col0, stacks })
            })
            .collect()
    }

    /// Executes the layer with *analog* reads: every window read produces a
    /// physical current through the Table II device model, perturbed by
    /// `noise`, and is digitized by rounding to the nearest on-current
    /// multiple — the full Fig 8d signal path.
    ///
    /// This is the functional version of the paper's robustness argument:
    /// because a window sums at most `k²` on-currents, the 4-bit ADC's
    /// decision levels survive several percent of device noise.
    ///
    /// Executes one sample and always runs sequentially (the noise stream
    /// is drawn from one `rng`).
    ///
    /// # Errors
    ///
    /// Same as [`HwConv::forward`], and [`Error::Config`] for a batch
    /// larger than 1.
    pub fn forward_noisy<R: rand::Rng + ?Sized>(
        &self,
        x: &Tensor,
        params: &inca_device::DeviceParams,
        noise: &inca_device::NoiseModel,
        rng: &mut R,
    ) -> Result<Tensor> {
        // Reuse the digital path's quantization/partitioning by swapping
        // the window read for the analog one.
        let kernel = &self.kernel;
        let [n, c, h, w] = x.dims4();
        if n != 1 || c != kernel.in_ch() {
            return Err(Error::Config("forward_noisy executes one sample with matching channels".into()));
        }
        let (oh, ow) = kernel.output_dims(h, w)?;
        let _span = inca_telemetry::span("hw_conv.forward_noisy");
        let image = self.program(x);
        let tiles = self.tiles(&image)?;

        let adc = AdcReadout::new(ADC_BITS);
        let unit = params.read_voltage * params.g_on();
        let k = kernel.k();
        let mut out = Tensor::zeros(&[1, kernel.out_ch(), oh, ow]);
        for o in 0..kernel.out_ch() {
            for oy in 0..oh {
                for ox in 0..ow {
                    let (ry, rx) = (oy * kernel.stride(), ox * kernel.stride());
                    let mut acc: i64 = 0;
                    for (ci, partitions) in tiles.iter().enumerate() {
                        let tile = &partitions[find_tile(partitions, ry, rx, k)?];
                        for (side, sign) in [(0, 1i64), (1, -1i64)] {
                            let w_planes = kernel.planes(o, ci, side);
                            inca_telemetry::record(
                                Event::BitSerialCycle,
                                (w_planes.len() * tile.stacks.len()) as u64,
                            );
                            for (wb, wp) in w_planes.enumerate() {
                                for (xb, stack) in tile.stacks.iter().enumerate() {
                                    let current = stack.plane(0)?.analog_conv_current(
                                        ry - tile.row0,
                                        rx - tile.col0,
                                        k,
                                        k,
                                        wp,
                                        params,
                                        noise,
                                        rng,
                                    )?;
                                    let code = adc.digitize((current / unit).round().max(0.0) as u32);
                                    acc += sign * (i64::from(code) << (wb + xb));
                                }
                            }
                        }
                    }
                    *out.at4_mut(0, o, oy, ox) = kernel.dequantize(o, acc, image.x_scale, image.x_min);
                }
            }
        }
        Ok(out)
    }
}

/// Index of the partition whose tile fully contains the window at
/// `(ry, rx)`.
fn find_tile(partitions: &[Partition], ry: usize, rx: usize, k: usize) -> Result<usize> {
    partitions
        .iter()
        .position(|p| {
            ry >= p.row0
                && rx >= p.col0
                && ry + k <= p.row0 + p.stacks[0].rows()
                && rx + k <= p.col0 + p.stacks[0].cols()
        })
        .ok_or_else(|| Error::Config("window not covered by any partition".into()))
}

/// The weight-stationary baseline's conv executor: kernels unrolled onto a
/// crossbar (GEMM-based convolution, §III-B), windows unrolled into input
/// vectors at runtime. The functional counterpart of [`HwConv`] — both
/// must produce identical outputs for identical weights, which the test
/// suite verifies (the two dataflows compute the same mathematics by
/// construction).
#[derive(Debug, Clone)]
pub struct HwWsConv {
    in_ch: usize,
    k: usize,
    stride: usize,
    pad: usize,
    /// One [`HwLinear`]-style differential crossbar over the unrolled
    /// window (fan-in = k·k·cin), out = cout.
    gemm: HwLinear,
}

impl HwWsConv {
    /// Quantizes float weights (`[out, in, k, k]`) onto unrolled crossbar
    /// columns.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] if the weight tensor is not a square 4-D
    /// kernel, the bias length does not match the output channels, or
    /// the stride is 0.
    pub fn from_float(weights: &Tensor, bias: &[f32], stride: usize, pad: usize) -> Result<Self> {
        if weights.shape().len() != 4 {
            return Err(Error::Config(format!("expected [out,in,k,k] weights, got {:?}", weights.shape())));
        }
        let [out_ch, in_ch, k, k2] = weights.dims4();
        if k != k2 {
            return Err(Error::Config("only square kernels supported".into()));
        }
        if stride == 0 {
            return Err(Error::Config("stride must be at least 1".into()));
        }
        // Unroll [out, in, k, k] -> [out, in*k*k] in window order
        // (channel-major, then kh, kw — matching the window unroll below).
        let fan_in = in_ch * k * k;
        let mut unrolled = Tensor::zeros(&[out_ch, fan_in]);
        for o in 0..out_ch {
            for c in 0..in_ch {
                for kh in 0..k {
                    for kw in 0..k {
                        let col = (c * k + kh) * k + kw;
                        unrolled.data_mut()[o * fan_in + col] = weights.at4(o, c, kh, kw);
                    }
                }
            }
        }
        Ok(Self { in_ch, k, stride, pad, gemm: HwLinear::from_float(&unrolled, bias)? })
    }

    /// Executes the layer on a single-sample NCHW tensor.
    ///
    /// # Errors
    ///
    /// Same as [`HwConv::forward`].
    pub fn forward(&self, x: &Tensor) -> Result<Tensor> {
        let [n, c, h, w] = x.dims4();
        if n != 1 || c != self.in_ch {
            return Err(Error::Config("HwWsConv::forward executes one sample with matching channels".into()));
        }
        let (oh, ow) = conv_output_dims(h, w, self.k, self.stride, self.pad)?;
        let out_ch = self.gemm.out_features();
        let fan_in = self.in_ch * self.k * self.k;
        let mut out = Tensor::zeros(&[1, out_ch, oh, ow]);
        let at_padded = |ci: usize, y: isize, xx: isize| -> f32 {
            if y < 0 || xx < 0 || y as usize >= h || xx as usize >= w {
                0.0
            } else {
                x.at4(0, ci, y as usize, xx as usize)
            }
        };
        for oy in 0..oh {
            for ox in 0..ow {
                // Unroll the window into the GEMM input vector.
                let mut window = Tensor::zeros(&[1, fan_in]);
                for ci in 0..self.in_ch {
                    for kh in 0..self.k {
                        for kw in 0..self.k {
                            let y = (oy * self.stride + kh) as isize - self.pad as isize;
                            let xx = (ox * self.stride + kw) as isize - self.pad as isize;
                            window.data_mut()[(ci * self.k + kh) * self.k + kw] = at_padded(ci, y, xx);
                        }
                    }
                }
                let result = self.gemm.forward(&window)?;
                for o in 0..out_ch {
                    *out.at4_mut(0, o, oy, ox) = result.data()[o];
                }
            }
        }
        Ok(out)
    }
}

/// A fully-connected layer executed on a WS crossbar with differential
/// weight columns (positive / negative pairs).
#[derive(Debug, Clone)]
pub struct HwLinear {
    in_f: usize,
    out_f: usize,
    pos: Crossbar2d,
    neg: Crossbar2d,
    /// `[out][bit]` column indices are implicit: column = out * bits + bit
    /// (bits = [`WEIGHT_BITS`] magnitude planes).
    w_scale: f32,
    /// Per-output signed sum of weight codes (offset correction).
    w_code_sum: Vec<i64>,
    bias: Vec<f32>,
}

impl HwLinear {
    /// Quantizes a `[out, in]` float weight matrix onto two crossbars
    /// (signed 8-bit: 7-bit magnitudes, sign on the differential pair).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] on shape mismatch.
    pub fn from_float(weights: &Tensor, bias: &[f32]) -> Result<Self> {
        if weights.shape().len() != 2 {
            return Err(Error::Config(format!("expected [out,in] weights, got {:?}", weights.shape())));
        }
        let out_f = weights.shape()[0];
        let in_f = weights.shape()[1];
        if bias.len() != out_f {
            return Err(Error::Config("bias length mismatch".into()));
        }
        let w_max = weights.data().iter().fold(0.0f32, |m, &w| m.max(w.abs())).max(1e-12);
        let w_scale = w_max / weight_levels();
        let bits = usize::from(WEIGHT_BITS);
        let mut pos = Crossbar2d::new(in_f, out_f * bits);
        let mut neg = Crossbar2d::new(in_f, out_f * bits);
        let mut w_code_sum = vec![0i64; out_f];
        for o in 0..out_f {
            let mut p_codes = vec![0u32; in_f];
            let mut n_codes = vec![0u32; in_f];
            for i in 0..in_f {
                let q = (weights.data()[o * in_f + i] / w_scale).round() as i32;
                if q >= 0 {
                    p_codes[i] = q as u32;
                } else {
                    n_codes[i] = (-q) as u32;
                }
            }
            for (codes, xbar) in [(&p_codes, &mut pos), (&n_codes, &mut neg)] {
                for (b, plane) in slice_to_bit_planes(codes, WEIGHT_BITS).iter().enumerate() {
                    xbar.program_column(o * bits + b, plane)?;
                }
            }
            w_code_sum[o] = p_codes.iter().map(|&v| i64::from(v)).sum::<i64>()
                - n_codes.iter().map(|&v| i64::from(v)).sum::<i64>();
        }
        Ok(Self { in_f, out_f, pos, neg, w_scale, w_code_sum, bias: bias.to_vec() })
    }

    /// Number of output features.
    #[must_use]
    pub fn out_features(&self) -> usize {
        self.out_f
    }

    /// Executes the layer on a `[B, in]` batch (or on one row of `in`
    /// values of any shape), quantizing and reading each row on its own.
    /// Returns `[B, out]`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] on shape mismatch.
    pub fn forward(&self, x: &Tensor) -> Result<Tensor> {
        let rows = batch_rows(x);
        if x.len() != rows * self.in_f {
            return Err(Error::Config(format!("expected rows of {} inputs, got {:?}", self.in_f, x.shape())));
        }
        let levels = f32::from((1u16 << DATA_BITS) - 1);
        let bits = usize::from(WEIGHT_BITS);
        let _span = inca_telemetry::span("hw_linear.forward");
        let mut out = Vec::with_capacity(rows * self.out_f);
        for x in x.data().chunks_exact(self.in_f) {
            let x_min = x.iter().fold(0.0f32, |m, &v| m.min(v)).min(0.0);
            let x_max = x.iter().fold(0.0f32, |m, &v| m.max(v)).max(x_min + 1e-9);
            let x_scale = ((x_max - x_min) / levels).max(1e-12);
            let codes: Vec<u32> =
                x.iter().map(|&v| (((v - x_min) / x_scale).round() as u32).min(levels as u32)).collect();
            let mut acc = vec![0i64; self.out_f];
            for (xb, xp) in slice_to_bit_planes(&codes, DATA_BITS).iter().enumerate() {
                // One bit-serial cycle per activation bit per differential side.
                inca_telemetry::record(Event::BitSerialCycle, 2);
                let p = self.pos.mvm_binary(xp)?;
                let n = self.neg.mvm_binary(xp)?;
                for o in 0..self.out_f {
                    for b in 0..bits {
                        let col = o * bits + b;
                        acc[o] += (i64::from(p[col]) - i64::from(n[col])) << (b + xb);
                    }
                }
            }
            out.extend(acc.iter().enumerate().map(|(o, &a)| {
                a as f32 * x_scale * self.w_scale
                    + x_min * self.w_scale * self.w_code_sum[o] as f32
                    + self.bias[o]
            }));
        }
        Ok(Tensor::from_vec(out, &[rows, self.out_f]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn random_tensor(shape: &[usize], seed: u64, lo: f32, hi: f32) -> Tensor {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Tensor::from_vec((0..shape.iter().product::<usize>()).map(|_| rng.gen_range(lo..hi)).collect(), shape)
    }

    /// Reference float convolution for comparison.
    fn float_conv(x: &Tensor, w: &Tensor, bias: &[f32], stride: usize, pad: usize) -> Tensor {
        let mut conv = inca_nn::layers::Conv2d::new(w.dims4()[1], w.dims4()[0], w.dims4()[2], stride, pad, 0);
        use inca_nn::Layer as _;
        conv.weights_mut().data_mut().copy_from_slice(w.data());
        let mut y = conv.forward(x);
        let [_, oc, oh, ow] = y.dims4();
        for o in 0..oc {
            for i in 0..oh * ow {
                y.data_mut()[o * oh * ow + i] += bias[o];
            }
        }
        y
    }

    #[test]
    fn hw_conv_matches_float_within_quantization() {
        let w = random_tensor(&[4, 3, 3, 3], 1, -0.5, 0.5);
        let bias = [0.1f32, -0.2, 0.0, 0.3];
        let x = random_tensor(&[1, 3, 10, 10], 2, 0.0, 1.0);
        let hw = HwConv::from_float(&w, &bias, 1, 1).unwrap();
        let y_hw = hw.forward(&x).unwrap();
        let y_ref = float_conv(&x, &w, &bias, 1, 1);
        assert_eq!(y_hw.shape(), y_ref.shape());
        let scale = y_ref.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        for (a, b) in y_hw.data().iter().zip(y_ref.data()) {
            assert!((a - b).abs() < 0.02 * scale.max(1.0), "hw {a} vs float {b}");
        }
    }

    #[test]
    fn hw_conv_spans_partitions() {
        // 20x20 input needs multiple 16x16 tiles; halo replication must
        // cover every window.
        let w = random_tensor(&[2, 1, 3, 3], 3, -0.4, 0.4);
        let x = random_tensor(&[1, 1, 20, 20], 4, 0.0, 1.0);
        let hw = HwConv::from_float(&w, &[0.0, 0.0], 1, 1).unwrap();
        let y_hw = hw.forward(&x).unwrap();
        let y_ref = float_conv(&x, &w, &[0.0, 0.0], 1, 1);
        let scale = y_ref.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        for (a, b) in y_hw.data().iter().zip(y_ref.data()) {
            assert!((a - b).abs() < 0.02 * scale.max(1.0));
        }
    }

    #[test]
    fn strided_conv() {
        let w = random_tensor(&[2, 2, 3, 3], 5, -0.3, 0.3);
        let x = random_tensor(&[1, 2, 12, 12], 6, 0.0, 1.0);
        let hw = HwConv::from_float(&w, &[0.0, 0.0], 2, 1).unwrap();
        let y = hw.forward(&x).unwrap();
        assert_eq!(y.shape(), &[1, 2, 6, 6]);
    }

    #[test]
    fn parallel_policy_is_bit_exact() {
        let w = random_tensor(&[3, 2, 3, 3], 41, -0.5, 0.5);
        let bias = [0.1f32, -0.2, 0.05];
        let x = random_tensor(&[1, 2, 11, 11], 42, -0.5, 1.0);
        let seq = HwConv::from_float(&w, &bias, 1, 1).unwrap();
        let par = seq.clone().with_policy(ExecPolicy::parallel_with(4));
        let y_seq = seq.forward(&x).unwrap();
        let y_par = par.forward(&x).unwrap();
        assert_eq!(y_seq.data(), y_par.data());
    }

    #[test]
    fn forward_is_bit_exact_with_reference() {
        // Multi-partition (20x20 > 16x16 tile), strided, padded, with
        // signed inputs so both differential sides are exercised.
        for (stride, pad, hw_dim) in [(1, 1, 20), (2, 0, 13), (3, 2, 9)] {
            let w = random_tensor(&[3, 2, 3, 3], 51 + stride as u64, -0.5, 0.5);
            let bias = [0.1f32, -0.05, 0.2];
            let x = random_tensor(&[1, 2, hw_dim, hw_dim], 61 + pad as u64, -0.7, 1.0);
            let conv = HwConv::from_float(&w, &bias, stride, pad).unwrap();
            let y = conv.forward(&x).unwrap();
            let y_reference = conv.forward_reference(&x).unwrap();
            assert_eq!(y.data(), y_reference.data(), "stride {stride} pad {pad}");
        }
    }

    #[test]
    fn forward_saturates_like_the_reference() {
        // A 5x5 all-ones window sums 25 > the 4-bit ADC's max code of 15,
        // so saturation fires; the bit-serial read must clamp identically.
        let mut w = Tensor::zeros(&[1, 1, 5, 5]);
        w.data_mut().fill(0.9);
        let x = Tensor::from_vec(vec![1.0; 100], &[1, 1, 10, 10]);
        let conv = HwConv::from_float(&w, &[0.0], 1, 0).unwrap();
        assert_eq!(conv.forward(&x).unwrap().data(), conv.forward_reference(&x).unwrap().data());
    }

    #[test]
    fn hw_linear_matches_float() {
        let w = random_tensor(&[5, 12], 7, -0.6, 0.6);
        let bias = [0.0f32, 0.1, -0.1, 0.2, 0.05];
        let x = random_tensor(&[1, 12], 8, 0.0, 1.0);
        let hw = HwLinear::from_float(&w, &bias).unwrap();
        let y = hw.forward(&x).unwrap();
        for o in 0..5 {
            let expected: f32 = (0..12).map(|i| w.data()[o * 12 + i] * x.data()[i]).sum::<f32>() + bias[o];
            assert!((y.data()[o] - expected).abs() < 0.02, "out {o}: {} vs {expected}", y.data()[o]);
        }
    }

    #[test]
    fn noisy_analog_path_matches_digital_at_low_sigma() {
        use inca_device::{DeviceParams, NoiseModel};
        use rand::SeedableRng;
        let w = random_tensor(&[2, 2, 3, 3], 11, -0.4, 0.4);
        let x = random_tensor(&[1, 2, 8, 8], 12, -0.5, 1.0);
        let hw = HwConv::from_float(&w, &[0.0, 0.0], 1, 1).unwrap();
        let digital = hw.forward(&x).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let noisy =
            hw.forward_noisy(&x, &DeviceParams::default(), &NoiseModel::relative(0.02), &mut rng).unwrap();
        // 2% device noise stays within the 4-bit ADC decision levels, so
        // the analog path digitizes to the same codes as the digital path.
        let scale = digital.data().iter().fold(0.0f32, |m, &v| m.max(v.abs())).max(1e-6);
        for (a, b) in noisy.data().iter().zip(digital.data()) {
            assert!((a - b).abs() < 0.05 * scale, "noisy {a} vs digital {b}");
        }
    }

    #[test]
    fn ws_and_is_hardware_agree() {
        // The two dataflows compute the same mathematics: a WS unrolled
        // crossbar and an IS direct-convolution plane programmed with the
        // same float weights must produce near-identical outputs (both are
        // 8-bit quantized, with independent per-call activation ranges).
        let w = random_tensor(&[3, 2, 3, 3], 21, -0.5, 0.5);
        let bias = [0.05f32, -0.1, 0.2];
        let x = random_tensor(&[1, 2, 9, 9], 22, -0.6, 1.0);
        let is = HwConv::from_float(&w, &bias, 1, 1).unwrap().forward(&x).unwrap();
        let ws = HwWsConv::from_float(&w, &bias, 1, 1).unwrap().forward(&x).unwrap();
        assert_eq!(is.shape(), ws.shape());
        let scale = is.data().iter().fold(0.0f32, |m, &v| m.max(v.abs())).max(1e-6);
        for (a, b) in is.data().iter().zip(ws.data()) {
            assert!((a - b).abs() < 0.04 * scale, "IS {a} vs WS {b}");
        }
    }

    #[test]
    fn ws_conv_matches_float() {
        let w = random_tensor(&[2, 1, 3, 3], 31, -0.5, 0.5);
        let x = random_tensor(&[1, 1, 7, 7], 32, 0.0, 1.0);
        let hw = HwWsConv::from_float(&w, &[0.0, 0.0], 2, 1).unwrap();
        let y_hw = hw.forward(&x).unwrap();
        let y_ref = float_conv(&x, &w, &[0.0, 0.0], 2, 1);
        assert_eq!(y_hw.shape(), y_ref.shape());
        let scale = y_ref.data().iter().fold(0.0f32, |m, &v| m.max(v.abs())).max(1e-6);
        for (a, b) in y_hw.data().iter().zip(y_ref.data()) {
            assert!((a - b).abs() < 0.03 * scale, "hw {a} vs float {b}");
        }
    }

    #[test]
    fn kernel_wider_than_the_default_tile_completes() {
        // k = 17 > the 16-cell default tile: the side must grow to k
        // (a zero partition step never terminated), and the multi-word
        // compact windows must match the reference reads bit for bit.
        let w = random_tensor(&[2, 1, 17, 17], 71, -0.5, 0.5);
        let x = random_tensor(&[1, 1, 20, 20], 72, -0.3, 1.0);
        for pad in [0, 1] {
            let conv = HwConv::from_float(&w, &[0.1, -0.1], 1, pad).unwrap();
            let y = conv.forward(&x).unwrap();
            assert_eq!(y.shape(), &[1, 2, 4 + 2 * pad, 4 + 2 * pad]);
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&y), bits(&conv.forward_reference(&x).unwrap()), "pad {pad}");
        }
    }

    #[test]
    fn zero_stride_is_rejected_at_construction() {
        let w = Tensor::zeros(&[1, 1, 3, 3]);
        assert!(matches!(HwConv::from_float(&w, &[0.0], 0, 1), Err(Error::Config(_))));
        assert!(matches!(HwWsConv::from_float(&w, &[0.0], 0, 1), Err(Error::Config(_))));
    }

    #[test]
    fn kernel_larger_than_padded_input_is_a_config_error() {
        let w = Tensor::zeros(&[1, 1, 3, 3]);
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        let expect = "3x3 kernel, stride 1, pad 0 on a 2x2 input";
        let conv = HwConv::from_float(&w, &[0.0], 1, 0).unwrap();
        for (name, result) in [
            ("HwConv::forward", conv.forward(&x)),
            ("HwConv::forward_reference", conv.forward_reference(&x)),
            (
                "HwConv::forward_noisy",
                conv.forward_noisy(
                    &x,
                    &inca_device::DeviceParams::default(),
                    &inca_device::NoiseModel::none(),
                    &mut rand::rngs::StdRng::seed_from_u64(1),
                ),
            ),
            ("HwWsConv::forward", HwWsConv::from_float(&w, &[0.0], 1, 0).unwrap().forward(&x)),
        ] {
            match result {
                Err(Error::Config(msg)) => assert!(msg.contains(expect), "{name}: {msg}"),
                other => panic!("{name}: expected a config error, got {other:?}"),
            }
        }
    }

    #[test]
    fn shape_errors() {
        let w = Tensor::zeros(&[2, 1, 3, 3]);
        assert!(HwConv::from_float(&w, &[0.0], 1, 1).is_err()); // bias mismatch
        let conv = HwConv::from_float(&w, &[0.0, 0.0], 1, 1).unwrap();
        for read in [HwConv::forward, HwConv::forward_reference] {
            // A channel mismatch and an empty batch.
            assert!(read(&conv, &Tensor::zeros(&[1, 2, 8, 8])).is_err());
            assert!(read(&conv, &Tensor::from_vec(Vec::new(), &[0, 1, 8, 8])).is_err());
        }
        let noisy = |x: &Tensor| {
            let (params, noise) = (inca_device::DeviceParams::default(), inca_device::NoiseModel::none());
            conv.forward_noisy(x, &params, &noise, &mut rand::rngs::StdRng::seed_from_u64(1))
        };
        assert!(noisy(&Tensor::zeros(&[2, 1, 8, 8])).is_err()); // the analog path reads one sample
        let fc = HwLinear::from_float(&Tensor::zeros(&[2, 3]), &[0.0, 0.0]).unwrap();
        assert_eq!(fc.forward(&Tensor::zeros(&[4, 3])).unwrap().shape(), &[4, 2]);
        assert!(fc.forward(&Tensor::zeros(&[4, 2])).is_err());
    }
}
