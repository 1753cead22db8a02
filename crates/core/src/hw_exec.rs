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
//! * fully-connected layers ([`HwLinear`]) are WS-style differential
//!   crossbars with the same encoding, read one row of the batch at a
//!   time; their bit-serial reads never saturate, so each row is one exact
//!   integer GEMV over the signed weight codes, with the crossbar's events
//!   recorded in closed form.
//!
//! Engine-level optimizations ride on top of the hardware model without
//! changing a single output bit:
//!
//! * kernels are quantized **once at programming time** (they are
//!   weight-stationary state) into a `ConvKernel` (`hw_kernel.rs`): one
//!   pair-major table of signed codes `[⌈in·k²/2⌉][out][2]`, plus a flat
//!   `[in][out][side][wbit]` table of compact `k²`-bit masks for kernels
//!   whose reads can saturate; the `u8` bit-planes of the reference and
//!   analog reads are derived from the codes on first use,
//! * the programmed input state is the padded 8-bit code image, quantized
//!   in one pass over the batch at every forward; both product reads read
//!   it directly. Its tiles of stacks are built from it only by the
//!   reference and analog reads; their writes are counted at programming
//!   either way,
//! * output windows are independent read bursts, so a parallel
//!   [`ExecPolicy`] fans output rows across scoped worker threads,
//!   bit-exact with the sequential schedule,
//! * a 1×1, 2×2 or 3×3 kernel sums at most 9 binary products per read,
//!   which the 4-bit ADC never saturates; each window of each sample is
//!   then one signed integer dot product of its activation and weight
//!   codes, exactly the shift-add of its bit-serial reads, and a row of
//!   windows is one blocked integer GEMM against the code table: its
//!   windows' codes gathered into a panel, multiplied in AVX2
//!   `_mm256_madd_epi16` register tiles in which each weight register
//!   serves 4 windows (DESIGN.md §8, "Linear reads"),
//! * larger kernels, whose reads can saturate, keep the bit-serial
//!   read: each (window, sample, input channel) is cut from the code
//!   image **once** into one compact word per activation bit — window
//!   cell `(i, j)` at bit `i·k + j`, one `u64` for every `k ≤ 8` — and
//!   each word is read against all `out · 2 · WEIGHT_BITS` masks of that
//!   channel in one SIMD call that saturates every read at the ADC's max
//!   code before shifting it; each output folds its per-(side, weight
//!   bit) sums as `Σ (pos − neg) << wbit`.
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
use inca_xbar::{AdcReadout, Crossbar2d, Stack3d, VerticalPlane};

use crate::exec::{self, ExecPolicy};
use crate::hw_kernel::{conv_output_dims, CodeImage, ConvKernel, Dequantizer, Quantizer, SignedQuantizer};
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
    /// stride is 0, the layer has so many input channels that the
    /// packed read accumulators could overflow, or a weight or bias is NaN
    /// or infinite.
    pub fn from_float(weights: &Tensor, bias: &[f32], stride: usize, pad: usize) -> Result<Self> {
        let kernel = ConvKernel::from_float(weights, bias, stride, pad)?;
        Ok(Self { side: 16.max(kernel.k()), kernel, policy: ExecPolicy::default() })
    }

    /// Overrides the subarray side (for partitioning ablations).
    #[must_use]
    // Needed by tests/{hw_exec_parallel,read_path_parity,saturation_parity,
    // telemetry_cross_validation}.rs (multi-tile stacks)
    // lint: allow(narrow-pub)
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
    pub(crate) fn set_policy(&mut self, policy: ExecPolicy) {
        self.policy = policy;
    }

    /// Quantizes and programs the batch, recording one plane write per
    /// (channel, tile, activation bit, sample) whether or not a read ever
    /// builds the planes.
    fn program(&self, x: &Tensor) -> CodeImage {
        let image = CodeImage::quantize(x, self.kernel.pad());
        let _span = inca_telemetry::span("hw_conv.program");
        image.record_writes(self.tile_walk(image.ph, image.pw).len());
        image
    }

    /// The programmed tiles, built from the code image for the reference
    /// and analog reads (uncounted: their writes were recorded at
    /// programming).
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
    // Needed by crates/bench/benches/hw_exec.rs, crates/core/tests/telemetry.rs,
    // tests/{hw_exec_parallel,read_path_parity,saturation_parity,
    // telemetry_cross_validation}.rs (the scalar-read oracle)
    // lint: allow(narrow-pub)
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
        let (windows, dequantizer) = (oh * ow, kernel.dequantizer(&image));
        for (i, slot) in out.data_mut().iter_mut().enumerate() {
            let (bi, o, p) = (i / (out_ch * windows), i / windows % out_ch, i % windows);
            *slot = dequantizer.apply(o, accs[(o * windows + p) * b + bi]);
        }
        Ok(out)
    }

    /// The bit-serial packed read path, for kernels whose reads can
    /// saturate. Per output window and sample, each input channel's
    /// window is cut from the code image **once** into one compact
    /// `k²`-bit string per activation bit ([`ConvKernel::window_bits`]),
    /// and each string is read against all `out · 2 · WEIGHT_BITS` kernel
    /// masks of that channel in one [`ConvKernel::accumulate`] call, which
    /// saturates every read at the ADC's max code before shifting it by the
    /// activation bit; each output then folds its per-(side, weight bit)
    /// sums as `Σ (pos − neg) << wbit`.
    ///
    /// The window strings and the accumulators live in a per-worker arena
    /// allocated once per forward pass, not per output row. The
    /// saturation is `min(max_code)` — the same arithmetic as
    /// [`AdcReadout::digitize`] without its per-call event.
    fn forward_bit_serial(&self, image: &CodeImage, oh: usize, ow: usize) -> Result<Tensor> {
        let kernel = &self.kernel;
        let words = kernel.window_words();
        let dequantizer = kernel.dequantizer(image);
        kernel.map_rows(
            self.policy,
            (image.b, oh, ow),
            1,
            // Per-worker arena: one window's activation-bit strings and the
            // read sums.
            || (vec![0u64; usize::from(DATA_BITS) * words], vec![0u32; kernel.reads_per_window()]),
            |(x, sums), bi, oy, _, row| {
                for (ox, slots) in row.chunks_exact_mut(kernel.out_ch()).enumerate() {
                    let window = (oy * kernel.stride(), ox * kernel.stride());
                    sums.fill(0);
                    for ci in 0..image.c {
                        kernel.window_bits(image.channel(bi, ci), image.pw, window, x);
                        for (xb, x) in x.chunks_exact(words).enumerate() {
                            kernel.accumulate(ci, xb, x, sums);
                        }
                    }
                    for (o, slot) in slots.iter_mut().enumerate() {
                        *slot = dequantizer.apply(o, kernel.fold(o, sums));
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
                        let planes = (0..image.b).map(|bi| {
                            let codes = image.channel(bi, ci);
                            let bits: Vec<u8> = (row0..row0 + rows)
                                .flat_map(|y| &codes[y * pw + col0..y * pw + col0 + cols])
                                .map(|&v| (v >> bit) & 1)
                                .collect();
                            VerticalPlane::from_bits(rows, cols, &bits)
                        });
                        Ok(Stack3d::from_planes(planes.collect::<inca_xbar::Result<_>>()?)?)
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
    // lint: allow(dead-pub) consumer: the `hw-inference` noise claim; see noisy_analog_path_matches_digital_at_low_sigma.
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

        let dequantizer = kernel.dequantizer(&image);
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
                    *out.at4_mut(0, o, oy, ox) = dequantizer.apply(o, acc);
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
// lint: allow(dead-pub) consumer: the ROADMAP ADC item, which reconciles it with `simulate_ws`.
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
    /// kernel with at least one output, input and cell, the bias length
    /// does not match the output channels, the stride is 0, or a weight or
    /// bias is NaN or infinite.
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
        // An NCHW kernel's output rows are already unrolled in window
        // order (channel-major, then kh, kw — matching the window unroll
        // below): [out, in, k, k] is [out, in·k·k].
        let unrolled = weights.clone().reshaped(&[out_ch, in_ch * k * k]);
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
/// weight columns (positive / negative pairs): per output, one column per
/// side and weight bit.
///
/// Each row of a batch is quantized to 8-bit codes on its own range and
/// read bit-serially, one activation bit per cycle on both sides. A
/// column sums at most `in` binary products and no read is digitized
/// below that count, so the shift-add of the reads is exactly
/// `Σ_i x_code[i] · q[o][i]` over the signed weight codes `q`, which
/// `forward` computes in `i64`. The crossbar's events are recorded in
/// closed form (DESIGN.md §8, "Linear reads").
#[derive(Debug, Clone)]
pub struct HwLinear {
    in_f: usize,
    out_f: usize,
    /// Signed weight codes (−127..=127), `[out][in]`.
    codes: Vec<i16>,
    w_scale: f32,
    /// Per-output signed sum of weight codes (offset correction).
    code_sum: Vec<i64>,
    bias: Vec<f32>,
}

impl HwLinear {
    /// Quantizes a `[out, in]` float weight matrix onto two crossbars
    /// (signed 8-bit: 7-bit magnitudes, sign on the differential pair),
    /// recording one programming pulse per column.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] unless the weights are a `[out, in]`
    /// matrix with at least one output and one input and the bias holds
    /// one value per output, all of them finite.
    pub fn from_float(weights: &Tensor, bias: &[f32]) -> Result<Self> {
        let &[out_f, in_f] = weights.shape() else {
            return Err(Error::Config(format!("expected [out,in] weights, got {:?}", weights.shape())));
        };
        if out_f == 0 || in_f == 0 {
            return Err(Error::Config(format!("empty weights: {out_f} outputs, {in_f} inputs")));
        }
        if bias.len() != out_f {
            return Err(Error::Config("bias length mismatch".into()));
        }
        let quantizer = SignedQuantizer::of_layer(weights.data(), bias)?;
        let mut codes = vec![0i16; weights.len()];
        let rows = codes.chunks_exact_mut(in_f).zip(weights.data().chunks_exact(in_f));
        let code_sum = rows.map(|(codes, row)| quantizer.codes(row, codes)).collect();
        // One pulse per programmed column: (output, side, weight bit).
        Crossbar2d::record_column_writes((2 * out_f * usize::from(WEIGHT_BITS)) as u64);
        Ok(Self { in_f, out_f, codes, w_scale: quantizer.scale, code_sum, bias: bias.to_vec() })
    }

    /// Number of output features.
    #[must_use]
    pub(crate) fn out_features(&self) -> usize {
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
        let _span = inca_telemetry::span("hw_linear.forward");
        let mut codes = vec![0u8; self.in_f];
        let mut out = Vec::with_capacity(rows * self.out_f);
        for x in x.data().chunks_exact(self.in_f) {
            let quantizer = Quantizer::of(x);
            quantizer.codes(x, &mut codes);
            let dequantizer = Dequantizer::new(quantizer, self.w_scale, &self.code_sum, &self.bias);
            out.extend(self.codes.chunks_exact(self.in_f).enumerate().map(|(o, q)| {
                let acc: i64 =
                    q.iter().zip(&codes).map(|(&q, &x)| i64::from(i32::from(q) * i32::from(x))).sum();
                dequantizer.apply(o, acc)
            }));
        }
        // Per row, both sides read once per activation bit: one bit-serial
        // cycle and one read pulse each, driving every input row and
        // converting every column.
        let reads = (rows * 2 * usize::from(DATA_BITS)) as u64;
        inca_telemetry::record(Event::BitSerialCycle, reads);
        inca_telemetry::record(Event::XbarReadPulse, reads);
        inca_telemetry::record(Event::DacDrive, reads * self.in_f as u64);
        inca_telemetry::record(Event::AdcConversion, reads * (self.out_f * usize::from(WEIGHT_BITS)) as u64);
        Ok(Tensor::from_vec(out, &[rows, self.out_f]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hw_kernel::{round_half_away, tie_weights};
    use proptest::prelude::*;
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

    /// [`HwLinear`] as it read before its reads became one integer GEMV:
    /// every code's magnitude bit-planes programmed onto two
    /// [`Crossbar2d`]s, each row read bit-serially with
    /// `mvm_binary`, one activation bit per cycle. The oracle of
    /// `from_float` and `forward`, in outputs and counted events.
    struct CrossbarLinear {
        in_f: usize,
        out_f: usize,
        pos: Crossbar2d,
        neg: Crossbar2d,
        w_scale: f32,
        w_code_sum: Vec<i64>,
        bias: Vec<f32>,
    }

    impl CrossbarLinear {
        fn from_float(weights: &Tensor, bias: &[f32]) -> Self {
            use inca_xbar::quant::slice_to_bit_planes;
            let (out_f, in_f) = (weights.shape()[0], weights.shape()[1]);
            let w_max = weights.data().iter().fold(0.0f32, |m, &w| m.max(w.abs())).max(1e-12);
            let w_scale = w_max / f32::from((1u16 << WEIGHT_BITS) - 1);
            let bits = usize::from(WEIGHT_BITS);
            let mut pos = Crossbar2d::new(in_f, out_f * bits);
            let mut neg = Crossbar2d::new(in_f, out_f * bits);
            let mut w_code_sum = vec![0i64; out_f];
            for o in 0..out_f {
                let mut p_codes = vec![0u32; in_f];
                let mut n_codes = vec![0u32; in_f];
                for i in 0..in_f {
                    let q = round_half_away(weights.data()[o * in_f + i] / w_scale);
                    if q >= 0 {
                        p_codes[i] = q as u32;
                    } else {
                        n_codes[i] = (-q) as u32;
                    }
                }
                for (codes, xbar) in [(&p_codes, &mut pos), (&n_codes, &mut neg)] {
                    for (b, plane) in slice_to_bit_planes(codes, WEIGHT_BITS).iter().enumerate() {
                        xbar.program_column(o * bits + b, plane).unwrap();
                    }
                }
                w_code_sum[o] = p_codes.iter().map(|&v| i64::from(v)).sum::<i64>()
                    - n_codes.iter().map(|&v| i64::from(v)).sum::<i64>();
            }
            Self { in_f, out_f, pos, neg, w_scale, w_code_sum, bias: bias.to_vec() }
        }

        fn forward(&self, x: &Tensor) -> Tensor {
            use inca_xbar::quant::slice_to_bit_planes;
            let rows = batch_rows(x);
            let levels = f32::from((1u16 << DATA_BITS) - 1);
            let bits = usize::from(WEIGHT_BITS);
            let mut out = Vec::with_capacity(rows * self.out_f);
            for x in x.data().chunks_exact(self.in_f) {
                let x_min = x.iter().fold(0.0f32, |m, &v| m.min(v)).min(0.0);
                let x_max = x.iter().fold(0.0f32, |m, &v| m.max(v)).max(x_min + 1e-9);
                let x_scale = ((x_max - x_min) / levels).max(1e-12);
                let codes: Vec<u32> = x
                    .iter()
                    .map(|&v| round_half_away((v - x_min) / x_scale).clamp(0, levels as i32) as u32)
                    .collect();
                let mut acc = vec![0i64; self.out_f];
                for (xb, xp) in slice_to_bit_planes(&codes, DATA_BITS).iter().enumerate() {
                    inca_telemetry::record(Event::BitSerialCycle, 2);
                    let p = self.pos.mvm_binary(xp).unwrap();
                    let n = self.neg.mvm_binary(xp).unwrap();
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
            Tensor::from_vec(out, &[rows, self.out_f])
        }
    }

    #[test]
    fn hw_linear_matches_the_crossbar_read_in_outputs_and_events() {
        // Feature counts on and off every lane multiple, 1–3 rows, signed
        // inputs, and one all-zero row.
        for (seed, (out_f, in_f)) in
            [(1, 1), (3, 7), (10, 64), (11, 17), (2, 130), (9, 8)].into_iter().enumerate()
        {
            let seed = 100 + 10 * seed as u64;
            let w = random_tensor(&[out_f, in_f], seed, -0.6, 0.6);
            let bias: Vec<f32> = (0..out_f).map(|o| 0.05 * o as f32 - 0.1).collect();
            let (fc, programmed) = inca_telemetry::capture(|| HwLinear::from_float(&w, &bias).unwrap());
            let (oracle, oracle_programmed) =
                inca_telemetry::capture(|| CrossbarLinear::from_float(&w, &bias));
            assert_eq!(programmed.counters(), oracle_programmed.counters(), "{out_f}x{in_f} programming");
            for rows in 1..=3 {
                let mut x = random_tensor(&[rows, in_f], seed + rows as u64, -1.5, 1.0);
                if rows == 3 {
                    x.data_mut()[..in_f].fill(0.0);
                }
                let (y, read) = inca_telemetry::capture(|| fc.forward(&x).unwrap());
                let (expected, oracle_read) = inca_telemetry::capture(|| oracle.forward(&x));
                let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&y), bits(&expected), "{out_f}x{in_f}, {rows} rows");
                assert_eq!(read.counters(), oracle_read.counters(), "{out_f}x{in_f}, {rows} rows");
            }
        }
    }

    #[test]
    fn empty_linear_weights_are_config_errors() {
        let empty = |shape: &[usize]| Tensor::from_vec(Vec::new(), shape);
        assert!(matches!(HwLinear::from_float(&empty(&[0, 4]), &[]), Err(Error::Config(_))));
        assert!(matches!(HwLinear::from_float(&empty(&[3, 0]), &[0.0; 3]), Err(Error::Config(_))));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The FC's codes, sums and scale are the old rounding of the
        /// fold's scale, with weights on ties and feature counts off every
        /// lane multiple.
        #[test]
        fn hw_linear_codes_are_the_old_rounding(seed in any::<u64>(), out_f in 1usize..=12, in_f in 1usize..=40) {
            let w = Tensor::from_vec(tie_weights(seed, out_f * in_f), &[out_f, in_f]);
            let fc = HwLinear::from_float(&w, &vec![0.0; out_f]).unwrap();
            let w_max = w.data().iter().fold(0.0f32, |m, &w| m.max(w.abs())).max(1e-12);
            let w_scale = w_max / f32::from((1u16 << WEIGHT_BITS) - 1);
            let codes: Vec<i16> = w.data().iter().map(|&w| round_half_away(w / w_scale) as i16).collect();
            let code_sum: Vec<i64> = codes.chunks_exact(in_f).map(|row| row.iter().map(|&q| i64::from(q)).sum()).collect();
            prop_assert_eq!(fc.w_scale.to_bits(), w_scale.to_bits());
            prop_assert_eq!(&fc.codes, &codes);
            prop_assert_eq!(&fc.code_sum, &code_sum);
        }
    }

    /// `HwConv`, `HwWsConv` and `HwLinear` (on the unrolled kernel) all
    /// reject a 2-out 2-in 3x3 kernel with weight 13 at `bad`, and a
    /// finite one with bias 1 at `bad`, naming the value.
    fn assert_rejected(bad: f32) {
        let finite = random_tensor(&[2, 2, 3, 3], 81, -0.5, 0.5);
        let mut w = finite.clone();
        w.data_mut()[13] = bad;
        let cases = [
            (w, [0.1, -0.1], format!("weight 13 is {bad}")),
            (finite, [0.1, bad], format!("bias 1 is {bad}")),
        ];
        for (w, bias, expect) in cases {
            let unrolled = w.clone().reshaped(&[2, 18]);
            for (name, result) in [
                ("HwConv", HwConv::from_float(&w, &bias, 1, 1).map(|_| ())),
                ("HwWsConv", HwWsConv::from_float(&w, &bias, 1, 1).map(|_| ())),
                ("HwLinear", HwLinear::from_float(&unrolled, &bias).map(|_| ())),
            ] {
                match result {
                    Err(Error::Config(msg)) => assert!(msg.contains(&expect), "{name}: {msg}"),
                    other => panic!("{name}: expected a config error for {expect}, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn a_nan_weight_or_bias_is_a_config_error() {
        assert_rejected(f32::NAN);
    }

    #[test]
    fn an_infinite_weight_or_bias_is_a_config_error() {
        assert_rejected(f32::INFINITY);
    }

    #[test]
    fn a_negative_infinite_weight_or_bias_is_a_config_error() {
        assert_rejected(f32::NEG_INFINITY);
    }

    #[test]
    fn a_conv_without_outputs_is_a_config_error() {
        let w = Tensor::from_vec(Vec::new(), &[0, 3, 3, 3]);
        assert!(matches!(HwConv::from_float(&w, &[], 1, 1), Err(Error::Config(_))));
        assert!(matches!(HwWsConv::from_float(&w, &[], 1, 1), Err(Error::Config(_))));
    }

    #[test]
    fn a_conv_of_side_zero_is_a_config_error() {
        let w = Tensor::from_vec(Vec::new(), &[4, 3, 0, 0]);
        assert!(matches!(HwConv::from_float(&w, &[0.0; 4], 1, 1), Err(Error::Config(_))));
        assert!(matches!(HwWsConv::from_float(&w, &[0.0; 4], 1, 1), Err(Error::Config(_))));
    }

    #[test]
    fn a_conv_without_inputs_is_a_config_error() {
        let w = Tensor::from_vec(Vec::new(), &[4, 0, 3, 3]);
        assert!(matches!(HwConv::from_float(&w, &[0.0; 4], 1, 1), Err(Error::Config(_))));
        assert!(matches!(HwWsConv::from_float(&w, &[0.0; 4], 1, 1), Err(Error::Config(_))));
    }

    #[test]
    fn noisy_analog_path_matches_digital_at_low_sigma() {
        use inca_device::{DeviceParams, NoiseModel};
        use rand::SeedableRng;
        // 2% device noise stays within the 4-bit ADC decision levels, so
        // the analog path digitizes every read to the digital path's code:
        // not one output moves by a bit.
        for seed in 0..4u64 {
            let w = random_tensor(&[2, 2, 3, 3], 11 + 2 * seed, -0.4, 0.4);
            let x = random_tensor(&[1, 2, 8, 8], 12 + 2 * seed, -0.5, 1.0);
            let hw = HwConv::from_float(&w, &[0.0, 0.0], 1, 1).unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(13 + seed);
            let noisy = hw
                .forward_noisy(&x, &DeviceParams::default(), &NoiseModel::relative(0.02), &mut rng)
                .unwrap();
            assert_eq!(noisy.data(), hw.forward(&x).unwrap().data(), "seed {seed}");
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
