//! Functional crossbar-array simulation for INCA and the WS baseline.
//!
//! Three array organizations are modelled *functionally* — they compute the
//! actual analog currents and digitized sums, so that higher layers can
//! verify that the dataflows produce mathematically correct convolutions:
//!
//! * [`Crossbar2d`] — the conventional weight-stationary crossbar (ISAAC
//!   style): weights unrolled into columns, inputs driven bit-serially on
//!   rows, column currents accumulated and digitized.
//! * [`VerticalPlane`] — INCA's 2T1R plane: *input bits* stored in cells,
//!   kernel voltages applied per-pillar, a rectangular window selected by
//!   the two perpendicular transistor lines, all currents accumulated
//!   one-shot at the tied bottom plane (direct convolution, §IV-A).
//! * [`Stack3d`] — the 3D HRRAM stack: many vertical planes share the same
//!   pillar voltages, so one kernel broadcast computes the same convolution
//!   window across a whole batch at once (§IV-B).
//!
//! Supporting modules: [`sliding`] window iterators, [`quant`] fixed-point
//! bit-plane helpers and an [`AdcReadout`] digitization model.
//!
//! # Examples
//!
//! Direct convolution on a 2T1R plane matches the mathematical definition:
//!
//! ```
//! use inca_xbar::VerticalPlane;
//!
//! // A 4x4 binary input image in the plane's cells:
//! let image = [
//!     1, 0, 1, 0,
//!     0, 1, 0, 1,
//!     1, 1, 0, 0,
//!     0, 0, 1, 1,
//! ];
//! let plane = VerticalPlane::from_bits(4, 4, &image)?;
//! // Slide a 2x2 kernel of binary weights over the top-left window:
//! let kernel = [1, 1, 0, 1];
//! let sum = plane.direct_conv_window(0, 0, 2, 2, &kernel)?;
//! assert_eq!(sum, 1 + 0 + 0 + 1); // w00*x00 + w01*x01 + w10*x10 + w11*x11
//! # Ok::<(), inca_xbar::XbarError>(())
//! ```

#![deny(unsafe_code)] // relaxed from forbid: `simd` opts in for its std::arch kernels
#![warn(missing_docs)]

mod adc_readout;
mod crossbar2d;
mod error;
pub mod packed;
mod pipeline;
mod plane;
pub mod quant;
pub mod simd;
pub mod sliding;
mod stack3d;

pub use adc_readout::AdcReadout;
pub use crossbar2d::Crossbar2d;
pub use error::XbarError;
pub use pipeline::{simulate_pipeline, PipelineConfig, PipelineStats};
pub use plane::VerticalPlane;
pub use simd::and_popcount_lanes;
pub use stack3d::Stack3d;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, XbarError>;

/// Cross-organization functional equivalence: the IS plane with direct
/// convolution, the WS crossbar with unrolled weights, and the plain
/// mathematical convolution must all agree — this is the correctness
/// backbone of the whole reproduction.
#[cfg(test)]
mod functional_equivalence {
    use crate::quant::{bit_serial_dot, slice_to_bit_planes};
    use crate::sliding::Windows;
    use crate::{Crossbar2d, Stack3d, VerticalPlane};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// Plain integer reference convolution (valid padding, stride 1).
    fn reference_conv(img: &[u32], h: usize, w: usize, kernel: &[u32], kh: usize, kw: usize) -> Vec<u64> {
        let mut out = Vec::new();
        for r in 0..=(h - kh) {
            for c in 0..=(w - kw) {
                let mut s = 0u64;
                for i in 0..kh {
                    for j in 0..kw {
                        s += u64::from(img[(r + i) * w + c + j]) * u64::from(kernel[i * kw + j]);
                    }
                }
                out.push(s);
            }
        }
        out
    }

    #[allow(clippy::too_many_arguments)]
    /// Runs a full multi-bit direct convolution on IS planes: one plane per
    /// activation bit, weight streamed bit-serially, shift-add recombination.
    fn is_multibit_conv(
        img: &[u32],
        h: usize,
        w: usize,
        kernel: &[u32],
        kh: usize,
        kw: usize,
        x_bits: u8,
        w_bits: u8,
    ) -> Vec<u64> {
        // One plane per activation bit.
        let x_planes_bits = slice_to_bit_planes(img, x_bits);
        let mut planes = Vec::new();
        for bits in &x_planes_bits {
            let mut p = VerticalPlane::new(h, w);
            p.write_bits(bits).unwrap();
            planes.push(p);
        }
        let w_planes_bits = slice_to_bit_planes(kernel, w_bits);

        let mut out = Vec::new();
        for (r, c) in Windows::new(h, w, kh, kw, 1) {
            let mut acc = 0u64;
            for (wb, wp) in w_planes_bits.iter().enumerate() {
                for (xb, plane) in planes.iter().enumerate() {
                    let partial = plane.direct_conv_window(r, c, kh, kw, wp).unwrap();
                    acc += u64::from(partial) << (wb + xb);
                }
            }
            out.push(acc);
        }
        out
    }

    #[allow(clippy::too_many_arguments)]
    /// Runs the same convolution on a WS crossbar: kernel unrolled into one
    /// column per weight bit, input windows unrolled into row vectors.
    fn ws_multibit_conv(
        img: &[u32],
        h: usize,
        w: usize,
        kernel: &[u32],
        kh: usize,
        kw: usize,
        x_bits: u8,
        w_bits: u8,
    ) -> Vec<u64> {
        let fan_in = kh * kw;
        let mut xbar = Crossbar2d::new(fan_in, usize::from(w_bits));
        let w_planes = slice_to_bit_planes(kernel, w_bits);
        for (col, wp) in w_planes.iter().enumerate() {
            xbar.program_column(col, wp).unwrap();
        }
        let mut out = Vec::new();
        for (r, c) in Windows::new(h, w, kh, kw, 1) {
            // Unroll the window.
            let window: Vec<u32> =
                (0..kh).flat_map(|i| (0..kw).map(move |j| img[(r + i) * w + c + j])).collect();
            let x_planes = slice_to_bit_planes(&window, x_bits);
            let mut acc = 0u64;
            for (xb, xp) in x_planes.iter().enumerate() {
                let col_sums = xbar.mvm_binary(xp).unwrap();
                for (wb, &s) in col_sums.iter().enumerate() {
                    acc += u64::from(s) << (wb + xb);
                }
            }
            out.push(acc);
        }
        out
    }

    #[test]
    fn is_ws_and_reference_agree_on_8bit_conv() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1234);
        let (h, w, kh, kw) = (8, 8, 3, 3);
        let img: Vec<u32> = (0..h * w).map(|_| rng.gen_range(0..256)).collect();
        let kernel: Vec<u32> = (0..kh * kw).map(|_| rng.gen_range(0..256)).collect();

        let reference = reference_conv(&img, h, w, &kernel, kh, kw);
        let is = is_multibit_conv(&img, h, w, &kernel, kh, kw, 8, 8);
        let ws = ws_multibit_conv(&img, h, w, &kernel, kh, kw, 8, 8);

        assert_eq!(is, reference, "IS direct convolution diverged from reference");
        assert_eq!(ws, reference, "WS unrolled convolution diverged from reference");
    }

    #[test]
    fn batch_stack_matches_per_image_planes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let (h, w, kh, kw, batch) = (6, 6, 2, 2, 5);
        let kernel_bits: Vec<u8> = (0..kh * kw).map(|_| rng.gen_range(0..2)).collect();

        let mut stack = Stack3d::new(h, w, batch);
        let mut images = Vec::new();
        for b in 0..batch {
            let img: Vec<u8> = (0..h * w).map(|_| rng.gen_range(0..2)).collect();
            stack.write_plane(b, &img).unwrap();
            images.push(img);
        }

        let batched = stack.direct_conv_full(kh, kw, &kernel_bits).unwrap();
        for (b, img) in images.iter().enumerate() {
            let mut single = VerticalPlane::new(h, w);
            single.write_bits(img).unwrap();
            let expected: Vec<u32> = Windows::new(h, w, kh, kw, 1)
                .map(|(r, c)| single.direct_conv_window(r, c, kh, kw, &kernel_bits).unwrap())
                .collect();
            assert_eq!(batched[b], expected, "plane {b} diverged");
        }
    }

    #[test]
    fn pointwise_fold_uses_kernel_stride() {
        // Pointwise conv folds the channel dimension into the plane and slides
        // with stride == kernel size (§IV-C). With a 2x2 fold on a 4x4 plane,
        // the 4 windows partition the plane exactly.
        let positions: Vec<_> = Windows::folded(4, 4, 2, 2).collect();
        assert_eq!(positions, vec![(0, 0), (0, 2), (2, 0), (2, 2)]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// IS direct conv == WS unrolled conv == reference, for arbitrary
        /// shapes and precisions.
        #[test]
        fn dataflows_equivalent(
            h in 3usize..9,
            kh in 1usize..4,
            x_bits in 1u8..6,
            w_bits in 1u8..6,
            seed in any::<u64>(),
        ) {
            let w_dim = h; // square images keep the state space small
            let kw = kh;
            prop_assume!(kh <= h);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let img: Vec<u32> = (0..h * w_dim).map(|_| rng.gen_range(0..(1u32 << x_bits))).collect();
            let kernel: Vec<u32> = (0..kh * kw).map(|_| rng.gen_range(0..(1u32 << w_bits))).collect();

            let reference = reference_conv(&img, h, w_dim, &kernel, kh, kw);
            prop_assert_eq!(&is_multibit_conv(&img, h, w_dim, &kernel, kh, kw, x_bits, w_bits), &reference);
            prop_assert_eq!(&ws_multibit_conv(&img, h, w_dim, &kernel, kh, kw, x_bits, w_bits), &reference);
        }

        /// The bit-serial dot product helper agrees with a window evaluated on
        /// hardware planes.
        #[test]
        fn bit_serial_dot_matches_plane(seed in any::<u64>()) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let img: Vec<u32> = (0..9).map(|_| rng.gen_range(0..256)).collect();
            let kernel: Vec<u32> = (0..9).map(|_| rng.gen_range(0..256)).collect();
            let via_planes = is_multibit_conv(&img, 3, 3, &kernel, 3, 3, 8, 8);
            prop_assert_eq!(via_planes[0], bit_serial_dot(&img, &kernel, 8, 8));
        }
    }
}
