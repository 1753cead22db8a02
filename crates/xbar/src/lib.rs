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
//! bit-plane helpers, an [`AdcReadout`] digitization model, and a
//! [`sneak_path_current`] estimator justifying the transistor gating.
//!
//! # Examples
//!
//! Direct convolution on a 2T1R plane matches the mathematical definition:
//!
//! ```
//! use inca_xbar::VerticalPlane;
//!
//! let mut plane = VerticalPlane::new(4, 4);
//! // A 4x4 binary input image:
//! let image = [
//!     1, 0, 1, 0,
//!     0, 1, 0, 1,
//!     1, 1, 0, 0,
//!     0, 0, 1, 1,
//! ];
//! plane.write_bits(&image)?;
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
mod sneak;
mod stack3d;

pub use adc_readout::AdcReadout;
pub use crossbar2d::Crossbar2d;
pub use error::XbarError;
pub use pipeline::{simulate_pipeline, PipelineConfig, PipelineStats};
pub use plane::VerticalPlane;
pub use simd::and_popcount_lanes;
pub use sneak::{sneak_path_current, SneakPathEstimate};
pub use stack3d::Stack3d;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, XbarError>;
