//! Circuit-level component models for the INCA simulator.
//!
//! This crate models every peripheral the paper's evaluation accounts for
//! (Table II, Figs 1b/6/13):
//!
//! * [`AdcSpec`] — successive-approximation ADC energy/latency/area with the
//!   paper's precision trade-off ("four 4-bit ADCs at 2.1 GHz replace one
//!   8-bit at 1.2 GHz"),
//! * [`DacSpec`] — 1-bit input drivers,
//! * [`SramBuffer`] — the 64 KB on-chip buffers with a 256-bit port,
//! * [`DramModel`] — HBM2 with the 32 pJ/byte access energy and the
//!   latency-vs-bandwidth knee of Fig 1b,
//! * [`Bus`] — bus-width-quantized transfer accounting (Eq 5/6),
//! * [`TechScaling`] — 65 nm → 22 nm scaling rules (factor 0.34).
//!
//! # Examples
//!
//! ```
//! use inca_circuit::{AdcSpec, Bus};
//!
//! // The paper's ADC equivalence: one 8-bit ADC costs as much energy as
//! // four 4-bit ADCs (§V-B1).
//! let four_bit = AdcSpec::inca_default();
//! let eight_bit = AdcSpec::baseline_default();
//! let ratio = eight_bit.energy_per_conversion_j() / four_bit.energy_per_conversion_j();
//! assert!((ratio - 4.0).abs() < 1e-9);
//!
//! // Eq. 5: accesses to fetch one 3x3x64 window at 8-bit over a 256-bit bus.
//! let bus = Bus::new(256);
//! assert_eq!(bus.transfers(3 * 3 * 64, 8), 18);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adc;
mod bus;
pub mod constants;
mod dac;
mod dram;
mod error;
mod interconnect;
mod scaling;
mod sram;

pub use adc::AdcSpec;
pub use bus::Bus;
pub use dac::DacSpec;
pub use dram::DramModel;
pub use error::CircuitError;
pub use interconnect::HTree;
pub use scaling::TechScaling;
pub use sram::SramBuffer;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CircuitError>;
