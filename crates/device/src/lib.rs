//! RRAM device models for the INCA simulator.
//!
//! This crate provides the device-level substrate of the INCA reproduction
//! (Kim, Li & Li, *INCA: Input-stationary Dataflow at Outside-the-box Thinking
//! about Deep Learning Accelerators*, HPCA 2023):
//!
//! * [`RramCell`] — a single resistive cell with programmable memristance
//!   between `R_on` (240 kΩ) and `R_off` (24 MΩ),
//! * [`CellStructure`] — the access-device arrangements discussed by the
//!   paper (1R, 1T1R, and INCA's 2T1R with two perpendicular gate lines),
//! * [`NoiseModel`] — the zero-centered Gaussian nonideality model used by
//!   the paper's accuracy study (§V-B7, Table VI),
//! * [`ProgrammingModel`] — nonlinearity/asymmetry of conductance updates,
//! * [`EnduranceTracker`] — per-cell write counting for the endurance
//!   discussion of §VI.
//!
//! All electrical constants default to the paper's Table II "Circuit" rows
//! and are collected in [`DeviceParams`].
//!
//! # Examples
//!
//! ```
//! use inca_device::{DeviceParams, RramCell};
//!
//! let params = DeviceParams::default();
//! let mut cell = RramCell::off(&params);
//! cell.program_level(1, 1, &params); // 1-bit cell, store a logical 1
//! let current = cell.read_current(params.read_voltage);
//! assert!(current > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cell;
mod endurance;
mod error;
mod noise;
mod params;
mod programming;
mod shared_endurance;
mod structure;

pub use cell::RramCell;
pub use endurance::{EnduranceReport, EnduranceTracker};
pub use error::DeviceError;
pub use noise::NoiseModel;
pub use params::DeviceParams;
pub use programming::ProgrammingModel;
pub use shared_endurance::SharedEnduranceTracker;
pub use structure::{CellGeometry, CellStructure};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DeviceError>;
