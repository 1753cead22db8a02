//! RRAM device models for the INCA simulator.
//!
//! This crate provides the device-level substrate of the INCA reproduction
//! (Kim, Li & Li, *INCA: Input-stationary Dataflow at Outside-the-box Thinking
//! about Deep Learning Accelerators*, HPCA 2023):
//!
//! * [`DeviceParams`] — the cell's electrical constants, defaulting to
//!   the paper's Table II "Circuit" rows: memristance between `R_on`
//!   (240 kΩ) and `R_off` (24 MΩ), read and write voltages and pulses,
//! * [`CellStructure`] — the access-device arrangements discussed by the
//!   paper (1R, 1T1R, and INCA's 2T1R with two perpendicular gate lines),
//! * [`NoiseModel`] — the zero-centered Gaussian nonideality model used by
//!   the paper's accuracy study (§V-B7, Table VI),
//! * [`EnduranceTracker`] — per-cell write counting for the endurance
//!   discussion of §VI.
//!
//! INCA stores 1-bit activation cells, so a cell is either at `g_on` or
//! at `g_off`: the analog read prices each cell from those two
//! conductances and perturbs it with a [`NoiseModel`].
//!
//! # Examples
//!
//! ```
//! use inca_device::{DeviceParams, NoiseModel};
//! use rand::SeedableRng;
//!
//! let params = DeviceParams::default();
//! // A stored 1 draws the on-state current at the read voltage.
//! let current = params.read_voltage * params.g_on();
//! assert!(current > params.read_voltage * params.g_off());
//! // Device variation: a relative Gaussian perturbation of that current.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let noisy = NoiseModel::relative(0.05).apply(current, &mut rng);
//! assert!((noisy - current).abs() < 0.5 * current);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod endurance;
mod error;
mod noise;
mod params;
mod shared_endurance;
mod structure;

pub use endurance::{EnduranceReport, EnduranceTracker};
pub use error::DeviceError;
pub use noise::NoiseModel;
pub use params::DeviceParams;
pub use shared_endurance::SharedEnduranceTracker;
pub use structure::{CellGeometry, CellStructure};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DeviceError>;
