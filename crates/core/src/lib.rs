//! Top-level public API of the INCA reproduction.
//!
//! This crate ties the substrates together behind three entry points:
//!
//! * [`Accelerator`] — build either accelerator (INCA or the WS baseline)
//!   and simulate inference/training of any workload,
//! * [`Comparison`] — the INCA-vs-baseline(-vs-GPU) ratio harness behind
//!   the paper's headline figures,
//! * [`Experiment`] — a registry with one entry per table/figure of the
//!   paper; each regenerates its artifact as text plus machine-readable
//!   JSON.
//!
//! # Examples
//!
//! ```
//! use inca_core::prelude::*;
//!
//! let report = Comparison::paper_default()
//!     .workload(Model::ResNet18)
//!     .run_inference()?;
//! assert!(report.energy_improvement() > 1.0);
//! # Ok::<(), inca_core::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accelerator;
mod accuracy;
mod comparison;
mod error;
pub mod exec;
mod experiments;
mod hw_exec;
mod hw_kernel;
mod hw_network;
mod hw_train;

pub use accelerator::Accelerator;
pub use accuracy::{noise_accuracy_row, quantization_accuracy, AccuracyConfig, NoiseAccuracyRow};
pub use comparison::{Comparison, RunReport};
pub use error::Error;
pub use exec::{par_map_indexed, ExecPolicy};
pub use experiments::{Experiment, ExperimentOpts, ExperimentResult};
pub use hw_exec::{HwConv, HwLinear, HwWsConv, DATA_BITS, WEIGHT_BITS};
pub use hw_network::{HwNetwork, HwStage};
pub use hw_train::{backprop_error_hw, HwGradientUnit};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Convenience prelude: the types most programs need.
pub mod prelude {
    pub use crate::{Accelerator, Comparison, Error, Experiment, ExperimentOpts, RunReport};
    pub use inca_arch::{ArchConfig, Dataflow};
    pub use inca_sim::{simulate_inference, simulate_training, EnergyBreakdown, NetworkStats};
    pub use inca_workloads::Model;
}
