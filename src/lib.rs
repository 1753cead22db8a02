//! # INCA — Input-stationary Crossbar Accelerator (reproduction)
//!
//! A production-quality Rust reproduction of *INCA: Input-stationary Dataflow
//! at Outside-the-box Thinking about Deep Learning Accelerators* (Kim, Li &
//! Li, HPCA 2023). This meta-crate re-exports the full workspace API:
//!
//! * [`device`] — RRAM device parameters, 2T1R structures, noise,
//!   endurance,
//! * [`circuit`] — ADCs, DACs, buffers, HBM2 DRAM, buses, scaling,
//! * [`xbar`] — functional crossbars: WS 2D arrays, INCA 2T1R planes, 3D
//!   HRRAM stacks with direct convolution,
//! * [`nn`] — a minimal trainable DNN framework with quantization and noise
//!   injection,
//! * [`workloads`] — the six evaluated networks (VGG16/19, ResNet18/50,
//!   MobileNetV2, MNasNet),
//! * [`arch`] — architecture hierarchy, WS/IS mapping engines, area and
//!   footprint models,
//! * [`sim`] — the end-to-end analytical energy/latency simulator,
//! * top-level builders and the experiment runner from `inca-core`,
//!   re-exported at the crate root.
//!
//! # Quickstart
//!
//! ```
//! use inca::prelude::*;
//!
//! // Build both accelerators with the paper's Table II configuration and
//! // compare them on ResNet-18.
//! let report = Comparison::paper_default().run(Model::ResNet18);
//! assert!(report.inference_energy_ratio > 1.0);
//! ```

#![forbid(unsafe_code)]

pub use inca_core::*;

/// RRAM device models (re-export of `inca-device`).
pub mod device {
    pub use inca_device::*;
}

/// Circuit component models (re-export of `inca-circuit`).
pub mod circuit {
    pub use inca_circuit::*;
}

/// Functional crossbar simulation (re-export of `inca-xbar`).
pub mod xbar {
    pub use inca_xbar::*;
}

/// Minimal DNN training framework (re-export of `inca-nn`).
pub mod nn {
    pub use inca_nn::*;
}

/// Workload model zoo (re-export of `inca-workloads`).
pub mod workloads {
    pub use inca_workloads::*;
}

/// Architecture hierarchy and mapping (re-export of `inca-arch`).
pub mod arch {
    pub use inca_arch::*;
}

/// Analytical energy/latency simulator (re-export of `inca-sim`).
pub mod sim {
    pub use inca_sim::*;
}
