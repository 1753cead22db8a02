//! End-to-end analytical energy/latency simulator for INCA and the WS
//! baseline — the reproduction of NeuroSim+-style evaluation the paper
//! built (§V-A).
//!
//! The simulator walks a workload's layer list under one of the two
//! dataflow mappings and accounts, per layer:
//!
//! * **buffer traffic** (Eqs 5/6; Table III, Fig 7a) — [`access`],
//! * **DRAM traffic** (32 pJ/byte HBM2; spills and weight streaming),
//! * **array events** (cell reads/writes at the Table II device points),
//! * **ADC/DAC conversions** (the Fig 13a asymmetry),
//! * **digital post-processing** (adder trees, shift-accumulators),
//! * **cycles** (pipelined WS execution vs batch-parallel IS execution —
//!   the Fig 14 speedups).
//!
//! Entry points: [`simulate_inference`], [`simulate_training`], the
//! [`GpuModel`] roofline (Fig 15), and [`Comparison`] which packages the
//! INCA-vs-baseline ratios the paper reports.
//!
//! # Examples
//!
//! ```
//! use inca_arch::ArchConfig;
//! use inca_sim::simulate_inference;
//! use inca_workloads::Model;
//!
//! let spec = Model::ResNet18.spec();
//! let inca = simulate_inference(&ArchConfig::inca_paper(), &spec);
//! let base = simulate_inference(&ArchConfig::baseline_paper(), &spec);
//! assert!(inca.energy_per_image_j() < base.energy_per_image_j());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
mod comparison;
mod energy;
pub mod events;
mod gpu;
mod inference;
mod lifetime;
mod phases;
mod report;
pub mod schedule;

pub use comparison::{Comparison, ComparisonReport};
pub use energy::EnergyBreakdown;
pub use events::{conv_forward_events, ConvGeometry, FunctionalEvents};
pub use gpu::GpuModel;
pub use inference::{
    is_layer_cycles, simulate_feedforward, simulate_inference, CostModel, LayerStats, NetworkStats,
};
pub use lifetime::{training_lifetime, TrainingLifetime, IMAGENET_TRAIN_IMAGES};
pub use phases::{simulate_training, training_phases, TrainingPhases};
pub use report::{format_energy_table, format_ratio_table};
