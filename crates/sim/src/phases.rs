//! Phase-resolved training statistics: feedforward vs backpropagation vs
//! weight update (the three steps of §II-B), per dataflow.
//!
//! [`crate::simulate_training`] returns the merged totals; this module
//! exposes the per-phase decomposition used by the training ablations and
//! the endurance model.

use inca_arch::{ArchConfig, Dataflow};
use inca_units::{Energy, Time};
use inca_workloads::ModelSpec;
use serde::{Deserialize, Serialize};

use crate::inference::{simulate_feedforward, CostModel};
use crate::{EnergyBreakdown, Phase};

/// One training step broken into its three phases.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingPhases {
    /// The dataflow simulated.
    pub dataflow: Dataflow,
    /// Batch size covered.
    pub batch: usize,
    /// Energy of the feedforward pass (per batch).
    pub feedforward: EnergyBreakdown,
    /// Energy of the backpropagation pass.
    pub backward: EnergyBreakdown,
    /// Energy of the weight-update pass.
    pub weight_update: EnergyBreakdown,
    /// Latency of each phase, same order.
    pub latency_s: [Time; 3],
}

impl TrainingPhases {
    /// Total energy across phases.
    #[must_use]
    pub fn total_energy_j(&self) -> Energy {
        self.feedforward.total_j() + self.backward.total_j() + self.weight_update.total_j()
    }

    /// Energy of one named phase.
    #[must_use]
    pub fn energy(&self, phase: Phase) -> &EnergyBreakdown {
        match phase {
            Phase::Feedforward => &self.feedforward,
            Phase::Backward => &self.backward,
            Phase::WeightUpdate => &self.weight_update,
        }
    }

    /// The share of total energy spent in each phase
    /// `(feedforward, backward, update)`.
    #[must_use]
    pub fn phase_shares(&self) -> [f64; 3] {
        let t = self.total_energy_j();
        if t == Energy::ZERO {
            return [0.0; 3];
        }
        [self.feedforward.total_j() / t, self.backward.total_j() / t, self.weight_update.total_j() / t]
    }
}

/// Simulates one training step with per-phase resolution.
///
/// The phase models mirror [`crate::simulate_training`]:
///
/// * **WS** — each phase is one unpipelined convolution pass per image;
///   backward adds the activation store/refetch DRAM traffic, update adds
///   the error/gradient/weight RRAM programming.
/// * **IS** — feedforward is batch-parallel inference; backward doubles
///   the weight traffic (transposed fetches) and overwrites activations;
///   update is ≈ half a pass plus the weight write-back.
#[must_use]
pub fn training_phases(config: &ArchConfig, spec: &ModelSpec) -> TrainingPhases {
    match config.dataflow {
        Dataflow::WeightStationary => ws_phases(config, spec),
        Dataflow::InputStationary => is_phases(config, spec),
    }
}

fn ws_phases(config: &ArchConfig, spec: &ModelSpec) -> TrainingPhases {
    let cost = CostModel { ws_weight_stream_per_batch: 2.0, ..CostModel::default() };
    let fwd = simulate_feedforward(config, spec, &cost);
    let batch = config.batch_size as f64;
    let bits = f64::from(config.data_bits);
    let write_j = config.device.write_energy_j();

    let per_image_cycles: u64 =
        spec.weighted_layers().map(|l| crate::inference::ws_layer_cycles(l, config)).sum();
    let pass_latency = Time::from_seconds(
        (per_image_cycles * config.batch_size as u64) as f64 * config.array_read_latency_s(),
    );

    let mut feedforward = fwd.energy;
    feedforward.static_j = crate::inference::leakage_energy_j(config, &cost, pass_latency);

    // Backward: one transposed-weight pass + activation store/refetch.
    let mut backward = fwd.energy;
    backward.static_j = feedforward.static_j;
    let act_bytes = spec.activation_input_elems() as f64 * bits / 8.0;
    backward.dram_j += 4.0 * act_bytes * batch * 8.0 * inca_circuit::constants::HBM2_ENERGY_PER_BIT;
    backward.array_j += Energy::from_joules(spec.activation_input_elems() as f64 * bits * batch * write_j);

    // Update: gradient pass + weight (and transposed-weight) rewrite.
    let mut weight_update = fwd.energy;
    weight_update.static_j = feedforward.static_j;
    let weight_cells = spec.param_count() as f64 * bits * 2.0;
    weight_update.array_j += Energy::from_joules(weight_cells * write_j);

    TrainingPhases {
        dataflow: Dataflow::WeightStationary,
        batch: config.batch_size,
        feedforward,
        backward,
        weight_update,
        latency_s: [pass_latency, pass_latency, pass_latency],
    }
}

fn is_phases(config: &ArchConfig, spec: &ModelSpec) -> TrainingPhases {
    let cost = CostModel::default();
    let fwd = simulate_feedforward(config, spec, &cost);
    let bits = f64::from(config.data_bits);
    let batch = config.batch_size as f64;
    let write_j = config.device.write_energy_j();

    let fwd_cycles: u64 = fwd.per_layer.iter().map(|l| l.cycles).sum();
    let cycle_s = config.array_read_latency_s() + config.array_write_latency_s();
    let fwd_latency = Time::from_seconds(fwd_cycles as f64 * cycle_s);

    let feedforward = fwd.energy;

    let mut backward = fwd.energy;
    backward.buffer_j *= 2.0;
    backward.dram_j *= 2.0;
    backward.array_j += Energy::from_joules(spec.activation_input_elems() as f64 * bits * batch * write_j);

    let mut weight_update = fwd.energy.scaled(0.5);
    let w_bytes = spec.param_count() as f64 * bits / 8.0;
    weight_update.dram_j += w_bytes * 8.0 * inca_circuit::constants::HBM2_ENERGY_PER_BIT;
    weight_update.buffer_j += w_bytes / 32.0 * inca_circuit::constants::SRAM_WRITE_ENERGY_PER_BEAT;
    weight_update.static_j = crate::inference::leakage_energy_j(config, &cost, fwd_latency * 0.5);

    TrainingPhases {
        dataflow: Dataflow::InputStationary,
        batch: config.batch_size,
        feedforward,
        backward,
        weight_update,
        latency_s: [fwd_latency, fwd_latency, fwd_latency * 0.5],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inca_workloads::Model;

    #[test]
    fn phases_sum_close_to_merged_training() {
        let spec = Model::ResNet18.spec();
        for cfg in [ArchConfig::inca_paper(), ArchConfig::baseline_paper()] {
            let phases = training_phases(&cfg, &spec);
            let merged = crate::simulate_training(&cfg, &spec);
            let rel = (phases.total_energy_j() - merged.energy.total_j()).abs() / merged.energy.total_j();
            assert!(
                rel < 0.25,
                "{:?}: phases {} vs merged {}",
                cfg.dataflow,
                phases.total_energy_j(),
                merged.energy.total_j()
            );
            let total_latency: Time = phases.latency_s.iter().sum();
            let lat_rel = (total_latency - merged.latency_s).abs() / merged.latency_s;
            assert!(lat_rel < 0.25, "{:?}: latency {} vs {}", cfg.dataflow, total_latency, merged.latency_s);
        }
    }

    #[test]
    fn shares_sum_to_one() {
        let spec = Model::Vgg16.spec();
        let p = training_phases(&ArchConfig::inca_paper(), &spec);
        let shares = p.phase_shares();
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(shares.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn ws_backward_carries_extra_dram() {
        let spec = Model::Vgg16.spec();
        let p = training_phases(&ArchConfig::baseline_paper(), &spec);
        assert!(p.backward.dram_j > p.feedforward.dram_j);
    }

    #[test]
    fn is_update_is_cheapest_phase() {
        let spec = Model::Vgg16.spec();
        let p = training_phases(&ArchConfig::inca_paper(), &spec);
        assert!(p.weight_update.total_j() < p.feedforward.total_j());
        assert!(p.weight_update.total_j() < p.backward.total_j());
    }

    #[test]
    fn energy_accessor_matches_fields() {
        let spec = Model::ResNet18.spec();
        let p = training_phases(&ArchConfig::inca_paper(), &spec);
        assert_eq!(p.energy(Phase::Feedforward), &p.feedforward);
        assert_eq!(p.energy(Phase::Backward), &p.backward);
        assert_eq!(p.energy(Phase::WeightUpdate), &p.weight_update);
    }
}
