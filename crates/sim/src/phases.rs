//! One training step (§II-B): feedforward, backpropagation and weight
//! update, per dataflow.
//!
//! [`training_phases`] is the model; [`simulate_training`] is its sum,
//! used by Figs 11b/14b/15.

use inca_arch::{ArchConfig, Dataflow};
use inca_units::{Energy, Time};
use inca_workloads::ModelSpec;
use serde::{Deserialize, Serialize};

use crate::inference::{leakage_energy_j, simulate_feedforward, CostModel};
use crate::{EnergyBreakdown, LayerStats, NetworkStats};

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
    pub(crate) fn total_energy_j(&self) -> Energy {
        self.feedforward.total_j() + self.backward.total_j() + self.weight_update.total_j()
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
/// **WS baseline (PipeLayer-style):**
/// * three convolution passes per image (feedforward, transposed-weight
///   error convolution, input×error gradient convolution),
/// * no batch pipelining — "the WS baseline needs repeated operations for
///   each image in the same batch" (§V-B2),
/// * intermediate activations/errors of every layer spill to DRAM (the
///   inference pipeline that avoided storing them is unavailable),
/// * transposed weights and gradients occupy and rewrite extra RRAM
///   (Limitation 2) — real programming pulses, and the update phase ends
///   with the row-parallel weight rewrite.
///
/// **INCA:**
/// * feedforward as inference (batch-parallel),
/// * backward reuses the activations already resident in the arrays;
///   transposed weights are *fetched again* from the buffer (doubling the
///   weight traffic — §V-B1: "the training process may double the accesses
///   in INCA"), and computed errors overwrite the activations in place,
/// * the weight-update convolution reads the resident inputs with the
///   errors supplied as kernels (≈ half a feedforward's cycles, since
///   gradients are produced at kernel granularity), then writes the
///   updated weights back through buffer/DRAM.
///
/// Every phase's static energy is chip leakage over that phase's latency.
#[must_use]
pub fn training_phases(config: &ArchConfig, spec: &ModelSpec) -> TrainingPhases {
    simulate_phases(config, spec).0
}

/// Simulates one training step (feedforward + backpropagation + weight
/// update) over one batch: the sum of [`training_phases`]' energies and
/// latencies, with the feedforward's per-layer statistics.
#[must_use]
pub fn simulate_training(config: &ArchConfig, spec: &ModelSpec) -> NetworkStats {
    let (phases, per_layer) = simulate_phases(config, spec);
    NetworkStats {
        dataflow: phases.dataflow,
        batch: phases.batch,
        per_layer,
        energy: phases.feedforward + phases.backward + phases.weight_update,
        latency_s: phases.latency_s.iter().sum(),
    }
}

/// The three phases and the feedforward's per-layer statistics.
fn simulate_phases(config: &ArchConfig, spec: &ModelSpec) -> (TrainingPhases, Vec<LayerStats>) {
    let (per_layer, mut energy, latency_s) = match config.dataflow {
        Dataflow::WeightStationary => ws_phases(config, spec),
        Dataflow::InputStationary => is_phases(config, spec),
    };
    // Both dataflows leak at the default density.
    for (e, &t) in energy.iter_mut().zip(&latency_s) {
        e.static_j = leakage_energy_j(config, &CostModel::default(), t);
    }
    let [feedforward, backward, weight_update] = energy;
    let phases = TrainingPhases {
        dataflow: config.dataflow,
        batch: config.batch_size,
        feedforward,
        backward,
        weight_update,
        latency_s,
    };
    (phases, per_layer)
}

/// Per-layer feedforward stats, then each phase's dynamic energy and
/// latency.
type PhaseModel = (Vec<LayerStats>, [EnergyBreakdown; 3], [Time; 3]);

fn ws_phases(config: &ArchConfig, spec: &ModelSpec) -> PhaseModel {
    let _span = inca_telemetry::span("sim.training.ws");
    // Weights (and their transposed copies) are rewritten every batch, so
    // the weight traffic streams from DRAM.
    let cost = CostModel { ws_weight_stream_per_batch: 2.0, ..CostModel::default() };
    let fwd = simulate_feedforward(config, spec, &cost);
    let batch = config.batch_size as f64;
    let bits = f64::from(config.data_bits);
    let write_j = config.device.write_energy_j();

    // Each phase is one unpipelined convolution pass per image (WS layer
    // cycles are per image).
    let per_image_cycles: u64 = fwd.per_layer.iter().map(|l| l.cycles).sum();
    let pass_latency = Time::from_seconds(
        (per_image_cycles * config.batch_size as u64) as f64 * config.array_read_latency_s(),
    );

    // Backward: one transposed-weight pass; every layer's activations are
    // stored after the feedforward and re-fetched, errors likewise
    // (4 × activation bytes per image), and errors are written beside the
    // weights.
    let mut backward = fwd.energy;
    let act_bytes = spec.activation_input_elems() as f64 * bits / 8.0;
    backward.dram_j += 4.0 * act_bytes * batch * 8.0 * inca_circuit::constants::HBM2_ENERGY_PER_BIT;
    backward.array_j += Energy::from_joules(spec.activation_input_elems() as f64 * bits * batch * write_j);

    // Update: gradient pass, then the weight + transposed-weight rewrite at
    // batch end; programming is row-parallel, one write pulse per array
    // row set.
    let mut weight_update = fwd.energy;
    let weight_cells = spec.param_count() as f64 * bits * 2.0;
    weight_update.array_j += Energy::from_joules(weight_cells * write_j);
    let rewrite = Time::from_seconds(
        weight_cells / (config.subarray as f64) * config.device.write_pulse_s
            / config.units_per_chip() as f64,
    );

    (
        fwd.per_layer,
        [fwd.energy, backward, weight_update],
        [pass_latency, pass_latency, pass_latency + rewrite],
    )
}

fn is_phases(config: &ArchConfig, spec: &ModelSpec) -> PhaseModel {
    let _span = inca_telemetry::span("sim.training.is");
    let fwd = simulate_feedforward(config, spec, &CostModel::default());
    let bits = f64::from(config.data_bits);
    let batch = config.batch_size as f64;
    let write_j = config.device.write_energy_j();

    // Backward and feedforward take the same batch-parallel cycles, each
    // a read and a write.
    let fwd_cycles: u64 = fwd.per_layer.iter().map(|l| l.cycles).sum();
    let cycle_s = config.array_read_latency_s() + config.array_write_latency_s();
    let fwd_latency = Time::from_seconds(fwd_cycles as f64 * cycle_s);

    // Backward: transposed-weight fetches double the buffer and DRAM
    // weight traffic; errors overwrite the resident activations.
    let mut backward = fwd.energy;
    backward.buffer_j *= 2.0;
    backward.dram_j *= 2.0;
    backward.array_j += Energy::from_joules(spec.activation_input_elems() as f64 * bits * batch * write_j);

    // Update: half a feedforward of reads plus the weight write-back.
    let mut weight_update = fwd.energy.scaled(0.5);
    let w_bytes = spec.param_count() as f64 * bits / 8.0;
    weight_update.dram_j += w_bytes * 8.0 * inca_circuit::constants::HBM2_ENERGY_PER_BIT;
    weight_update.buffer_j += w_bytes / 32.0 * inca_circuit::constants::SRAM_WRITE_ENERGY_PER_BEAT;

    (fwd.per_layer, [fwd.energy, backward, weight_update], [fwd_latency, fwd_latency, fwd_latency * 0.5])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate_inference;
    use inca_workloads::Model;

    #[test]
    fn each_phase_leaks_over_its_own_latency() {
        for model in Model::paper_suite() {
            let spec = model.spec();
            for cfg in [ArchConfig::inca_paper(), ArchConfig::baseline_paper()] {
                let p = training_phases(&cfg, &spec);
                for (e, &t) in [p.feedforward, p.backward, p.weight_update].iter().zip(&p.latency_s) {
                    let leak = leakage_energy_j(&cfg, &CostModel::default(), t);
                    assert_eq!(e.static_j, leak, "{model} {:?}", cfg.dataflow);
                }
            }
            // The IS feedforward is inference, bar the leakage.
            let inca = ArchConfig::inca_paper();
            let feedforward = training_phases(&inca, &spec).feedforward;
            let inference = simulate_inference(&inca, &spec).energy;
            assert_eq!(EnergyBreakdown { static_j: inference.static_j, ..feedforward }, inference, "{model}");
        }
    }

    #[test]
    fn ws_update_carries_the_weight_rewrite() {
        let p = training_phases(&ArchConfig::baseline_paper(), &Model::Vgg16.spec());
        assert_eq!(p.latency_s[0], p.latency_s[1]);
        assert!(p.latency_s[2] > p.latency_s[0]);
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
    fn training_costs_more_than_inference() {
        let spec = Model::ResNet18.spec();
        for cfg in [ArchConfig::inca_paper(), ArchConfig::baseline_paper()] {
            let inf = simulate_inference(&cfg, &spec);
            let tr = simulate_training(&cfg, &spec);
            assert!(tr.energy.total_j() > inf.energy.total_j(), "{:?}", cfg.dataflow);
            assert!(tr.latency_s > inf.latency_s, "{:?}", cfg.dataflow);
        }
    }

    #[test]
    fn training_ratio_exceeds_inference_ratio() {
        // Fig 11/14: INCA's advantage grows in training (batch parallelism).
        let spec = Model::Vgg16.spec();
        let inca_cfg = ArchConfig::inca_paper();
        let base_cfg = ArchConfig::baseline_paper();
        let inf_ratio = simulate_inference(&base_cfg, &spec).energy.total_j()
            / simulate_inference(&inca_cfg, &spec).energy.total_j();
        let tr_ratio = simulate_training(&base_cfg, &spec).energy.total_j()
            / simulate_training(&inca_cfg, &spec).energy.total_j();
        assert!(tr_ratio > inf_ratio, "training {tr_ratio} vs inference {inf_ratio}");
    }

    #[test]
    fn training_speedup_exceeds_inference_speedup() {
        let spec = Model::Vgg16.spec();
        let inca_cfg = ArchConfig::inca_paper();
        let base_cfg = ArchConfig::baseline_paper();
        let inf =
            simulate_inference(&base_cfg, &spec).latency_s / simulate_inference(&inca_cfg, &spec).latency_s;
        let tr =
            simulate_training(&base_cfg, &spec).latency_s / simulate_training(&inca_cfg, &spec).latency_s;
        assert!(tr > inf, "training speedup {tr} vs inference {inf}");
    }

    #[test]
    fn inca_training_wins_on_every_model() {
        for model in Model::paper_suite() {
            let spec = model.spec();
            let base = simulate_training(&ArchConfig::baseline_paper(), &spec);
            let inca = simulate_training(&ArchConfig::inca_paper(), &spec);
            assert!(inca.energy.total_j() < base.energy.total_j(), "{model} energy");
            assert!(inca.latency_s < base.latency_s, "{model} latency");
        }
    }
}
