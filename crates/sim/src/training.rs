use inca_arch::{ArchConfig, Dataflow};
use inca_units::{Energy, Time};
use inca_workloads::ModelSpec;

use crate::inference::{simulate_feedforward, CostModel};
use crate::NetworkStats;

/// Simulates one training step (feedforward + backpropagation + weight
/// update) over one batch.
///
/// **WS baseline (PipeLayer-style):**
/// * three convolution passes per image (feedforward, transposed-weight
///   error convolution, input×error gradient convolution),
/// * no batch pipelining — "the WS baseline needs repeated operations for
///   each image in the same batch" (§V-B2),
/// * intermediate activations/errors of every layer spill to DRAM (the
///   inference pipeline that avoided storing them is unavailable),
/// * transposed weights and gradients occupy and rewrite extra RRAM
///   (Limitation 2) — real programming pulses.
///
/// **INCA:**
/// * feedforward as inference (batch-parallel),
/// * backward reuses the activations already resident in the arrays;
///   transposed weights are *fetched again* from the buffer (doubling the
///   weight traffic — §V-B1: "the training process may double the accesses
///   in INCA"), and computed errors overwrite the activations in place,
/// * the weight-update convolution reads the resident inputs with the
///   errors supplied as kernels (≈ half a feedforward's cycles, since
///   gradients are produced at kernel granularity).
#[must_use]
pub fn simulate_training(config: &ArchConfig, spec: &ModelSpec) -> NetworkStats {
    match config.dataflow {
        Dataflow::WeightStationary => training_ws(config, spec),
        Dataflow::InputStationary => training_is(config, spec),
    }
}

fn training_ws(config: &ArchConfig, spec: &ModelSpec) -> NetworkStats {
    let _span = inca_telemetry::span("sim.training.ws");
    // Weights (and their transposed copies) are rewritten every batch, so
    // the weight traffic streams from DRAM.
    let cost = CostModel { ws_weight_stream_per_batch: 2.0, ..CostModel::default() };
    let fwd = simulate_feedforward(config, spec, &cost);
    let batch = config.batch_size as f64;
    let bits = f64::from(config.data_bits);

    // Three passes of convolution work (fwd, error, gradient).
    let mut energy = fwd.energy.scaled(3.0);
    energy.static_j = Energy::ZERO; // recomputed from the training latency below

    // Extra DRAM: every layer's activations stored after fwd and re-fetched
    // during backward; errors likewise (4 x activation bytes / image).
    let act_bytes = spec.activation_input_elems() as f64 * bits / 8.0;
    energy.dram_j += 4.0 * act_bytes * batch * 8.0 * inca_circuit::constants::HBM2_ENERGY_PER_BIT;

    // Extra RRAM programming: errors and gradients written beside the
    // weights (per image), plus the weight + transposed-weight rewrite at
    // the end of the batch.
    let write_j = config.device.write_energy_j();
    let error_cells = spec.activation_input_elems() as f64 * bits * batch;
    let weight_cells = spec.param_count() as f64 * bits * 2.0;
    energy.array_j += Energy::from_joules((error_cells + weight_cells) * write_j);

    // Latency: three sequential passes per image, no batch pipelining.
    let per_image_cycles: u64 =
        spec.weighted_layers().map(|l| crate::inference::ws_layer_cycles(l, config)).sum();
    let cycles = 3 * per_image_cycles * config.batch_size as u64;
    let latency_s = Time::from_seconds(
        cycles as f64 * config.array_read_latency_s()
            // Weight rewrite at batch end: programming is row-parallel, one
            // write pulse per array row set.
            + weight_cells / (config.subarray as f64) * config.device.write_pulse_s
                / config.units_per_chip() as f64,
    );
    energy.static_j = crate::inference::leakage_energy_j(config, &cost, latency_s);

    NetworkStats {
        dataflow: Dataflow::WeightStationary,
        batch: config.batch_size,
        per_layer: fwd.per_layer,
        energy,
        latency_s,
    }
}

fn training_is(config: &ArchConfig, spec: &ModelSpec) -> NetworkStats {
    let _span = inca_telemetry::span("sim.training.is");
    let cost = CostModel::default();
    let fwd = simulate_feedforward(config, spec, &cost);
    let bits = f64::from(config.data_bits);
    let batch = config.batch_size as f64;

    // Backward: same convolution volume as forward, with transposed-weight
    // fetches doubling buffer + DRAM weight traffic; errors overwrite the
    // resident activations (extra programming pulses).
    let mut backward = fwd.energy;
    backward.buffer_j *= 2.0;
    backward.dram_j *= 2.0;
    let write_j = config.device.write_energy_j();
    backward.array_j += Energy::from_joules(spec.activation_input_elems() as f64 * bits * batch * write_j);

    // Weight update: the resident inputs convolved with the errors —
    // roughly half a forward pass of reads (gradients are produced at
    // kernel granularity), plus writing the updated weights back through
    // buffer/DRAM.
    let mut update = fwd.energy.scaled(0.5);
    let w_bytes = spec.param_count() as f64 * bits / 8.0;
    update.dram_j += w_bytes * 8.0 * inca_circuit::constants::HBM2_ENERGY_PER_BIT;
    update.buffer_j += w_bytes / 32.0 * inca_circuit::constants::SRAM_WRITE_ENERGY_PER_BEAT;

    let mut energy = fwd.energy + backward + update;
    energy.static_j = Energy::ZERO; // recomputed from the training latency below

    // Latency: fwd + bwd (same cycles) + update (half), all batch-parallel.
    let fwd_cycles: u64 = fwd.per_layer.iter().map(|l| l.cycles).sum();
    let cycles = fwd_cycles * 5 / 2;
    let cycle_s = config.array_read_latency_s() + config.array_write_latency_s();
    let latency_s = Time::from_seconds(cycles as f64 * cycle_s);
    energy.static_j = crate::inference::leakage_energy_j(config, &cost, latency_s);

    NetworkStats {
        dataflow: Dataflow::InputStationary,
        batch: config.batch_size,
        per_layer: fwd.per_layer,
        energy,
        latency_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate_inference;
    use inca_workloads::Model;

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
