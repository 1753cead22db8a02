use inca_arch::{mapping, ArchConfig, Dataflow};
use inca_telemetry::Event;
use inca_units::{Area, Energy, PowerDensity, Time};
use inca_workloads::{LayerSpec, ModelSpec};
use serde::{Deserialize, Serialize};

use crate::EnergyBreakdown;

/// Per-layer simulation result. Energies are **per batch**; `cycles` are
/// the array cycles the layer occupies (per image for WS, per batch for
/// IS — IS cycles cover all stacked planes at once).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LayerStats {
    /// Index into the model's weighted-layer sequence.
    pub layer_index: usize,
    /// Energy breakdown for the whole batch.
    pub energy: EnergyBreakdown,
    /// Array cycles (see type-level docs for the per-image/per-batch
    /// convention).
    pub cycles: u64,
    /// Buffer port beats for the whole batch.
    pub buffer_beats: u64,
    /// DRAM bytes moved for the whole batch.
    pub dram_bytes: u64,
}

/// Whole-network simulation result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkStats {
    /// The simulated dataflow.
    pub dataflow: Dataflow,
    /// Batch size the energies cover.
    pub batch: usize,
    /// Per weighted layer statistics (feedforward).
    pub per_layer: Vec<LayerStats>,
    /// Total energy for the batch.
    pub energy: EnergyBreakdown,
    /// Total latency for the batch.
    pub latency_s: Time,
}

impl NetworkStats {
    /// Energy per image.
    #[must_use]
    pub fn energy_per_image_j(&self) -> Energy {
        self.energy.total_j() / self.batch as f64
    }
}

/// Calibration constants of the analytical cost model.
///
/// Everything the paper publishes (Table II) is consumed directly from
/// [`ArchConfig`]; the constants here are the NeuroSim-internal values the
/// paper does not publish, chosen to land the component shares in the
/// ranges its figures show. They are deliberately architecture-agnostic —
/// both dataflows are priced with the same constants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Effective duty factor applied to cell read events. The raw Table II
    /// cell (1.03 µW for a full 10 ns pulse) would make array energy
    /// dominate both architectures equally and mask every dataflow effect;
    /// NeuroSim-style accounting treats array reads as a few percent of the
    /// total (see Fig 6/13b pies, where the array segment is invisible).
    pub cell_read_duty: f64,
    /// Energy of one digital post-processing operation (shift-add, adder
    /// stage).
    pub digital_op_j: Energy,
    /// Fraction of a batch for which WS weights must be (re)streamed from
    /// DRAM. Zero for pure inference with resident weights.
    pub ws_weight_stream_per_batch: f64,
    /// Chip leakage power density (NeuroSim 22 nm class). Static energy =
    /// density × chip area × runtime.
    pub leakage_w_per_mm2: PowerDensity,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            cell_read_duty: 1e-4,
            digital_op_j: Energy::from_joules(5e-15),
            ws_weight_stream_per_batch: 0.0,
            leakage_w_per_mm2: PowerDensity::from_w_per_mm2(0.002),
        }
    }
}

/// Static (leakage) energy of a chip over `latency_s`.
pub(crate) fn leakage_energy_j(config: &ArchConfig, cost: &CostModel, latency_s: Time) -> Energy {
    let area = Area::from_mm2(inca_arch::AreaModel::new().breakdown(config).total_mm2());
    cost.leakage_w_per_mm2 * area * latency_s
}

/// Simulates one feedforward pass (= inference) of `spec` on the
/// architecture described by `config`.
#[must_use]
pub fn simulate_inference(config: &ArchConfig, spec: &ModelSpec) -> NetworkStats {
    simulate_feedforward(config, spec, &CostModel::default())
}

/// Feedforward simulation with an explicit cost model (used by the
/// training simulator and ablations).
#[must_use]
pub fn simulate_feedforward(config: &ArchConfig, spec: &ModelSpec, cost: &CostModel) -> NetworkStats {
    match config.dataflow {
        Dataflow::WeightStationary => simulate_ws(config, spec, cost),
        Dataflow::InputStationary => simulate_is(config, spec, cost),
    }
}

// ---------------------------------------------------------------------------
// Weight-stationary (baseline) model
// ---------------------------------------------------------------------------

/// Per-image array cycles of one WS layer: one window per `data_bits`
/// input-bit cycles; all output columns in parallel.
#[must_use]
pub(crate) fn ws_layer_cycles(layer: &LayerSpec, config: &ArchConfig) -> u64 {
    let windows = if layer.is_linear() { 1 } else { (layer.oh * layer.ow) as u64 };
    windows * u64::from(config.data_bits)
}

fn simulate_ws(config: &ArchConfig, spec: &ModelSpec, cost: &CostModel) -> NetworkStats {
    let _span = inca_telemetry::span("sim.inference.ws");
    let batch = config.batch_size as u64;
    let bits = u64::from(config.data_bits);
    let engine = mapping::WsMapping::new(config);
    let buf_cap = config.buffer.capacity_bytes() as f64;

    let mut per_layer = Vec::new();
    let mut total = EnergyBreakdown::zero();
    let mut cycles_per_image = Vec::new();

    for (idx, layer) in spec.weighted_layers().enumerate() {
        // Mapping every weighted layer is a constructor invariant of
        // `WsMapping` (the paper suite is mapped in full at config time);
        // a failure here is a programming error, not a runtime condition.
        let m = engine.map_layer(layer).expect("weighted layer maps"); // lint: allow(panic-path)
        let windows = if layer.is_linear() { 1 } else { (layer.oh * layer.ow) as u64 };
        let fan_in = layer.fan_in();
        let out_elems = layer.output_elems();
        let macs = layer.macs();
        let splits = fan_in.div_ceil(config.subarray as u64);

        // --- memory traffic (Eq 5 / Eq 6, spilling to DRAM) --------------
        let fetch_beats = windows * config.bus.transfers(fan_in, config.data_bits.into()) * batch;
        let save_beats = windows * config.bus.transfers(layer.cout as u64, config.data_bits.into()) * batch;
        let in_bytes = layer.input_elems() as f64 * bits as f64 / 8.0;
        let out_bytes = out_elems as f64 * bits as f64 / 8.0;
        // Fraction of accesses that miss the 64 KB buffer and go to DRAM:
        // the window working set is re-fetched per output position, so a
        // layer whose activation exceeds the buffer thrashes.
        let spill_in = (1.0 - buf_cap / in_bytes).clamp(0.0, 1.0);
        let spill_out = (1.0 - buf_cap / out_bytes).clamp(0.0, 1.0);
        let fetch_bytes = fetch_beats as f64 * f64::from(config.bus.width_bits()) / 8.0;
        let save_bytes = save_beats as f64 * f64::from(config.bus.width_bits()) / 8.0;
        let dram_bytes = fetch_bytes * spill_in + save_bytes * spill_out;
        let buffer_beats =
            (fetch_beats as f64 * (1.0 - spill_in) + save_beats as f64 * (1.0 - spill_out)) as u64;

        // The memory-system events the analytical model prices; the
        // functional engines don't model buffers/DRAM, so the simulator
        // contributes these counters itself.
        inca_telemetry::record(Event::SramRead, (fetch_beats as f64 * (1.0 - spill_in)) as u64);
        inca_telemetry::record(Event::SramWrite, (save_beats as f64 * (1.0 - spill_out)) as u64);
        inca_telemetry::record(Event::DramReadByte, (fetch_bytes * spill_in) as u64);
        inca_telemetry::record(Event::DramWriteByte, (save_bytes * spill_out) as u64);

        let mut e = EnergyBreakdown::zero();
        e.dram_j = config.dram.access_energy_j(dram_bytes as u64);
        e.buffer_j = fetch_beats as f64 * (1.0 - spill_in) * config.buffer.read_energy_j(32)
            + save_beats as f64 * (1.0 - spill_out) * config.buffer.write_energy_j(32);

        // --- analog compute ----------------------------------------------
        // Every MAC touches one cell per (input bit x weight bit).
        let cell_events = macs as f64 * (bits * bits) as f64 * batch as f64;
        let idle_events =
            (m.cells_allocated - m.cells_used) as f64 * windows as f64 * bits as f64 * batch as f64;
        e.array_j = Energy::from_joules(
            cell_events * config.device.read_energy_j(0.5) * cost.cell_read_duty
                + idle_events * config.device.read_energy_j(0.0) * cost.cell_read_duty,
        );

        // The baseline ADC digitizes every column of every allocated array
        // each cycle (the ISAAC pipeline ADC runs continuously): for dense
        // layers this equals one conversion per (output, wbit, xbit, row
        // split); for depthwise layers with one channel per array it is the
        // utilization-collapse penalty of §V-B4.
        let conversions = windows * bits * m.units * config.subarray as u64 * batch;
        let useful = out_elems * bits * bits * splits * batch;
        e.adc_j = conversions.max(useful) as f64 * config.adc.energy_per_conversion_j();

        // All rows of every allocated array are driven each cycle.
        let drives = windows * bits * m.units * config.subarray as u64 * batch;
        e.dac_j = drives as f64 * config.dac.energy_per_conversion_j();

        // Shift-accumulate per (output, wbit, xbit) + adder-tree merges.
        let digital_ops = out_elems * bits * bits * batch + out_elems * splits * batch;
        e.digital_j = digital_ops as f64 * cost.digital_op_j;
        // H-tree unicast of every window fetch to its destination tile.
        if let Ok(htree) = inca_circuit::HTree::new(config.tiles.max(1), 7.0) {
            e.digital_j += windows as f64 * batch as f64 * htree.unicast_energy_j(fan_in * bits);
        }

        // Optional weight (re)streaming from DRAM (training).
        if cost.ws_weight_stream_per_batch > 0.0 {
            let w_bytes = layer.param_count() as f64 * bits as f64 / 8.0;
            e.dram_j += w_bytes
                * cost.ws_weight_stream_per_batch
                * 8.0
                * inca_circuit::constants::HBM2_ENERGY_PER_BIT;
        }

        total += e;
        cycles_per_image.push(ws_layer_cycles(layer, config));
        per_layer.push(LayerStats {
            layer_index: idx,
            energy: e,
            cycles: ws_layer_cycles(layer, config),
            buffer_beats,
            dram_bytes: dram_bytes as u64,
        });
    }

    // Pipelined batch latency (ISAAC): the batch streams through the layer
    // pipeline — total = fill time (sum of stages) + drain at the slowest
    // stage per additional image.
    let sum: u64 = cycles_per_image.iter().sum();
    let max = cycles_per_image.iter().copied().max().unwrap_or(0);
    let cycles_batch = sum + (batch - 1) * max;
    let latency_s = Time::from_seconds(cycles_batch as f64 * config.array_read_latency_s());
    total.static_j = leakage_energy_j(config, cost, latency_s);

    NetworkStats {
        dataflow: Dataflow::WeightStationary,
        batch: batch as usize,
        per_layer,
        energy: total,
        latency_s,
    }
}

// ---------------------------------------------------------------------------
// Input-stationary (INCA) model
// ---------------------------------------------------------------------------

/// Per-batch array cycles of one IS layer (§IV-C mapping):
///
/// * dense conv — window positions per spatial tile × output channels ×
///   weight bits (channels are produced sequentially; partitions and the
///   batch run in parallel),
/// * depthwise — channels are independent partitions, so `N_eff = 1`,
/// * pointwise/FC — the folded accumulation dimension packs
///   `subarray²/Cin` positions per stack.
#[must_use]
pub fn is_layer_cycles(layer: &LayerSpec, config: &ArchConfig) -> u64 {
    let bits = u64::from(config.data_bits);
    let side = config.subarray as u64;
    if layer.is_linear() {
        return layer.cout as u64 * bits;
    }
    if layer.is_pointwise() {
        let positions_per_stack = (side * side / (layer.cin as u64).max(1)).max(1);
        let positions = (layer.oh * layer.ow) as u64;
        return positions.min(positions_per_stack) * layer.cout as u64 * bits;
    }
    let tiles = (layer.h as u64).div_ceil(side) * (layer.w as u64).div_ceil(side);
    let windows_per_tile = ((layer.oh * layer.ow) as u64).div_ceil(tiles);
    let n_eff = if layer.is_depthwise() { 1 } else { layer.cout as u64 };
    windows_per_tile * n_eff * bits
}

fn simulate_is(config: &ArchConfig, spec: &ModelSpec, cost: &CostModel) -> NetworkStats {
    let _span = inca_telemetry::span("sim.inference.is");
    let batch = config.batch_size as u64;
    let bits = u64::from(config.data_bits);

    let mut per_layer = Vec::new();
    let mut total = EnergyBreakdown::zero();
    let mut cycles_total = 0u64;

    for (idx, layer) in spec.weighted_layers().enumerate() {
        let fan_in = layer.fan_in();
        let out_elems = layer.output_elems();
        let macs = layer.macs();

        let mut e = EnergyBreakdown::zero();

        // --- memory traffic ----------------------------------------------
        // Weights fetched once per output channel per batch (Eq 5 x N —
        // the Table III column), reused across every window and all planes.
        let buffer_beats = layer.cout as u64 * config.bus.transfers(fan_in, config.data_bits.into());
        e.buffer_j = buffer_beats as f64 * config.buffer.read_energy_j(32);
        // Weights streamed from DRAM once per batch (they exceed on-chip
        // buffer capacity for every evaluated model).
        let dram_bytes = layer.param_count() * bits / 8;
        e.dram_j = config.dram.access_energy_j(dram_bytes);
        // IS moves only weights: buffer fetches + one DRAM stream per batch.
        inca_telemetry::record(Event::SramRead, buffer_beats);
        inca_telemetry::record(Event::DramReadByte, dram_bytes);

        // --- array events --------------------------------------------------
        // Reads: identical arithmetic to WS — every MAC touches one cell
        // per (wbit, xbit), on every plane.
        let cell_events = macs as f64 * (bits * bits) as f64 * batch as f64;
        e.array_j = Energy::from_joules(cell_events * config.device.read_energy_j(0.5) * cost.cell_read_duty);
        // Writes: the layer's inputs are programmed into the stacks (real
        // programming pulses — not derated).
        let cells_written = layer.input_elems() * bits * batch;
        e.array_j += Energy::from_joules(cells_written as f64 * config.device.write_energy_j());

        // --- conversion ----------------------------------------------------
        // Channel partitions contributing to one output are summed in
        // analog across the `subarrays_per_adc` arrays that share an ADC
        // (Table II: 16), so a dense conv output needs
        // `ceil(Cin / 16)` conversions per (wbit, xbit) per plane;
        // depthwise outputs need one; pointwise/FC stacks fold the
        // channel dimension onto the plane first.
        let per_adc = config.subarrays_per_adc as u64;
        let contrib = if layer.is_depthwise() {
            1
        } else if layer.is_pointwise() || layer.is_linear() {
            layer.fan_in().div_ceil((config.subarray * config.subarray) as u64).div_ceil(per_adc)
        } else {
            (layer.cin as u64).div_ceil(per_adc)
        };
        let conversions = out_elems * bits * bits * batch * contrib;
        e.adc_j = conversions as f64 * config.adc.energy_per_conversion_j();

        // Kernel drives are shared by all planes through the pillars — the
        // batch amortizes the DAC energy (§IV-B).
        let drives = macs * bits * bits;
        e.dac_j = drives as f64 * config.dac.energy_per_conversion_j();

        // Shift-accumulate + the input-channel adder tree (digitized
        // channel partials are merged digitally, §IV-C).
        let channel_adds = if layer.is_depthwise() { 0 } else { out_elems * layer.cin as u64 };
        let digital_ops = out_elems * bits * bits * batch + channel_adds * batch;
        e.digital_j = digital_ops as f64 * cost.digital_op_j;
        // H-tree broadcast of each kernel fetch to the partition stacks
        // (counted with the digital movement; one broadcast per weight
        // channel per batch).
        if let Ok(htree) = inca_circuit::HTree::new(config.tiles.max(1), 7.0) {
            let kernel_bits = fan_in * bits;
            e.digital_j += layer.cout as f64 * htree.broadcast_energy_j(kernel_bits);
        }

        let cycles = is_layer_cycles(layer, config);
        cycles_total += cycles;
        total += e;
        per_layer.push(LayerStats { layer_index: idx, energy: e, cycles, buffer_beats, dram_bytes });
    }

    // Per-cycle time from the event-level read/write pipeline (§V-B2):
    // writes are partly hidden under reads, but the write latency still
    // bounds the steady-state rate.
    let pipe = inca_xbar::PipelineConfig {
        t_read_s: config.array_read_latency_s(),
        t_write_s: config.array_write_latency_s(),
        write_ports: 1,
        queue_depth: 4,
    };
    let cycle_s = inca_xbar::simulate_pipeline(&pipe, 4096).per_result_s;
    let latency_s = Time::from_seconds(cycles_total as f64 * cycle_s);
    total.static_j = leakage_energy_j(config, cost, latency_s);

    NetworkStats {
        dataflow: Dataflow::InputStationary,
        batch: batch as usize,
        per_layer,
        energy: total,
        latency_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inca_workloads::Model;

    #[test]
    fn inca_beats_baseline_energy_on_all_models() {
        for model in Model::paper_suite() {
            let spec = model.spec();
            let inca = simulate_inference(&ArchConfig::inca_paper(), &spec);
            let base = simulate_inference(&ArchConfig::baseline_paper(), &spec);
            assert!(
                inca.energy_per_image_j() < base.energy_per_image_j(),
                "{model}: inca {} vs base {}",
                inca.energy_per_image_j(),
                base.energy_per_image_j()
            );
        }
    }

    #[test]
    fn inca_beats_baseline_latency_at_batch_64() {
        for model in Model::paper_suite() {
            let spec = model.spec();
            let inca = simulate_inference(&ArchConfig::inca_paper(), &spec);
            let base = simulate_inference(&ArchConfig::baseline_paper(), &spec);
            assert!(
                inca.latency_s < base.latency_s,
                "{model}: inca {} vs base {}",
                inca.latency_s,
                base.latency_s
            );
        }
    }

    #[test]
    fn light_models_gain_more_than_heavy() {
        let ratio = |m: Model| {
            let spec = m.spec();
            let inca = simulate_inference(&ArchConfig::inca_paper(), &spec);
            let base = simulate_inference(&ArchConfig::baseline_paper(), &spec);
            base.energy_per_image_j() / inca.energy_per_image_j()
        };
        let heavy = ratio(Model::Vgg16);
        let light = ratio(Model::MobileNetV2);
        assert!(light > heavy, "light {light} should exceed heavy {heavy}");
    }

    #[test]
    fn per_layer_energies_sum_to_total_dynamic() {
        // Static (leakage) energy is a network-level term; the per-layer
        // entries account for all dynamic energy.
        let spec = Model::ResNet18.spec();
        for cfg in [ArchConfig::inca_paper(), ArchConfig::baseline_paper()] {
            let stats = simulate_inference(&cfg, &spec);
            let sum: Energy = stats.per_layer.iter().map(|l| l.energy.total_j()).sum();
            let dynamic = stats.energy.total_j() - stats.energy.static_j;
            assert!((sum - dynamic).abs() / sum < 1e-9);
            assert!(stats.energy.static_j > Energy::ZERO);
        }
    }

    #[test]
    fn ws_cycles_independent_of_channels() {
        let spec = Model::Vgg16.spec();
        let cfg = ArchConfig::baseline_paper();
        let l2 = spec.weighted_layers().nth(1).unwrap(); // 64 -> 64 at 224
        assert_eq!(ws_layer_cycles(l2, &cfg), (224 * 224 * 8) as u64);
    }

    #[test]
    fn is_depthwise_cycles_channel_free() {
        let spec = Model::MobileNetV2.spec();
        let cfg = ArchConfig::inca_paper();
        let dw = spec.weighted_layers().find(|l| l.is_depthwise()).unwrap();
        let dense_equivalent = is_layer_cycles(dw, &cfg);
        // Depthwise cycles don't scale with channel count.
        assert!(dense_equivalent < 16 * 16 * 8 * 2, "cycles {dense_equivalent}");
    }
}
