use inca_arch::{mapping, ArchConfig, AreaModel, FootprintModel};
use inca_circuit::{AdcSpec, DramModel};
use inca_sim::{access, format_energy_table, format_ratio_table, simulate_inference, simulate_training};
use inca_workloads::Model;
use serde::{Deserialize, Serialize};
use serde_json::json;
use std::fmt::Write as _;

use crate::accuracy::{noise_accuracy_row, quantization_accuracy, AccuracyConfig};

/// One reproducible artifact of the paper: a table or figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)] // variants are named after the paper's artifacts
pub enum Experiment {
    Fig1b,
    Fig6,
    Fig7a,
    Fig7b,
    Table1,
    Table2,
    Table3,
    Fig11,
    Fig12,
    Fig13,
    Fig14,
    Fig15,
    Fig16,
    Table4,
    Table5,
    Table6,
    AblationArraySize,
    AblationAdcBits,
    AblationBatch,
    AblationBusWidth,
    AblationUnroll,
    Endurance,
    HwInference,
    TrainingPhases,
    AblationChipCapacity,
}

/// Options shared by all experiment runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExperimentOpts {
    /// Shrink the ML experiments (Tables I/VI) for fast runs.
    pub quick: bool,
}

impl Default for ExperimentOpts {
    fn default() -> Self {
        Self { quick: true }
    }
}

/// The output of one experiment run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// Stable identifier (e.g. `"fig11"`).
    pub id: String,
    /// The paper artifact reproduced.
    pub title: String,
    /// Human-readable table/series text.
    pub text: String,
    /// Machine-readable data.
    pub data: serde_json::Value,
}

impl Experiment {
    /// Every experiment, in paper order.
    #[must_use]
    pub fn all() -> Vec<Experiment> {
        use Experiment::*;
        vec![
            Fig1b,
            Fig6,
            Fig7a,
            Fig7b,
            Table1,
            Table2,
            Table3,
            Fig11,
            Fig12,
            Fig13,
            Fig14,
            Fig15,
            Fig16,
            Table4,
            Table5,
            Table6,
            AblationArraySize,
            AblationAdcBits,
            AblationBatch,
            AblationBusWidth,
            AblationUnroll,
            Endurance,
            HwInference,
            TrainingPhases,
            AblationChipCapacity,
        ]
    }

    /// Stable identifier used on the command line.
    #[must_use]
    pub fn id(&self) -> &'static str {
        match self {
            Experiment::Fig1b => "fig1b",
            Experiment::Fig6 => "fig6",
            Experiment::Fig7a => "fig7a",
            Experiment::Fig7b => "fig7b",
            Experiment::Table1 => "table1",
            Experiment::Table2 => "table2",
            Experiment::Table3 => "table3",
            Experiment::Fig11 => "fig11",
            Experiment::Fig12 => "fig12",
            Experiment::Fig13 => "fig13",
            Experiment::Fig14 => "fig14",
            Experiment::Fig15 => "fig15",
            Experiment::Fig16 => "fig16",
            Experiment::Table4 => "table4",
            Experiment::Table5 => "table5",
            Experiment::Table6 => "table6",
            Experiment::AblationArraySize => "ablation-array-size",
            Experiment::AblationAdcBits => "ablation-adc-bits",
            Experiment::AblationBatch => "ablation-batch",
            Experiment::AblationBusWidth => "ablation-bus-width",
            Experiment::AblationUnroll => "ablation-unroll",
            Experiment::Endurance => "endurance",
            Experiment::HwInference => "hw-inference",
            Experiment::TrainingPhases => "training-phases",
            Experiment::AblationChipCapacity => "ablation-chip-capacity",
        }
    }

    /// Looks an experiment up by its id.
    #[must_use]
    pub fn from_id(id: &str) -> Option<Experiment> {
        Experiment::all().into_iter().find(|e| e.id() == id)
    }

    /// Human-readable title.
    #[must_use]
    pub fn title(&self) -> &'static str {
        match self {
            Experiment::Fig1b => "Fig 1b: DRAM latency vs bandwidth utilization",
            Experiment::Fig6 => "Fig 6: WS energy breakdown on CIFAR-10 workloads",
            Experiment::Fig7a => "Fig 7a: memory accesses, WS vs IS",
            Experiment::Fig7b => "Fig 7b: RRAM parameters, unrolled vs direct convolution",
            Experiment::Table1 => "Table I: accuracy vs weight/activation bit depth",
            Experiment::Table2 => "Table II: architecture configuration",
            Experiment::Table3 => "Table III: buffer accesses, baseline vs INCA",
            Experiment::Fig11 => "Fig 11: energy-efficiency improvement (inference & training)",
            Experiment::Fig12 => "Fig 12: layerwise DRAM+buffer energy, VGG16",
            Experiment::Fig13 => "Fig 13: ADC energy and INCA energy breakdown",
            Experiment::Fig14 => "Fig 14: speedup (inference & training)",
            Experiment::Fig15 => "Fig 15: INCA vs GPU (training)",
            Experiment::Fig16 => "Fig 16: array utilization",
            Experiment::Table4 => "Table IV: memory footprint",
            Experiment::Table5 => "Table V: area breakdown",
            Experiment::Table6 => "Table VI: training accuracy vs noise strength",
            Experiment::AblationArraySize => "Ablation: INCA subarray size sweep",
            Experiment::AblationAdcBits => "Ablation: ADC precision sweep",
            Experiment::AblationBatch => "Ablation: batch-size sweep (3D parallelism)",
            Experiment::AblationBusWidth => "Ablation: bus-width sweep (Eq 5/6 sensitivity)",
            Experiment::AblationUnroll => "Ablation: IS with vs without unrolling",
            Experiment::Endurance => "Endurance: training lifetime under RRAM wear (§VI)",
            Experiment::HwInference => "Functional: trained CNN executed on simulated 2T1R hardware",
            Experiment::TrainingPhases => "Training phases: feedforward vs backward vs update energy",
            Experiment::AblationChipCapacity => {
                "Ablation: event-driven scheduling under bounded chip capacity"
            }
        }
    }

    /// Runs the experiment.
    #[must_use]
    pub fn run(&self, opts: &ExperimentOpts) -> ExperimentResult {
        let (text, data) = match self {
            Experiment::Fig1b => fig1b(),
            Experiment::Fig6 => fig6(),
            Experiment::Fig7a => fig7a(),
            Experiment::Fig7b => fig7b(),
            Experiment::Table1 => table1(opts),
            Experiment::Table2 => table2(),
            Experiment::Table3 => table3(),
            Experiment::Fig11 | Experiment::Fig14 => fig11_14(),
            Experiment::Fig12 => fig12(),
            Experiment::Fig13 => fig13(),
            Experiment::Fig15 => fig15(),
            Experiment::Fig16 => fig16(),
            Experiment::Table4 => table4(),
            Experiment::Table5 => table5(),
            Experiment::Table6 => table6(opts),
            Experiment::AblationArraySize => ablation_array_size(),
            Experiment::AblationAdcBits => ablation_adc_bits(),
            Experiment::AblationBatch => ablation_batch(),
            Experiment::AblationBusWidth => ablation_bus_width(),
            Experiment::AblationUnroll => ablation_unroll(),
            Experiment::Endurance => endurance(),
            Experiment::HwInference => hw_inference(opts),
            Experiment::TrainingPhases => training_phases_exp(),
            Experiment::AblationChipCapacity => ablation_chip_capacity(),
        };
        ExperimentResult { id: self.id().to_string(), title: self.title().to_string(), text, data }
    }
}

fn fig1b() -> (String, serde_json::Value) {
    let dram = DramModel::hbm2_8gb();
    let curve = dram.latency_curve(21);
    let mut text = String::from("utilization | latency (ns)\n");
    for (u, ns) in &curve {
        let _ = writeln!(text, "{u:>10.2} | {ns:>10.1}");
    }
    (text, json!({ "curve": curve, "knee": 0.8 }))
}

fn fig6() -> (String, serde_json::Value) {
    let base = ArchConfig::baseline_paper();
    let mut text = String::new();
    let mut data = serde_json::Map::new();
    for model in [Model::Vgg16Cifar, Model::ResNet18Cifar] {
        let stats = simulate_inference(&base, &model.spec());
        let _ = writeln!(text, "{}", format_energy_table(model.name(), &stats.energy));
        data.insert(model.name().to_string(), json!(stats.energy));
    }
    (text, serde_json::Value::Object(data))
}

fn fig7a() -> (String, serde_json::Value) {
    let cfg = access::AccessConfig::fig_7a();
    let mut text = String::from("model          |      WS (M) |      IS (M) | ratio\n");
    let mut rows = Vec::new();
    for model in Model::paper_suite() {
        let spec = model.spec();
        let ws = access::baseline_total(&spec, &cfg);
        let is = access::inca_total(&spec, &cfg);
        let _ = writeln!(
            text,
            "{:<14} | {:>11.3} | {:>11.3} | {:>5.2}",
            model.name(),
            ws as f64 / 1e6,
            is as f64 / 1e6,
            ws as f64 / is as f64
        );
        rows.push(json!({ "model": model.name(), "ws": ws, "is": is }));
    }
    (text, json!(rows))
}

fn fig7b() -> (String, serde_json::Value) {
    let mut text = String::from("model          | unrolled (M) | direct (M) | blow-up\n");
    let mut rows = Vec::new();
    for model in Model::paper_suite() {
        let spec = model.spec();
        let unrolled = mapping::unrolled_input_elems(&spec);
        let direct = mapping::direct_input_elems(&spec);
        let _ = writeln!(
            text,
            "{:<14} | {:>12.2} | {:>10.2} | {:>6.2}x",
            model.name(),
            unrolled as f64 / 1e6,
            direct as f64 / 1e6,
            unrolled as f64 / direct as f64
        );
        rows.push(json!({ "model": model.name(), "unrolled": unrolled, "direct": direct }));
    }
    (text, json!(rows))
}

fn table1(opts: &ExperimentOpts) -> (String, serde_json::Value) {
    let cfg = if opts.quick { AccuracyConfig::quick() } else { AccuracyConfig::paper_like() };
    let anchor = quantization_accuracy(&cfg, 8, 8);
    let mut text = String::from("sweep          | bits | accuracy % | drop vs 8/8\n");
    let mut rows = Vec::new();
    // Paper range is 4-7 bits; 2-3 bits are extra points exposing the
    // low-precision cliff on our smaller model.
    for bits in [7u8, 6, 5, 4, 3, 2] {
        let acc = quantization_accuracy(&cfg, 8, bits);
        let _ = writeln!(text, "8-bit wt, act  | {bits:>4} | {acc:>10.1} | {:>+6.1}", acc - anchor);
        rows.push(json!({ "sweep": "activation", "bits": bits, "accuracy": acc, "drop": acc - anchor }));
    }
    for bits in [7u8, 6, 5, 4, 3, 2] {
        let acc = quantization_accuracy(&cfg, bits, 8);
        let _ = writeln!(text, "8-bit act, wt  | {bits:>4} | {acc:>10.1} | {:>+6.1}", acc - anchor);
        rows.push(json!({ "sweep": "weight", "bits": bits, "accuracy": acc, "drop": acc - anchor }));
    }
    (text, json!({ "anchor": anchor, "rows": rows }))
}

fn table2() -> (String, serde_json::Value) {
    let inca = ArchConfig::inca_paper();
    let base = ArchConfig::baseline_paper();
    let text = format!(
        "INCA:     {sub}x{sub}x{planes} subarrays, macro {mac}, tile {tile}, {adc}-bit ADC, batch {batch}\n\
         Baseline: {bsub}x{bsub} arrays, macro {mac}, tile {tile}, {badc}-bit ADC\n\
         Shared:   {bits}-bit data, 1-bit cells, 64KB/256-bit buffers, 8GB HBM2, 22nm\n",
        sub = inca.subarray,
        planes = inca.stacked_planes,
        mac = inca.macro_size,
        tile = inca.tile_size,
        adc = inca.adc.bits(),
        batch = inca.batch_size,
        bsub = base.subarray,
        badc = base.adc.bits(),
        bits = inca.data_bits,
    );
    (
        text,
        json!({
            "inca": json!({ "subarray": inca.subarray, "planes": inca.stacked_planes, "adc_bits": inca.adc.bits() }),
            "baseline": json!({ "subarray": base.subarray, "adc_bits": base.adc.bits() }),
        }),
    )
}

fn table3() -> (String, serde_json::Value) {
    let cfg = access::AccessConfig::table_iii();
    let paper: [(Model, u64, u64); 6] = [
        (Model::Vgg16, 1_544_496, 460_000),
        (Model::Vgg19, 1_952_176, 625_888),
        (Model::ResNet18, 632_880, 349_024),
        (Model::ResNet50, 711_022, 508_950),
        (Model::MobileNetV2, 258_024, 66_832),
        (Model::MnasNet, 244_656, 92_333),
    ];
    let mut text = String::from("model          | baseline (ours) | paper     | INCA (ours) | paper\n");
    let mut rows = Vec::new();
    for (model, p_base, p_inca) in paper {
        let spec = model.spec();
        let ws = access::baseline_total(&spec, &cfg);
        let is = access::inca_total(&spec, &cfg);
        let _ = writeln!(text, "{:<14} | {ws:>15} | {p_base:>9} | {is:>11} | {p_inca}", model.name());
        rows.push(json!({ "model": model.name(), "baseline": ws, "inca": is, "paper_baseline": p_base, "paper_inca": p_inca }));
    }
    (text, json!(rows))
}

fn fig11_14() -> (String, serde_json::Value) {
    let c = inca_sim::Comparison::paper_default();
    let reports: Vec<_> = Model::paper_suite().iter().map(|&m| c.run(m)).collect();
    let text = format_ratio_table(&reports);
    (text, json!(reports))
}

fn fig12() -> (String, serde_json::Value) {
    let spec = Model::Vgg16.spec();
    let base = simulate_inference(&ArchConfig::baseline_paper(), &spec);
    let inca = simulate_inference(&ArchConfig::inca_paper(), &spec);
    let mut text = String::from("layer | baseline DRAM+buffer (J/batch) | INCA DRAM+buffer (J/batch)\n");
    let mut rows = Vec::new();
    for (b, i) in base.per_layer.iter().zip(&inca.per_layer) {
        let _ = writeln!(
            text,
            "{:>5} | {:>30.4e} | {:>26.4e}",
            b.layer_index,
            b.energy.memory_j(),
            i.energy.memory_j()
        );
        rows.push(
            json!({ "layer": b.layer_index, "baseline": b.energy.memory_j(), "inca": i.energy.memory_j() }),
        );
    }
    (text, json!(rows))
}

fn fig13() -> (String, serde_json::Value) {
    let spec = Model::Vgg16.spec();
    let base = simulate_inference(&ArchConfig::baseline_paper(), &spec);
    let inca = simulate_inference(&ArchConfig::inca_paper(), &spec);
    let adc_ratio = base.energy.adc_j / inca.energy.adc_j;
    let mut text = format!(
        "ADC energy: baseline {:.4e} J, INCA {:.4e} J -> {:.1}x reduction (paper: 5x)\n",
        base.energy.adc_j, inca.energy.adc_j, adc_ratio
    );
    text.push_str(&format_energy_table("INCA breakdown", &inca.energy));
    text.push('\n');
    (
        text,
        json!({ "adc_ratio": adc_ratio, "inca_breakdown": inca.energy, "baseline_breakdown": base.energy }),
    )
}

fn fig15() -> (String, serde_json::Value) {
    let c = inca_sim::Comparison::paper_default();
    let mut text = String::from("model          | energy eff vs GPU | iso-area throughput vs GPU\n");
    let mut rows = Vec::new();
    for model in Model::paper_suite() {
        let r = c.run(model);
        let _ = writeln!(
            text,
            "{:<14} | {:>17.1}x | {:>26.1}x",
            model.name(),
            r.gpu_energy_ratio,
            r.gpu_throughput_per_area_ratio
        );
        rows.push(json!({ "model": model.name(), "energy": r.gpu_energy_ratio, "throughput_per_area": r.gpu_throughput_per_area_ratio }));
    }
    (text, json!(rows))
}

fn fig16() -> (String, serde_json::Value) {
    let inca_cfg = ArchConfig::inca_paper();
    let base_cfg = ArchConfig::baseline_paper();
    let spec = Model::Vgg16.spec();
    let mut text = String::from("(a) INCA utilization vs array size (VGG16):\n");
    let mut sweep = Vec::new();
    for side in [8usize, 16, 32, 64, 128] {
        let u = mapping::IsMapping::with_side(&inca_cfg, side).utilization(&spec);
        let _ = writeln!(text, "  {side:>3}x{side:<3} : {:.1}%", u * 100.0);
        sweep.push(json!({ "side": side, "utilization": u }));
    }
    text.push_str("(b) network utilization, INCA vs WS:\n");
    let ws = mapping::WsMapping::new(&base_cfg);
    let is = mapping::IsMapping::new(&inca_cfg);
    let mut per_model = Vec::new();
    for model in Model::paper_suite() {
        let spec = model.spec();
        let u_is = is.utilization(&spec);
        let u_ws = ws.utilization_by_cycles(&spec);
        let _ =
            writeln!(text, "  {:<14}: INCA {:>5.1}%  WS {:>5.1}%", model.name(), u_is * 100.0, u_ws * 100.0);
        per_model.push(json!({ "model": model.name(), "inca": u_is, "ws": u_ws }));
    }
    (text, json!({ "size_sweep": sweep, "per_model": per_model }))
}

fn table4() -> (String, serde_json::Value) {
    let fp = FootprintModel::paper_default();
    let mut text = String::from("model          | base RRAM | base buf | INCA RRAM | INCA buf  (MiB)\n");
    let mut rows = Vec::new();
    for model in Model::paper_suite() {
        let r = fp.evaluate(&model.spec());
        let _ = writeln!(
            text,
            "{:<14} | {:>9.2} | {:>8.2} | {:>9.2} | {:>8.2}",
            model.name(),
            r.baseline_rram_mib,
            r.baseline_buffers_mib,
            r.inca_rram_mib,
            r.inca_buffers_mib
        );
        rows.push(json!({ "model": model.name(), "report": r }));
    }
    (text, json!(rows))
}

fn table5() -> (String, serde_json::Value) {
    let m = AreaModel::new();
    let base = m.breakdown(&ArchConfig::baseline_paper());
    let inca = m.breakdown(&ArchConfig::inca_paper());
    let text = format!(
        "component       | baseline mm² | INCA mm²\n\
         buffer          | {:>12.3} | {:>8.3}\n\
         array           | {:>12.3} | {:>8.3}\n\
         ADC             | {:>12.3} | {:>8.3}\n\
         DAC             | {:>12.3} | {:>8.3}\n\
         post-processing | {:>12.3} | {:>8.3}\n\
         others          | {:>12.3} | {:>8.3}\n\
         total           | {:>12.3} | {:>8.3}  (paper: 84.088 / 47.914)\n",
        base.buffer_mm2,
        inca.buffer_mm2,
        base.array_mm2,
        inca.array_mm2,
        base.adc_mm2,
        inca.adc_mm2,
        base.dac_mm2,
        inca.dac_mm2,
        base.post_processing_mm2,
        inca.post_processing_mm2,
        base.others_mm2,
        inca.others_mm2,
        base.total_mm2(),
        inca.total_mm2(),
    );
    (text, json!({ "baseline": base, "inca": inca }))
}

fn table6(opts: &ExperimentOpts) -> (String, serde_json::Value) {
    let cfg = if opts.quick { AccuracyConfig::quick() } else { AccuracyConfig::paper_like() };
    let sigmas = if opts.quick { vec![0.005, 0.02, 0.05] } else { vec![0.005, 0.01, 0.02, 0.03, 0.05] };
    let mut text = String::from("sigma  | weight-noise acc % | activation-noise acc %\n");
    let mut rows = Vec::new();
    for sigma in sigmas {
        let row = noise_accuracy_row(&cfg, sigma);
        let _ = writeln!(
            text,
            "{sigma:<6} | {:>18.1} | {:>22.1}",
            row.weight_noise_acc, row.activation_noise_acc
        );
        rows.push(json!(row));
    }
    (text, json!(rows))
}

fn ablation_array_size() -> (String, serde_json::Value) {
    let spec = Model::Vgg16.spec();
    let mut text = String::from("side | utilization % | IS cycles (relative)\n");
    let mut rows = Vec::new();
    let base_cycles = total_is_cycles(&ArchConfig::inca_paper(), &spec) as f64;
    for side in [8usize, 16, 32, 64] {
        let mut cfg = ArchConfig::inca_paper();
        cfg.subarray = side;
        let u = mapping::IsMapping::new(&cfg).utilization(&spec);
        let cycles = total_is_cycles(&cfg, &spec) as f64;
        let _ = writeln!(text, "{side:>4} | {:>13.1} | {:>20.2}", u * 100.0, cycles / base_cycles);
        rows.push(json!({ "side": side, "utilization": u, "relative_cycles": cycles / base_cycles }));
    }
    (text, json!(rows))
}

fn total_is_cycles(cfg: &ArchConfig, spec: &inca_workloads::ModelSpec) -> u64 {
    spec.weighted_layers().map(|l| inca_sim::is_layer_cycles(l, cfg)).sum()
}

fn ablation_adc_bits() -> (String, serde_json::Value) {
    let spec = Model::ResNet18.spec();
    let mut text = String::from("adc bits | INCA energy (J/batch)\n");
    let mut rows = Vec::new();
    for bits in [2u8, 4, 6, 8] {
        let mut cfg = ArchConfig::inca_paper();
        cfg.adc = AdcSpec::new(bits).expect("valid precision"); // swept bits are valid. lint: allow(panic-path)
        let e = simulate_inference(&cfg, &spec).energy.total_j();
        let _ = writeln!(text, "{bits:>8} | {e:>10.4e}");
        rows.push(json!({ "bits": bits, "energy_j": e }));
    }
    (text, json!(rows))
}

fn ablation_batch() -> (String, serde_json::Value) {
    let spec = Model::Vgg16.spec();
    let mut text = String::from("batch | INCA tr latency/img (s) | baseline tr latency/img (s)\n");
    let mut rows = Vec::new();
    for batch in [1usize, 8, 16, 32, 64] {
        let mut inca = ArchConfig::inca_paper();
        inca.batch_size = batch;
        let mut base = ArchConfig::baseline_paper();
        base.batch_size = batch;
        let i = simulate_training(&inca, &spec).latency_s / batch as f64;
        let b = simulate_training(&base, &spec).latency_s / batch as f64;
        let _ = writeln!(text, "{batch:>5} | {i:>23.4e} | {b:>27.4e}");
        rows.push(json!({ "batch": batch, "inca_per_image": i, "baseline_per_image": b }));
    }
    (text, json!(rows))
}

fn ablation_bus_width() -> (String, serde_json::Value) {
    let spec = Model::Vgg16.spec();
    let mut text = String::from("bus bits | baseline accesses | INCA accesses\n");
    let mut rows = Vec::new();
    for bus in [64u32, 128, 256, 512, 1024] {
        let cfg = access::AccessConfig { data_bits: 8, bus_bits: bus, include_fc: false };
        let ws = access::baseline_total(&spec, &cfg);
        let is = access::inca_total(&spec, &cfg);
        let _ = writeln!(text, "{bus:>8} | {ws:>17} | {is:>13}");
        rows.push(json!({ "bus": bus, "baseline": ws, "inca": is }));
    }
    (text, json!(rows))
}

fn ablation_unroll() -> (String, serde_json::Value) {
    let mut text = String::from("model          | RRAM cells direct | RRAM cells unrolled | penalty\n");
    let mut rows = Vec::new();
    for model in Model::paper_suite() {
        let spec = model.spec();
        let direct = mapping::direct_input_elems(&spec);
        let unrolled = mapping::unrolled_input_elems(&spec);
        let _ = writeln!(
            text,
            "{:<14} | {direct:>17} | {unrolled:>19} | {:>6.2}x",
            model.name(),
            unrolled as f64 / direct as f64
        );
        rows.push(json!({ "model": model.name(), "direct": direct, "unrolled": unrolled }));
    }
    (text, json!(rows))
}

fn endurance() -> (String, serde_json::Value) {
    use inca_sim::{training_lifetime, IMAGENET_TRAIN_IMAGES};
    let spec = Model::ResNet18.spec();
    let mut text = String::from(
        "dataflow | writes/cell/step | steps to wear-out | ImageNet epochs
",
    );
    let mut rows = Vec::new();
    for cfg in [ArchConfig::inca_paper(), ArchConfig::baseline_paper()] {
        let lt = training_lifetime(&cfg, &spec);
        let epochs = lt.epochs_for(IMAGENET_TRAIN_IMAGES);
        let _ = writeln!(
            text,
            "{:<8?} | {:>16.1} | {:>17.3e} | {:>15.1}",
            lt.dataflow, lt.writes_per_cell_per_step, lt.steps_to_wearout, epochs
        );
        rows.push(
            json!({ "dataflow": format!("{:?}", lt.dataflow), "lifetime": lt, "imagenet_epochs": epochs }),
        );
    }
    text.push_str(
        "(endurance limit 1e6 writes; §VI cites 50x device improvements in progress)
",
    );
    (text, json!(rows))
}

fn hw_inference(opts: &ExperimentOpts) -> (String, serde_json::Value) {
    use crate::{HwConv, HwLinear, HwNetwork};
    use inca_nn::{layers, Layer as _, Loss, SyntheticDataset};

    let side = 12usize;
    let classes = 6usize;
    let samples = if opts.quick { 240 } else { 480 };
    let epochs = if opts.quick { 5 } else { 8 };
    let dataset = SyntheticDataset::generate(samples, side, classes, 21);

    // Train a typed float model.
    let mut conv = layers::Conv2d::new(1, 6, 3, 1, 1, 5);
    let mut relu = layers::Relu::new();
    let mut pool = layers::MaxPool2d::new(2, 2);
    let mut flat = layers::Flatten::new();
    let mut fc = layers::Linear::new(6 * (side / 2) * (side / 2), classes, 6);
    let (train_idx, test_idx) = dataset.split(0.8);
    for _ in 0..epochs {
        for chunk in train_idx.chunks(16) {
            let (x, y) = dataset.batch(chunk);
            let logits = fc.forward(&flat.forward(&pool.forward(&relu.forward(&conv.forward(&x)))));
            let (_, grad) = Loss::CrossEntropy.evaluate(&logits, &y);
            let g = flat.backward(&fc.backward(&grad));
            let _ = conv.backward(&relu.backward(&pool.backward(&g)));
            conv.sgd_step(0.08);
            fc.sgd_step(0.08);
        }
    }

    // Program the hardware and compare classification.
    let hw_conv = HwConv::from_float(conv.weights(), conv.bias().data(), 1, 1).expect("conv programs"); // lint: allow(panic-path)
    let hw_fc = HwLinear::from_float(fc.weights(), fc.bias().data()).expect("fc programs"); // lint: allow(panic-path)
    let hw = HwNetwork::new().conv(hw_conv).relu().max_pool(2).flatten().linear(hw_fc);
    let mut float_ok = 0usize;
    let mut hw_ok = 0usize;
    let mut agree = 0usize;
    for &i in &test_idx {
        let (x, y) = dataset.batch(&[i]);
        let f_logits = fc.forward(&flat.forward(&pool.forward(&relu.forward(&conv.forward(&x)))));
        let f = f_logits.argmax();
        let h = hw.classify(&x).expect("hw forward"); // lint: allow(panic-path)
        float_ok += usize::from(f == y[0]);
        hw_ok += usize::from(h == y[0]);
        agree += usize::from(f == h);
    }
    let n = test_idx.len() as f64;
    let text = format!(
        "float accuracy {:.1}% | hardware accuracy {:.1}% | prediction agreement {:.1}%
         (8-bit quantized 2T1R direct convolution + differential crossbar FC)
",
        100.0 * float_ok as f64 / n,
        100.0 * hw_ok as f64 / n,
        100.0 * agree as f64 / n,
    );
    (
        text,
        json!({
            "float_accuracy": float_ok as f64 / n,
            "hw_accuracy": hw_ok as f64 / n,
            "agreement": agree as f64 / n,
        }),
    )
}

fn training_phases_exp() -> (String, serde_json::Value) {
    use inca_sim::training_phases;
    let spec = Model::Vgg16.spec();
    let mut text = String::from(
        "VGG16 training step, per phase (J/batch):\n         dataflow           | feedforward |  backward |    update | shares\n",
    );
    let mut rows = Vec::new();
    for cfg in [ArchConfig::inca_paper(), ArchConfig::baseline_paper()] {
        let p = training_phases(&cfg, &spec);
        let sh = p.phase_shares();
        let _ = writeln!(
            text,
            "{:<18?} | {:>11.3e} | {:>9.3e} | {:>9.3e} | {:.0}%/{:.0}%/{:.0}%",
            p.dataflow,
            p.feedforward.total_j(),
            p.backward.total_j(),
            p.weight_update.total_j(),
            sh[0] * 100.0,
            sh[1] * 100.0,
            sh[2] * 100.0,
        );
        rows.push(json!({ "dataflow": format!("{:?}", p.dataflow), "phases": p }));
    }
    (text, json!(rows))
}

fn ablation_chip_capacity() -> (String, serde_json::Value) {
    use inca_sim::schedule::{layer_jobs, schedule};
    let spec = Model::ResNet18.spec();
    let cfg = ArchConfig::inca_paper();
    let jobs = layer_jobs(&cfg, &spec);
    let paper_units = cfg.units_per_chip() as u64;
    let mut text = String::from("ResNet18 feedforward on INCA, event-driven list scheduling:\n");
    text.push_str("chip units | makespan (s) | slowdown vs unbounded | chip utilization\n");
    let unbounded = schedule(&jobs, u64::MAX / 2);
    let mut rows = Vec::new();
    for factor in [1u64, 2, 4, 8, 64] {
        let capacity = paper_units * factor;
        let r = schedule(&jobs, capacity);
        let _ = writeln!(
            text,
            "{:>10} | {:>12.4e} | {:>21.2}x | {:>15.1}%",
            capacity,
            r.makespan_s,
            r.makespan_s / unbounded.makespan_s.max(inca_units::Time::from_seconds(1e-30)),
            r.chip_utilization * 100.0
        );
        rows.push(json!({ "capacity": capacity, "result": r }));
    }
    (text, json!({ "unbounded": unbounded, "rows": rows }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_roundtrips_ids() {
        for e in Experiment::all() {
            assert_eq!(Experiment::from_id(e.id()), Some(e), "{}", e.id());
        }
        assert_eq!(Experiment::from_id("nope"), None);
    }

    #[test]
    fn analytic_experiments_produce_output() {
        // Everything except the ML experiments (Table I / VI) runs fast.
        let opts = ExperimentOpts { quick: true };
        for e in Experiment::all() {
            if matches!(e, Experiment::Table1 | Experiment::Table6) {
                continue;
            }
            let r = e.run(&opts);
            assert!(!r.text.is_empty(), "{}", r.id);
            assert!(!r.data.is_null(), "{}", r.id);
        }
    }

    #[test]
    fn fig13_reports_adc_reduction_near_paper() {
        let r = Experiment::Fig13.run(&ExperimentOpts::default());
        let ratio = r.data["adc_ratio"].as_f64().unwrap();
        // Paper: 5x. Our model: ~4x from the precision law plus the
        // depthwise/idle-column penalties on other networks.
        assert!(ratio > 3.0 && ratio < 8.0, "adc ratio {ratio}");
    }

    #[test]
    fn table3_rows_cover_all_models() {
        let r = Experiment::Table3.run(&ExperimentOpts::default());
        assert_eq!(r.data.as_array().unwrap().len(), 6);
    }

    #[test]
    fn fig16_shows_ws_collapse() {
        let r = Experiment::Fig16.run(&ExperimentOpts::default());
        let per_model = r.data["per_model"].as_array().unwrap();
        let vgg = &per_model[0];
        let mbv2 = per_model.iter().find(|m| m["model"] == "MobileNetV2").unwrap();
        assert!(mbv2["ws"].as_f64().unwrap() < vgg["ws"].as_f64().unwrap() / 2.0);
        assert!(mbv2["inca"].as_f64().unwrap() > 0.5);
    }
}
