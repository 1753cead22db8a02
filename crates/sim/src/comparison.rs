use inca_arch::ArchConfig;
use inca_workloads::Model;
use serde::{Deserialize, Serialize};

use crate::{simulate_inference, simulate_training, GpuModel};

/// Packages the INCA-vs-baseline(-vs-GPU) comparisons of Figs 11/14/15.
///
/// # Examples
///
/// ```
/// use inca_sim::Comparison;
/// use inca_workloads::Model;
///
/// let report = Comparison::paper_default().run(Model::ResNet18);
/// assert!(report.inference_energy_ratio > 1.0);
/// assert!(report.training_energy_ratio > report.inference_energy_ratio);
/// ```
#[derive(Debug, Clone)]
pub struct Comparison {
    inca: ArchConfig,
    baseline: ArchConfig,
    gpu: GpuModel,
}

/// All headline ratios for one model (baseline ÷ INCA, so > 1 means INCA
/// wins).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ComparisonReport {
    /// Which model was compared.
    pub model: Model,
    /// Fig 11a: inference energy-efficiency improvement.
    pub inference_energy_ratio: f64,
    /// Fig 11b: training energy-efficiency improvement.
    pub training_energy_ratio: f64,
    /// Fig 14a: inference speedup.
    pub inference_speedup: f64,
    /// Fig 14b: training speedup.
    pub training_speedup: f64,
    /// Fig 15a: INCA training energy efficiency relative to the GPU.
    pub gpu_energy_ratio: f64,
    /// Fig 15b: INCA ÷ GPU iso-area training throughput.
    pub gpu_throughput_per_area_ratio: f64,
}

impl Comparison {
    /// Builds the paper's Table II comparison (both accelerators + Titan
    /// RTX).
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            inca: ArchConfig::inca_paper(),
            baseline: ArchConfig::baseline_paper(),
            gpu: GpuModel::titan_rtx(),
        }
    }

    /// Runs all four simulations for one model and returns the ratios.
    #[must_use]
    pub fn run(&self, model: Model) -> ComparisonReport {
        let spec = &model.spec();
        let inca_inf = simulate_inference(&self.inca, spec);
        let base_inf = simulate_inference(&self.baseline, spec);
        let inca_tr = simulate_training(&self.inca, spec);
        let base_tr = simulate_training(&self.baseline, spec);
        let batch = self.inca.batch_size;

        let inca_area = inca_arch::AreaModel::new().breakdown(&self.inca).total_mm2();
        let inca_tp_area = batch as f64 / inca_tr.latency_s.seconds() / inca_area;

        ComparisonReport {
            model,
            inference_energy_ratio: base_inf.energy.total_j() / inca_inf.energy.total_j(),
            training_energy_ratio: base_tr.energy.total_j() / inca_tr.energy.total_j(),
            inference_speedup: base_inf.latency_s / inca_inf.latency_s,
            training_speedup: base_tr.latency_s / inca_tr.latency_s,
            gpu_energy_ratio: self.gpu.training_energy_j(spec, batch) / inca_tr.energy.total_j(),
            gpu_throughput_per_area_ratio: inca_tp_area / self.gpu.training_throughput_per_area(spec, batch),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ratios_favor_inca() {
        let c = Comparison::paper_default();
        for model in Model::paper_suite() {
            let r = c.run(model);
            assert!(r.inference_energy_ratio > 1.0, "{model} inf energy {}", r.inference_energy_ratio);
            assert!(r.training_energy_ratio > 1.0, "{model} tr energy {}", r.training_energy_ratio);
            assert!(r.inference_speedup > 1.0, "{model} inf speedup {}", r.inference_speedup);
            assert!(r.training_speedup > 1.0, "{model} tr speedup {}", r.training_speedup);
        }
    }

    #[test]
    fn training_improvements_exceed_inference() {
        let c = Comparison::paper_default();
        for model in Model::heavy_suite() {
            let r = c.run(model);
            assert!(r.training_energy_ratio > r.inference_energy_ratio, "{model}");
            assert!(r.training_speedup > r.inference_speedup, "{model}");
        }
    }

    #[test]
    fn light_models_see_largest_gains() {
        let c = Comparison::paper_default();
        let heavy_best =
            Model::heavy_suite().iter().map(|&m| c.run(m).training_energy_ratio).fold(0.0, f64::max);
        for model in Model::light_suite() {
            let r = c.run(model);
            assert!(
                r.training_energy_ratio > heavy_best,
                "{model}: {} vs best heavy {heavy_best}",
                r.training_energy_ratio
            );
        }
    }

    #[test]
    fn inca_beats_gpu_in_training_energy() {
        let c = Comparison::paper_default();
        for model in Model::paper_suite() {
            let r = c.run(model);
            assert!(r.gpu_energy_ratio > 1.0, "{model}: {}", r.gpu_energy_ratio);
        }
    }
}
