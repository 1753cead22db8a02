use inca_units::{Area, Energy, Time};
use inca_workloads::ModelSpec;
use serde::{Deserialize, Serialize};

/// Roofline model of the comparison GPU (Table II: Titan RTX).
///
/// Per-batch time is the larger of the compute roof (`2·MACs / peak`) and
/// the memory roof (`bytes / bandwidth`), energy is board power × time —
/// the standard normalization for the Fig 15 comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpuModel {
    /// Peak throughput in FLOP/s (16.3 TFLOPS).
    pub peak_flops: f64,
    /// Memory bandwidth in bytes/s (672 GB/s).
    pub bandwidth: f64,
    /// Board power in watts (280 W).
    pub power_w: f64,
    /// Die area (754 mm²).
    pub area_mm2: Area,
    /// Achievable fraction of peak (real kernels do not reach 100 %).
    pub efficiency: f64,
}

impl GpuModel {
    /// The Titan RTX of Table II.
    #[must_use]
    pub fn titan_rtx() -> Self {
        Self {
            peak_flops: 16.3e12,
            bandwidth: 672e9,
            power_w: 280.0,
            area_mm2: Area::from_mm2(754.0),
            efficiency: 0.45,
        }
    }

    /// Time for one training step over `batch` images. Training
    /// performs ~3× the forward FLOPs and streams weights + activations
    /// per pass.
    #[must_use]
    pub(crate) fn training_step_s(&self, spec: &ModelSpec, batch: usize) -> Time {
        let flops = 2.0 * spec.total_macs() as f64 * batch as f64 * 3.0;
        let bytes = (spec.param_count() as f64 * 3.0
            + spec.activation_input_elems() as f64 * batch as f64 * 2.0)
            * 4.0;
        let compute = flops / (self.peak_flops * self.efficiency);
        let memory = bytes / self.bandwidth;
        Time::from_seconds(compute.max(memory))
    }

    /// Time for one inference pass over `batch` images.
    #[must_use]
    pub fn inference_s(&self, spec: &ModelSpec, batch: usize) -> Time {
        let flops = 2.0 * spec.total_macs() as f64 * batch as f64;
        let bytes = (spec.param_count() as f64 + spec.activation_input_elems() as f64 * batch as f64) * 4.0;
        Time::from_seconds((flops / (self.peak_flops * self.efficiency)).max(bytes / self.bandwidth))
    }

    /// Energy of one training step.
    #[must_use]
    pub(crate) fn training_energy_j(&self, spec: &ModelSpec, batch: usize) -> Energy {
        Energy::from_joules(self.power_w * self.training_step_s(spec, batch).seconds())
    }

    /// Training throughput per area: images/s/mm² (the Fig 15b iso-area
    /// metric).
    #[must_use]
    pub(crate) fn training_throughput_per_area(&self, spec: &ModelSpec, batch: usize) -> f64 {
        batch as f64 / self.training_step_s(spec, batch).seconds() / self.area_mm2.mm2()
    }
}

impl Default for GpuModel {
    fn default() -> Self {
        Self::titan_rtx()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inca_workloads::Model;

    #[test]
    fn compute_bound_on_heavy_models() {
        let gpu = GpuModel::titan_rtx();
        let spec = Model::Vgg16.spec();
        let t = gpu.training_step_s(&spec, 64).seconds();
        // 3 x 2 x 15.5G x 64 / (16.3T x 0.45) ≈ 0.81 s.
        assert!(t > 0.5 && t < 2.0, "got {t}");
    }

    #[test]
    fn light_models_much_faster() {
        let gpu = GpuModel::titan_rtx();
        let heavy = gpu.training_step_s(&Model::Vgg16.spec(), 64);
        let light = gpu.training_step_s(&Model::MobileNetV2.spec(), 64);
        assert!(light.seconds() < heavy.seconds() / 10.0);
    }

    #[test]
    fn energy_is_power_times_time() {
        let gpu = GpuModel::titan_rtx();
        let spec = Model::ResNet18.spec();
        let e = gpu.training_energy_j(&spec, 64);
        assert!((e.joules() - 280.0 * gpu.training_step_s(&spec, 64).seconds()).abs() < 1e-9);
    }

    #[test]
    fn throughput_per_area_positive() {
        let gpu = GpuModel::titan_rtx();
        for m in Model::paper_suite() {
            assert!(gpu.training_throughput_per_area(&m.spec(), 64) > 0.0, "{m}");
        }
    }
}
