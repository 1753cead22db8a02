//! Serving backends: per-(model, batch-size) service cost pulled from
//! the analytical simulators.
//!
//! * [`BackendKind::Inca`] — `inca_sim::simulate_inference` on the
//!   Table II input-stationary chip. Its 64 shared-pillar stacked planes
//!   execute a whole batch in the cycle count of one image (§IV-B), so
//!   service latency is nearly flat in batch size — the property dynamic
//!   batching exploits.
//! * [`BackendKind::WsBaseline`] — the ISAAC-style weight-stationary
//!   pipeline: batch latency grows roughly linearly (fill + drain per
//!   image), so batching buys far less.
//! * [`BackendKind::Gpu`] — the Table II Titan RTX roofline.
//!
//! Costs are memoized per (model, batch) in a dense table — the
//! discrete-event engine only ever pays two array indexes on the hot
//! path.

use inca_arch::{ArchConfig, AreaModel};
use inca_events::{secs_to_ns, SimTime};
use inca_sim::{simulate_inference, GpuModel};
use inca_units::{Area, Energy};
use inca_workloads::ModelSpec;

use crate::source::ModelMix;

/// Which cost model serves the request stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Input-stationary INCA chip (batch-parallel stacked planes).
    Inca,
    /// Weight-stationary ISAAC-style baseline.
    WsBaseline,
    /// Titan RTX roofline (Fig 15's comparison point).
    Gpu,
}

impl BackendKind {
    /// Every backend, in report order.
    #[must_use]
    pub fn all() -> [BackendKind; 3] {
        [BackendKind::Inca, BackendKind::WsBaseline, BackendKind::Gpu]
    }

    /// Stable identifier used in reports.
    #[must_use]
    pub fn id(&self) -> &'static str {
        match self {
            BackendKind::Inca => "inca",
            BackendKind::WsBaseline => "ws",
            BackendKind::Gpu => "gpu",
        }
    }

    /// Largest batch one service slot executes at once. For INCA this is
    /// the stacked-plane count (64): one request per plane, all planes
    /// evaluated by the same pillar-shared kernel drives. The baselines
    /// may batch to the same depth — they just profit less.
    #[must_use]
    pub(crate) fn max_batch(&self) -> usize {
        match self {
            BackendKind::Inca => ArchConfig::inca_paper().stacked_planes,
            BackendKind::WsBaseline | BackendKind::Gpu => 64,
        }
    }

    /// Die area of one chip — Table V for the PIM configs, Table II for
    /// the GPU. Normalizes sustainable load into rps/mm² for the
    /// iso-silicon comparison of Fig 15b.
    #[must_use]
    pub fn area_mm2(&self) -> Area {
        match self {
            BackendKind::Inca => {
                Area::from_mm2(AreaModel::new().breakdown(&ArchConfig::inca_paper()).total_mm2())
            }
            BackendKind::WsBaseline => {
                Area::from_mm2(AreaModel::new().breakdown(&ArchConfig::baseline_paper()).total_mm2())
            }
            BackendKind::Gpu => GpuModel::titan_rtx().area_mm2,
        }
    }

    /// Model-switch weight (re)programming bandwidth, parameters/second.
    /// RRAM programming is pulse-limited; the GPU only streams weights
    /// over its memory bus.
    #[must_use]
    pub(crate) fn reprogram_params_per_s(&self) -> f64 {
        match self {
            BackendKind::Inca | BackendKind::WsBaseline => 2e9,
            BackendKind::Gpu => 2e10,
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

/// Cost of serving one batch: occupancy time of the chip and the energy
/// the batch consumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct BatchCost {
    /// Chip-busy time in virtual nanoseconds.
    pub service_ns: SimTime,
    /// Total energy of the batch.
    pub energy_j: Energy,
}

/// Memoizing (model, batch) → cost table for one backend.
///
/// Batch sizes are small and dense (1..=the backend's plane count), so
/// the memo is a per-model `Vec<Option<BatchCost>>` indexed by batch
/// size: no hashing on the engine's hot path, and iteration order can
/// never leak into results.
pub struct CostCache {
    backend: BackendKind,
    specs: Vec<ModelSpec>,
    param_counts: Vec<u64>,
    /// `costs[model_idx][batch]`, `None` until first priced.
    costs: Vec<Vec<Option<BatchCost>>>,
}

impl CostCache {
    /// Builds an empty cache over the mix's model specs.
    #[must_use]
    pub fn new(backend: BackendKind, mix: &ModelMix) -> Self {
        let specs: Vec<ModelSpec> = mix.models.iter().map(|m| m.spec()).collect();
        let param_counts = specs.iter().map(ModelSpec::param_count).collect();
        let costs = vec![vec![None; backend.max_batch() + 1]; specs.len()];
        Self { backend, specs, param_counts, costs }
    }

    /// Service cost of a batch of `batch` requests of model `model_idx`.
    ///
    /// # Panics
    ///
    /// Panics if `model_idx` is out of range or `batch` is zero.
    pub(crate) fn cost(&mut self, model_idx: usize, batch: usize) -> BatchCost {
        assert!(batch >= 1, "batch must be at least 1");
        let spec = &self.specs[model_idx];
        let row = &mut self.costs[model_idx];
        if batch >= row.len() {
            row.resize(batch + 1, None);
        }
        if let Some(c) = row[batch] {
            return c;
        }
        let c = match self.backend {
            BackendKind::Inca => analytical_cost(&ArchConfig::inca_paper(), spec, batch),
            BackendKind::WsBaseline => analytical_cost(&ArchConfig::baseline_paper(), spec, batch),
            BackendKind::Gpu => {
                let gpu = GpuModel::titan_rtx();
                let t = gpu.inference_s(spec, batch);
                BatchCost {
                    service_ns: secs_to_ns(t.seconds()),
                    energy_j: Energy::from_joules(gpu.power_w * t.seconds()),
                }
            }
        };
        row[batch] = Some(c);
        c
    }

    /// Time to swap a chip from its resident model to `model_idx`
    /// (weight re-programming), virtual nanoseconds.
    #[must_use]
    pub(crate) fn switch_penalty_ns(&self, model_idx: usize) -> SimTime {
        secs_to_ns(self.param_counts[model_idx] as f64 / self.backend.reprogram_params_per_s())
    }

    /// Mix-weighted steady-state capacity of `chips` chips in
    /// requests/second, assuming full batches and no switches — the
    /// normalization anchor for offered-load sweeps.
    pub fn capacity_rps(&mut self, mix: &ModelMix, chips: usize) -> f64 {
        let b = self.backend.max_batch();
        // Weighted mean service time per request at full batch.
        let mut per_request_s = 0.0;
        for idx in 0..mix.len() {
            let c = self.cost(idx, b);
            per_request_s += mix.share(idx) * (c.service_ns as f64 / 1e9) / b as f64;
        }
        chips as f64 / per_request_s
    }
}

/// Prices one batch on an analytical PIM config by simulating the
/// feedforward pass at that batch size.
fn analytical_cost(config: &ArchConfig, spec: &ModelSpec, batch: usize) -> BatchCost {
    let mut cfg = config.clone();
    cfg.batch_size = batch;
    let stats = simulate_inference(&cfg, spec);
    BatchCost { service_ns: secs_to_ns(stats.latency_s.seconds()), energy_j: stats.energy.total_j() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inca_workloads::Model;

    #[test]
    fn inca_batch_latency_nearly_flat() {
        // The 64-plane stack executes the whole batch in one pass: going
        // from batch 1 to batch 64 must cost far less than 64x.
        let mix = ModelMix::single(Model::ResNet18);
        let mut cache = CostCache::new(BackendKind::Inca, &mix);
        let t1 = cache.cost(0, 1).service_ns as f64;
        let t64 = cache.cost(0, 64).service_ns as f64;
        assert!(t64 < 2.0 * t1, "batch-64 {t64} vs batch-1 {t1}");
    }

    #[test]
    fn ws_batch_latency_grows_roughly_linearly() {
        let mix = ModelMix::single(Model::ResNet18);
        let mut cache = CostCache::new(BackendKind::WsBaseline, &mix);
        let t1 = cache.cost(0, 1).service_ns as f64;
        let t64 = cache.cost(0, 64).service_ns as f64;
        assert!(t64 > 16.0 * t1, "batch-64 {t64} vs batch-1 {t1}");
    }

    #[test]
    fn inca_capacity_exceeds_ws() {
        let mix = ModelMix::paper_serving_mix();
        let inca = CostCache::new(BackendKind::Inca, &mix).capacity_rps(&mix, 4);
        let ws = CostCache::new(BackendKind::WsBaseline, &mix).capacity_rps(&mix, 4);
        assert!(inca > ws, "inca {inca} rps vs ws {ws} rps");
    }

    #[test]
    fn switch_penalty_scales_with_params() {
        let mix = ModelMix::new(vec![Model::MobileNetV2, Model::Vgg16], vec![1.0, 1.0]);
        let cache = CostCache::new(BackendKind::Inca, &mix);
        assert!(cache.switch_penalty_ns(1) > 10 * cache.switch_penalty_ns(0));
    }

    #[test]
    fn costs_are_memoized_and_stable() {
        let mix = ModelMix::single(Model::MnasNet);
        let mut cache = CostCache::new(BackendKind::Gpu, &mix);
        let a = cache.cost(0, 8);
        let b = cache.cost(0, 8);
        assert_eq!(a, b);
        assert!(a.service_ns > 0 && a.energy_j > Energy::ZERO);
    }
}
