//! The latency-vs-offered-load sweep: every backend driven over a shared
//! absolute load grid, reported as text and as `SERVE_report.json`.
//!
//! The grid is anchored at the WS baseline's full-batch capacity and
//! extended through INCA's, so a single report shows both knees: the
//! baseline's p99 diverging near its own saturation while INCA — whose
//! 64 stacked planes make large batches nearly free — is still in its
//! flat region at the same absolute load.

use inca_core::exec::{par_map_indexed, ExecPolicy};
use inca_telemetry as tel;
use serde_json::{json, Value};
use std::fmt::Write as _;

use crate::backend::{BackendKind, CostCache};
use crate::chip::{BatchPolicy, DispatchPolicy};
use crate::engine::{run_point_with_costs, ServeConfig};
use crate::metrics::PointSummary;
use crate::source::{ArrivalKind, ModelMix};
use inca_units::Area;

/// Configuration of a full serving sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Backends to drive (report order).
    pub backends: Vec<BackendKind>,
    /// Chips per fleet.
    pub chips: usize,
    /// Dispatch policy.
    pub policy: DispatchPolicy,
    /// Batching policy.
    pub batch: BatchPolicy,
    /// Per-chip admission bound.
    pub queue_cap: usize,
    /// Traffic mixture.
    pub mix: ModelMix,
    /// RNG seed (one stream per point, derived deterministically).
    pub seed: u64,
    /// Requests per offered-load point.
    pub requests_per_point: u64,
    /// Load grid as fractions of the WS baseline's capacity.
    pub ws_grid: Vec<f64>,
    /// Extra grid points as fractions of INCA's capacity (dedup'd into
    /// the shared absolute grid).
    pub inca_grid: Vec<f64>,
    /// Extra grid points as fractions of the GPU's capacity.
    pub gpu_grid: Vec<f64>,
    /// Worker threads for the point fan-out: `0` sizes the pool to the
    /// host, `1` forces the sequential path, larger counts are honored
    /// verbatim. Purely an execution knob — every value produces
    /// byte-identical reports (each point is an independent simulation
    /// with its own derived seed, and results are collected by point
    /// index), so it is deliberately *not* echoed into the report JSON.
    pub workers: usize,
}

impl SweepConfig {
    /// The quick sweep the `experiments serve` subcommand runs.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            backends: BackendKind::all().to_vec(),
            chips: 4,
            policy: DispatchPolicy::JoinShortestQueue,
            batch: BatchPolicy::default_paper(),
            queue_cap: 1024,
            mix: ModelMix::paper_serving_mix(),
            seed: 2026,
            requests_per_point: 1200,
            ws_grid: vec![0.1, 0.3, 0.6, 0.9, 1.2],
            inca_grid: vec![0.5, 0.9, 1.1],
            gpu_grid: vec![0.9],
            workers: 0,
        }
    }

    /// The full sweep (`--full`): more requests per point for tighter
    /// tails.
    #[must_use]
    pub fn full() -> Self {
        Self { requests_per_point: 5000, ..Self::quick() }
    }
}

/// One backend's sweep results.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendSweep {
    /// The backend.
    pub backend: BackendKind,
    /// Full-batch fleet capacity, requests/second.
    pub capacity_rps: f64,
    /// Die area of one chip.
    pub area_mm2: Area,
    /// One summary per grid point, ascending in offered load.
    pub points: Vec<PointSummary>,
}

impl BackendSweep {
    /// Largest offered load whose p99 stays within `bound_ms` and which
    /// shed nothing — the operational "sustainable load" headline.
    ///
    /// Candidates are clamped to the analytic full-batch capacity: over a
    /// finite horizon a deep batcher can ride out a supercritical burst
    /// with a bounded tail (64-wide batches absorb the whole backlog),
    /// but no load above capacity is sustainable in steady state.
    #[must_use]
    pub(crate) fn sustainable_rps(&self, bound_ms: f64) -> f64 {
        self.points
            .iter()
            .filter(|p| {
                p.offered_rps <= self.capacity_rps
                    && p.p99_ms.is_some_and(|p99| p99 <= bound_ms)
                    && p.shed == 0
            })
            .map(|p| p.offered_rps)
            .fold(0.0, f64::max)
    }
}

/// The whole sweep: every backend over the shared grid.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Per-backend results.
    pub backends: Vec<BackendSweep>,
    /// The shared absolute load grid, requests/second.
    pub grid_rps: Vec<f64>,
    /// Echo of the sweep parameters (for reproducibility).
    pub chips: usize,
    /// Dispatch policy id.
    pub policy: &'static str,
    /// Requests per point.
    pub requests_per_point: u64,
    /// Seed.
    pub seed: u64,
}

impl ServeReport {
    /// The p99 latency bound used for the sustainable-load headline, ms.
    ///
    /// The bound must sit above INCA's service-time floor — the stack
    /// evaluates a whole batch in one pass, so even an unloaded chip
    /// takes ~340 ms for VGG-16 — and below the multi-second tail the WS
    /// pipeline develops once its queues saturate. 1 s separates the
    /// regimes cleanly.
    pub(crate) const P99_BOUND_MS: f64 = 1000.0;

    /// Machine-readable report (the `SERVE_report.json` payload).
    #[must_use]
    pub fn to_json(&self) -> Value {
        let backends: Vec<Value> = self
            .backends
            .iter()
            .map(|b| {
                let sustainable = b.sustainable_rps(Self::P99_BOUND_MS);
                json!({
                    "backend": b.backend.id(),
                    "capacity_rps": b.capacity_rps,
                    "area_mm2": b.area_mm2,
                    "sustainable_rps": sustainable,
                    "sustainable_rps_per_mm2": sustainable / (self.chips as f64 * b.area_mm2.mm2()),
                    "points": Value::Array(b.points.iter().map(PointSummary::to_json).collect::<Vec<_>>()),
                })
            })
            .collect();
        json!({
            "report": "inca-serve load sweep",
            "p99_bound_ms": Self::P99_BOUND_MS,
            "chips": self.chips as u64,
            "policy": self.policy,
            "requests_per_point": self.requests_per_point,
            "seed": self.seed,
            "grid_rps": Value::Array(self.grid_rps.iter().map(|&g| json!(g)).collect::<Vec<_>>()),
            "backends": Value::Array(backends),
        })
    }

    /// Pretty JSON text — byte-identical across same-seed runs.
    #[must_use]
    pub fn to_pretty_json(&self) -> String {
        // The value tree is built from plain numbers and strings above;
        // serialization of such a tree is infallible by construction.
        // lint: allow(panic-path)
        serde_json::to_string_pretty(&self.to_json()).expect("report serializes")
    }

    /// Human-readable sweep table.
    #[must_use]
    pub fn text_table(&self) -> String {
        let mut s = format!(
            "{} chips, {} policy, {} requests/point, seed {}\n",
            self.chips, self.policy, self.requests_per_point, self.seed
        );
        for b in &self.backends {
            let sustainable = b.sustainable_rps(Self::P99_BOUND_MS);
            let _ = writeln!(
                s,
                "-- {} (full-batch capacity {:.0} rps, sustainable@p99<{}ms {:.0} rps, {:.2} rps/mm2 of fleet silicon)",
                b.backend,
                b.capacity_rps,
                Self::P99_BOUND_MS,
                sustainable,
                sustainable / (self.chips as f64 * b.area_mm2.mm2())
            );
            let _ = writeln!(
                s,
                "   offered rps | done | shed | thruput |  p50 ms |  p95 ms |  p99 ms | batch | mJ/req"
            );
            // A point where nothing completed has no percentiles; the
            // table shows an explicit "n/a" rather than a fake zero.
            let fmt_ms = |v: Option<f64>| v.map_or_else(|| format!("{:>7}", "n/a"), |x| format!("{x:>7.2}"));
            for p in &b.points {
                let _ = writeln!(
                    s,
                    "   {:>11.0} | {:>4} | {:>4} | {:>7.0} | {} | {} | {} | {:>5.1} | {:>6.2}",
                    p.offered_rps,
                    p.completed,
                    p.shed,
                    p.throughput_rps,
                    fmt_ms(p.p50_ms),
                    fmt_ms(p.p95_ms),
                    fmt_ms(p.p99_ms),
                    p.mean_batch,
                    p.energy_per_request_mj
                );
            }
        }
        s
    }
}

/// Runs the sweep: builds the shared grid from the WS and INCA
/// capacities, then drives every backend across it.
#[must_use]
pub fn run_sweep(cfg: &SweepConfig) -> ServeReport {
    let _span = tel::span("serve.sweep");
    let cap_of = |kind: BackendKind| {
        let mut cache = CostCache::new(kind, &cfg.mix);
        cache.capacity_rps(&cfg.mix, cfg.chips)
    };
    let cap_ws = cap_of(BackendKind::WsBaseline);
    let cap_inca = cap_of(BackendKind::Inca);
    let cap_gpu = cap_of(BackendKind::Gpu);

    // Shared absolute grid: points anchored at each backend's capacity,
    // deduplicated (5% tolerance) and ascending.
    let mut grid_rps: Vec<f64> = cfg.ws_grid.iter().map(|r| r * cap_ws).collect();
    let anchored = [(&cfg.inca_grid, cap_inca), (&cfg.gpu_grid, cap_gpu)];
    for (grid, cap) in anchored {
        for r in grid {
            let g = r * cap;
            if !grid_rps.iter().any(|&x| (x - g).abs() / g < 0.05) {
                grid_rps.push(g);
            }
        }
    }
    grid_rps.sort_by(f64::total_cmp);

    // Fan the (backend, rate) grid across the core worker pool. Every
    // point is an independent simulation — its seed derives from
    // (backend index, grid index) alone — so execution order is free;
    // results land in slots keyed by flat point index `bi * |grid| + gi`,
    // which reassembles below into exactly the sequential report order.
    let n_grid = grid_rps.len();
    let n_points = cfg.backends.len() * n_grid;
    let pool = match cfg.workers {
        0 => ExecPolicy::parallel(),
        w => ExecPolicy::parallel_with(w),
    };
    let summaries = par_map_indexed(
        pool,
        n_points,
        // Per-worker cost caches, one per backend, built on first use —
        // the warm-cache sharing the sequential sweep enjoyed, without
        // cross-worker locking. Cache warmth cannot leak into results:
        // a (model, batch) price is the same whether memoized or fresh.
        || {
            let mut caches: Vec<Option<CostCache>> = Vec::new();
            caches.resize_with(cfg.backends.len(), || None);
            caches
        },
        |caches, p| {
            let (bi, gi) = (p / n_grid, p % n_grid);
            let backend = cfg.backends[bi];
            let rate = grid_rps[gi];
            let cache = caches[bi].get_or_insert_with(|| CostCache::new(backend, &cfg.mix));
            let point_cfg = ServeConfig {
                backend,
                chips: cfg.chips,
                policy: cfg.policy,
                batch: cfg.batch,
                queue_cap: cfg.queue_cap,
                mix: cfg.mix.clone(),
                arrivals: ArrivalKind::Poisson { rate_rps: rate },
                // One deterministic stream per (backend, point).
                seed: cfg.seed ^ ((bi as u64) << 32) ^ gi as u64,
                requests: cfg.requests_per_point,
            };
            let run = run_point_with_costs(&point_cfg, cache);
            PointSummary::from_run(rate, &run)
        },
    );

    let mut backends = Vec::with_capacity(cfg.backends.len());
    let mut summaries = summaries.into_iter();
    for &backend in &cfg.backends {
        let mut cache = CostCache::new(backend, &cfg.mix);
        let capacity_rps = cache.capacity_rps(&cfg.mix, cfg.chips);
        let points: Vec<PointSummary> = summaries.by_ref().take(n_grid).collect();
        backends.push(BackendSweep { backend, capacity_rps, area_mm2: backend.area_mm2(), points });
    }

    ServeReport {
        backends,
        grid_rps,
        chips: cfg.chips,
        policy: cfg.policy.id(),
        requests_per_point: cfg.requests_per_point,
        seed: cfg.seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SweepConfig {
        SweepConfig {
            requests_per_point: 300,
            ws_grid: vec![0.1, 1.2],
            inca_grid: vec![0.9],
            gpu_grid: vec![],
            ..SweepConfig::quick()
        }
    }

    #[test]
    fn sweep_covers_every_backend_and_point() {
        let r = run_sweep(&tiny());
        assert_eq!(r.backends.len(), 3);
        for b in &r.backends {
            assert_eq!(b.points.len(), r.grid_rps.len());
            assert!(b.capacity_rps > 0.0);
        }
    }

    #[test]
    fn p99_diverges_near_ws_saturation() {
        let r = run_sweep(&tiny());
        let ws = r.backends.iter().find(|b| b.backend == BackendKind::WsBaseline).unwrap();
        let low = ws.points[0].p99_ms.unwrap();
        let knee = ws.points.iter().find(|p| p.offered_rps > 1.1 * ws.capacity_rps).unwrap();
        let knee_p99 = knee.p99_ms.unwrap();
        assert!(knee_p99 > 3.0 * low, "no knee: p99 {low} at low load vs {knee_p99} past saturation");
        // INCA is still flat at the load that saturates WS.
        let inca = r.backends.iter().find(|b| b.backend == BackendKind::Inca).unwrap();
        let inca_there = inca.points.iter().find(|p| p.offered_rps == knee.offered_rps).unwrap();
        assert!(
            inca_there.p99_ms.unwrap() < ServeReport::P99_BOUND_MS,
            "inca p99 {:?} at ws-saturating load",
            inca_there.p99_ms
        );
    }

    #[test]
    fn inca_sustains_more_load_than_ws_at_equal_p99() {
        let r = run_sweep(&tiny());
        let get = |k| r.backends.iter().find(|b| b.backend == k).unwrap();
        let inca = get(BackendKind::Inca).sustainable_rps(ServeReport::P99_BOUND_MS);
        let ws = get(BackendKind::WsBaseline).sustainable_rps(ServeReport::P99_BOUND_MS);
        assert!(inca > ws, "inca sustainable {inca} rps vs ws {ws} rps");
    }

    #[test]
    fn inca_wins_iso_area_sustainable_load() {
        // Fig 15b's framing: normalize by silicon. A Titan RTX is ~16x
        // the INCA die; even where raw GPU throughput is higher, INCA
        // should sustain more load per mm^2.
        let r = run_sweep(&tiny());
        let get = |k| r.backends.iter().find(|b| b.backend == k).unwrap();
        let per_mm2 = |b: &BackendSweep| {
            b.sustainable_rps(ServeReport::P99_BOUND_MS) / (r.chips as f64 * b.area_mm2.mm2())
        };
        let inca = per_mm2(get(BackendKind::Inca));
        let gpu = per_mm2(get(BackendKind::Gpu));
        assert!(inca > gpu, "inca {inca} rps/mm2 vs gpu {gpu} rps/mm2");
    }

    #[test]
    fn report_text_and_json_are_nonempty() {
        let r = run_sweep(&tiny());
        assert!(r.text_table().contains("-- inca"));
        let json = r.to_pretty_json();
        assert!(json.contains("\"p99_ms\""));
        assert!(json.contains("\"energy_per_request_mj\""));
    }
}
