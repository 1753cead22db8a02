//! `inca-serve` — a deterministic discrete-event inference *serving*
//! simulator layered on the INCA analytical cost models.
//!
//! The rest of the workspace answers per-model questions (one inference,
//! one training step). This crate models the production question: a
//! stream of requests from many users hitting a fleet of chips. The
//! paper's structural asset for serving is the 3D HRRAM stack's 64
//! shared-pillar planes (§IV-B): a whole batch executes in the cycle
//! count of one image, so INCA's batch service time is nearly flat in
//! batch size — exactly what a dynamic batcher wants to exploit. The
//! weight-stationary baseline pays roughly linear batch latency, and the
//! GPU roofline sits in between; serving the same traffic through all
//! three shows where each saturates.
//!
//! Pieces:
//!
//! * [`EventQueue`] — the shared `inca-events` calendar future-event
//!   list over an integer virtual-time clock; no wall-clock anywhere,
//!   ties broken by schedule order, so runs are bit-reproducible.
//! * [`ArrivalKind`] — Poisson and bursty (2-state MMPP) arrivals over
//!   a weighted [`ModelMix`].
//! * [`BatchPolicy`] — per-chip dynamic batcher: accumulate
//!   per model until the batch fills (≤ the backend's plane count) or
//!   the oldest request has waited `max_wait`, then occupy the stack.
//! * [`DispatchPolicy`] — round-robin, join-shortest-queue, or
//!   model-affinity sharding (which amortizes weight re-programming);
//!   per-chip admission control sheds load beyond `queue_cap`.
//! * [`CostCache`] / [`BackendKind`] — batch latency/energy memoized
//!   from `inca_sim::simulate_inference` (INCA and WS) and the Titan RTX
//!   roofline.
//! * One serving event loop with a pluggable transport, which decides
//!   how requests, weight images and responses travel and what load the
//!   dispatcher sees. [`run_point`] / [`run_sweep`] run it with free
//!   dispatch: one offered-load point, and the full latency-vs-load
//!   sweep behind `experiments serve` / `SERVE_report.json`.
//! * [`ObsConfig`] / [`run_point_observed`] — the observability layer:
//!   per-request Chrome tracing, a periodic virtual-time sampler, and
//!   SLO burn-rate monitoring, all purely observational (an observed
//!   run returns the identical [`RunResult`]) and byte-reproducible.
//! * [`FleetConfig`] / [`run_fleet_sweep`] — the same loop at datacenter
//!   scale over an `inca-net` fabric: 152 chips + 8 dispatchers on a
//!   k = 8 fat-tree, every dispatch / response / weight transfer a
//!   DCTCP-style flow on the engine's event queue, headline "sustainable
//!   rps per rack under the p99 SLO" behind `experiments net` /
//!   `NET_report.json`.
//!
//! # Examples
//!
//! ```
//! use inca_serve::{run_point, BackendKind, ServeConfig};
//!
//! let mut cfg = ServeConfig::default_fleet(BackendKind::Inca, 1000.0);
//! cfg.requests = 200;
//! let run = run_point(&cfg);
//! assert_eq!(run.completed.len() as u64 + run.shed, 200);
//! // No time travel: a request's latency includes its batch's service.
//! assert!(run.completed.iter().all(|c| c.done_ns - c.arrival_ns >= c.service_ns));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod chip;
mod engine;
mod fleet;
mod metrics;
mod obs;
mod source;
mod sweep;

pub use backend::{BackendKind, CostCache};
pub use chip::{BatchPolicy, DispatchPolicy};
pub use engine::{
    run_point, run_point_observed, run_point_with_costs, CompletedRequest, RunResult, ServeConfig,
};
pub use fleet::{
    run_fleet_point, run_fleet_point_with_costs, run_fleet_sweep, FleetBackendSweep, FleetConfig,
    FleetNetParams, FleetPointSummary, FleetReport, FleetResult, FleetSweepConfig, FleetTopo,
};
pub use inca_events::{ns_to_ms, ns_to_secs, secs_to_ns, EventQueue, SimTime};
pub use metrics::PointSummary;
pub use obs::{LinkUtilSeries, ObsConfig, ObsOutput, SloPolicy, SloViolation};
pub use source::{ArrivalKind, ModelMix};
pub use sweep::{run_sweep, BackendSweep, ServeReport, SweepConfig};
