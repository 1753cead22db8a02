//! Fleet-scale serving over the `inca-net` datacenter fabric.
//!
//! Single-site serving ([`crate::run_point`]) treats dispatch as free: a
//! request teleports to its chip and its response teleports back. At
//! hundreds of chips that is the wrong model — the question "how many
//! requests per second can a *rack* sustain under a p99 SLO" is a
//! network question, because every dispatch ships the request's input
//! activations to a chip, every completion ships a response back to its
//! dispatcher (the incast stress case), and every model switch drags a
//! weight image across the fabric before re-programming starts.
//!
//! A fleet point runs the one serving engine with the `Fabric`
//! transport, which moves every transfer as a flow whose packets share
//! the engine's event queue, in one `(time, seq)` order:
//!
//! * an `Arrival` lands at a dispatcher host at the topology edge, which
//!   picks a chip ([`DispatchPolicy`] over its *outstanding-request*
//!   view — the dispatcher cannot see chip queues instantaneously, only
//!   what it has sent and what has come back) and opens a request flow;
//! * the chip admits the request when the flow's last packet arrives,
//!   then batches exactly as on a single site;
//! * a launch that switches models first pulls the weight image from the
//!   model's home dispatcher as a bulk flow (jumbo-MTU DMA chunks), then
//!   pays the programming penalty and compute;
//! * `BatchDone` opens one response flow per member back to its
//!   dispatcher; the request completes when its response is delivered.
//!
//! Everything stays deterministic: integer virtual time, one event
//! queue, rank-select ECMP, per-point derived seeds — so the fleet sweep
//! ([`run_fleet_sweep`]) produces byte-identical `NET_report.json`
//! across worker counts and across permutations of equal-cost paths.

use inca_core::exec::{par_map_indexed, ExecPolicy};
use inca_events::{EventQueue, SimTime};
use inca_net::{
    FlowSpec, LinkSpec, NetConfig, NetEv, NetScheduler, NetTotals, Network, NodeId, Topology, TIER_COUNT,
};
use inca_telemetry as tel;
use inca_units::Bandwidth;
use serde_json::{json, Value};
use std::fmt::Write as _;

use crate::backend::{BackendKind, CostCache};
use crate::chip::{BatchPolicy, Chip, DispatchPolicy};
use crate::engine::{Engine, Ev, RunResult, ServeConfig, Transfer, Transport};
use crate::metrics::PointSummary;
use crate::obs::LinkUtilSeries;
use crate::source::{ArrivalKind, ModelMix};
use crate::sweep::ServeReport;

/// Which fabric the fleet hangs off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetTopo {
    /// A k-ary fat-tree ([`Topology::fat_tree`]); one rack per edge
    /// switch.
    FatTree {
        /// Fat-tree radix (even, ≥ 2).
        k: usize,
        /// Hosts per edge switch (`> k/2` oversubscribes the access tier).
        hosts_per_edge: usize,
    },
    /// A two-tier leaf-spine fabric ([`Topology::leaf_spine`]).
    LeafSpine {
        /// Rack (leaf) switches.
        leaves: usize,
        /// Spine switches.
        spines: usize,
        /// Hosts per leaf.
        hosts_per_leaf: usize,
    },
}

impl FleetTopo {
    /// The default sweep fabric: a k=8 fat-tree with 5 hosts per edge —
    /// 160 hosts across 32 racks, slightly oversubscribed at the access
    /// tier (5 hosts share what 4 would fully subscribe).
    #[must_use]
    pub(crate) fn default_paper() -> Self {
        FleetTopo::FatTree { k: 8, hosts_per_edge: 5 }
    }

    /// Total host count, without building the graph.
    #[must_use]
    pub fn hosts(&self) -> usize {
        match *self {
            FleetTopo::FatTree { k, hosts_per_edge } => k * k / 2 * hosts_per_edge,
            FleetTopo::LeafSpine { leaves, hosts_per_leaf, .. } => leaves * hosts_per_leaf,
        }
    }

    /// Builds the topology with every link at `spec`.
    #[must_use]
    pub(crate) fn build(&self, spec: LinkSpec) -> Topology {
        match *self {
            FleetTopo::FatTree { k, hosts_per_edge } => Topology::fat_tree(k, hosts_per_edge, spec),
            FleetTopo::LeafSpine { leaves, spines, hosts_per_leaf } => {
                Topology::leaf_spine(leaves, spines, hosts_per_leaf, spec)
            }
        }
    }
}

/// Fabric and transfer-size parameters of a fleet run.
#[derive(Debug, Clone, Copy)]
pub struct FleetNetParams {
    /// Bandwidth and per-hop latency of every link.
    pub link: LinkSpec,
    /// Queue discipline, request MTU, DCTCP and routing parameters.
    pub net: NetConfig,
    /// Bytes a dispatch flow ships to the chip (the request's input
    /// activations).
    pub request_bytes: u64,
    /// Bytes a response flow ships back to the dispatcher.
    pub response_bytes: u64,
    /// Weight-image bytes per model parameter (quantized RRAM weights).
    pub weight_bytes_per_param: u64,
    /// Packetization unit for weight flows — bulk DMA chunks, far above
    /// the request MTU so a 100 MB image does not cost 25k events.
    pub weight_mtu_bytes: u32,
}

impl FleetNetParams {
    /// 100 Gb/s links with 500 ns hops, DCTCP over shallow ECN queues,
    /// 147 KB requests (a 224×224×3 image), 4 KB responses, 1 B/param
    /// weight images moved in 64 KB chunks.
    #[must_use]
    pub(crate) fn default_paper() -> Self {
        Self {
            link: LinkSpec { bandwidth: Bandwidth::from_gbps(100.0), latency_ns: 500 },
            net: NetConfig::default_fleet(),
            request_bytes: 150_528,
            response_bytes: 4_096,
            weight_bytes_per_param: 1,
            weight_mtu_bytes: 64 * 1024,
        }
    }
}

/// Configuration of one fleet serving run (one offered-load point).
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Cost model serving the traffic.
    pub backend: BackendKind,
    /// The fabric the fleet hangs off.
    pub topo: FleetTopo,
    /// Hosts acting as dispatchers (spread across racks at a fixed
    /// stride); the remaining hosts are chips.
    pub dispatchers: usize,
    /// Request routing policy, evaluated over the dispatcher's
    /// outstanding-request view of each chip.
    pub policy: DispatchPolicy,
    /// Dynamic batching policy.
    pub batch: BatchPolicy,
    /// Per-chip admission bound on *outstanding* requests (dispatched,
    /// not yet responded); arrivals beyond it are shed.
    pub queue_cap: usize,
    /// Traffic mixture over models.
    pub mix: ModelMix,
    /// Arrival process at the dispatchers.
    pub arrivals: ArrivalKind,
    /// RNG seed for the source.
    pub seed: u64,
    /// Number of requests the source emits.
    pub requests: u64,
    /// Fabric parameters.
    pub net: FleetNetParams,
    /// Per-tier link-utilization sampling interval, virtual ns; `0`
    /// disables the series.
    pub util_sample_interval_ns: SimTime,
    /// Test hook: permute the stored order of equal-cost ECMP candidates
    /// with this seed after route build. Rank-select ECMP makes storage
    /// order inert, so any value must leave the run byte-identical.
    pub ecmp_permute_seed: Option<u64>,
}

impl FleetConfig {
    /// The default fleet: the paper fabric (160 hosts), 8 dispatchers,
    /// 152 chips, model-affinity sharding (each model owns a stripe of
    /// chips; join-shortest-outstanding within the stripe).
    #[must_use]
    pub fn default_fleet(backend: BackendKind, rate_rps: f64) -> Self {
        Self {
            backend,
            topo: FleetTopo::default_paper(),
            dispatchers: 8,
            policy: DispatchPolicy::ModelAffinity,
            batch: BatchPolicy::default_paper(),
            queue_cap: 256,
            mix: ModelMix::paper_serving_mix(),
            arrivals: ArrivalKind::Poisson { rate_rps },
            seed: 0xC0FFEE,
            requests: 2000,
            net: FleetNetParams::default_paper(),
            util_sample_interval_ns: 0,
            ecmp_permute_seed: None,
        }
    }

    /// Chips in the fleet (hosts minus dispatchers).
    #[must_use]
    pub fn num_chips(&self) -> usize {
        self.topo.hosts().saturating_sub(self.dispatchers)
    }

    /// The serving half of the config: what the engine runs over the
    /// fabric, one chip per non-dispatcher host.
    fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            backend: self.backend,
            chips: self.num_chips(),
            policy: self.policy,
            batch: self.batch,
            queue_cap: self.queue_cap,
            mix: self.mix.clone(),
            arrivals: self.arrivals,
            seed: self.seed,
            requests: self.requests,
        }
    }

    fn validate(&self) {
        assert!(self.dispatchers >= 1, "need at least one dispatcher");
        assert!(self.num_chips() >= 1, "need at least one chip behind the dispatchers");
        assert!(self.net.request_bytes > 0 && self.net.response_bytes > 0, "zero-byte transfers");
        assert!(
            u64::from(self.net.weight_mtu_bytes) <= self.net.net.queue.cap_bytes,
            "a weight chunk larger than the queue cap could never be accepted"
        );
    }
}

/// Adapter giving the network the engine's queue under the
/// [`NetScheduler`] contract.
struct Sched<'a>(&'a mut EventQueue<Ev>);

impl NetScheduler for Sched<'_> {
    fn schedule_net(&mut self, at: SimTime, ev: NetEv) {
        self.0.schedule(at, Ev::Net(ev));
    }
}

/// Everything one fleet run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetResult {
    /// The serving outcome. Requests complete when their response reaches
    /// the dispatcher, `events` counts network events too, and the
    /// sampled depth is the dispatchers' outstanding-request count.
    pub run: RunResult,
    /// Aggregate fabric traffic totals.
    pub net: NetTotals,
    /// Cumulative per-tier `(busy_ns, link_count)` accumulators.
    pub tier_busy: [(u64, usize); TIER_COUNT],
    /// Highest single-link mean utilization per tier over the makespan.
    pub max_link_util: [f64; TIER_COUNT],
    /// The sampled per-tier utilization series, when enabled.
    pub util_series: Option<LinkUtilSeries>,
}

impl FleetResult {
    /// Mean per-tier link utilization over the whole makespan
    /// (`[access, aggregation, core]`).
    #[must_use]
    pub(crate) fn tier_util(&self) -> [f64; TIER_COUNT] {
        let mut out = [0.0; TIER_COUNT];
        if self.run.makespan_ns == 0 {
            return out;
        }
        for (slot, &(busy, links)) in self.tier_busy.iter().enumerate() {
            if links > 0 {
                out[slot] = busy as f64 / (links as f64 * self.run.makespan_ns as f64);
            }
        }
        out
    }
}

/// The fabric transport: every transfer is a DCTCP-style flow between a
/// dispatcher host and a chip host.
///
/// Routing, admission and the sampled depth all read `outstanding`, the
/// dispatchers' view of each chip: requests sent and not yet answered.
/// That view is exactly one network round-trip stale, which is the point
/// of modeling the fabric.
struct Fabric {
    net: Network<Transfer>,
    params: FleetNetParams,
    chip_host: Vec<NodeId>,
    disp_host: Vec<NodeId>,
    outstanding: Vec<u32>,
    /// Weight-image bytes per model (params × bytes/param).
    weight_bytes: Vec<u64>,
    util: Option<LinkUtilSeries>,
}

impl Fabric {
    fn new(cfg: &FleetConfig) -> Self {
        cfg.validate();
        let topo = cfg.topo.build(cfg.net.link);
        let hosts = topo.hosts().to_vec();
        // Dispatchers at a fixed stride so they spread across racks; the
        // remaining hosts are chips, in rack order.
        let stride = hosts.len() / cfg.dispatchers;
        let disp_idx: Vec<usize> = (0..cfg.dispatchers).map(|d| d * stride).collect();
        let disp_host: Vec<NodeId> = disp_idx.iter().map(|&i| hosts[i]).collect();
        let chip_host: Vec<NodeId> =
            hosts.iter().enumerate().filter(|(i, _)| !disp_idx.contains(i)).map(|(_, &h)| h).collect();
        let mut net = Network::new(topo, cfg.net.net);
        if let Some(seed) = cfg.ecmp_permute_seed {
            net.routes_mut().permute_equal_cost(seed);
        }
        let weight_bytes: Vec<u64> =
            cfg.mix.models.iter().map(|m| m.spec().param_count() * cfg.net.weight_bytes_per_param).collect();
        Self {
            net,
            params: cfg.net,
            outstanding: vec![0; chip_host.len()],
            chip_host,
            disp_host,
            weight_bytes,
            util: (cfg.util_sample_interval_ns > 0).then(|| LinkUtilSeries::new(cfg.util_sample_interval_ns)),
        }
    }

    /// The dispatcher a request enters at (and returns to): a stateless
    /// edge load balancer striping request ids across dispatchers.
    fn dispatcher(&self, id: u64) -> NodeId {
        self.disp_host[(id % self.disp_host.len() as u64) as usize]
    }

    /// Adds the fabric's totals to the engine's result.
    fn finish(mut self, run: RunResult) -> FleetResult {
        debug_assert_eq!(self.net.flows_in_flight(), 0, "drained queue left flows in flight");
        let tier_busy = self.net.tier_busy();
        if let Some(u) = &mut self.util {
            u.advance(run.makespan_ns, &tier_busy);
        }
        let mut max_link_util = [0.0f64; TIER_COUNT];
        if run.makespan_ns > 0 {
            let span = run.makespan_ns as f64;
            for (def, link) in self.net.topo().links().iter().zip(self.net.links()) {
                let slot = &mut max_link_util[def.tier.slot()];
                *slot = slot.max(link.counters.busy_ns as f64 / span);
            }
        }
        FleetResult { run, net: self.net.totals(), tier_busy, max_link_util, util_series: self.util }
    }
}

impl Transport for Fabric {
    fn route_load(&self, _chips: &[Chip], c: usize) -> usize {
        self.outstanding[c] as usize
    }

    fn backlog(&self, _chips: &[Chip], c: usize) -> usize {
        self.outstanding[c] as usize
    }

    fn send(&mut self, now: SimTime, t: Transfer, queue: &mut EventQueue<Ev>) -> Option<Transfer> {
        let mtu = self.net.config().mtu_bytes;
        let (src, dst, bytes, mtu) = match t {
            Transfer::Request { req, chip } => {
                self.outstanding[chip] += 1;
                (self.dispatcher(req.id), self.chip_host[chip], self.params.request_bytes, mtu)
            }
            // The model store rides with the model's home dispatcher.
            Transfer::Weights { chip, model_idx, .. } => (
                self.disp_host[model_idx % self.disp_host.len()],
                self.chip_host[chip],
                self.weight_bytes[model_idx].max(1),
                self.params.weight_mtu_bytes,
            ),
            Transfer::Response { req, chip, .. } => {
                (self.chip_host[chip], self.dispatcher(req.id), self.params.response_bytes, mtu)
            }
        };
        self.net.start_flow_with_mtu(now, FlowSpec { src, dst, bytes }, t, mtu, &mut Sched(queue));
        None
    }

    fn on_net(&mut self, now: SimTime, ev: NetEv, queue: &mut EventQueue<Ev>) -> Option<Transfer> {
        let delivered = self.net.on_event(now, ev, &mut Sched(queue))?.payload;
        if let Transfer::Response { chip, .. } = delivered {
            debug_assert!(self.outstanding[chip] > 0);
            self.outstanding[chip] = self.outstanding[chip].saturating_sub(1);
        }
        Some(delivered)
    }

    fn advance(&mut self, now: SimTime) {
        if let Some(u) = &mut self.util {
            if u.due(now) {
                u.advance(now, &self.net.tier_busy());
            }
        }
    }
}

/// Runs one fleet point to completion.
///
/// # Panics
///
/// Panics on configuration errors (no dispatchers, no chips, zero-byte
/// transfers, weight chunks above the queue cap).
#[must_use]
// lint: allow(narrow-pub) needed by: crates/serve/tests/golden.rs (fleet golden digests)
pub fn run_fleet_point(config: &FleetConfig) -> FleetResult {
    let mut costs = CostCache::new(config.backend, &config.mix);
    run_fleet_point_with_costs(config, &mut costs)
}

/// [`run_fleet_point`] reusing a warm cost cache (the sweep driver
/// shares one per backend per worker).
///
/// # Panics
///
/// Panics on configuration errors (see [`run_fleet_point`]).
#[must_use]
pub fn run_fleet_point_with_costs(config: &FleetConfig, costs: &mut CostCache) -> FleetResult {
    let fabric = Fabric::new(config);
    let serve = config.serve_config();
    let _span = tel::span("serve.fleet_point");
    let (run, fabric) = Engine::new(&serve, costs, fabric, None).run();
    fabric.finish(run)
}

/// One fleet point, summarized for `NET_report.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetPointSummary {
    /// Offered load, requests/second.
    pub offered_rps: f64,
    /// Requests offered.
    pub offered: u64,
    /// Requests completed (response delivered at the dispatcher).
    pub completed: u64,
    /// Requests shed at the dispatchers.
    pub shed: u64,
    /// Completed throughput, requests/second of virtual time.
    pub throughput_rps: f64,
    /// Median end-to-end latency (arrival → response delivery), ms.
    pub p50_ms: Option<f64>,
    /// 95th-percentile latency, ms.
    pub p95_ms: Option<f64>,
    /// 99th-percentile latency, ms.
    pub p99_ms: Option<f64>,
    /// Mean launched batch size.
    pub mean_batch: f64,
    /// Weight re-programming switches.
    pub switches: u64,
    /// Events processed (compute + network).
    pub events: u64,
    /// Aggregate fabric totals.
    pub net: NetTotals,
    /// Mean per-tier link utilization over the makespan.
    pub tier_util: [f64; TIER_COUNT],
    /// Highest single-link mean utilization per tier.
    pub max_link_util: [f64; TIER_COUNT],
}

impl FleetPointSummary {
    /// Condenses a fleet run at `offered_rps` into report form.
    #[must_use]
    pub fn from_run(offered_rps: f64, run: &FleetResult) -> Self {
        let p = PointSummary::from_run(offered_rps, &run.run);
        Self {
            offered_rps,
            offered: p.offered,
            completed: p.completed,
            shed: p.shed,
            throughput_rps: p.throughput_rps,
            p50_ms: p.p50_ms,
            p95_ms: p.p95_ms,
            p99_ms: p.p99_ms,
            mean_batch: p.mean_batch,
            switches: p.switches,
            events: p.events,
            net: run.net,
            tier_util: run.tier_util(),
            max_link_util: run.max_link_util,
        }
    }

    /// JSON form for the report.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let tiers = |v: &[f64; TIER_COUNT]| Value::Array(v.iter().map(|&u| json!(u)).collect());
        let net = json!({
            "flows": self.net.flows_completed,
            "packets": self.net.packets,
            "bytes": self.net.bytes,
            "drops": self.net.drops,
            "ecn_marks": self.net.ecn_marks,
            "retransmits": self.net.retransmits,
        });
        json!({
            "offered_rps": self.offered_rps,
            "offered": self.offered,
            "completed": self.completed,
            "shed": self.shed,
            "throughput_rps": self.throughput_rps,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "mean_batch": self.mean_batch,
            "switches": self.switches,
            "events": self.events,
            "net": net,
            "tier_util": tiers(&self.tier_util),
            "max_link_util": tiers(&self.max_link_util),
        })
    }
}

/// Configuration of a full fleet sweep.
#[derive(Debug, Clone)]
pub struct FleetSweepConfig {
    /// Backends to drive (report order). The headline is INCA vs WS.
    pub backends: Vec<BackendKind>,
    /// The fabric.
    pub topo: FleetTopo,
    /// Dispatcher hosts.
    pub dispatchers: usize,
    /// Request routing policy.
    pub policy: DispatchPolicy,
    /// Batching policy.
    pub batch: BatchPolicy,
    /// Per-chip outstanding-request admission bound.
    pub queue_cap: usize,
    /// Traffic mixture.
    pub mix: ModelMix,
    /// RNG seed (one stream per point, derived deterministically).
    pub seed: u64,
    /// Requests per offered-load point.
    pub requests_per_point: u64,
    /// Load grid as fractions of the WS baseline's fleet capacity.
    pub ws_grid: Vec<f64>,
    /// Extra grid points as fractions of INCA's fleet capacity (dedup'd
    /// into the shared absolute grid).
    pub inca_grid: Vec<f64>,
    /// Fabric parameters.
    pub net: FleetNetParams,
    /// Per-tier utilization sampling interval per point (`0` disables).
    pub util_sample_interval_ns: SimTime,
    /// Worker threads for the point fan-out: `0` sizes the pool to the
    /// host, `1` forces the sequential path. Purely an execution knob —
    /// every value produces byte-identical reports, which the
    /// determinism suite pins.
    pub workers: usize,
    /// Test hook forwarded to every point's [`FleetConfig`].
    pub ecmp_permute_seed: Option<u64>,
}

impl FleetSweepConfig {
    /// The quick sweep the `experiments net` subcommand runs: INCA vs WS
    /// on the 160-host fat-tree, 152 chips behind 8 dispatchers.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            backends: vec![BackendKind::Inca, BackendKind::WsBaseline],
            topo: FleetTopo::default_paper(),
            dispatchers: 8,
            policy: DispatchPolicy::ModelAffinity,
            batch: BatchPolicy::default_paper(),
            queue_cap: 256,
            mix: ModelMix::paper_serving_mix(),
            seed: 2026,
            requests_per_point: 2000,
            ws_grid: vec![0.2, 0.6, 1.0, 1.3],
            inca_grid: vec![0.5, 0.9],
            net: FleetNetParams::default_paper(),
            util_sample_interval_ns: 0,
            workers: 0,
            ecmp_permute_seed: None,
        }
    }

    /// The full sweep (`--full`): more requests per point for tighter
    /// tails.
    #[must_use]
    pub fn full() -> Self {
        Self { requests_per_point: 6000, ..Self::quick() }
    }

    /// Chips per fleet (hosts minus dispatchers).
    #[must_use]
    pub fn num_chips(&self) -> usize {
        self.topo.hosts().saturating_sub(self.dispatchers)
    }
}

/// One backend's fleet sweep results.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetBackendSweep {
    /// The backend.
    pub backend: BackendKind,
    /// Full-batch fleet capacity (compute-only), requests/second.
    pub capacity_rps: f64,
    /// One summary per grid point, ascending in offered load.
    pub points: Vec<FleetPointSummary>,
}

impl FleetBackendSweep {
    /// Largest offered load whose p99 stays within `bound_ms` with
    /// nothing shed, clamped to the compute capacity — the fleet's
    /// sustainable-load headline.
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

/// The whole fleet sweep: the `NET_report.json` payload.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Per-backend results.
    pub backends: Vec<FleetBackendSweep>,
    /// The shared absolute load grid, requests/second.
    pub grid_rps: Vec<f64>,
    /// Topology builder signature.
    pub topo_name: String,
    /// Total hosts on the fabric.
    pub hosts: usize,
    /// Chips behind the dispatchers.
    pub chips: usize,
    /// Dispatcher hosts.
    pub dispatchers: usize,
    /// Racks (edge switches with hosts).
    pub racks: usize,
    /// Dispatch policy id.
    pub policy: &'static str,
    /// Requests per point.
    pub requests_per_point: u64,
    /// Seed.
    pub seed: u64,
}

impl FleetReport {
    /// The p99 bound for the sustainable-load headline — shared with the
    /// single-site sweep so the two reports are comparable.
    pub(crate) const P99_BOUND_MS: f64 = ServeReport::P99_BOUND_MS;

    /// Machine-readable report (the `NET_report.json` payload). The
    /// headline key is `sustainable_rps_per_rack`.
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
                    "sustainable_rps": sustainable,
                    "sustainable_rps_per_rack": sustainable / self.racks as f64,
                    "points": Value::Array(b.points.iter().map(FleetPointSummary::to_json).collect::<Vec<_>>()),
                })
            })
            .collect();
        json!({
            "report": "inca-serve fleet sweep over inca-net",
            "p99_bound_ms": Self::P99_BOUND_MS,
            "topology": self.topo_name,
            "hosts": self.hosts as u64,
            "chips": self.chips as u64,
            "dispatchers": self.dispatchers as u64,
            "racks": self.racks as u64,
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
        // Built from plain numbers and strings; serialization of such a
        // tree is infallible by construction.
        // lint: allow(panic-path)
        serde_json::to_string_pretty(&self.to_json()).expect("report serializes")
    }

    /// Human-readable sweep table.
    #[must_use]
    pub fn text_table(&self) -> String {
        let mut s = format!(
            "{} on {} ({} chips + {} dispatchers, {} racks), {} requests/point, seed {}\n",
            self.policy,
            self.topo_name,
            self.chips,
            self.dispatchers,
            self.racks,
            self.requests_per_point,
            self.seed
        );
        for b in &self.backends {
            let sustainable = b.sustainable_rps(Self::P99_BOUND_MS);
            let _ = writeln!(
                s,
                "-- {} (compute capacity {:.0} rps; sustainable@p99<{}ms {:.0} rps = {:.1} rps/rack)",
                b.backend,
                b.capacity_rps,
                Self::P99_BOUND_MS,
                sustainable,
                sustainable / self.racks as f64
            );
            let _ = writeln!(
                s,
                "   offered rps | done | shed |  p50 ms |  p99 ms | batch | drops | marks | rxmit | util a/g/c"
            );
            let fmt_ms = |v: Option<f64>| v.map_or_else(|| format!("{:>7}", "n/a"), |x| format!("{x:>7.2}"));
            for p in &b.points {
                let _ = writeln!(
                    s,
                    "   {:>11.0} | {:>4} | {:>4} | {} | {} | {:>5.1} | {:>5} | {:>5} | {:>5} | {:.2}/{:.2}/{:.2}",
                    p.offered_rps,
                    p.completed,
                    p.shed,
                    fmt_ms(p.p50_ms),
                    fmt_ms(p.p99_ms),
                    p.mean_batch,
                    p.net.drops,
                    p.net.ecn_marks,
                    p.net.retransmits,
                    p.tier_util[0],
                    p.tier_util[1],
                    p.tier_util[2],
                );
            }
        }
        s
    }
}

/// Runs the fleet sweep: builds the shared grid from the WS and INCA
/// fleet capacities, then drives every backend across it on the worker
/// pool. Results are keyed by point index, so every `workers` value
/// yields byte-identical reports.
#[must_use]
pub fn run_fleet_sweep(cfg: &FleetSweepConfig) -> FleetReport {
    let _span = tel::span("serve.fleet_sweep");
    let chips = cfg.num_chips();
    let cap_of = |kind: BackendKind| {
        let mut cache = CostCache::new(kind, &cfg.mix);
        cache.capacity_rps(&cfg.mix, chips)
    };
    let cap_ws = cap_of(BackendKind::WsBaseline);
    let cap_inca = cap_of(BackendKind::Inca);

    let mut grid_rps: Vec<f64> = cfg.ws_grid.iter().map(|r| r * cap_ws).collect();
    for r in &cfg.inca_grid {
        let g = r * cap_inca;
        if !grid_rps.iter().any(|&x| (x - g).abs() / g < 0.05) {
            grid_rps.push(g);
        }
    }
    grid_rps.sort_by(f64::total_cmp);

    let n_grid = grid_rps.len();
    let n_points = cfg.backends.len() * n_grid;
    let pool = match cfg.workers {
        0 => ExecPolicy::parallel(),
        w => ExecPolicy::parallel_with(w),
    };
    let summaries = par_map_indexed(
        pool,
        n_points,
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
            let point_cfg = FleetConfig {
                backend,
                topo: cfg.topo,
                dispatchers: cfg.dispatchers,
                policy: cfg.policy,
                batch: cfg.batch,
                queue_cap: cfg.queue_cap,
                mix: cfg.mix.clone(),
                arrivals: ArrivalKind::Poisson { rate_rps: rate },
                // One deterministic stream per (backend, point).
                seed: cfg.seed ^ ((bi as u64) << 32) ^ gi as u64,
                requests: cfg.requests_per_point,
                net: cfg.net,
                util_sample_interval_ns: cfg.util_sample_interval_ns,
                ecmp_permute_seed: cfg.ecmp_permute_seed,
            };
            let run = run_fleet_point_with_costs(&point_cfg, cache);
            FleetPointSummary::from_run(rate, &run)
        },
    );

    let topo = cfg.topo.build(cfg.net.link);
    let mut backends = Vec::with_capacity(cfg.backends.len());
    let mut summaries = summaries.into_iter();
    for &backend in &cfg.backends {
        let mut cache = CostCache::new(backend, &cfg.mix);
        let capacity_rps = cache.capacity_rps(&cfg.mix, chips);
        let points: Vec<FleetPointSummary> = summaries.by_ref().take(n_grid).collect();
        backends.push(FleetBackendSweep { backend, capacity_rps, points });
    }

    FleetReport {
        backends,
        grid_rps,
        topo_name: topo.name().to_string(),
        hosts: topo.hosts().len(),
        chips,
        dispatchers: cfg.dispatchers,
        racks: topo.racks(),
        policy: cfg.policy.id(),
        requests_per_point: cfg.requests_per_point,
        seed: cfg.seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CompletedRequest;
    use inca_workloads::Model;

    fn small(backend: BackendKind, rate: f64, requests: u64) -> FleetConfig {
        let mut cfg = FleetConfig::default_fleet(backend, rate);
        cfg.topo = FleetTopo::LeafSpine { leaves: 4, spines: 2, hosts_per_leaf: 4 };
        cfg.dispatchers = 2;
        cfg.requests = requests;
        cfg.mix = ModelMix::new(vec![Model::ResNet18, Model::MobileNetV2], vec![2.0, 1.0]);
        cfg
    }

    #[test]
    fn all_requests_complete_or_shed() {
        let cfg = small(BackendKind::Inca, 2000.0, 300);
        let r = run_fleet_point(&cfg);
        assert_eq!(r.run.completed.len() as u64 + r.run.shed, 300);
        assert_eq!(r.run.offered, 300);
        assert_eq!(r.net.flows_completed, r.net.flows_started);
        // Request + response flows at minimum (weight flows on top).
        assert!(r.net.flows_completed >= 2 * r.run.completed.len() as u64);
    }

    #[test]
    fn latency_includes_network_time() {
        let cfg = small(BackendKind::Inca, 2000.0, 200);
        let r = run_fleet_point(&cfg);
        assert!(!r.run.completed.is_empty());
        for c in &r.run.completed {
            // End-to-end latency covers the request flow, service, and
            // the response flow — it can never be below service alone.
            assert!(c.latency_ns() > c.service_ns, "request {} skipped the network", c.id);
        }
    }

    #[test]
    fn network_makes_latency_strictly_worse_than_teleport() {
        // The same traffic on free dispatch must complete no later than
        // through the fabric. Both runs use round-robin so their dispatch
        // decisions are identical and the only difference left is the
        // transport (flows + weight transfers vs teleportation).
        let mut fleet_cfg = small(BackendKind::Inca, 5000.0, 300);
        fleet_cfg.policy = DispatchPolicy::RoundRobin;
        let fleet = run_fleet_point(&fleet_cfg);
        let mut serve_cfg = crate::engine::ServeConfig::default_fleet(BackendKind::Inca, 5000.0);
        serve_cfg.policy = DispatchPolicy::RoundRobin;
        serve_cfg.chips = fleet_cfg.num_chips();
        serve_cfg.mix = fleet_cfg.mix.clone();
        serve_cfg.seed = fleet_cfg.seed;
        serve_cfg.requests = fleet_cfg.requests;
        serve_cfg.queue_cap = fleet_cfg.queue_cap;
        let serve = crate::engine::run_point(&serve_cfg);
        let mean = |done: &[CompletedRequest]| {
            done.iter().map(|c| c.latency_ns() as f64).sum::<f64>() / done.len() as f64
        };
        assert!(!fleet.run.completed.is_empty() && !serve.completed.is_empty());
        assert!(
            mean(&fleet.run.completed) > mean(&serve.completed),
            "fabric transfers must cost latency: fleet {} vs teleport {}",
            mean(&fleet.run.completed),
            mean(&serve.completed)
        );
    }

    #[test]
    fn switching_pulls_weight_flows() {
        // Round-robin over a 2-model mix forces residency churn; every
        // switch must appear as a bulk flow beyond request + response.
        let mut cfg = small(BackendKind::Inca, 5000.0, 400);
        cfg.policy = DispatchPolicy::RoundRobin;
        let r = run_fleet_point(&cfg);
        assert!(r.run.switches > 0, "round-robin over two models must switch");
        let base = 2 * r.run.completed.len() as u64;
        assert_eq!(r.net.flows_completed, base + r.run.switches);
        // Weight images dominate the byte count.
        assert!(r.net.bytes > r.run.switches * 1_000_000, "weight bytes missing");
    }

    #[test]
    fn affinity_needs_no_weight_flows() {
        let mut cfg = small(BackendKind::Inca, 5000.0, 400);
        cfg.policy = DispatchPolicy::ModelAffinity;
        let r = run_fleet_point(&cfg);
        assert_eq!(r.run.switches, 0);
        assert_eq!(r.net.flows_completed, 2 * r.run.completed.len() as u64);
    }

    #[test]
    fn shedding_respects_outstanding_cap() {
        let mut cfg = small(BackendKind::WsBaseline, 1e6, 400);
        cfg.queue_cap = 4;
        let r = run_fleet_point(&cfg);
        assert!(r.run.shed > 0, "extreme overload must shed at the dispatchers");
        assert_eq!(r.run.completed.len() as u64 + r.run.shed, 400);
    }

    #[test]
    fn util_series_samples_when_enabled() {
        let mut cfg = small(BackendKind::Inca, 5000.0, 200);
        cfg.util_sample_interval_ns = 1_000_000;
        let r = run_fleet_point(&cfg);
        let series = r.util_series.as_ref().expect("series enabled");
        assert!(!series.is_empty());
        assert!(series.times_ns().last().is_some_and(|&t| t <= r.run.makespan_ns));
        // Traffic flowed, so some access-tier interval saw utilization.
        assert!(series.peak()[0] > 0.0);
        // Aggregate accounting agrees with the series' inputs.
        assert!(r.tier_util()[0] > 0.0);
    }

    #[test]
    fn fleet_point_is_deterministic() {
        let cfg = small(BackendKind::Inca, 3000.0, 250);
        let a = run_fleet_point(&cfg);
        let b = run_fleet_point(&cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn ecmp_permutation_is_invisible_end_to_end() {
        let base = small(BackendKind::Inca, 3000.0, 250);
        let a = run_fleet_point(&base);
        for seed in [7u64, 0xFEED_FACE] {
            let mut cfg = base.clone();
            cfg.ecmp_permute_seed = Some(seed);
            let b = run_fleet_point(&cfg);
            assert_eq!(a, b, "equal-cost storage order leaked into results (seed {seed})");
        }
    }

    fn tiny_sweep() -> FleetSweepConfig {
        FleetSweepConfig {
            topo: FleetTopo::LeafSpine { leaves: 4, spines: 2, hosts_per_leaf: 4 },
            dispatchers: 2,
            requests_per_point: 250,
            ws_grid: vec![0.3, 1.0],
            inca_grid: vec![0.8],
            mix: ModelMix::new(vec![Model::ResNet18, Model::MobileNetV2], vec![2.0, 1.0]),
            ..FleetSweepConfig::quick()
        }
    }

    #[test]
    fn sweep_covers_every_backend_and_point() {
        let r = run_fleet_sweep(&tiny_sweep());
        assert_eq!(r.backends.len(), 2);
        assert_eq!(r.chips, 14);
        assert_eq!(r.racks, 4);
        for b in &r.backends {
            assert_eq!(b.points.len(), r.grid_rps.len());
            assert!(b.capacity_rps > 0.0);
        }
    }

    #[test]
    fn inca_sustains_more_fleet_load_than_ws() {
        let r = run_fleet_sweep(&tiny_sweep());
        let get = |k| r.backends.iter().find(|b| b.backend == k).unwrap();
        let inca = get(BackendKind::Inca).sustainable_rps(FleetReport::P99_BOUND_MS);
        let ws = get(BackendKind::WsBaseline).sustainable_rps(FleetReport::P99_BOUND_MS);
        assert!(inca > ws, "inca sustainable {inca} rps vs ws {ws} rps");
    }

    #[test]
    fn report_text_and_json_are_nonempty() {
        let r = run_fleet_sweep(&tiny_sweep());
        assert!(r.text_table().contains("-- inca"));
        let json = r.to_pretty_json();
        assert!(json.contains("\"sustainable_rps_per_rack\""));
        assert!(json.contains("\"tier_util\""));
    }
}
