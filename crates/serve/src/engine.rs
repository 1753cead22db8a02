//! The serving engine: one offered-load point simulated end to end.
//!
//! Event flow: a request source feeds `Arrival` events; the dispatcher
//! routes each request to a chip (or sheds it when the chip is full);
//! the per-chip dynamic batcher launches batches when they fill or time
//! out; `BatchDone` answers every member and immediately re-arms the
//! chip. The loop is single-threaded and fully deterministic: same
//! config + seed → the same event sequence, counters and report bytes.
//!
//! This is the only serving event loop. A [`Transport`] decides how
//! requests, weight images and responses travel between dispatchers and
//! chips, and what load the dispatcher sees: [`Ideal`] hands every
//! transfer back at once (single-site serving), while the fleet's
//! `Fabric` moves each one as an `inca-net` flow on the same queue.

use inca_events::{EventQueue, SimTime, Slab, SlabKey};
use inca_net::NetEv;
use inca_telemetry as tel;
use inca_units::Energy;

use crate::backend::{BackendKind, CostCache};
use crate::chip::{BatchPolicy, Chip, DispatchPolicy, Request};
use crate::obs::{BatchLaunch, ObsConfig, ObsOutput, ObsRecorder};
use crate::source::{ArrivalKind, ModelMix, RequestSource};

/// Configuration of one serving run (one offered-load point).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Cost model serving the traffic.
    pub backend: BackendKind,
    /// Number of identical chips in the fleet (at least one).
    pub chips: usize,
    /// Request routing policy.
    pub policy: DispatchPolicy,
    /// Dynamic batching policy (max batch is clamped to the backend's
    /// plane count).
    pub batch: BatchPolicy,
    /// Per-chip admission bound: arrivals routed to a chip with this
    /// many requests backlogged are shed. The backlog is the chip's
    /// waiting requests on a single site, and the requests sent to it
    /// and not yet answered over a fleet fabric.
    pub queue_cap: usize,
    /// Traffic mixture over models.
    pub mix: ModelMix,
    /// Arrival process.
    pub arrivals: ArrivalKind,
    /// RNG seed for the source.
    pub seed: u64,
    /// Number of requests the source emits.
    pub requests: u64,
}

impl ServeConfig {
    /// A small default fleet: 4 chips, join-shortest-queue, the paper
    /// batching policy, Poisson arrivals over the serving mix.
    #[must_use]
    pub fn default_fleet(backend: BackendKind, rate_rps: f64) -> Self {
        Self {
            backend,
            chips: 4,
            policy: DispatchPolicy::JoinShortestQueue,
            batch: BatchPolicy::default_paper(),
            queue_cap: 1024,
            mix: ModelMix::paper_serving_mix(),
            arrivals: ArrivalKind::Poisson { rate_rps },
            seed: 0xC0FFEE,
            requests: 2000,
        }
    }

    /// The effective max batch after clamping to the backend.
    #[must_use]
    pub(crate) fn effective_max_batch(&self) -> usize {
        self.batch.max_batch.min(self.backend.max_batch()).max(1)
    }
}

/// One completed request with its full timing provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedRequest {
    /// Request id (arrival order).
    pub id: u64,
    /// Model index in the mix.
    pub model_idx: usize,
    /// Arrival time, ns.
    pub arrival_ns: SimTime,
    /// Completion time, ns.
    pub done_ns: SimTime,
    /// Size of the batch it rode in.
    pub batch_size: usize,
    /// Service occupancy of that batch (including any switch penalty), ns.
    pub service_ns: SimTime,
}

impl CompletedRequest {
    /// End-to-end latency (queueing + batching wait + service), ns.
    #[must_use]
    pub(crate) fn latency_ns(&self) -> SimTime {
        self.done_ns - self.arrival_ns
    }
}

/// Everything one serving run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Completed requests in delivery order: batch-completion order on
    /// free dispatch, response-delivery order over a fabric.
    pub completed: Vec<CompletedRequest>,
    /// Requests dropped by admission control.
    pub shed: u64,
    /// Virtual time of the last delivered completion, ns.
    pub makespan_ns: SimTime,
    /// Total energy of all launched batches.
    pub energy_j: Energy,
    /// `hist[s]` = number of batches launched with size `s`
    /// (index 0 unused).
    pub batch_hist: Vec<u64>,
    /// Total weight re-programming switches across the fleet.
    pub switches: u64,
    /// Discrete events processed by the engine.
    pub events: u64,
    /// Sum of the fleet backlog the dispatcher sees, sampled at each
    /// arrival (for the mean).
    pub queue_depth_sum: u64,
    /// Largest single-chip admitted queue depth observed.
    pub max_queue_depth: usize,
    /// Requests offered (completed + shed).
    pub offered: u64,
}

impl RunResult {
    /// Completed-request throughput in requests/second of virtual time.
    #[must_use]
    pub(crate) fn throughput_rps(&self) -> f64 {
        if self.makespan_ns == 0 {
            return 0.0;
        }
        self.completed.len() as f64 / (self.makespan_ns as f64 / 1e9)
    }

    /// Mean launched batch size.
    #[must_use]
    pub(crate) fn mean_batch(&self) -> f64 {
        let batches: u64 = self.batch_hist.iter().sum();
        if batches == 0 {
            return 0.0;
        }
        let total: u64 = self.batch_hist.iter().enumerate().map(|(s, &n)| s as u64 * n).sum();
        total as f64 / batches as f64
    }

    /// Energy per completed request.
    #[must_use]
    pub(crate) fn energy_per_request_j(&self) -> Energy {
        if self.completed.is_empty() {
            return Energy::ZERO;
        }
        self.energy_j / self.completed.len() as f64
    }

    /// Mean fleet queue depth seen by arrivals.
    #[must_use]
    pub(crate) fn mean_queue_depth(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        self.queue_depth_sum as f64 / self.offered as f64
    }
}

/// The event vocabulary: compute events and, over a fabric, network
/// events, in one queue and one `(time, seq)` order.
pub(crate) enum Ev {
    /// A request reaches its dispatcher.
    Arrival(Request),
    /// A network-internal event (hop, deliver, ack, loss).
    Net(NetEv),
    /// An idle chip's batching window may have expired.
    BatchTimeout { chip: usize },
    /// A chip finishes its in-flight batch (members parked in the arena).
    BatchDone { chip: usize, batch: SlabKey, service_ns: SimTime },
}

/// Something a [`Transport`] moves; the engine acts on it when it arrives.
pub(crate) enum Transfer {
    /// A dispatched request, bound for its chip's batcher.
    Request { req: Request, chip: usize },
    /// The weight image a switching launch needs; programming and
    /// compute (`service_ns`) start when it lands.
    Weights { chip: usize, model_idx: usize, batch: SlabKey, service_ns: SimTime },
    /// One batch member's response, bound for its dispatcher; the request
    /// completes when it lands.
    Response { req: Request, chip: usize, batch_size: usize, service_ns: SimTime },
}

/// How transfers travel between dispatchers and chips, and what the
/// dispatcher knows about each chip's load.
pub(crate) trait Transport {
    /// The load routing compares for chip `c`.
    fn route_load(&self, chips: &[Chip], c: usize) -> usize;
    /// The backlog admission control holds to `queue_cap` for chip `c`;
    /// its sum over chips is the depth sampled at each arrival.
    fn backlog(&self, chips: &[Chip], c: usize) -> usize;
    /// Starts moving `t`. Returns it when it has already arrived;
    /// otherwise [`Self::on_net`] returns it later.
    fn send(&mut self, now: SimTime, t: Transfer, queue: &mut EventQueue<Ev>) -> Option<Transfer>;
    /// Advances one network event, returning the transfer it completed.
    fn on_net(&mut self, now: SimTime, ev: NetEv, queue: &mut EventQueue<Ev>) -> Option<Transfer>;
    /// Samples transport state before the event at `now` runs.
    fn advance(&mut self, _now: SimTime) {}
}

/// Free dispatch: every transfer arrives the moment it is sent, handed
/// back inside the same handler, so it costs no event. The dispatcher
/// sees the chips' live state: it routes on `queued + in_flight` and
/// admits on `queued`.
pub(crate) struct Ideal;

impl Transport for Ideal {
    fn route_load(&self, chips: &[Chip], c: usize) -> usize {
        chips[c].load()
    }

    fn backlog(&self, chips: &[Chip], c: usize) -> usize {
        chips[c].queued
    }

    fn send(&mut self, _now: SimTime, t: Transfer, _queue: &mut EventQueue<Ev>) -> Option<Transfer> {
        Some(t)
    }

    fn on_net(&mut self, _now: SimTime, _ev: NetEv, _queue: &mut EventQueue<Ev>) -> Option<Transfer> {
        // No flow ever starts, so no network event is ever scheduled.
        None
    }
}

/// Recycled storage for in-flight batches: a generation-checked slab
/// parks each launched batch under a copyable key (so `Ev::BatchDone`
/// stays `Copy`-sized), and completed buffers return to a spare pool —
/// steady-state serving launches allocate nothing.
struct BatchArena {
    in_flight: Slab<Vec<Request>>,
    spare: Vec<Vec<Request>>,
}

impl BatchArena {
    fn new() -> Self {
        Self { in_flight: Slab::new(), spare: Vec::new() }
    }

    /// A cleared buffer, recycled when one is available.
    fn buf(&mut self) -> Vec<Request> {
        self.spare.pop().unwrap_or_default()
    }

    /// Parks a launched batch, returning its key.
    fn park(&mut self, batch: Vec<Request>) -> SlabKey {
        self.in_flight.insert(batch)
    }

    /// Reclaims the batch behind `key` (`None` iff the key is stale).
    fn reclaim(&mut self, key: SlabKey) -> Option<Vec<Request>> {
        self.in_flight.remove(key)
    }

    /// Returns a completed buffer to the spare pool.
    fn recycle(&mut self, mut batch: Vec<Request>) {
        batch.clear();
        self.spare.push(batch);
    }
}

/// Runs one serving point to completion and returns the full result.
///
/// # Panics
///
/// Panics on configuration errors (zero chips, empty mix).
#[must_use]
pub fn run_point(config: &ServeConfig) -> RunResult {
    let _span = tel::span("serve.point");
    let mut costs = CostCache::new(config.backend, &config.mix);
    run_point_with_costs(config, &mut costs)
}

/// [`run_point`] with the observability layer attached: tracing, the
/// periodic sampler, and SLO burn-rate monitoring per `obs_cfg`.
///
/// The recorder only *observes* the run — the returned [`RunResult`] is
/// bit-for-bit the one an unobserved [`run_point`] produces.
///
/// # Panics
///
/// Panics on configuration errors (zero chips, empty mix).
#[must_use]
pub fn run_point_observed(config: &ServeConfig, obs_cfg: &ObsConfig) -> (RunResult, ObsOutput) {
    let _span = tel::span("serve.point");
    let mut costs = CostCache::new(config.backend, &config.mix);
    let mut rec = ObsRecorder::new(obs_cfg, config.chips, &config.mix);
    let (result, Ideal) = Engine::new(config, &mut costs, Ideal, Some(&mut rec)).run();
    (result, rec.finish())
}

/// [`run_point`] reusing a warm cost cache (the sweep driver shares one
/// cache per backend so (model, batch) costs are priced once).
///
/// # Panics
///
/// Panics on configuration errors (zero chips, empty mix).
#[must_use]
pub fn run_point_with_costs(config: &ServeConfig, costs: &mut CostCache) -> RunResult {
    Engine::new(config, costs, Ideal, None).run().0
}

/// One run's full mutable state. The recorder, when present, is fed pure
/// observations and cannot alter scheduling.
pub(crate) struct Engine<'a, T: Transport> {
    cfg: &'a ServeConfig,
    costs: &'a mut CostCache,
    transport: T,
    obs: Option<&'a mut ObsRecorder>,
    queue: EventQueue<Ev>,
    chips: Vec<Chip>,
    arena: BatchArena,
    source: RequestSource,
    rr_cursor: usize,
    next_id: u64,
    max_batch: usize,
    result: RunResult,
}

impl<'a, T: Transport> Engine<'a, T> {
    /// An engine at time zero.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.chips` is zero.
    pub(crate) fn new(
        cfg: &'a ServeConfig,
        costs: &'a mut CostCache,
        transport: T,
        obs: Option<&'a mut ObsRecorder>,
    ) -> Self {
        assert!(cfg.chips >= 1, "need at least one chip");
        let max_batch = cfg.effective_max_batch();
        Self {
            cfg,
            costs,
            transport,
            obs,
            queue: EventQueue::new(),
            chips: (0..cfg.chips).map(|_| Chip::new(cfg.mix.len())).collect(),
            arena: BatchArena::new(),
            source: RequestSource::new(cfg.arrivals, cfg.mix.clone(), cfg.seed, cfg.requests),
            rr_cursor: 0,
            next_id: 0,
            max_batch,
            result: RunResult {
                completed: Vec::with_capacity(cfg.requests as usize),
                shed: 0,
                makespan_ns: 0,
                energy_j: Energy::ZERO,
                batch_hist: vec![0; max_batch + 1],
                switches: 0,
                events: 0,
                queue_depth_sum: 0,
                max_queue_depth: 0,
                offered: 0,
            },
        }
    }

    /// Drains the queue and returns the result with the transport, whose
    /// final state the fleet reports.
    pub(crate) fn run(mut self) -> (RunResult, T) {
        self.schedule_next_arrival();
        while let Some((now, ev)) = self.queue.pop() {
            self.transport.advance(now);
            if let Some(rec) = self.obs.as_deref_mut() {
                rec.advance(now, &self.chips);
            }
            match ev {
                Ev::Arrival(req) => self.on_arrival(now, req),
                Ev::Net(ev) => {
                    if let Some(t) = self.transport.on_net(now, ev, &mut self.queue) {
                        self.deliver(now, t);
                    }
                }
                Ev::BatchTimeout { chip } => self.on_timeout(now, chip),
                Ev::BatchDone { chip, batch, service_ns } => self.on_batch_done(now, chip, batch, service_ns),
            }
        }
        if let Some(rec) = self.obs {
            // Flush the sampler's trailing rows from the final chip state.
            rec.advance(self.result.makespan_ns, &self.chips);
        }
        self.result.events = self.queue.processed();
        self.result.switches = self.chips.iter().map(|c| c.switches).sum();
        (self.result, self.transport)
    }

    fn schedule_next_arrival(&mut self) {
        if let Some((at, model_idx)) = self.source.next_request() {
            self.queue.schedule(at, Ev::Arrival(Request { id: self.next_id, model_idx, arrival_ns: at }));
            self.next_id += 1;
        }
    }

    fn on_arrival(&mut self, now: SimTime, req: Request) {
        // Chain the next arrival before anything else so source order is
        // independent of service and network events.
        self.schedule_next_arrival();
        self.result.offered += 1;
        let (chips, transport) = (&self.chips, &self.transport);
        let c = self.cfg.policy.choose(
            chips.len(),
            self.cfg.mix.len(),
            req.model_idx,
            |i| transport.route_load(chips, i),
            &mut self.rr_cursor,
        );
        self.result.queue_depth_sum +=
            (0..chips.len()).map(|i| transport.backlog(chips, i) as u64).sum::<u64>();
        if transport.backlog(chips, c) >= self.cfg.queue_cap {
            self.result.shed += 1;
            tel::incr(tel::Event::ServeRequestShed);
            if let Some(rec) = self.obs.as_deref_mut() {
                rec.on_shed(&req);
            }
            return;
        }
        tel::incr(tel::Event::ServeRequestAdmitted);
        if let Some(rec) = self.obs.as_deref_mut() {
            rec.on_admit(&req, c);
        }
        self.send(now, Transfer::Request { req, chip: c });
    }

    // Inlined (as is `deliver`) so that on `Ideal`, where the transfer
    // comes straight back, each call site's match on its own transfer
    // kind folds away: the single-site hot path stays a direct call.
    #[inline(always)]
    fn send(&mut self, now: SimTime, t: Transfer) {
        if let Some(t) = self.transport.send(now, t, &mut self.queue) {
            self.deliver(now, t);
        }
    }

    /// Acts on a transfer that has arrived.
    #[inline(always)]
    fn deliver(&mut self, now: SimTime, t: Transfer) {
        match t {
            Transfer::Request { req, chip } => self.on_request(now, req, chip),
            Transfer::Weights { chip, batch, service_ns, .. } => {
                self.queue.schedule(now + service_ns, Ev::BatchDone { chip, batch, service_ns });
            }
            Transfer::Response { req, chip, batch_size, service_ns } => {
                if let Some(rec) = self.obs.as_deref_mut() {
                    rec.on_complete(chip, &req, now);
                }
                self.result.completed.push(CompletedRequest {
                    id: req.id,
                    model_idx: req.model_idx,
                    arrival_ns: req.arrival_ns,
                    done_ns: now,
                    batch_size,
                    service_ns,
                });
                self.result.makespan_ns = self.result.makespan_ns.max(now);
            }
        }
    }

    fn on_request(&mut self, now: SimTime, req: Request, chip: usize) {
        self.chips[chip].admit(req);
        self.result.max_queue_depth = self.result.max_queue_depth.max(self.chips[chip].queued);
        if !self.chips[chip].busy() {
            if self.chips[chip].depth(req.model_idx) >= self.max_batch {
                self.launch(now, chip, req.model_idx);
            } else {
                // Hold the batch open; fire a timeout at this request's
                // deadline. Stale timeouts re-check state and no-op, so
                // over-scheduling is safe.
                self.queue
                    .schedule(now.saturating_add(self.cfg.batch.max_wait_ns), Ev::BatchTimeout { chip });
            }
        }
    }

    fn on_timeout(&mut self, now: SimTime, chip: usize) {
        let ch = &self.chips[chip];
        if ch.busy() {
            return;
        }
        // Launch the longest-waiting model iff its window truly expired
        // (this event may be stale).
        let Some((m, head)) = ch.oldest_model().and_then(|m| ch.head_arrival(m).map(|head| (m, head))) else {
            return;
        };
        if now.saturating_sub(head) >= self.cfg.batch.max_wait_ns || ch.depth(m) >= self.max_batch {
            self.launch(now, chip, m);
        } else if let Some(deadline) = ch.earliest_deadline(self.cfg.batch.max_wait_ns) {
            self.queue.schedule(deadline.max(now), Ev::BatchTimeout { chip });
        }
    }

    /// Forms a batch on `chip` and prices it. A resident model computes
    /// at once; a switch first sends the new weight image to the chip.
    fn launch(&mut self, now: SimTime, chip: usize, model_idx: usize) {
        let ch = &mut self.chips[chip];
        let switching = ch.resident_model.is_some() && ch.resident_model != Some(model_idx);
        let head_arrival_ns = ch.head_arrival(model_idx).unwrap_or(now);
        let mut batch = self.arena.buf();
        ch.launch_into(model_idx, self.max_batch, &mut batch);
        let cost = self.costs.cost(model_idx, batch.len());
        let penalty_ns = if switching { self.costs.switch_penalty_ns(model_idx) } else { 0 };
        let service_ns = cost.service_ns + penalty_ns;
        self.result.energy_j += cost.energy_j;
        self.result.batch_hist[batch.len()] += 1;
        tel::incr(tel::Event::ServeBatchLaunched);
        if switching {
            tel::incr(tel::Event::ServeReprogramSwitch);
        }
        if let Some(rec) = self.obs.as_deref_mut() {
            let launch =
                BatchLaunch { chip, model_idx, batch: &batch, head_arrival_ns, penalty_ns, service_ns };
            rec.on_launch(&launch, now);
        }
        let weights = Transfer::Weights { chip, model_idx, batch: self.arena.park(batch), service_ns };
        if switching {
            self.send(now, weights);
        } else {
            self.deliver(now, weights);
        }
    }

    fn on_batch_done(&mut self, now: SimTime, chip: usize, key: SlabKey, service_ns: SimTime) {
        self.chips[chip].complete();
        let Some(batch) = self.arena.reclaim(key) else {
            // Every launch parks exactly one batch and every BatchDone
            // fires exactly once, so a stale key is an engine logic bug,
            // not a runtime condition.
            debug_assert!(false, "BatchDone with a stale arena key");
            return;
        };
        if let Some(rec) = self.obs.as_deref_mut() {
            rec.on_batch_done(chip, now);
        }
        // One response per member back to its dispatcher: over a fabric,
        // many chips answering one dispatcher is the incast it prices.
        let batch_size = batch.len();
        for &req in &batch {
            self.send(now, Transfer::Response { req, chip, batch_size, service_ns });
        }
        self.arena.recycle(batch);
        // Work-conserving: a freed chip with pending work starts the
        // longest-waiting model immediately.
        if let Some(m) = self.chips[chip].oldest_model() {
            self.launch(now, chip, m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inca_workloads::Model;

    fn small(backend: BackendKind, rate: f64, requests: u64) -> ServeConfig {
        let mut cfg = ServeConfig::default_fleet(backend, rate);
        cfg.requests = requests;
        cfg.chips = 2;
        cfg.mix = ModelMix::new(vec![Model::ResNet18, Model::MobileNetV2], vec![2.0, 1.0]);
        cfg
    }

    #[test]
    fn all_requests_complete_or_shed() {
        let cfg = small(BackendKind::Gpu, 500.0, 400);
        let r = run_point(&cfg);
        assert_eq!(r.completed.len() as u64 + r.shed, 400);
        assert_eq!(r.offered, 400);
        assert!(r.events > 800, "arrivals + completions at minimum");
    }

    #[test]
    fn latency_never_below_service() {
        let cfg = small(BackendKind::Inca, 2000.0, 600);
        let r = run_point(&cfg);
        assert!(!r.completed.is_empty());
        for c in &r.completed {
            assert!(c.latency_ns() >= c.service_ns, "request {} time-travelled", c.id);
            assert!(c.done_ns >= c.arrival_ns);
            assert!(c.batch_size >= 1 && c.batch_size <= 64);
        }
    }

    #[test]
    fn batches_grow_under_load() {
        let lo = run_point(&small(BackendKind::Inca, 50.0, 300));
        let hi = run_point(&small(BackendKind::Inca, 50_000.0, 300));
        assert!(
            hi.mean_batch() > 2.0 * lo.mean_batch().max(1.0),
            "lo {} hi {}",
            lo.mean_batch(),
            hi.mean_batch()
        );
    }

    #[test]
    fn overload_sheds_with_small_queues() {
        let mut cfg = small(BackendKind::WsBaseline, 1e6, 500);
        cfg.queue_cap = 8;
        let r = run_point(&cfg);
        assert!(r.shed > 0, "expected shedding under extreme overload");
        assert!(r.max_queue_depth <= 8 + 1, "admission bound violated: {}", r.max_queue_depth);
    }

    #[test]
    fn affinity_avoids_switches() {
        let mut rr = small(BackendKind::Inca, 5000.0, 800);
        rr.policy = DispatchPolicy::RoundRobin;
        let mut aff = rr.clone();
        aff.policy = DispatchPolicy::ModelAffinity;
        let r_rr = run_point(&rr);
        let r_aff = run_point(&aff);
        assert_eq!(r_aff.switches, 0, "sharded models never swap weights");
        assert!(r_rr.switches > 0, "mixed traffic on every chip must swap");
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = small(BackendKind::Inca, 3000.0, 500);
        let a = run_point(&cfg);
        let b = run_point(&cfg);
        assert_eq!(a, b);
    }

    /// The sweep path (`run_point_with_costs`) rejects an empty fleet up
    /// front instead of dividing by zero inside the dispatcher.
    fn run_without_chips(policy: DispatchPolicy) {
        let mut cfg = small(BackendKind::Inca, 100.0, 1);
        cfg.chips = 0;
        cfg.policy = policy;
        let _ = run_point_with_costs(&cfg, &mut CostCache::new(cfg.backend, &cfg.mix));
    }

    #[test]
    #[should_panic(expected = "need at least one chip")]
    fn zero_chips_panic_up_front_round_robin() {
        run_without_chips(DispatchPolicy::RoundRobin);
    }

    #[test]
    #[should_panic(expected = "need at least one chip")]
    fn zero_chips_panic_up_front_jsq() {
        run_without_chips(DispatchPolicy::JoinShortestQueue);
    }

    #[test]
    #[should_panic(expected = "need at least one chip")]
    fn zero_chips_panic_up_front_affinity() {
        run_without_chips(DispatchPolicy::ModelAffinity);
    }

    #[test]
    fn affinity_stripes_keep_every_chip_busy() {
        // 2 models on 6 chips: each model's stripe of 3 chips shares its
        // traffic, so no chip idles and no chip ever switches models.
        let mut cfg = small(BackendKind::Inca, 5000.0, 600);
        cfg.chips = 6;
        cfg.policy = DispatchPolicy::ModelAffinity;
        let obs = ObsConfig { trace: false, sample_interval_ns: 10_000_000, slo: None };
        let (run, out) = run_point_observed(&cfg, &obs);
        assert_eq!(run.switches, 0);
        let series = out.timeseries.expect("sampler enabled");
        for c in 0..6 {
            let util = series.column(&format!("util_chip{c}")).expect("one column per chip");
            assert!(util.iter().any(|&u| u > 0.0), "chip {c} never served a batch");
        }
    }
}
