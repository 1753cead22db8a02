//! The network engine: flows over links, driven by an external event
//! queue.
//!
//! `Network<P>` owns the topology, routes, per-link queue state and
//! in-flight flow table, but *not* the event queue: the embedding
//! simulator (the fleet serving engine) owns one shared
//! [`inca_events::EventQueue`] and passes a [`NetScheduler`] adapter, so
//! network events interleave with compute events in one global `(time,
//! seq)` order — the property the determinism tests pin.
//!
//! Event economics: one event per hop per packet, one ack event per
//! packet, one loss event per drop. Acks ride the reverse path at
//! propagation delay only (no ack serialization or ack-path queueing —
//! acks are ~64 B against ≥ KB data packets, a standard simplification
//! that keeps the event count linear in data bytes).

use std::collections::BTreeMap;

use inca_events::{SimTime, Slab, SlabKey};
use inca_telemetry as tel;

use crate::flow::{packet_sizes, DctcpConfig, FlowSpec, FlowState, PathHop};
use crate::link::{LinkState, Offer, OfferTiming};
use crate::queue::QueueConfig;
use crate::route::{flow_hash, RouteMode, RouteTable};
use crate::topo::{LinkSpec, NodeId, Topology, TIER_COUNT};

/// A network-internal event, scheduled on the owner's queue and handed
/// back to [`Network::on_event`] when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetEv {
    /// Packet `seq` of `flow` arrives at the transmitter of the
    /// `hop`-th link on its path, carrying any CE mark picked up so far.
    Hop {
        /// Flow table key.
        flow: SlabKey,
        /// Packet sequence number within the flow.
        seq: u32,
        /// Index into the flow's path.
        hop: u16,
        /// CE mark accumulated on upstream hops.
        marked: bool,
    },
    /// Packet `seq` of `flow` is fully received at the destination host.
    Deliver {
        /// Flow table key.
        flow: SlabKey,
        /// Packet sequence number within the flow.
        seq: u32,
        /// CE mark as seen by the receiver (echoed to the sender).
        marked: bool,
    },
    /// The receiver's ack for one packet arrives back at the sender.
    Ack {
        /// Flow table key.
        flow: SlabKey,
        /// Echoed CE mark.
        marked: bool,
    },
    /// The sender's RTO fires for a packet dropped at a queue.
    Loss {
        /// Flow table key.
        flow: SlabKey,
        /// Sequence number of the dropped packet.
        seq: u32,
    },
}

/// The embedding simulator's half of the shared-event-queue contract:
/// wrap `ev` in the owner's event enum and schedule it at `at`.
pub trait NetScheduler {
    /// Schedules a network event at absolute virtual time `at`.
    fn schedule_net(&mut self, at: SimTime, ev: NetEv);
}

/// A completed transfer, handed back by [`Network::on_event`] when the
/// last data packet reaches the destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery<P> {
    /// The payload given to [`Network::start_flow_with_mtu`].
    pub payload: P,
    /// Sending host.
    pub src: NodeId,
    /// Receiving host.
    pub dst: NodeId,
    /// Transfer size in bytes.
    pub bytes: u64,
    /// Virtual time the flow started.
    pub start_ns: SimTime,
    /// Retransmissions the flow needed.
    pub retransmits: u32,
}

/// Network-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Egress queue discipline shared by every link.
    pub queue: QueueConfig,
    /// Packet payload size flows are cut into.
    pub mtu_bytes: u32,
    /// Congestion-control parameters.
    pub dctcp: DctcpConfig,
    /// Equal-cost path selection mode.
    pub route: RouteMode,
}

impl NetConfig {
    /// ECN-marking shallow queues, 4 KB packets, DCTCP defaults, ECMP.
    #[must_use]
    pub fn default_fleet() -> Self {
        Self {
            queue: QueueConfig::default_datacenter(),
            mtu_bytes: 4096,
            dctcp: DctcpConfig::default_datacenter(),
            route: RouteMode::Ecmp,
        }
    }
}

/// Aggregate traffic totals for reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetTotals {
    /// Flows started.
    pub flows_started: u64,
    /// Flows fully acked.
    pub flows_completed: u64,
    /// Packets accepted across all links (hop-counted).
    pub packets: u64,
    /// Bytes accepted across all links (hop-counted).
    pub bytes: u64,
    /// Packets dropped at full queues.
    pub drops: u64,
    /// Packets CE-marked.
    pub ecn_marks: u64,
    /// Packet retransmissions.
    pub retransmits: u64,
}

/// The discrete-event network: topology + routes + link queues + flows.
pub struct Network<P> {
    topo: Topology,
    routes: RouteTable,
    cfg: NetConfig,
    links: Vec<LinkState>,
    /// Offer timings, one per (link bandwidth, packet size) seen so far;
    /// the queue is network-wide. Flows hold ids into this table.
    timings: Vec<OfferTiming>,
    /// Timing id per (bandwidth bits, packet bytes).
    timing_ids: BTreeMap<(u64, u32), u32>,
    flows: Slab<FlowState<P>>,
    flow_seq: u64,
    flows_completed: u64,
    retransmits: u64,
}

impl<P> Network<P> {
    /// Builds routes and per-link state for `topo`.
    #[must_use]
    pub fn new(topo: Topology, cfg: NetConfig) -> Self {
        let routes = RouteTable::shortest_paths(&topo);
        let links = vec![LinkState::default(); topo.num_links()];
        Self {
            topo,
            routes,
            cfg,
            links,
            timings: Vec::new(),
            timing_ids: BTreeMap::new(),
            flows: Slab::new(),
            flow_seq: 0,
            flows_completed: 0,
            retransmits: 0,
        }
    }

    /// The topology this network runs on.
    #[must_use]
    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// The route table (test hook: permute equal-cost storage).
    pub fn routes_mut(&mut self) -> &mut RouteTable {
        &mut self.routes
    }

    /// Flows currently in flight.
    #[must_use]
    pub fn flows_in_flight(&self) -> usize {
        self.flows.len()
    }

    /// Per-link state, indexed by `LinkId`.
    #[must_use]
    pub fn links(&self) -> &[LinkState] {
        &self.links
    }

    /// Cumulative serialization busy-time per tier
    /// (`[access, aggregation, core]`), in virtual ns, plus the number of
    /// links in each tier — the utilization numerator/denominator pair
    /// the observability sampler reads.
    #[must_use]
    pub fn tier_busy(&self) -> [(u64, usize); TIER_COUNT] {
        let mut out = [(0u64, 0usize); TIER_COUNT];
        for (def, l) in self.topo.links().iter().zip(&self.links) {
            let slot = &mut out[def.tier.slot()];
            slot.0 += l.counters.busy_ns;
            slot.1 += 1;
        }
        out
    }

    /// Aggregate totals across links and flows.
    #[must_use]
    pub fn totals(&self) -> NetTotals {
        let mut t = NetTotals {
            flows_started: self.flow_seq,
            flows_completed: self.flows_completed,
            retransmits: self.retransmits,
            ..NetTotals::default()
        };
        for l in &self.links {
            t.packets += l.counters.tx_packets;
            t.bytes += l.counters.tx_bytes;
            t.drops += l.counters.drops;
            t.ecn_marks += l.counters.ecn_marks;
        }
        t
    }

    /// Opens a flow packetized at `mtu` and launches its initial window.
    ///
    /// Bulk transfers (weight re-programming images are hundreds of MB)
    /// move as large DMA chunks rather than request-sized packets; a
    /// per-flow MTU models that without a second network. Serialization
    /// time per byte is identical — only the event count (and the
    /// queue-occupancy granularity) changes.
    ///
    /// # Panics
    ///
    /// Panics if no route exists between the flow's endpoints (a builder
    /// bug, not a runtime condition — every builder topology is
    /// connected).
    pub fn start_flow_with_mtu(
        &mut self,
        now: SimTime,
        spec: FlowSpec,
        payload: P,
        mtu: u32,
        sched: &mut impl NetScheduler,
    ) -> SlabKey {
        let hash = flow_hash(spec.src, spec.dst, self.flow_seq);
        self.flow_seq += 1;
        let path = self
            .routes
            .path(&self.topo, spec.src, spec.dst, hash, self.cfg.route)
            .unwrap_or_else(|| panic!("no route between {:?} and {:?}", spec.src, spec.dst)); // lint: allow(panic-path) builder topologies are connected by construction
        let ack_latency_ns: SimTime = path.iter().map(|&l| self.topo.link(l).spec.latency_ns).sum();
        let sizes = packet_sizes(spec.bytes, mtu);
        let hops = path
            .into_iter()
            .map(|link| {
                let link_spec = self.topo.link(link).spec;
                PathHop { link, timing: sizes.map(|bytes| self.timing_id(&link_spec, bytes)) }
            })
            .collect();
        let flow = FlowState::new(spec, payload, hops, ack_latency_ns, mtu, &self.cfg.dctcp, now);
        let key = self.flows.insert(flow);
        self.pump(now, key, sched);
        key
    }

    /// The id of the offer timing of a `bytes`-sized packet on a `spec`
    /// link, evaluated on first use.
    fn timing_id(&mut self, spec: &LinkSpec, bytes: u32) -> u32 {
        let key = (spec.bandwidth.bits_per_sec().to_bits(), bytes);
        if let Some(&id) = self.timing_ids.get(&key) {
            return id;
        }
        let id = u32::try_from(self.timings.len()).unwrap_or(u32::MAX);
        self.timings.push(OfferTiming::new(spec, &self.cfg.queue, bytes));
        self.timing_ids.insert(key, id);
        id
    }

    /// Sends every packet the window currently admits.
    fn pump(&mut self, now: SimTime, key: SlabKey, sched: &mut impl NetScheduler) {
        loop {
            let Some(f) = self.flows.get_mut(key) else { return };
            let Some(seq) = f.claim_next() else { return };
            self.send_packet(now, key, seq, sched);
        }
    }

    /// Offers packet `seq` to the first link of its path (or delivers it
    /// directly for a co-located src == dst transfer).
    fn send_packet(&mut self, now: SimTime, key: SlabKey, seq: u32, sched: &mut impl NetScheduler) {
        let Some(f) = self.flows.get(key) else { return };
        if f.path.is_empty() {
            sched.schedule_net(now, NetEv::Deliver { flow: key, seq, marked: false });
        } else {
            sched.schedule_net(now, NetEv::Hop { flow: key, seq, hop: 0, marked: false });
        }
    }

    /// Advances one network event; returns the completed transfer when
    /// this event delivered a flow's last data packet.
    pub fn on_event(
        &mut self,
        now: SimTime,
        ev: NetEv,
        sched: &mut impl NetScheduler,
    ) -> Option<Delivery<P>> {
        match ev {
            NetEv::Hop { flow, seq, hop, marked } => {
                self.on_hop(now, flow, seq, hop, marked, sched);
                None
            }
            NetEv::Deliver { flow, seq, marked } => self.on_deliver(now, flow, seq, marked, sched),
            NetEv::Ack { flow, marked } => {
                self.on_ack(now, flow, marked, sched);
                None
            }
            NetEv::Loss { flow, seq } => {
                self.on_loss(now, flow, seq, sched);
                None
            }
        }
    }

    fn on_hop(
        &mut self,
        now: SimTime,
        key: SlabKey,
        seq: u32,
        hop: u16,
        marked: bool,
        sched: &mut impl NetScheduler,
    ) {
        let Some(f) = self.flows.get(key) else { return };
        debug_assert!((hop as usize) < f.path.len());
        let Some(h) = f.path.get(hop as usize) else { return };
        let (lid, timing) = (h.link, h.timing[f.size_class(seq)]);
        let last_hop = hop as usize + 1 == f.path.len();
        match self.links[lid.index()].offer(now, &self.timings[timing as usize]) {
            Offer::Accepted { depart_ns, marked: m } => {
                let arrive = depart_ns + self.topo.link(lid).spec.latency_ns;
                let marked = marked || m;
                if last_hop {
                    sched.schedule_net(arrive, NetEv::Deliver { flow: key, seq, marked });
                } else {
                    sched.schedule_net(arrive, NetEv::Hop { flow: key, seq, hop: hop + 1, marked });
                }
            }
            Offer::Dropped => {
                // The sender's retransmission timer fires one RTO after
                // the drop (a lower bound on "one RTO after the send").
                sched.schedule_net(now + self.cfg.dctcp.rto_ns, NetEv::Loss { flow: key, seq });
            }
        }
    }

    fn on_deliver(
        &mut self,
        now: SimTime,
        key: SlabKey,
        seq: u32,
        marked: bool,
        sched: &mut impl NetScheduler,
    ) -> Option<Delivery<P>> {
        let f = self.flows.get_mut(key)?;
        let _ = seq;
        f.delivered += 1;
        let ack_at = now + f.ack_latency_ns;
        sched.schedule_net(ack_at, NetEv::Ack { flow: key, marked });
        if f.all_delivered() {
            let payload = f.payload.take()?;
            return Some(Delivery {
                payload,
                src: f.src,
                dst: f.dst,
                bytes: f.bytes,
                start_ns: f.start_ns,
                retransmits: f.retransmits,
            });
        }
        None
    }

    fn on_ack(&mut self, now: SimTime, key: SlabKey, marked: bool, sched: &mut impl NetScheduler) {
        let dctcp = self.cfg.dctcp;
        let Some(f) = self.flows.get_mut(key) else { return };
        f.on_ack(marked, &dctcp);
        if f.all_acked() {
            self.retransmits += u64::from(f.retransmits);
            self.flows.remove(key);
            self.flows_completed += 1;
            tel::incr(tel::Event::NetFlowCompleted);
            return;
        }
        self.pump(now, key, sched);
    }

    fn on_loss(&mut self, now: SimTime, key: SlabKey, seq: u32, sched: &mut impl NetScheduler) {
        let Some(f) = self.flows.get_mut(key) else { return };
        f.on_loss(seq);
        self.pump(now, key, sched);
    }
}

/// End-to-end transfer behavior on a real calendar event queue: byte
/// conservation, latency lower bounds, incast congestion, and
/// determinism (run-twice and ECMP storage-permutation invariance).
#[cfg(test)]
mod tests {
    use inca_events::{EventQueue, SimTime, SlabKey};

    use crate::{
        Delivery, FlowSpec, LinkSpec, NetConfig, NetEv, NetScheduler, Network, QueueConfig, RouteMode,
        Topology,
    };

    impl<P> Network<P> {
        /// Opens a flow at the configured MTU and launches its initial
        /// window.
        ///
        /// # Panics
        ///
        /// Panics if no route exists between the flow's endpoints (a builder
        /// bug, not a runtime condition — every builder topology is
        /// connected).
        fn start_flow(
            &mut self,
            now: SimTime,
            spec: FlowSpec,
            payload: P,
            sched: &mut impl NetScheduler,
        ) -> SlabKey {
            let mtu = self.cfg.mtu_bytes;
            self.start_flow_with_mtu(now, spec, payload, mtu, sched)
        }
    }

    struct Sched<'a>(&'a mut EventQueue<NetEv>);

    impl NetScheduler for Sched<'_> {
        fn schedule_net(&mut self, at: SimTime, ev: NetEv) {
            self.0.schedule(at, ev);
        }
    }

    /// Runs flows to completion; returns (deliveries, final time, events).
    fn run(net: &mut Network<u64>, flows: &[FlowSpec]) -> (Vec<(SimTime, Delivery<u64>)>, SimTime, u64) {
        let mut q = EventQueue::new();
        for (i, &spec) in flows.iter().enumerate() {
            net.start_flow(0, spec, i as u64, &mut Sched(&mut q));
        }
        let mut done = Vec::new();
        while let Some((t, ev)) = q.pop() {
            if let Some(d) = net.on_event(t, ev, &mut Sched(&mut q)) {
                done.push((t, d));
            }
        }
        (done, q.now(), q.processed())
    }

    fn small_leaf_spine() -> Topology {
        Topology::leaf_spine(2, 2, 4, LinkSpec::default_datacenter())
    }

    #[test]
    fn single_flow_latency_accounting() {
        let topo = small_leaf_spine();
        let hosts = topo.hosts().to_vec();
        let mut net = Network::new(topo, NetConfig::default_fleet());
        // Cross-rack: host → leaf → spine → leaf → host = 4 hops.
        let spec = FlowSpec { src: hosts[0], dst: hosts[7], bytes: 4096 };
        let (done, _, _) = run(&mut net, &[spec]);
        assert_eq!(done.len(), 1);
        let (t, d) = &done[0];
        assert_eq!(d.payload, 0);
        assert_eq!(d.bytes, 4096);
        // Lower bound: 4 × 500 ns propagation + 4 × serialization of 4096 B
        // at 40 Gb/s (819.2 ns → 819 ns rounded).
        let ser = 819;
        assert!(*t >= 4 * 500 + 4 * ser, "completed at {t}");
        // Uncongested single flow: no queueing beyond store-and-forward.
        assert!(*t <= 4 * 500 + 4 * (ser + 1) + 4, "completed at {t}");
        let totals = net.totals();
        assert_eq!(totals.flows_started, 1);
        assert_eq!(totals.drops, 0);
        // One packet over 4 hops.
        assert_eq!(totals.packets, 4);
        assert_eq!(totals.bytes, 4 * 4096);
    }

    #[test]
    fn all_bytes_arrive_under_incast() {
        // 7 senders blast one receiver: classic incast at the receiver's
        // access link.
        let topo = small_leaf_spine();
        let hosts = topo.hosts().to_vec();
        let mut net = Network::new(topo, NetConfig::default_fleet());
        let dst = hosts[0];
        let flows: Vec<FlowSpec> =
            hosts[1..].iter().map(|&src| FlowSpec { src, dst, bytes: 256 * 1024 }).collect();
        let (done, _, _) = run(&mut net, &flows);
        assert_eq!(done.len(), 7, "every incast flow must complete");
        let totals = net.totals();
        assert_eq!(totals.flows_completed, 7);
        // DCTCP must see marks under a 7:1 incast into a 64 KB-threshold
        // queue.
        assert!(totals.ecn_marks > 0, "incast produced no ECN marks");
    }

    #[test]
    fn drop_tail_recovers_by_retransmission() {
        // Tiny queues, no ECN: force drops and check loss recovery still
        // completes every flow.
        let topo = small_leaf_spine();
        let hosts = topo.hosts().to_vec();
        let mut cfg = NetConfig::default_fleet();
        cfg.queue = QueueConfig::drop_tail(8 * 1024);
        let mut net = Network::new(topo, cfg);
        let dst = hosts[0];
        let flows: Vec<FlowSpec> =
            hosts[1..].iter().map(|&src| FlowSpec { src, dst, bytes: 128 * 1024 }).collect();
        let (done, _, _) = run(&mut net, &flows);
        assert_eq!(done.len(), 7);
        let totals = net.totals();
        assert!(totals.drops > 0, "shallow drop-tail queues under incast must drop");
        assert!(totals.retransmits >= totals.drops, "every drop needs a retransmission");
    }

    #[test]
    fn co_located_transfer_delivers_immediately() {
        let topo = small_leaf_spine();
        let h = topo.hosts()[0];
        let mut net = Network::new(topo, NetConfig::default_fleet());
        let (done, t, _) = run(&mut net, &[FlowSpec { src: h, dst: h, bytes: 10_000 }]);
        assert_eq!(done.len(), 1);
        assert_eq!(t, 0, "src == dst transfers cost no network time");
    }

    #[test]
    fn runs_are_bit_identical() {
        let mk = || {
            let topo = Topology::fat_tree(4, 2, LinkSpec::default_datacenter());
            let hosts = topo.hosts().to_vec();
            let mut net = Network::new(topo, NetConfig::default_fleet());
            let flows: Vec<FlowSpec> = (0..hosts.len())
                .map(|i| FlowSpec {
                    src: hosts[i],
                    dst: hosts[(i * 7 + 3) % hosts.len()],
                    bytes: 64 * 1024 + (i as u64) * 1111,
                })
                .filter(|f| f.src != f.dst)
                .collect();
            run(&mut net, &flows)
        };
        let (a, ta, ea) = mk();
        let (b, tb, eb) = mk();
        assert_eq!(ta, tb);
        assert_eq!(ea, eb);
        let at: Vec<_> = a.iter().map(|(t, d)| (*t, d.payload, d.retransmits)).collect();
        let bt: Vec<_> = b.iter().map(|(t, d)| (*t, d.payload, d.retransmits)).collect();
        assert_eq!(at, bt);
    }

    #[test]
    fn ecmp_storage_permutation_is_invisible() {
        // Permuting the stored order of equal-cost next-hop candidates must
        // leave every event, every completion time and every counter
        // identical — rank-select ECMP depends only on link ids.
        let baseline = {
            let topo = Topology::fat_tree(4, 2, LinkSpec::default_datacenter());
            let hosts = topo.hosts().to_vec();
            let mut net = Network::new(topo, NetConfig::default_fleet());
            let flows: Vec<FlowSpec> = (0..32)
                .map(|i| FlowSpec {
                    src: hosts[i % hosts.len()],
                    dst: hosts[(i * 5 + 2) % hosts.len()],
                    bytes: 32 * 1024,
                })
                .filter(|f| f.src != f.dst)
                .collect();
            (run(&mut net, &flows), net.totals())
        };
        for seed in [3u64, 0xBAD5_EED5, u64::MAX / 3] {
            let topo = Topology::fat_tree(4, 2, LinkSpec::default_datacenter());
            let hosts = topo.hosts().to_vec();
            let mut net = Network::new(topo, NetConfig::default_fleet());
            net.routes_mut().permute_equal_cost(seed);
            let flows: Vec<FlowSpec> = (0..32)
                .map(|i| FlowSpec {
                    src: hosts[i % hosts.len()],
                    dst: hosts[(i * 5 + 2) % hosts.len()],
                    bytes: 32 * 1024,
                })
                .filter(|f| f.src != f.dst)
                .collect();
            let got = (run(&mut net, &flows), net.totals());
            let ((ref d0, t0, e0), tot0) = baseline;
            let ((ref d1, t1, e1), tot1) = got;
            assert_eq!(t0, t1);
            assert_eq!(e0, e1);
            assert_eq!(tot0, tot1);
            let a: Vec<_> = d0.iter().map(|(t, d)| (*t, d.payload)).collect();
            let b: Vec<_> = d1.iter().map(|(t, d)| (*t, d.payload)).collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn canonical_routing_also_completes() {
        let topo = small_leaf_spine();
        let hosts = topo.hosts().to_vec();
        let mut cfg = NetConfig::default_fleet();
        cfg.route = RouteMode::CanonicalShortest;
        let mut net = Network::new(topo, cfg);
        let flows: Vec<FlowSpec> =
            hosts[1..].iter().map(|&src| FlowSpec { src, dst: hosts[0], bytes: 16 * 1024 }).collect();
        let (done, _, _) = run(&mut net, &flows);
        assert_eq!(done.len(), 7);
    }

    mod idle_path {
        use super::*;
        use crate::RouteTable;
        use inca_units::Bandwidth;
        use proptest::prelude::*;

        /// Runs one flow alone from time 0; returns when its last packet was
        /// delivered and when its last ack came back.
        fn delivered_and_acked(net: &mut Network<u64>, spec: FlowSpec) -> (SimTime, SimTime) {
            let mut q = EventQueue::new();
            net.start_flow(0, spec, 0, &mut Sched(&mut q));
            let (mut delivered, mut acked) = (None, None);
            while let Some((t, ev)) = q.pop() {
                if net.on_event(t, ev, &mut Sched(&mut q)).is_some() {
                    delivered = Some(t);
                }
                if acked.is_none() && net.flows_in_flight() == 0 {
                    acked = Some(t);
                }
            }
            (delivered.expect("flow delivered"), acked.expect("flow acked"))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// A flow of `P` equal packets that fits the initial window and
            /// has its `H`-hop path to itself pipelines store-and-forward: the
            /// last packet arrives at `(P + H − 1)·ser + H·latency` and its ack
            /// `H·latency` later, where `ser` is the packet's serialization
            /// time rounded to whole ns.
            #[test]
            fn delivery_matches_store_and_forward(
                packets in 1u32..=10,
                mtu in 64u32..=9_000,
                gbps_idx in 0usize..5,
                latency_ns in 0u64..=2_000,
                leaf_spine in any::<bool>(),
                src_draw in any::<usize>(),
                dst_draw in any::<usize>(),
            ) {
                let gbps = [10.0, 25.0, 40.0, 100.0, 400.0][gbps_idx];
                let link = LinkSpec { bandwidth: Bandwidth::from_gbps(gbps), latency_ns };
                let topo = if leaf_spine { Topology::leaf_spine(3, 2, 3, link) } else { Topology::fat_tree(4, 2, link) };
                let hosts = topo.hosts().to_vec();
                let (src, dst) = (hosts[src_draw % hosts.len()], hosts[dst_draw % hosts.len()]);
                prop_assume!(src != dst);
                let cfg = NetConfig {
                    queue: QueueConfig::drop_tail(u64::MAX),
                    mtu_bytes: mtu,
                    ..NetConfig::default_fleet()
                };
                prop_assume!(packets <= cfg.dctcp.init_cwnd);
                let hops = RouteTable::shortest_paths(&topo).distance(src, dst).expect("connected") as u64;
                let mut net = Network::new(topo, cfg);
                let ser = (f64::from(mtu) * 8.0 / gbps).round() as u64;
                let spec = FlowSpec { src, dst, bytes: u64::from(packets) * u64::from(mtu) };
                let (delivered, acked) = delivered_and_acked(&mut net, spec);
                let p = u64::from(packets);
                prop_assert_eq!(delivered, (p + hops - 1) * ser + hops * latency_ns);
                prop_assert_eq!(acked, delivered + hops * latency_ns);
                let totals = net.totals();
                prop_assert_eq!((totals.drops, totals.ecn_marks, totals.retransmits), (0, 0, 0));
                prop_assert_eq!(totals.packets, p * hops);
            }
        }
    }
}
