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
    /// The payload given to [`Network::start_flow`].
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

    /// Opens a flow at the configured MTU and launches its initial
    /// window.
    ///
    /// # Panics
    ///
    /// Panics if no route exists between the flow's endpoints (a builder
    /// bug, not a runtime condition — every builder topology is
    /// connected).
    pub fn start_flow(
        &mut self,
        now: SimTime,
        spec: FlowSpec,
        payload: P,
        sched: &mut impl NetScheduler,
    ) -> SlabKey {
        let mtu = self.cfg.mtu_bytes;
        self.start_flow_with_mtu(now, spec, payload, mtu, sched)
    }

    /// [`Self::start_flow`] with an explicit per-flow packetization unit.
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
