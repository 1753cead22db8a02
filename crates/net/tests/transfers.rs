//! End-to-end transfer behavior on a real calendar event queue: byte
//! conservation, latency lower bounds, incast congestion, and
//! determinism (run-twice and ECMP storage-permutation invariance).

use inca_events::{EventQueue, SimTime};
use inca_net::{
    Delivery, FlowSpec, LinkSpec, NetConfig, NetEv, NetScheduler, Network, QueueConfig, RouteMode, Topology,
};

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
    use inca_net::RouteTable;
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
