//! Per-link transmitter state: bandwidth-delay serialization with a
//! collapsed drop-tail / ECN queue.
//!
//! A packet offered to a link at `now` either drops (backlog at cap) or
//! is accepted with a computed departure time `max(now, busy_until) +
//! serialization`. The link model is stated in floating point:
//! serialization is `bits / bandwidth` through
//! [`inca_units::Bandwidth::transfer_time`] rounded to whole ns, and the
//! backlog in bytes is `bandwidth · backlog_ns / 8` compared against the
//! queue's byte thresholds. `OfferTiming` evaluates that model once
//! per (link bandwidth, queue, packet size): the serialization time, and
//! the smallest backlog in ns at which the packet drops and at which it
//! is CE-marked. Each step of the byte comparison is monotone in the
//! backlog, so comparing the integer backlog against those thresholds
//! decides exactly as the floating-point formula would, and
//! `LinkState::offer` runs on integers alone.

use inca_events::{ns_to_secs, secs_to_ns, SimTime};
use inca_telemetry as tel;
use inca_units::Time;

use crate::queue::{QueueConfig, QueueDiscipline};
use crate::topo::LinkSpec;

/// What [`LinkState::offer`] needs to know about one packet size on one
/// link: its serialization time and the backlogs that drop or mark it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct OfferTiming {
    /// Packet payload size, in bytes.
    pub bytes: u32,
    /// Serialization time of the packet, in virtual ns.
    pub ser_ns: SimTime,
    /// Smallest backlog (ns) at which the packet drops; `None` when no
    /// backlog does.
    pub drop_ns: Option<SimTime>,
    /// Smallest backlog (ns) at which an accepted packet is CE-marked;
    /// `None` when none is (drop-tail, or a threshold past every backlog).
    pub mark_ns: Option<SimTime>,
}

impl OfferTiming {
    /// Evaluates the floating-point link model for a `bytes`-sized packet
    /// on a `spec` link under queue `q`.
    ///
    /// The drop test `bandwidth · backlog / 8 + bytes > cap` and the mark
    /// test `bandwidth · backlog / 8 ≥ mark` are each a chain of
    /// round-to-nearest steps (u64 → f64, ÷ 1e9, × bandwidth, ÷ 8, + bytes)
    /// that never decrease as the backlog grows, for any non-negative
    /// bandwidth. Each test is therefore false below one backlog and true
    /// from it on, and a binary search over `u64` finds that backlog.
    #[must_use]
    pub fn new(spec: &LinkSpec, q: &QueueConfig, bytes: u32) -> Self {
        let backlog_bytes = |ns: SimTime| spec.bandwidth * Time::from_seconds(ns_to_secs(ns)) / 8.0;
        let drop_ns = first_true(|ns| backlog_bytes(ns) + f64::from(bytes) > q.cap_bytes as f64);
        let mark_ns = match q.discipline {
            QueueDiscipline::DropTail => None,
            QueueDiscipline::EcnMarking { mark_bytes } => {
                first_true(|ns| backlog_bytes(ns) >= mark_bytes as f64)
            }
        };
        let ser_ns = secs_to_ns(spec.bandwidth.transfer_time(u64::from(bytes) * 8).seconds());
        Self { bytes, ser_ns, drop_ns, mark_ns }
    }
}

/// The smallest `n` with `pred(n)`, for a predicate that is false up to
/// some point and true from there on; `None` when it is never true.
fn first_true(pred: impl Fn(u64) -> bool) -> Option<u64> {
    if !pred(u64::MAX) {
        return None;
    }
    let (mut lo, mut hi) = (0u64, u64::MAX);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(lo)
}

/// Monotonic per-link counters, read by the observability layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkCounters {
    /// Packets accepted into the egress queue.
    pub tx_packets: u64,
    /// Bytes accepted into the egress queue.
    pub tx_bytes: u64,
    /// Packets dropped at a full queue.
    pub drops: u64,
    /// Packets CE-marked by the ECN discipline.
    pub ecn_marks: u64,
    /// Total serialization time spent transmitting, in virtual ns. The
    /// utilization of the link over a window is `busy_ns / window_ns`
    /// (charged at accept time, so a sample taken mid-transmission leads
    /// by at most one packet's serialization).
    pub busy_ns: u64,
}

/// Outcome of offering one packet to a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Offer {
    /// Accepted; the last bit leaves the transmitter at `depart_ns`.
    Accepted {
        /// Virtual time the packet finishes serializing.
        depart_ns: SimTime,
        /// Whether the ECN discipline CE-marked this packet.
        marked: bool,
    },
    /// Dropped at the tail of a full queue.
    Dropped,
}

/// Mutable state of one directed link: the collapsed egress queue.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkState {
    /// Virtual time the transmitter becomes idle.
    busy_until: SimTime,
    /// Monotonic traffic counters.
    pub counters: LinkCounters,
}

impl LinkState {
    /// Offers one packet, sized and timed by `t`, to the link at time
    /// `now`.
    ///
    /// Increments the `net_packets_enqueued` / `net_packets_dropped` /
    /// `net_ecn_marked` telemetry counters — this is the sole owner of
    /// those events (DESIGN.md §10): one count per hop, at offer time.
    pub(crate) fn offer(&mut self, now: SimTime, t: &OfferTiming) -> Offer {
        let backlog_ns = self.busy_until.saturating_sub(now);
        if t.drop_ns.is_some_and(|d| backlog_ns >= d) {
            self.counters.drops += 1;
            tel::incr(tel::Event::NetPacketDropped);
            return Offer::Dropped;
        }
        let marked = t.mark_ns.is_some_and(|m| backlog_ns >= m);
        let start = self.busy_until.max(now);
        self.busy_until = start + t.ser_ns;
        self.counters.tx_packets += 1;
        self.counters.tx_bytes += u64::from(t.bytes);
        self.counters.busy_ns += t.ser_ns;
        tel::incr(tel::Event::NetPacketEnqueued);
        if marked {
            self.counters.ecn_marks += 1;
            tel::incr(tel::Event::NetEcnMarked);
        }
        Offer::Accepted { depart_ns: self.busy_until, marked }
    }

    /// The floating-point link model that [`OfferTiming`] evaluates,
    /// applied on every offer: the oracle the integer path is tested
    /// against.
    #[cfg(test)]
    pub(crate) fn offer_oracle(
        &mut self,
        now: SimTime,
        bytes: u32,
        spec: &LinkSpec,
        q: &QueueConfig,
    ) -> Offer {
        let backlog_ns = self.busy_until.saturating_sub(now);
        let backlog_bytes = spec.bandwidth * Time::from_seconds(ns_to_secs(backlog_ns)) / 8.0;
        if backlog_bytes + f64::from(bytes) > q.cap_bytes as f64 {
            self.counters.drops += 1;
            return Offer::Dropped;
        }
        let marked = match q.discipline {
            QueueDiscipline::DropTail => false,
            QueueDiscipline::EcnMarking { mark_bytes } => backlog_bytes >= mark_bytes as f64,
        };
        let ser_ns = secs_to_ns(spec.bandwidth.transfer_time(u64::from(bytes) * 8).seconds());
        let start = self.busy_until.max(now);
        self.busy_until = start + ser_ns;
        self.counters.tx_packets += 1;
        self.counters.tx_bytes += u64::from(bytes);
        self.counters.busy_ns += ser_ns;
        if marked {
            self.counters.ecn_marks += 1;
        }
        Offer::Accepted { depart_ns: self.busy_until, marked }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inca_units::Bandwidth;
    use proptest::prelude::*;

    fn gbit_link() -> LinkSpec {
        // 1 Gb/s: 1 byte serializes in exactly 8 ns.
        LinkSpec { bandwidth: Bandwidth::from_gbps(1.0), latency_ns: 100 }
    }

    fn offer(l: &mut LinkState, now: SimTime, bytes: u32, spec: &LinkSpec, q: &QueueConfig) -> Offer {
        l.offer(now, &OfferTiming::new(spec, q, bytes))
    }

    #[test]
    fn serialization_and_backlog() {
        let spec = gbit_link();
        let q = QueueConfig::drop_tail(10_000);
        let mut l = LinkState::default();
        // 1000 B at 1 Gb/s = 8 µs on an idle link.
        assert_eq!(offer(&mut l, 0, 1000, &spec, &q), Offer::Accepted { depart_ns: 8_000, marked: false });
        // Second packet queues behind the first.
        assert_eq!(offer(&mut l, 0, 1000, &spec, &q), Offer::Accepted { depart_ns: 16_000, marked: false });
        assert_eq!(l.counters.tx_packets, 2);
        assert_eq!(l.counters.busy_ns, 16_000);
        // After the queue drains, offers serialize from `now`.
        assert_eq!(
            offer(&mut l, 20_000, 500, &spec, &q),
            Offer::Accepted { depart_ns: 24_000, marked: false }
        );
    }

    #[test]
    fn drop_tail_at_cap() {
        let spec = gbit_link();
        let q = QueueConfig::drop_tail(2_500);
        let mut l = LinkState::default();
        assert!(matches!(offer(&mut l, 0, 1000, &spec, &q), Offer::Accepted { .. }));
        assert!(matches!(offer(&mut l, 0, 1000, &spec, &q), Offer::Accepted { .. }));
        // Backlog is now 2000 B; a third 1000 B packet would exceed 2500.
        assert_eq!(offer(&mut l, 0, 1000, &spec, &q), Offer::Dropped);
        assert_eq!(l.counters.drops, 1);
        // Once 1000 B worth of backlog has drained, space reopens.
        assert!(matches!(offer(&mut l, 8_000, 1000, &spec, &q), Offer::Accepted { .. }));
    }

    #[test]
    fn ecn_marks_above_threshold() {
        let spec = gbit_link();
        let q = QueueConfig::ecn(10_000, 1_500);
        let mut l = LinkState::default();
        // Backlog 0 → unmarked; backlog 1000 → unmarked; backlog 2000 → marked.
        assert_eq!(offer(&mut l, 0, 1000, &spec, &q), Offer::Accepted { depart_ns: 8_000, marked: false });
        assert_eq!(offer(&mut l, 0, 1000, &spec, &q), Offer::Accepted { depart_ns: 16_000, marked: false });
        assert_eq!(offer(&mut l, 0, 1000, &spec, &q), Offer::Accepted { depart_ns: 24_000, marked: true });
        assert_eq!(l.counters.ecn_marks, 1);
    }

    /// At 1 Gb/s a byte is 8 ns: with 2,500 B of cap a 1,000 B packet
    /// drops from 1,500 B (12,000 ns) of backlog on, and a 1,500 B mark
    /// threshold marks from 12,000 ns; both thresholds are exact.
    #[test]
    fn thresholds_at_one_gbit() {
        let t = OfferTiming::new(&gbit_link(), &QueueConfig::ecn(2_500, 1_500), 1000);
        assert_eq!(
            t,
            OfferTiming { bytes: 1000, ser_ns: 8_000, drop_ns: Some(12_001), mark_ns: Some(12_000) }
        );
        let tail = OfferTiming::new(&gbit_link(), &QueueConfig::drop_tail(2_500), 1000);
        assert_eq!(tail.mark_ns, None);
    }

    /// A cap below one packet drops it even on an idle link; a cap past
    /// every reachable backlog never drops.
    #[test]
    fn degenerate_caps() {
        let spec = gbit_link();
        assert_eq!(OfferTiming::new(&spec, &QueueConfig::drop_tail(999), 1000).drop_ns, Some(0));
        assert_eq!(OfferTiming::new(&spec, &QueueConfig::drop_tail(u64::MAX), 1000).drop_ns, None);
        let mut l = LinkState::default();
        assert_eq!(offer(&mut l, 0, 1000, &spec, &QueueConfig::drop_tail(999)), Offer::Dropped);
    }

    /// A link whose transmitter frees up `backlog_ns` after `now`.
    fn busy(now: SimTime, backlog_ns: u64) -> LinkState {
        LinkState { busy_until: now + backlog_ns, counters: LinkCounters::default() }
    }

    /// Offers `bytes` at `now` on both paths from the same state; the
    /// outcomes and the states they leave must be identical.
    fn agree(l: LinkState, now: SimTime, bytes: u32, spec: &LinkSpec, q: &QueueConfig) -> LinkState {
        let (mut fast, mut oracle) = (l, l);
        let t = OfferTiming::new(spec, q, bytes);
        let ctx = || {
            format!(
                "{bytes} B at {} Gb/s, {q:?}, backlog {}",
                spec.bandwidth.gbps(),
                l.busy_until.saturating_sub(now)
            )
        };
        assert_eq!(fast.offer(now, &t), oracle.offer_oracle(now, bytes, spec, q), "{}", ctx());
        assert_eq!(fast.busy_until, oracle.busy_until, "{}", ctx());
        let c = |l: &LinkState| {
            let c = l.counters;
            (c.tx_packets, c.tx_bytes, c.busy_ns, c.drops, c.ecn_marks)
        };
        assert_eq!(c(&fast), c(&oracle), "{}", ctx());
        fast
    }

    /// A 1–400 Gb/s link (fractional rates included).
    fn link(gbps: f64) -> LinkSpec {
        LinkSpec { bandwidth: Bandwidth::from_gbps(gbps), latency_ns: 500 }
    }

    /// DropTail or ECN from raw draws: one cap in four lies below one
    /// `bytes` packet, the rest up to 4 MiB past it; the marking threshold
    /// is a `mark_frac` share of the cap.
    fn queue(bytes: u32, cap_draw: u64, ecn: bool, mark_frac: f64) -> QueueConfig {
        let cap = if cap_draw.is_multiple_of(4) {
            (cap_draw / 4) % u64::from(bytes)
        } else {
            u64::from(bytes) + (cap_draw / 4) % (4 << 20)
        };
        if ecn {
            QueueConfig::ecn(cap, (cap as f64 * mark_frac) as u64)
        } else {
            QueueConfig::drop_tail(cap)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// At each threshold, one ns either side of it, an idle link and
        /// a random backlog, the integer offer matches the f64 formula.
        #[test]
        fn integer_offer_matches_f64_at_thresholds(
            gbps in 1.0f64..=400.0,
            bytes in 1u32..=64 * 1024,
            cap_draw in any::<u64>(),
            ecn in any::<bool>(),
            mark_frac in 0.0f64..=1.0,
            now in 0u64..1 << 40,
            random_backlog in 0u64..1 << 32,
        ) {
            let (spec, q) = (link(gbps), queue(bytes, cap_draw, ecn, mark_frac));
            let t = OfferTiming::new(&spec, &q, bytes);
            prop_assert!(ecn || t.mark_ns.is_none());
            let mut backlogs = vec![0, 1, random_backlog];
            for th in [t.drop_ns, t.mark_ns].into_iter().flatten() {
                backlogs.extend([th.saturating_sub(1), th, th + 1]);
            }
            for b in backlogs {
                agree(busy(now, b), now, bytes, &spec, &q);
            }
            // A transmitter that went idle before `now`.
            agree(LinkState { busy_until: now / 2, counters: LinkCounters::default() }, now, bytes, &spec, &q);
        }

        /// A stream of offers at nondecreasing times and mixed sizes keeps
        /// both paths in lockstep.
        #[test]
        fn integer_offer_matches_f64_over_a_stream(
            gbps in 1.0f64..=400.0,
            cap_draw in any::<u64>(),
            ecn in any::<bool>(),
            mark_frac in 0.0f64..=1.0,
            seed in any::<u64>(),
            offers in 1usize..200,
        ) {
            let (spec, q) = (link(gbps), queue(1500, cap_draw, ecn, mark_frac));
            let (mut l, mut now, mut x) = (LinkState::default(), 0, seed);
            for _ in 0..offers {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
                now += (x >> 20) % 4_000;
                let bytes = 1 + ((x >> 40) % (64 * 1024)) as u32;
                l = agree(l, now, bytes, &spec, &q);
            }
        }
    }
}
