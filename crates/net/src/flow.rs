//! Flow state: packetization and a DCTCP-style congestion window.
//!
//! A flow ships `bytes` from a source host to a destination host as
//! MTU-sized packets under a window: at most `⌊cwnd⌋` packets in flight.
//! Acks return one per delivered packet after the reverse-path
//! propagation delay, carrying the packet's CE mark. Per window of acks
//! the sender updates the DCTCP mark-fraction estimate
//! `α ← (1−g)·α + g·F` and applies `cwnd ← cwnd·(1 − α/2)` when any
//! mark was seen, otherwise additive-increases by one packet. A dropped
//! packet is detected by timeout (RTO) and retransmitted with the
//! window halved — the coarse loss path DCTCP inherits from TCP.

use inca_events::SimTime;

use crate::topo::{LinkId, NodeId};

/// A transfer request: ship `bytes` from `src` to `dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSpec {
    /// Sending host.
    pub src: NodeId,
    /// Receiving host.
    pub dst: NodeId,
    /// Application bytes to transfer (packetized by the network MTU).
    pub bytes: u64,
}

/// DCTCP window parameters.
#[derive(Debug, Clone, Copy)]
pub struct DctcpConfig {
    /// Initial congestion window, in packets.
    pub init_cwnd: u32,
    /// Window cap, in packets.
    pub max_cwnd: u32,
    /// EWMA gain `g` for the mark-fraction estimate (RFC 8257 suggests
    /// 1/16).
    pub g: f64,
    /// Retransmission timeout: how long after a send a drop is detected.
    pub rto_ns: SimTime,
}

impl DctcpConfig {
    /// RFC 8257-flavored defaults for a shallow-buffered datacenter
    /// fabric: start at 10 packets (modern IW10), cap at 256, g = 1/16,
    /// 1 ms RTO.
    #[must_use]
    pub(crate) fn default_datacenter() -> Self {
        Self { init_cwnd: 10, max_cwnd: 256, g: 1.0 / 16.0, rto_ns: 1_000_000 }
    }
}

/// One link of a flow's path, with the network's offer-timing ids of the
/// flow's two packet sizes on it (see [`packet_sizes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PathHop {
    /// The link.
    pub link: LinkId,
    /// Offer-timing ids for a full packet and for the last packet.
    pub timing: [u32; 2],
}

/// Payload sizes of a `bytes` transfer cut at `mtu`: `[full, last]`.
/// Every packet but the last is full; a one-packet flow's only packet is
/// both.
#[must_use]
pub(crate) fn packet_sizes(bytes: u64, mtu: u32) -> [u32; 2] {
    let full = u64::from(mtu).min(bytes);
    let last = bytes - (bytes.div_ceil(u64::from(mtu)).max(1) - 1) * u64::from(mtu);
    [full, last].map(|b| u32::try_from(b).unwrap_or(mtu))
}

/// Sender-side state of one in-flight flow. `P` is the owner's payload,
/// returned when the last data packet is delivered.
#[derive(Debug)]
pub(crate) struct FlowState<P> {
    /// Owner payload, taken at delivery completion.
    pub payload: Option<P>,
    /// Sending host.
    pub src: NodeId,
    /// Receiving host.
    pub dst: NodeId,
    /// ECMP-selected forward path, fixed at flow start (per-flow ECMP:
    /// one flow never reorders across paths).
    pub path: Vec<PathHop>,
    /// Reverse-path propagation delay for acks, in ns.
    pub ack_latency_ns: SimTime,
    /// Transfer size in bytes.
    pub bytes: u64,
    /// Total packets this flow ships.
    pub packets_total: u32,
    /// Next fresh (never-sent) packet sequence number.
    pub next_seq: u32,
    /// Packets currently in flight (sent, neither acked nor timed out).
    pub inflight: u32,
    /// Packets delivered at the destination.
    pub delivered: u32,
    /// Acks received at the sender.
    pub acked: u32,
    /// Sequence numbers awaiting retransmission (timed-out drops).
    pub lost: Vec<u32>,
    /// Retransmissions performed.
    pub retransmits: u32,
    /// Congestion window, in packets.
    pub cwnd: f64,
    /// DCTCP mark-fraction EWMA `α`.
    pub alpha: f64,
    /// Acks seen in the current observation window.
    window_acked: u32,
    /// CE-marked acks seen in the current observation window.
    window_marked: u32,
    /// Observation window length (≈ one RTT of acks = ⌊cwnd⌋ at window
    /// start).
    window_size: u32,
    /// Virtual time the flow started.
    pub start_ns: SimTime,
}

impl<P> FlowState<P> {
    /// A fresh flow over `path`, packetized at `mtu`.
    ///
    /// # Panics
    ///
    /// Panics if `bytes == 0` or `mtu == 0` — a zero-length transfer has
    /// no completion event to anchor downstream logic on.
    #[must_use]
    pub fn new(
        spec: FlowSpec,
        payload: P,
        path: Vec<PathHop>,
        ack_latency_ns: SimTime,
        mtu: u32,
        dctcp: &DctcpConfig,
        start_ns: SimTime,
    ) -> Self {
        assert!(spec.bytes > 0, "zero-byte flow");
        assert!(mtu > 0, "zero MTU");
        let packets_total = u32::try_from(spec.bytes.div_ceil(u64::from(mtu))).unwrap_or(u32::MAX);
        let cwnd = f64::from(dctcp.init_cwnd.min(dctcp.max_cwnd).max(1));
        Self {
            payload: Some(payload),
            src: spec.src,
            dst: spec.dst,
            path,
            ack_latency_ns,
            bytes: spec.bytes,
            packets_total,
            next_seq: 0,
            inflight: 0,
            delivered: 0,
            acked: 0,
            lost: Vec::new(),
            retransmits: 0,
            cwnd,
            alpha: 0.0,
            window_acked: 0,
            window_marked: 0,
            window_size: cwnd as u32,
            start_ns,
        }
    }

    /// Which of a hop's two offer timings packet `seq` takes: 0 for a
    /// full packet, 1 for the last.
    #[must_use]
    pub(crate) fn size_class(&self, seq: u32) -> usize {
        usize::from(seq + 1 == self.packets_total)
    }

    /// Whether the window admits another packet and one is waiting.
    #[must_use]
    pub(crate) fn can_send(&self) -> bool {
        let window = (self.cwnd as u32).max(1);
        self.inflight < window && (!self.lost.is_empty() || self.next_seq < self.packets_total)
    }

    /// Claims the next packet to send — retransmissions first — and
    /// counts it in flight. Returns `None` when nothing is sendable.
    pub(crate) fn claim_next(&mut self) -> Option<u32> {
        if !self.can_send() {
            return None;
        }
        self.inflight += 1;
        if let Some(seq) = self.lost.pop() {
            self.retransmits += 1;
            Some(seq)
        } else {
            let seq = self.next_seq;
            self.next_seq += 1;
            Some(seq)
        }
    }

    /// Registers a timed-out drop of packet `seq`: TCP-style coarse
    /// reaction — halve the window and queue the retransmission.
    pub(crate) fn on_loss(&mut self, seq: u32) {
        self.inflight = self.inflight.saturating_sub(1);
        self.lost.push(seq);
        self.cwnd = (self.cwnd / 2.0).max(1.0);
    }

    /// Registers one ack (with its CE mark) and runs the DCTCP update at
    /// window boundaries.
    pub(crate) fn on_ack(&mut self, marked: bool, dctcp: &DctcpConfig) {
        self.inflight = self.inflight.saturating_sub(1);
        self.acked += 1;
        self.window_acked += 1;
        if marked {
            self.window_marked += 1;
        }
        if self.window_acked >= self.window_size.max(1) {
            let f = f64::from(self.window_marked) / f64::from(self.window_acked);
            // α ← (1−g)·α + g·F, then cut by α/2 on any mark else +1 MSS.
            self.alpha = (1.0 - dctcp.g) * self.alpha + dctcp.g * f;
            if self.window_marked > 0 {
                self.cwnd = (self.cwnd * (1.0 - self.alpha / 2.0)).max(1.0);
            } else {
                self.cwnd = (self.cwnd + 1.0).min(f64::from(dctcp.max_cwnd.max(1)));
            }
            self.window_acked = 0;
            self.window_marked = 0;
            self.window_size = (self.cwnd as u32).max(1);
        }
    }

    /// Whether every data packet has been delivered at the destination.
    #[must_use]
    pub(crate) fn all_delivered(&self) -> bool {
        self.delivered == self.packets_total
    }

    /// Whether every ack has returned (sender-side completion).
    #[must_use]
    pub(crate) fn all_acked(&self) -> bool {
        self.acked == self.packets_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(bytes: u64, mtu: u32) -> FlowState<()> {
        let spec = FlowSpec { src: NodeId(0), dst: NodeId(1), bytes };
        FlowState::new(spec, (), Vec::new(), 0, mtu, &DctcpConfig::default_datacenter(), 0)
    }

    #[test]
    fn packetization_covers_bytes_exactly() {
        let f = flow(10_000, 4096);
        assert_eq!(f.packets_total, 3);
        assert_eq!(packet_sizes(10_000, 4096), [4096, 10_000 - 2 * 4096]);
        assert_eq!([f.size_class(0), f.size_class(1), f.size_class(2)], [0, 0, 1]);
        let g = flow(8192, 4096);
        assert_eq!(g.packets_total, 2);
        assert_eq!(packet_sizes(8192, 4096), [4096, 4096]);
        // A transfer below one MTU is one packet of its own size.
        assert_eq!(flow(100, 4096).packets_total, 1);
        assert_eq!(packet_sizes(100, 4096), [100, 100]);
        for (bytes, mtu) in [(150_528u64, 4096u32), (1, 1), (65_537, 65_536)] {
            let [full, last] = packet_sizes(bytes, mtu);
            let packets = u64::from(flow(bytes, mtu).packets_total);
            assert_eq!((packets - 1) * u64::from(full) + u64::from(last), bytes, "{bytes} B at {mtu}");
        }
    }

    #[test]
    fn window_limits_inflight() {
        let mut f = flow(1 << 20, 1024); // 1024 packets
        let mut sent = 0;
        while f.claim_next().is_some() {
            sent += 1;
        }
        assert_eq!(sent, 10); // IW10
        f.on_ack(false, &DctcpConfig::default_datacenter());
        assert!(f.can_send());
    }

    #[test]
    fn unmarked_windows_additive_increase() {
        let mut f = flow(1 << 20, 1024);
        let before = f.cwnd;
        for _ in 0..10 {
            assert!(f.claim_next().is_some());
        }
        for _ in 0..10 {
            f.on_ack(false, &DctcpConfig::default_datacenter());
        }
        assert_eq!(f.cwnd, before + 1.0);
        assert_eq!(f.alpha, 0.0);
    }

    #[test]
    fn marked_windows_cut_by_alpha() {
        let mut f = flow(1 << 20, 1024);
        for _ in 0..10 {
            assert!(f.claim_next().is_some());
        }
        // Fully marked window: F = 1, α = g, cut = 1 − g/2.
        for _ in 0..10 {
            f.on_ack(true, &DctcpConfig::default_datacenter());
        }
        let g = 1.0 / 16.0;
        assert!((f.alpha - g).abs() < 1e-12);
        assert!((f.cwnd - 10.0 * (1.0 - g / 2.0)).abs() < 1e-9);
    }

    #[test]
    fn loss_halves_and_queues_retransmit() {
        let mut f = flow(1 << 20, 1024);
        let s0 = f.claim_next().expect("send");
        let _ = f.claim_next().expect("send");
        f.on_loss(s0);
        assert_eq!(f.cwnd, 5.0);
        assert_eq!(f.inflight, 1);
        // Retransmission goes out before fresh sequence numbers.
        assert_eq!(f.claim_next(), Some(s0));
        assert_eq!(f.retransmits, 1);
    }
}
