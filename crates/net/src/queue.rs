//! Queue disciplines for link egress buffers.
//!
//! Every directed link owns one egress queue. The model is *collapsed*:
//! instead of materializing a packet list, a link tracks the virtual time
//! its transmitter becomes free (`busy_until`), and the backlog in bytes
//! is `(busy_until − now) × bandwidth / 8`. That is exactly the depth a
//! FIFO byte queue would hold, at O(1) state per link and one event per
//! hop — the geometry that lets a fleet-scale sweep stay above the 2M
//! events/s gate.

/// How a link's egress queue reacts to backlog.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueueDiscipline {
    /// Pure drop-tail FIFO: accept until the byte cap, then drop.
    DropTail,
    /// Drop-tail FIFO that additionally CE-marks any packet arriving to
    /// a backlog at or above `mark_bytes` (DCTCP's step-marking at the
    /// instantaneous queue, RFC 8257 §3.3).
    EcnMarking {
        /// Instantaneous-backlog marking threshold, in bytes.
        mark_bytes: u64,
    },
}

/// Egress queue configuration shared by every link in a network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueConfig {
    /// Backlog cap in bytes; a packet that would push the backlog past
    /// this is dropped at the tail.
    pub cap_bytes: u64,
    /// Marking behavior below the cap.
    pub discipline: QueueDiscipline,
}

impl QueueConfig {
    /// An ECN step-marking queue: marks above `mark_bytes`, drops above
    /// `cap_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if the marking threshold lies above the drop cap, which
    /// would make the ECN signal unreachable.
    #[must_use]
    pub(crate) fn ecn(cap_bytes: u64, mark_bytes: u64) -> Self {
        assert!(mark_bytes <= cap_bytes, "ECN threshold must not exceed the drop cap");
        Self { cap_bytes, discipline: QueueDiscipline::EcnMarking { mark_bytes } }
    }

    /// The DCTCP paper's shallow-buffer switch setting scaled to 40 Gb/s:
    /// 256 KB of buffer per port, marking at 64 KB (≈ K = 65 packets of
    /// 1 KB, the recommended K ≈ C × RTT / 7 ballpark for sub-100 µs
    /// datacenter RTTs).
    #[must_use]
    pub(crate) fn default_datacenter() -> Self {
        Self::ecn(256 * 1024, 64 * 1024)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl QueueConfig {
        /// A plain drop-tail queue with the given byte cap.
        pub(crate) fn drop_tail(cap_bytes: u64) -> Self {
            Self { cap_bytes, discipline: QueueDiscipline::DropTail }
        }
    }

    #[test]
    fn constructors_encode_discipline() {
        assert_eq!(QueueConfig::drop_tail(1000).discipline, QueueDiscipline::DropTail);
        let q = QueueConfig::ecn(1000, 400);
        assert_eq!(q.discipline, QueueDiscipline::EcnMarking { mark_bytes: 400 });
        assert_eq!(q.cap_bytes, 1000);
    }

    #[test]
    #[should_panic(expected = "ECN threshold")]
    fn rejects_mark_above_cap() {
        let _ = QueueConfig::ecn(100, 200);
    }
}
