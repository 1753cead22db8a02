//! What one capture recorded: counters, span tree and trace events.

use crate::event::{Event, ALL_EVENTS, EVENT_COUNT};
use crate::span::{SpanStats, Spans};

/// Everything one [`crate::capture`] recorded: one total per [`Event`],
/// the aggregated span tree, and the trace events
/// [`crate::chrome_trace_json`] renders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    counters: [u64; EVENT_COUNT],
    pub(crate) spans: Spans,
}

impl Snapshot {
    pub(crate) fn new(counters: [u64; EVENT_COUNT], spans: Spans) -> Self {
        Snapshot { counters, spans }
    }

    /// Total for one event.
    #[must_use]
    pub fn get(&self, event: Event) -> u64 {
        self.counters[event.index()]
    }

    /// `(event, total)` pairs in counter-slot order, including zeros.
    #[must_use]
    pub fn counters(&self) -> Vec<(Event, u64)> {
        ALL_EVENTS.iter().map(|&e| (e, self.counters[e.index()])).collect()
    }

    /// Sum over all events — a quick "did anything happen" scalar.
    #[must_use]
    pub fn total_events(&self) -> u64 {
        self.counters.iter().sum()
    }

    /// The aggregated span tree (roots in first-seen order).
    #[must_use]
    pub fn spans(&self) -> &[SpanStats] {
        &self.spans.tree
    }
}
