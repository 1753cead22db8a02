//! Scoped spans: RAII wall-clock timing with parent nesting.
//!
//! A [`SpanGuard`] marks a phase of engine execution (program / read /
//! accumulate, training fwd/bwd/update, simulator phases). Guards nest
//! per thread and capture — a span opened while another is open on the
//! same thread in the same capture becomes its child — and on drop two
//! records are made in the thread's capture:
//!
//! * an **aggregate** update of its span tree (count + total duration per
//!   unique path), returned in the capture's [`crate::Snapshot`], and
//! * a **trace event** (name, thread, start, duration) in a bounded
//!   buffer, rendered by [`crate::chrome_trace_json`] in Chrome
//!   trace-event format.
//!
//! Guards are intentionally `!Send`: a span times the thread it was
//! opened on. A worker that enters its spawner's capture starts its own
//! roots in the span tree.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::capture::{self, Scope};

/// Aggregated statistics for one span path (one node of the span tree).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpanStats {
    /// Span name (static label passed to [`crate::span`]).
    pub name: String,
    /// Number of completed spans at this path.
    pub count: u64,
    /// Total wall-clock time across those spans, nanoseconds.
    pub total_ns: u64,
    /// Child spans (opened while this span was the innermost on its
    /// thread), in first-seen order.
    pub children: Vec<SpanStats>,
}

impl SpanStats {
    /// Mean duration per completed span, nanoseconds.
    #[must_use]
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// One completed span occurrence, for the Chrome trace export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TraceEvent {
    pub(crate) name: &'static str,
    /// Small dense per-thread id (Chrome's `tid`).
    pub(crate) tid: u64,
    /// Start, nanoseconds since the capture began.
    pub(crate) start_ns: u64,
    pub(crate) dur_ns: u64,
}

/// Upper bound on the trace events one capture buffers; completions past
/// the cap are counted instead of stored, and
/// [`crate::chrome_trace_json`] reports that count as `dropped_events`.
pub const TRACE_CAPACITY: usize = 1 << 16;

/// A capture's span aggregates and trace buffer.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct Spans {
    pub(crate) tree: Vec<SpanStats>,
    pub(crate) trace: Vec<TraceEvent>,
    pub(crate) dropped: u64,
}

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// An open span on a thread's stack.
pub(crate) struct Frame {
    id: u64,
    name: &'static str,
    start: Instant,
}

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// RAII guard returned by [`crate::span`]; records the span on drop.
#[must_use = "a span measures the scope it is bound to; binding to _ drops it immediately"]
pub struct SpanGuard {
    /// 0 means inert (opened outside any capture).
    id: u64,
    /// `!Send`: the span times the thread that opened it.
    _not_send: PhantomData<*const ()>,
}

/// Opens a scoped span named `name` in the calling thread's capture.
/// Inert outside any capture: one thread-local load, a branch, and an
/// inert guard — no allocation, no formatting, no clock read
/// (audited by `tests/zero_cost.rs` with a counting allocator and
/// pinned by the on/off guardrail in `BENCH_hw_exec.json`).
///
/// # Examples
///
/// ```
/// let ((), snap) = inca_telemetry::capture(|| {
///     let _outer = inca_telemetry::span("phase");
///     let _inner = inca_telemetry::span("step"); // child of "phase"
/// });
/// assert_eq!(snap.spans()[0].name, "phase");
/// assert_eq!(snap.spans()[0].children[0].name, "step");
/// ```
// Wall-clock span timing is observability-only: durations live in the
// telemetry snapshot and the opt-in Chrome trace export, never in the
// gated report artifacts, so the taint stops here. lint: allow(determinism-taint)
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    let id = if capture::active() { open(name) } else { 0 };
    SpanGuard { id, _not_send: PhantomData }
}

#[cold]
fn open(name: &'static str) -> u64 {
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    capture::with_scope(|scope| {
        scope.stack.push(Frame { id, name, start: Instant::now() });
        Some(id)
    })
    .unwrap_or(0)
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.id != 0 {
            capture::with_scope(|scope| close(scope, self.id));
        }
    }
}

/// Pops the frame `id` off the scope's stack and records it. A frame
/// missing from the stack (its guard moved into another capture) records
/// nothing; frames above it were leaked (`mem::forget`) and are dropped
/// so nesting stays consistent.
fn close(scope: &mut Scope, id: u64) -> Option<()> {
    let end = Instant::now();
    let pos = scope.stack.iter().rposition(|f| f.id == id)?;
    let path: Vec<&'static str> = scope.stack[..=pos].iter().map(|f| f.name).collect();
    let frame = scope.stack.drain(pos..).next()?;
    let start_ns = frame.start.saturating_duration_since(scope.recorder.start).as_nanos() as u64;
    let dur_ns = end.saturating_duration_since(frame.start).as_nanos() as u64;
    let mut spans = scope.recorder.spans();
    add_to_tree(&mut spans.tree, &path, dur_ns);
    if spans.trace.len() < TRACE_CAPACITY {
        spans.trace.push(TraceEvent { name: frame.name, tid: TID.with(|&t| t), start_ns, dur_ns });
    } else {
        spans.dropped += 1;
    }
    Some(())
}

/// Counts one completed span at `path` (root first, the span last).
fn add_to_tree(mut level: &mut Vec<SpanStats>, path: &[&str], dur_ns: u64) {
    let Some((name, parents)) = path.split_last() else {
        return;
    };
    for segment in parents {
        level = &mut child(level, segment).children;
    }
    let node = child(level, name);
    node.count += 1;
    node.total_ns += dur_ns;
}

/// The node named `name` in `level`, appended if new.
fn child<'a>(level: &'a mut Vec<SpanStats>, name: &str) -> &'a mut SpanStats {
    let pos = match level.iter().position(|n| n.name == name) {
        Some(pos) => pos,
        None => {
            level.push(SpanStats { name: name.to_owned(), ..SpanStats::default() });
            level.len() - 1
        }
    };
    &mut level[pos]
}

#[cfg(test)]
mod tests {
    use crate::capture;

    use super::*;

    #[test]
    fn spans_nest_and_aggregate() {
        let ((), snap) = capture(|| {
            for _ in 0..3 {
                let _outer = span("outer");
                let _inner = span("inner");
            }
        });
        let tree = snap.spans();
        assert_eq!(tree.len(), 1);
        assert_eq!(tree[0].name, "outer");
        assert_eq!(tree[0].count, 3);
        assert_eq!(tree[0].children[0].name, "inner");
        assert_eq!(tree[0].children[0].count, 3);
        assert!(tree[0].total_ns >= tree[0].children[0].total_ns);
        assert_eq!(snap.spans.trace.len(), 6);
    }

    #[test]
    fn uncaptured_spans_are_inert() {
        let guard = span("ghost");
        assert_eq!(guard.id, 0);
        let ((), snap) = capture(|| drop(guard));
        assert!(snap.spans().is_empty());
        assert!(snap.spans.trace.is_empty());
    }

    #[test]
    fn entered_threads_get_separate_roots() {
        let ((), snap) = capture(|| {
            let handle = capture::current();
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    handle.enter(|| {
                        let _s = span("worker");
                    });
                });
                let _m = span("main");
            });
        });
        let names: Vec<&str> = snap.spans().iter().map(|n| n.name.as_str()).collect();
        assert!(names.contains(&"worker") && names.contains(&"main"), "{names:?}");
        // Distinct threads carry distinct tids in the trace.
        let tids: std::collections::BTreeSet<u64> = snap.spans.trace.iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 2);
    }

    #[test]
    fn a_nested_capture_roots_its_own_spans() {
        let (inner, outer) = capture(|| {
            let _outer = span("outer");
            capture(|| {
                let _inner = span("inner");
            })
            .1
        });
        assert_eq!(inner.spans()[0].name, "inner");
        assert!(inner.spans()[0].children.is_empty());
        assert_eq!(outer.spans().len(), 1);
        assert!(outer.spans()[0].children.is_empty(), "the outer capture sees none of the inner's spans");
    }
}
