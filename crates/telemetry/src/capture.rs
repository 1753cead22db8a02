//! Capture scopes: which events belong to a measurement.
//!
//! A [`capture`] owns its recorder: one counter per [`Event`], plus the
//! span tree and trace events of the spans closed inside it. Each thread
//! has at most one active capture, held in a thread-local, and
//! [`record`], [`incr`] and [`crate::span`] write to it. The whole rule:
//!
//! * an event belongs to the capture active on the thread that records
//!   it, and outside any capture it is not recorded;
//! * a capture nested in another takes the events recorded inside it;
//!   the outer capture sees none of them (innermost only) and resumes
//!   when the inner one returns;
//! * a thread spawned inside a capture records into it only after
//!   entering it through [`current`] and [`Handle::enter`], as
//!   `inca_core::exec`'s workers and `inca_sim`'s sweep threads do, so
//!   parallel totals equal sequential ones.
//!
//! Counters are relaxed atomic adds on the recorder the entering threads
//! share. A capture reads them after its closure returns, when every
//! scoped worker that entered it has been joined, so its totals are
//! exact.
//!
//! Outside any capture, [`record`], [`incr`] and [`crate::span`] cost one
//! load of a `const` thread-local flag and a branch, and allocate
//! nothing (`tests/zero_cost.rs`).

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::event::{Event, EVENT_COUNT};
use crate::snapshot::Snapshot;
use crate::span::{Frame, Spans};

/// The state one capture owns, shared by every thread that entered it.
pub(crate) struct Recorder {
    counts: [AtomicU64; EVENT_COUNT],
    spans: Mutex<Spans>,
    /// Trace timestamps are offsets from the capture's start.
    pub(crate) start: Instant,
}

impl Recorder {
    /// The span aggregates and trace buffer. Every update of them is a
    /// whole push or increment, so a guard poisoned by a panicking
    /// thread still holds valid data.
    pub(crate) fn spans(&self) -> MutexGuard<'_, Spans> {
        self.spans.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A thread's view of the capture it records into.
pub(crate) struct Scope {
    pub(crate) recorder: Arc<Recorder>,
    /// This thread's open spans in this capture, innermost last.
    pub(crate) stack: Vec<Frame>,
}

thread_local! {
    /// Whether `SCOPE` holds a capture: the only state the uncaptured
    /// path reads.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static SCOPE: RefCell<Option<Scope>> = const { RefCell::new(None) };
}

/// Whether the calling thread is inside a capture.
#[inline]
pub(crate) fn active() -> bool {
    ACTIVE.get()
}

/// Runs `f` on the calling thread's capture scope, if it has one.
pub(crate) fn with_scope<R>(f: impl FnOnce(&mut Scope) -> Option<R>) -> Option<R> {
    SCOPE.with_borrow_mut(|scope| scope.as_mut().and_then(f))
}

/// Records `n` occurrences of `event` in the calling thread's capture.
///
/// Outside any capture this is one thread-local load and a branch.
#[inline]
pub fn record(event: Event, n: u64) {
    if active() {
        record_captured(event, n);
    }
}

/// Records one occurrence of `event`.
#[inline]
pub fn incr(event: Event) {
    record(event, 1);
}

#[cold]
fn record_captured(event: Event, n: u64) {
    SCOPE.with_borrow(|scope| {
        if let Some(scope) = scope {
            scope.recorder.counts[event.index()].fetch_add(n, Ordering::Relaxed);
        }
    });
}

/// Runs `f` in a fresh capture and returns its result with everything
/// recorded into the capture: counters, span tree and trace events.
///
/// # Examples
///
/// ```
/// use inca_telemetry::{capture, incr, record, Event};
///
/// let ((), snap) = capture(|| {
///     record(Event::XbarReadPulse, 3);
///     // A nested capture takes its own events; the outer sees none.
///     let ((), inner) = capture(|| incr(Event::XbarReadPulse));
///     assert_eq!(inner.get(Event::XbarReadPulse), 1);
/// });
/// assert_eq!(snap.get(Event::XbarReadPulse), 3);
/// ```
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Snapshot) {
    let recorder =
        Arc::new(Recorder { counts: Default::default(), spans: Mutex::default(), start: Instant::now() });
    let out = Handle(Some(Arc::clone(&recorder))).enter(f);
    let counters = recorder.counts.each_ref().map(|c| c.load(Ordering::Relaxed));
    let spans = std::mem::take(&mut *recorder.spans());
    (out, Snapshot::new(counters, spans))
}

/// The calling thread's capture, for a thread it spawns to enter.
#[must_use]
pub fn current() -> Handle {
    if !active() {
        return Handle(None);
    }
    Handle(SCOPE.with_borrow(|scope| scope.as_ref().map(|s| Arc::clone(&s.recorder))))
}

/// A handle on one capture, taken with [`current`] and entered with
/// [`Handle::enter`]. A handle taken outside any capture enters nothing.
#[derive(Clone)]
pub struct Handle(Option<Arc<Recorder>>);

impl Handle {
    /// Runs `f` with the calling thread recording into this handle's
    /// capture, then restores the thread's previous capture (also when
    /// `f` unwinds). Spans opened inside start a new root in the
    /// capture's span tree.
    pub fn enter<R>(&self, f: impl FnOnce() -> R) -> R {
        let Some(recorder) = &self.0 else {
            return f();
        };
        let _restore = Restore(swap(Some(Scope { recorder: Arc::clone(recorder), stack: Vec::new() })));
        f()
    }
}

/// Makes `next` the calling thread's scope and returns the previous one.
fn swap(next: Option<Scope>) -> Option<Scope> {
    ACTIVE.set(next.is_some());
    SCOPE.replace(next)
}

/// Puts a thread's previous scope back when an entered closure ends.
struct Restore(Option<Scope>);

impl Drop for Restore {
    fn drop(&mut self) {
        swap(self.0.take());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncaptured_records_nothing() {
        record(Event::AdcConversion, 10);
        let ((), snap) = capture(|| ());
        assert_eq!(snap.total_events(), 0);
    }

    #[test]
    fn captured_counts_accumulate() {
        let ((), snap) = capture(|| {
            record(Event::XbarReadPulse, 3);
            incr(Event::XbarReadPulse);
        });
        assert_eq!(snap.get(Event::XbarReadPulse), 4);
        assert_eq!(snap.total_events(), 4);
    }

    #[test]
    fn entered_threads_count_exactly_and_others_not_at_all() {
        let ((), snap) = capture(|| {
            let handle = current();
            std::thread::scope(|scope| {
                for _ in 0..8 {
                    scope.spawn(|| {
                        handle.enter(|| {
                            for _ in 0..10_000 {
                                incr(Event::DacDrive);
                            }
                        });
                    });
                }
                // A thread that does not enter records nothing.
                scope.spawn(|| incr(Event::DacDrive));
            });
        });
        assert_eq!(snap.get(Event::DacDrive), 80_000);
    }

    #[test]
    fn nested_capture_takes_its_events_from_the_outer() {
        let (inner, outer) = capture(|| {
            incr(Event::SramRead);
            let ((), inner) = capture(|| record(Event::SramRead, 7));
            incr(Event::SramRead);
            inner
        });
        assert_eq!(inner.get(Event::SramRead), 7);
        assert_eq!(outer.get(Event::SramRead), 2);
        assert!(!active(), "the thread leaves every capture it entered");
    }

    #[test]
    fn unwinding_out_of_a_capture_restores_the_thread() {
        let ((), snap) = capture(|| {
            let unwound = std::panic::catch_unwind(|| {
                capture(|| panic!("inside"));
            });
            assert!(unwound.is_err());
            incr(Event::SramWrite);
        });
        assert_eq!(snap.get(Event::SramWrite), 1);
        assert!(!active());
    }

    #[test]
    fn a_handle_taken_outside_enters_nothing() {
        let handle = current();
        let ((), snap) = capture(|| handle.enter(|| incr(Event::SramWrite)));
        // The empty handle leaves the thread in the capture it is in.
        assert_eq!(snap.get(Event::SramWrite), 1);
    }
}
