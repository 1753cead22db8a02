//! Deterministic future-event lists: the calendar queue every simulator
//! uses, and the reference binary-heap queue it is measured against.
//!
//! Both queues pop events in the total order `(time, seq)` — firing time,
//! ties broken by schedule order via a monotonic sequence number — so the
//! pop sequence is reproducible bit-for-bit without requiring `Ord` on the
//! event payload, and the two implementations are interchangeable.
//!
//! # Calendar geometry
//!
//! The calendar splits the near future (one *day*) into `B` power-of-two
//! buckets of width `2^s` ns starting at `base`; an event at time `t` with
//! `(t - base) >> s < B` lands in bucket `(t - base) >> s`, anything later
//! waits in an overflow min-heap. Popping drains buckets cursor-forward,
//! sorting one bucket at a time into a descending stack that is popped
//! from the tail. When the calendar empties, `base` jumps straight to the
//! earliest overflow event and the geometry adapts. The bucket width is
//! four times the event spacing, rounded down to a power of two: a few
//! events per bucket, as in Brown's calendar queue (CACM 31(10), 1988).
//! The spacing is a fixed-point EWMA of inter-pop gaps in which each gap
//! counts at most twice the current estimate, so the idle stretches
//! between bursts cannot widen the buckets past the bursts' spacing
//! (Brown likewise drops separations above twice the mean). The bucket
//! count tracks the pending-event high-water mark (≈ one day spans the
//! whole pending horizon). Both inputs are functions of the scheduled
//! times alone, so adaptation is as deterministic as the events.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// One scheduled entry: fires at `time`, ties broken by `seq`.
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    // Reversed so the std max-heap pops the earliest (time, seq) first.
    fn cmp(&self, other: &Self) -> Ordering {
        other.time.cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Fewest buckets the calendar keeps (idle queues stay small).
const MIN_BUCKETS: usize = 64;
/// Most buckets the calendar grows to (64 Ki × 16 B of cursor state).
const MAX_BUCKETS: usize = 1 << 16;
/// Widest bucket: 2^32 ns ≈ 4.3 s of virtual time.
const MAX_SHIFT: u32 = 32;
/// Fractional bits of the fixed-point spacing estimate (1/65536 ns), so
/// sub-nanosecond spacings of dense schedules still register.
const SPACING_FRAC: u32 = 16;
/// The spacing EWMA keeps `1 − 2^-SPACING_DECAY` of its value per pop: a
/// memory of ~128 pops, long enough that the mix of short and long gaps
/// inside one burst does not swing the width by octaves.
const SPACING_DECAY: u32 = 7;

/// A deterministic future-event list over payload type `E`, backed by an
/// adaptive calendar (bucket) queue: schedule and pop cost O(1) while a
/// few events share each bucket, which the width rule aims for on the
/// near-monotonic schedules discrete-event simulation produces.
///
/// Pop order is exactly `(time, seq)` — identical to
/// [`HeapEventQueue`] — so swapping implementations cannot change a
/// simulation's event sequence.
///
/// # Examples
///
/// ```
/// use inca_events::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.schedule(20, "late");
/// q.schedule(10, "early");
/// assert_eq!(q.pop(), Some((10, "early")));
/// assert_eq!(q.now(), 10);
/// assert_eq!(q.pop(), Some((20, "late")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    /// One day of buckets; entries unsorted until their bucket is drained.
    buckets: Vec<Vec<Scheduled<E>>>,
    /// The cursor bucket's entries, sorted descending by `(time, seq)` so
    /// the earliest pops off the tail.
    current: Vec<Scheduled<E>>,
    /// Events at or beyond the end of the current day (min-heap).
    overflow: BinaryHeap<Scheduled<E>>,
    /// Virtual time at the start of bucket 0.
    base: SimTime,
    /// log2 of the bucket width in nanoseconds.
    shift: u32,
    /// Next bucket the pop scan will visit.
    cursor: usize,
    /// Entries sitting in `buckets` (excludes `current` and `overflow`).
    cal_len: usize,
    seq: u64,
    now: SimTime,
    processed: u64,
    /// Event spacing: EWMA of inter-pop gaps, each clipped to twice the
    /// estimate, in units of 2^-SPACING_FRAC ns.
    spacing: u64,
    /// High-water pending count since the last geometry change.
    peak_pending: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at virtual time zero.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: std::iter::repeat_with(Vec::new).take(MIN_BUCKETS).collect(),
            current: Vec::new(),
            overflow: BinaryHeap::new(),
            base: 0,
            shift: 0,
            cursor: 0,
            cal_len: 0,
            seq: 0,
            now: 0,
            processed: 0,
            spacing: 0,
            peak_pending: 0,
        }
    }

    /// Current virtual time (the firing time of the last popped event).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` lies in the past — an event firing before the
    /// clock would be time travel and break determinism downstream.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "event scheduled in the past: {at} < {}", self.now);
        let entry = Scheduled { time: at, seq: self.seq, event };
        self.seq += 1;
        if self.is_empty() {
            // Fully drained: re-anchor the calendar at the clock (never at
            // `at` — a later schedule may target an earlier time that is
            // still `>= now`) and adapt geometry while every bucket is
            // empty.
            self.adapt_geometry();
            self.base = self.now;
            self.cursor = 0;
        }
        // `at >= now >= base` always holds here — `base` is only ever set
        // to `now` (above) or, mid-pop, to the overflow minimum that the
        // same pop immediately advances `now` to — so the offset never
        // underflows and the index never lands before the cursor.
        let idx = (at - self.base) >> self.shift;
        if idx >= self.buckets.len() as u64 {
            self.overflow.push(entry);
        } else if idx as usize == self.cursor {
            // The cursor bucket lives in `current`, sorted descending;
            // splice the entry in at its (time, seq) slot.
            let key = (entry.time, entry.seq);
            let pos = self.current.partition_point(|e| (e.time, e.seq) > key);
            self.current.insert(pos, entry);
        } else {
            self.buckets[idx as usize].push(entry);
            self.cal_len += 1;
        }
        let pending = self.len();
        if pending > self.peak_pending {
            self.peak_pending = pending;
        }
    }

    /// Pops the earliest event, advancing the clock to its firing time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            if let Some(e) = self.current.pop() {
                debug_assert!(e.time >= self.now);
                if self.processed > 0 {
                    // First pop's gap is the anchor offset, not a spacing
                    // sample; skip it. A gap counts at most twice the
                    // estimate (at least 1 ns, so a zero estimate can
                    // grow): an idle stretch nudges the spacing up by at
                    // most 1/128 instead of dominating it.
                    let gap = (e.time - self.now).min(1 << MAX_SHIFT) << SPACING_FRAC;
                    let sample = gap.min((2 * self.spacing).max(1 << SPACING_FRAC));
                    self.spacing = self.spacing - (self.spacing >> SPACING_DECAY) + (sample >> SPACING_DECAY);
                }
                self.now = e.time;
                self.processed += 1;
                return Some((e.time, e.event));
            }
            if self.cal_len == 0 {
                // Day exhausted. Jump straight to the earliest overflow
                // event; with every bucket empty the geometry may change
                // freely first.
                let next = self.overflow.peek().map(|e| e.time)?;
                self.adapt_geometry();
                self.base = next;
                self.cursor = 0;
                self.pull_overflow();
                debug_assert!(self.cal_len > 0);
            }
            // cal_len > 0 guarantees a non-empty bucket at or after the
            // cursor (inserts never land behind it); scan forward to it.
            match self.buckets[self.cursor..].iter().position(|b| !b.is_empty()) {
                Some(off) => self.cursor += off,
                None => {
                    debug_assert!(false, "calendar accounting out of sync");
                    self.cal_len = 0;
                    continue;
                }
            }
            std::mem::swap(&mut self.buckets[self.cursor], &mut self.current);
            self.cal_len -= self.current.len();
            // Descending (time, seq): the earliest entry pops off the tail.
            self.current.sort_unstable_by_key(|e| std::cmp::Reverse((e.time, e.seq)));
        }
    }

    /// Number of events waiting to fire.
    #[must_use]
    pub fn len(&self) -> usize {
        self.current.len() + self.cal_len + self.overflow.len()
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events popped so far (the engine-throughput denominator).
    #[must_use]
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Moves every overflow event that now falls inside the day into its
    /// bucket. Only called right after `base` jumped to the earliest
    /// overflow time, so `top.time >= base` always holds.
    fn pull_overflow(&mut self) {
        while let Some(top) = self.overflow.peek() {
            let idx = (top.time - self.base) >> self.shift;
            if idx >= self.buckets.len() as u64 {
                break;
            }
            if let Some(e) = self.overflow.pop() {
                self.buckets[idx as usize].push(e);
                self.cal_len += 1;
            }
        }
    }

    /// Re-derives bucket width and count. Only callable while every bucket
    /// is empty (between days), so no entry ever needs re-bucketing.
    fn adapt_geometry(&mut self) {
        debug_assert!(self.cal_len == 0 && self.current.is_empty());
        // Width = 4 × spacing, rounded down to a power of two.
        let width = ((4 * self.spacing) >> SPACING_FRAC).clamp(1, 1 << MAX_SHIFT);
        self.shift = width.ilog2();
        let want = self.peak_pending.next_power_of_two().clamp(MIN_BUCKETS, MAX_BUCKETS);
        if want != self.buckets.len() {
            self.buckets.resize_with(want, Vec::new);
        }
        self.peak_pending = self.overflow.len();
    }
}

/// Geometry and occupancy summary, without requiring `E: Debug` —
/// payloads are engine-internal and often not printable, but the queue's
/// shape (bucket count, width, fill) is exactly what a stuck simulation
/// needs on screen.
impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len())
            .field("now", &self.now)
            .field("processed", &self.processed)
            .field("buckets", &self.buckets.len())
            .field("bucket_width_ns", &(1u64 << self.shift))
            .field("base", &self.base)
            .field("cursor", &self.cursor)
            .field("overflow", &self.overflow.len())
            .field("spacing_ns", &(self.spacing >> SPACING_FRAC))
            .field("peak_pending", &self.peak_pending)
            .finish()
    }
}

/// The reference binary-heap event queue: same API and the exact same
/// `(time, seq)` pop order as [`EventQueue`].
///
/// Kept for the order-equivalence property tests and the old-vs-new
/// engine benchmarks; simulators should use [`EventQueue`].
// Needed by crates/events/tests/{order_equivalence,geometry_adaptation}.rs,
// crates/bench/benches/{hw_exec,serve_bench}.rs (the reference queue)
// lint: allow(narrow-pub)
pub struct HeapEventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    seq: u64,
    now: SimTime,
    processed: u64,
}

impl<E> Default for HeapEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapEventQueue<E> {
    /// An empty queue at virtual time zero.
    #[must_use]
    pub fn new() -> Self {
        Self { heap: BinaryHeap::new(), seq: 0, now: 0, processed: 0 }
    }

    /// Current virtual time (the firing time of the last popped event).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` lies in the past.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "event scheduled in the past: {at} < {}", self.now);
        self.heap.push(Scheduled { time: at, seq: self.seq, event });
        self.seq += 1;
    }

    /// Pops the earliest event, advancing the clock to its firing time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = self.heap.pop()?;
        debug_assert!(s.time >= self.now);
        self.now = s.time;
        self.processed += 1;
        Some((s.time, s.event))
    }

    /// Number of events waiting to fire.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total events popped so far.
    #[must_use]
    pub fn processed(&self) -> u64 {
        self.processed
    }
}

/// Occupancy summary matching [`EventQueue`]'s, without `E: Debug`.
impl<E> std::fmt::Debug for HeapEventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeapEventQueue")
            .field("len", &self.heap.len())
            .field("now", &self.now)
            .field("processed", &self.processed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, 3);
        q.schedule(10, 1);
        q.schedule(20, 2);
        assert_eq!(q.pop(), Some((10, 1)));
        assert_eq!(q.pop(), Some((20, 2)));
        assert_eq!(q.pop(), Some((30, 3)));
        assert!(q.is_empty());
        assert_eq!(q.processed(), 3);
    }

    #[test]
    fn ties_break_in_schedule_order() {
        let mut q = EventQueue::new();
        for i in 0..16 {
            q.schedule(5, i);
        }
        for i in 0..16 {
            assert_eq!(q.pop(), Some((5, i)));
        }
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.schedule(10, ());
        let _ = q.pop();
        q.schedule(5, ());
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn heap_rejects_past_events() {
        let mut q = HeapEventQueue::new();
        q.schedule(10, ());
        let _ = q.pop();
        q.schedule(5, ());
    }

    /// Events far beyond the first day route through the overflow heap and
    /// still pop in global order.
    #[test]
    fn overflow_day_jumps_preserve_order() {
        let mut q = EventQueue::new();
        let times = [5u64, 1 << 20, 3, (1 << 34) + 7, 1 << 34, 6, 1 << 50];
        for (i, &t) in times.iter().enumerate() {
            q.schedule(t, i);
        }
        let mut sorted: Vec<u64> = times.to_vec();
        sorted.sort_unstable();
        for &t in &sorted {
            let (pt, _) = q.pop().expect("event");
            assert_eq!(pt, t);
        }
        assert!(q.pop().is_none());
    }

    /// Re-anchoring after a full drain accepts events earlier than the old
    /// calendar base (but never earlier than `now`).
    #[test]
    fn reanchors_after_drain() {
        let mut q = EventQueue::new();
        q.schedule(1 << 40, "far");
        assert_eq!(q.pop(), Some(((1 << 40), "far")));
        q.schedule((1 << 40) + 1, "near");
        assert_eq!(q.pop(), Some(((1 << 40) + 1, "near")));
        assert_eq!(q.len(), 0);
    }

    /// The regression that motivated anchoring at `now`: after a drain,
    /// a far event re-anchors the calendar, and a second event earlier
    /// than the first (but still in the future) must pop first.
    #[test]
    fn accepts_earlier_event_after_reanchor() {
        let mut q = EventQueue::new();
        q.schedule(10, 0);
        assert_eq!(q.pop(), Some((10, 0)));
        q.schedule(1 << 45, 1);
        q.schedule(11, 2);
        assert_eq!(q.pop(), Some((11, 2)));
        assert_eq!(q.pop(), Some(((1 << 45), 1)));
    }

    /// `Debug` prints the geometry summary even when `E` is not `Debug`.
    #[test]
    fn debug_summarizes_geometry_without_payload_debug() {
        struct Opaque;
        let mut q = EventQueue::new();
        q.schedule(10, Opaque);
        q.schedule(1 << 40, Opaque);
        let s = format!("{q:?}");
        assert!(s.contains("len: 2"), "{s}");
        assert!(s.contains("bucket_width_ns"), "{s}");
        let mut h = HeapEventQueue::new();
        h.schedule(10, Opaque);
        let hs = format!("{h:?}");
        assert!(hs.contains("HeapEventQueue") && hs.contains("len: 1"), "{hs}");
    }

    /// Payloads of the fleet-shaped schedule below.
    #[derive(Clone, Copy)]
    enum Fleet {
        /// A far-future timer (request deadlines, batch timeouts).
        Timer,
        /// Fires the next burst.
        Trigger,
        /// A packet hop with `left` hops to go.
        Hop { left: u8 },
    }

    /// What a fleet-shaped schedule made of the calendar.
    struct FleetShape {
        schedules: u64,
        /// Schedules spliced into the sorted cursor bucket.
        spliced: u64,
        /// Bucket width (ns) in force at each burst's start.
        widths: Vec<u64>,
        /// Mean gap (ns) between consecutive pops inside bursts.
        burst_gap: f64,
    }

    /// Drives the fleet's event shape: ~110 timers 10–50 ms ahead, and
    /// every 1–5 ms a burst of 40 packets 0.5–4 µs ahead, each hopping
    /// three more times 0.5–4 µs apart — ~150 pending, packed bursts
    /// between idle stretches. Counts rather than times, so it holds on
    /// any host.
    fn drive_fleet_shape(bursts: u32) -> FleetShape {
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let mut rand = move |lo: u64, hi: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            lo + x % (hi - lo + 1)
        };
        let mut q = EventQueue::new();
        let mut shape = FleetShape { schedules: 0, spliced: 0, widths: Vec::new(), burst_gap: 0.0 };
        let mut schedule = |q: &mut EventQueue<Fleet>, at: SimTime, ev: Fleet| {
            let before = q.current.len();
            q.schedule(at, ev);
            shape.schedules += 1;
            shape.spliced += u64::from(q.current.len() > before);
        };
        for _ in 0..110 {
            schedule(&mut q, rand(10_000_000, 50_000_000), Fleet::Timer);
        }
        schedule(&mut q, rand(1_000_000, 5_000_000), Fleet::Trigger);
        let (mut fired, mut last_hop, mut gaps, mut gap_sum) = (0, None, 0u64, 0u64);
        while let Some((now, ev)) = q.pop() {
            match ev {
                Fleet::Timer => schedule(&mut q, now + rand(10_000_000, 50_000_000), Fleet::Timer),
                Fleet::Trigger if fired < bursts => {
                    fired += 1;
                    shape.widths.push(1 << q.shift);
                    last_hop = None;
                    for _ in 0..40 {
                        schedule(&mut q, now + rand(500, 4_000), Fleet::Hop { left: 3 });
                    }
                    schedule(&mut q, now + rand(1_000_000, 5_000_000), Fleet::Trigger);
                }
                Fleet::Trigger => break,
                Fleet::Hop { left } => {
                    if let Some(prev) = last_hop {
                        gaps += 1;
                        gap_sum += now - prev;
                    }
                    last_hop = Some(now);
                    if left > 0 {
                        schedule(&mut q, now + rand(500, 4_000), Fleet::Hop { left: left - 1 });
                    }
                }
            }
        }
        shape.burst_gap = gap_sum as f64 / gaps as f64;
        shape
    }

    /// Bursts between idle stretches get buckets sized to the bursts'
    /// spacing. A width that followed a mean inflated by the idle
    /// stretches would be hundreds of µs, and nearly every burst event
    /// would be spliced into the sorted cursor bucket one by one.
    #[test]
    fn bursts_get_buckets_sized_to_their_spacing() {
        let shape = drive_fleet_shape(400);
        let spliced = shape.spliced as f64 / shape.schedules as f64;
        let mut widths = shape.widths;
        widths.sort_unstable();
        let median_width = widths[widths.len() / 2] as f64;
        assert!(spliced < 0.10, "{:.1}% of schedules spliced into the cursor bucket", 100.0 * spliced);
        assert!(
            median_width <= 8.0 * shape.burst_gap,
            "median bucket width {median_width} ns against a {:.1} ns burst spacing",
            shape.burst_gap
        );
    }

    /// Interleaved schedule/pop with tie-heavy times matches the reference
    /// heap exactly (a cheap inline twin of the proptest in `tests/`).
    #[test]
    fn matches_heap_on_tie_heavy_interleaving() {
        let mut cal = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        let mut x: u64 = 0x9E37_79B9;
        for round in 0..2_000u64 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(round | 1);
            // Small moduli force many identical timestamps.
            let at = cal.now() + (x >> 7) % 17;
            cal.schedule(at, round);
            heap.schedule(at, round);
            if x.is_multiple_of(3) {
                assert_eq!(cal.pop(), heap.pop());
            }
        }
        loop {
            let (a, b) = (cal.pop(), heap.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(cal.processed(), heap.processed());
    }
}
