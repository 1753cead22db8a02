//! The calendar queue's load-bearing property: its pop sequence is the
//! exact `(time, seq)` total order of the reference binary heap, for any
//! interleaving of schedules and pops — including tie-heavy timestamps,
//! bursts far beyond the current calendar day, and full drains that force
//! the calendar to re-anchor.

use inca_events::{EventQueue, HeapEventQueue};
use proptest::prelude::*;

/// SplitMix64 — a self-contained deterministic stream per drawn seed.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random interleavings with a mix of time scales: `tie_mod` small
    /// forces many identical timestamps (the tie-break path), large jumps
    /// exercise the overflow heap and day re-anchoring.
    #[test]
    fn calendar_matches_heap(
        seed in any::<u64>(),
        tie_mod in 1u64..40,
        horizon_shift in 0u32..45,
        ops in 200usize..1200,
    ) {
        let mut rng = seed;
        let mut cal = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        for op in 0..ops as u64 {
            let r = mix(&mut rng);
            match r % 4 {
                // Near-future, tie-heavy schedule.
                0 | 1 => {
                    let at = cal.now() + (r >> 8) % tie_mod;
                    cal.schedule(at, op);
                    heap.schedule(at, op);
                }
                // Occasional far-future burst past the calendar day.
                2 => {
                    let at = cal.now() + ((r >> 8) % tie_mod) + ((r >> 32) % (1u64 << horizon_shift));
                    cal.schedule(at, op);
                    heap.schedule(at, op);
                }
                // Pop (possibly draining the queue entirely).
                _ => {
                    prop_assert_eq!(cal.pop(), heap.pop());
                    prop_assert_eq!(cal.now(), heap.now());
                }
            }
            prop_assert_eq!(cal.len(), heap.len());
        }
        loop {
            let (a, b) = (cal.pop(), heap.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        prop_assert_eq!(cal.processed(), heap.processed());
    }

    /// All events at one timestamp pop in exact schedule order — the
    /// guarantee the serving engine's report stability rests on.
    #[test]
    fn pure_ties_pop_in_schedule_order(seed in any::<u64>(), n in 1usize..300) {
        let mut rng = seed;
        let t = mix(&mut rng) % (1 << 50);
        let mut cal = EventQueue::new();
        for i in 0..n as u64 {
            cal.schedule(t, i);
        }
        for i in 0..n as u64 {
            prop_assert_eq!(cal.pop(), Some((t, i)));
        }
        prop_assert!(cal.is_empty());
    }
}

/// Schedules `at` on both queues with payload `id`.
fn both(cal: &mut EventQueue<u64>, heap: &mut HeapEventQueue<u64>, at: u64, id: u64) {
    cal.schedule(at, id);
    heap.schedule(at, id);
}

/// Pops both queues to empty, pop for pop.
fn drain_equal(cal: &mut EventQueue<u64>, heap: &mut HeapEventQueue<u64>) {
    loop {
        let (a, b) = (cal.pop(), heap.pop());
        assert_eq!(a, b);
        if a.is_none() {
            return;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The fleet's shape: ~110 timers milliseconds out, and between idle
    /// stretches of 1–5 ms, bursts of ~40 events 0.5–4 µs ahead, each
    /// hopping on a few times. Bursts fit buckets sized to their spacing
    /// while the idle stretches sit in the overflow heap, so both paths
    /// and every day jump between them run.
    #[test]
    fn bursty_fleet_shape_matches_heap(
        seed in any::<u64>(),
        bursts in 20u32..80,
        burst_len in 20u64..60,
        hops in 1u64..6,
    ) {
        let mut rng = seed;
        let mut cal = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        // Payload: 0 = timer, 1 = burst trigger, 2 + k = packet with k
        // hops left.
        for _ in 0..110 {
            both(&mut cal, &mut heap, 10_000_000 + mix(&mut rng) % 40_000_000, 0);
        }
        both(&mut cal, &mut heap, 1_000_000 + mix(&mut rng) % 4_000_000, 1);
        let mut fired = 0;
        while let Some((now, ev)) = cal.pop() {
            prop_assert_eq!(heap.pop(), Some((now, ev)));
            match ev {
                0 => both(&mut cal, &mut heap, now + 10_000_000 + mix(&mut rng) % 40_000_000, 0),
                1 if fired < bursts => {
                    fired += 1;
                    for _ in 0..burst_len {
                        both(&mut cal, &mut heap, now + 500 + mix(&mut rng) % 3_501, 2 + hops);
                    }
                    both(&mut cal, &mut heap, now + 1_000_000 + mix(&mut rng) % 4_000_000, 1);
                }
                1 => break,
                k if k > 2 => both(&mut cal, &mut heap, now + 500 + mix(&mut rng) % 3_501, k - 1),
                _ => {}
            }
            prop_assert_eq!(cal.len(), heap.len());
        }
        drain_equal(&mut cal, &mut heap);
        prop_assert_eq!(cal.processed(), heap.processed());
    }

    /// Every event is scheduled past the widest possible day (2¹⁶ buckets
    /// of 2³² ns), so each lands in the overflow heap, and the calendar
    /// only ever holds what a day jump pulls out of it.
    #[test]
    fn overflow_only_schedules_match_heap(
        seed in any::<u64>(),
        ops in 50usize..400,
        pop_every in 1u64..5,
    ) {
        const PAST_ANY_DAY: u64 = 1 << 48;
        let mut rng = seed;
        let mut cal = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        for op in 0..ops as u64 {
            let at = cal.now() + PAST_ANY_DAY + mix(&mut rng) % (1 << 50);
            both(&mut cal, &mut heap, at, op);
            if op.is_multiple_of(pop_every) {
                prop_assert_eq!(cal.pop(), heap.pop());
                prop_assert_eq!(cal.now(), heap.now());
            }
        }
        drain_equal(&mut cal, &mut heap);
    }

    /// Times within 2²⁰ ns of `u64::MAX`: bucket offsets and gap samples
    /// near the top of the clock neither wrap nor reorder, ties included.
    #[test]
    fn times_near_the_end_of_the_clock_match_heap(
        seed in any::<u64>(),
        ops in 100usize..1_000,
        tie_mod in 1u64..64,
    ) {
        let mut rng = seed;
        let mut cal = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        let floor = u64::MAX - (1 << 20);
        for op in 0..ops as u64 {
            let r = mix(&mut rng);
            let lo = cal.now().max(floor);
            let span = u64::MAX - lo;
            match r % 3 {
                0 => prop_assert_eq!(cal.pop(), heap.pop()),
                // Tie-heavy: a few distinct times just past the clock.
                1 => both(&mut cal, &mut heap, lo + (r >> 8) % tie_mod.min(span + 1), op),
                _ => both(&mut cal, &mut heap, lo + (r >> 8) % (span + 1), op),
            }
        }
        both(&mut cal, &mut heap, u64::MAX, u64::MAX);
        drain_equal(&mut cal, &mut heap);
        prop_assert_eq!(cal.now(), u64::MAX);
    }
}
