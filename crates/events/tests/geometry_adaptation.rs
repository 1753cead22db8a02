//! Geometry adaptation is invisible to pop order.
//!
//! The calendar re-derives its bucket width (four times an EWMA of
//! inter-pop gaps in which each gap counts at most twice the estimate)
//! and bucket count (pending high-water mark) at every empty-calendar
//! moment. These tests drive the queue through the regimes that force
//! aggressive geometry churn — tens of thousands of pending events
//! (bucket-count growth to the high-water mark), alternating dense/sparse
//! gap scales (bucket-width swings across many octaves), and repeated
//! full drains (one adaptation opportunity per drain) — and check that
//! the pop sequence still matches the geometry-free reference heap
//! pop-for-pop.

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
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// High pending counts with phase-shifting gap scales: each round
    /// drains the queue (unlocking `adapt_geometry`), then schedules a
    /// large batch at a new time scale so both the spacing estimate and
    /// the peak-pending bucket count move between rounds. Pop order must
    /// remain the `(time, seq)` total order of the reference heap.
    #[test]
    fn adaptation_never_reorders_pops(
        seed in any::<u64>(),
        rounds in 2usize..6,
        batch in 2_000usize..12_000,
        // Per-round gap exponents: 2^1 ns (maximally tie-heavy) up to
        // 2^34 ns (every event beyond the widest possible day).
        scale_a in 1u32..34,
        scale_b in 1u32..34,
    ) {
        let mut rng = seed;
        let mut cal = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        let mut id = 0u64;
        for round in 0..rounds {
            let scale = if round % 2 == 0 { scale_a } else { scale_b };
            // Burst-schedule a full batch: pending peaks at `batch`,
            // forcing the bucket count toward the high-water mark at the
            // next adaptation point.
            for _ in 0..batch {
                let at = cal.now() + (mix(&mut rng) % (1u64 << scale));
                cal.schedule(at, id);
                heap.schedule(at, id);
                id += 1;
            }
            prop_assert!(cal.len() >= batch);
            // Partial drain with interleaved re-schedules (the serving
            // engine's shape: every pop may schedule a follow-up), then a
            // full drain so the next round adapts geometry from scratch.
            for _ in 0..batch / 2 {
                let popped = cal.pop();
                prop_assert_eq!(&popped, &heap.pop());
                if let Some((_, _)) = popped {
                    let at = cal.now() + (mix(&mut rng) % (1u64 << scale));
                    cal.schedule(at, id);
                    heap.schedule(at, id);
                    id += 1;
                }
            }
            loop {
                let (a, b) = (cal.pop(), heap.pop());
                prop_assert_eq!(&a, &b);
                if a.is_none() {
                    break;
                }
            }
            prop_assert!(cal.is_empty() && heap.is_empty());
        }
        prop_assert_eq!(cal.processed(), heap.processed());
        prop_assert_eq!(cal.now(), heap.now());
    }

    /// Ties at scale: a whole batch at one timestamp while the geometry
    /// has been retuned by a previous sparse round still pops in exact
    /// schedule order.
    #[test]
    fn post_adaptation_ties_keep_schedule_order(
        seed in any::<u64>(),
        n in 1_000usize..8_000,
        sparse_scale in 20u32..34,
    ) {
        let mut rng = seed;
        let mut cal = EventQueue::new();
        // Round 1: sparse far-flung events drive the spacing estimate wide.
        for i in 0..256u64 {
            cal.schedule(cal.now() + (mix(&mut rng) % (1u64 << sparse_scale)), i);
        }
        while cal.pop().is_some() {}
        // Round 2: a pure-tie burst under the adapted geometry.
        let t = cal.now() + 1 + mix(&mut rng) % 1_000;
        for i in 0..n as u64 {
            cal.schedule(t, 1_000 + i);
        }
        for i in 0..n as u64 {
            prop_assert_eq!(cal.pop(), Some((t, 1_000 + i)));
        }
        prop_assert!(cal.is_empty());
    }
}
