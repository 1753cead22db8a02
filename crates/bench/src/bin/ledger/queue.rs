//! Calendar-queue churn (`inca_events::EventQueue`) in the two regimes
//! the simulators drive it: the fleet's dense packet-hop events and the
//! single-site engine's sparse batch timers.

use inca_events::EventQueue;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::measure::{median, stream};
use crate::trace::Tracer;

const DENSE_PENDING: usize = 4096;
const DENSE_POPS: u64 = 2_000_000;
const SPARSE_PENDING: usize = 64;
const SPARSE_POPS: u64 = 1_000_000;
const REPS: u64 = 3;

/// Keeps `pending` events in flight: every pop reschedules its event
/// `delay` ns after the popped time. Returns pops per host second.
fn churn(
    tr: &mut Tracer,
    name: &str,
    rep: u64,
    seed: u64,
    pending: usize,
    pops: u64,
    delay: fn(&mut StdRng) -> u64,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut q = EventQueue::new();
    for e in 0..pending {
        q.schedule(delay(&mut rng), e);
    }
    let ((), secs) = tr.timed(name, rep, |_| {
        for _ in 0..pops {
            if let Some((t, e)) = q.pop() {
                q.schedule(t + delay(&mut rng), e);
            }
        }
    });
    pops as f64 / secs
}

/// 4,096 pending events, each rescheduled 1–1000 ns ahead.
fn dense_delay(rng: &mut StdRng) -> u64 {
    rng.gen_range(1..=1000)
}

/// ~64 timers milliseconds apart; 1% land 10 s out, beyond one calendar
/// day, in the overflow heap.
fn sparse_delay(rng: &mut StdRng) -> u64 {
    if rng.gen_range(0..100) == 0 {
        10_000_000_000
    } else {
        rng.gen_range(1_000_000..=5_000_000)
    }
}

pub(crate) fn layers(seed: u64, tr: &mut Tracer) -> Vec<(String, f64)> {
    let mut rate = |name: &str, pending, pops, delay: fn(&mut StdRng) -> u64| {
        let reps: Vec<f64> =
            (0..REPS).map(|rep| churn(tr, name, rep, stream(seed, rep), pending, pops, delay)).collect();
        median(&reps)
    };
    vec![
        ("events.dense_pops_per_s".to_string(), rate("events.dense", DENSE_PENDING, DENSE_POPS, dense_delay)),
        (
            "events.sparse_pops_per_s".to_string(),
            rate("events.sparse", SPARSE_PENDING, SPARSE_POPS, sparse_delay),
        ),
    ]
}
