//! Timing loops, summary statistics, output digests and the operation
//! accounting shared by every workload.
//!
//! Every ledger time is CPU time of the whole process ([`cpu_secs`]), not
//! wall time, except where a probe compares thread counts. The runs are
//! single-threaded, so the two agree on an idle host; on a shared VM the
//! kernel leaves out of CPU time the time the process waited for a CPU,
//! whether behind another process or because the hypervisor ran another
//! guest on its vCPU (steal time). End-to-end times are further scaled by
//! the host's speed at the time (see `calib`).

use std::time::Instant;

use crate::{calib, host};

/// Before every operation, setup is repeated until this much setup time
/// has accumulated (at least once), so even a sub-millisecond setup is
/// sampled many times and across the whole run, not in one burst...
const SETUP_SLICE_S: f64 = 0.02;
/// ...but at most this many times per operation.
const MAX_SETUP_REPS: usize = 100;

/// One timed operation: its host CPU time and the work it completed
/// (images, simulated events or training samples).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Sample {
    pub secs: f64,
    pub work: f64,
}

impl Sample {
    pub(crate) fn rate(&self) -> f64 {
        self.work / self.secs
    }
}

/// What the untraced phase of a workload measured.
#[derive(Debug, Clone, Default)]
pub(crate) struct Measured {
    /// One CPU time per setup repetition, in seconds, with the index of
    /// the operation it preceded.
    pub setup: Vec<(usize, f64)>,
    /// One sample per timed operation.
    pub ops: Vec<Sample>,
    /// How slowly the host ran around each operation and the setup before
    /// it: the mean CPU time of [`calib::kernel`] just before and just
    /// after, over [`calib::REFERENCE_S`]. One entry per operation.
    pub slowness: Vec<f64>,
    /// Operations per round. Rates are medians over whole rounds, each
    /// the round's work over its time, so a workload whose operations
    /// differ in kind is always measured on the same mix, while the host
    /// is still sampled between its operations.
    pub round: usize,
    /// FNV-64 digest of the outputs that are fixed by the seed alone.
    pub digest: u64,
    /// `VmHWM` once the first round is done, in bytes. Later rounds repeat
    /// the same work, so reading at exit would only add allocator
    /// fragmentation that grows with the run's length.
    pub peak_bytes: Option<f64>,
    /// CPU time over wall time of the whole timed loop: below 1 when the
    /// process waited for a CPU.
    pub cpu_share: f64,
}

impl Measured {
    /// Work per CPU second of each whole round, unscaled or scaled to the
    /// reference host.
    pub(crate) fn round_rates(&self, scaled: bool) -> Vec<f64> {
        let n = self.round.max(1);
        self.ops
            .chunks_exact(n)
            .zip(self.slowness.chunks_exact(n))
            .map(|(ops, slowness)| {
                let work: f64 = ops.iter().map(|s| s.work).sum();
                let secs: f64 =
                    ops.iter().zip(slowness).map(|(s, k)| if scaled { s.secs / k } else { s.secs }).sum();
                work / secs
            })
            .collect()
    }

    /// Median work per CPU second over the rounds.
    pub(crate) fn work_per_s(&self) -> f64 {
        median(&self.round_rates(false))
    }

    /// Median work per CPU second of the reference host over the rounds.
    pub(crate) fn work_per_ref_s(&self) -> f64 {
        median(&self.round_rates(true))
    }

    /// Median setup CPU time.
    pub(crate) fn setup_s(&self) -> f64 {
        median(&self.setup.iter().map(|s| s.1).collect::<Vec<_>>())
    }

    /// Median setup CPU time on the reference host.
    pub(crate) fn setup_ref_s(&self) -> f64 {
        median(&self.setup.iter().map(|&(i, s)| s / self.slowness[i]).collect::<Vec<_>>())
    }
}

/// CPU time of every thread of this process, in seconds.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub(crate) fn cpu_secs() -> f64 {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` of the C layout,
    // and `clock_gettime` writes only through the pointer it is given.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Elsewhere the ledger has no CPU clock: every time is NaN and the run
/// fails its clock check.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub(crate) fn cpu_secs() -> f64 {
    f64::NAN
}

/// Runs `f` once and returns its result with its CPU time in seconds.
pub(crate) fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = cpu_secs();
    let r = f();
    (r, cpu_secs() - t0)
}

/// Runs `f` once and returns its result with its wall time in seconds,
/// for the probe that compares thread counts, where CPU time would add up
/// every thread's share.
pub(crate) fn wall_time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Runs `setup`, then `op(i, state)` on the state it built, for
/// `i = 0, 1, ..` until `seconds` of wall time have passed, at least
/// `min_rounds` rounds of `round` operations ran and the last round is
/// whole. Before each operation `setup` repeats until
/// `SETUP_SLICE_S` of setup time has accumulated (at most
/// `MAX_SETUP_REPS` times); each repetition's state is dropped, untimed,
/// before the next starts, so peak memory holds a single copy and the
/// operation gets the last one. Each `op` call times its own measured
/// region and returns it as a [`Sample`], so input generation and output
/// checks stay outside the measurement. The reference kernel runs before
/// the first setup and after every operation. Returns every setup
/// repetition's CPU time, every operation's sample, the host's slowness
/// around each and the peak memory after the first round; the caller
/// fills in the digest.
pub(crate) fn run<S>(
    seconds: f64,
    min_rounds: usize,
    round: usize,
    mut setup: impl FnMut() -> S,
    mut op: impl FnMut(usize, S) -> Sample,
) -> Measured {
    let start = Instant::now();
    let cpu_start = cpu_secs();
    let mut setups = Vec::new();
    let mut ops = Vec::new();
    let mut slowness = Vec::new();
    let mut peak_bytes = None;
    let mut kernel_s = calib::sample();
    while ops.len() < min_rounds * round || start.elapsed().as_secs_f64() < seconds || ops.len() % round != 0
    {
        let i = ops.len();
        let (mut state, secs) = time(&mut setup);
        let (mut reps, mut spent) = (1, secs);
        setups.push((i, secs));
        while reps < MAX_SETUP_REPS && spent < SETUP_SLICE_S {
            drop(state);
            let secs;
            (state, secs) = time(&mut setup);
            setups.push((i, secs));
            reps += 1;
            spent += secs;
        }
        ops.push(op(i, state));
        if ops.len() == round {
            peak_bytes = host::status_bytes("VmHWM");
        }
        let after = calib::sample();
        slowness.push((kernel_s + after) / 2.0 / calib::REFERENCE_S);
        kernel_s = after;
    }
    let cpu_share = (cpu_secs() - cpu_start) / start.elapsed().as_secs_f64();
    Measured { setup: setups, ops, slowness, round, digest: 0, peak_bytes, cpu_share }
}

/// Median (mean of the middle pair for even counts); NaN when empty.
pub(crate) fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Largest value; NaN when empty.
pub(crate) fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::max).unwrap_or(f64::NAN)
}

/// SplitMix64 finalizer: derives an independent RNG seed for stream
/// `index` of a run seeded with `seed`.
pub(crate) fn stream(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a, 64-bit: the digest of workload outputs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv64(u64);

impl Fnv64 {
    pub(crate) fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub(crate) fn u64(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }

    pub(crate) fn f32s(self, vs: &[f32]) -> Self {
        vs.iter().fold(self, |h, v| h.bytes(&v.to_bits().to_le_bytes()))
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// Operation accounting. Every timed operation, and every one-off output
/// check, is one attempted operation; a failed check marks its operation
/// failed without aborting the run.
#[derive(Debug, Default)]
pub(crate) struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Records one operation, reporting a failure on stderr.
    pub(crate) fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            eprintln!("ledger: FAILED {what}: {why}");
        }
    }
}

/// `Ok` when `cond` holds, else `Err(why())`.
pub(crate) fn ensure(cond: bool, why: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(why())
    }
}

/// Repeats of a deterministic operation must reproduce the first's
/// digest, which `first` keeps.
pub(crate) fn same_as_first(first: &mut Option<u64>, digest: u64) -> Result<(), String> {
    ensure(*first.get_or_insert(digest) == digest, || "output differs from the first repetition".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(max(&[1.0, 5.0, 2.0]), 5.0);
    }

    #[test]
    fn fnv64_matches_the_published_vectors() {
        assert_eq!(Fnv64::new().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv64::new().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv64::new().bytes(b"foobar").finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    fn cpu_clock_runs_while_this_thread_computes() {
        // Other tests' threads add to process CPU time, so only a lower
        // bound holds: spinning for 50 ms of wall time uses most of it.
        let wall = Instant::now();
        let ((), busy) = time(|| {
            while wall.elapsed().as_secs_f64() < 0.05 {
                std::hint::black_box(0u64);
            }
        });
        assert!(busy > 0.025, "spinning for 50 ms used {busy} s of CPU");
    }

    #[test]
    fn streams_differ_by_seed_and_index() {
        assert_ne!(stream(1, 0), stream(2, 0));
        assert_ne!(stream(1, 0), stream(1, 1));
        assert_eq!(stream(7, 3), stream(7, 3));
    }

    #[test]
    fn failed_checks_are_counted_not_fatal() {
        let mut c = Checks::default();
        c.record("ok", Ok(()));
        c.record("bad", ensure(false, || "broken".into()));
        assert_eq!((c.attempted, c.failed), (2, 1));
        let mut first = None;
        assert!(same_as_first(&mut first, 1).is_ok());
        assert!(same_as_first(&mut first, 1).is_ok());
        assert!(same_as_first(&mut first, 2).is_err());
    }

    #[test]
    fn run_sets_up_before_every_op_and_feeds_it_the_last_state() {
        let mut built = 0;
        let mut seen = Vec::new();
        let Measured { setup: setups, ops, slowness, .. } = run(
            0.0,
            3,
            1,
            || {
                built += 1;
                built
            },
            |i, state: usize| {
                seen.push(state);
                Sample { secs: 1.0, work: i as f64 }
            },
        );
        assert_eq!(ops.len(), 3);
        assert_eq!(ops[2].rate(), 2.0);
        // Instant setups repeat (up to the cap) before each operation,
        // and each operation gets the state built last.
        assert!((3..=3 * MAX_SETUP_REPS).contains(&setups.len()));
        assert_eq!(seen.last(), Some(&setups.len()));
        assert!(seen.windows(2).all(|w| w[0] < w[1]));
        // Each setup repetition knows the operation it preceded, and each
        // operation has the host's slowness around it.
        assert_eq!(setups.first().map(|s| s.0), Some(0));
        assert_eq!(setups.last().map(|s| s.0), Some(2));
        assert!(setups.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(slowness.len(), 3);
        assert!(slowness.iter().all(|&k| k > 0.0 && k.is_finite()));
    }

    #[test]
    fn scaling_divides_out_the_hosts_slowness() {
        let m = Measured {
            setup: vec![(0, 0.2), (1, 0.4), (1, 0.4)],
            ops: vec![Sample { secs: 1.0, work: 10.0 }, Sample { secs: 2.0, work: 10.0 }],
            // The host ran half as fast around the second operation.
            slowness: vec![1.0, 2.0],
            ..Measured::default()
        };
        assert_eq!((m.work_per_s(), m.work_per_ref_s()), (7.5, 10.0));
        assert_eq!((m.setup_s(), m.setup_ref_s()), (0.4, 0.2));
    }

    #[test]
    fn rates_are_taken_over_whole_rounds() {
        // Two kinds of operation alternate; each round is one of each.
        let m =
            run(0.0, 2, 2, || (), |i, ()| Sample { secs: if i % 2 == 0 { 1.0 } else { 3.0 }, work: 10.0 });
        assert_eq!(m.ops.len(), 4);
        assert_eq!(m.round_rates(false), vec![5.0, 5.0]);
    }
}
