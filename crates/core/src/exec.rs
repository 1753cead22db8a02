//! Execution policy and scoped-thread fan-out for the hardware-functional
//! engine.
//!
//! The INCA hardware evaluates every output window independently — each
//! is its own read burst against an already-programmed crossbar state —
//! so the functional simulator is free to fan output rows across worker
//! threads without changing a single accumulated bit. This module holds
//! the policy knob ([`ExecPolicy`]) plus the generic chunked fan-out
//! helpers that the conv engine and the serving sweeps use, built on
//! scoped threads.
//!
//! # Chunk granularity
//!
//! Workers receive **contiguous blocks** of chunks, not a round-robin
//! deal: block `b` of `w` workers owns chunks `[b·⌈n/w⌉ …)` (off-by-one
//! balanced, see `for_each_chunk_with`). Contiguous blocks mean one
//! `split_at_mut` per worker instead of a `Vec` of slice handles per
//! chunk, preserve the sequential path's cache-friendly row-major walk
//! within each worker, and — the real win — give each worker a natural
//! place to hold *per-worker state*: scratch buffers and programmed-state
//! handles are created once per worker via `init` instead of once per
//! chunk or (worse) once per window. The round-robin predecessor of this
//! module allocated its packed-window scratch per output row, which is
//! what regressed `parallel_speedup` below 1× (see DESIGN §8).

use crate::Result;

/// The execution policy of a hardware-functional engine: how many worker
/// threads its output windows fan across.
///
/// Every worker count is *bit-exact* with the sequential schedule: every
/// output element is an independent integer accumulation whose internal
/// order is unchanged, only the order between elements differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecPolicy {
    /// Worker threads, at least 1.
    threads: usize,
}

impl Default for ExecPolicy {
    /// The sequential policy.
    fn default() -> Self {
        Self::sequential()
    }
}

impl ExecPolicy {
    /// The default policy: one thread computes every output window in
    /// row-major order.
    #[must_use]
    pub(crate) fn sequential() -> Self {
        Self { threads: 1 }
    }

    /// A parallel policy sized — and clamped — to the host's available
    /// parallelism. This is the only constructor that cannot
    /// oversubscribe: on a 1-core host it degenerates to a single
    /// worker rather than timeslicing several.
    #[must_use]
    pub fn parallel() -> Self {
        Self::parallel_with(available_threads())
    }

    /// A parallel policy with an explicit worker count (clamped to at
    /// least 1), honored verbatim: tests use this to exercise
    /// multi-worker schedules even on small hosts. Output chunks are
    /// carved into contiguous blocks across the workers, each with its
    /// own reusable scratch state. Benchmarks should prefer
    /// [`ExecPolicy::parallel`] and report
    /// [`ExecPolicy::effective_threads`].
    #[must_use]
    pub fn parallel_with(threads: usize) -> Self {
        Self { threads: threads.max(1) }
    }

    /// The worker count this policy schedules onto (as requested).
    #[must_use]
    // Needed by crates/bench/benches/hw_exec.rs (records the requested workers)
    // lint: allow(narrow-pub)
    pub fn threads(self) -> usize {
        self.threads
    }

    /// The worker count the host can actually run concurrently:
    /// `min(requested, available_parallelism)`. When this is smaller
    /// than [`ExecPolicy::threads`], the policy is oversubscribed and
    /// any wall-clock speedup figure measured under it is meaningless —
    /// the bench artifact records both numbers so the `perf_smoke` gate
    /// can refuse such measurements.
    #[must_use]
    // Needed by crates/bench/benches/hw_exec.rs (records the runnable workers)
    // lint: allow(narrow-pub)
    pub fn effective_threads(self) -> usize {
        self.threads().min(available_threads())
    }
}

/// `available_parallelism`, defaulting to 1 where the host won't say.
// The worker count only partitions index-keyed work: every parallel
// entry point collects results in index order, so sweep artifacts are
// byte-identical at any thread count (proptested in the exec and sweep
// suites). lint: allow(determinism-taint)
#[must_use]
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Splits `data` into consecutive `chunk_len`-sized chunks and applies
/// `f(chunk_index, chunk)` to each — [`for_each_chunk_with`] without
/// per-worker state.
///
/// # Errors
///
/// Returns the error from the lowest-indexed failing chunk.
pub(crate) fn for_each_chunk<T, F>(policy: ExecPolicy, data: &mut [T], chunk_len: usize, f: F) -> Result<()>
where
    T: Send,
    F: Fn(usize, &mut [T]) -> Result<()> + Sync,
{
    for_each_chunk_with(policy, data, chunk_len, || (), |(), idx, chunk| f(idx, chunk))
}

/// Splits `data` into consecutive `chunk_len`-sized chunks, carves the
/// chunks into contiguous per-worker blocks, and applies
/// `f(&mut state, chunk_index, chunk)` to each chunk, where `state` is
/// produced **once per worker** by `init` — the hook the conv engines
/// use for arena-style scratch (packed window words, SIMD lane buffers)
/// that would otherwise be reallocated per output row.
///
/// Block `b` of `w` workers owns `⌊n/w⌋ + (b < n mod w)` chunks, so
/// block sizes differ by at most one chunk; workers are capped at the
/// chunk count (never spawns an idle thread). Chunks are disjoint
/// `&mut` slices obtained by `split_at_mut`, so workers never alias.
/// Each worker stops at its first failing chunk; after all workers
/// join, the error with the **minimum chunk index** is returned — the
/// same error the sequential schedule would have produced, regardless
/// of thread timing.
///
/// # Errors
///
/// Returns the error from the lowest-indexed failing chunk.
///
/// # Panics
///
/// Panics if a worker thread panics (the panic is resumed on the
/// caller).
pub(crate) fn for_each_chunk_with<T, S, I, F>(
    policy: ExecPolicy,
    data: &mut [T],
    chunk_len: usize,
    init: I,
    f: F,
) -> Result<()>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut [T]) -> Result<()> + Sync,
{
    let chunk_len = chunk_len.max(1);
    let n_chunks = data.len().div_ceil(chunk_len);
    let workers = policy.threads().min(n_chunks.max(1));
    if workers <= 1 {
        let mut state = init();
        for (idx, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(&mut state, idx, chunk)?;
        }
        return Ok(());
    }

    // Carve contiguous, balanced blocks of whole chunks.
    let base = n_chunks / workers;
    let extra = n_chunks % workers;
    let mut blocks: Vec<(usize, &mut [T])> = Vec::with_capacity(workers);
    let mut rest = data;
    let mut first_chunk = 0usize;
    for b in 0..workers {
        let chunks_here = base + usize::from(b < extra);
        let elems = (chunks_here * chunk_len).min(rest.len());
        let (block, tail) = rest.split_at_mut(elems);
        blocks.push((first_chunk, block));
        first_chunk += chunks_here;
        rest = tail;
    }

    let init = &init;
    let f = &f;
    // Workers record into the caller's telemetry capture, so parallel
    // totals equal sequential ones.
    let telemetry = &inca_telemetry::current();
    std::thread::scope(|scope| {
        let handles: Vec<_> = blocks
            .into_iter()
            .map(|(first_chunk, block)| {
                scope.spawn(move || {
                    telemetry.enter(|| -> std::result::Result<(), (usize, crate::Error)> {
                        let mut state = init();
                        for (off, chunk) in block.chunks_mut(chunk_len).enumerate() {
                            let idx = first_chunk + off;
                            f(&mut state, idx, chunk).map_err(|e| (idx, e))?;
                        }
                        Ok(())
                    })
                })
            })
            .collect();
        // Each worker reports its first (lowest-index) error; the
        // global minimum across workers is exactly the chunk the
        // sequential schedule would have failed on — every chunk before
        // it succeeded in the worker that owned it.
        let mut first_err: Option<(usize, crate::Error)> = None;
        for handle in handles {
            match handle.join() {
                Ok(Ok(())) => {}
                Ok(Err((idx, e))) => {
                    if first_err.as_ref().is_none_or(|&(best, _)| idx < best) {
                        first_err = Some((idx, e));
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            };
        }
        match first_err {
            Some((_, e)) => Err(e),
            None => Ok(()),
        }
    })
}

/// Maps `f(&mut state, index)` over `0..n` across the policy's worker
/// pool and returns the results **in index order**, with `state` built
/// once per worker by `init` — the infallible-mapping companion of
/// `for_each_chunk_with` (chunk length 1, so workers own contiguous
/// index blocks).
///
/// The reduction order is fixed by construction: each result lands in
/// the slot its index owns, so the output is identical to a sequential
/// map regardless of worker count or thread timing. This is what lets
/// the serving sweep fan independent simulation points across the pool
/// while keeping `SERVE_report.json` byte-identical.
///
/// # Panics
///
/// Panics if a worker thread panics (the panic is resumed on the
/// caller).
pub fn par_map_indexed<R, S, I, F>(policy: ExecPolicy, n: usize, init: I, f: F) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    let mut slots: Vec<Option<R>> = Vec::new();
    slots.resize_with(n, || None);
    let filled = for_each_chunk_with(policy, &mut slots, 1, init, |state, idx, chunk| {
        chunk[0] = Some(f(state, idx));
        Ok(())
    });
    // `f` returns a plain value, so no chunk can ever report an error.
    filled.expect("infallible map"); // lint: allow(panic-path)
    let out: Vec<R> = slots.into_iter().flatten().collect();
    debug_assert_eq!(out.len(), n, "every index filled exactly once");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn sequential_and_parallel_fill_identically() {
        let fill = |policy: ExecPolicy| -> Vec<u64> {
            let mut data = vec![0u64; 103];
            for_each_chunk(policy, &mut data, 7, |idx, chunk| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v = (idx as u64) * 1000 + i as u64;
                }
                Ok(())
            })
            .unwrap();
            data
        };
        let seq = fill(ExecPolicy::sequential());
        for threads in 2..=6 {
            assert_eq!(seq, fill(ExecPolicy::parallel_with(threads)), "threads {threads}");
        }
    }

    #[test]
    fn blocks_cover_every_chunk_exactly_once() {
        // 103 elements / chunk_len 7 = 15 chunks across 4 workers:
        // blocks of 4, 4, 4, 3 chunks, the last chunk partial (5 elems).
        let mut data = vec![usize::MAX; 103];
        let seen = AtomicUsize::new(0);
        for_each_chunk(ExecPolicy::parallel_with(4), &mut data, 7, |idx, chunk| {
            seen.fetch_add(1, Ordering::Relaxed);
            assert_eq!(chunk.len(), if idx == 14 { 5 } else { 7 });
            chunk.fill(idx);
            Ok(())
        })
        .unwrap();
        assert_eq!(seen.load(Ordering::Relaxed), 15);
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i / 7, "element {i}");
        }
    }

    #[test]
    fn worker_state_initialized_once_per_worker() {
        let inits = AtomicUsize::new(0);
        let calls = AtomicUsize::new(0);
        let mut data = vec![0u8; 96];
        for_each_chunk_with(
            ExecPolicy::parallel_with(3),
            &mut data,
            8,
            || inits.fetch_add(1, Ordering::Relaxed),
            |_state, _idx, _chunk| {
                calls.fetch_add(1, Ordering::Relaxed);
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(inits.load(Ordering::Relaxed), 3, "one init per worker, not per chunk");
        assert_eq!(calls.load(Ordering::Relaxed), 12);

        // Sequential: exactly one state for the whole pass.
        inits.store(0, Ordering::Relaxed);
        for_each_chunk_with(
            ExecPolicy::sequential(),
            &mut data,
            8,
            || inits.fetch_add(1, Ordering::Relaxed),
            |_, _, _| Ok(()),
        )
        .unwrap();
        assert_eq!(inits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn workers_capped_at_chunk_count() {
        let inits = AtomicUsize::new(0);
        let mut data = vec![0u8; 10];
        for_each_chunk_with(
            ExecPolicy::parallel_with(16),
            &mut data,
            4,
            || inits.fetch_add(1, Ordering::Relaxed),
            |_, _, _| Ok(()),
        )
        .unwrap();
        assert_eq!(inits.load(Ordering::Relaxed), 3, "3 chunks never need 16 workers");
    }

    #[test]
    fn errors_propagate_from_workers() {
        let mut data = vec![0u8; 32];
        let r = for_each_chunk(ExecPolicy::parallel_with(3), &mut data, 4, |idx, _| {
            if idx == 5 {
                Err(crate::Error::Config("boom".into()))
            } else {
                Ok(())
            }
        });
        assert!(r.is_err());
    }

    #[test]
    fn lowest_indexed_error_wins_regardless_of_join_order() {
        // Chunks 2 and 9 both fail, owned by different workers; chunk
        // 9's worker finishes its block first (chunk 2's worker is
        // slowed down), yet chunk 2's error must still be the one
        // returned — the doc promises "first error in chunk order".
        for _ in 0..20 {
            let mut data = vec![0u8; 48];
            let r = for_each_chunk(ExecPolicy::parallel_with(4), &mut data, 4, |idx, _| match idx {
                2 => {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    Err(crate::Error::Config("low".into()))
                }
                9 => Err(crate::Error::Config("high".into())),
                _ => Ok(()),
            });
            match r {
                Err(crate::Error::Config(msg)) => assert_eq!(msg, "low"),
                other => panic!("expected Config(low), got {other:?}"),
            }
        }
    }

    #[test]
    fn worker_stops_at_its_first_failing_chunk() {
        // One worker owns all chunks; nothing after the failing chunk runs.
        let calls = AtomicUsize::new(0);
        let mut data = vec![0u8; 40];
        let r = for_each_chunk(ExecPolicy::parallel_with(1), &mut data, 4, |idx, _| {
            calls.fetch_add(1, Ordering::Relaxed);
            if idx == 3 {
                Err(crate::Error::Config("stop".into()))
            } else {
                Ok(())
            }
        });
        assert!(r.is_err());
        assert_eq!(calls.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn par_map_indexed_matches_sequential_for_any_worker_count() {
        let seq = par_map_indexed(ExecPolicy::sequential(), 23, || (), |(), i| i * i);
        assert_eq!(seq.len(), 23);
        for workers in [2, 3, 7, 64] {
            let par = par_map_indexed(ExecPolicy::parallel_with(workers), 23, || (), |(), i| i * i);
            assert_eq!(seq, par, "workers {workers}");
        }
        // Degenerate sizes hold too.
        assert!(par_map_indexed(ExecPolicy::parallel_with(4), 0, || (), |(), i| i).is_empty());
        assert_eq!(par_map_indexed(ExecPolicy::parallel_with(4), 1, || (), |(), i| i), vec![0]);
    }

    #[test]
    fn par_map_indexed_inits_once_per_worker() {
        let inits = AtomicUsize::new(0);
        let out = par_map_indexed(
            ExecPolicy::parallel_with(3),
            9,
            || inits.fetch_add(1, Ordering::Relaxed),
            |_state, i| i,
        );
        assert_eq!(out, (0..9).collect::<Vec<_>>());
        assert_eq!(inits.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn policy_thread_counts() {
        assert_eq!(ExecPolicy::sequential().threads(), 1);
        assert_eq!(ExecPolicy::default(), ExecPolicy::sequential());
        assert_eq!(ExecPolicy::parallel_with(0).threads(), 1);
        assert!(ExecPolicy::parallel().threads() >= 1);
        // `parallel()` can never oversubscribe…
        assert_eq!(ExecPolicy::parallel().threads(), ExecPolicy::parallel().effective_threads());
        // …while explicit counts are honored but reported honestly.
        let huge = ExecPolicy::parallel_with(4096);
        assert_eq!(huge.threads(), 4096);
        assert!(huge.effective_threads() <= available_threads());
        assert_eq!(ExecPolicy::sequential().effective_threads(), 1);
    }
}
