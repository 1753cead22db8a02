//! Telemetry determinism under the parallel execution engine: a capture
//! must report bit-identical totals whether a forward pass runs
//! sequentially or fanned across any number of scoped worker threads —
//! the workers enter the caller's capture, and parallelism reorders the
//! work but must not change the physics being counted.

use inca_core::{ExecPolicy, HwConv, Result};
use inca_nn::Tensor;
use inca_telemetry::{capture, Event};
use rand::{Rng, SeedableRng};

fn random_tensor(shape: &[usize], seed: u64, lo: f32, hi: f32) -> Tensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Tensor::from_vec((0..shape.iter().product::<usize>()).map(|_| rng.gen_range(lo..hi)).collect(), shape)
}

/// One of `HwConv`'s two reads.
type Read = fn(&HwConv, &Tensor) -> Result<Tensor>;

/// Both reads, by name.
const READS: [(&str, Read); 2] =
    [("forward", HwConv::forward), ("forward_reference", HwConv::forward_reference)];

/// The counter totals of one `read` of `x` through `conv`.
fn counted_by(read: Read, conv: &HwConv, x: &Tensor) -> Vec<(Event, u64)> {
    capture(|| read(conv, x).unwrap()).1.counters()
}

/// The counter totals of one forward of `x` through `conv`.
fn counted(conv: &HwConv, x: &Tensor) -> Vec<(Event, u64)> {
    counted_by(HwConv::forward, conv, x)
}

#[test]
fn parallel_conv_counts_match_sequential_for_random_thread_counts() {
    // One sample, and a batch of 4 on the planes of the 3D stacks.
    for (batch, w_seed, x_seed, rng_seed) in [(1usize, 21, 22, 23), (4, 31, 32, 33)] {
        let w = random_tensor(&[6, 3, 3, 3], w_seed, -0.5, 0.5);
        let bias = vec![0.0f32; 6];
        let x = random_tensor(&[batch, 3, 12, 12], x_seed, -0.5, 1.0);
        let seq = HwConv::from_float(&w, &bias, 1, 1).unwrap();
        let baseline = counted(&seq, &x);
        assert!(baseline.iter().any(|&(_, n)| n > 0), "sequential run recorded nothing");

        let mut rng = rand::rngs::StdRng::seed_from_u64(rng_seed);
        for _ in 0..4 {
            let threads = rng.gen_range(2..=16);
            // The reference read records every read on the worker that
            // makes it, so its totals hold only if the workers enter the
            // capture.
            let par = seq.clone().with_policy(ExecPolicy::parallel_with(threads));
            for (name, read) in READS {
                let parallel = counted_by(read, &par, &x);
                assert_eq!(baseline, parallel, "batch {batch}: {name} totals diverged at {threads} threads");
            }
        }
    }
}

#[test]
fn counts_are_schedule_invariant_for_large_kernels() {
    // Coarse contiguous chunking splits the row space differently at
    // every worker count; the recorded physics must not notice. Larger
    // kernels exercise the multi-word (5×5, 7×7) packed masks too.
    for k in [5usize, 7] {
        let w = random_tensor(&[3, 2, k, k], 61 + k as u64, -0.5, 0.5);
        let bias = vec![0.0f32; 3];
        let x = random_tensor(&[1, 2, 14, 14], 62, -0.5, 1.0);
        let seq = HwConv::from_float(&w, &bias, 1, k / 2).unwrap();
        let baseline = counted(&seq, &x);
        assert!(baseline.iter().any(|&(_, n)| n > 0), "k={k}: sequential run recorded nothing");
        // 16 workers exceed both the host and the chunk count: the
        // executor caps at the chunk count and totals must still match.
        for threads in [2usize, 3, 16] {
            let par = seq.clone().with_policy(ExecPolicy::parallel_with(threads));
            let parallel = counted(&par, &x);
            assert_eq!(baseline, parallel, "totals diverged at k={k}, {threads} threads");
        }
    }
}

#[test]
fn forward_and_reference_count_identical_totals() {
    let w = random_tensor(&[4, 2, 3, 3], 51, -0.5, 0.5);
    let bias = vec![0.0f32; 4];
    let x = random_tensor(&[1, 2, 12, 12], 52, -0.5, 1.0);
    let conv = HwConv::from_float(&w, &bias, 1, 1).unwrap();
    let counts = counted(&conv, &x);
    let reference_counts = counted_by(HwConv::forward_reference, &conv, &x);
    assert!(counts.iter().any(|&(_, n)| n > 0), "forward recorded nothing");
    assert_eq!(counts, reference_counts, "coalesced totals diverged from the per-read scheme");

    let xb = random_tensor(&[3, 2, 8, 8], 53, -0.5, 1.0);
    let counts = counted(&conv, &xb);
    let reference_counts = counted_by(HwConv::forward_reference, &conv, &xb);
    assert_eq!(counts, reference_counts, "batch totals diverged between the reads");
}
