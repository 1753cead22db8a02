//! Telemetry determinism under the parallel execution engine: the
//! sharded counters must report bit-identical totals whether a forward
//! pass runs sequentially or fanned across any number of scoped worker
//! threads — parallelism reorders the work but must not change the
//! physics being counted.

use std::sync::{Mutex, MutexGuard, PoisonError};

use inca_core::{ExecPolicy, HwConv, ReadPath};
use inca_nn::Tensor;
use inca_telemetry::{Event, Snapshot};
use rand::{Rng, SeedableRng};

/// Tests in this binary mutate the process-global telemetry state.
static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    TELEMETRY_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn random_tensor(shape: &[usize], seed: u64, lo: f32, hi: f32) -> Tensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Tensor::from_vec((0..shape.iter().product::<usize>()).map(|_| rng.gen_range(lo..hi)).collect(), shape)
}

/// Runs `f` with recording enabled and returns the counter totals.
fn counted<F: FnOnce()>(f: F) -> Vec<(Event, u64)> {
    inca_telemetry::reset();
    inca_telemetry::set_enabled(true);
    f();
    inca_telemetry::set_enabled(false);
    let counters = Snapshot::capture().counters();
    inca_telemetry::reset();
    counters
}

#[test]
fn parallel_conv_counts_match_sequential_for_random_thread_counts() {
    let _guard = serial();
    // One sample, and a batch of 4 on the planes of the 3D stacks.
    for (batch, w_seed, x_seed, rng_seed) in [(1usize, 21, 22, 23), (4, 31, 32, 33)] {
        let w = random_tensor(&[6, 3, 3, 3], w_seed, -0.5, 0.5);
        let bias = vec![0.0f32; 6];
        let x = random_tensor(&[batch, 3, 12, 12], x_seed, -0.5, 1.0);
        let seq = HwConv::from_float(&w, &bias, 1, 1).unwrap();
        let baseline = counted(|| {
            seq.forward(&x).unwrap();
        });
        assert!(baseline.iter().any(|&(_, n)| n > 0), "sequential run recorded nothing");

        let mut rng = rand::rngs::StdRng::seed_from_u64(rng_seed);
        for _ in 0..4 {
            let threads = rng.gen_range(2..=16);
            let par = seq.clone().with_policy(ExecPolicy::parallel_with(threads));
            // Clones share the activation cache; start cold like the baseline.
            par.clear_cache();
            let parallel = counted(|| {
                par.forward(&x).unwrap();
            });
            assert_eq!(baseline, parallel, "batch {batch}: totals diverged at {threads} threads");
        }
    }
}

#[test]
fn counts_are_schedule_invariant_for_large_kernels() {
    // Coarse contiguous chunking splits the row space differently at
    // every worker count; the recorded physics must not notice. Larger
    // kernels exercise the multi-word (5×5, 7×7) packed masks too.
    let _guard = serial();
    for k in [5usize, 7] {
        let w = random_tensor(&[3, 2, k, k], 61 + k as u64, -0.5, 0.5);
        let bias = vec![0.0f32; 3];
        let x = random_tensor(&[1, 2, 14, 14], 62, -0.5, 1.0);
        let seq = HwConv::from_float(&w, &bias, 1, k / 2).unwrap();
        let baseline = counted(|| {
            seq.forward(&x).unwrap();
        });
        assert!(baseline.iter().any(|&(_, n)| n > 0), "k={k}: sequential run recorded nothing");
        // 16 workers exceed both the host and the chunk count: the
        // executor caps at the chunk count and totals must still match.
        for threads in [2usize, 3, 16] {
            let par = seq.clone().with_policy(ExecPolicy::parallel_with(threads));
            par.clear_cache();
            let parallel = counted(|| {
                par.forward(&x).unwrap();
            });
            assert_eq!(baseline, parallel, "totals diverged at k={k}, {threads} threads");
        }
    }
}

#[test]
fn packed_and_scalar_read_paths_count_identical_totals() {
    let _guard = serial();
    let w = random_tensor(&[4, 2, 3, 3], 51, -0.5, 0.5);
    let bias = vec![0.0f32; 4];
    let x = random_tensor(&[1, 2, 12, 12], 52, -0.5, 1.0);
    let packed = HwConv::from_float(&w, &bias, 1, 1).unwrap();
    let scalar = packed.clone().with_policy(ExecPolicy::sequential().with_read_path(ReadPath::Scalar));
    let packed_counts = counted(|| {
        packed.forward(&x).unwrap();
    });
    // Clones share the activation cache; start cold like the baseline.
    scalar.clear_cache();
    let scalar_counts = counted(|| {
        scalar.forward(&x).unwrap();
    });
    assert!(packed_counts.iter().any(|&(_, n)| n > 0), "packed run recorded nothing");
    assert_eq!(packed_counts, scalar_counts, "coalesced totals diverged from the per-read scheme");

    let xb = random_tensor(&[3, 2, 8, 8], 53, -0.5, 1.0);
    scalar.clear_cache();
    let packed_counts = counted(|| {
        packed.forward(&xb).unwrap();
    });
    scalar.clear_cache();
    let scalar_counts = counted(|| {
        scalar.forward(&xb).unwrap();
    });
    assert_eq!(packed_counts, scalar_counts, "batch totals diverged between read paths");
}

#[test]
fn disabled_recording_costs_no_counts() {
    let _guard = serial();
    let w = random_tensor(&[2, 2, 3, 3], 41, -0.5, 0.5);
    let x = random_tensor(&[1, 2, 6, 6], 42, -0.5, 1.0);
    let conv = HwConv::from_float(&w, &[0.0, 0.0], 1, 1).unwrap();

    inca_telemetry::reset();
    assert!(!inca_telemetry::enabled());
    conv.forward(&x).unwrap();
    let snap = Snapshot::capture();
    assert_eq!(snap.total_events(), 0, "disabled telemetry must record nothing");
}
