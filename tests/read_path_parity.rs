//! Property tests for the tentpole claim of the packed read path: across
//! random shapes, strides, paddings, and partition layouts, the
//! bit-packed word-parallel reads produce **bit-identical outputs** and
//! **identical telemetry totals** to the scalar per-cell read model —
//! the coalesced per-burst records are exactly the per-read scheme's
//! sums, and `popcount(x & w)` is exactly the byte loop's accumulation.

use std::sync::{Mutex, MutexGuard, PoisonError};

use inca::{ExecPolicy, HwConv, ReadPath};
use inca_nn::Tensor;
use inca_telemetry::Snapshot;
use proptest::prelude::*;
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
fn counted<O, F: FnOnce() -> O>(f: F) -> (O, Vec<(inca_telemetry::Event, u64)>) {
    inca_telemetry::reset();
    inca_telemetry::set_enabled(true);
    let out = f();
    inca_telemetry::set_enabled(false);
    let counters = Snapshot::capture().counters();
    inca_telemetry::reset();
    (out, counters)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Packed and scalar reads agree to the last bit — outputs and
    /// telemetry — across random geometry, batch sizes and subarray
    /// partitioning.
    #[test]
    fn hw_conv_read_paths_agree(
        seed in 0u64..10_000,
        batch in 1usize..=3,
        out_ch in 1usize..=3,
        in_ch in 1usize..=2,
        k in 1usize..=3,
        stride in 1usize..=2,
        pad in 0usize..=2,
        h in 5usize..=12,
        w in 5usize..=12,
        side_sel in 0usize..=2,
    ) {
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        // Small tile sides force multi-partition layouts with halo
        // overlap even on these small maps.
        let side = [16usize, 8, 6][side_sel];
        let weights = random_tensor(&[out_ch, in_ch, k, k], seed, -0.6, 0.6);
        let bias: Vec<f32> = (0..out_ch).map(|o| o as f32 * 0.04 - 0.06).collect();
        let x = random_tensor(&[batch, in_ch, h, w], seed.wrapping_add(1), -0.7, 1.0);
        let packed = HwConv::from_float(&weights, &bias, stride, pad).unwrap().with_side(side);
        let scalar =
            packed.clone().with_policy(ExecPolicy::sequential().with_read_path(ReadPath::Scalar));

        let _guard = serial();
        let (y_packed, counts_packed) = counted(|| packed.forward(&x).unwrap());
        // Clones share the activation cache; start cold like the baseline.
        scalar.clear_cache();
        let (y_scalar, counts_scalar) = counted(|| scalar.forward(&x).unwrap());
        prop_assert_eq!(y_packed.shape(), y_scalar.shape());
        prop_assert_eq!(y_packed.data(), y_scalar.data());
        prop_assert_eq!(counts_packed, counts_scalar);
    }

    /// The parallel schedule composes with the packed read path without
    /// changing a bit, with the chunk count (`batch · oh`) varying with
    /// every shape.
    #[test]
    fn packed_parallel_matches_packed_sequential(
        seed in 0u64..10_000,
        batch in 1usize..=3,
        out_ch in 1usize..=3,
        in_ch in 1usize..=2,
        h in 6usize..=12,
        threads in 2usize..=5,
    ) {
        let weights = random_tensor(&[out_ch, in_ch, 3, 3], seed, -0.5, 0.5);
        let bias = vec![0.0f32; out_ch];
        let x = random_tensor(&[batch, in_ch, h, h], seed.wrapping_add(3), -0.5, 1.0);
        let seq = HwConv::from_float(&weights, &bias, 1, 1).unwrap();
        let par = seq.clone().with_policy(ExecPolicy::parallel_with(threads));
        prop_assert_eq!(seq.forward(&x).unwrap().data(), par.forward(&x).unwrap().data());
    }

    /// Three-way agreement across every kernel size the engines meet in
    /// practice: the sequential scalar byte-loop, the sequential
    /// SIMD-packed path (compact window words + `and_popcount_accumulate`), and the
    /// coarse-chunked parallel schedule on top of it all produce the
    /// same bits for k ∈ {1, 3, 5, 7}, batches of 1–2 and random worker
    /// counts.
    #[test]
    fn schedules_and_read_paths_agree_across_kernel_sizes(
        seed in 0u64..10_000,
        batch in 1usize..=2,
        out_ch in 1usize..=3,
        in_ch in 1usize..=2,
        k_sel in 0usize..=3,
        h in 8usize..=12,
        threads in 2usize..=6,
    ) {
        let k = [1usize, 3, 5, 7][k_sel];
        let pad = k / 2;
        let weights = random_tensor(&[out_ch, in_ch, k, k], seed, -0.5, 0.5);
        let bias: Vec<f32> = (0..out_ch).map(|o| o as f32 * 0.05 - 0.02).collect();
        let x = random_tensor(&[batch, in_ch, h, h], seed.wrapping_add(7), -0.6, 1.0);
        let packed_seq = HwConv::from_float(&weights, &bias, 1, pad).unwrap();
        let scalar_seq =
            packed_seq.clone().with_policy(ExecPolicy::sequential().with_read_path(ReadPath::Scalar));
        let packed_par = packed_seq.clone().with_policy(ExecPolicy::parallel_with(threads));

        let y_scalar = scalar_seq.forward(&x).unwrap();
        let y_packed = packed_seq.forward(&x).unwrap();
        let y_par = packed_par.forward(&x).unwrap();
        prop_assert_eq!(y_scalar.data(), y_packed.data(), "scalar vs SIMD-packed, k={}", k);
        prop_assert_eq!(y_packed.data(), y_par.data(), "sequential vs parallel, k={}", k);
    }

    /// The packed parallel schedule is bit-exact on every batch broadcast,
    /// with the chunk count (`batch · oh`) varying with every shape, for
    /// the integer (3×3) and the bit-serial (5×5) packed reads.
    #[test]
    fn batch_packed_parallel_matches_sequential(
        seed in 0u64..10_000,
        batch in 2usize..=4,
        out_ch in 1usize..=2,
        in_ch in 1usize..=2,
        k_sel in 0usize..=1,
        h in 6usize..=9,
        threads in 2usize..=6,
    ) {
        let k = [3usize, 5][k_sel];
        let weights = random_tensor(&[out_ch, in_ch, k, k], seed, -0.5, 0.5);
        let bias = vec![0.01f32; out_ch];
        let x = random_tensor(&[batch, in_ch, h, h], seed.wrapping_add(9), -0.4, 1.0);
        let seq = HwConv::from_float(&weights, &bias, 1, k / 2).unwrap();
        let par = seq.clone().with_policy(ExecPolicy::parallel_with(threads));
        prop_assert_eq!(seq.forward(&x).unwrap().data(), par.forward(&x).unwrap().data());
    }
}
