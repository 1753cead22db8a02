//! Property tests for the claim of `HwConv::forward`'s reads: across
//! random shapes, strides, paddings, and partition layouts, the integer
//! and bit-packed word-parallel reads produce **bit-identical outputs**
//! and **identical telemetry totals** to the scalar per-cell read model
//! of `HwConv::forward_reference` — the coalesced per-forward records
//! are exactly the per-read scheme's sums, and `popcount(x & w)` is
//! exactly the byte loop's accumulation.

use inca::{ExecPolicy, HwConv};
use inca_nn::Tensor;
use inca_telemetry::capture;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

fn random_tensor(shape: &[usize], seed: u64, lo: f32, hi: f32) -> Tensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Tensor::from_vec((0..shape.iter().product::<usize>()).map(|_| rng.gen_range(lo..hi)).collect(), shape)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The fast and the reference reads agree to the last bit — outputs
    /// and telemetry — across random geometry, batch sizes and subarray
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
        let conv = HwConv::from_float(&weights, &bias, stride, pad).unwrap().with_side(side);

        let (y, counts) = capture(|| conv.forward(&x).unwrap());
        let (y_reference, counts_reference) = capture(|| conv.forward_reference(&x).unwrap());
        prop_assert_eq!(y.shape(), y_reference.shape());
        prop_assert_eq!(y.data(), y_reference.data());
        prop_assert_eq!(counts.counters(), counts_reference.counters());
    }

    /// The parallel schedule composes with the fast read without
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

    /// Three-way agreement across every kernel size the engine meets in
    /// practice: the sequential reference byte-loop, the sequential fast
    /// read (the integer dot product for k ≤ 3, compact window words +
    /// `and_popcount_accumulate` above), and the coarse-chunked parallel
    /// schedule on top of it all produce the same bits for
    /// k ∈ {1, 3, 5, 7}, batches of 1–2 and random worker counts.
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
        let seq = HwConv::from_float(&weights, &bias, 1, pad).unwrap();
        let par = seq.clone().with_policy(ExecPolicy::parallel_with(threads));

        let y_reference = seq.forward_reference(&x).unwrap();
        let y_seq = seq.forward(&x).unwrap();
        let y_par = par.forward(&x).unwrap();
        prop_assert_eq!(y_reference.data(), y_seq.data(), "reference vs fast read, k={}", k);
        prop_assert_eq!(y_seq.data(), y_par.data(), "sequential vs parallel, k={}", k);
    }

    /// The parallel schedule is bit-exact on every batch broadcast, with
    /// the chunk count (`batch · oh`) varying with every shape, for the
    /// integer (3×3) and the bit-serial (5×5) reads.
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
