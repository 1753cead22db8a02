//! Bit-exact parity of the packed read path with the scalar reference
//! where the 4-bit ADC saturates.
//!
//! Uniform random codes rarely saturate: about one cell in eight conducts
//! per read, so a 5×5 read averages ~3 of the 15 codes the ADC allows.
//! Here half the inputs are drawn from the two extremes of the activation
//! range and the weights from {−w_max, 0, w_max}. A read then sums ~9/16
//! of the window's cells, so many 5×5 reads and most larger ones exceed
//! the ADC's max code, and every one of them must be clipped *before* its
//! activation-bit shift, exactly as the scalar path's per-plane
//! saturation does. Outputs are compared through `to_bits`.
//!
//! A batch shares one quantization range, so its forward equals B
//! one-sample forwards exactly when every sample spans the batch's range;
//! the batch oracle below holds the engine to that.
//!
//! No test here enables the global telemetry recorder, so the file passes
//! under the default parallel test harness.

use inca::{ExecPolicy, HwConv, ReadPath};
use inca_nn::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Uniform values in `[lo, hi)`.
fn uniform(rng: &mut StdRng, n: usize, lo: f32, hi: f32) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(lo..hi)).collect()
}

/// Activations at the range's two ends, mostly the top, so most cells of
/// every activation-bit plane conduct.
fn extreme_inputs(rng: &mut StdRng, n: usize) -> Vec<f32> {
    (0..n).map(|_| if rng.gen_range(0..4) == 0 { -0.5 } else { 1.0 }).collect()
}

/// Weights of full magnitude or zero, mostly positive, so a window's
/// positive-side reads hold most of its cells.
fn extreme_weights(rng: &mut StdRng, n: usize) -> Vec<f32> {
    (0..n)
        .map(|_| match rng.gen_range(0..8) {
            0 => -0.6,
            1 => 0.0,
            _ => 0.6,
        })
        .collect()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn scalar() -> ExecPolicy {
    ExecPolicy::sequential().with_read_path(ReadPath::Scalar)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One sample and a batch, every kernel size up to two-word windows
    /// (k = 9), strides 1–3, pads 0–2 and tile sides {16, 8, k} (those
    /// ≥ k): the packed path equals the scalar path bit for bit, on
    /// uniform and on saturating inputs.
    #[test]
    fn packed_matches_scalar_under_saturation(
        seed in 0u64..1_000_000,
        k in 1usize..=9,
        stride in 1usize..=3,
        pad in 0usize..=2,
        side_sel in 0usize..=2,
        out_ch in 1usize..=3,
        in_ch in 1usize..=2,
        batch in 1usize..=2,
        extra_h in 0usize..=5,
        extra_w in 0usize..=5,
    ) {
        let h = k.saturating_sub(2 * pad).max(1) + extra_h;
        let w = k.saturating_sub(2 * pad).max(1) + extra_w;
        let sides: Vec<usize> = [16, 8, k].into_iter().filter(|&s| s >= k).collect();
        let side = sides[side_sel % sides.len()];
        let mut rng = StdRng::seed_from_u64(seed);
        for saturating in [false, true] {
            let n_w = out_ch * in_ch * k * k;
            let n_x = batch * in_ch * h * w;
            let (weights, x) = if saturating {
                (extreme_weights(&mut rng, n_w), extreme_inputs(&mut rng, n_x))
            } else {
                (uniform(&mut rng, n_w, -0.6, 0.6), uniform(&mut rng, n_x, -0.7, 1.0))
            };
            let weights = Tensor::from_vec(weights, &[out_ch, in_ch, k, k]);
            let x = Tensor::from_vec(x, &[batch, in_ch, h, w]);
            let bias: Vec<f32> = (0..out_ch).map(|o| o as f32 * 0.03 - 0.02).collect();
            let case = format!("k {k} stride {stride} pad {pad} side {side} {h}x{w} saturating {saturating}");

            let conv = HwConv::from_float(&weights, &bias, stride, pad).unwrap().with_side(side);
            let reference = conv.clone().with_policy(scalar());
            for bi in 0..batch {
                let sample = x.sample(bi);
                let packed = conv.forward(&sample).unwrap();
                prop_assert_eq!(bits(&packed), bits(&reference.forward(&sample).unwrap()), "HwConv {}", case);
            }

            let packed = conv.forward(&x).unwrap();
            prop_assert_eq!(bits(&packed), bits(&reference.forward(&x).unwrap()), "batch {}", case);
        }
    }

    /// The exact batch oracle: when every sample holds the batch's
    /// minimum and maximum, its own quantization range is the batch's, so
    /// the batch forward equals B one-sample forwards bit for bit. Covers
    /// the linear read (k = 3) and the saturating bit-serial read (k = 5)
    /// on both read paths, across tile sides and batches of 2–4.
    #[test]
    fn batch_forward_equals_one_sample_forwards(
        seed in 0u64..1_000_000,
        k_sel in 0usize..=1,
        batch in 2usize..=4,
        stride in 1usize..=2,
        side_sel in 0usize..=1,
        out_ch in 1usize..=3,
        in_ch in 1usize..=2,
        h in 6usize..=11,
        saturating in any::<bool>(),
    ) {
        let k = [3usize, 5][k_sel];
        let (pad, side) = (k / 2, [16usize, 8][side_sel]);
        let mut rng = StdRng::seed_from_u64(seed);
        let n_w = out_ch * in_ch * k * k;
        let per_sample = in_ch * h * h;
        let (weights, mut x) = if saturating {
            (extreme_weights(&mut rng, n_w), extreme_inputs(&mut rng, batch * per_sample))
        } else {
            (uniform(&mut rng, n_w, -0.6, 0.6), uniform(&mut rng, batch * per_sample, -0.7, 1.0))
        };
        // Every sample spans the batch's range.
        let (lo, hi) = x.iter().fold((0.0f32, 0.0f32), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        for sample in x.chunks_exact_mut(per_sample) {
            sample[0] = lo;
            sample[per_sample - 1] = hi;
        }
        let weights = Tensor::from_vec(weights, &[out_ch, in_ch, k, k]);
        let x = Tensor::from_vec(x, &[batch, in_ch, h, h]);
        let bias: Vec<f32> = (0..out_ch).map(|o| 0.05 - o as f32 * 0.04).collect();
        let conv = HwConv::from_float(&weights, &bias, stride, pad).unwrap().with_side(side);
        for policy in [ExecPolicy::sequential(), scalar()] {
            let conv = conv.clone().with_policy(policy);
            let y = bits(&conv.forward(&x).unwrap());
            let per_out = y.len() / batch;
            for bi in 0..batch {
                let one = bits(&conv.forward(&x.sample(bi)).unwrap());
                prop_assert_eq!(
                    &one[..],
                    &y[bi * per_out..(bi + 1) * per_out],
                    "k {} sample {} of {} ({:?})",
                    k,
                    bi,
                    batch,
                    policy.read_path
                );
            }
        }
    }
}
