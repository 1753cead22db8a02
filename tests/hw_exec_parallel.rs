//! Property tests for the hardware-functional execution engine:
//!
//! * the parallel execution policy is **bit-exact** with the sequential
//!   one, across random batches/shapes/strides/paddings,
//! * [`HwConv::forward`] agrees with a plain im2col float reference
//!   within an analytically derived quantization-error bound.

#![allow(clippy::needless_range_loop)] // loops index several arrays with one shared variable

use inca::{ExecPolicy, HwConv, ReadPath};
use inca_nn::Tensor;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

fn random_tensor(shape: &[usize], seed: u64, lo: f32, hi: f32) -> Tensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Tensor::from_vec((0..shape.iter().product::<usize>()).map(|_| rng.gen_range(lo..hi)).collect(), shape)
}

/// Plain im2col convolution: unroll every window into a column and dot it
/// with the unrolled kernel — the float reference the hardware engine
/// approximates.
fn im2col_conv(x: &Tensor, w: &Tensor, bias: &[f32], stride: usize, pad: usize) -> Tensor {
    let [_, c, h, width] = x.dims4();
    let [out_ch, _, k, _] = w.dims4();
    let oh = (h + 2 * pad - k) / stride + 1;
    let ow = (width + 2 * pad - k) / stride + 1;
    let at_padded = |ci: usize, y: isize, xx: isize| -> f32 {
        if y < 0 || xx < 0 || y as usize >= h || xx as usize >= width {
            0.0
        } else {
            x.at4(0, ci, y as usize, xx as usize)
        }
    };
    let mut out = Tensor::zeros(&[1, out_ch, oh, ow]);
    for o in 0..out_ch {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0f32;
                for ci in 0..c {
                    for kh in 0..k {
                        for kw in 0..k {
                            let y = (oy * stride + kh) as isize - pad as isize;
                            let xx = (ox * stride + kw) as isize - pad as isize;
                            acc += w.at4(o, ci, kh, kw) * at_padded(ci, y, xx);
                        }
                    }
                }
                *out.at4_mut(0, o, oy, ox) = acc + bias[o];
            }
        }
    }
    out
}

/// Worst-case dequantized error of one output element: every one of the
/// `fan_in` products carries at most half an LSB of weight error times
/// |x| plus half an LSB of activation error times |w| (plus the weight
/// LSB itself, since the rounded code is what multiplies the activation
/// error).
fn quantization_bound(x: &Tensor, w: &Tensor, fan_in: usize) -> f32 {
    let w_max = w.data().iter().fold(0.0f32, |m, &v| m.max(v.abs())).max(1e-12);
    let x_min = x.data().iter().fold(0.0f32, |m, &v| m.min(v)).min(0.0);
    let x_max = x.data().iter().fold(0.0f32, |m, &v| m.max(v)).max(x_min + 1e-9);
    let x_abs = x_max.abs().max(x_min.abs());
    let w_scale = w_max / 127.0;
    let x_scale = (x_max - x_min) / 255.0;
    fan_in as f32 * 0.5 * (w_scale * x_abs + x_scale * (w_max + w_scale)) + 1e-4
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Tentpole acceptance property: fanning output rows across worker
    /// threads changes no output bit.
    #[test]
    fn parallel_hw_conv_is_bit_exact(
        seed in 0u64..10_000,
        batch in 1usize..=3,
        out_ch in 1usize..=3,
        in_ch in 1usize..=3,
        k in 1usize..=3,
        stride in 1usize..=2,
        pad in 0usize..=2,
        h in 5usize..=11,
        w in 5usize..=11,
        threads in 2usize..=5,
    ) {
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        let weights = random_tensor(&[out_ch, in_ch, k, k], seed, -0.6, 0.6);
        let bias: Vec<f32> = (0..out_ch).map(|o| o as f32 * 0.05 - 0.1).collect();
        let x = random_tensor(&[batch, in_ch, h, w], seed.wrapping_add(1), -0.7, 1.0);
        let seq = HwConv::from_float(&weights, &bias, stride, pad).unwrap();
        let par = seq.clone().with_policy(ExecPolicy::parallel_with(threads));
        let y_seq = seq.forward(&x).unwrap();
        let y_par = par.forward(&x).unwrap();
        prop_assert_eq!(y_seq.shape(), y_par.shape());
        prop_assert_eq!(y_seq.data(), y_par.data());
    }

    /// A batch broadcast on multi-plane stacks split into halo tiles stays
    /// bit-exact under the parallel schedule, on both read paths and for
    /// both the integer (3×3) and the saturating bit-serial (5×5) reads.
    #[test]
    fn parallel_hw_batch_conv_is_bit_exact(
        seed in 0u64..10_000,
        batch in 2usize..=4,
        out_ch in 1usize..=2,
        in_ch in 1usize..=2,
        k_sel in 0usize..=1,
        stride in 1usize..=2,
        pad in 0usize..=1,
        h in 5usize..=9,
        side_sel in 0usize..=2,
        scalar in any::<bool>(),
        threads in 2usize..=4,
    ) {
        let k = [3usize, 5][k_sel];
        let side = [16usize, 8, 6][side_sel];
        let read_path = if scalar { ReadPath::Scalar } else { ReadPath::Packed };
        let weights = random_tensor(&[out_ch, in_ch, k, k], seed, -0.5, 0.5);
        let bias = vec![0.05f32; out_ch];
        let x = random_tensor(&[batch, in_ch, h, h], seed.wrapping_add(2), -0.4, 1.0);
        let seq = HwConv::from_float(&weights, &bias, stride, pad)
            .unwrap()
            .with_side(side)
            .with_policy(ExecPolicy::sequential().with_read_path(read_path));
        let par = seq.clone().with_policy(ExecPolicy::parallel_with(threads).with_read_path(read_path));
        let y_seq = seq.forward(&x).unwrap();
        let y_par = par.forward(&x).unwrap();
        let o = (h + 2 * pad - k) / stride + 1;
        prop_assert_eq!(y_seq.shape(), &[batch, out_ch, o, o][..]);
        prop_assert_eq!(y_seq.data(), y_par.data());
    }

    /// `HwConv::forward` must reproduce the im2col float reference within
    /// the analytic quantization-error bound, whatever the shape, stride,
    /// and padding.
    #[test]
    fn hw_conv_matches_im2col_reference(
        seed in 0u64..10_000,
        out_ch in 1usize..=3,
        in_ch in 1usize..=3,
        k in 1usize..=3,
        stride in 1usize..=2,
        pad in 0usize..=2,
        h in 5usize..=11,
        w in 5usize..=11,
    ) {
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        let weights = random_tensor(&[out_ch, in_ch, k, k], seed, -0.8, 0.8);
        let bias: Vec<f32> = (0..out_ch).map(|o| 0.1 - o as f32 * 0.07).collect();
        let x = random_tensor(&[1, in_ch, h, w], seed.wrapping_add(3), -0.5, 1.0);
        let hw = HwConv::from_float(&weights, &bias, stride, pad).unwrap();
        let y_hw = hw.forward(&x).unwrap();
        let y_ref = im2col_conv(&x, &weights, &bias, stride, pad);
        prop_assert_eq!(y_hw.shape(), y_ref.shape());
        let bound = quantization_bound(&x, &weights, in_ch * k * k);
        for (a, b) in y_hw.data().iter().zip(y_ref.data()) {
            prop_assert!(
                (a - b).abs() <= bound,
                "hw {} vs im2col {} exceeds quantization bound {}",
                a, b, bound
            );
        }
    }
}
