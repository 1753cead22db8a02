//! Functional cross-stack integration: the same convolution computed by
//! (a) the trainable f32 framework, (b) the INCA 2T1R planes with
//! bit-serial direct convolution, and (c) the WS crossbar with unrolled
//! weights must agree exactly in integer arithmetic.

use inca::nn::layers::{self, Layer as _};
use inca::nn::Tensor;
use inca::xbar::quant::slice_to_bit_planes;
use inca::xbar::sliding::Windows;
use inca::xbar::{Crossbar2d, VerticalPlane};
use rand::{Rng, SeedableRng};

const H: usize = 10;
const K: usize = 3;
const BITS: u8 = 6;

fn random_case(seed: u64) -> (Vec<u32>, Vec<u32>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let img: Vec<u32> = (0..H * H).map(|_| rng.gen_range(0..(1u32 << BITS))).collect();
    let kernel: Vec<u32> = (0..K * K).map(|_| rng.gen_range(0..(1u32 << BITS))).collect();
    (img, kernel)
}

/// (a) f32 framework conv (exact for these integer magnitudes).
fn framework_conv(img: &[u32], kernel: &[u32]) -> Vec<u64> {
    let mut conv = layers::Conv2d::new(1, 1, K, 1, 0, 0);
    conv.weights_mut().data_mut().copy_from_slice(&kernel.iter().map(|&w| w as f32).collect::<Vec<_>>());
    let x = Tensor::from_vec(img.iter().map(|&v| v as f32).collect(), &[1, 1, H, H]);
    conv.forward(&x).data().iter().map(|v| v.round() as u64).collect()
}

/// (b) INCA: one plane per activation bit, kernel streamed bit-serially.
fn inca_conv(img: &[u32], kernel: &[u32]) -> Vec<u64> {
    let x_planes = slice_to_bit_planes(img, BITS);
    let planes: Vec<VerticalPlane> =
        x_planes.iter().map(|bits| VerticalPlane::from_bits(H, H, bits).unwrap()).collect();
    let w_planes = slice_to_bit_planes(kernel, BITS);
    Windows::new(H, H, K, K, 1)
        .map(|(r, c)| {
            let mut acc = 0u64;
            for (wb, wp) in w_planes.iter().enumerate() {
                for (xb, plane) in planes.iter().enumerate() {
                    acc += u64::from(plane.direct_conv_window(r, c, K, K, wp).unwrap()) << (wb + xb);
                }
            }
            acc
        })
        .collect()
}

/// (c) WS: kernel bits unrolled into crossbar columns, window unrolled into
/// the input vector.
fn ws_conv(img: &[u32], kernel: &[u32]) -> Vec<u64> {
    let mut xbar = Crossbar2d::new(K * K, usize::from(BITS));
    for (col, wp) in slice_to_bit_planes(kernel, BITS).iter().enumerate() {
        xbar.program_column(col, wp).unwrap();
    }
    Windows::new(H, H, K, K, 1)
        .map(|(r, c)| {
            let window: Vec<u32> =
                (0..K).flat_map(|i| (0..K).map(move |j| img[(r + i) * H + c + j])).collect();
            let mut acc = 0u64;
            for (xb, xp) in slice_to_bit_planes(&window, BITS).iter().enumerate() {
                for (wb, &s) in xbar.mvm_binary(xp).unwrap().iter().enumerate() {
                    acc += u64::from(s) << (wb + xb);
                }
            }
            acc
        })
        .collect()
}

#[test]
fn all_three_stacks_agree() {
    for seed in 0..5 {
        let (img, kernel) = random_case(seed);
        let fw = framework_conv(&img, &kernel);
        let is = inca_conv(&img, &kernel);
        let ws = ws_conv(&img, &kernel);
        assert_eq!(is, fw, "seed {seed}: IS hardware diverged from the framework");
        assert_eq!(ws, fw, "seed {seed}: WS hardware diverged from the framework");
    }
}

#[test]
fn backward_error_overwrite_roundtrip() {
    // §IV-C: errors overwrite the activations in the same cells. Model the
    // in-place overwrite at the plane level and verify the new contents
    // serve the next convolution.
    let (img, kernel) = random_case(42);
    let x_planes = slice_to_bit_planes(&img, BITS);
    // An erased plane, written with the activations.
    let mut plane = VerticalPlane::from_bits(H, H, &[0; H * H]).unwrap();
    plane.write_bits(&x_planes[0]).unwrap();
    let before = plane.direct_conv_window(0, 0, K, K, &slice_to_bit_planes(&kernel, BITS)[0]).unwrap();

    // "Errors" = complement pattern overwrites activations in place.
    let errors: Vec<u8> = x_planes[0].iter().map(|b| 1 - b).collect();
    plane.write_bits(&errors).unwrap();
    let after = plane.direct_conv_window(0, 0, K, K, &slice_to_bit_planes(&kernel, BITS)[0]).unwrap();

    let kernel_bits = &slice_to_bit_planes(&kernel, BITS)[0];
    let ones_in_kernel: u32 = kernel_bits.iter().map(|&b| u32::from(b)).sum();
    // Complementing the inputs complements the window sum against the
    // number of driven pillars.
    assert_eq!(before + after, ones_in_kernel);
    assert_eq!(plane.write_count(), 2);
}
