//! In-situ training on simulated INCA hardware (§IV-C, Fig 10): the
//! weight-update convolution (Eq. 4) computed by direct-convolution reads
//! of the *resident* activations, the error overwrite that recycles the
//! cells, and batch-parallel forward execution on the 3D stack.
//!
//! ```text
//! cargo run --release --example hw_training
//! ```

use inca::nn::layers::{Conv2d, Layer as _};
use inca::nn::Tensor;
use inca::{HwConv, HwGradientUnit};
use rand::{Rng, SeedableRng};

fn main() -> Result<(), inca::Error> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2023);
    let (h, k) = (8usize, 3usize);
    let oh = h - k + 1;

    // A regression task: make a 1-channel conv reproduce a target map.
    let x2d = Tensor::from_vec((0..h * h).map(|_| rng.gen_range(0.0..1.0)).collect(), &[h, h]);
    let target = Tensor::from_vec((0..oh * oh).map(|_| rng.gen_range(0.0..1.0)).collect(), &[oh, oh]);
    let mut conv = Conv2d::new(1, 1, k, 1, 0, 7);
    let x4 = x2d.clone().reshaped(&[1, 1, h, h]);

    // The forward pass wrote the activations into the planes once; they
    // stay resident for every subsequent update step.
    let unit = HwGradientUnit::program(&x2d)?;
    println!("activations programmed: {} write pulses ({}-bit planes)", unit.write_count(), 8);

    println!("\nin-situ SGD with hardware-computed gradients (Eq. 4):");
    for step in 0..8 {
        let y = conv.forward(&x4);
        let loss: f32 = y.data().iter().zip(target.data()).map(|(a, b)| (a - b) * (a - b)).sum();
        // δ = dL/dy, supplied to the pillars as the sliding kernel.
        let delta = Tensor::from_vec(
            y.data().iter().zip(target.data()).map(|(a, b)| 2.0 * (a - b)).collect(),
            &[oh, oh],
        );
        let grad = unit.weight_gradient(&delta, k)?;
        for (w, g) in conv.weights_mut().data_mut().iter_mut().zip(grad.data()) {
            *w -= 0.005 * g;
        }
        println!("  step {step}: loss {loss:.4}");
    }

    // After backward, the errors overwrite the activations in place —
    // "INCA can reuse RRAMs ... since the overwritten input values will no
    // longer be necessary" (§IV-C).
    let mut unit = unit;
    let final_errors = Tensor::full(&[h, h], 0.1);
    unit.overwrite_with_errors(&final_errors)?;
    println!("\nerror overwrite done: {} total write pulses on the recycled cells", unit.write_count());

    // Batch-parallel forward on the 3D stack: one kernel broadcast per
    // read cycle serves all planes.
    let w = Tensor::from_vec(conv.weights().data().to_vec(), &[1, 1, k, k]);
    let batch_conv = HwConv::from_float(&w, &[0.0], 1, 0)?;
    let batch = Tensor::from_vec((0..4 * h * h).map(|_| rng.gen_range(0.0..1.0)).collect(), &[4, 1, h, h]);
    let y = batch_conv.forward(&batch)?;
    println!(
        "3D batch forward: {} samples convolved by shared-pillar broadcasts -> output {:?}",
        y.dims4()[0],
        y.shape()
    );
    Ok(())
}
