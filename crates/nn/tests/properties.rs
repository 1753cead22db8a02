//! Property-based tests on framework invariants: gradient correctness via
//! finite differences across random layer configurations, loss-function
//! identities, and tensor algebra.

use inca_nn::layers::{self, Layer as _};
use inca_nn::{Loss, Tensor};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// The elementwise `Tensor` arithmetic these properties use.
trait TensorOps {
    fn add_assign(&mut self, rhs: &Tensor);
    fn scale(&mut self, s: f32);
}

impl TensorOps for Tensor {
    fn add_assign(&mut self, rhs: &Tensor) {
        assert_eq!(self.shape(), rhs.shape(), "shape mismatch in add_assign");
        for (a, b) in self.data_mut().iter_mut().zip(rhs.data()) {
            *a += b;
        }
    }

    fn scale(&mut self, s: f32) {
        for a in self.data_mut() {
            *a *= s;
        }
    }
}

fn random_tensor(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Tensor::from_vec((0..shape.iter().product::<usize>()).map(|_| rng.gen_range(-1.0..1.0)).collect(), shape)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Conv2d input gradients match finite differences for random
    /// geometries.
    #[test]
    fn conv_input_gradient_correct(
        cin in 1usize..3,
        cout in 1usize..3,
        k in 1usize..4,
        seed in any::<u16>(),
    ) {
        let h = 6usize;
        let make = || layers::Conv2d::new(cin, cout, k, 1, k / 2, u64::from(seed));
        let x = random_tensor(&[1, cin, h, h], u64::from(seed) + 1);
        let mut conv = make();
        let y = conv.forward(&x);
        let grad_in = conv.backward(&Tensor::full(y.shape(), 1.0));
        let eps = 1e-2;
        for xi in [0usize, x.len() / 2, x.len() - 1] {
            let mut xp = x.clone();
            xp.data_mut()[xi] += eps;
            let mut xm = x.clone();
            xm.data_mut()[xi] -= eps;
            let numeric = (make().forward(&xp).sum() - make().forward(&xm).sum()) / (2.0 * eps);
            prop_assert!(
                (numeric - grad_in.data()[xi]).abs() < 0.05,
                "input {xi}: numeric {numeric} vs analytic {}",
                grad_in.data()[xi]
            );
        }
    }

    /// Linear layers are, well, linear: f(a x) = a f(x) when bias is zero.
    #[test]
    fn linear_layer_homogeneous(seed in any::<u16>(), a in 0.1f32..4.0) {
        let mut l = layers::Linear::new(6, 3, u64::from(seed));
        prop_assert!(l.bias().data().iter().all(|&b| b == 0.0));
        let x = random_tensor(&[1, 6], u64::from(seed) + 9);
        let mut xs = x.clone();
        xs.scale(a);
        let y1 = {
            let mut y = l.forward(&x);
            y.scale(a);
            y
        };
        let y2 = l.forward(&xs);
        for (u, v) in y1.data().iter().zip(y2.data()) {
            prop_assert!((u - v).abs() < 1e-4);
        }
    }

    /// ReLU backward zeroes exactly the gradients of non-positive inputs.
    #[test]
    fn relu_mask_exact(seed in any::<u16>()) {
        let x = random_tensor(&[32], u64::from(seed));
        let mut r = layers::Relu::new();
        let _ = r.forward(&x);
        let g = r.backward(&Tensor::full(&[32], 1.0));
        for (xi, gi) in x.data().iter().zip(g.data()) {
            prop_assert_eq!(*gi, if *xi > 0.0 { 1.0 } else { 0.0 });
        }
    }

    /// Max pooling never invents values: every output equals some input in
    /// its window, and backward routes exactly the output gradient mass.
    #[test]
    fn maxpool_conserves_gradient_mass(seed in any::<u16>()) {
        let x = random_tensor(&[1, 2, 6, 6], u64::from(seed));
        let mut p = layers::MaxPool2d::new(2, 2);
        let y = p.forward(&x);
        let grad = random_tensor(y.shape(), u64::from(seed) + 5);
        let g = p.backward(&grad);
        prop_assert!((g.sum() - grad.sum()).abs() < 1e-4);
    }

    /// Softmax cross-entropy gradient sums to zero over classes (shift
    /// invariance of softmax).
    #[test]
    fn cross_entropy_gradient_sums_to_zero(seed in any::<u16>(), classes in 2usize..8) {
        let logits = random_tensor(&[1, classes], u64::from(seed));
        let (_, grad) = Loss::CrossEntropy.evaluate(&logits, &[0]);
        prop_assert!(grad.sum().abs() < 1e-6);
    }

    /// L2 loss is zero iff the prediction is exactly the one-hot target.
    #[test]
    fn l2_zero_iff_exact(classes in 2usize..6, target in 0usize..6) {
        prop_assume!(target < classes);
        let mut logits = Tensor::zeros(&[1, classes]);
        logits.data_mut()[target] = 1.0;
        let (loss, grad) = Loss::L2.evaluate(&logits, &[target]);
        prop_assert_eq!(loss, 0.0);
        prop_assert!(grad.data().iter().all(|&g| g == 0.0));
    }

    /// Tensor reshape round-trips and add_assign is commutative in effect.
    #[test]
    fn tensor_algebra(seed in any::<u16>()) {
        let a = random_tensor(&[2, 3, 4], u64::from(seed));
        let b = random_tensor(&[2, 3, 4], u64::from(seed) + 1);
        let mut ab = a.clone();
        ab.add_assign(&b);
        let mut ba = b.clone();
        ba.add_assign(&a);
        for (u, v) in ab.data().iter().zip(ba.data()) {
            prop_assert!((u - v).abs() < 1e-6);
        }
        let r = a.clone().reshaped(&[24]).reshaped(&[2, 3, 4]);
        prop_assert_eq!(r, a);
    }
}
