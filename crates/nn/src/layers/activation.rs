use super::Layer;
use crate::Tensor;

/// Rectified linear unit.
///
/// The backward pass multiplies by the local gradient `g'(a)` — in INCA
/// hardware this is the AND-gate trick of §IV-C: "AND can produce the same
/// results as the multiplication with the gradient of ReLU".
#[derive(Debug, Clone, Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// Creates a ReLU layer.
    #[must_use]
    pub fn new() -> Self {
        Self { mask: None }
    }
}

impl Layer for Relu {
    // Both passes write a fresh tensor through a select, which compiles to
    // branch-free SIMD: NaN and −0.0 fail `v > 0.0` and map to +0.0.
    fn forward(&mut self, x: &Tensor) -> Tensor {
        self.mask = Some(x.data().iter().map(|&v| v > 0.0).collect());
        Tensor::from_vec(x.data().iter().map(|&v| if v > 0.0 { v } else { 0.0 }).collect(), x.shape())
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self.mask.as_ref().expect("backward before forward"); // documented Layer contract. lint: allow(panic-path)
        assert_eq!(grad_out.len(), mask.len(), "gradient element count mismatch");
        // The AND gate.
        let g = grad_out.data().iter().zip(mask).map(|(&g, &alive)| if alive { g } else { 0.0 });
        Tensor::from_vec(g.collect(), grad_out.shape())
    }

    fn name(&self) -> &'static str {
        "relu"
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    use super::super::{assert_same_bits, Oracle};
    use super::*;

    /// The clone-and-mask loops the select kernels replaced, kept as their
    /// bit-exact oracle.
    impl Oracle for Relu {
        fn forward_oracle(&mut self, x: &Tensor) -> Tensor {
            let mut out = x.clone();
            let mask: Vec<bool> = out
                .data_mut()
                .iter_mut()
                .map(|v| {
                    let alive = *v > 0.0;
                    if !alive {
                        *v = 0.0;
                    }
                    alive
                })
                .collect();
            self.mask = Some(mask);
            out
        }

        fn backward_oracle(&mut self, grad_out: &Tensor) -> Tensor {
            let mask = self.mask.as_ref().expect("backward before forward");
            let mut g = grad_out.clone();
            for (v, &alive) in g.data_mut().iter_mut().zip(mask) {
                if !alive {
                    *v = 0.0;
                }
            }
            g
        }
    }

    /// ±0, ±∞, NaN and a few finite values of either sign.
    fn specials(len: usize, rng: &mut rand::rngs::StdRng) -> Vec<f32> {
        let levels = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -f32::NAN, 1.5, -2.0, 1e-40];
        (0..len).map(|_| levels[rng.gen_range(0..levels.len())]).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The select kernels reproduce the oracle's output, mask and input
        /// gradient bit for bit.
        #[test]
        fn select_kernels_match_the_oracle_bit_for_bit(len in 1usize..=40, seed in any::<u64>()) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let x = Tensor::from_vec(specials(len, &mut rng), &[len]);
            let g = Tensor::from_vec(specials(len, &mut rng), &[len]);
            let (mut fast, mut oracle) = (Relu::new(), Relu::new());
            assert_same_bits("output", fast.forward(&x).data(), oracle.forward_oracle(&x).data());
            prop_assert_eq!(&fast.mask, &oracle.mask);
            assert_same_bits("input gradient", fast.backward(&g).data(), oracle.backward_oracle(&g).data());
        }
    }

    /// Negatives, −0.0 and NaN all become +0.0.
    #[test]
    fn forward_clamps_negatives() {
        let mut r = Relu::new();
        let y = r.forward(&Tensor::from_vec(vec![-2.0, 0.0, -0.0, f32::NAN, 3.0], &[5]));
        let bits: Vec<u32> = y.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, [0, 0, 0, 0, 3.0f32.to_bits()]);
    }

    #[test]
    fn backward_is_and_gate() {
        let mut r = Relu::new();
        let _ = r.forward(&Tensor::from_vec(vec![-2.0, 0.5, 3.0], &[3]));
        let g = r.backward(&Tensor::from_vec(vec![10.0, 10.0, 10.0], &[3]));
        assert_eq!(g.data(), &[0.0, 10.0, 10.0]);
    }

    #[test]
    fn zero_input_is_dead() {
        let mut r = Relu::new();
        let _ = r.forward(&Tensor::from_vec(vec![0.0], &[1]));
        let g = r.backward(&Tensor::from_vec(vec![7.0], &[1]));
        assert_eq!(g.data(), &[0.0]);
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_without_forward_panics() {
        let mut r = Relu::new();
        let _ = r.backward(&Tensor::zeros(&[1]));
    }
}
