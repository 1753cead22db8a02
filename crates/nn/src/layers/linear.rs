use rand::{Rng, SeedableRng};

use super::{transpose, Layer};
use crate::Tensor;

/// Output features the forward pass sums at once.
const LANES: usize = 8;

/// A fully-connected layer (Eq. 2 of the paper): `A = W·x + b` with `W` of
/// shape `[out_features, in_features]`.
#[derive(Debug, Clone)]
pub struct Linear {
    in_features: usize,
    out_features: usize,
    weights: Tensor,
    bias: Tensor,
    grad_w: Tensor,
    grad_b: Tensor,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a fully-connected layer with Glorot-uniform initialization.
    ///
    /// # Panics
    ///
    /// Panics if either feature count is zero.
    #[must_use]
    pub fn new(in_features: usize, out_features: usize, seed: u64) -> Self {
        assert!(in_features > 0 && out_features > 0, "feature counts must be positive");
        let limit = (6.0 / (in_features + out_features) as f32).sqrt();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let w: Vec<f32> = (0..in_features * out_features).map(|_| rng.gen_range(-limit..limit)).collect();
        Self {
            in_features,
            out_features,
            weights: Tensor::from_vec(w, &[out_features, in_features]),
            bias: Tensor::zeros(&[out_features]),
            grad_w: Tensor::zeros(&[out_features, in_features]),
            grad_b: Tensor::zeros(&[out_features]),
            cached_input: None,
        }
    }

    /// The weight matrix (`[out, in]`).
    #[must_use]
    pub fn weights(&self) -> &Tensor {
        &self.weights
    }

    /// The bias vector.
    #[must_use]
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// Mutable weight access.
    pub fn weights_mut(&mut self) -> &mut Tensor {
        &mut self.weights
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        assert_eq!(x.shape().len(), 2, "Linear expects [batch, features], got {:?}", x.shape());
        let n = x.shape()[0];
        let (fin, fout) = (self.in_features, self.out_features);
        assert_eq!(x.shape()[1], fin, "Linear expects {fin} features");
        // The weights as [out / LANES rounded up][in][LANES], so each
        // sample's outputs sum LANES at a time, one lane each: a lane adds
        // `w·x` in input order from `.sum()`'s start value −0.0, then the
        // bias. Padded lanes are never stored.
        let mut wt = vec![0.0; fout.next_multiple_of(LANES) * fin];
        for (w_o, w_lanes) in self.weights.data().chunks(LANES * fin).zip(wt.chunks_exact_mut(LANES * fin)) {
            transpose(w_o, fin, w_o.len() / fin, fin, w_lanes, LANES);
        }
        let mut out = Vec::with_capacity(n * fout);
        for xi in x.data().chunks_exact(fin) {
            for (w_lanes, bias) in wt.chunks_exact(LANES * fin).zip(self.bias.data().chunks(LANES)) {
                let mut acc = [-0.0f32; LANES];
                for (w, &v) in w_lanes.as_chunks::<LANES>().0.iter().zip(xi) {
                    for (a, &w) in acc.iter_mut().zip(w) {
                        *a += w * v;
                    }
                }
                out.extend(acc.iter().zip(bias).map(|(a, b)| a + b));
            }
        }
        self.cached_input = Some(x.clone());
        Tensor::from_vec(out, &[n, fout])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self.cached_input.as_ref().expect("backward before forward"); // documented Layer contract. lint: allow(panic-path)
        let n = x.shape()[0];
        let (fin, fout) = (self.in_features, self.out_features);
        assert_eq!(grad_out.shape(), &[n, fout], "gradient shape mismatch");
        let mut grad_in = Tensor::zeros(&[n, fin]);
        let samples = x.data().chunks_exact(fin).zip(grad_out.data().chunks_exact(fout));
        for ((xi, gi), gin) in samples.zip(grad_in.data_mut().chunks_exact_mut(fin)) {
            let rows =
                self.weights.data().chunks_exact(fin).zip(self.grad_w.data_mut().chunks_exact_mut(fin));
            for (((w_row, gw_row), gb), &g) in rows.zip(self.grad_b.data_mut()).zip(gi) {
                if g == 0.0 {
                    continue;
                }
                *gb += g;
                for (gw, &v) in gw_row.iter_mut().zip(xi) {
                    *gw += g * v;
                }
                for (gx, &w) in gin.iter_mut().zip(w_row) {
                    *gx += g * w;
                }
            }
        }
        grad_in
    }

    fn sgd_step(&mut self, lr: f32) {
        for (w, g) in self.weights.data_mut().iter_mut().zip(self.grad_w.data()) {
            *w -= lr * g;
        }
        for (b, g) in self.bias.data_mut().iter_mut().zip(self.grad_b.data()) {
            *b -= lr * g;
        }
        self.zero_grads();
    }

    fn zero_grads(&mut self) {
        self.grad_w.data_mut().fill(0.0);
        self.grad_b.data_mut().fill(0.0);
    }

    fn param_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    fn map_weights(&mut self, f: &mut dyn FnMut(f32) -> f32) {
        for w in self.weights.data_mut() {
            *w = f(*w);
        }
    }

    fn name(&self) -> &'static str {
        "linear"
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    impl super::Linear {
        /// Mutable bias access.
        fn bias_mut(&mut self) -> &mut Tensor {
            &mut self.bias
        }
    }

    use super::super::{assert_same_bits, Oracle};
    use super::*;

    /// The per-element loops the lane kernels replaced, kept as their
    /// bit-exact oracle.
    impl Oracle for Linear {
        fn forward_oracle(&mut self, x: &Tensor) -> Tensor {
            let n = x.shape()[0];
            let mut out = Tensor::zeros(&[n, self.out_features]);
            for ni in 0..n {
                let xi = &x.data()[ni * self.in_features..(ni + 1) * self.in_features];
                for o in 0..self.out_features {
                    let row = &self.weights.data()[o * self.in_features..(o + 1) * self.in_features];
                    let dot: f32 = row.iter().zip(xi).map(|(w, x)| w * x).sum();
                    out.data_mut()[ni * self.out_features + o] = dot + self.bias.data()[o];
                }
            }
            self.cached_input = Some(x.clone());
            out
        }

        #[allow(clippy::needless_range_loop)] // loops index several arrays with one shared variable
        fn backward_oracle(&mut self, grad_out: &Tensor) -> Tensor {
            let x = self.cached_input.as_ref().expect("backward before forward");
            let n = x.shape()[0];
            let mut grad_in = Tensor::zeros(&[n, self.in_features]);
            for ni in 0..n {
                let xi = &x.data()[ni * self.in_features..(ni + 1) * self.in_features];
                let gi = &grad_out.data()[ni * self.out_features..(ni + 1) * self.out_features];
                for o in 0..self.out_features {
                    let g = gi[o];
                    if g == 0.0 {
                        continue;
                    }
                    self.grad_b.data_mut()[o] += g;
                    let w_row = o * self.in_features;
                    for i in 0..self.in_features {
                        self.grad_w.data_mut()[w_row + i] += g * xi[i];
                        grad_in.data_mut()[ni * self.in_features + i] += g * self.weights.data()[w_row + i];
                    }
                }
            }
            grad_in
        }
    }

    /// `len` values: ±0 about half the time, with `specials` ±∞ and NaN
    /// about 6%, the rest in `−1..1`.
    fn values(len: usize, specials: bool, rng: &mut rand::rngs::StdRng) -> Vec<f32> {
        (0..len)
            .map(|_| match rng.gen_range(0..100u32) {
                0..=24 => 0.0,
                25..=49 => -0.0,
                50..=51 if specials => f32::INFINITY,
                52..=53 if specials => f32::NEG_INFINITY,
                54..=55 if specials => f32::NAN,
                _ => rng.gen_range(-1.0f32..1.0),
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The lane kernels reproduce the oracle bit for bit: the forward
        /// output, both input gradients of two accumulating backward
        /// passes, and the weights and bias after the SGD step. With
        /// `negative_zero_row`, output 0's products are all −0.0 and its
        /// bias is −0.0, so its sum shows the lanes' start value.
        #[test]
        fn lane_kernels_match_the_oracle_bit_for_bit(
            n in 1usize..=3,
            fin in 1usize..=12,
            fout in 1usize..=19,
            specials in any::<bool>(),
            negative_zero_row in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut fast = Linear::new(fin, fout, seed);
            let weights = values(fin * fout, specials, &mut rng);
            fast.weights_mut().data_mut().copy_from_slice(&weights);
            let bias = values(fout, specials, &mut rng);
            fast.bias_mut().data_mut().copy_from_slice(&bias);
            let mut x = values(n * fin, specials, &mut rng);
            if negative_zero_row {
                // −0·x and w·−0 alternate along the row and each sample.
                let row = &mut fast.weights_mut().data_mut()[..fin];
                row.iter_mut().zip([-0.0, 0.5].iter().cycle()).for_each(|(w, &v)| *w = v);
                fast.bias_mut().data_mut()[0] = -0.0;
                for xi in x.chunks_mut(fin) {
                    xi.iter_mut().zip([0.25, -0.0].iter().cycle()).for_each(|(x, &v)| *x = v);
                }
            }
            let mut oracle = fast.clone();
            let x = Tensor::from_vec(x, &[n, fin]);
            let y = fast.forward(&x);
            assert_same_bits("output", y.data(), oracle.forward_oracle(&x).data());
            for pass in ["first", "second"] {
                let g = Tensor::from_vec(values(y.len(), specials, &mut rng), y.shape());
                let (gi, gi_oracle) = (fast.backward(&g), oracle.backward_oracle(&g));
                assert_same_bits(&format!("{pass} input gradient"), gi.data(), gi_oracle.data());
            }
            assert_same_bits("weight gradients", fast.grad_w.data(), oracle.grad_w.data());
            assert_same_bits("bias gradients", fast.grad_b.data(), oracle.grad_b.data());
            fast.sgd_step(0.1);
            oracle.sgd_step(0.1);
            assert_same_bits("weights", fast.weights().data(), oracle.weights().data());
            assert_same_bits("bias", fast.bias().data(), oracle.bias().data());
        }
    }

    #[test]
    fn forward_is_matrix_vector_product() {
        let mut l = Linear::new(3, 2, 0);
        l.weights_mut().data_mut().copy_from_slice(&[1.0, 0.0, 0.0, 0.0, 1.0, 1.0]);
        let x = Tensor::from_vec(vec![2.0, 3.0, 4.0], &[1, 3]);
        let y = l.forward(&x);
        assert_eq!(y.data(), &[2.0, 7.0]);
    }

    #[test]
    fn batch_forward() {
        let mut l = Linear::new(2, 1, 0);
        l.weights_mut().data_mut().copy_from_slice(&[1.0, 1.0]);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let y = l.forward(&x);
        assert_eq!(y.data(), &[3.0, 7.0]);
    }

    #[test]
    fn gradient_check() {
        let make = || Linear::new(4, 3, 11);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let x = Tensor::from_vec((0..8).map(|_| rng.gen_range(-1.0f32..1.0)).collect(), &[2, 4]);
        let mut l = make();
        let y = l.forward(&x);
        let grad_in = l.backward(&Tensor::full(y.shape(), 1.0));
        let eps = 1e-3;
        for wi in 0..l.weights.len() {
            let mut p = make();
            p.weights_mut().data_mut()[wi] += eps;
            let mut m = make();
            m.weights_mut().data_mut()[wi] -= eps;
            let numeric = (p.forward(&x).sum() - m.forward(&x).sum()) / (2.0 * eps);
            assert!((numeric - l.grad_w.data()[wi]).abs() < 1e-2, "weight {wi}");
        }
        for xi in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[xi] += eps;
            let mut xm = x.clone();
            xm.data_mut()[xi] -= eps;
            let numeric = (make().forward(&xp).sum() - make().forward(&xm).sum()) / (2.0 * eps);
            assert!((numeric - grad_in.data()[xi]).abs() < 1e-2, "input {xi}");
        }
    }

    #[test]
    fn sgd_reduces_simple_regression_loss() {
        // Fit y = 2x with a 1x1 linear layer.
        let mut l = Linear::new(1, 1, 3);
        let mut last = f32::INFINITY;
        for _ in 0..50 {
            let x = Tensor::from_vec(vec![1.0], &[1, 1]);
            let y = l.forward(&x);
            let err = y.data()[0] - 2.0;
            let loss = err * err;
            l.backward(&Tensor::from_vec(vec![2.0 * err], &[1, 1]));
            l.sgd_step(0.1);
            assert!(loss <= last + 1e-6);
            last = loss;
        }
        assert!(last < 1e-3);
    }

    #[test]
    #[should_panic(expected = "features")]
    fn wrong_feature_count_panics() {
        let mut l = Linear::new(3, 2, 0);
        let _ = l.forward(&Tensor::zeros(&[1, 4]));
    }
}
