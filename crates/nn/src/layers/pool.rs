use super::{dims4_checked, output_len, Layer};
use crate::Tensor;

/// Max pooling. The backward pass restores the pre-pooling dimensions and
/// routes each gradient to the position of the maximum — "the maximum value
/// goes to its original position while other elements are dead as 0"
/// (§II-B2). In INCA hardware this routing is a lookup table (§IV-C).
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    k: usize,
    stride: usize,
    /// Cached input shape + argmax flat indices per output element.
    cache: Option<(Vec<usize>, Vec<usize>)>,
}

impl MaxPool2d {
    /// Creates a `k × k` max pool with the given stride.
    ///
    /// # Panics
    ///
    /// Panics if `k` or `stride` is zero.
    #[must_use]
    pub fn new(k: usize, stride: usize) -> Self {
        assert!(k > 0 && stride > 0, "pool parameters must be positive");
        Self { k, stride, cache: None }
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let [n, c, h, w] = dims4_checked(x, "MaxPool2d");
        let (k, s) = (self.k, self.stride);
        let oh = output_len("MaxPool2d", h, k, s, 0);
        let ow = output_len("MaxPool2d", w, k, s, 0);
        let mut out = vec![0.0; n * c * oh * ow];
        let mut argmax = vec![0; n * c * oh * ow];
        let outs = out.chunks_exact_mut(oh * ow).zip(argmax.chunks_exact_mut(oh * ow));
        for (plane, (x_plane, (out_plane, arg_plane))) in x.data().chunks_exact(h * w).zip(outs).enumerate() {
            let rows = out_plane.chunks_exact_mut(ow).zip(arg_plane.chunks_exact_mut(ow));
            for (y, (out_row, arg_row)) in rows.enumerate() {
                for (xo, (max, arg)) in out_row.iter_mut().zip(arg_row).enumerate() {
                    // One window, taps in (kh, kw) order: the strict `>`
                    // keeps its first maximum, and a window with no value
                    // above −∞ routes its gradient to its own first element.
                    let first = y * s * w + xo * s;
                    let (mut best, mut at) = (f32::NEG_INFINITY, first);
                    for (kh, row) in x_plane[first..].chunks(w).take(k).enumerate() {
                        for (kw, &v) in row[..k].iter().enumerate() {
                            let gt = v > best;
                            at = if gt { first + kh * w + kw } else { at };
                            best = if gt { v } else { best };
                        }
                    }
                    *max = best;
                    *arg = plane * h * w + at;
                }
            }
        }
        self.cache = Some((x.shape().to_vec(), argmax));
        Tensor::from_vec(out, &[n, c, oh, ow])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (shape, argmax) = self.cache.as_ref().expect("backward before forward"); // documented Layer contract. lint: allow(panic-path)
        assert_eq!(grad_out.len(), argmax.len(), "gradient element count mismatch");
        let mut grad_in = Tensor::zeros(shape);
        for (g, &idx) in grad_out.data().iter().zip(argmax) {
            grad_in.data_mut()[idx] += g;
        }
        grad_in
    }

    fn name(&self) -> &'static str {
        "max_pool2d"
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    use super::super::{assert_same_bits, Oracle};
    use super::*;

    /// The per-window loop the slice kernel replaced, kept as its
    /// bit-exact oracle.
    impl Oracle for MaxPool2d {
        fn forward_oracle(&mut self, x: &Tensor) -> Tensor {
            let [n, c, h, w] = dims4_checked(x, "MaxPool2d");
            let oh = (h - self.k) / self.stride + 1;
            let ow = (w - self.k) / self.stride + 1;
            let mut out = Tensor::zeros(&[n, c, oh, ow]);
            let mut argmax = Vec::with_capacity(n * c * oh * ow);
            for ni in 0..n {
                for ci in 0..c {
                    for y in 0..oh {
                        for xo in 0..ow {
                            let mut best = f32::NEG_INFINITY;
                            let mut best_idx = ((ni * c + ci) * h + y * self.stride) * w + xo * self.stride;
                            for kh in 0..self.k {
                                for kw in 0..self.k {
                                    let iy = y * self.stride + kh;
                                    let ix = xo * self.stride + kw;
                                    let v = x.at4(ni, ci, iy, ix);
                                    if v > best {
                                        best = v;
                                        best_idx = ((ni * c + ci) * h + iy) * w + ix;
                                    }
                                }
                            }
                            *out.at4_mut(ni, ci, y, xo) = best;
                            argmax.push(best_idx);
                        }
                    }
                }
            }
            self.cache = Some((x.shape().to_vec(), argmax));
            out
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The slice kernel reproduces the oracle's outputs and argmax bit
        /// for bit. Inputs take a few levels, so windows tie and the first
        /// maximum in (kh, kw) order must win.
        #[test]
        fn slice_kernel_matches_the_oracle_bit_for_bit(
            n in 1usize..=2,
            c in 1usize..=3,
            k in 1usize..=5,
            stride in 1usize..=3,
            dh in 0usize..=8,
            dw in 0usize..=8,
            specials in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let (h, w) = (k + dh % (10 - k), k + dw % (10 - k));
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let levels = [-1.0, -0.0, 0.0, 0.5, f32::NEG_INFINITY, f32::NAN, f32::INFINITY];
            let used = if specials { levels.len() } else { 4 };
            let data = (0..n * c * h * w).map(|_| levels[rng.gen_range(0..used)]).collect();
            let x = Tensor::from_vec(data, &[n, c, h, w]);
            let (mut fast, mut oracle) = (MaxPool2d::new(k, stride), MaxPool2d::new(k, stride));
            let y = fast.forward(&x);
            assert_same_bits("output", y.data(), oracle.forward_oracle(&x).data());
            prop_assert_eq!(&fast.cache, &oracle.cache);
        }
    }

    /// A window whose values are all −∞ or NaN keeps its gradient inside its
    /// own sample and channel.
    #[test]
    fn max_pool_all_negative_infinity_window_keeps_its_gradient() {
        let inf = f32::NEG_INFINITY;
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, inf, inf, f32::NAN, inf], &[2, 1, 2, 2]);
        let mut p = MaxPool2d::new(2, 2);
        assert_eq!(p.forward(&x).data(), &[4.0, inf]);
        let g = p.backward(&Tensor::from_vec(vec![10.0, 7.0], &[2, 1, 1, 1]));
        assert_eq!(g.data(), &[0.0, 0.0, 0.0, 10.0, 7.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "MaxPool2d: kernel 3 (stride 2, padding 0) does not fit input size 2")]
    fn max_pool_kernel_larger_than_input_panics() {
        let _ = MaxPool2d::new(3, 2).forward(&Tensor::zeros(&[1, 1, 2, 2]));
    }

    #[test]
    fn max_pool_selects_maxima() {
        let mut p = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0],
            &[1, 1, 4, 4],
        );
        let y = p.forward(&x);
        assert_eq!(y.data(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn max_pool_backward_routes_to_argmax() {
        let mut p = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let _ = p.forward(&x);
        let g = p.backward(&Tensor::from_vec(vec![5.0], &[1, 1, 1, 1]));
        assert_eq!(g.data(), &[0.0, 0.0, 0.0, 5.0]);
    }

    #[test]
    fn max_pool_gradient_check() {
        let mut rng_data: Vec<f32> = (0..16).map(|i| ((i * 7 + 3) % 13) as f32).collect();
        rng_data[5] += 0.5; // break ties
        let x = Tensor::from_vec(rng_data, &[1, 1, 4, 4]);
        let mut p = MaxPool2d::new(2, 2);
        let y = p.forward(&x);
        let grad_in = p.backward(&Tensor::full(y.shape(), 1.0));
        let eps = 1e-2;
        for xi in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[xi] += eps;
            let mut xm = x.clone();
            xm.data_mut()[xi] -= eps;
            let numeric = (MaxPool2d::new(2, 2).forward(&xp).sum() - MaxPool2d::new(2, 2).forward(&xm).sum())
                / (2.0 * eps);
            assert!((numeric - grad_in.data()[xi]).abs() < 1e-3, "input {xi}");
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_kernel_panics() {
        let _ = MaxPool2d::new(0, 2);
    }
}
