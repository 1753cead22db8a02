#![allow(clippy::needless_range_loop)] // loops index several arrays with one shared variable
use serde::{Deserialize, Serialize};

use crate::Tensor;

/// Loss functions supported by the trainer.
///
/// The paper describes INCA "based on the max-pooling, ReLU activation, and
/// L² loss function" (§II-B2); softmax cross-entropy is provided as the
/// practical classification loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Loss {
    /// Mean squared error against a one-hot target: `Σ (y - t)² / N`.
    /// The last-layer error is `δ_L = y_pred - y_target` (Eq. 3 with the
    /// sign convention of gradient descent).
    L2,
    /// Softmax followed by cross-entropy against a class index.
    CrossEntropy,
    /// Mean absolute error against a one-hot target (the paper's L¹
    /// option).
    L1,
}

impl Loss {
    /// Computes the scalar loss and the gradient w.r.t. the logits for a
    /// batch. `logits` has shape `[N, classes]`; `targets` holds one class
    /// index per sample.
    ///
    /// # Panics
    ///
    /// Panics if `targets.len()` differs from the batch size or any target
    /// is out of range.
    #[must_use]
    pub fn evaluate(&self, logits: &Tensor, targets: &[usize]) -> (f32, Tensor) {
        assert_eq!(logits.shape().len(), 2, "loss expects [batch, classes] logits");
        let n = logits.shape()[0];
        let classes = logits.shape()[1];
        assert_eq!(targets.len(), n, "one target per sample required");
        assert!(targets.iter().all(|&t| t < classes), "target class out of range");

        let mut grad = Tensor::zeros(&[n, classes]);
        let mut total = 0.0f32;
        match self {
            Loss::L2 => {
                for (ni, &t) in targets.iter().enumerate() {
                    for c in 0..classes {
                        let y = logits.data()[ni * classes + c];
                        let target = if c == t { 1.0 } else { 0.0 };
                        let d = y - target;
                        total += d * d;
                        grad.data_mut()[ni * classes + c] = 2.0 * d / n as f32;
                    }
                }
                total /= n as f32;
            }
            Loss::L1 => {
                for (ni, &t) in targets.iter().enumerate() {
                    for c in 0..classes {
                        let y = logits.data()[ni * classes + c];
                        let target = if c == t { 1.0 } else { 0.0 };
                        let d = y - target;
                        total += d.abs();
                        grad.data_mut()[ni * classes + c] = d.signum() / n as f32;
                    }
                }
                total /= n as f32;
            }
            Loss::CrossEntropy => {
                for (ni, &t) in targets.iter().enumerate() {
                    let row = &logits.data()[ni * classes..(ni + 1) * classes];
                    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                    let exps: Vec<f32> = row.iter().map(|&v| (v - max).exp()).collect();
                    let z: f32 = exps.iter().sum();
                    let p_t = exps[t] / z;
                    total += -(p_t.max(1e-12)).ln();
                    for c in 0..classes {
                        let p = exps[c] / z;
                        grad.data_mut()[ni * classes + c] = (p - if c == t { 1.0 } else { 0.0 }) / n as f32;
                    }
                }
                total /= n as f32;
            }
        }
        (total, grad)
    }

    /// Classification accuracy of `logits` against `targets`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    #[must_use]
    pub(crate) fn accuracy(logits: &Tensor, targets: &[usize]) -> f32 {
        let n = logits.shape()[0];
        let classes = logits.shape()[1];
        assert_eq!(targets.len(), n);
        let correct = targets
            .iter()
            .enumerate()
            .filter(|&(ni, &t)| {
                let row = &logits.data()[ni * classes..(ni + 1) * classes];
                let pred = row
                    .iter()
                    .enumerate()
                    .fold(
                        (0usize, f32::NEG_INFINITY),
                        |(bi, bv), (i, &v)| if v > bv { (i, v) } else { (bi, bv) },
                    )
                    .0;
                pred == t
            })
            .count();
        correct as f32 / n as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_loss_and_gradient() {
        let logits = Tensor::from_vec(vec![1.0, 0.0], &[1, 2]);
        let (loss, grad) = Loss::L2.evaluate(&logits, &[0]);
        // Perfect prediction: loss 0, gradient 0.
        assert_eq!(loss, 0.0);
        assert_eq!(grad.data(), &[0.0, 0.0]);

        let (loss2, grad2) = Loss::L2.evaluate(&logits, &[1]);
        // y=(1,0), t=(0,1): loss = 1+1 = 2; grad = 2(y - t).
        assert_eq!(loss2, 2.0);
        assert_eq!(grad2.data(), &[2.0, -2.0]);
    }

    #[test]
    fn cross_entropy_gradient_is_softmax_minus_onehot() {
        let logits = Tensor::from_vec(vec![0.0, 0.0], &[1, 2]);
        let (loss, grad) = Loss::CrossEntropy.evaluate(&logits, &[0]);
        assert!((loss - (2.0f32).ln()).abs() < 1e-6);
        assert!((grad.data()[0] - (0.5 - 1.0)).abs() < 1e-6);
        assert!((grad.data()[1] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn cross_entropy_numeric_gradient_check() {
        let logits = Tensor::from_vec(vec![0.3, -0.7, 1.2], &[1, 3]);
        let (_, grad) = Loss::CrossEntropy.evaluate(&logits, &[2]);
        let eps = 1e-3;
        for i in 0..3 {
            let mut p = logits.clone();
            p.data_mut()[i] += eps;
            let mut m = logits.clone();
            m.data_mut()[i] -= eps;
            let (lp, _) = Loss::CrossEntropy.evaluate(&p, &[2]);
            let (lm, _) = Loss::CrossEntropy.evaluate(&m, &[2]);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!((numeric - grad.data()[i]).abs() < 1e-3, "logit {i}");
        }
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let logits = Tensor::from_vec(vec![1000.0, 0.0], &[1, 2]);
        let (loss, grad) = Loss::CrossEntropy.evaluate(&logits, &[0]);
        assert!(loss.is_finite());
        assert!(grad.data().iter().all(|g| g.is_finite()));
    }

    #[test]
    fn accuracy_counts_argmax_matches() {
        let logits = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 0.0], &[3, 2]);
        assert!((Loss::accuracy(&logits, &[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn l1_loss_and_gradient() {
        let logits = Tensor::from_vec(vec![0.5, 0.25], &[1, 2]);
        let (loss, grad) = Loss::L1.evaluate(&logits, &[0]);
        // |0.5-1| + |0.25-0| = 0.75
        assert!((loss - 0.75).abs() < 1e-6);
        assert_eq!(grad.data(), &[-1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_target_panics() {
        let logits = Tensor::zeros(&[1, 2]);
        let _ = Loss::L2.evaluate(&logits, &[2]);
    }
}
