use inca_device::NoiseModel;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::tensor::max_abs;
use crate::{Network, Tensor};

/// Where the RRAM nonideality noise enters the computation.
///
/// This encodes the paper's Table VI experiment: "the noise was directly
/// added to activations or weights during the training process".
///
/// * [`NoiseTarget::Weights`] models the **WS** accelerator, where weights
///   live in RRAM: every programming step lands the weight at a perturbed
///   value, so the perturbation is *persistent* and compounds over training.
/// * [`NoiseTarget::Activations`] models **INCA**, where activations live in
///   RRAM: each forward read is perturbed, but the perturbation is
///   *transient* — fresh activations are written every pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NoiseTarget {
    /// No noise (the GPU/floating-point reference).
    None,
    /// Noise on stored weights (weight-stationary RRAM).
    Weights,
    /// Noise on stored activations (input-stationary RRAM).
    Activations,
}

/// The Table VI noise-injection protocol.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoiseInjection {
    /// Where the noise enters.
    pub target: NoiseTarget,
    /// The zero-centered Gaussian model.
    pub model: NoiseModel,
}

impl NoiseInjection {
    /// No noise.
    #[must_use]
    pub fn none() -> Self {
        Self { target: NoiseTarget::None, model: NoiseModel::none() }
    }

    /// Relative weight noise of strength σ.
    #[must_use]
    pub fn weights(sigma: f64) -> Self {
        Self { target: NoiseTarget::Weights, model: NoiseModel::relative(sigma) }
    }

    /// Relative activation noise of strength σ.
    #[must_use]
    pub fn activations(sigma: f64) -> Self {
        Self { target: NoiseTarget::Activations, model: NoiseModel::relative(sigma) }
    }

    /// Applies the post-update programming noise to the network weights
    /// (no-op unless the target is `Weights`). Called after every optimizer
    /// step, modelling the imperfect RRAM write.
    ///
    /// Following the NeuroSim/Yu convention the paper adopts, σ is a
    /// fraction of the **full conductance range**, so the perturbation of a
    /// layer's weight is `σ · max|w| · N(0, 1)` — small weights suffer large
    /// *relative* corruption, which is precisely why WS training collapses
    /// at σ = 5 % (Table VI).
    pub(crate) fn perturb_weights(&self, net: &mut Network, rng: &mut StdRng) {
        if self.target != NoiseTarget::Weights || !self.model.is_noisy() {
            return;
        }
        let sigma = self.model.sigma;
        for layer in net.layers_mut() {
            // First pass: the layer's full-scale weight magnitude.
            let mut scale = 0.0f32;
            layer.map_weights(&mut |w| {
                scale = scale.max(w.abs());
                w
            });
            if scale == 0.0 {
                continue;
            }
            let abs = NoiseModel::absolute(sigma * f64::from(scale));
            layer.map_weights(&mut |w| abs.apply(f64::from(w), rng) as f32);
        }
    }

    /// Applies the transient read noise to a layer activation (no-op unless
    /// the target is `Activations`). Called on every layer output during the
    /// forward pass; uses the same range-relative convention as
    /// `NoiseInjection::perturb_weights` for an apples-to-apples Table VI.
    #[must_use]
    pub fn perturb_activation(&self, mut t: Tensor, rng: &mut StdRng) -> Tensor {
        if self.target != NoiseTarget::Activations || !self.model.is_noisy() {
            return t;
        }
        let scale = max_abs(t.data());
        if scale == 0.0 {
            return t;
        }
        let abs = NoiseModel::absolute(self.model.sigma * f64::from(scale));
        abs.apply_slice(t.data_mut(), rng);
        t
    }
}

impl Default for NoiseInjection {
    fn default() -> Self {
        Self::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers;
    use rand::SeedableRng;

    #[test]
    fn none_is_identity() {
        let mut rng = StdRng::seed_from_u64(0);
        let inj = NoiseInjection::none();
        let t = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        assert_eq!(inj.perturb_activation(t.clone(), &mut rng), t);
    }

    #[test]
    fn weight_noise_changes_weights_persistently() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = Network::new();
        net.push(layers::Linear::new(4, 4, 0));
        let mut before = Vec::new();
        net.map_weights(&mut |w| {
            before.push(w);
            w
        });
        NoiseInjection::weights(0.05).perturb_weights(&mut net, &mut rng);
        let mut after = Vec::new();
        net.map_weights(&mut |w| {
            after.push(w);
            w
        });
        assert!(before.iter().zip(&after).any(|(b, a)| (b - a).abs() > 1e-7));
    }

    #[test]
    fn activation_noise_does_not_touch_weights() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = Network::new();
        net.push(layers::Linear::new(2, 2, 0));
        let mut before = Vec::new();
        net.map_weights(&mut |w| {
            before.push(w);
            w
        });
        NoiseInjection::activations(0.05).perturb_weights(&mut net, &mut rng);
        let mut after = Vec::new();
        net.map_weights(&mut |w| {
            after.push(w);
            w
        });
        assert_eq!(before, after);
    }

    #[test]
    fn activation_noise_perturbs_tensor() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = Tensor::full(&[16], 1.0);
        let noisy = NoiseInjection::activations(0.05).perturb_activation(t, &mut rng);
        assert!(noisy.data().iter().any(|&x| (x - 1.0).abs() > 1e-6));
    }
}
