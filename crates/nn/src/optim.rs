use serde::{Deserialize, Serialize};

use crate::Network;

/// The vanilla gradient-descent optimizer.
///
/// The paper assumes "the vanilla gradient descent optimizer, which is more
/// hardware-friendly than other optimizers" (§II-B3): the update is exactly
/// Eq. 4, `W ← W − η · δ * X`, with no momentum or adaptive state.
///
/// # Examples
///
/// ```
/// use inca_nn::{layers, Network, Sgd, Tensor};
/// use inca_nn::Layer as _;
///
/// let mut net = Network::new();
/// net.push(layers::Linear::new(2, 1, 0));
/// let _ = net.forward(&Tensor::zeros(&[1, 2]));
/// let _ = net.backward(&Tensor::zeros(&[1, 1]));
/// Sgd::new(0.1).step(&mut net);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sgd {
    /// Learning rate η.
    pub lr: f32,
}

impl Sgd {
    /// Creates the optimizer with learning rate η.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive.
    #[must_use]
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self { lr }
    }

    /// Applies one update to every layer of the network and clears all
    /// gradients.
    pub fn step(&self, net: &mut Network) {
        for layer in net.layers_mut() {
            layer.sgd_step(self.lr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{layers, Tensor};

    #[test]
    fn step_updates_and_zeroes() {
        let mut net = Network::new();
        net.push(layers::Linear::new(1, 1, 0));
        let x = Tensor::from_vec(vec![1.0], &[1, 1]);
        let y = net.forward(&x);
        let before = y.data()[0];
        // dL/dy = 1 => w -= lr * x = lr; b -= lr.
        let _ = net.backward(&Tensor::from_vec(vec![1.0], &[1, 1]));
        Sgd::new(0.5).step(&mut net);
        let after = net.forward(&x).data()[0];
        assert!((before - after - 1.0).abs() < 1e-5); // w and b each moved 0.5
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_lr_panics() {
        let _ = Sgd::new(0.0);
    }
}
