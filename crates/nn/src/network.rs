use crate::{Layer, Tensor};

/// A sequential container of layers.
///
/// # Examples
///
/// ```
/// use inca_nn::{layers, Network, Tensor};
///
/// let mut net = Network::new();
/// net.push(layers::Conv2d::new(1, 2, 3, 1, 1, 0));
/// net.push(layers::Relu::new());
/// net.push(layers::Flatten::new());
/// net.push(layers::Linear::new(2 * 4 * 4, 3, 1));
/// let logits = net.forward(&Tensor::zeros(&[2, 1, 4, 4]));
/// assert_eq!(logits.shape(), &[2, 3]);
/// ```
#[derive(Default)]
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("layers", &self.layers.iter().map(|l| l.name()).collect::<Vec<_>>())
            .field("param_count", &self.param_count())
            .finish()
    }
}

impl Network {
    /// Creates an empty network.
    #[must_use]
    pub fn new() -> Self {
        Self { layers: Vec::new() }
    }

    /// Appends a layer.
    pub fn push<L: Layer + 'static>(&mut self, layer: L) {
        self.layers.push(Box::new(layer));
    }

    /// Number of layers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the network has no layers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Total trainable parameter count.
    #[must_use]
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Mutable iterator over the layers (used by optimizers).
    pub fn layers_mut(&mut self) -> impl Iterator<Item = &mut Box<dyn Layer>> {
        self.layers.iter_mut()
    }

    /// Runs a forward pass through all layers.
    #[must_use]
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        self.forward_with(x, &mut |_, t| t)
    }

    /// Forward pass with a per-layer output hook: `hook(layer_index, out)`
    /// may transform each layer's output (activation noise injection or
    /// fake quantization).
    pub(crate) fn forward_with(
        &mut self,
        x: &Tensor,
        hook: &mut dyn FnMut(usize, Tensor) -> Tensor,
    ) -> Tensor {
        let mut cur = x.clone();
        for (i, layer) in self.layers.iter_mut().enumerate() {
            cur = hook(i, layer.forward(&cur));
        }
        cur
    }

    /// Runs a backward pass from the loss gradient; returns the gradient at
    /// the network input.
    #[must_use]
    pub fn backward(&mut self, grad: &Tensor) -> Tensor {
        let mut cur = grad.clone();
        for layer in self.layers.iter_mut().rev() {
            cur = layer.backward(&cur);
        }
        cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers;

    impl Network {
        /// Applies `f` to every trainable weight in every layer.
        pub(crate) fn map_weights(&mut self, f: &mut dyn FnMut(f32) -> f32) {
            for layer in &mut self.layers {
                layer.map_weights(f);
            }
        }
    }

    fn tiny_net() -> Network {
        let mut net = Network::new();
        net.push(layers::Linear::new(2, 2, 0));
        net.push(layers::Relu::new());
        net.push(layers::Linear::new(2, 1, 1));
        net
    }

    #[test]
    fn forward_shapes_flow() {
        let mut net = tiny_net();
        let y = net.forward(&Tensor::zeros(&[3, 2]));
        assert_eq!(y.shape(), &[3, 1]);
        assert_eq!(net.len(), 3);
    }

    #[test]
    fn backward_returns_input_gradient() {
        let mut net = tiny_net();
        let _ = net.forward(&Tensor::from_vec(vec![1.0, -1.0], &[1, 2]));
        let g = net.backward(&Tensor::from_vec(vec![1.0], &[1, 1]));
        assert_eq!(g.shape(), &[1, 2]);
    }

    #[test]
    fn param_count_sums_layers() {
        let net = tiny_net();
        assert_eq!(net.param_count(), (2 * 2 + 2) + (2 + 1));
    }

    #[test]
    fn forward_hook_sees_every_layer() {
        let mut net = tiny_net();
        let mut seen = Vec::new();
        let _ = net.forward_with(&Tensor::zeros(&[1, 2]), &mut |i, t| {
            seen.push(i);
            t
        });
        assert_eq!(seen, vec![0, 1, 2]);
    }

    #[test]
    fn map_weights_visits_all_params() {
        let mut net = tiny_net();
        let mut count = 0usize;
        net.map_weights(&mut |w| {
            count += 1;
            w
        });
        // Only weights, not biases: 4 + 2.
        assert_eq!(count, 6);
    }

    #[test]
    fn debug_names_layers() {
        let net = tiny_net();
        let s = format!("{net:?}");
        assert!(s.contains("linear") && s.contains("relu"));
    }
}
