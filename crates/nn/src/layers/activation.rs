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
    fn forward(&mut self, x: &Tensor) -> Tensor {
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

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self.mask.as_ref().expect("backward before forward"); // documented Layer contract. lint: allow(panic-path)
        assert_eq!(grad_out.len(), mask.len(), "gradient element count mismatch");
        let mut g = grad_out.clone();
        for (v, &alive) in g.data_mut().iter_mut().zip(mask) {
            if !alive {
                *v = 0.0; // the AND gate
            }
        }
        g
    }

    fn name(&self) -> &'static str {
        "relu"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clamps_negatives() {
        let mut r = Relu::new();
        let y = r.forward(&Tensor::from_vec(vec![-2.0, 0.0, 3.0], &[3]));
        assert_eq!(y.data(), &[0.0, 0.0, 3.0]);
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
