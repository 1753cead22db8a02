use serde::{Deserialize, Serialize};

/// Models the nonlinearity and asymmetry of incremental RRAM conductance
/// updates.
///
/// Real devices do not move linearly between conductance states: SET
/// (potentiation) and RESET (depression) follow saturating exponentials with
/// different curvature (the *asymmetry* the paper lists among the nonideal
/// properties, §III-A Limitation 4). This model follows the standard
/// NeuroSim formulation:
///
/// ```text
/// SET:   g(p) = (1 - exp(-p / A_p)) / (1 - exp(-1 / A_p))
/// RESET: g(p) = 1 - (1 - exp(-(1 - p) / A_d)) / (1 - exp(-1 / A_d))
/// ```
///
/// where `p ∈ [0, 1]` is the normalized pulse position and `A` the
/// nonlinearity coefficient. `A → ∞` recovers a linear device.
///
/// # Examples
///
/// ```
/// use inca_device::ProgrammingModel;
///
/// let ideal = ProgrammingModel::linear();
/// assert!((ideal.set_curve(0.5) - 0.5).abs() < 1e-6);
///
/// let real = ProgrammingModel::new(0.4, 0.7);
/// // A nonlinear SET curve overshoots the linear ramp early on.
/// assert!(real.set_curve(0.3) > 0.3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProgrammingModel {
    /// Potentiation (SET) nonlinearity coefficient; smaller = more nonlinear.
    pub a_potentiation: f64,
    /// Depression (RESET) nonlinearity coefficient.
    pub a_depression: f64,
}

impl ProgrammingModel {
    /// Creates a model with the given potentiation/depression coefficients.
    ///
    /// # Panics
    ///
    /// Panics if either coefficient is not positive.
    #[must_use]
    pub fn new(a_potentiation: f64, a_depression: f64) -> Self {
        assert!(a_potentiation > 0.0 && a_depression > 0.0, "coefficients must be positive");
        Self { a_potentiation, a_depression }
    }

    /// An ideal linear device (no nonlinearity, no asymmetry).
    #[must_use]
    pub fn linear() -> Self {
        // Large coefficients make the exponential curves indistinguishable
        // from a straight line at f64 precision.
        Self { a_potentiation: 1e6, a_depression: 1e6 }
    }

    /// Normalized conductance reached after driving the SET curve to pulse
    /// position `p ∈ [0, 1]`.
    #[must_use]
    pub fn set_curve(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        let a = self.a_potentiation;
        if a > 1e4 {
            return p;
        }
        (1.0 - (-p / a).exp()) / (1.0 - (-1.0 / a).exp())
    }
}

impl Default for ProgrammingModel {
    fn default() -> Self {
        Self::linear()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_model_is_identity() {
        let m = ProgrammingModel::linear();
        for p in [0.0, 0.25, 0.5, 0.75, 1.0] {
            assert!((m.set_curve(p) - p).abs() < 1e-6);
        }
    }

    #[test]
    fn curves_hit_endpoints() {
        let m = ProgrammingModel::new(0.4, 0.6);
        assert!((m.set_curve(0.0)).abs() < 1e-9);
        assert!((m.set_curve(1.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn set_curve_is_monotonic() {
        let m = ProgrammingModel::new(0.4, 0.6);
        let mut prev = -1.0;
        for i in 0..=100 {
            let g = m.set_curve(f64::from(i) / 100.0);
            assert!(g >= prev, "not monotonic at {i}");
            prev = g;
        }
    }

    #[test]
    fn nonlinear_set_overshoots_linear_ramp() {
        let m = ProgrammingModel::new(0.4, 0.6);
        assert!(m.set_curve(0.3) > 0.3);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn new_rejects_nonpositive_coefficients() {
        let _ = ProgrammingModel::new(0.0, 1.0);
    }
}
