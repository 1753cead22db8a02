use serde::{Deserialize, Serialize};

use crate::constants;

/// Technology-node scaling rules.
///
/// The paper lays out the 2T1R cell in TSMC 65 nm, then scales the circuit
/// results "according to the rules of scaling to match the technology node
/// selected in the accelerator simulation" (§V-A) — 22 nm with a linear
/// scale factor of 0.34 (Table II, `constants::TECH_SCALE_FACTOR_65_TO_22`).
///
/// Classic (Dennard-flavoured) rules with linear factor `s < 1`:
///
/// * area scales with `s²`,
/// * delay scales with `s`,
/// * dynamic energy scales with `s³` (capacitance × V² at constant field).
///
/// The `scale_*_raw` methods take plain numbers in any unit (e.g. cell
/// layouts in µm²).
///
/// # Examples
///
/// ```
/// use inca_circuit::TechScaling;
///
/// let s = TechScaling::paper_default(); // 65 nm -> 22 nm, factor 0.34
/// assert!((s.scale_area_raw(100.0) - 100.0 * 0.34 * 0.34).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TechScaling {
    factor: f64,
}

impl TechScaling {
    /// The paper's 65 nm → 22 nm scaling with factor 0.34.
    #[must_use]
    pub fn paper_default() -> Self {
        Self { factor: constants::TECH_SCALE_FACTOR_65_TO_22 }
    }

    /// Scales a raw area value in any squared-length unit (e.g. µm² cell
    /// layouts that never enter the mm²-typed area model directly).
    #[must_use]
    pub fn scale_area_raw(&self, area: f64) -> f64 {
        area * self.factor * self.factor
    }
}

impl Default for TechScaling {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CircuitError, Result};
    use proptest::prelude::*;

    impl TechScaling {
        /// A scaling between two nodes with an explicit linear factor; the
        /// nodes are checked, not kept.
        fn new(from_nm: f64, to_nm: f64, factor: f64) -> Result<Self> {
            if from_nm <= 0.0 || to_nm <= 0.0 || factor <= 0.0 {
                return Err(CircuitError::InvalidParams("nodes and factor must be positive".into()));
            }
            Ok(Self { factor })
        }

        /// Scales a raw delay value.
        fn scale_delay_raw(&self, delay: f64) -> f64 {
            delay * self.factor
        }

        /// Scales a raw dynamic-energy value.
        fn scale_energy_raw(&self, energy: f64) -> f64 {
            energy * self.factor.powi(3)
        }
    }

    proptest! {
        /// Technology scaling laws are multiplicative and ordered:
        /// energy shrinks faster than area, area faster than delay.
        #[test]
        fn scaling_law_ordering(factor in 0.05f64..0.95) {
            let s = TechScaling::new(65.0, 22.0, factor).unwrap();
            prop_assert!(s.scale_energy_raw(1.0) <= s.scale_area_raw(1.0) + 1e-12);
            prop_assert!(s.scale_area_raw(1.0) <= s.scale_delay_raw(1.0) + 1e-12);
            // Composition: scaling a scaled area equals scaling by the square.
            let twice = s.scale_area_raw(s.scale_area_raw(1.0));
            prop_assert!((twice - factor.powi(4)).abs() < 1e-12);
        }
    }

    #[test]
    fn paper_factor() {
        assert_eq!(TechScaling::paper_default().factor, 0.34);
    }

    #[test]
    fn scaling_laws() {
        let s = TechScaling::paper_default();
        assert!((s.scale_area_raw(1.0) - 0.1156).abs() < 1e-9);
        assert!((s.scale_delay_raw(1.0) - 0.34).abs() < 1e-12);
        assert!((s.scale_energy_raw(1.0) - 0.039304).abs() < 1e-9);
    }

    #[test]
    fn baseline_cell_scaling_matches_paper() {
        // 540 × 485 nm = 0.26 µm² at 65 nm → 0.030 µm² at 22 nm (§V-B6).
        let s = TechScaling::paper_default();
        let scaled = s.scale_area_raw(0.540 * 0.485);
        assert!((scaled - 0.030).abs() < 0.001, "got {scaled}");
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(TechScaling::new(0.0, 22.0, 0.34).is_err());
        assert!(TechScaling::new(65.0, 22.0, 0.0).is_err());
    }
}
