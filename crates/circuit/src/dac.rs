use inca_units::Energy;
use serde::{Deserialize, Serialize};

/// A digital-to-analog converter (input driver) model.
///
/// Both architectures use 1-bit DACs (Table II) — inputs are streamed
/// bit-serially, so the "DAC" is a level driver. The baseline drives
/// 128 rows per array; INCA drives 256 pillars per 3D stack (16 × 16).
///
/// # Examples
///
/// ```
/// use inca_circuit::DacSpec;
///
/// let dac = DacSpec::one_bit();
/// assert_eq!(dac.bits(), 1);
/// assert!(dac.energy_per_conversion_j() > inca_units::Energy::ZERO);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DacSpec {
    bits: u8,
    energy_unit_j: Energy,
    area_unit_um2: f64,
}

impl DacSpec {
    /// The 1-bit driver used by both INCA and the baseline.
    #[must_use]
    pub fn one_bit() -> Self {
        Self::with_bits(1)
    }

    /// A DAC of `bits` precision, which the caller has range-checked.
    fn with_bits(bits: u8) -> Self {
        // Anchors: 1-bit driver ≈ 2 fJ per switch (heavily shared line
        // drivers; NeuroSim-class effective value), area anchored to
        // Table V: 16128 × 128 one-bit DACs = 0.343 mm² ⇒ 0.166 µm² per
        // driver.
        Self { bits, energy_unit_j: Energy::from_joules(0.002e-12), area_unit_um2: 0.166 }
    }

    /// Bit precision.
    #[must_use]
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Energy per conversion (`E_unit · 2^(b-1)` — a binary-weighted
    /// driver ladder).
    #[must_use]
    pub fn energy_per_conversion_j(&self) -> Energy {
        self.energy_unit_j * 2f64.powi(i32::from(self.bits) - 1)
    }

    /// Layout area in µm².
    #[must_use]
    pub fn area_um2(&self) -> f64 {
        self.area_unit_um2 * 2f64.powi(i32::from(self.bits) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CircuitError;

    impl DacSpec {
        /// A DAC of the given precision; errors when `bits` is zero or
        /// above 16.
        fn new(bits: u8) -> crate::Result<Self> {
            if bits == 0 || bits > 16 {
                return Err(CircuitError::InvalidParams(format!("unsupported DAC precision: {bits} bits")));
            }
            Ok(Self::with_bits(bits))
        }
    }

    #[test]
    fn one_bit_driver_area_reproduces_table_v() {
        // Baseline: 168 × 12 × 8 arrays × 128 drivers = 0.343 mm².
        let n = 168.0 * 12.0 * 8.0 * 128.0;
        let mm2 = n * DacSpec::one_bit().area_um2() * 1e-6;
        assert!((mm2 - 0.343).abs() < 0.01, "got {mm2}");
        // INCA: 256 drivers per stack ⇒ exactly double = 0.686 mm².
        let inca = n * 2.0 * DacSpec::one_bit().area_um2() * 1e-6;
        assert!((inca - 0.686).abs() < 0.02, "got {inca}");
    }

    #[test]
    fn energy_scales_binary_weighted() {
        let d1 = DacSpec::new(1).unwrap();
        let d3 = DacSpec::new(3).unwrap();
        assert!((d3.energy_per_conversion_j() / d1.energy_per_conversion_j() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_precisions_rejected() {
        assert!(DacSpec::new(0).is_err());
        assert!(DacSpec::new(17).is_err());
    }
}
