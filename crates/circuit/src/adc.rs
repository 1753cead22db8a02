use inca_units::{Energy, Frequency, Time};
use serde::{Deserialize, Serialize};

use crate::{CircuitError, Result};

/// A successive-approximation ADC model.
///
/// The paper's central ADC observation (§III-A Limitation 3, §V-B1): ADC
/// cost grows *super-linearly* with precision — "four 4-bit ADCs at 2.1 GHz
/// can replace one 8-bit at 1.2 GHz", and consequently "one 8-bit ADC
/// consumes energy as much as four 4-bit ADCs, not two". We model
/// energy-per-conversion as
///
/// ```text
/// E(b) = E_unit · 2^(b/2)
/// ```
///
/// which yields exactly `E(8)/E(4) = 2^2 = 4`, and sample rate as linearly
/// interpolated between the two published design points (4-bit @ 2.1 GHz,
/// 8-bit @ 1.2 GHz). Area follows the same `2^(b/2)` law, anchored so the
/// full-chip ADC area reproduces Table V.
///
/// # Examples
///
/// ```
/// use inca_circuit::AdcSpec;
///
/// let adc = AdcSpec::new(4)?;
/// // Above 2 GS/s: one conversion takes under half a nanosecond.
/// assert!(adc.conversion_latency_s().seconds() < 0.5e-9);
/// # Ok::<(), inca_circuit::CircuitError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdcSpec {
    bits: u8,
    /// Energy scale constant: energy of a hypothetical 0-bit conversion.
    /// Calibrated so a 8-bit conversion costs ~2 pJ (ISAAC-class SAR ADC
    /// at 22 nm).
    energy_unit_j: Energy,
    /// Area scale constant in µm², anchored to Table V:
    /// 8-bit ADC = 1878.6 µm², 4-bit = 284.4 µm² (see `area_um2` docs).
    area_unit_um2: f64,
}

/// Per-bit geometric growth of ADC area, fit to the two Table V anchors:
/// `(1878.6 / 284.4)^(1/4) ≈ 1.604`.
const AREA_GROWTH_PER_BIT: f64 = 1.604;

impl AdcSpec {
    /// Default energy unit: `E(8) = 0.2 pJ ⇒ E_unit = 0.2 pJ / 2^4 =
    /// 0.0125 pJ`. NeuroSim-class effective per-conversion energy after
    /// amortizing the SAR ADC across its 1.2 GS/s pipeline.
    const ENERGY_UNIT_J: Energy = Energy::from_joules(0.0125e-12);

    /// Creates an ADC of the given bit precision.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidParams`] if `bits` is zero or above 16.
    pub fn new(bits: u8) -> Result<Self> {
        if bits == 0 || bits > 16 {
            return Err(CircuitError::InvalidParams(format!("unsupported ADC precision: {bits} bits")));
        }
        Ok(Self::with_bits(bits))
    }

    /// An ADC of `bits` precision, which the caller has range-checked.
    fn with_bits(bits: u8) -> Self {
        Self { bits, energy_unit_j: Self::ENERGY_UNIT_J, area_unit_um2: 43.05 }
    }

    /// INCA's 4-bit ADC (Table II).
    #[must_use]
    pub fn inca_default() -> Self {
        Self::with_bits(4)
    }

    /// The WS baseline's 8-bit ADC (Table II).
    #[must_use]
    pub fn baseline_default() -> Self {
        Self::with_bits(8)
    }

    /// Bit precision of the converter.
    #[must_use]
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Energy of a single conversion: `E_unit · 2^(b/2)`.
    #[must_use]
    pub fn energy_per_conversion_j(&self) -> Energy {
        self.energy_unit_j * 2f64.powf(f64::from(self.bits) / 2.0)
    }

    /// Sample rate in hertz, linearly interpolated/extrapolated between the
    /// paper's published points (4-bit ⇒ 2.1 GHz, 8-bit ⇒ 1.2 GHz) and
    /// clamped to a 100 MHz floor.
    #[must_use]
    pub(crate) fn sample_rate_hz(&self) -> Frequency {
        let rate = 2.1e9 + (f64::from(self.bits) - 4.0) * (1.2e9 - 2.1e9) / 4.0;
        Frequency::from_hz(rate.max(100e6))
    }

    /// Latency of a single conversion.
    #[must_use]
    pub fn conversion_latency_s(&self) -> Time {
        self.sample_rate_hz().period()
    }

    /// Layout area in µm², following a per-bit geometric law fit to the two
    /// Table V anchors.
    ///
    /// Anchored so that the 16 128 converters of the baseline chip
    /// (168 tiles × 12 macros × 8 arrays) occupy 30.298 mm² at 8-bit and
    /// 4.586 mm² at 4-bit — the Table V rows.
    #[must_use]
    pub fn area_um2(&self) -> f64 {
        self.area_unit_um2 * AREA_GROWTH_PER_BIT.powi(i32::from(self.bits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_bit_costs_four_times_four_bit() {
        let e4 = AdcSpec::inca_default().energy_per_conversion_j();
        let e8 = AdcSpec::baseline_default().energy_per_conversion_j();
        assert!((e8 / e4 - 4.0).abs() < 1e-12);
    }

    #[test]
    fn sample_rates_match_paper_points() {
        assert!((AdcSpec::inca_default().sample_rate_hz().hertz() - 2.1e9).abs() < 1.0);
        assert!((AdcSpec::baseline_default().sample_rate_hz().hertz() - 1.2e9).abs() < 1.0);
    }

    #[test]
    fn four_fast_4bit_replace_one_slow_8bit_in_throughput() {
        // 4 × 2.1 GHz of 4-bit samples deliver more bits/s than 1 × 1.2 GHz
        // of 8-bit samples — the paper's replacement claim.
        let bits_4 = 4.0 * 2.1e9 * 4.0;
        let bits_8 = 1.2e9 * 8.0;
        assert!(bits_4 > bits_8);
    }

    #[test]
    fn area_reproduces_table_v_totals() {
        let n = 168.0 * 12.0 * 8.0; // converters per chip
        let baseline_mm2 = n * AdcSpec::baseline_default().area_um2() * 1e-6;
        let inca_mm2 = n * AdcSpec::inca_default().area_um2() * 1e-6;
        assert!((baseline_mm2 - 30.298).abs() < 0.35, "baseline={baseline_mm2}");
        assert!((inca_mm2 - 4.5864).abs() < 0.2, "inca={inca_mm2}");
    }

    #[test]
    fn invalid_precisions_rejected() {
        assert!(AdcSpec::new(0).is_err());
        assert!(AdcSpec::new(17).is_err());
        assert!(AdcSpec::new(1).is_ok());
        assert!(AdcSpec::new(16).is_ok());
    }

    #[test]
    fn latency_is_reciprocal_rate() {
        let adc = AdcSpec::inca_default();
        assert!((adc.conversion_latency_s().seconds() * adc.sample_rate_hz().hertz() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rate_floor_for_very_high_precision() {
        let adc = AdcSpec::new(16).unwrap();
        assert_eq!(adc.sample_rate_hz(), Frequency::from_hz(100e6));
    }
}
