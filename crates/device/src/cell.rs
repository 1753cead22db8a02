use serde::{Deserialize, Serialize};

use crate::{DeviceError, DeviceParams, Result};

/// A single RRAM cell with a programmable conductance.
///
/// The cell stores a *normalized* conductance `g_norm ∈ [0, 1]` where `0`
/// maps to `g_off = 1/R_off` and `1` maps to `g_on = 1/R_on`. INCA uses
/// 1-bit cells (Table II, "Cell Prec. 1-bit"); multi-level encodings are
/// supported for the baseline studies.
///
/// # Examples
///
/// ```
/// use inca_device::{DeviceParams, RramCell};
///
/// let p = DeviceParams::default();
/// let mut cell = RramCell::off(&p);
/// cell.program_level(1, 1, &p); // logical 1 on a 1-bit cell
/// assert_eq!(cell.read_level(1), 1);
/// // Ohm's law at the read voltage:
/// let i = cell.read_current(p.read_voltage);
/// assert!((i - p.read_voltage / 240e3).abs() / i < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RramCell {
    g_norm: f64,
    g_on: f64,
    g_off: f64,
    writes: u64,
}

impl RramCell {
    /// Creates a cell in the fully-off (high-resistance) state.
    #[must_use]
    pub fn off(params: &DeviceParams) -> Self {
        Self { g_norm: 0.0, g_on: params.g_on(), g_off: params.g_off(), writes: 0 }
    }

    /// Creates a cell holding the given normalized conductance, clamped to
    /// `[0, 1]`.
    #[must_use]
    pub fn with_g_norm(g_norm: f64, params: &DeviceParams) -> Self {
        Self { g_norm: g_norm.clamp(0.0, 1.0), ..Self::off(params) }
    }

    /// The absolute conductance in siemens.
    #[must_use]
    pub fn conductance(&self) -> f64 {
        self.g_off + self.g_norm * (self.g_on - self.g_off)
    }

    /// Number of write pulses this cell has received.
    #[must_use]
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    /// Programs a discrete `level` out of `2^bits` levels.
    ///
    /// Level `0` is fully off, level `2^bits - 1` is fully on, intermediate
    /// levels are spaced uniformly in conductance.
    ///
    /// Returns the previous normalized conductance so callers can account
    /// for asymmetric SET/RESET costs.
    ///
    /// # Panics
    ///
    /// Panics if `level >= 2^bits`; use [`RramCell::try_program_level`] for a
    /// fallible variant.
    pub fn program_level(&mut self, level: u32, bits: u8, params: &DeviceParams) -> f64 {
        // documented panicking wrapper. lint: allow(panic-path)
        self.try_program_level(level, bits, params).expect("level out of range")
    }

    /// Fallible variant of [`RramCell::program_level`].
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::LevelOutOfRange`] when `level >= 2^bits`.
    pub fn try_program_level(&mut self, level: u32, bits: u8, _params: &DeviceParams) -> Result<f64> {
        let levels = 1u64 << bits;
        if u64::from(level) >= levels {
            return Err(DeviceError::LevelOutOfRange { level, bits });
        }
        let prev = self.g_norm;
        self.g_norm = if levels == 1 { 0.0 } else { f64::from(level) / (levels - 1) as f64 };
        self.writes += 1;
        Ok(prev)
    }

    /// Programs an arbitrary normalized conductance (clamped to `[0, 1]`),
    /// counting one write pulse. Returns the previous value.
    pub fn program_g_norm(&mut self, g_norm: f64) -> f64 {
        let prev = self.g_norm;
        self.g_norm = g_norm.clamp(0.0, 1.0);
        self.writes += 1;
        prev
    }

    /// Current through the cell at voltage `v`, per Ohm/Kirchhoff:
    /// `I = V * G`.
    #[must_use]
    pub fn read_current(&self, v: f64) -> f64 {
        v * self.conductance()
    }

    /// Reads back the discrete level assuming a `bits`-bit uniform encoding.
    ///
    /// This is the ideal (noise-free) inverse of [`RramCell::program_level`].
    #[must_use]
    pub fn read_level(&self, bits: u8) -> u32 {
        let levels = 1u64 << bits;
        if levels == 1 {
            return 0;
        }
        let scaled = self.g_norm * (levels - 1) as f64;
        (scaled.round() as u64).min(levels - 1) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> DeviceParams {
        DeviceParams::default()
    }

    #[test]
    fn off_cell_has_off_resistance() {
        let c = RramCell::off(&p());
        assert!((1.0 / c.conductance() - 24e6).abs() < 1.0);
    }

    #[test]
    fn on_cell_has_on_resistance() {
        let c = RramCell::with_g_norm(1.0, &p());
        assert!((1.0 / c.conductance() - 240e3).abs() < 1.0);
    }

    #[test]
    fn one_bit_roundtrip() {
        let params = p();
        let mut c = RramCell::off(&params);
        for level in [0u32, 1, 0, 1, 1] {
            c.program_level(level, 1, &params);
            assert_eq!(c.read_level(1), level);
        }
        assert_eq!(c.write_count(), 5);
    }

    #[test]
    fn multibit_roundtrip() {
        let params = p();
        let mut c = RramCell::off(&params);
        for bits in 1u8..=4 {
            for level in 0..(1u32 << bits) {
                c.program_level(level, bits, &params);
                assert_eq!(c.read_level(bits), level, "bits={bits} level={level}");
            }
        }
    }

    #[test]
    fn program_out_of_range_errors() {
        let params = p();
        let mut c = RramCell::off(&params);
        let err = c.try_program_level(2, 1, &params).unwrap_err();
        assert_eq!(err, DeviceError::LevelOutOfRange { level: 2, bits: 1 });
        // A failed program must not count as a write.
        assert_eq!(c.write_count(), 0);
    }

    #[test]
    fn read_current_obeys_ohms_law() {
        let params = p();
        let c = RramCell::with_g_norm(1.0, &params);
        let i = c.read_current(0.5);
        assert!((i - 0.5 / 240e3).abs() < 1e-12);
    }

    #[test]
    fn program_returns_previous_value() {
        let params = p();
        let mut c = RramCell::off(&params);
        assert_eq!(c.program_g_norm(0.7), 0.0);
        assert!((c.program_g_norm(0.2) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn g_norm_clamped() {
        let params = p();
        let mut c = RramCell::off(&params);
        c.program_g_norm(1.5);
        assert_eq!(c.g_norm, 1.0);
        c.program_g_norm(-0.5);
        assert_eq!(c.g_norm, 0.0);
    }
}
