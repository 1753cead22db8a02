use serde::{Deserialize, Serialize};

use crate::{DeviceError, Result};

/// Electrical and timing parameters of the RRAM device.
///
/// Defaults reproduce the "Circuit" block of Table II in the paper:
///
/// | Parameter | Value |
/// |---|---|
/// | On resistance | 240 kΩ |
/// | Off resistance | 24 MΩ |
/// | Read voltage | 0.5 V |
/// | Write voltage | 1.1 V |
/// | Read pulse width | 10 ns |
/// | Write pulse width | 50 ns |
/// | Off-cell power | 10.42 nW |
/// | On-cell power | 1.03 µW |
///
/// # Examples
///
/// ```
/// use inca_device::DeviceParams;
///
/// let p = DeviceParams::default();
/// assert_eq!(p.r_on_ohm, 240e3);
/// // Energy of reading a fully-on cell for one read pulse:
/// let energy = p.on_cell_power_w * p.read_pulse_s;
/// assert!((energy - 1.03e-14).abs() < 1e-18);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceParams {
    /// Low-resistance ("on") state in ohms.
    pub r_on_ohm: f64,
    /// High-resistance ("off") state in ohms.
    pub r_off_ohm: f64,
    /// Read voltage in volts (must stay below the switching threshold).
    pub read_voltage: f64,
    /// Write voltage in volts (must exceed the switching threshold).
    pub write_voltage: f64,
    /// Switching threshold voltage in volts.
    pub threshold_voltage: f64,
    /// Read pulse width in seconds.
    // lint: allow(raw-unit)
    pub read_pulse_s: f64,
    /// Write pulse width in seconds.
    // lint: allow(raw-unit)
    pub write_pulse_s: f64,
    /// Power drawn by a cell in the off state during a read, in watts.
    pub off_cell_power_w: f64,
    /// Power drawn by a cell in the on state during a read, in watts.
    pub on_cell_power_w: f64,
    /// Endurance limit: number of write cycles before the cell degrades.
    /// The paper (§VI) treats endurance as the key open reliability issue;
    /// 1e6 is a representative figure for TaOx/HfOx devices.
    pub endurance_writes: u64,
}

impl Default for DeviceParams {
    fn default() -> Self {
        Self {
            r_on_ohm: 240e3,
            r_off_ohm: 24e6,
            read_voltage: 0.5,
            write_voltage: 1.1,
            threshold_voltage: 0.8,
            read_pulse_s: 10e-9,
            write_pulse_s: 50e-9,
            off_cell_power_w: 10.42e-9,
            on_cell_power_w: 1.03e-6,
            endurance_writes: 1_000_000,
        }
    }
}

impl DeviceParams {
    /// Validates the mutual consistency of the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidParams`] when `r_on >= r_off`, when the
    /// read voltage is not below the threshold, when the write voltage is not
    /// above it, or when any quantity that must be positive is not.
    pub fn validate(&self) -> Result<()> {
        if self.r_on_ohm <= 0.0 || self.r_off_ohm <= 0.0 {
            return Err(DeviceError::InvalidParams("resistances must be positive".into()));
        }
        if self.r_on_ohm >= self.r_off_ohm {
            return Err(DeviceError::InvalidParams(format!(
                "r_on ({}) must be below r_off ({})",
                self.r_on_ohm, self.r_off_ohm
            )));
        }
        if self.read_voltage >= self.threshold_voltage {
            return Err(DeviceError::InvalidParams(
                "read voltage must stay below the switching threshold".into(),
            ));
        }
        if self.write_voltage <= self.threshold_voltage {
            return Err(DeviceError::InvalidParams(
                "write voltage must exceed the switching threshold".into(),
            ));
        }
        if self.read_pulse_s <= 0.0 || self.write_pulse_s <= 0.0 {
            return Err(DeviceError::InvalidParams("pulse widths must be positive".into()));
        }
        Ok(())
    }

    /// Maximum (on-state) conductance in siemens.
    #[must_use]
    pub fn g_on(&self) -> f64 {
        1.0 / self.r_on_ohm
    }

    /// Minimum (off-state) conductance in siemens.
    #[must_use]
    pub fn g_off(&self) -> f64 {
        1.0 / self.r_off_ohm
    }

    /// Energy of reading a single cell for one read pulse, in joules,
    /// linearly interpolated between the off-cell and on-cell power by the
    /// normalized conductance `g_norm` in `[0, 1]`.
    #[must_use]
    // Device-primitive scalar feeding f64 pulse/energy arithmetic;
    // wrapped into newtypes at the sim boundary (DESIGN.md §10).
    // lint: allow(raw-unit)
    pub fn read_energy_j(&self, g_norm: f64) -> f64 {
        let g = g_norm.clamp(0.0, 1.0);
        let power = self.off_cell_power_w + g * (self.on_cell_power_w - self.off_cell_power_w);
        power * self.read_pulse_s
    }

    /// Energy of one write pulse in joules.
    ///
    /// Writing drives the cell at the write voltage for the full write pulse;
    /// the dissipated power scales with `(V_w / V_r)^2` relative to the
    /// on-cell read power for a resistive element.
    #[must_use]
    // Device-primitive scalar feeding f64 pulse/energy arithmetic;
    // wrapped into newtypes at the sim boundary (DESIGN.md §10).
    // lint: allow(raw-unit)
    pub fn write_energy_j(&self) -> f64 {
        let v_ratio = self.write_voltage / self.read_voltage;
        self.on_cell_power_w * v_ratio * v_ratio * self.write_pulse_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_ii() {
        let p = DeviceParams::default();
        assert_eq!(p.r_on_ohm, 240e3);
        assert_eq!(p.r_off_ohm, 24e6);
        assert_eq!(p.read_voltage, 0.5);
        assert_eq!(p.write_voltage, 1.1);
        assert_eq!(p.read_pulse_s, 10e-9);
        assert_eq!(p.write_pulse_s, 50e-9);
        assert_eq!(p.off_cell_power_w, 10.42e-9);
        assert_eq!(p.on_cell_power_w, 1.03e-6);
        // A stored 1 reads at the on resistance, a stored 0 at the off one.
        assert!((1.0 / p.g_on() - 240e3).abs() < 1.0);
        assert!((1.0 / p.g_off() - 24e6).abs() < 1.0);
        p.validate().expect("default parameters must be valid");
    }

    #[test]
    fn read_energy_interpolates_between_off_and_on() {
        let p = DeviceParams::default();
        let off = p.read_energy_j(0.0);
        let on = p.read_energy_j(1.0);
        let mid = p.read_energy_j(0.5);
        assert!(off < mid && mid < on);
        assert!((off - 10.42e-9 * 10e-9).abs() < 1e-22);
        assert!((on - 1.03e-6 * 10e-9).abs() < 1e-20);
    }

    #[test]
    fn read_energy_clamps_out_of_range_inputs() {
        let p = DeviceParams::default();
        assert_eq!(p.read_energy_j(-3.0), p.read_energy_j(0.0));
        assert_eq!(p.read_energy_j(7.0), p.read_energy_j(1.0));
    }

    #[test]
    fn write_energy_exceeds_on_read_energy() {
        let p = DeviceParams::default();
        // 5x the pulse width and (1.1/0.5)^2 the power.
        assert!(p.write_energy_j() > 10.0 * p.read_energy_j(1.0));
    }

    #[test]
    fn validation_rejects_inverted_resistances() {
        let p = DeviceParams { r_on_ohm: 1e7, r_off_ohm: 1e6, ..DeviceParams::default() };
        assert!(p.validate().is_err());
    }

    #[test]
    fn validation_rejects_read_voltage_above_threshold() {
        let p = DeviceParams { read_voltage: 0.9, ..DeviceParams::default() };
        assert!(p.validate().is_err());
    }

    #[test]
    fn validation_rejects_write_voltage_below_threshold() {
        let p = DeviceParams { write_voltage: 0.7, ..DeviceParams::default() };
        assert!(p.validate().is_err());
    }

    #[test]
    fn validation_rejects_nonpositive_pulse() {
        let p = DeviceParams { read_pulse_s: 0.0, ..DeviceParams::default() };
        assert!(p.validate().is_err());
    }
}
