use inca_units::Energy;
use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign};

/// Per-component energy accounting — the decomposition the paper plots
/// in Figs 6, 12 and 13b. Every component is a typed [`Energy`]; the
/// serialized JSON is unchanged (newtypes emit the bare joule number).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// Off-chip DRAM traffic.
    pub dram_j: Energy,
    /// On-chip SRAM buffer traffic.
    pub buffer_j: Energy,
    /// Analog-to-digital conversion.
    pub adc_j: Energy,
    /// Input drivers / DACs.
    pub dac_j: Energy,
    /// RRAM array reads and writes.
    pub array_j: Energy,
    /// Digital post-processing (adders, shift-accumulators, pooling, ReLU).
    pub digital_j: Energy,
    /// Static (leakage) energy: chip leakage power integrated over the
    /// runtime.
    pub static_j: Energy,
}

impl EnergyBreakdown {
    /// An all-zero breakdown.
    #[must_use]
    pub(crate) fn zero() -> Self {
        Self::default()
    }

    /// Total energy across all components.
    #[must_use]
    pub fn total_j(&self) -> Energy {
        self.dram_j + self.buffer_j + self.adc_j + self.dac_j + self.array_j + self.digital_j + self.static_j
    }

    /// The memory share (DRAM + buffers) — the dominant WS segment of
    /// Fig 6.
    #[must_use]
    pub fn memory_j(&self) -> Energy {
        self.dram_j + self.buffer_j
    }

    /// Fraction of the total spent in each component, in the order
    /// `(dram, buffer, adc, dac, array, digital, static)`.
    #[must_use]
    pub(crate) fn fractions(&self) -> [f64; 7] {
        let t = self.total_j();
        if t == Energy::ZERO {
            return [0.0; 7];
        }
        [
            self.dram_j / t,
            self.buffer_j / t,
            self.adc_j / t,
            self.dac_j / t,
            self.array_j / t,
            self.digital_j / t,
            self.static_j / t,
        ]
    }

    /// Scales every component (e.g. per-image normalization).
    #[must_use]
    pub(crate) fn scaled(&self, s: f64) -> Self {
        Self {
            dram_j: self.dram_j * s,
            buffer_j: self.buffer_j * s,
            adc_j: self.adc_j * s,
            dac_j: self.dac_j * s,
            array_j: self.array_j * s,
            digital_j: self.digital_j * s,
            static_j: self.static_j * s,
        }
    }
}

impl Add for EnergyBreakdown {
    type Output = EnergyBreakdown;

    fn add(self, rhs: EnergyBreakdown) -> EnergyBreakdown {
        EnergyBreakdown {
            dram_j: self.dram_j + rhs.dram_j,
            buffer_j: self.buffer_j + rhs.buffer_j,
            adc_j: self.adc_j + rhs.adc_j,
            dac_j: self.dac_j + rhs.dac_j,
            array_j: self.array_j + rhs.array_j,
            digital_j: self.digital_j + rhs.digital_j,
            static_j: self.static_j + rhs.static_j,
        }
    }
}

impl AddAssign for EnergyBreakdown {
    fn add_assign(&mut self, rhs: EnergyBreakdown) {
        *self = *self + rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EnergyBreakdown {
        EnergyBreakdown {
            dram_j: Energy::from_joules(3.0),
            buffer_j: Energy::from_joules(2.0),
            adc_j: Energy::from_joules(1.0),
            dac_j: Energy::from_joules(0.5),
            array_j: Energy::from_joules(2.5),
            digital_j: Energy::from_joules(0.5),
            static_j: Energy::from_joules(0.5),
        }
    }

    #[test]
    fn total_and_memory() {
        let e = sample();
        assert!((e.total_j().joules() - 10.0).abs() < 1e-12);
        assert!((e.memory_j().joules() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn fractions_sum_to_one() {
        let f = sample().fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((f[0] - 0.3).abs() < 1e-12);
    }

    #[test]
    fn zero_fractions_are_zero() {
        assert_eq!(EnergyBreakdown::zero().fractions(), [0.0; 7]);
    }

    #[test]
    fn add_and_scale() {
        let e = sample() + sample();
        assert!((e.total_j().joules() - 20.0).abs() < 1e-12);
        let half = e.scaled(0.25);
        assert!((half.total_j().joules() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn add_assign() {
        let mut e = EnergyBreakdown::zero();
        e += sample();
        e += sample();
        assert!((e.dram_j.joules() - 6.0).abs() < 1e-12);
    }
}
