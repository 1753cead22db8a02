//! Paper-published physical constants, centralized.
//!
//! These calibration values used to be duplicated as bare literals across
//! the circuit models and the analytical simulators (`crates/sim`); they
//! now live here once, expressed in [`inca_units`] types, each annotated
//! with the paper table/figure it comes from. Keeping them `const` means
//! zero runtime cost and — because the literal values are identical to
//! the ones they replaced — the refactor changes no emitted number.

use inca_units::{EnergyPerBeat, EnergyPerBit};

/// HBM2 DRAM access energy: "32 pJ per 8-bit access" (§V-A, adopted from
/// NeuroSim+; the DRAM term of the Fig 6 energy splits), i.e. 4 pJ/bit.
pub const HBM2_ENERGY_PER_BIT: EnergyPerBit = EnergyPerBit::from_joules_per_bit(4e-12);

/// SRAM buffer read energy: ~20 pJ per 256-bit beat — NeuroSim-class
/// 22 nm SRAM macro calibration for the Table II 64 KB buffers. This is
/// the constant that makes DRAM+buffer dominate WS energy in Fig 6.
pub(crate) const SRAM_READ_ENERGY_PER_BEAT: EnergyPerBeat = EnergyPerBeat::from_joules_per_beat(20e-12);

/// SRAM buffer write energy: ~10 % above the read beat energy (Table II
/// calibration, same NeuroSim-class source as the read figure).
pub const SRAM_WRITE_ENERGY_PER_BEAT: EnergyPerBeat = EnergyPerBeat::from_joules_per_beat(22e-12);

/// Linear technology scale factor from the 65 nm layout node to the
/// 22 nm accelerator node (Table II): area scales with its square,
/// dynamic energy with its cube.
pub(crate) const TECH_SCALE_FACTOR_65_TO_22: f64 = 0.34;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hbm2_is_32pj_per_byte() {
        assert_eq!(HBM2_ENERGY_PER_BIT.for_bits(8).joules(), 32e-12);
    }

    #[test]
    fn sram_write_costs_more_than_read() {
        assert!(SRAM_WRITE_ENERGY_PER_BEAT.joules_per_beat() > SRAM_READ_ENERGY_PER_BEAT.joules_per_beat());
    }
}
