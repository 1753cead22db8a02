//! Property-based tests on circuit-model invariants.

use inca_circuit::{AdcSpec, Bus, DramModel};
use proptest::prelude::*;

proptest! {
    /// Bus transfers are exact ceil division and monotone in payload.
    #[test]
    fn bus_transfers_ceil_and_monotone(width in 1u32..2048, elems in 0u64..100_000, bits in 1u32..64) {
        let bus = Bus::new(width);
        let t = bus.transfers(elems, bits);
        let total_bits = elems * u64::from(bits);
        prop_assert_eq!(t, total_bits.div_ceil(u64::from(width)));
        prop_assert!(bus.transfers(elems + 1, bits) >= t);
    }

    /// A wider bus never needs more transfers.
    #[test]
    fn wider_bus_never_worse(elems in 1u64..10_000, bits in 1u32..32, w in 1u32..512) {
        let narrow = Bus::new(w).transfers(elems, bits);
        let wide = Bus::new(2 * w).transfers(elems, bits);
        prop_assert!(wide <= narrow);
    }

    /// ADC energy grows strictly with precision; the 4-bit-vs-8-bit factor
    /// is exactly 4 at any anchor.
    #[test]
    fn adc_energy_monotone(bits in 1u8..16) {
        let lo = AdcSpec::new(bits).unwrap().energy_per_conversion_j();
        let hi = AdcSpec::new(bits + 1).unwrap().energy_per_conversion_j();
        prop_assert!(hi > lo);
    }

    /// DRAM energy is exactly linear in bytes.
    #[test]
    fn dram_energy_linear(a in 0u64..1_000_000, b in 0u64..1_000_000) {
        let d = DramModel::hbm2_8gb();
        let sum = d.access_energy_j(a) + d.access_energy_j(b);
        prop_assert!((d.access_energy_j(a + b) - sum).abs().joules() < 1e-18 * (1.0 + sum.joules()));
    }
}
