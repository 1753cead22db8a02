use inca_units::{Energy, EnergyPerBeat};
use serde::{Deserialize, Serialize};

use crate::{constants, Bus};

/// An on-chip SRAM buffer (the "buffers" of Fig 1a / Fig 6).
///
/// Both architectures use 64 KB buffers with a 256-bit port (Table II).
/// Energy per 256-bit access is calibrated to NeuroSim-class 22 nm SRAM
/// macros (~20 pJ per 256-bit read, writes ~10 % more expensive); these are
/// the constants that make DRAM+buffer dominate WS energy in Fig 6 — see
/// `constants::SRAM_READ_ENERGY_PER_BEAT`.
///
/// # Examples
///
/// ```
/// use inca_circuit::SramBuffer;
/// use inca_units::Energy;
///
/// let buf = SramBuffer::paper_default();
/// let e = buf.read_energy_j(64); // read 64 bytes = two 256-bit beats
/// assert!(e > Energy::ZERO);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SramBuffer {
    capacity_bytes: usize,
    port: Bus,
    /// Energy of one full-width read beat.
    read_energy_per_beat_j: EnergyPerBeat,
    /// Energy of one full-width write beat.
    write_energy_per_beat_j: EnergyPerBeat,
}

impl SramBuffer {
    /// The paper's 64 KB / 256-bit buffer.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            capacity_bytes: 64 * 1024,
            port: Bus::new(256),
            read_energy_per_beat_j: constants::SRAM_READ_ENERGY_PER_BEAT,
            write_energy_per_beat_j: constants::SRAM_WRITE_ENERGY_PER_BEAT,
        }
    }

    /// Buffer capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Number of port beats needed to move `bytes`.
    #[must_use]
    pub(crate) fn beats(&self, bytes: u64) -> u64 {
        self.port.transfers_for_bits(bytes * 8)
    }

    /// Energy to read `bytes`.
    #[must_use]
    pub fn read_energy_j(&self, bytes: u64) -> Energy {
        self.beats(bytes) as f64 * self.read_energy_per_beat_j
    }

    /// Energy to write `bytes`.
    #[must_use]
    pub fn write_energy_j(&self, bytes: u64) -> Energy {
        self.beats(bytes) as f64 * self.write_energy_per_beat_j
    }
}

impl Default for SramBuffer {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Buffer read/write energies scale with beat count.
        #[test]
        fn buffer_energy_beat_quantized(bytes in 0u64..100_000) {
            let buf = SramBuffer::paper_default();
            let beats = buf.beats(bytes);
            prop_assert!((buf.read_energy_j(bytes) - beats as f64 * buf.read_energy_j(32)).abs().joules() < 1e-15);
            prop_assert!(buf.write_energy_j(bytes) >= buf.read_energy_j(bytes));
        }
    }

    #[test]
    fn paper_default_is_64kb_256bit() {
        let b = SramBuffer::paper_default();
        assert_eq!(b.capacity_bytes(), 65536);
        assert_eq!(b.port.width_bits(), 256);
    }

    #[test]
    fn beat_quantization() {
        let b = SramBuffer::paper_default();
        assert_eq!(b.beats(32), 1); // 256 bits exactly
        assert_eq!(b.beats(33), 2);
        assert_eq!(b.beats(0), 0);
    }

    #[test]
    fn write_costs_more_than_read() {
        let b = SramBuffer::paper_default();
        assert!(b.write_energy_j(64) > b.read_energy_j(64));
    }
}
