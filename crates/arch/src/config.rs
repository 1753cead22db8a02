use inca_circuit::{AdcSpec, Bus, DacSpec, DramModel, SramBuffer, TechScaling};
use inca_device::{CellGeometry, DeviceParams};
use serde::{Deserialize, Serialize};

/// Which dataflow an accelerator configuration implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dataflow {
    /// Weight-stationary (the ISAAC/PipeLayer-style baseline).
    WeightStationary,
    /// Input-stationary (INCA).
    InputStationary,
}

/// Full architecture configuration — the Table II rows.
///
/// Two constructors reproduce the paper's configurations exactly:
/// [`ArchConfig::inca_paper`] (16 × 16 × 64 subarrays, 4-bit ADC) and
/// [`ArchConfig::baseline_paper`] (128 × 128 arrays, 8-bit ADC). Both share
/// the 64 KB / 256-bit buffers, 8 GB HBM2 and 22 nm technology.
#[derive(Debug, Clone)]
pub struct ArchConfig {
    /// The dataflow.
    pub dataflow: Dataflow,
    /// Subarray side length (cells): 16 for INCA, 128 for the baseline.
    pub subarray: usize,
    /// Number of stacked planes (3D depth): 64 for INCA, 1 for the 2D
    /// baseline.
    pub stacked_planes: usize,
    /// Subarrays (or 3D stacks) per macro.
    pub macro_size: usize,
    /// Macros per tile.
    pub tile_size: usize,
    /// Tiles per chip (derived from the Table V component counts: 168).
    pub tiles: usize,
    /// Weight/activation precision in bits.
    pub data_bits: u8,
    /// Cell precision in bits (1 for both designs).
    pub cell_bits: u8,
    /// Batch size processed per training step.
    pub batch_size: usize,
    /// Subarrays sharing one ADC (INCA: 16; baseline: 1).
    pub subarrays_per_adc: usize,
    /// ADC specification.
    pub adc: AdcSpec,
    /// DAC specification (1-bit drivers).
    pub dac: DacSpec,
    /// On-chip buffer.
    pub buffer: SramBuffer,
    /// Off-chip DRAM.
    pub dram: DramModel,
    /// The inter-unit bus.
    pub bus: Bus,
    /// Device electrical parameters.
    pub device: DeviceParams,
    /// Cell geometry (for the area model).
    pub cell_geometry: CellGeometry,
    /// Technology scaling (65 nm layout → 22 nm accelerator).
    pub scaling: TechScaling,
}

impl ArchConfig {
    /// INCA's Table II configuration.
    #[must_use]
    pub fn inca_paper() -> Self {
        Self {
            dataflow: Dataflow::InputStationary,
            subarray: 16,
            stacked_planes: 64,
            macro_size: 8,
            tile_size: 12,
            tiles: 168,
            data_bits: 8,
            cell_bits: 1,
            batch_size: 64,
            subarrays_per_adc: 16,
            adc: AdcSpec::inca_default(),
            dac: DacSpec::one_bit(),
            buffer: SramBuffer::paper_default(),
            dram: DramModel::hbm2_8gb(),
            bus: Bus::paper_default(),
            device: DeviceParams::default(),
            cell_geometry: CellGeometry::inca_2t1r(),
            scaling: TechScaling::paper_default(),
        }
    }

    /// The WS baseline's Table II configuration.
    #[must_use]
    pub fn baseline_paper() -> Self {
        Self {
            dataflow: Dataflow::WeightStationary,
            subarray: 128,
            stacked_planes: 1,
            macro_size: 8,
            tile_size: 12,
            tiles: 168,
            data_bits: 8,
            cell_bits: 1,
            batch_size: 64,
            subarrays_per_adc: 1,
            adc: AdcSpec::baseline_default(),
            dac: DacSpec::one_bit(),
            buffer: SramBuffer::paper_default(),
            dram: DramModel::hbm2_8gb(),
            bus: Bus::paper_default(),
            device: DeviceParams::default(),
            cell_geometry: CellGeometry::baseline_1t1r(),
            scaling: TechScaling::paper_default(),
        }
    }

    /// Cells per subarray unit (a 3D stack for INCA, a 2D crossbar for the
    /// baseline).
    #[must_use]
    pub(crate) fn cells_per_unit(&self) -> usize {
        self.subarray * self.subarray * self.stacked_planes
    }

    /// Total subarray units on the chip.
    #[must_use]
    pub fn units_per_chip(&self) -> usize {
        self.tiles * self.tile_size * self.macro_size
    }

    /// Total RRAM cells on the chip.
    #[must_use]
    // lint: allow(narrow-pub) needed by: tests/paper_claims.rs (iso-capacity claim)
    pub fn cells_per_chip(&self) -> u64 {
        self.units_per_chip() as u64 * self.cells_per_unit() as u64
    }

    /// Latency of one array read cycle in seconds: the RRAM read pulse plus
    /// the (shared) ADC conversion time for the unit's outputs.
    ///
    /// The baseline's large array digitizes 128 columns through its 8-bit
    /// ADC; INCA's stack digitizes one plane-sum per plane through an ADC
    /// shared by 16 subarrays. This asymmetry produces the paper's
    /// observation that "the read latency in the baseline is about 2× the
    /// write latency of INCA" (§V-B2).
    #[must_use]
    // Interior cycle-model scalar multiplied into per-cycle counts;
    // wrapped into `Time` at the sim boundary (DESIGN.md §10).
    // lint: allow(raw-unit)
    pub fn array_read_latency_s(&self) -> f64 {
        let conversions = match self.dataflow {
            // 128 column outputs per array read.
            Dataflow::WeightStationary => self.subarray as f64,
            // One accumulated output per plane, ADC shared by 16 subarrays
            // but planes digitize in parallel groups.
            Dataflow::InputStationary => self.stacked_planes as f64 / self.subarrays_per_adc as f64,
        };
        self.device.read_pulse_s + (conversions * self.adc.conversion_latency_s()).seconds()
    }

    /// Latency of one array write cycle in seconds.
    #[must_use]
    // Interior cycle-model scalar multiplied into per-cycle counts;
    // wrapped into `Time` at the sim boundary (DESIGN.md §10).
    // lint: allow(raw-unit)
    pub fn array_write_latency_s(&self) -> f64 {
        self.device.write_pulse_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iso_capacity_units() {
        // §V-B6: one 16x16x64 stack equals one 128x128 crossbar.
        let inca = ArchConfig::inca_paper();
        let base = ArchConfig::baseline_paper();
        assert_eq!(inca.cells_per_unit(), base.cells_per_unit());
        assert_eq!(inca.cells_per_chip(), base.cells_per_chip());
    }

    #[test]
    fn table_ii_values() {
        let inca = ArchConfig::inca_paper();
        assert_eq!(inca.subarray, 16);
        assert_eq!(inca.stacked_planes, 64);
        assert_eq!(inca.macro_size, 8);
        assert_eq!(inca.tile_size, 12);
        assert_eq!(inca.adc.bits(), 4);
        assert_eq!(inca.batch_size, 64);
        let base = ArchConfig::baseline_paper();
        assert_eq!(base.subarray, 128);
        assert_eq!(base.adc.bits(), 8);
        assert_eq!(base.buffer.capacity_bytes(), 64 * 1024);
    }

    #[test]
    fn units_per_chip_is_16128() {
        assert_eq!(ArchConfig::inca_paper().units_per_chip(), 16_128);
    }

    #[test]
    fn baseline_read_slower_than_inca_write() {
        // §V-B2: baseline read latency ≈ 2x INCA write latency.
        let inca = ArchConfig::inca_paper();
        let base = ArchConfig::baseline_paper();
        let ratio = base.array_read_latency_s() / inca.array_write_latency_s();
        assert!(ratio > 1.5 && ratio < 3.0, "ratio {ratio}");
    }

    #[test]
    fn inca_write_about_twice_its_read() {
        // §V-B2: "writing spends about 2x longer than reading in INCA".
        let inca = ArchConfig::inca_paper();
        let ratio = inca.array_write_latency_s() / inca.array_read_latency_s();
        assert!(ratio > 1.2 && ratio < 5.0, "ratio {ratio}");
    }
}
