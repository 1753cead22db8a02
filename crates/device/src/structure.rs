use serde::{Deserialize, Serialize};

/// The access-device arrangement of an RRAM cell.
///
/// The paper contrasts three structures (§IV-A):
///
/// * [`CellStructure::OneR`] — a bare resistive element. Cheapest, but
///   suffers from *sneak path* currents through unselected cells.
/// * [`CellStructure::OneT1R`] — the industry-standard 1T1R: one transistor
///   gates the cell, eliminating sneak paths. Used by the WS baseline.
/// * [`CellStructure::TwoT1R`] — INCA's 2T1R: two transistors controlled by
///   *perpendicular* select lines, so a 2D kernel window can be activated by
///   driving a set of rows and a set of columns, enabling *direct
///   convolution* without unrolling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CellStructure {
    /// Bare resistive element (sneak-path prone).
    OneR,
    /// One transistor, one RRAM — column-gated.
    OneT1R,
    /// Two transistors, one RRAM — row- and column-gated (INCA).
    TwoT1R,
}

/// Physical cell geometry used for the area model (Table II/V).
///
/// The paper's layout results (TSMC 65 nm, scale factor 0.34 to 22 nm):
/// INCA 2T1R cell 600 × 700 nm, baseline 1T1R cell 540 × 485 nm.
///
/// # Examples
///
/// ```
/// use inca_device::CellGeometry;
///
/// let inca = CellGeometry::inca_2t1r();
/// // The 600 × 700 nm layout occupies 0.42 µm² before scaling.
/// assert!((inca.area_um2() - 0.42).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CellGeometry {
    /// Cell width in nanometres (as laid out at `layout_node_nm`).
    pub width_nm: f64,
    /// Cell length in nanometres.
    pub length_nm: f64,
    /// Technology node of the layout in nanometres.
    pub layout_node_nm: f64,
    /// Access structure.
    pub structure: CellStructure,
}

impl CellGeometry {
    /// INCA's 2T1R cell as laid out in Cadence (Table II: 600 × 700 nm, 65 nm).
    #[must_use]
    pub fn inca_2t1r() -> Self {
        Self { width_nm: 600.0, length_nm: 700.0, layout_node_nm: 65.0, structure: CellStructure::TwoT1R }
    }

    /// The baseline 1T1R cell (Table II: 540 × 485 nm, 65 nm).
    #[must_use]
    pub fn baseline_1t1r() -> Self {
        Self { width_nm: 540.0, length_nm: 485.0, layout_node_nm: 65.0, structure: CellStructure::OneT1R }
    }

    /// Raw layout area in µm².
    #[must_use]
    pub fn area_um2(&self) -> f64 {
        self.width_nm * self.length_nm * 1e-6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inca_cell_area_matches_layout() {
        let g = CellGeometry::inca_2t1r();
        assert!((g.area_um2() - 0.42).abs() < 1e-9); // 0.6 * 0.7 µm²
    }

    #[test]
    fn inca_cell_is_larger_than_baseline_before_stacking() {
        assert!(CellGeometry::inca_2t1r().area_um2() > CellGeometry::baseline_1t1r().area_um2());
    }
}
