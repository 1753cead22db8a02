use inca_units::{Energy, EnergyPerBit};
use serde::{Deserialize, Serialize};

use crate::{CircuitError, Result};

/// An H-tree on-chip interconnect model (the dominant piece of the
/// Table V "others" area and a NeuroSim energy component).
///
/// Data fans out from the chip port to `leaves` endpoints (tiles or
/// macros) through `log2(leaves)` levels of binary branches. Wire length
/// halves per level; energy follows the classic RC wire model per
/// millimetre.
///
/// # Examples
///
/// ```
/// use inca_circuit::HTree;
///
/// // 168 tiles over a ~9 mm die edge.
/// let tree = HTree::new(168, 9.0)?;
/// let e = tree.broadcast_energy_j(256);
/// assert!(e > inca_units::Energy::ZERO);
/// # Ok::<(), inca_circuit::CircuitError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HTree {
    levels: u32,
    die_edge_mm: f64,
    /// Wire energy per bit, per millimetre of wire (22 nm class ~0.08 pJ).
    energy_per_bit_mm_j: EnergyPerBit,
}

impl HTree {
    /// Creates an H-tree reaching `leaves` endpoints over a die of
    /// `die_edge_mm` millimetres.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidParams`] for zero leaves or a
    /// non-positive die edge.
    pub fn new(leaves: usize, die_edge_mm: f64) -> Result<Self> {
        if leaves == 0 {
            return Err(CircuitError::InvalidParams("leaf count must be positive".into()));
        }
        if die_edge_mm <= 0.0 {
            return Err(CircuitError::InvalidParams("die edge must be positive".into()));
        }
        let levels = (usize::BITS - (leaves - 1).leading_zeros()).max(1);
        Ok(Self { levels, die_edge_mm, energy_per_bit_mm_j: EnergyPerBit::from_joules_per_bit(0.08e-12) })
    }

    /// Total wire length from the root to one leaf, in millimetres:
    /// `edge/2 + edge/4 + …` over the levels.
    #[must_use]
    pub(crate) fn root_to_leaf_mm(&self) -> f64 {
        (1..=self.levels).map(|l| self.die_edge_mm / f64::from(1u32 << l)).sum()
    }

    /// Energy to move `bits` from the root to ONE leaf (unicast).
    #[must_use]
    pub fn unicast_energy_j(&self, bits: u64) -> Energy {
        bits as f64 * self.root_to_leaf_mm() * self.energy_per_bit_mm_j
    }

    /// Energy to broadcast `bits` from the root to ALL leaves.
    /// Every tree segment is driven once; total segment length is
    /// `Σ_level 2^level · edge / 2^level = levels · edge` halved per the
    /// H-tree fold.
    #[must_use]
    pub fn broadcast_energy_j(&self, bits: u64) -> Energy {
        let total_wire_mm = f64::from(self.levels) * self.die_edge_mm / 2.0;
        bits as f64 * total_wire_mm * self.energy_per_bit_mm_j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_count() {
        assert_eq!(HTree::new(1, 1.0).unwrap().levels, 1);
        assert_eq!(HTree::new(2, 1.0).unwrap().levels, 1);
        assert_eq!(HTree::new(3, 1.0).unwrap().levels, 2);
        assert_eq!(HTree::new(168, 9.0).unwrap().levels, 8);
        assert_eq!(HTree::new(256, 9.0).unwrap().levels, 8);
    }

    #[test]
    fn root_to_leaf_approaches_die_edge() {
        // The geometric series approaches `edge` as levels grow.
        let t = HTree::new(1 << 12, 10.0).unwrap();
        let d = t.root_to_leaf_mm();
        assert!(d > 9.9 && d < 10.0, "distance {d}");
    }

    #[test]
    fn broadcast_costs_more_than_unicast() {
        let t = HTree::new(168, 9.0).unwrap();
        assert!(t.broadcast_energy_j(256) > t.unicast_energy_j(256));
    }

    #[test]
    fn energy_linear_in_bits() {
        let t = HTree::new(64, 8.0).unwrap();
        let e1 = t.unicast_energy_j(100);
        let e2 = t.unicast_energy_j(200);
        assert!((e2 - 2.0 * e1).abs().joules() < 1e-20);
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(HTree::new(0, 9.0).is_err());
        assert!(HTree::new(8, 0.0).is_err());
    }
}
