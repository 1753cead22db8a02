use inca_telemetry::Event;
use serde::{Deserialize, Serialize};

use crate::{Result, VerticalPlane, XbarError};

/// A 3D HRRAM stack: `depth` vertical planes sharing pillar voltages
/// (§IV-B, Fig 8e).
///
/// The pillars run through every plane, so one kernel broadcast evaluates
/// the same convolution window on *all* planes simultaneously — INCA maps
/// one batch sample per plane, turning the third dimension into batch
/// parallelism ("we can process MAC operations for all the planes at once").
/// Each plane has its own tied bottom electrode, so per-plane sums stay
/// separate.
///
/// Table II: 16 × 16 × 64 — the same cell count as one 128 × 128 baseline
/// crossbar (iso-capacity comparison of §V-B6).
///
/// # Examples
///
/// ```
/// use inca_xbar::Stack3d;
///
/// let mut stack = Stack3d::new(4, 4, 2);
/// stack.write_plane(0, &[1; 16])?;
/// stack.write_plane(1, &[0; 16])?;
/// let sums = stack.direct_conv_window(0, 0, 2, 2, &[1, 1, 1, 1])?;
/// assert_eq!(sums, vec![4, 0]); // one result per plane, one read cycle
/// # Ok::<(), inca_xbar::XbarError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Stack3d {
    planes: Vec<VerticalPlane>,
    rows: usize,
    cols: usize,
}

impl Stack3d {
    /// Creates a stack of `depth` planes of `rows × cols` cells.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn new(rows: usize, cols: usize, depth: usize) -> Self {
        assert!(depth > 0, "stack depth must be positive");
        Self { planes: (0..depth).map(|_| VerticalPlane::new(rows, cols)).collect(), rows, cols }
    }

    /// The paper's 16 × 16 × 64 stack (Table II).
    #[must_use]
    pub fn paper_default() -> Self {
        Self::new(16, 16, 64)
    }

    /// Number of planes (batch capacity).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.planes.len()
    }

    /// Plane height in cells.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Plane width in cells.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of one plane.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::PlaneOutOfBounds`] for an invalid index.
    pub fn plane(&self, index: usize) -> Result<&VerticalPlane> {
        self.planes.get(index).ok_or(XbarError::PlaneOutOfBounds { plane: index, planes: self.planes.len() })
    }

    /// Mutable view of one plane.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::PlaneOutOfBounds`] for an invalid index.
    pub fn plane_mut(&mut self, index: usize) -> Result<&mut VerticalPlane> {
        let planes = self.planes.len();
        self.planes.get_mut(index).ok_or(XbarError::PlaneOutOfBounds { plane: index, planes })
    }

    /// Writes a full bit image into one plane (one batch sample).
    ///
    /// # Errors
    ///
    /// Propagates plane-index and shape errors.
    pub fn write_plane(&mut self, index: usize, bits: &[u8]) -> Result<()> {
        self.plane_mut(index)?.write_bits(bits)
    }

    /// One broadcast read: the kernel is applied to the shared pillars and
    /// every plane returns its window accumulation. This is the 3D
    /// batch-parallel MAC — *one* read cycle for the entire batch.
    ///
    /// Telemetry: the pillar drivers are shared, so only `kh·kw`
    /// [`Event::DacDrive`]s are counted for the whole broadcast, but every
    /// plane conducts and senses — `depth` [`Event::XbarReadPulse`]s and
    /// `depth` [`Event::AdcConversion`]s (one per tied bottom electrode).
    /// The latency win of the 3D stack is in cycles, not events.
    ///
    /// # Errors
    ///
    /// Propagates window and shape errors.
    pub fn direct_conv_window(
        &self,
        row: usize,
        col: usize,
        kh: usize,
        kw: usize,
        kernel: &[u8],
    ) -> Result<Vec<u32>> {
        let depth = self.planes.len() as u64;
        inca_telemetry::record(Event::XbarReadPulse, depth);
        inca_telemetry::record(Event::DacDrive, (kh * kw) as u64);
        inca_telemetry::record(Event::AdcConversion, depth);
        self.planes.iter().map(|p| p.conv_window_sum(row, col, kh, kw, kernel)).collect()
    }

    /// Convolves the kernel over every valid window position (stride 1) on
    /// all planes: returns `out[plane][window]` in row-major window order.
    ///
    /// # Errors
    ///
    /// Propagates window and shape errors.
    pub fn direct_conv_full(&self, kh: usize, kw: usize, kernel: &[u8]) -> Result<Vec<Vec<u32>>> {
        if kh == 0 || kw == 0 || kh > self.rows || kw > self.cols {
            return Err(XbarError::WindowOutOfBounds {
                row: 0,
                col: 0,
                kh,
                kw,
                rows: self.rows,
                cols: self.cols,
            });
        }
        let oh = self.rows - kh + 1;
        let ow = self.cols - kw + 1;
        let mut out = vec![Vec::with_capacity(oh * ow); self.planes.len()];
        for r in 0..oh {
            for c in 0..ow {
                let sums = self.direct_conv_window(r, c, kh, kw, kernel)?;
                for (p, s) in sums.into_iter().enumerate() {
                    out[p].push(s);
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_iso_capacity_with_baseline() {
        let s = Stack3d::paper_default();
        assert_eq!(s.rows() * s.cols() * s.depth(), 128 * 128);
        assert_eq!(s.depth(), 64);
    }

    #[test]
    fn planes_are_independent() {
        let mut s = Stack3d::new(2, 2, 3);
        s.write_plane(0, &[1, 1, 1, 1]).unwrap();
        s.write_plane(2, &[1, 0, 0, 0]).unwrap();
        let sums = s.direct_conv_window(0, 0, 2, 2, &[1, 1, 1, 1]).unwrap();
        assert_eq!(sums, vec![4, 0, 1]);
    }

    #[test]
    fn broadcast_kernel_shared_across_planes() {
        let mut s = Stack3d::new(3, 3, 2);
        let img = [1, 0, 1, 0, 1, 0, 1, 0, 1];
        s.write_plane(0, &img).unwrap();
        s.write_plane(1, &img).unwrap();
        // Identical images + shared kernel => identical outputs.
        let out = s.direct_conv_full(2, 2, &[1, 1, 0, 0]).unwrap();
        assert_eq!(out[0], out[1]);
        assert_eq!(out[0].len(), 4);
    }

    #[test]
    fn full_conv_matches_single_plane_reference() {
        let mut s = Stack3d::new(4, 4, 1);
        let img: Vec<u8> = (0..16).map(|i| (i % 2) as u8).collect();
        s.write_plane(0, &img).unwrap();
        let k = [1, 0, 1, 1];
        let out = s.direct_conv_full(2, 2, &k).unwrap();
        let p = s.plane(0).unwrap();
        let mut expected = Vec::new();
        for r in 0..3 {
            for c in 0..3 {
                expected.push(p.direct_conv_window(r, c, 2, 2, &k).unwrap());
            }
        }
        assert_eq!(out[0], expected);
    }

    #[test]
    fn plane_index_bounds() {
        let mut s = Stack3d::new(2, 2, 2);
        assert!(matches!(s.plane(2), Err(XbarError::PlaneOutOfBounds { plane: 2, planes: 2 })));
        assert!(s.plane_mut(5).is_err());
        assert!(s.write_plane(3, &[0; 4]).is_err());
    }

    #[test]
    fn oversized_kernel_rejected() {
        let s = Stack3d::new(4, 4, 1);
        assert!(s.direct_conv_full(5, 2, &[0; 10]).is_err());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_depth_panics() {
        let _ = Stack3d::new(4, 4, 0);
    }
}
