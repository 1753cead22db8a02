use inca_telemetry::Event;
use serde::{Deserialize, Serialize};

use crate::{Result, XbarError};

/// A conventional weight-stationary 2D crossbar (the ISAAC-style baseline).
///
/// Weights are *unrolled* into the array: each column holds one output
/// channel's kernel, flattened to `K_h · K_w · C` rows (the GEMM-based
/// convolution of §III-B). Inputs drive the rows; each column's current is
/// the dot product of the input vector with its weight column, computed in
/// one read cycle — one input vector produces one output element *per
/// channel*, which is where WS gets its parallelism.
///
/// Cells store 1 bit (Table II); multi-bit weights occupy adjacent columns
/// or sequential bit-planes, recombined digitally (see [`crate::quant`]).
///
/// # Examples
///
/// ```
/// use inca_xbar::Crossbar2d;
///
/// let mut xbar = Crossbar2d::new(4, 2);
/// // Two output channels with 4-element flattened kernels.
/// xbar.program_column(0, &[1, 0, 1, 0])?;
/// xbar.program_column(1, &[1, 1, 1, 1])?;
/// let out = xbar.mvm_binary(&[1, 1, 0, 0])?;
/// assert_eq!(out, vec![1, 2]);
/// # Ok::<(), inca_xbar::XbarError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Crossbar2d {
    rows: usize,
    cols: usize,
    /// Column-major cell bits.
    cells: Vec<u8>,
    writes: u64,
}

impl Crossbar2d {
    /// Creates an all-off crossbar of `rows × cols` cells.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    // Needed by crates/bench/benches/kernels_bench.rs, crates/core/src/hw_exec.rs (tests),
    // crates/xbar/tests/sync_audit.rs, tests/hardware_functional.rs (the 2D crossbar read oracle)
    // lint: allow(narrow-pub)
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "crossbar dimensions must be positive");
        Self { rows, cols, cells: vec![0; rows * cols], writes: 0 }
    }

    /// Number of rows (input lines).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (output lines).
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total programming (write) operations.
    #[must_use]
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    /// Programs one column with a binary weight vector.
    ///
    /// # Errors
    ///
    /// * [`XbarError::ShapeMismatch`] if `bits.len() != rows` or `col` is out
    ///   of range.
    /// * [`XbarError::ValueOutOfRange`] if any value is not 0/1.
    // Needed by crates/bench/benches/kernels_bench.rs, crates/core/src/hw_exec.rs (tests),
    // crates/xbar/tests/sync_audit.rs, tests/hardware_functional.rs (the 2D crossbar read oracle)
    // lint: allow(narrow-pub)
    pub fn program_column(&mut self, col: usize, bits: &[u8]) -> Result<()> {
        if col >= self.cols {
            return Err(XbarError::ShapeMismatch { expected: format!("column < {}", self.cols), got: col });
        }
        if bits.len() != self.rows {
            return Err(XbarError::ShapeMismatch {
                expected: format!("{} rows", self.rows),
                got: bits.len(),
            });
        }
        if let Some(&bad) = bits.iter().find(|&&b| b > 1) {
            return Err(XbarError::ValueOutOfRange { value: i64::from(bad), bits: 1 });
        }
        for (r, &b) in bits.iter().enumerate() {
            self.cells[col * self.rows + r] = b;
        }
        self.writes += 1;
        inca_telemetry::incr(Event::RramProgramPulse);
        Ok(())
    }

    /// Records the [`Event::RramProgramPulse`]s of `columns` column
    /// writes ([`Crossbar2d::program_column`]) whose cells the caller
    /// keeps without programming an array.
    pub fn record_column_writes(columns: u64) {
        inca_telemetry::record(Event::RramProgramPulse, columns);
    }

    /// One binary matrix-vector multiplication: drives `input` (0/1 per
    /// row), returns the per-column accumulated counts — one read cycle.
    ///
    /// Telemetry: one [`Event::XbarReadPulse`], `rows`
    /// [`Event::DacDrive`]s (every row line is driven), and `cols`
    /// [`Event::AdcConversion`]s — the WS baseline digitizes every column
    /// current each cycle, which is exactly the ADC-dominance the paper's
    /// energy breakdown shows. Stays `&self` / `Send + Sync`.
    ///
    /// # Errors
    ///
    /// * [`XbarError::ShapeMismatch`] if `input.len() != rows`.
    /// * [`XbarError::ValueOutOfRange`] for non-binary inputs.
    // Needed by crates/bench/benches/kernels_bench.rs, crates/core/src/hw_exec.rs (tests),
    // crates/xbar/tests/sync_audit.rs, tests/hardware_functional.rs (the 2D crossbar read oracle)
    // lint: allow(narrow-pub)
    pub fn mvm_binary(&self, input: &[u8]) -> Result<Vec<u32>> {
        inca_telemetry::incr(Event::XbarReadPulse);
        inca_telemetry::record(Event::DacDrive, self.rows as u64);
        inca_telemetry::record(Event::AdcConversion, self.cols as u64);
        if input.len() != self.rows {
            return Err(XbarError::ShapeMismatch {
                expected: format!("{} rows", self.rows),
                got: input.len(),
            });
        }
        if let Some(&bad) = input.iter().find(|&&b| b > 1) {
            return Err(XbarError::ValueOutOfRange { value: i64::from(bad), bits: 1 });
        }
        let mut out = vec![0u32; self.cols];
        for (c, o) in out.iter_mut().enumerate() {
            let column = &self.cells[c * self.rows..(c + 1) * self.rows];
            *o = column.iter().zip(input).map(|(&w, &x)| u32::from(w & x)).sum();
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Crossbar2d {
        /// Programs the full array from a row-major `rows × cols` bit matrix.
        ///
        /// # Errors
        ///
        /// Same validation as [`Crossbar2d::program_column`].
        fn program_all(&mut self, bits_row_major: &[u8]) -> Result<()> {
            if bits_row_major.len() != self.rows * self.cols {
                return Err(XbarError::ShapeMismatch {
                    expected: format!("{}x{} = {} elements", self.rows, self.cols, self.rows * self.cols),
                    got: bits_row_major.len(),
                });
            }
            if let Some(&bad) = bits_row_major.iter().find(|&&b| b > 1) {
                return Err(XbarError::ValueOutOfRange { value: i64::from(bad), bits: 1 });
            }
            for r in 0..self.rows {
                for c in 0..self.cols {
                    self.cells[c * self.rows + r] = bits_row_major[r * self.cols + c];
                }
            }
            self.writes += 1;
            inca_telemetry::incr(Event::RramProgramPulse);
            Ok(())
        }

        /// The stored bit at `(row, col)`.
        fn bit(&self, row: usize, col: usize) -> u8 {
            self.cells[col * self.rows + row]
        }
    }

    #[test]
    fn mvm_matches_reference_dot_products() {
        let mut x = Crossbar2d::new(4, 3);
        x.program_column(0, &[1, 1, 1, 1]).unwrap();
        x.program_column(1, &[0, 1, 0, 1]).unwrap();
        x.program_column(2, &[0, 0, 0, 0]).unwrap();
        let out = x.mvm_binary(&[1, 0, 1, 1]).unwrap();
        assert_eq!(out, vec![3, 1, 0]);
    }

    #[test]
    fn program_all_row_major_layout() {
        let mut x = Crossbar2d::new(2, 2);
        x.program_all(&[1, 0, 0, 1]).unwrap();
        assert_eq!(x.bit(0, 0), 1);
        assert_eq!(x.bit(0, 1), 0);
        assert_eq!(x.bit(1, 0), 0);
        assert_eq!(x.bit(1, 1), 1);
    }

    #[test]
    fn shape_validation() {
        let mut x = Crossbar2d::new(4, 2);
        assert!(x.program_column(2, &[0; 4]).is_err());
        assert!(x.program_column(0, &[0; 3]).is_err());
        assert!(x.program_all(&[0; 7]).is_err());
        assert!(x.mvm_binary(&[0; 3]).is_err());
    }

    #[test]
    fn value_validation() {
        let mut x = Crossbar2d::new(2, 2);
        assert!(x.program_column(0, &[2, 0]).is_err());
        x.program_all(&[1, 1, 1, 1]).unwrap();
        assert!(x.mvm_binary(&[1, 3]).is_err());
    }

    #[test]
    fn operation_counters() {
        let mut x = Crossbar2d::new(2, 2);
        x.program_all(&[1, 0, 0, 1]).unwrap();
        x.program_column(0, &[1, 1]).unwrap();
        let _ = x.mvm_binary(&[1, 1]).unwrap();
        assert_eq!(x.write_count(), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dims_panic() {
        let _ = Crossbar2d::new(0, 4);
    }
}
