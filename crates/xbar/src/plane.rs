use inca_device::{DeviceParams, NoiseModel};
use inca_telemetry::Event;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::packed::words_for;
use crate::{Result, XbarError};

/// One 2T1R vertical plane of the INCA architecture (§IV-A, Fig 8).
///
/// The plane stores one bit-plane of an input/activation partition. Its two
/// distinguishing hardware features, both modelled here:
///
/// * **Per-cell voltage supply** — every cell has its own pillar, so during
///   a read the kernel value for the cell's position in the window is
///   applied directly ("all written inputs and applied weights are given as
///   their original shape").
/// * **Two perpendicular select lines** — a rectangular window
///   `[row, row+kh) × [col, col+kw)` is activated by turning on `kh`
///   horizontal and `kw` vertical transistor lines; cells outside the
///   window have at least one transistor off and contribute nothing.
///
/// All columns are tied at the bottom, so one read cycle produces the full
/// window accumulation `Σ w(i,j) · x(row+i, col+j)` — a direct convolution
/// without unrolling.
///
/// Cells are 1-bit (Table II); multi-bit activations use one plane per bit
/// plus a shift-accumulator (see [`crate::quant`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VerticalPlane {
    rows: usize,
    cols: usize,
    /// Stored bit per cell (normalized conductance 0 or 1).
    cells: Vec<u8>,
    /// Word-packed mirror of `cells`: `words_per_row` `u64`s per row, bit
    /// `j` of word `w` holding column `64·w + j` (LSB-first); bits beyond
    /// `cols` stay zero. Kept in sync by every write, it serves the
    /// word-parallel read ([`VerticalPlane::extract_window_compact`]).
    packed: Vec<u64>,
    words_per_row: usize,
    /// Cumulative write pulses (endurance accounting).
    writes: u64,
}

impl VerticalPlane {
    /// Creates an all-off plane of `rows × cols` cells.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "plane dimensions must be positive");
        let words_per_row = words_for(cols);
        Self {
            rows,
            cols,
            cells: vec![0; rows * cols],
            packed: vec![0; rows * words_per_row],
            words_per_row,
            writes: 0,
        }
    }

    /// The paper's 16×16 subarray (Table II).
    #[must_use]
    pub fn paper_default() -> Self {
        Self::new(16, 16)
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

    /// Total write pulses issued to this plane.
    #[must_use]
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    /// Writes a full bit image (row-major, values 0/1) in a single write
    /// cycle — the one-shot write scheme of Fig 8c (all transistors on,
    /// bottom plane grounded).
    ///
    /// # Errors
    ///
    /// * [`XbarError::ShapeMismatch`] if `bits.len() != rows·cols`.
    /// * [`XbarError::ValueOutOfRange`] if any value is not 0 or 1.
    pub fn write_bits(&mut self, bits: &[u8]) -> Result<()> {
        self.load_bits(bits)?;
        // One write pulse programs the whole plane simultaneously, but every
        // cell receives a pulse — endurance counts per-cell wear.
        self.writes += 1;
        inca_telemetry::incr(Event::RramProgramPulse);
        Ok(())
    }

    /// A `rows × cols` plane holding `bits` (row-major, values 0/1)
    /// without a write: neither [`VerticalPlane::write_count`] nor the
    /// telemetry moves. For simulators that keep programmed cells in
    /// another form: they count each one-shot write with
    /// [`VerticalPlane::record_writes`] when it happens and materialize
    /// the plane only when a bit-level read needs it.
    ///
    /// # Errors
    ///
    /// Same as [`VerticalPlane::write_bits`].
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn from_bits(rows: usize, cols: usize, bits: &[u8]) -> Result<Self> {
        let mut plane = Self::new(rows, cols);
        plane.load_bits(bits)?;
        Ok(plane)
    }

    /// Records the [`Event::RramProgramPulse`]s of `planes` one-shot
    /// plane writes ([`VerticalPlane::write_bits`]) whose cells the
    /// caller keeps without materializing the planes.
    pub fn record_writes(planes: u64) {
        inca_telemetry::record(Event::RramProgramPulse, planes);
    }

    /// Validates a full bit image and stores it and its packed mirror,
    /// uncounted.
    fn load_bits(&mut self, bits: &[u8]) -> Result<()> {
        if bits.len() != self.cells.len() {
            return Err(XbarError::ShapeMismatch {
                expected: format!("{}x{} = {} elements", self.rows, self.cols, self.cells.len()),
                got: bits.len(),
            });
        }
        if let Some(&bad) = bits.iter().find(|&&b| b > 1) {
            return Err(XbarError::ValueOutOfRange { value: i64::from(bad), bits: 1 });
        }
        self.cells.copy_from_slice(bits);
        let (cols, wpr) = (self.cols, self.words_per_row);
        for (row, words) in self.cells.chunks_exact(cols).zip(self.packed.chunks_exact_mut(wpr)) {
            words.fill(0);
            for (j, &cell) in row.iter().enumerate() {
                if cell & 1 == 1 {
                    words[j >> 6] |= 1u64 << (j & 63);
                }
            }
        }
        Ok(())
    }

    /// Reads back the stored bit at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    #[must_use]
    pub fn bit(&self, row: usize, col: usize) -> u8 {
        self.cells[row * self.cols + col]
    }

    /// Performs one direct-convolution read: activates the window
    /// `[row, row+kh) × [col, col+kw)`, applies the kernel bit-plane
    /// (row-major, values 0/1) to the pillars, and returns the one-shot
    /// accumulated count `Σ w·x`.
    ///
    /// Telemetry: one [`Event::XbarReadPulse`] plus `kh·kw`
    /// [`Event::DacDrive`]s (one pillar driver per kernel position). The
    /// downstream conversion is counted where the sum is digitized
    /// ([`crate::AdcReadout::digitize`]), not here. The read path is
    /// `&self` and stays `Send + Sync` — counters are global atomics.
    ///
    /// # Errors
    ///
    /// * [`XbarError::WindowOutOfBounds`] if the window does not fit.
    /// * [`XbarError::ShapeMismatch`] if `kernel.len() != kh·kw`.
    pub fn direct_conv_window(
        &self,
        row: usize,
        col: usize,
        kh: usize,
        kw: usize,
        kernel: &[u8],
    ) -> Result<u32> {
        inca_telemetry::incr(Event::XbarReadPulse);
        inca_telemetry::record(Event::DacDrive, (kh * kw) as u64);
        self.conv_window_sum(row, col, kh, kw, kernel)
    }

    /// The uncounted *scalar* window accumulation: a per-cell byte loop,
    /// the reference model of the analog read. [`crate::Stack3d`] reads
    /// every plane through this and does its own event accounting,
    /// because its pillar drivers are *shared* across the stack (one DAC
    /// set per broadcast, not per plane). Callers that coalesce their own
    /// telemetry read through this or the packed mirror
    /// ([`VerticalPlane::extract_window_compact`]).
    ///
    /// # Errors
    ///
    /// * [`XbarError::WindowOutOfBounds`] if the window does not fit.
    /// * [`XbarError::ShapeMismatch`] if `kernel.len() != kh·kw`.
    pub fn conv_window_sum(
        &self,
        row: usize,
        col: usize,
        kh: usize,
        kw: usize,
        kernel: &[u8],
    ) -> Result<u32> {
        self.check_window(row, col, kh, kw)?;
        if kernel.len() != kh * kw {
            return Err(XbarError::ShapeMismatch {
                expected: format!("{kh}x{kw} = {} elements", kh * kw),
                got: kernel.len(),
            });
        }
        let mut acc = 0u32;
        for i in 0..kh {
            for j in 0..kw {
                let x = self.cells[(row + i) * self.cols + col + j];
                let w = kernel[i * kw + j] & 1;
                acc += u32::from(x & w);
            }
        }
        Ok(acc)
    }

    /// One 64-bit chunk of row `row` starting at bit (column) `bit0`,
    /// read from the packed mirror. Columns past the row end come back as
    /// zero bits.
    #[inline]
    fn row_chunk(&self, row: usize, bit0: usize) -> u64 {
        let base = row * self.words_per_row;
        let w = bit0 >> 6;
        let off = bit0 & 63;
        let lo = self.packed[base + w] >> off;
        if off == 0 || w + 1 >= self.words_per_row {
            lo
        } else {
            lo | (self.packed[base + w + 1] << (64 - off))
        }
    }

    /// Extracts the window `[row, row+kh) × [col, col+kw)` as one
    /// contiguous bit string in `dst`: window cell `(i, j)` lands at bit
    /// `i·kw + j` (LSB-first across the words), so a `k × k` window
    /// fills `⌈k²/64⌉` words — one word for every `k ≤ 8`. Bits past
    /// `kh·kw` are zero. Kernel masks packed to the same layout make a
    /// whole window read one AND+popcount per word (see
    /// [`crate::simd::and_popcount_accumulate`]).
    ///
    /// # Errors
    ///
    /// * [`XbarError::WindowOutOfBounds`] if the window does not fit.
    /// * [`XbarError::ShapeMismatch`] if `dst` is not
    ///   `words_for(kh·kw)` words long.
    pub fn extract_window_compact(
        &self,
        row: usize,
        col: usize,
        kh: usize,
        kw: usize,
        dst: &mut [u64],
    ) -> Result<()> {
        self.check_window(row, col, kh, kw)?;
        if dst.len() != words_for(kh * kw) {
            return Err(XbarError::ShapeMismatch {
                expected: format!("{} words for a {kh}x{kw} window", words_for(kh * kw)),
                got: dst.len(),
            });
        }
        if let [word] = dst {
            // At most 64 cells: each row is one chunk at bit `i·kw`.
            let row_mask = u64::MAX >> (64 - kw);
            *word = (0..kh).fold(0, |acc, i| acc | (self.row_chunk(row + i, col) & row_mask) << (i * kw));
            return Ok(());
        }
        dst.fill(0);
        for i in 0..kh {
            // Each row goes in 64-column pieces; a piece of `n` bits at
            // bit `pos` straddles two words when `pos % 64 + n > 64`.
            for piece in (0..kw).step_by(64) {
                let n = (kw - piece).min(64);
                let bits = self.row_chunk(row + i, col + piece) & (u64::MAX >> (64 - n));
                let pos = i * kw + piece;
                let (w, off) = (pos >> 6, pos & 63);
                dst[w] |= bits << off;
                if off + n > 64 {
                    dst[w + 1] |= bits >> (64 - off);
                }
            }
        }
        Ok(())
    }

    /// The *analog* current accumulated for a window read, including the
    /// off-cell pedestal and optional device noise — used to validate that
    /// digitization thresholds are robust.
    ///
    /// # Errors
    ///
    /// Same as [`VerticalPlane::direct_conv_window`].
    #[allow(clippy::too_many_arguments)] // the full physical read: window + device + noise
    pub fn analog_conv_current<R: Rng + ?Sized>(
        &self,
        row: usize,
        col: usize,
        kh: usize,
        kw: usize,
        kernel: &[u8],
        params: &DeviceParams,
        noise: &NoiseModel,
        rng: &mut R,
    ) -> Result<f64> {
        inca_telemetry::incr(Event::XbarReadPulse);
        inca_telemetry::record(Event::DacDrive, (kh * kw) as u64);
        self.check_window(row, col, kh, kw)?;
        if kernel.len() != kh * kw {
            return Err(XbarError::ShapeMismatch {
                expected: format!("{kh}x{kw} = {} elements", kh * kw),
                got: kernel.len(),
            });
        }
        let mut current = 0.0;
        for i in 0..kh {
            for j in 0..kw {
                let w = kernel[i * kw + j] & 1;
                if w == 0 {
                    continue; // pillar not driven
                }
                let x = self.cells[(row + i) * self.cols + col + j];
                let g = if x == 1 { params.g_on() } else { params.g_off() };
                let g = noise.apply(g, rng).max(0.0);
                current += params.read_voltage * g;
            }
        }
        Ok(current)
    }

    /// Number of cells whose stored bit is 1.
    #[must_use]
    pub fn popcount(&self) -> usize {
        self.cells.iter().filter(|&&b| b == 1).count()
    }

    fn check_window(&self, row: usize, col: usize, kh: usize, kw: usize) -> Result<()> {
        if kh == 0 || kw == 0 || row + kh > self.rows || col + kw > self.cols {
            return Err(XbarError::WindowOutOfBounds { row, col, kh, kw, rows: self.rows, cols: self.cols });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn plane_with(bits: &[u8], rows: usize, cols: usize) -> VerticalPlane {
        let mut p = VerticalPlane::new(rows, cols);
        p.write_bits(bits).unwrap();
        p
    }

    #[test]
    fn write_then_read_bits() {
        let p = plane_with(&[1, 0, 0, 1], 2, 2);
        assert_eq!(p.bit(0, 0), 1);
        assert_eq!(p.bit(0, 1), 0);
        assert_eq!(p.bit(1, 1), 1);
        assert_eq!(p.popcount(), 2);
    }

    #[test]
    fn direct_conv_matches_reference() {
        // 3x3 image, 2x2 kernel, all four windows.
        let img = [1, 1, 0, 0, 1, 1, 1, 0, 1];
        let p = plane_with(&img, 3, 3);
        let k = [1, 0, 1, 1];
        let reference = |r: usize, c: usize| -> u32 {
            let mut s = 0;
            for i in 0..2 {
                for j in 0..2 {
                    s += u32::from(img[(r + i) * 3 + c + j] * k[i * 2 + j]);
                }
            }
            s
        };
        for r in 0..2 {
            for c in 0..2 {
                assert_eq!(p.direct_conv_window(r, c, 2, 2, &k).unwrap(), reference(r, c));
            }
        }
    }

    #[test]
    fn window_out_of_bounds_rejected() {
        let p = plane_with(&[0; 16], 4, 4);
        let err = p.direct_conv_window(3, 3, 2, 2, &[1, 1, 1, 1]).unwrap_err();
        assert!(matches!(err, XbarError::WindowOutOfBounds { .. }));
        assert!(p.direct_conv_window(0, 0, 0, 1, &[]).is_err());
    }

    #[test]
    fn kernel_shape_mismatch_rejected() {
        let p = plane_with(&[0; 16], 4, 4);
        assert!(matches!(p.direct_conv_window(0, 0, 2, 2, &[1, 1, 1]), Err(XbarError::ShapeMismatch { .. })));
    }

    #[test]
    fn write_validates_shape_and_values() {
        let mut p = VerticalPlane::new(2, 2);
        assert!(p.write_bits(&[1, 0, 1]).is_err());
        assert!(matches!(p.write_bits(&[1, 0, 2, 0]), Err(XbarError::ValueOutOfRange { value: 2, bits: 1 })));
    }

    #[test]
    fn write_counter_counts_one_pulse_per_write() {
        let mut p = VerticalPlane::new(2, 2);
        p.write_bits(&[1, 0, 0, 1]).unwrap();
        p.write_bits(&[0, 0, 0, 1]).unwrap();
        assert_eq!(p.write_count(), 2);
    }

    #[test]
    fn from_bits_holds_the_written_cells_without_a_write() {
        let bits = [1, 0, 1, 1, 0, 1, 0, 0, 1];
        let loaded = VerticalPlane::from_bits(3, 3, &bits).unwrap();
        let written = plane_with(&bits, 3, 3);
        assert_eq!(loaded.write_count(), 0);
        for (r, c) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            let mut a = [0u64; 1];
            let mut b = [0u64; 1];
            loaded.extract_window_compact(r, c, 2, 2, &mut a).unwrap();
            written.extract_window_compact(r, c, 2, 2, &mut b).unwrap();
            assert_eq!(a, b, "window ({r}, {c})");
        }
        assert!(matches!(
            VerticalPlane::from_bits(2, 2, &[1, 0, 2, 0]),
            Err(XbarError::ValueOutOfRange { value: 2, bits: 1 })
        ));
    }

    #[test]
    fn analog_current_separates_codes_without_noise() {
        let params = DeviceParams::default();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let p = plane_with(&[1, 1, 1, 0, 0, 0, 0, 0, 0], 3, 3);
        let k = [1u8; 9];
        let i = p.analog_conv_current(0, 0, 3, 3, &k, &params, &NoiseModel::none(), &mut rng).unwrap();
        // 3 on-cells + 6 off-cells.
        let expected = 3.0 * params.read_voltage * params.g_on() + 6.0 * params.read_voltage * params.g_off();
        assert!((i - expected).abs() / expected < 1e-12);
    }

    #[test]
    fn analog_current_with_noise_still_classifies_count() {
        let params = DeviceParams::default();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let noise = NoiseModel::relative(0.05);
        let p3 = plane_with(&[1, 1, 1, 0, 0, 0, 0, 0, 0], 3, 3);
        let p4 = plane_with(&[1, 1, 1, 1, 0, 0, 0, 0, 0], 3, 3);
        let k = [1u8; 9];
        let unit = params.read_voltage * params.g_on();
        for _ in 0..50 {
            let i3 = p3.analog_conv_current(0, 0, 3, 3, &k, &params, &noise, &mut rng).unwrap();
            let i4 = p4.analog_conv_current(0, 0, 3, 3, &k, &params, &noise, &mut rng).unwrap();
            // Rounding to the nearest on-current multiple recovers the count.
            assert_eq!((i3 / unit).round() as u32, 3);
            assert_eq!((i4 / unit).round() as u32, 4);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimension_panics() {
        let _ = VerticalPlane::new(0, 16);
    }

    #[test]
    fn compact_window_matches_bits_everywhere() {
        // A plane wider than one word, so row chunks straddle the packed
        // mirror's words; windows from 1 cell to k² > 64 (k = 9 puts row
        // 7 across the first word boundary) and one wider than 64 columns.
        let (rows, cols) = (11, 75);
        let bits: Vec<u8> = (0..rows * cols).map(|i| u8::from((i * 7 + i / 13) % 3 == 0)).collect();
        let p = plane_with(&bits, rows, cols);
        for (kh, kw) in [(1, 1), (3, 3), (5, 5), (8, 8), (9, 9), (11, 11), (2, 70)] {
            let mut dst = vec![0u64; words_for(kh * kw)];
            for r in 0..=rows - kh {
                for c in 0..=cols - kw {
                    p.extract_window_compact(r, c, kh, kw, &mut dst).unwrap();
                    for i in 0..kh {
                        for j in 0..kw {
                            let b = i * kw + j;
                            let got = (dst[b / 64] >> (b % 64)) & 1;
                            assert_eq!(
                                got,
                                u64::from(p.bit(r + i, c + j)),
                                "{kh}x{kw} at ({r},{c}) cell ({i},{j})"
                            );
                        }
                    }
                    // Nothing past the window's last cell.
                    let used = kh * kw;
                    let tail = if used % 64 == 0 { 0 } else { dst[used / 64] >> (used % 64) };
                    assert_eq!(tail, 0, "{kh}x{kw} at ({r},{c}) stray bits");
                }
            }
        }
        let mut dst = [0u64; 1];
        assert!(matches!(
            p.extract_window_compact(10, 0, 3, 3, &mut dst),
            Err(XbarError::WindowOutOfBounds { .. })
        ));
        assert!(matches!(
            p.extract_window_compact(0, 0, 9, 9, &mut dst),
            Err(XbarError::ShapeMismatch { .. })
        ));
    }
}
