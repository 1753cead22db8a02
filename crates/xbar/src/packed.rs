//! Bit-packed word-parallel window reads.
//!
//! The scalar read model walks a window's `kh·kw` cells one byte at a
//! time per (weight-bit, activation-bit) pair — faithful to the analog
//! physics but the simulator's single hottest loop. Because cells and
//! kernel bit-planes are both binary, the same accumulation
//! `Σ w(i,j)·x(i,j)` is computable word-parallel: pack each row of bits
//! into `u64` words, AND the window words against pre-packed kernel
//! words, and `count_ones` the result. The packed read is bit-exact with
//! the scalar loop *by construction* — `popcount(x & w) = Σ (x_j & w_j)`
//! — so the engines can switch between the two paths freely (see
//! `inca_core::exec::ReadPath`).
//!
//! Layout convention, shared by [`PackedKernel`] and
//! [`crate::VerticalPlane`]'s packed mirror: row-major rows, each row
//! padded to whole `u64` words, bit `j` of word `w` holding column
//! `64·w + j` (LSB-first). Bits beyond the row width are always zero,
//! which makes stray neighbour bits in extracted window words harmless:
//! the kernel words are zero there.
//!
//! The conv engines pack small windows tighter: the whole window as one
//! bit string ([`crate::VerticalPlane::extract_window_compact`]), read by
//! [`crate::simd::and_popcount_accumulate`].

use crate::{Result, XbarError};

/// Number of `u64` words needed to hold `bits` packed bits.
#[must_use]
pub const fn words_for(bits: usize) -> usize {
    bits.div_ceil(64)
}

/// A kernel bit-plane packed into word-parallel masks, aligned so that
/// kernel column 0 sits at bit 0 of each row's first word — the same
/// alignment [`crate::VerticalPlane::extract_window`] produces for the
/// window's leftmost column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedKernel {
    kh: usize,
    kw: usize,
    words_per_row: usize,
    /// `kh · words_per_row` words, row-major.
    words: Vec<u64>,
}

impl PackedKernel {
    /// Packs a row-major `kh × kw` kernel bit-plane. Values are masked to
    /// their LSB, matching the scalar read's `kernel[i·kw + j] & 1`.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::ShapeMismatch`] if `kernel.len() != kh·kw`,
    /// and [`XbarError::WindowOutOfBounds`] for a zero-sized kernel.
    pub fn pack(kh: usize, kw: usize, kernel: &[u8]) -> Result<Self> {
        if kh == 0 || kw == 0 {
            return Err(XbarError::WindowOutOfBounds { row: 0, col: 0, kh, kw, rows: 0, cols: 0 });
        }
        if kernel.len() != kh * kw {
            return Err(XbarError::ShapeMismatch {
                expected: format!("{kh}x{kw} = {} elements", kh * kw),
                got: kernel.len(),
            });
        }
        let words_per_row = words_for(kw);
        let mut words = vec![0u64; kh * words_per_row];
        for i in 0..kh {
            for j in 0..kw {
                if kernel[i * kw + j] & 1 == 1 {
                    words[i * words_per_row + (j >> 6)] |= 1u64 << (j & 63);
                }
            }
        }
        Ok(Self { kh, kw, words_per_row, words })
    }

    /// Kernel height in cells.
    #[must_use]
    pub fn kh(&self) -> usize {
        self.kh
    }

    /// Kernel width in cells.
    #[must_use]
    pub fn kw(&self) -> usize {
        self.kw
    }

    /// Words per packed kernel row.
    #[must_use]
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// The packed mask words, row-major (`kh · words_per_row` of them).
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// Word-parallel window dot product: `window` must be the `kh ·
/// words_per_row` words produced by
/// [`crate::VerticalPlane::extract_window`] for a window of the kernel's
/// shape. Equals the scalar `Σ w(i,j)·x(i,j)` exactly.
///
/// # Panics
///
/// Panics (debug builds) if the slice lengths differ.
#[inline]
#[must_use]
pub fn window_dot_packed(window: &[u64], kernel: &PackedKernel) -> u32 {
    debug_assert_eq!(window.len(), kernel.words.len(), "window/kernel word count mismatch");
    crate::simd::and_popcount(window, &kernel.words)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_layout_lsb_first() {
        let k = PackedKernel::pack(2, 3, &[1, 0, 1, 0, 1, 1]).unwrap();
        assert_eq!(k.words(), &[0b101, 0b110]);
        assert_eq!(k.words_per_row(), 1);
    }

    #[test]
    fn pack_masks_to_lsb() {
        // The scalar path masks kernel bytes with `& 1`; packing must too.
        let k = PackedKernel::pack(1, 2, &[2, 3]).unwrap();
        assert_eq!(k.words(), &[0b10]);
    }

    #[test]
    fn wide_kernel_spans_words() {
        let mut bits = vec![0u8; 70];
        bits[0] = 1;
        bits[63] = 1;
        bits[64] = 1;
        bits[69] = 1;
        let k = PackedKernel::pack(1, 70, &bits).unwrap();
        assert_eq!(k.words_per_row(), 2);
        assert_eq!(k.words()[0], 1 | (1u64 << 63));
        assert_eq!(k.words()[1], 0b10_0001);
    }

    #[test]
    fn shape_validation() {
        assert!(PackedKernel::pack(2, 2, &[1, 0, 1]).is_err());
        assert!(PackedKernel::pack(0, 2, &[]).is_err());
    }

    #[test]
    fn dot_counts_anded_bits() {
        let k = PackedKernel::pack(2, 2, &[1, 1, 0, 1]).unwrap();
        let window = [0b11u64, 0b10u64]; // x = [1,1 / 0,1]
        assert_eq!(window_dot_packed(&window, &k), 3);
    }

    #[test]
    fn words_for_boundaries() {
        assert_eq!(words_for(1), 1);
        assert_eq!(words_for(64), 1);
        assert_eq!(words_for(65), 2);
    }
}
