//! Bit-packed window reads.
//!
//! The scalar read model walks a window's `kh·kw` cells one byte at a
//! time per (weight-bit, activation-bit) pair — faithful to the analog
//! physics but slow. Because cells and kernel bit-planes are both binary,
//! the same accumulation `Σ w(i,j)·x(i,j)` is computable word-parallel:
//! [`crate::VerticalPlane`] keeps its cells mirrored in `u64` words
//! (row-major rows, each padded to whole words, bit `j` of word `w`
//! holding column `64·w + j`, LSB-first) and cuts a window out of that
//! mirror as one bit string
//! ([`crate::VerticalPlane::extract_window_compact`]);
//! [`crate::simd::and_popcount_accumulate`] ANDs it against kernel masks
//! packed to the same layout and popcounts. The packed read is bit-exact
//! with the byte loop *by construction*: `popcount(x & w) = Σ (x_j & w_j)`.

/// Number of `u64` words needed to hold `bits` packed bits.
#[must_use]
pub const fn words_for(bits: usize) -> usize {
    bits.div_ceil(64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_for_boundaries() {
        assert_eq!(words_for(1), 1);
        assert_eq!(words_for(64), 1);
        assert_eq!(words_for(65), 2);
    }
}
