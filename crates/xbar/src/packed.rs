//! Bit-packed window reads.
//!
//! The scalar read model walks a window's `kh·kw` cells one byte at a
//! time per (weight-bit, activation-bit) pair — faithful to the analog
//! physics but slow. Because cells and kernel bit-planes are both binary,
//! the same accumulation `Σ w(i,j)·x(i,j)` is computable word-parallel: a
//! `k × k` window's cells of one activation bit go into one *compact* bit
//! string, window cell `(i, j)` at bit `i·k + j` (LSB-first across the
//! words), in [`words_for`]`(k²)` `u64`s — one word for every `k ≤ 8` —
//! with every bit past `k²` clear. The conv engine cuts these strings
//! straight from its programmed 8-bit codes, never from a
//! [`crate::VerticalPlane`], and [`crate::simd::and_popcount_accumulate`]
//! ANDs them against kernel masks packed to the same layout and
//! popcounts. The packed read is bit-exact with the byte loop *by
//! construction*: `popcount(x & w) = Σ (x_j & w_j)`.

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
