//! Fixed-point bit-plane helpers for bit-serial PIM computation.
//!
//! Both architectures store 1-bit cells and recombine multi-bit values
//! digitally (§IV-C): an 8-bit activation occupies 8 bit-planes, the weight
//! is streamed bit-serially, and partial sums are merged with a
//! shift-accumulator. These helpers implement the exact integer
//! decomposition/recomposition so functional tests can prove the analog
//! pipeline computes true integer convolutions.

/// Splits an unsigned value into `bits` LSB-first bit planes.
///
/// # Examples
///
/// ```
/// use inca_xbar::quant::to_bit_planes;
///
/// assert_eq!(to_bit_planes(13, 4), vec![1, 0, 1, 1]);
/// ```
#[must_use]
pub fn to_bit_planes(value: u32, bits: u8) -> Vec<u8> {
    (0..bits).map(|b| ((value >> b) & 1) as u8).collect()
}

/// Splits a slice of unsigned values into `bits` bit-plane slices:
/// `result[b][i]` is bit `b` of `values[i]`.
#[must_use]
pub fn slice_to_bit_planes(values: &[u32], bits: u8) -> Vec<Vec<u8>> {
    (0..bits).map(|b| values.iter().map(|&v| ((v >> b) & 1) as u8).collect()).collect()
}

/// Computes the integer dot product of two unsigned vectors via the full
/// bit-serial pipeline: input bit-planes × weight bit-planes, recombined by
/// double shift-accumulation. This is exactly what the PIM hardware
/// evaluates; it must equal the direct integer dot product.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
// Needed by crates/bench/benches/kernels_bench.rs (the bit-serial dot baseline)
// lint: allow(narrow-pub)
pub fn bit_serial_dot(xs: &[u32], ws: &[u32], x_bits: u8, w_bits: u8) -> u64 {
    assert_eq!(xs.len(), ws.len(), "operand lengths must match");
    let x_planes = slice_to_bit_planes(xs, x_bits);
    let w_planes = slice_to_bit_planes(ws, w_bits);
    let mut total = 0u64;
    for (wb, wp) in w_planes.iter().enumerate() {
        for (xb, xp) in x_planes.iter().enumerate() {
            let partial: u64 = xp.iter().zip(wp).map(|(&x, &w)| u64::from(x & w)).sum();
            total += partial << (wb + xb);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_plane_roundtrip() {
        for v in [0u32, 1, 13, 127, 200, 255] {
            let planes = to_bit_planes(v, 8);
            let back: u64 = planes.iter().enumerate().map(|(i, &b)| u64::from(b) << i).sum();
            assert_eq!(back, u64::from(v));
        }
    }

    #[test]
    fn slice_planes_layout() {
        let planes = slice_to_bit_planes(&[1, 2, 3], 2);
        assert_eq!(planes[0], vec![1, 0, 1]); // LSBs
        assert_eq!(planes[1], vec![0, 1, 1]); // MSBs
    }

    #[test]
    fn bit_serial_dot_equals_integer_dot() {
        let xs = [200u32, 13, 0, 255, 7];
        let ws = [3u32, 255, 9, 1, 128];
        let expected: u64 = xs.iter().zip(&ws).map(|(&x, &w)| u64::from(x) * u64::from(w)).sum();
        assert_eq!(bit_serial_dot(&xs, &ws, 8, 8), expected);
    }

    #[test]
    fn bit_serial_dot_mixed_precision() {
        let xs = [5u32, 2, 7];
        let ws = [3u32, 1, 2];
        let expected: u64 = xs.iter().zip(&ws).map(|(&x, &w)| u64::from(x) * u64::from(w)).sum();
        assert_eq!(bit_serial_dot(&xs, &ws, 3, 2), expected);
    }

    #[test]
    #[should_panic(expected = "lengths")]
    fn mismatched_lengths_panic() {
        let _ = bit_serial_dot(&[1], &[1, 2], 8, 8);
    }
}
