use serde::{Deserialize, Serialize};

/// A bus of fixed width connecting PIM macros to buffers/DRAM.
///
/// The paper quantifies memory traffic in *bus transfers* (Eqs 5 and 6):
/// moving `n` values of `p` bits each over a `w`-bit bus costs
/// `ceil(n·p / w)` transfers. Both architectures use a 256-bit buffer port
/// (Table II).
///
/// # Examples
///
/// ```
/// use inca_circuit::Bus;
///
/// let bus = Bus::new(256);
/// // Eq. 5 for a 3x3 kernel over 3 channels at 16-bit:
/// assert_eq!(bus.transfers(3 * 3 * 3, 16), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Bus {
    width_bits: u32,
}

impl Bus {
    /// Creates a bus of `width_bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width_bits` is zero.
    #[must_use]
    pub fn new(width_bits: u32) -> Self {
        assert!(width_bits > 0, "bus width must be positive");
        Self { width_bits }
    }

    /// The paper's 256-bit buffer port.
    #[must_use]
    pub fn paper_default() -> Self {
        Self::new(256)
    }

    /// Bus width in bits.
    #[must_use]
    pub fn width_bits(&self) -> u32 {
        self.width_bits
    }

    /// Number of transfers to move `elements` values of `bit_precision` bits:
    /// `ceil(elements · bit_precision / width)`.
    #[must_use]
    pub fn transfers(&self, elements: u64, bit_precision: u32) -> u64 {
        let bits = elements * u64::from(bit_precision);
        bits.div_ceil(u64::from(self.width_bits))
    }

    /// Number of transfers for a raw bit count.
    #[must_use]
    pub(crate) fn transfers_for_bits(&self, bits: u64) -> u64 {
        bits.div_ceil(u64::from(self.width_bits))
    }
}

impl Default for Bus {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_division() {
        let bus = Bus::new(256);
        assert_eq!(bus.transfers(1, 8), 1); // 8 bits still needs one beat
        assert_eq!(bus.transfers(32, 8), 1); // exactly one beat
        assert_eq!(bus.transfers(33, 8), 2);
        assert_eq!(bus.transfers(0, 8), 0);
    }

    #[test]
    fn eq5_vgg_first_layer_16bit() {
        // ceil(3·3·3·16 / 256) = ceil(432/256) = 2 — §III-B example.
        let bus = Bus::paper_default();
        assert_eq!(bus.transfers(27, 16), 2);
    }

    #[test]
    fn eq5_at_8bit_halves_wide_fetches() {
        let bus = Bus::paper_default();
        // 3·3·64 elements: 18 transfers at 8-bit vs 36 at 16-bit.
        assert_eq!(bus.transfers(576, 8), 18);
        assert_eq!(bus.transfers(576, 16), 36);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_panics() {
        let _ = Bus::new(0);
    }

    #[test]
    fn transfers_for_bits_agrees() {
        let bus = Bus::new(64);
        assert_eq!(bus.transfers_for_bits(65), 2);
        assert_eq!(bus.transfers(13, 5), bus.transfers_for_bits(65));
    }
}
