use serde::{Deserialize, Serialize};

/// Digitization model for column/plane current readout.
///
/// With 1-bit cells and 1-bit (bit-serial) inputs, every selected cell
/// contributes a current of either `I_on` or `I_off`; the accumulated sum is
/// an integer count of on-cells plus a small off-cell pedestal. The ADC
/// quantizes that count, saturating at `2^bits - 1`.
///
/// INCA's claim (§IV-C): a 16×16 array evaluating a 3×3 kernel accumulates
/// at most 9 binary products, so a 4-bit ADC (max 15) digitizes it exactly.
/// The baseline's 128-row columns need 8 bits.
///
/// # Examples
///
/// ```
/// use inca_xbar::AdcReadout;
///
/// let adc = AdcReadout::new(4);
/// assert_eq!(adc.digitize(9), 9);   // exact for a 3x3 window
/// assert_eq!(adc.digitize(99), 15); // saturates
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AdcReadout {
    bits: u8,
}

impl AdcReadout {
    /// Creates a readout of `bits` precision.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or above 16.
    #[must_use]
    pub fn new(bits: u8) -> Self {
        assert!((1..=16).contains(&bits), "ADC precision must be 1..=16 bits");
        Self { bits }
    }

    /// Bit precision.
    #[must_use]
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Maximum representable code.
    #[must_use]
    pub fn max_code(&self) -> u32 {
        (1u32 << self.bits) - 1
    }

    /// Quantizes an integer accumulation, saturating at the maximum code.
    ///
    /// Telemetry: one [`AdcConversion`](inca_telemetry::Event::AdcConversion)
    /// per call — this is the single point where plane/window sums meet an
    /// ADC, so conversions on the IS path are counted here rather than at
    /// the read site.
    #[must_use]
    pub fn digitize(&self, count: u32) -> u32 {
        inca_telemetry::incr(inca_telemetry::Event::AdcConversion);
        count.min(self.max_code())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturation() {
        let adc = AdcReadout::new(4);
        assert_eq!(adc.digitize(15), 15);
        assert_eq!(adc.digitize(16), 15);
        assert_eq!(adc.digitize(0), 0);
    }

    #[test]
    #[should_panic(expected = "1..=16")]
    fn zero_bits_panics() {
        let _ = AdcReadout::new(0);
    }
}
