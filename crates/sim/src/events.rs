//! Analytical hardware-event model of the input-stationary functional
//! engines.
//!
//! [`conv_forward_events`] predicts, from layer geometry alone, how many
//! crossbar read pulses, ADC conversions, DAC drives, bit-serial cycles
//! and RRAM programming pulses one `HwConv`-style forward pass must
//! issue. The functional engines in `inca-core` *count* the same events
//! through `inca-telemetry` as they execute; the two paths are
//! independent (this module never touches the crossbar code), so their
//! agreement is a cross-check of both — see
//! `tests/telemetry_cross_validation.rs` at the workspace root.
//!
//! Derivation (one single-sample forward, differential-pair weights):
//!
//! * every output element reads one `k x k` window per input channel per
//!   differential side, bit-serially over every (weight-bit,
//!   activation-bit) pair → `oh * ow * cout * cin * 2 * wbits * dbits`
//!   window reads, each of which is one read pulse, one bit-serial
//!   cycle, and one ADC conversion;
//! * each window read drives `k * k` word lines (one DAC pulse per
//!   kernel cell);
//! * (re)programming the activation writes `dbits` bit-planes per
//!   partition tile per input channel, one programming pulse each.

/// Geometry of one convolution layer as executed by the functional
/// input-stationary engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeometry {
    /// Input channels.
    pub cin: usize,
    /// Output channels.
    pub cout: usize,
    /// Input height (pre-padding).
    pub h: usize,
    /// Input width (pre-padding).
    pub w: usize,
    /// Square kernel side.
    pub k: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding per border.
    pub pad: usize,
    /// Crossbar subarray side the activation is partitioned into
    /// (16 in the paper).
    pub tile_side: usize,
}

/// Predicted event counts for one forward pass, including the
/// programming of its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FunctionalEvents {
    /// Crossbar read pulses (one per bit-serial window read).
    pub read_pulses: u64,
    /// ADC conversions (one per window read on the IS path).
    pub adc_conversions: u64,
    /// DAC word-line drives (`k * k` per window read).
    pub dac_drives: u64,
    /// Bit-serial cycles (one per (weight-bit, activation-bit) pair).
    pub bit_serial_cycles: u64,
    /// RRAM programming pulses to write the activation bit-planes
    /// (paid at every forward: each forward programs its input).
    pub program_pulses: u64,
}

/// Number of tile positions the halo-overlapped partitioner places along
/// one padded dimension. Mirrors the engine's partition loop: tiles
/// start every `side - (k - 1)` elements and the last tile is the one
/// that reaches the edge.
#[must_use]
pub fn tiles_along(padded: usize, side: usize, k: usize) -> u64 {
    let step = side - (k - 1);
    let mut n = 0u64;
    let mut start = 0usize;
    loop {
        n += 1;
        let tile = side.min(padded - start);
        if start + tile >= padded {
            return n;
        }
        start += step;
    }
}

/// Predicts the event counts of one `HwConv`-style forward pass of one
/// sample. A batch of B on the planes of the 3D stacks multiplies the
/// read pulses, ADC conversions and programming pulses by B; DAC drives
/// and bit-serial cycles are per shared-pillar broadcast and stay as
/// predicted.
///
/// `weight_bits` and `data_bits` are the bit-serial precisions
/// (`inca_core::WEIGHT_BITS` / `inca_core::DATA_BITS` in the functional
/// engines).
#[must_use]
pub fn conv_forward_events(g: &ConvGeometry, weight_bits: u32, data_bits: u32) -> FunctionalEvents {
    let ph = g.h + 2 * g.pad;
    let pw = g.w + 2 * g.pad;
    let oh = (ph - g.k) / g.stride + 1;
    let ow = (pw - g.k) / g.stride + 1;

    // Window reads: every output element, per input channel, per
    // differential side (pos/neg), per (weight-bit, activation-bit) pair.
    let window_reads = (oh * ow * g.cout * g.cin * 2) as u64 * u64::from(weight_bits) * u64::from(data_bits);

    let tiles = tiles_along(ph, g.tile_side, g.k) * tiles_along(pw, g.tile_side, g.k);
    FunctionalEvents {
        read_pulses: window_reads,
        adc_conversions: window_reads,
        dac_drives: window_reads * (g.k * g.k) as u64,
        bit_serial_cycles: window_reads,
        program_pulses: g.cin as u64 * tiles * u64::from(data_bits),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiles_along_matches_hand_counts() {
        // 16-wide tiles with 3x3 halo step 14: an 18-wide padded map
        // needs two tiles (0..16, 14..18); 16 needs one; 30 needs two;
        // 31 needs three.
        assert_eq!(tiles_along(16, 16, 3), 1);
        assert_eq!(tiles_along(18, 16, 3), 2);
        assert_eq!(tiles_along(30, 16, 3), 2);
        assert_eq!(tiles_along(31, 16, 3), 3);
    }

    #[test]
    fn conv_forward_events_small_layer() {
        // 2->3 channels, 3x3 on 8x8, stride 1 pad 1 -> 8x8 output.
        let g = ConvGeometry { cin: 2, cout: 3, h: 8, w: 8, k: 3, stride: 1, pad: 1, tile_side: 16 };
        let ev = conv_forward_events(&g, 7, 8);
        let reads = 8 * 8 * 3 * 2 * 2 * 7 * 8;
        assert_eq!(ev.read_pulses, reads);
        assert_eq!(ev.adc_conversions, reads);
        assert_eq!(ev.bit_serial_cycles, reads);
        assert_eq!(ev.dac_drives, reads * 9);
        // Padded 10x10 fits one 16x16 tile per channel, 8 bit-planes.
        assert_eq!(ev.program_pulses, 2 * 8);
    }

    #[test]
    fn stride_and_padding_shrink_the_output() {
        let g = ConvGeometry { cin: 1, cout: 1, h: 8, w: 8, k: 3, stride: 2, pad: 0, tile_side: 16 };
        // floor((8-3)/2)+1 = 3 output rows/cols.
        let ev = conv_forward_events(&g, 7, 8);
        assert_eq!(ev.read_pulses, 3 * 3 * 2 * 7 * 8);
    }
}
