//! Waived: nothing calls it yet, and the waiver names the consumer.
// lint: allow(dead-pub) consumer: the ROADMAP calibration item.
pub fn calibrate(raw: u32) -> u32 {
    raw
}
