//! Waived: an oracle the integration tests need, named in the waiver.
// lint: allow(narrow-pub) needed by: crates/meter/tests/oracle.rs
pub fn oracle(raw: u32) -> u32 {
    raw * 2
}
