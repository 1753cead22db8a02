//! Virtual time: no wall clock anywhere.
pub(crate) fn stamp(virtual_ns: u64) -> u64 {
    virtual_ns
}
