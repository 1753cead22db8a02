/// Crate-internal, so `pub(crate)`.
pub(crate) fn checked(scale: u32) -> u32 {
    scale.max(1)
}
