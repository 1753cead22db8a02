/// Named only by another file of this crate.
pub fn factor() -> u32 {
    2
}
