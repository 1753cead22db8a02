pub fn old_scale() -> u32 {
    1
}
