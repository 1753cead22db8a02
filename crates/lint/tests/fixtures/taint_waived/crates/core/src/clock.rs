//! A wall-clock source held back by a barrier one hop downstream.
pub(crate) fn stamp() -> u64 {
    let t = std::time::Instant::now();
    t.elapsed().as_nanos() as u64
}
