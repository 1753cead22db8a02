//! A wall-clock source two hops away from the artifact writer.
pub(crate) fn stamp() -> u64 {
    let t = std::time::Instant::now();
    t.elapsed().as_nanos() as u64
}
