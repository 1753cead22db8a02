//! Middle of the chain, declared a taint barrier.
// The timestamp only seeds a jitter budget that is quantized away
// before serialization. lint: allow(determinism-taint)
pub(crate) fn summarize() -> u64 {
    crate::clock::stamp() / 2
}
