//! Middle of the chain: launders the timestamp through a summary.
pub(crate) fn summarize() -> u64 {
    crate::clock::stamp() / 2
}
