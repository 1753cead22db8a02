//! Violating: each public item is live, but nothing outside the crate
//! names it except tests and benches.
mod scale;

/// Named only by an integration test and a bench.
pub fn oracle(raw: u32) -> u32 {
    raw * 2
}

/// Named only in this file.
pub fn offset() -> u32 {
    1
}

fn read(raw: u32) -> u32 {
    raw * scale::factor() + offset()
}
