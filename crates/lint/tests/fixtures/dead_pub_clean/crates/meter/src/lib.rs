//! Clean: every public item has a caller outside its own tests.
mod reading;

pub use reading::Reading;

pub struct Meter {
    scale: u32,
}

impl Meter {
    pub fn new(scale: u32) -> Self {
        Self { scale }
    }

    pub fn read(&self, raw: u32) -> Reading {
        Reading(raw * self.scale)
    }
}
