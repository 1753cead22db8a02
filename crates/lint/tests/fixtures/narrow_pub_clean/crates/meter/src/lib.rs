//! Clean: every public item has a user outside its own crate that is
//! not a test, or is named in another public item's signature.
mod scale;

pub struct Meter {
    scale: u32,
}

/// Named only in `Meter::read`'s signature: it must stay as visible.
pub struct Reading(pub u32);

impl Meter {
    pub fn new(scale: u32) -> Self {
        Self { scale: scale::checked(scale) }
    }

    pub fn read(&self, raw: u32) -> Reading {
        Reading(raw * self.scale)
    }
}
