/// Named in `Meter::read`'s signature, which is live.
pub struct Reading(pub u32);
