//! Shared discrete-event substrate for the INCA workspace.
//!
//! Every simulator in the workspace — the serving engine in `inca-serve`,
//! the list scheduler in `inca-sim` — advances an integer virtual clock by
//! popping the earliest pending event. This crate holds the one event-queue
//! implementation they all use, so determinism arguments live in a single
//! place:
//!
//! - [`time`]: virtual nanoseconds ([`SimTime`]) and the second/millisecond
//!   conversions the cost models need.
//! - [`queue`]: the calendar (bucket) [`EventQueue`] — O(1) schedule/pop
//!   while buckets sized to the recent event spacing hold a few events
//!   each — plus the reference [`HeapEventQueue`] it is proven
//!   order-equivalent against.
//! - [`slab`]: a generation-checked [`Slab`] arena so hot event payloads
//!   can ride as copyable keys instead of owned allocations.
//!
//! No unsafe, no wall clock, no hashing: pop order is the total order
//! `(time, seq)` where `seq` is schedule order, identical across hosts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod queue;
pub mod slab;
pub mod time;

pub use queue::{EventQueue, HeapEventQueue};
pub use slab::{Slab, SlabKey};
pub use time::{ns_to_ms, ns_to_secs, secs_to_ns, SimTime, NS_PER_SEC};
