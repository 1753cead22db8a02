//! `inca-net`: a discrete-event datacenter network for fleet-scale
//! serving.
//!
//! The serving simulator's fleet story ("sustainable rps per rack under
//! a tail SLO") is a network story: hundreds of chips behind dispatchers
//! only matter once requests, responses and weight transfers contend for
//! links and switch queues. This crate models that fabric in the same
//! integer-virtual-time discrete-event framework as `inca-events`:
//!
//! * [`topo`] — fat-tree and leaf-spine builders parameterized by radix,
//!   link [`inca_units::Bandwidth`] and per-hop latency;
//! * [`queue`] / [`link`] — drop-tail FIFO egress queues with
//!   bandwidth-delay serialization of sized packets, plus an
//!   ECN-marking variant, collapsed to O(1) `busy_until` state per link
//!   and decided on integers per offer;
//! * [`route`] — all-shortest-paths tables with deterministic ECMP via
//!   stable flow hashing and rank-select over equal-cost candidates
//!   (storage order provably inert), plus a canonical shortest-path
//!   mode;
//! * [`flow`] — sized transfers under a DCTCP-style congestion window
//!   reacting to ECN marks, with RTO-based loss recovery;
//! * [`network`] — the engine: [`network::Network`] drives flows hop by
//!   hop against an *external* event queue through the
//!   [`network::NetScheduler`] trait, so the embedding simulator owns
//!   one shared `(time, seq)`-ordered event list.
//!
//! Everything is deterministic by construction — integer virtual time,
//! stable hashing, rank-based ECMP, no wall clock, no HashMap iteration
//! — so fleet reports built on top are byte-reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flow;
pub mod link;
pub mod network;
pub mod queue;
pub mod route;
pub mod topo;

pub use flow::{DctcpConfig, FlowSpec};
pub use link::{LinkCounters, LinkState};
pub use network::{Delivery, NetConfig, NetEv, NetScheduler, NetTotals, Network};
pub use queue::{QueueConfig, QueueDiscipline};
pub use route::{RouteMode, RouteTable};
pub use topo::{LinkDef, LinkId, LinkSpec, LinkTier, NodeId, Topology, ALL_TIERS, TIER_COUNT};
