//! Hardware event telemetry for the INCA simulation stack.
//!
//! Every energy/latency number in the paper is event accounting: how
//! many ADC conversions, read pulses, programming pulses, and buffer /
//! DRAM transactions happened, times a circuit constant. This crate is
//! the recording substrate that lets the *functional* engines
//! (`inca-xbar`, `inca-core`) report those events from real execution,
//! so they can be profiled and cross-checked against the *analytical*
//! model in `inca-sim`.
//!
//! Five pieces:
//!
//! * **Captures** ([`capture`], [`current`], [`Handle`]) — a capture
//!   runs a closure and owns every event recorded inside it, on its
//!   thread and on the worker threads that enter it. Nothing is recorded
//!   outside a capture, so concurrent measurements never mix.
//! * **Counters** ([`record`], [`incr`], [`Event`]) — exact per-capture
//!   totals, with an uncaptured path of one thread-local load and a
//!   branch, cheap enough for the innermost crossbar read loop.
//! * **Spans** ([`span`]) — RAII wall-clock scopes with per-thread
//!   parent nesting, aggregated into the capture's span tree and
//!   buffered as individual trace events.
//! * **Export** ([`Snapshot`], [`chrome_trace_json`]) — JSON and aligned
//!   plain-text rendering of a capture, and a Chrome trace-event file for
//!   `chrome://tracing` / Perfetto.
//! * **Observability primitives** ([`LogLinearHist`], [`TimeSeries`]) —
//!   deterministic HDR-style latency histograms and columnar time-series
//!   capture, the substrate under the serving layer's `OBS_*` artifacts
//!   (DESIGN.md §11).
//!
//! The crate is deliberately **std-only**: every other crate in the
//! workspace links it, and the count sites sit on hot paths.
//!
//! # Example
//!
//! ```
//! use inca_telemetry as tel;
//!
//! tel::record(tel::Event::XbarReadPulse, 5); // outside any capture: not recorded
//! let (reads, snap) = tel::capture(|| {
//!     let _phase = tel::span("conv.forward");
//!     tel::record(tel::Event::XbarReadPulse, 128);
//!     tel::incr(tel::Event::AdcConversion);
//!     128
//! });
//! assert_eq!(snap.get(tel::Event::XbarReadPulse), reads);
//! println!("{}", snap.counter_table());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod capture;
mod event;
mod export;
mod hist;
mod snapshot;
mod span;
mod timeseries;

pub use capture::{capture, current, incr, record, Handle};
pub use event::{Event, ALL_EVENTS, EVENT_COUNT};
pub use export::chrome_trace_json;
pub use hist::{LogLinearHist, DEFAULT_SUB_BITS};
pub use snapshot::Snapshot;
pub use span::{span, SpanGuard, SpanStats, TRACE_CAPACITY};
pub use timeseries::TimeSeries;
