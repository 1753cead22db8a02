//! Request-level observability: per-request tracing, time-series
//! sampling, and SLO burn-rate monitoring over the serving engine.
//!
//! All three instruments run on **virtual time** (the engine's integer
//! nanosecond clock) and only *observe* the run — an observed run
//! produces bit-for-bit the same [`crate::RunResult`] as an unobserved
//! one, and the exported artifacts are byte-reproducible because every
//! number is formatted from integers or deterministic float paths.
//!
//! * [`TraceLog`] — Chrome trace-event JSON (`OBS_trace.json`): one
//!   track per chip plus a dispatcher track, with per-request
//!   `queue_wait` async spans, per-batch `batch_fill` / `reprogram` /
//!   `compute` complete spans, and `shed` / `response` instants.
//! * [`Sampler`] — a periodic virtual-time sampler feeding a columnar
//!   [`TimeSeries`] (`OBS_timeseries.json`): fleet queue depth,
//!   in-flight count, per-chip utilization, batch occupancy, reprogram
//!   churn and shed rate, plus the end-to-end latency distribution as a
//!   deterministic log-linear histogram.
//! * [`SloMonitor`] — an error-budget burn-rate monitor over a sliding
//!   virtual-time window, emitting merged violation windows.
//! * [`LinkUtilSeries`] — per-fabric-tier link-utilization sampling for
//!   fleet runs, fed from the network's cumulative busy-time
//!   accumulators on the same fixed virtual-time grid.

use std::collections::VecDeque;
use std::fmt::Write as _;

use inca_events::{ns_to_ms, SimTime};
use inca_net::{ALL_TIERS, TIER_COUNT};
use inca_telemetry::{self as tel, LogLinearHist, TimeSeries};

use crate::chip::{Chip, Request};
use crate::source::ModelMix;

/// What the observability layer records during a run. Each instrument
/// is enabled independently; with `trace: false`, `sample_interval_ns: 0`
/// and `slo: None` the engine behaves exactly as unobserved.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsConfig {
    /// Record the Chrome trace-event log.
    pub trace: bool,
    /// Time-series sampling interval in virtual nanoseconds; `0`
    /// disables the sampler.
    pub sample_interval_ns: SimTime,
    /// SLO burn-rate monitoring policy, when enabled.
    pub slo: Option<SloPolicy>,
}

impl ObsConfig {
    /// Every instrument on: tracing, a 10 ms sampler, and the default
    /// SLO policy.
    #[must_use]
    pub fn full() -> Self {
        Self { trace: true, sample_interval_ns: 10_000_000, slo: Some(SloPolicy::default_paper()) }
    }
}

/// An SLO expressed as an error budget plus a burn-rate alarm: "the
/// `quantile` latency stays under `target_ms`", monitored by comparing
/// the breaching fraction inside a sliding virtual-time window against
/// the budget `1 - quantile`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloPolicy {
    /// The latency quantile the objective is stated over (e.g. `0.99`).
    pub quantile: f64,
    /// Latency target for that quantile, milliseconds.
    pub target_ms: f64,
    /// Sliding window width, virtual nanoseconds.
    pub window_ns: SimTime,
    /// Burn rate (breaching fraction ÷ error budget) at or above which
    /// a violation window opens. `1.0` means "burning budget exactly as
    /// fast as allowed"; production alerting typically fires well above
    /// that.
    pub burn_threshold: f64,
    /// Minimum completions inside the window before the monitor may
    /// fire (suppresses noise at the start of a run).
    pub min_samples: usize,
}

impl SloPolicy {
    /// The serving-sweep default: p99 under 1 s (the report's
    /// sustainable-load bound), 2 s windows, firing at 2x budget burn.
    #[must_use]
    pub(crate) fn default_paper() -> Self {
        Self {
            quantile: 0.99,
            target_ms: 1000.0,
            window_ns: 2_000_000_000,
            burn_threshold: 2.0,
            min_samples: 50,
        }
    }

    /// The error budget: the fraction of requests allowed to breach.
    #[must_use]
    pub(crate) fn budget(&self) -> f64 {
        (1.0 - self.quantile).max(1e-9)
    }
}

/// One contiguous stretch of virtual time during which the burn rate
/// stayed at or above the policy threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloViolation {
    /// Virtual time the window opened, ns.
    pub start_ns: SimTime,
    /// Virtual time of the last burning completion, ns.
    pub end_ns: SimTime,
    /// Highest burn rate observed inside the window.
    pub peak_burn: f64,
    /// Breaching completions observed while the window was open.
    pub breaches: u64,
}

/// Sliding-window burn-rate monitor (driven by request completions).
#[derive(Debug)]
struct SloMonitor {
    policy: SloPolicy,
    /// `(done_ns, breached)` for completions inside the window.
    window: VecDeque<(SimTime, bool)>,
    bad_in_window: usize,
    open: Option<SloViolation>,
    violations: Vec<SloViolation>,
}

impl SloMonitor {
    fn new(policy: SloPolicy) -> Self {
        Self { policy, window: VecDeque::new(), bad_in_window: 0, open: None, violations: Vec::new() }
    }

    fn on_complete(&mut self, done_ns: SimTime, latency_ns: SimTime) {
        let breached = ns_to_ms(latency_ns) > self.policy.target_ms;
        self.window.push_back((done_ns, breached));
        self.bad_in_window += usize::from(breached);
        let horizon = done_ns.saturating_sub(self.policy.window_ns);
        while let Some(&(t, bad)) = self.window.front() {
            if t >= horizon {
                break;
            }
            self.window.pop_front();
            self.bad_in_window -= usize::from(bad);
        }
        if self.window.len() < self.policy.min_samples {
            return;
        }
        let burn = (self.bad_in_window as f64 / self.window.len() as f64) / self.policy.budget();
        if burn >= self.policy.burn_threshold {
            match &mut self.open {
                Some(v) => {
                    v.end_ns = done_ns;
                    v.peak_burn = v.peak_burn.max(burn);
                    v.breaches += u64::from(breached);
                }
                None => {
                    tel::incr(tel::Event::ServeSloViolation);
                    self.open = Some(SloViolation {
                        start_ns: done_ns,
                        end_ns: done_ns,
                        peak_burn: burn,
                        breaches: u64::from(breached),
                    });
                }
            }
        } else if let Some(v) = self.open.take() {
            self.violations.push(v);
        }
    }

    fn finish(&mut self) -> Vec<SloViolation> {
        if let Some(v) = self.open.take() {
            self.violations.push(v);
        }
        std::mem::take(&mut self.violations)
    }
}

/// The ASCII digit of `n`'s last decimal place.
fn digit(n: u64) -> char {
    // `n % 10 < 10`, so the cast is exact.
    char::from(b'0' + (n % 10) as u8)
}

/// Appends `n` in decimal.
fn push_uint(out: &mut String, mut n: u64) {
    // `u64::MAX` has 20 digits.
    let mut buf = ['0'; 20];
    let mut start = buf.len();
    loop {
        start -= 1;
        buf[start] = digit(n);
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(&buf[start..]);
}

/// Appends a virtual-time nanosecond stamp as Chrome's microsecond
/// `ts`/`dur` with exact millinano precision (`ns / 1000`, `.`, the three
/// digits of `ns % 1000`) — pure integer math, so the trace bytes cannot
/// drift.
fn push_us(out: &mut String, ns: SimTime) {
    push_uint(out, ns / 1000);
    let frac = ns % 1000;
    out.extend(['.', digit(frac / 100), digit(frac / 10), digit(frac)]);
}

/// Chrome trace-event writer: `pid` 0 is the fleet; `tid` 0 the
/// dispatcher track, `tid` `i + 1` the track of chip `i`.
#[derive(Debug)]
struct TraceLog {
    /// The `OBS_trace.json` payload so far: the opening of the
    /// `traceEvents` array and every event in emission (virtual-time)
    /// order, one per line, each after the first preceded by `,\n`.
    out: String,
}

impl TraceLog {
    fn new(chips: usize) -> Self {
        let mut out = String::from("{\"traceEvents\":[\n");
        out.push_str(r#"{"name":"process_name","ph":"M","pid":0,"args":{"name":"inca-serve fleet"}}"#);
        let mut log = Self { out };
        log.meta_thread(0, "dispatcher");
        for c in 0..chips {
            log.meta_thread(c as u64 + 1, &format!("chip {c}"));
        }
        log
    }

    /// Starts the next event: the `,\n` after the one before, then `head`,
    /// the event's first bytes. Returns the buffer for the rest.
    fn event(&mut self, head: &str) -> &mut String {
        self.out.push_str(",\n");
        self.out.push_str(head);
        &mut self.out
    }

    fn meta_thread(&mut self, tid: u64, name: &str) {
        let out = self.event(r#"{"name":"thread_name","ph":"M","pid":0,"tid":"#);
        push_uint(out, tid);
        out.push_str(r#","args":{"name":""#);
        out.push_str(name);
        out.push_str(r#""}}"#);
    }

    /// Async span open: the request entered a chip queue.
    fn queue_begin(&mut self, req: &Request, chip: usize, model: &str) {
        let out = self.event(r#"{"name":"queue_wait","cat":"request","ph":"b","id":"#);
        push_uint(out, req.id);
        out.push_str(r#","pid":0,"tid":0,"ts":""#);
        push_us(out, req.arrival_ns);
        out.push_str(r#"","args":{"model":""#);
        out.push_str(model);
        out.push_str(r#"","chip":"#);
        push_uint(out, chip as u64);
        out.push_str("}}");
    }

    /// Async span close: the request's batch launched.
    fn queue_end(&mut self, id: u64, now: SimTime) {
        let out = self.event(r#"{"name":"queue_wait","cat":"request","ph":"e","id":"#);
        push_uint(out, id);
        out.push_str(r#","pid":0,"tid":0,"ts":""#);
        push_us(out, now);
        out.push_str(r#""}"#);
    }

    /// Instant on the dispatcher track: admission control dropped a
    /// request.
    fn shed(&mut self, req: &Request, model: &str) {
        let out = self.event(r#"{"name":"shed","ph":"i","s":"t","pid":0,"tid":0,"ts":""#);
        push_us(out, req.arrival_ns);
        out.push_str(r#"","args":{"request":"#);
        push_uint(out, req.id);
        out.push_str(r#","model":""#);
        out.push_str(model);
        out.push_str(r#""}}"#);
    }

    /// Complete span on a chip track, tagged with the batch it serves.
    fn complete_span(
        &mut self,
        name: &str,
        chip: usize,
        start_ns: SimTime,
        dur_ns: SimTime,
        model: &str,
        batch: usize,
    ) {
        let out = self.event(r#"{"name":""#);
        out.push_str(name);
        out.push_str(r#"","ph":"X","pid":0,"tid":"#);
        push_uint(out, chip as u64 + 1);
        out.push_str(r#","ts":""#);
        push_us(out, start_ns);
        out.push_str(r#"","dur":""#);
        push_us(out, dur_ns);
        out.push_str(r#"","args":{"model":""#);
        out.push_str(model);
        out.push_str(r#"","batch":"#);
        push_uint(out, batch as u64);
        out.push_str("}}");
    }

    /// Instant on a chip track: one request's response was delivered.
    fn response(&mut self, chip: usize, id: u64, now: SimTime, latency_ns: SimTime) {
        let out = self.event(r#"{"name":"response","ph":"i","s":"t","pid":0,"tid":"#);
        push_uint(out, chip as u64 + 1);
        out.push_str(r#","ts":""#);
        push_us(out, now);
        out.push_str(r#"","args":{"request":"#);
        push_uint(out, id);
        out.push_str(r#","latency_us":""#);
        push_us(out, latency_ns);
        out.push_str(r#""}}"#);
    }

    /// The finished `OBS_trace.json` payload (JSON-object form with a
    /// `traceEvents` array, one event per line): the buffer, closed.
    fn render(mut self) -> String {
        self.out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        self.out
    }
}

/// Periodic virtual-time sampler over the fleet's piecewise-constant
/// state. Samples land on the fixed grid `k * interval`; each row is
/// the state just *before* the first event at or past that grid point,
/// which makes the series independent of how the engine interleaves
/// same-timestamp work.
#[derive(Debug)]
struct Sampler {
    interval_ns: SimTime,
    next_t: SimTime,
    last_flush: SimTime,
    /// Cumulative counters, updated by hooks.
    shed: u64,
    switches: u64,
    batches: u64,
    batch_members: u64,
    /// Counter values at the previous flush (for per-interval rates).
    prev: [u64; 4],
    /// Busy-time accounting per chip within the current interval.
    window_busy: Vec<SimTime>,
    busy_since: Vec<Option<SimTime>>,
    series: TimeSeries,
}

impl Sampler {
    fn new(interval_ns: SimTime, chips: usize) -> Self {
        let mut names: Vec<String> =
            ["queue_depth", "in_flight", "shed_per_s", "reprogram_per_s", "batches_per_s", "mean_batch"]
                .iter()
                .map(|&s| s.to_owned())
                .collect();
        for c in 0..chips {
            names.push(format!("util_chip{c}"));
        }
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        Self {
            interval_ns,
            next_t: interval_ns,
            last_flush: 0,
            shed: 0,
            switches: 0,
            batches: 0,
            batch_members: 0,
            prev: [0; 4],
            window_busy: vec![0; chips],
            busy_since: vec![None; chips],
            series: TimeSeries::new(interval_ns, &refs),
        }
    }

    fn on_launch(&mut self, chip: usize, switching: bool, members: usize, now: SimTime) {
        self.busy_since[chip] = Some(now);
        self.switches += u64::from(switching);
        self.batches += 1;
        self.batch_members += members as u64;
    }

    fn on_complete(&mut self, chip: usize, now: SimTime) {
        if let Some(since) = self.busy_since[chip].take() {
            self.window_busy[chip] += now - since.max(self.last_flush);
        }
    }

    /// Emits every grid row at or before `now` using the current
    /// (pre-event) fleet state.
    fn advance(&mut self, now: SimTime, chips: &[Chip]) {
        while self.next_t <= now {
            let t = self.next_t;
            let queue_depth: usize = chips.iter().map(|c| c.queued).sum();
            let in_flight: usize = chips.iter().map(|c| c.in_flight).sum();
            let per_s = 1e9 / self.interval_ns as f64;
            let d_shed = self.shed - self.prev[0];
            let d_switch = self.switches - self.prev[1];
            let d_batches = self.batches - self.prev[2];
            let d_members = self.batch_members - self.prev[3];
            let mean_batch = if d_batches == 0 { 0.0 } else { d_members as f64 / d_batches as f64 };
            let mut row = vec![
                queue_depth as f64,
                in_flight as f64,
                d_shed as f64 * per_s,
                d_switch as f64 * per_s,
                d_batches as f64 * per_s,
                mean_batch,
            ];
            for (c, busy) in self.window_busy.iter_mut().enumerate() {
                let mut b = *busy;
                if let Some(since) = self.busy_since[c] {
                    b += t - since.max(self.last_flush);
                }
                row.push(b as f64 / self.interval_ns as f64);
                *busy = 0;
            }
            self.series.push_row(t, &row);
            self.prev = [self.shed, self.switches, self.batches, self.batch_members];
            self.last_flush = t;
            self.next_t += self.interval_ns;
        }
    }
}

/// Everything an observed run exports, ready for the `OBS_*` artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsOutput {
    /// Chrome trace-event JSON, when tracing was enabled.
    pub trace_json: Option<String>,
    /// The sampled time series, when the sampler was enabled.
    pub timeseries: Option<TimeSeries>,
    /// End-to-end latency distribution of every completed request.
    pub latency_hist: LogLinearHist,
    /// The SLO policy the monitor ran with, when enabled.
    pub slo: Option<SloPolicy>,
    /// Burn-rate violation windows, in virtual-time order.
    pub violations: Vec<SloViolation>,
}

impl ObsOutput {
    /// The `OBS_timeseries.json` payload: the columnar series plus the
    /// latency histogram and SLO verdicts, hand-rendered so the bytes
    /// are reproducible across runs and hosts.
    #[must_use]
    pub fn timeseries_json(&self) -> String {
        let mut out = String::from("{\"artifact\":\"inca-serve observability timeseries\",");
        match &self.timeseries {
            Some(ts) => {
                let _ = write!(out, "\"series\":{},", ts.to_json());
            }
            None => out.push_str("\"series\":null,"),
        }
        let _ = write!(
            out,
            "\"latency_hist_ns\":{{\"sub_bits\":{},\"count\":{}",
            self.latency_hist.sub_bits(),
            self.latency_hist.count()
        );
        for (label, v) in [("min", self.latency_hist.min()), ("max", self.latency_hist.max())] {
            match v {
                Some(v) => {
                    let _ = write!(out, ",\"{label}\":{v}");
                }
                None => {
                    let _ = write!(out, ",\"{label}\":null");
                }
            }
        }
        out.push_str(",\"buckets\":[");
        for (i, (lo, hi, n)) in self.latency_hist.nonzero_buckets().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{lo},{hi},{n}]");
        }
        out.push_str("]},");
        match &self.slo {
            Some(p) => {
                let _ = write!(
                    out,
                    "\"slo\":{{\"quantile\":{},\"target_ms\":{},\"window_ns\":{},\"burn_threshold\":{},\"min_samples\":{},\"violations\":[",
                    p.quantile, p.target_ms, p.window_ns, p.burn_threshold, p.min_samples
                );
                for (i, v) in self.violations.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(
                        out,
                        "{{\"start_ns\":{},\"end_ns\":{},\"peak_burn\":{},\"breaches\":{}}}",
                        v.start_ns, v.end_ns, v.peak_burn, v.breaches
                    );
                }
                out.push_str("]}");
            }
            None => out.push_str("\"slo\":null"),
        }
        out.push_str("}\n");
        out
    }
}

/// Per-fabric-tier link-utilization time series for a fleet run.
///
/// The fleet's fabric feeds it the network's cumulative per-tier busy-time
/// accumulators ([`inca_net::Network::tier_busy`]) before every event;
/// rows land on the fixed grid `k * interval` like the `Sampler`'s, so
/// the series is independent of same-timestamp event interleaving. Each
/// row is the mean utilization of the tier's links over the interval:
/// `Δbusy_ns / (links × interval_ns)`. Serialization time is charged at
/// enqueue (see [`inca_net::LinkCounters::busy_ns`]), so a burst can
/// push an interval above 1.0 — that is offered-load utilization, the
/// congestion signal the sweep wants, not an accounting error.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkUtilSeries {
    interval_ns: SimTime,
    next_t: SimTime,
    prev_busy: [u64; TIER_COUNT],
    times_ns: Vec<SimTime>,
    rows: Vec<[f64; TIER_COUNT]>,
}

impl LinkUtilSeries {
    /// An empty series sampling every `interval_ns` of virtual time.
    ///
    /// # Panics
    ///
    /// Panics if `interval_ns == 0`.
    #[must_use]
    pub(crate) fn new(interval_ns: SimTime) -> Self {
        assert!(interval_ns > 0, "sampling interval must be positive");
        Self {
            interval_ns,
            next_t: interval_ns,
            prev_busy: [0; TIER_COUNT],
            times_ns: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Whether at least one grid row is due at or before `now`. The
    /// fabric checks this before paying for the (O(links))
    /// accumulator snapshot [`advance`](Self::advance) consumes.
    #[must_use]
    pub(crate) fn due(&self, now: SimTime) -> bool {
        self.next_t <= now
    }

    /// Emits every grid row at or before `now` from the cumulative
    /// per-tier `(busy_ns, link_count)` accumulators.
    pub(crate) fn advance(&mut self, now: SimTime, tier_busy: &[(u64, usize); TIER_COUNT]) {
        while self.next_t <= now {
            let mut row = [0.0; TIER_COUNT];
            for (slot, &(busy, links)) in tier_busy.iter().enumerate() {
                let d = busy - self.prev_busy[slot];
                row[slot] =
                    if links == 0 { 0.0 } else { d as f64 / (links as f64 * self.interval_ns as f64) };
                self.prev_busy[slot] = busy;
            }
            self.times_ns.push(self.next_t);
            self.rows.push(row);
            self.next_t += self.interval_ns;
        }
    }

    /// Number of emitted rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no row has been emitted yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Utilization rows, `[access, aggregation, core]` per grid point.
    #[must_use]
    pub fn rows(&self) -> &[[f64; TIER_COUNT]] {
        &self.rows
    }

    /// Hand-rendered JSON: `{"interval_ns":..,"tiers":[..],"times_ns":
    /// [..],"rows":[[..],..]}` — byte-reproducible across hosts.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"interval_ns\":{},\"tiers\":[", self.interval_ns);
        for (i, t) in ALL_TIERS.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\"", t.name());
        }
        out.push_str("],\"times_ns\":[");
        for (i, t) in self.times_ns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{t}");
        }
        out.push_str("],\"rows\":[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            for (j, u) in row.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{u}");
            }
            out.push(']');
        }
        out.push_str("]}");
        out
    }
}

/// Everything the engine knows at the moment a batch launches, handed
/// to [`ObsRecorder::on_launch`] as one unit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BatchLaunch<'a> {
    /// Launching chip index.
    pub chip: usize,
    /// Model the batch serves.
    pub model_idx: usize,
    /// The drained batch, in admission order.
    pub batch: &'a [Request],
    /// Arrival time of the oldest request in the batch.
    pub head_arrival_ns: SimTime,
    /// Reprogram penalty paid before compute (0 when resident).
    pub penalty_ns: SimTime,
    /// Total service time including the penalty.
    pub service_ns: SimTime,
}

/// The run-time recorder the engine feeds. Purely observational: hooks
/// read engine state but never influence scheduling, so an observed run
/// completes with an identical [`crate::RunResult`].
#[derive(Debug)]
pub(crate) struct ObsRecorder {
    trace: Option<TraceLog>,
    sampler: Option<Sampler>,
    slo: Option<SloMonitor>,
    slo_policy: Option<SloPolicy>,
    latency_hist: LogLinearHist,
    model_names: Vec<&'static str>,
}

impl ObsRecorder {
    /// A recorder for a run over `chips` chips serving `mix`.
    #[must_use]
    pub fn new(cfg: &ObsConfig, chips: usize, mix: &ModelMix) -> Self {
        Self {
            trace: cfg.trace.then(|| TraceLog::new(chips)),
            sampler: (cfg.sample_interval_ns > 0).then(|| Sampler::new(cfg.sample_interval_ns, chips)),
            slo: cfg.slo.map(SloMonitor::new),
            slo_policy: cfg.slo,
            latency_hist: LogLinearHist::default_ns(),
            model_names: mix.models.iter().map(|m| m.name()).collect(),
        }
    }

    /// Grid-samples the fleet state; called before each engine event.
    pub(crate) fn advance(&mut self, now: SimTime, chips: &[Chip]) {
        if let Some(s) = &mut self.sampler {
            s.advance(now, chips);
        }
    }

    pub(crate) fn on_admit(&mut self, req: &Request, chip: usize) {
        if let Some(t) = &mut self.trace {
            t.queue_begin(req, chip, self.model_names[req.model_idx]);
        }
    }

    pub(crate) fn on_shed(&mut self, req: &Request) {
        if let Some(s) = &mut self.sampler {
            s.shed += 1;
        }
        if let Some(t) = &mut self.trace {
            t.shed(req, self.model_names[req.model_idx]);
        }
    }

    pub(crate) fn on_launch(&mut self, launch: &BatchLaunch<'_>, now: SimTime) {
        let BatchLaunch { chip, model_idx, batch, head_arrival_ns, penalty_ns, service_ns } = *launch;
        if let Some(s) = &mut self.sampler {
            s.on_launch(chip, penalty_ns > 0, batch.len(), now);
        }
        if let Some(t) = &mut self.trace {
            for req in batch {
                t.queue_end(req.id, now);
            }
            let (model, size) = (self.model_names[model_idx], batch.len());
            if now > head_arrival_ns {
                t.complete_span("batch_fill", chip, head_arrival_ns, now - head_arrival_ns, model, size);
            }
            if penalty_ns > 0 {
                t.complete_span("reprogram", chip, now, penalty_ns, model, size);
            }
            t.complete_span("compute", chip, now + penalty_ns, service_ns - penalty_ns, model, size);
        }
    }

    /// `chip` finished its batch; its service slot is free.
    pub(crate) fn on_batch_done(&mut self, chip: usize, now: SimTime) {
        if let Some(s) = &mut self.sampler {
            s.on_complete(chip, now);
        }
    }

    /// One request served by `chip` completed: its response was delivered.
    pub(crate) fn on_complete(&mut self, chip: usize, req: &Request, now: SimTime) {
        let latency = now - req.arrival_ns;
        self.latency_hist.record(latency);
        if let Some(t) = &mut self.trace {
            t.response(chip, req.id, now, latency);
        }
        if let Some(m) = &mut self.slo {
            m.on_complete(now, latency);
        }
    }

    /// Closes any open SLO window. The engine flushes the sampler's
    /// trailing rows through [`Self::advance`] when its run ends.
    #[must_use]
    pub(crate) fn finish(self) -> ObsOutput {
        ObsOutput {
            trace_json: self.trace.map(TraceLog::render),
            timeseries: self.sampler.map(|s| s.series),
            latency_hist: self.latency_hist,
            slo: self.slo_policy,
            violations: self.slo.map(|mut m| m.finish()).unwrap_or_default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl ObsConfig {
        /// Everything off: the engine behaves exactly as unobserved.
        fn disabled() -> Self {
            Self { trace: false, sample_interval_ns: 0, slo: None }
        }
    }

    impl LinkUtilSeries {
        /// Grid timestamps, virtual ns.
        pub(crate) fn times_ns(&self) -> &[SimTime] {
            &self.times_ns
        }

        /// Peak per-tier utilization across every row.
        #[must_use]
        pub(crate) fn peak(&self) -> [f64; TIER_COUNT] {
            let mut p = [0.0f64; TIER_COUNT];
            for row in &self.rows {
                for (slot, &u) in row.iter().enumerate() {
                    p[slot] = p[slot].max(u);
                }
            }
            p
        }
    }
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The `format!`-per-event renderer the in-place [`TraceLog`] replaced:
    /// one `String` per event and per stamp, joined by [`Self::render`].
    /// The writer must reproduce its bytes exactly.
    struct OracleLog {
        events: Vec<String>,
    }

    fn fmt_us(ns: SimTime) -> String {
        format!("{}.{:03}", ns / 1000, ns % 1000)
    }

    impl OracleLog {
        fn new(chips: usize) -> Self {
            let mut log = Self { events: Vec::new() };
            log.events.push(
                r#"{"name":"process_name","ph":"M","pid":0,"args":{"name":"inca-serve fleet"}}"#.to_owned(),
            );
            log.meta_thread(0, "dispatcher");
            for c in 0..chips {
                log.meta_thread(c as u64 + 1, &format!("chip {c}"));
            }
            log
        }

        fn meta_thread(&mut self, tid: u64, name: &str) {
            self.events.push(format!(
                r#"{{"name":"thread_name","ph":"M","pid":0,"tid":{tid},"args":{{"name":"{name}"}}}}"#
            ));
        }

        fn queue_begin(&mut self, req: &Request, chip: usize, model: &str) {
            self.events.push(format!(
                r#"{{"name":"queue_wait","cat":"request","ph":"b","id":{},"pid":0,"tid":0,"ts":"{}","args":{{"model":"{}","chip":{}}}}}"#,
                req.id,
                fmt_us(req.arrival_ns),
                model,
                chip
            ));
        }

        fn queue_end(&mut self, id: u64, now: SimTime) {
            self.events.push(format!(
                r#"{{"name":"queue_wait","cat":"request","ph":"e","id":{},"pid":0,"tid":0,"ts":"{}"}}"#,
                id,
                fmt_us(now)
            ));
        }

        fn shed(&mut self, req: &Request, model: &str) {
            self.events.push(format!(
                r#"{{"name":"shed","ph":"i","s":"t","pid":0,"tid":0,"ts":"{}","args":{{"request":{},"model":"{}"}}}}"#,
                fmt_us(req.arrival_ns),
                req.id,
                model
            ));
        }

        fn complete_span(&mut self, name: &str, chip: usize, start_ns: SimTime, dur_ns: SimTime, args: &str) {
            self.events.push(format!(
                r#"{{"name":"{}","ph":"X","pid":0,"tid":{},"ts":"{}","dur":"{}","args":{{{}}}}}"#,
                name,
                chip as u64 + 1,
                fmt_us(start_ns),
                fmt_us(dur_ns),
                args
            ));
        }

        fn response(&mut self, chip: usize, id: u64, now: SimTime, latency_ns: SimTime) {
            self.events.push(format!(
                r#"{{"name":"response","ph":"i","s":"t","pid":0,"tid":{},"ts":"{}","args":{{"request":{},"latency_us":"{}"}}}}"#,
                chip as u64 + 1,
                fmt_us(now),
                id,
                fmt_us(latency_ns)
            ));
        }

        fn render(&self) -> String {
            let mut out = String::with_capacity(self.events.len() * 96 + 64);
            out.push_str("{\"traceEvents\":[\n");
            for (i, ev) in self.events.iter().enumerate() {
                out.push_str(ev);
                if i + 1 < self.events.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
            out
        }
    }

    fn us(ns: SimTime) -> String {
        let mut out = String::new();
        push_us(&mut out, ns);
        out
    }

    #[test]
    fn push_us_is_exact_integer_math() {
        assert_eq!(us(0), "0.000");
        assert_eq!(us(256), "0.256");
        assert_eq!(us(999), "0.999");
        assert_eq!(us(1_000), "1.000");
        assert_eq!(us(1_000_255), "1000.255");
        assert_eq!(us(1_234_567), "1234.567");
        assert_eq!(us(u64::MAX), "18446744073709551.615");
    }

    /// An id or stamp that lands on a formatting edge a third of the
    /// time: 0, 999, 1000, a remainder `ns % 1000 ≥ 256` (past `u8`) or
    /// `u64::MAX`.
    fn edgy(rng: &mut StdRng) -> u64 {
        const EDGES: [u64; 7] = [0, 256, 999, 1_000, 1_000_255, 999_999_999, u64::MAX];
        match rng.gen_range(0..3u32) {
            0 => EDGES[rng.gen_range(0..EDGES.len())],
            1 => rng.gen_range(0..10_000_000_000u64),
            _ => rng.next_u64(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random sequences of the five event kinds render byte for byte
        /// as the `format!` oracle does, and parse as JSON.
        #[test]
        fn trace_writer_matches_the_format_oracle(
            chips in 1usize..=3,
            events in 0usize..=48,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut log = TraceLog::new(chips);
            let mut oracle = OracleLog::new(chips);
            for _ in 0..events {
                let chip = rng.gen_range(0..chips);
                let model = ["VGG16", "ResNet18", "MobileNetV2"][rng.gen_range(0..3usize)];
                let req = Request { id: edgy(&mut rng), model_idx: 0, arrival_ns: edgy(&mut rng) };
                let now = edgy(&mut rng);
                match rng.gen_range(0..5u32) {
                    0 => {
                        log.queue_begin(&req, chip, model);
                        oracle.queue_begin(&req, chip, model);
                    }
                    1 => {
                        log.queue_end(req.id, now);
                        oracle.queue_end(req.id, now);
                    }
                    2 => {
                        log.shed(&req, model);
                        oracle.shed(&req, model);
                    }
                    3 => {
                        let name = ["batch_fill", "reprogram", "compute"][rng.gen_range(0..3usize)];
                        let batch = rng.gen_range(1..=512usize);
                        let args = format!("\"model\":\"{model}\",\"batch\":{batch}");
                        log.complete_span(name, chip, req.arrival_ns, now, model, batch);
                        oracle.complete_span(name, chip, req.arrival_ns, now, &args);
                    }
                    _ => {
                        let latency = edgy(&mut rng);
                        log.response(chip, req.id, now, latency);
                        oracle.response(chip, req.id, now, latency);
                    }
                }
            }
            let rendered = log.render();
            prop_assert_eq!(&rendered, &oracle.render());
            let parsed: serde_json::Value = serde_json::from_str(&rendered).expect("trace is valid JSON");
            // The process and dispatcher metadata, one per chip, then the events.
            prop_assert_eq!(parsed["traceEvents"].as_array().map(Vec::len), Some(2 + chips + events));
        }
    }

    #[test]
    fn slo_monitor_opens_and_merges_windows() {
        let mut m = SloMonitor::new(SloPolicy {
            quantile: 0.9,
            target_ms: 1.0,
            window_ns: 1_000_000_000,
            burn_threshold: 1.0,
            min_samples: 4,
        });
        // Four fast completions: under min_samples burn never fires.
        for i in 0..4u64 {
            m.on_complete(i * 1000, 10_000); // 10 µs << 1 ms
        }
        assert!(m.open.is_none());
        // A burst of slow completions: budget is 10%, every sample
        // breaches, burn = 10 >= 1.0.
        for i in 0..10u64 {
            m.on_complete(10_000 + i * 1000, 5_000_000); // 5 ms > 1 ms
        }
        assert!(m.open.is_some());
        let violations = m.finish();
        assert_eq!(violations.len(), 1);
        let v = violations[0];
        assert!(v.start_ns <= v.end_ns);
        assert!(v.peak_burn >= 1.0);
        assert!(v.breaches >= 1);
    }

    #[test]
    fn slo_monitor_quiet_run_has_no_violations() {
        let mut m = SloMonitor::new(SloPolicy::default_paper());
        for i in 0..500u64 {
            m.on_complete(i * 1_000_000, 2_000_000); // 2 ms, target 1 s
        }
        assert!(m.finish().is_empty());
    }

    #[test]
    fn sampler_grid_is_fixed_and_util_bounded() {
        let chips = vec![Chip::new(1), Chip::new(1)];
        let mut s = Sampler::new(1_000, 2);
        s.on_launch(0, false, 4, 0);
        s.advance(2_500, &chips); // rows at 1000, 2000
        s.on_complete(0, 2_500);
        s.advance(5_000, &chips); // rows at 3000, 4000, 5000
        assert_eq!(s.series.len(), 5);
        assert_eq!(s.series.times_ns(), &[1_000, 2_000, 3_000, 4_000, 5_000]);
        let util = s.series.column("util_chip0").unwrap();
        // Busy 0..2500: full for the first two intervals, half the third.
        assert_eq!(&util[..3], &[1.0, 1.0, 0.5]);
        assert_eq!(&util[3..], &[0.0, 0.0]);
        let idle = s.series.column("util_chip1").unwrap();
        assert!(idle.iter().all(|&u| u == 0.0));
    }

    #[test]
    fn trace_log_renders_valid_json() {
        let mut t = TraceLog::new(2);
        let req = Request { id: 7, model_idx: 0, arrival_ns: 1_000 };
        t.queue_begin(&req, 1, "VGG16");
        t.queue_end(7, 5_000);
        t.complete_span("compute", 1, 5_000, 2_000, "VGG16", 1);
        t.shed(&Request { id: 8, model_idx: 0, arrival_ns: 6_000 }, "VGG16");
        t.response(1, 7, 9_000, 8_000);
        let rendered = t.render();
        let parsed = serde_json::from_str(&rendered).expect("trace is valid JSON");
        let events = parsed["traceEvents"].as_array().unwrap();
        // 4 metadata (process + dispatcher + 2 chips) + 5 recorded.
        assert_eq!(events.len(), 9);
        assert_eq!(events[4]["name"].as_str(), Some("queue_wait"));
        assert_eq!(events[4]["ph"].as_str(), Some("b"));
        assert_eq!(events[6]["dur"].as_str(), Some("2.000"));
    }

    #[test]
    fn link_util_series_rows_land_on_the_grid() {
        let mut s = LinkUtilSeries::new(1_000);
        // Access tier: 2 links, 1500 ns of cumulative busy by t=2500 —
        // first interval fully busy on one link's worth, then a quarter.
        s.advance(2_500, &[(1_500, 2), (0, 4), (0, 0)]);
        assert_eq!(s.times_ns(), &[1_000, 2_000]);
        // All 1500 ns of busy land in the first row (charged at enqueue).
        assert_eq!(s.rows()[0], [1_500.0 / 2_000.0, 0.0, 0.0]);
        assert_eq!(s.rows()[1], [0.0, 0.0, 0.0]);
        s.advance(3_000, &[(1_900, 2), (400, 4), (0, 0)]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.rows()[2], [400.0 / 2_000.0, 400.0 / 4_000.0, 0.0]);
        assert_eq!(s.peak()[0], 0.75);
        let json = s.to_json();
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(parsed["tiers"][0].as_str(), Some("access"));
        assert_eq!(parsed["rows"].as_array().map(Vec::len), Some(3));
    }

    #[test]
    fn disabled_config_builds_an_inert_recorder() {
        let rec = ObsRecorder::new(&ObsConfig::disabled(), 2, &ModelMix::paper_serving_mix());
        assert!(rec.trace.is_none() && rec.sampler.is_none() && rec.slo.is_none());
        let out = rec.finish();
        assert!(out.trace_json.is_none());
        assert!(out.timeseries.is_none());
        assert!(out.violations.is_empty());
        assert!(out.latency_hist.is_empty());
        // The artifact is still well-formed JSON with explicit nulls.
        let json = out.timeseries_json();
        let parsed = serde_json::from_str(&json).expect("valid JSON");
        assert!(parsed["series"].is_null());
        assert!(parsed["slo"].is_null());
    }
}
