//! The ledger's own span recorder. Spans wrap calls into each layer's
//! public functions from the outside; nothing inside the program is
//! instrumented and `inca-telemetry`'s global recorder is never touched.
//! Spans stay in memory and are written out once, at exit.

use serde_json::{json, Map, Value};

use crate::measure::cpu_secs;

/// One recorded span. Times are process CPU seconds since the tracer
/// started.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation the span belongs to: image, grid point or cell.
    pub op: u64,
}

impl Span {
    pub(crate) fn secs(&self) -> f64 {
        self.end - self.start
    }
}

#[derive(Debug)]
pub(crate) struct Tracer {
    origin: f64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub(crate) fn new() -> Self {
        Self { origin: cpu_secs(), spans: Vec::new(), open: Vec::new() }
    }

    fn now(&self) -> f64 {
        cpu_secs() - self.origin
    }

    /// Runs `f` inside a span named `name` for operation `op`; spans
    /// opened by `f` become its children.
    pub(crate) fn span<R>(&mut self, name: impl Into<String>, op: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        self.timed(name, op, f).0
    }

    /// [`Tracer::span`] that also returns the span's duration in seconds.
    pub(crate) fn timed<R>(
        &mut self,
        name: impl Into<String>,
        op: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> (R, f64) {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span { name: name.into(), start, end: start, parent: self.open.last().copied(), op });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end = self.now();
        (r, self.spans[id].secs())
    }

    pub(crate) fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of every span named `name`.
    pub(crate) fn total(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::secs).sum()
    }

    /// Self time of every span (see [`self_time`]).
    pub(crate) fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans.iter().zip(&children).map(|(s, kids)| self_time(s.start, s.end, kids)).collect()
    }

    /// Per-name totals: count, total seconds and self seconds.
    pub(crate) fn summary(&self) -> Value {
        let mut by_name: Map = Map::new();
        let mut rows: Vec<(String, u64, f64, f64)> = Vec::new();
        for (s, self_s) in self.spans.iter().zip(self.self_times()) {
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += s.secs();
                    r.3 += self_s;
                }
                None => rows.push((s.name.clone(), 1, s.secs(), self_s)),
            }
        }
        for (name, count, total_s, self_s) in rows {
            by_name.insert(name, json!({ "count": count, "total_s": total_s, "self_s": self_s }));
        }
        Value::Object(by_name)
    }

    /// Chrome trace-event JSON: one complete (`"ph": "X"`) event per span
    /// with its id, parent id, op id and self time in `args`.
    pub(crate) fn chrome_json(&self) -> String {
        let events: Vec<Value> = self
            .spans
            .iter()
            .zip(self.self_times())
            .enumerate()
            .map(|(id, (s, self_s))| {
                json!({
                    "name": s.name.as_str(),
                    "ph": "X",
                    "pid": 1u64,
                    "tid": 1u64,
                    "ts": s.start * 1e6,
                    "dur": s.secs() * 1e6,
                    "args": json!({
                        "id": id as u64,
                        "parent": s.parent.map_or(Value::Null, |p| json!(p as u64)),
                        "op": s.op,
                        "self_us": self_s * 1e6,
                    }),
                })
            })
            .collect();
        json!({ "traceEvents": Value::Array(events), "displayTimeUnit": "ms" }).to_string()
    }
}

/// Self time of a span over `[start, end]`: its duration minus the part
/// of that interval covered by its children. Overlapping children are
/// merged first, so time two children share is subtracted once.
pub(crate) fn self_time(start: f64, end: f64, children: &[(f64, f64)]) -> f64 {
    let mut iv: Vec<(f64, f64)> =
        children.iter().map(|&(s, e)| (s.max(start), e.min(end))).filter(|(s, e)| e > s).collect();
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        assert_eq!(self_time(0.0, 10.0, &[]), 10.0);
        assert_eq!(self_time(0.0, 10.0, &[(1.0, 3.0), (5.0, 6.0)]), 7.0);
        // [1,4] and [2,6] overlap on [2,4]: covered is [1,6], not 5 + 4.
        assert_eq!(self_time(0.0, 10.0, &[(2.0, 6.0), (1.0, 4.0)]), 5.0);
        // A child nested inside another and one poking past the end.
        assert_eq!(self_time(0.0, 10.0, &[(1.0, 5.0), (2.0, 3.0), (8.0, 12.0)]), 4.0);
    }

    #[test]
    fn nested_spans_record_parents_and_valid_chrome_json() {
        let mut t = Tracer::new();
        let (v, secs) = t.timed("outer", 7, |t| {
            t.span("inner", 7, |_| ());
            t.span("inner", 7, |_| 3)
        });
        assert_eq!(v, 3);
        assert!(secs >= t.total("inner"));
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].parent, spans[1].parent, spans[2].parent), (None, Some(0), Some(0)));
        let self_times = t.self_times();
        assert!((self_times[0] - (spans[0].secs() - spans[1].secs() - spans[2].secs())).abs() < 1e-12);
        let parsed = serde_json::from_str(&t.chrome_json()).expect("valid JSON");
        let events = parsed["traceEvents"].as_array().expect("events");
        assert_eq!(events.len(), 3);
        for e in events {
            if let Some(p) = e["args"]["parent"].as_u64() {
                assert!((p as usize) < events.len());
            }
        }
        assert_eq!(t.summary()["inner"]["count"].as_u64(), Some(2));
    }
}
