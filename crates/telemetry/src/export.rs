//! Exporters: JSON snapshot, human-readable counter table, and Chrome
//! trace-event (`chrome://tracing` / Perfetto) file contents.
//!
//! JSON is built by hand: this crate is deliberately std-only (see the
//! crate docs), and the emitted documents are flat enough that a
//! serializer would buy nothing.

use std::fmt::Write as _;

use crate::snapshot::Snapshot;
use crate::span::{SpanStats, Spans};

/// Escapes a string for inclusion in a JSON string literal.
fn escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn span_to_json(node: &SpanStats, out: &mut String) {
    out.push_str("{\"name\":\"");
    escape(&node.name, out);
    let _ = write!(out, "\",\"count\":{},\"total_ns\":{},\"children\":[", node.count, node.total_ns);
    for (i, child) in node.children.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        span_to_json(child, out);
    }
    out.push_str("]}");
}

impl Snapshot {
    /// Serializes the snapshot as a JSON document:
    /// `{"counters": {<event-name>: <total>, ...}, "spans": [<tree>...]}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"counters\": {");
        for (i, (event, total)) in self.counters().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{}\": {}", event.name(), total);
        }
        out.push_str("\n  },\n  \"spans\": [");
        for (i, node) in self.spans().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            span_to_json(node, &mut out);
        }
        out.push_str("]\n}\n");
        out
    }

    /// Renders the counters (and span tree, if any) as an aligned
    /// plain-text table for terminal output.
    #[must_use]
    pub fn counter_table(&self) -> String {
        let width = self.counters().iter().map(|(e, _)| e.name().len()).max().unwrap_or(0).max(5);
        let mut out = String::new();
        let _ = writeln!(out, "{:<width$}  {:>16}", "event", "count");
        let _ = writeln!(out, "{:-<width$}  {:->16}", "", "");
        for (event, total) in self.counters() {
            let _ = writeln!(out, "{:<width$}  {:>16}", event.name(), total);
        }
        if !self.spans().is_empty() {
            let _ = writeln!(out, "\nspans (count, total, mean):");
            for root in self.spans() {
                span_table_line(root, 0, &mut out);
            }
        }
        out
    }
}

fn span_table_line(node: &SpanStats, depth: usize, out: &mut String) {
    let _ = writeln!(
        out,
        "{:indent$}{}  x{}  {:.3} ms  ({:.1} us/span)",
        "",
        node.name,
        node.count,
        node.total_ns as f64 / 1e6,
        node.mean_ns() / 1e3,
        indent = depth * 2
    );
    for child in &node.children {
        span_table_line(child, depth + 1, out);
    }
}

/// Serializes a capture's trace events in Chrome trace-event format.
///
/// Load the resulting file in `chrome://tracing` or
/// <https://ui.perfetto.dev>. Each completed span becomes one complete
/// (`"ph":"X"`) event, timed from the capture's start; `tid` is a small
/// dense per-thread id. If spans were dropped at the
/// `TRACE_CAPACITY` cap, the count is noted under `"otherData"`.
#[must_use]
pub fn chrome_trace_json(snapshot: &Snapshot) -> String {
    let Spans { trace, dropped, .. } = &snapshot.spans;
    let mut out = String::with_capacity(64 * trace.len() + 128);
    out.push_str("{\"traceEvents\":[");
    for (i, e) in trace.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n{\"name\":\"");
        escape(e.name, &mut out);
        let _ = write!(
            out,
            "\",\"cat\":\"inca\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{}}}",
            e.start_ns as f64 / 1e3,
            e.dur_ns as f64 / 1e3,
            e.tid
        );
    }
    let _ = write!(out, "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"dropped_events\":{dropped}}}}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{capture, Event};

    #[test]
    fn json_snapshot_contains_every_event_name() {
        let ((), snap) = capture(|| crate::record(Event::AdcConversion, 42));
        let json = snap.to_json();
        for event in crate::event::ALL_EVENTS {
            assert!(json.contains(event.name()), "missing {}", event.name());
        }
        assert!(json.contains("\"adc_conversions\": 42"));
    }

    #[test]
    fn chrome_trace_has_complete_events() {
        let ((), snap) = capture(|| {
            let _s = crate::span("traced \"phase\"");
        });
        let json = chrome_trace_json(&snap);
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("traced \\\"phase\\\""));
        assert!(json.contains("\"dropped_events\":0"));
    }

    #[test]
    fn counter_table_lists_all_rows() {
        let ((), snap) = capture(|| ());
        let table = snap.counter_table();
        assert_eq!(table.lines().count(), 2 + crate::event::EVENT_COUNT);
    }

    #[test]
    fn escape_handles_control_chars() {
        let mut out = String::new();
        escape("a\"b\\c\nd\u{1}", &mut out);
        assert_eq!(out, "a\\\"b\\\\c\\nd\\u0001");
    }
}
