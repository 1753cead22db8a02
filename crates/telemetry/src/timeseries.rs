//! Columnar time-series capture for periodic virtual-time samplers.
//!
//! A [`TimeSeries`] is a fixed set of named `f64` columns plus one
//! `u64` time column, appended row by row. The layout is columnar
//! because the consumers are columnar: plotting a queue-depth curve or
//! diffing a utilization series wants one contiguous array per metric,
//! not a list of row objects. The hand-rolled JSON export keeps this
//! crate std-only and — since every value is appended deterministically
//! by a virtual-time sampler — byte-reproducible.

use std::fmt::Write as _;

/// One named column of a time-series.
#[derive(Debug, Clone, PartialEq)]
struct Column {
    name: String,
    values: Vec<f64>,
}

/// A columnar time-series: one `u64` time axis plus N named `f64`
/// columns of equal length.
///
/// # Examples
///
/// ```
/// use inca_telemetry::TimeSeries;
///
/// let mut ts = TimeSeries::new(1_000_000, &["queue_depth", "util"]);
/// ts.push_row(1_000_000, &[3.0, 0.5]);
/// ts.push_row(2_000_000, &[5.0, 0.75]);
/// assert_eq!(ts.len(), 2);
/// assert_eq!(ts.column("queue_depth"), Some(&[3.0, 5.0][..]));
/// assert!(ts.to_json().contains("\"interval_ns\": 1000000"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    interval_ns: u64,
    times_ns: Vec<u64>,
    columns: Vec<Column>,
}

impl TimeSeries {
    /// An empty series sampled every `interval_ns` with the given
    /// column names.
    ///
    /// # Panics
    ///
    /// Panics on duplicate column names — the JSON object keys must be
    /// unique.
    #[must_use]
    pub fn new(interval_ns: u64, names: &[&str]) -> Self {
        for (i, a) in names.iter().enumerate() {
            assert!(!names[i + 1..].contains(a), "duplicate column name {a:?}");
        }
        Self {
            interval_ns,
            times_ns: Vec::new(),
            columns: names.iter().map(|n| Column { name: (*n).to_owned(), values: Vec::new() }).collect(),
        }
    }

    /// Number of sampled rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.times_ns.len()
    }

    /// Whether no rows have been sampled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.times_ns.is_empty()
    }

    /// The time axis, nanoseconds.
    #[must_use]
    // Needed by crates/serve/tests/obs.rs, crates/serve/src/{fleet,obs}.rs (tests)
    // lint: allow(narrow-pub)
    pub fn times_ns(&self) -> &[u64] {
        &self.times_ns
    }

    /// One column's values, or `None` for an unknown name.
    #[must_use]
    // Needed by crates/serve/tests/obs.rs, crates/serve/src/{engine,obs}.rs (tests)
    // lint: allow(narrow-pub)
    pub fn column(&self, name: &str) -> Option<&[f64]> {
        self.columns.iter().find(|c| c.name == name).map(|c| c.values.as_slice())
    }

    /// Appends one sample row at `t_ns`.
    ///
    /// # Panics
    ///
    /// Panics when the value count mismatches the column count, when a
    /// value is non-finite (it would corrupt the JSON export), or when
    /// `t_ns` does not advance monotonically.
    pub fn push_row(&mut self, t_ns: u64, values: &[f64]) {
        assert_eq!(values.len(), self.columns.len(), "one value per column");
        assert!(values.iter().all(|v| v.is_finite()), "non-finite sample value");
        if let Some(&last) = self.times_ns.last() {
            assert!(t_ns > last, "sample time must advance: {t_ns} <= {last}");
        }
        self.times_ns.push(t_ns);
        for (col, &v) in self.columns.iter_mut().zip(values) {
            col.values.push(v);
        }
    }

    /// Serializes the series as a columnar JSON document:
    /// `{"interval_ns": …, "samples": …, "t_ns": […], "columns": {…}}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(32 * self.times_ns.len() * (self.columns.len() + 1) + 128);
        let _ = write!(
            out,
            "{{\n  \"interval_ns\": {},\n  \"samples\": {},\n  \"t_ns\": [",
            self.interval_ns,
            self.times_ns.len()
        );
        for (i, t) in self.times_ns.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{t}");
        }
        out.push_str("],\n  \"columns\": {");
        for (ci, col) in self.columns.iter().enumerate() {
            if ci > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{}\": [", col.name);
            for (i, v) in col.values.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{v}");
            }
            out.push(']');
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columns_accumulate_rows() {
        let mut ts = TimeSeries::new(10, &["a", "b"]);
        ts.push_row(10, &[1.0, 2.0]);
        ts.push_row(20, &[3.0, 4.0]);
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.times_ns(), &[10, 20]);
        assert_eq!(ts.column("a"), Some(&[1.0, 3.0][..]));
        assert_eq!(ts.column("b"), Some(&[2.0, 4.0][..]));
        assert_eq!(ts.column("c"), None);
    }

    #[test]
    fn json_export_is_columnar() {
        let mut ts = TimeSeries::new(5, &["depth"]);
        ts.push_row(5, &[2.5]);
        ts.push_row(10, &[3.0]);
        let json = ts.to_json();
        assert!(json.contains("\"interval_ns\": 5"));
        assert!(json.contains("\"samples\": 2"));
        assert!(json.contains("\"t_ns\": [5, 10]"));
        assert!(json.contains("\"depth\": [2.5, 3]"));
    }

    #[test]
    #[should_panic(expected = "one value per column")]
    fn row_width_is_enforced() {
        let mut ts = TimeSeries::new(1, &["a", "b"]);
        ts.push_row(1, &[1.0]);
    }

    #[test]
    #[should_panic(expected = "must advance")]
    fn time_must_be_monotonic() {
        let mut ts = TimeSeries::new(1, &["a"]);
        ts.push_row(5, &[0.0]);
        ts.push_row(5, &[1.0]);
    }

    #[test]
    #[should_panic(expected = "duplicate column name")]
    fn duplicate_columns_rejected() {
        let _ = TimeSeries::new(1, &["a", "a"]);
    }
}
