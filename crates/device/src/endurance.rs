use serde::{Deserialize, Serialize};

use crate::{DeviceError, Result};

/// Tracks write-cycle wear across a population of RRAM cells.
///
/// The paper's §VI singles out endurance as the open issue for *trainable*
/// RRAM accelerators: INCA rewrites activation cells every layer of every
/// forward pass, so a wear budget must be tracked. The tracker keeps a
/// per-cell write counter plus aggregate statistics, at a granularity the
/// caller chooses (cell, array, or plane).
///
/// # Examples
///
/// ```
/// use inca_device::EnduranceTracker;
///
/// let mut t = EnduranceTracker::new(4, 1_000_000);
/// t.record_uniform(10)?; // ten writes to every tracked unit
/// assert_eq!(t.report().total_writes, 40);
/// assert_eq!(t.report().max_writes, 10);
/// # Ok::<(), inca_device::DeviceError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EnduranceTracker {
    writes: Vec<u64>,
    limit: u64,
}

/// Aggregate wear statistics produced by [`EnduranceTracker::report`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnduranceReport {
    /// Total writes across all tracked units.
    pub total_writes: u64,
    /// Maximum writes to any single unit.
    pub max_writes: u64,
    /// Mean writes per unit.
    pub mean_writes: f64,
    /// Fraction of the endurance limit consumed by the most-worn unit.
    pub worst_wear: f64,
    /// Estimated remaining full-population write cycles before the most-worn
    /// unit hits the limit, assuming the current wear distribution persists.
    pub remaining_uniform_cycles: u64,
}

impl EnduranceTracker {
    /// Creates a tracker for `units` cells (or arrays) with the given
    /// endurance `limit` per unit.
    #[must_use]
    pub fn new(units: usize, limit: u64) -> Self {
        Self { writes: vec![0; units], limit }
    }

    /// Records `count` writes to every tracked unit (e.g. a full-array
    /// activation rewrite in INCA's inter-layer dataflow).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::EnduranceExceeded`] if any unit passes the
    /// limit.
    pub fn record_uniform(&mut self, count: u64) -> Result<()> {
        inca_telemetry::record(inca_telemetry::Event::EnduranceWrite, count * self.writes.len() as u64);
        let mut exceeded = None;
        for w in &mut self.writes {
            *w += count;
            if *w > self.limit && exceeded.is_none() {
                exceeded = Some(*w);
            }
        }
        match exceeded {
            Some(writes) => Err(DeviceError::EnduranceExceeded { writes, limit: self.limit }),
            None => Ok(()),
        }
    }

    /// Total writes across all units.
    #[must_use]
    pub(crate) fn total_writes(&self) -> u64 {
        self.writes.iter().sum()
    }

    /// Maximum writes to any single unit.
    #[must_use]
    pub(crate) fn max_writes(&self) -> u64 {
        self.writes.iter().copied().max().unwrap_or(0)
    }

    /// Produces aggregate wear statistics.
    #[must_use]
    pub fn report(&self) -> EnduranceReport {
        let total = self.total_writes();
        let max = self.max_writes();
        let mean = if self.writes.is_empty() { 0.0 } else { total as f64 / self.writes.len() as f64 };
        EnduranceReport {
            total_writes: total,
            max_writes: max,
            mean_writes: mean,
            worst_wear: if self.limit == 0 { 1.0 } else { max as f64 / self.limit as f64 },
            remaining_uniform_cycles: self.limit.saturating_sub(max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl EnduranceTracker {
        /// Records `count` writes to unit `index`; errors once the unit
        /// passes the limit, with the writes still recorded.
        pub(crate) fn record_writes(&mut self, index: usize, count: u64) -> Result<()> {
            let w = &mut self.writes[index];
            *w += count;
            if *w > self.limit {
                return Err(DeviceError::EnduranceExceeded { writes: *w, limit: self.limit });
            }
            Ok(())
        }

        pub(crate) fn reset(&mut self) {
            self.writes.fill(0);
        }
    }

    #[test]
    fn new_tracker_is_pristine() {
        let t = EnduranceTracker::new(8, 100);
        assert_eq!(t.writes.len(), 8);
        assert_eq!(t.total_writes(), 0);
        assert_eq!(t.report().worst_wear, 0.0);
    }

    #[test]
    fn record_accumulates() {
        let mut t = EnduranceTracker::new(2, 100);
        t.record_writes(0, 3).unwrap();
        t.record_writes(0, 4).unwrap();
        t.record_writes(1, 5).unwrap();
        assert_eq!(t.total_writes(), 12);
        assert_eq!(t.max_writes(), 7);
    }

    #[test]
    fn exceeding_limit_errors_but_keeps_counting() {
        let mut t = EnduranceTracker::new(1, 10);
        t.record_writes(0, 10).unwrap();
        let err = t.record_writes(0, 1).unwrap_err();
        assert_eq!(err, DeviceError::EnduranceExceeded { writes: 11, limit: 10 });
        assert_eq!(t.total_writes(), 11);
    }

    #[test]
    fn uniform_writes_hit_every_unit() {
        let mut t = EnduranceTracker::new(4, 100);
        t.record_uniform(2).unwrap();
        assert_eq!(t.total_writes(), 8);
        assert_eq!(t.max_writes(), 2);
    }

    #[test]
    fn report_statistics() {
        let mut t = EnduranceTracker::new(4, 100);
        t.record_writes(0, 40).unwrap();
        t.record_writes(1, 20).unwrap();
        let r = t.report();
        assert_eq!(r.total_writes, 60);
        assert_eq!(r.max_writes, 40);
        assert!((r.mean_writes - 15.0).abs() < 1e-12);
        assert!((r.worst_wear - 0.4).abs() < 1e-12);
        assert_eq!(r.remaining_uniform_cycles, 60);
    }

    #[test]
    fn reset_clears_counters() {
        let mut t = EnduranceTracker::new(2, 10);
        t.record_uniform(3).unwrap();
        t.reset();
        assert_eq!(t.total_writes(), 0);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_index_panics() {
        let mut t = EnduranceTracker::new(1, 10);
        let _ = t.record_writes(5, 1);
    }
}
