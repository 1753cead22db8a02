use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::{EnduranceReport, EnduranceTracker, Result};

/// A thread-safe, cloneable handle to a shared [`EnduranceTracker`].
///
/// The 3D stack's planes are independent and naturally simulated in
/// parallel, but they wear a *shared* physical array — every thread
/// must charge its writes against one budget. The
/// handle wraps the tracker in `Arc<Mutex<…>>` and never poisons: a
/// holder's panic leaves the counts it had already recorded.
///
/// # Examples
///
/// ```
/// use inca_device::SharedEnduranceTracker;
///
/// let tracker = SharedEnduranceTracker::new(64, 1_000_000);
/// let handle = tracker.clone();
/// std::thread::spawn(move || handle.record_uniform(10)).join().unwrap()?;
/// assert_eq!(tracker.report().total_writes, 640);
/// # Ok::<(), inca_device::DeviceError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SharedEnduranceTracker {
    inner: Arc<Mutex<EnduranceTracker>>,
}

impl SharedEnduranceTracker {
    /// Creates a shared tracker for `units` cells with the given per-unit
    /// endurance `limit`.
    #[must_use]
    pub fn new(units: usize, limit: u64) -> Self {
        Self { inner: Arc::new(Mutex::new(EnduranceTracker::new(units, limit))) }
    }

    /// Records `count` writes to every unit.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::DeviceError::EnduranceExceeded`].
    pub fn record_uniform(&self, count: u64) -> Result<()> {
        self.lock().record_uniform(count)
    }

    /// Aggregate wear statistics.
    #[must_use]
    pub fn report(&self) -> EnduranceReport {
        self.lock().report()
    }

    /// The tracker, whether or not an earlier holder panicked.
    fn lock(&self) -> MutexGuard<'_, EnduranceTracker> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SharedEnduranceTracker {
        fn record_writes(&self, index: usize, count: u64) -> Result<()> {
            self.lock().record_writes(index, count)
        }

        fn reset(&self) {
            self.lock().reset();
        }
    }

    #[test]
    fn concurrent_writes_accumulate_exactly() {
        let tracker = SharedEnduranceTracker::new(8, 1_000_000);
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let handle = tracker.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        handle.record_writes(i, 1).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let report = tracker.report();
        assert_eq!(report.total_writes, 8000);
        assert_eq!(report.max_writes, 1000);
    }

    #[test]
    fn clones_share_state() {
        let a = SharedEnduranceTracker::new(2, 100);
        let b = a.clone();
        a.record_uniform(3).unwrap();
        assert_eq!(b.report().total_writes, 6);
        b.reset();
        assert_eq!(a.report().total_writes, 0);
    }

    #[test]
    fn limit_errors_propagate() {
        let t = SharedEnduranceTracker::new(1, 5);
        t.record_writes(0, 5).unwrap();
        assert!(t.record_writes(0, 1).is_err());
    }
}
