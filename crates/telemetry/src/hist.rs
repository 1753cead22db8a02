//! Deterministic log-linear (HDR-style) histograms.
//!
//! The serving layer records end-to-end latencies as integer nanosecond
//! counts. Sorting every sample to read a percentile is O(n log n) per
//! report and forces the caller to retain every sample; an HDR-style
//! histogram is O(1) per record, O(buckets) per quantile, and — because
//! bucketing is pure integer arithmetic — **bit-reproducible**: the
//! bucket counts (and therefore every quantile read) are identical
//! regardless of recording order, thread count, or host.
//!
//! Bucket scheme: values below `2^sub_bits` get one bucket each (exact);
//! every power-of-two octave above that is split into `2^sub_bits`
//! linear sub-buckets, so the relative quantization error is bounded by
//! `2^-sub_bits` everywhere. With the default 7 sub-bucket bits the
//! error bound is < 0.8 % — far below the run-to-run noise of any
//! sampled tail percentile.

/// Default number of linear sub-buckets per octave, as a power of two
/// (`7` → 128 sub-buckets → < 0.8 % relative quantization error).
pub(crate) const DEFAULT_SUB_BITS: u32 = 7;

/// A log-linear histogram over `u64` values (typically nanoseconds).
///
/// # Examples
///
/// ```
/// use inca_telemetry::LogLinearHist;
///
/// let mut h = LogLinearHist::default_ns();
/// for v in [10_u64, 20, 30, 40, 1_000_000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.quantile(0.5), Some(30)); // small values are exact
/// let p99 = h.quantile(0.99).unwrap();
/// assert!(p99 >= 1_000_000 && p99 as f64 <= 1_000_000.0 * 1.008);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogLinearHist {
    sub_bits: u32,
    /// `counts[i]` = samples whose value maps to bucket `i`. Grown on
    /// demand; trailing zeros are never materialized.
    counts: Vec<u64>,
    total: u64,
    min_v: u64,
    max_v: u64,
    sum: u128,
}

impl LogLinearHist {
    /// An empty histogram with `sub_bits` linear sub-bucket bits per
    /// octave (clamped to `1..=16`).
    #[must_use]
    pub(crate) fn new(sub_bits: u32) -> Self {
        Self {
            sub_bits: sub_bits.clamp(1, 16),
            counts: Vec::new(),
            total: 0,
            min_v: u64::MAX,
            max_v: 0,
            sum: 0,
        }
    }

    /// The default latency histogram (`DEFAULT_SUB_BITS` sub-bucket
    /// bits).
    #[must_use]
    pub fn default_ns() -> Self {
        Self::new(DEFAULT_SUB_BITS)
    }

    /// The configured sub-bucket bits.
    #[must_use]
    pub fn sub_bits(&self) -> u32 {
        self.sub_bits
    }

    /// The bucket index `value` maps to.
    #[must_use]
    pub(crate) fn bucket_index(&self, value: u64) -> usize {
        let sub = 1u64 << self.sub_bits;
        if value < sub {
            return value as usize;
        }
        let msb = 63 - u64::from(value.leading_zeros());
        let octave = msb - u64::from(self.sub_bits);
        let within = (value >> octave) - sub;
        (sub + octave * sub + within) as usize
    }

    /// Smallest value mapping to bucket `index`.
    #[must_use]
    pub(crate) fn bucket_lower(&self, index: usize) -> u64 {
        let sub = 1usize << self.sub_bits;
        if index < sub {
            return index as u64;
        }
        let octave = index / sub - 1;
        let within = index % sub;
        ((sub + within) as u64) << octave
    }

    /// Largest value mapping to bucket `index` (inclusive).
    #[must_use]
    pub(crate) fn bucket_upper(&self, index: usize) -> u64 {
        let sub = 1usize << self.sub_bits;
        if index < sub {
            return index as u64;
        }
        let octave = index / sub - 1;
        self.bucket_lower(index) + (1u64 << octave) - 1
    }

    /// Records one occurrence of `value`.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` occurrences of `value`.
    pub(crate) fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = self.bucket_index(value);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += n;
        self.total += n;
        self.min_v = self.min_v.min(value);
        self.max_v = self.max_v.max(value);
        self.sum += u128::from(value) * u128::from(n);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Smallest recorded value, or `None` when empty.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        (!self.is_empty()).then_some(self.min_v)
    }

    /// Largest recorded value, or `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (!self.is_empty()).then_some(self.max_v)
    }

    /// Nearest-rank quantile estimate for `q` in `[0, 1]`: the upper
    /// bound of the bucket holding the rank-`⌈q·n⌉` sample, clamped to
    /// the observed maximum. The estimate therefore never undershoots
    /// the exact quantile and overshoots by at most one bucket width
    /// (relative error ≤ `2^-sub_bits`).
    ///
    /// Returns `None` when the histogram is empty — an explicit "no
    /// data" rather than a fabricated zero.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]` — a caller bug, not data.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of [0, 1]");
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Some(self.bucket_upper(i).clamp(self.min_v, self.max_v));
            }
        }
        // Unreachable while counts sum to total; keep a defensive answer.
        Some(self.max_v)
    }

    /// `(bucket_lower, bucket_upper, count)` for every non-empty
    /// bucket, ascending — the sparse columnar export feeding the
    /// `OBS_timeseries.json` artifact.
    #[must_use]
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (self.bucket_lower(i), self.bucket_upper(i), c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl LogLinearHist {
        /// Upper bound on the relative quantization error of any quantile
        /// read (`2^-sub_bits`).
        fn max_relative_error(&self) -> f64 {
            1.0 / (1u64 << self.sub_bits) as f64
        }

        /// Merges another histogram into this one. Merging is commutative
        /// and associative, so sharded recording reproduces the single-
        /// threaded bucket counts exactly, whatever the shard count.
        ///
        /// # Panics
        ///
        /// Panics if the two histograms use different `sub_bits` — their
        /// buckets would not be comparable.
        fn merge(&mut self, other: &LogLinearHist) {
            assert_eq!(self.sub_bits, other.sub_bits, "cannot merge histograms with different geometry");
            if other.counts.len() > self.counts.len() {
                self.counts.resize(other.counts.len(), 0);
            }
            for (slot, &c) in self.counts.iter_mut().zip(&other.counts) {
                *slot += c;
            }
            self.total += other.total;
            self.min_v = self.min_v.min(other.min_v);
            self.max_v = self.max_v.max(other.max_v);
            self.sum += other.sum;
        }

        /// Mean of the recorded values, or `None` when empty.
        fn mean(&self) -> Option<f64> {
            (!self.is_empty()).then(|| self.sum as f64 / self.total as f64)
        }
    }

    #[test]
    fn buckets_tile_the_value_axis() {
        let h = LogLinearHist::new(3);
        // Every value maps to exactly one bucket whose range contains it,
        // and bucket ranges are contiguous.
        let mut prev_upper: Option<u64> = None;
        for idx in 0..100 {
            let lo = h.bucket_lower(idx);
            let hi = h.bucket_upper(idx);
            assert!(lo <= hi);
            assert_eq!(h.bucket_index(lo), idx);
            assert_eq!(h.bucket_index(hi), idx);
            if let Some(p) = prev_upper {
                assert_eq!(lo, p + 1, "gap before bucket {idx}");
            }
            prev_upper = Some(hi);
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LogLinearHist::default_ns();
        for v in 0..128 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(0.5), Some(63));
        assert_eq!(h.quantile(1.0), Some(127));
    }

    #[test]
    fn quantile_overshoot_is_bounded() {
        let mut h = LogLinearHist::default_ns();
        let v = 1_000_003_u64;
        h.record(v);
        let q = h.quantile(0.99).unwrap();
        assert!(q >= v);
        assert!(q as f64 <= v as f64 * (1.0 + h.max_relative_error()));
    }

    #[test]
    fn empty_is_explicit() {
        let h = LogLinearHist::default_ns();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert!(h.is_empty());
    }

    #[test]
    fn single_sample_is_its_own_quantile() {
        let mut h = LogLinearHist::default_ns();
        h.record(123_456_789);
        for q in [0.0, 0.5, 0.99, 1.0] {
            let est = h.quantile(q).unwrap();
            // Clamped to the observed max: a single sample reads back
            // exactly at every quantile.
            assert_eq!(est, 123_456_789);
        }
    }

    #[test]
    fn merge_equals_single_recording() {
        let values: Vec<u64> = (0..1000).map(|i| i * i * 37 + 5).collect();
        let mut whole = LogLinearHist::default_ns();
        for &v in &values {
            whole.record(v);
        }
        let mut merged = LogLinearHist::default_ns();
        for chunk in values.chunks(97) {
            let mut part = LogLinearHist::default_ns();
            for &v in chunk {
                part.record(v);
            }
            merged.merge(&part);
        }
        assert_eq!(whole, merged);
    }

    #[test]
    #[should_panic(expected = "different geometry")]
    fn merge_rejects_mismatched_geometry() {
        let mut a = LogLinearHist::new(5);
        a.merge(&LogLinearHist::new(7));
    }

    #[test]
    fn nonzero_buckets_are_sparse_and_sorted() {
        let mut h = LogLinearHist::default_ns();
        h.record_n(3, 4);
        h.record_n(1 << 20, 2);
        let buckets = h.nonzero_buckets();
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0], (3, 3, 4));
        assert!(buckets[1].0 <= (1 << 20) && buckets[1].1 >= (1 << 20));
        assert_eq!(buckets[1].2, 2);
    }

    /// Property tests on the log-linear histogram: quantile estimates stay
    /// within one bucket of the exact sorted-vec quantiles across
    /// adversarial distributions, and bucket counts are bit-reproducible
    /// across sharded (multi-threaded) recording at any thread count.
    mod props {
        use crate::LogLinearHist;
        use proptest::prelude::*;

        /// Exact nearest-rank quantile over a sorted slice (the reference the
        /// histogram is allowed to overshoot by at most one bucket).
        fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            sorted[rank - 1]
        }

        /// Deterministic LCG stream for building sample vectors in-body (the
        /// proptest shim draws scalars only).
        struct Lcg(u64);

        impl Lcg {
            fn next(&mut self) -> u64 {
                self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                self.0
            }
        }

        /// Adversarial sample sets keyed by `kind`: uniform multi-octave noise,
        /// heavy ties around an octave boundary, exact power-of-two boundary
        /// values (where log-linear bucketing changes octave), and a tiny
        /// distribution dominated by one huge outlier.
        fn sample_set(kind: u8, len: usize, seed: u64) -> Vec<u64> {
            let mut rng = Lcg(seed | 1);
            let mut v: Vec<u64> = match kind {
                0 => (0..len).map(|_| rng.next() % 1_000_000_000_001).collect(),
                1 => {
                    const TIES: [u64; 5] = [0, 1, 127, 128, 129];
                    (0..len).map(|_| TIES[(rng.next() % 5) as usize]).collect()
                }
                2 => (0..len).map(|_| 1u64 << (rng.next() % 40)).collect(),
                _ => {
                    let mut small: Vec<u64> = (0..len).map(|_| rng.next() % 100).collect();
                    small.push(u64::MAX / 2);
                    small
                }
            };
            debug_assert!(!v.is_empty());
            v.shrink_to_fit();
            v
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The histogram quantile never undershoots the exact quantile and
            /// lands in the same bucket (overshoot bounded by one bucket width).
            #[test]
            fn quantile_within_one_bucket_of_exact(
                kind in 0u8..4,
                len in 1usize..400,
                seed in any::<u64>(),
                sub_bits in 2u32..9,
            ) {
                let values = sample_set(kind, len, seed);
                let mut h = LogLinearHist::new(sub_bits);
                for &v in &values {
                    h.record(v);
                }
                let mut sorted = values.clone();
                sorted.sort_unstable();
                for &q in &[0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
                    let exact = exact_quantile(&sorted, q);
                    let est = h.quantile(q).expect("non-empty histogram");
                    prop_assert!(est >= exact, "q={q}: estimate {est} under exact {exact}");
                    let bucket_upper = h.bucket_upper(h.bucket_index(exact));
                    prop_assert!(
                        est <= bucket_upper,
                        "q={q}: estimate {est} beyond the bucket holding exact {exact} (upper {bucket_upper})"
                    );
                }
            }

            /// Recording order is irrelevant: shuffled input produces identical
            /// histogram state.
            #[test]
            fn order_invariant(
                kind in 0u8..4,
                len in 2usize..200,
                seed in any::<u64>(),
                shuffle_seed in any::<u64>(),
            ) {
                let values = sample_set(kind, len, seed);
                let mut forward = LogLinearHist::default_ns();
                for &v in &values {
                    forward.record(v);
                }
                // Deterministic pseudo-shuffle driven by the second seed.
                let mut shuffled = values.clone();
                let mut rng = Lcg(shuffle_seed | 1);
                for i in (1..shuffled.len()).rev() {
                    let j = (rng.next() % (i as u64 + 1)) as usize;
                    shuffled.swap(i, j);
                }
                let mut backward = LogLinearHist::default_ns();
                for &v in &shuffled {
                    backward.record(v);
                }
                prop_assert_eq!(forward, backward);
            }

            /// Sharded recording merged back together is bit-identical to
            /// single-threaded recording, for every worker count.
            #[test]
            fn merge_reproducible_across_thread_counts(
                kind in 0u8..4,
                len in 1usize..300,
                seed in any::<u64>(),
            ) {
                let values = sample_set(kind, len, seed);
                let mut reference = LogLinearHist::default_ns();
                for &v in &values {
                    reference.record(v);
                }
                for workers in [1usize, 2, 3, 4, 8] {
                    let chunk = values.len().div_ceil(workers);
                    let shards: Vec<LogLinearHist> = std::thread::scope(|scope| {
                        let handles: Vec<_> = values
                            .chunks(chunk)
                            .map(|part| {
                                scope.spawn(move || {
                                    let mut h = LogLinearHist::default_ns();
                                    for &v in part {
                                        h.record(v);
                                    }
                                    h
                                })
                            })
                            .collect();
                        handles.into_iter().map(|h| h.join().expect("shard thread")).collect()
                    });
                    let mut merged = LogLinearHist::default_ns();
                    for shard in &shards {
                        merged.merge(shard);
                    }
                    prop_assert_eq!(
                        &merged, &reference,
                        "sharded recording diverged at {} workers", workers
                    );
                }
            }
        }

        /// The quantile error bound claimed by `max_relative_error` holds on a
        /// dense geometric ladder.
        #[test]
        fn relative_error_bound_holds() {
            let mut h = LogLinearHist::default_ns();
            let mut v = 1u64;
            let mut values = Vec::new();
            while v < 1u64 << 50 {
                h.record(v);
                values.push(v);
                v = v * 21 / 16 + 1;
            }
            values.sort_unstable();
            for i in 1..=100 {
                let q = f64::from(i) / 100.0;
                let exact = exact_quantile(&values, q);
                let est = h.quantile(q).unwrap();
                assert!(est >= exact);
                assert!(
                    est as f64 <= exact as f64 * (1.0 + h.max_relative_error()) + 1.0,
                    "q={q}: {est} vs exact {exact}"
                );
            }
        }
    }
}
