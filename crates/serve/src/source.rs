//! Request sources: Poisson and bursty (MMPP-2) arrival processes over
//! the model zoo.
//!
//! Every source is driven by the vendored seeded [`rand`] shim, so a
//! given `(seed, rate, mix)` always produces the same arrival sequence.

use inca_events::{secs_to_ns, SimTime, NS_PER_SEC};
use inca_workloads::Model;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A weighted mixture over serving models.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelMix {
    /// The distinct models requests may target.
    pub models: Vec<Model>,
    /// Relative (unnormalized) traffic weight of each model.
    pub weights: Vec<f64>,
}

impl ModelMix {
    /// A mixture with the given models and weights.
    ///
    /// # Panics
    ///
    /// Panics on empty or mismatched inputs, or non-positive weights —
    /// a serving config error, caught at construction.
    #[must_use]
    pub(crate) fn new(models: Vec<Model>, weights: Vec<f64>) -> Self {
        assert!(!models.is_empty(), "model mix must not be empty");
        assert_eq!(models.len(), weights.len(), "one weight per model");
        assert!(weights.iter().all(|&w| w > 0.0), "weights must be positive");
        Self { models, weights }
    }

    /// The default serving mix: a heavy classifier, two light mobile
    /// models, and an occasional very heavy VGG — the shape of a mixed
    /// production fleet.
    #[must_use]
    pub(crate) fn paper_serving_mix() -> Self {
        Self::new(
            vec![Model::ResNet18, Model::MobileNetV2, Model::MnasNet, Model::Vgg16],
            vec![4.0, 3.0, 2.0, 1.0],
        )
    }

    /// Number of distinct models.
    #[must_use]
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the mix is empty (never true for constructed mixes).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Normalized weight of model `idx`.
    #[must_use]
    pub(crate) fn share(&self, idx: usize) -> f64 {
        self.weights[idx] / self.weights.iter().sum::<f64>()
    }

    /// Draws a model index proportionally to the weights.
    fn pick(&self, rng: &mut StdRng) -> usize {
        let total: f64 = self.weights.iter().sum();
        let mut u = rng.gen_range(0.0..total);
        for (i, &w) in self.weights.iter().enumerate() {
            if u < w {
                return i;
            }
            u -= w;
        }
        self.weights.len() - 1
    }
}

/// The stochastic shape of the arrival process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalKind {
    /// Memoryless arrivals at a constant rate (requests/second).
    Poisson {
        /// Mean offered load in requests per second.
        rate_rps: f64,
    },
    /// Two-state Markov-modulated Poisson process: bursts at `rate_hi`
    /// interleaved with lulls at `rate_lo`, with exponentially
    /// distributed state dwell times.
    Mmpp {
        /// Arrival rate in the burst state (requests/second).
        rate_hi: f64,
        /// Arrival rate in the lull state (requests/second).
        rate_lo: f64,
        /// Mean dwell time in each state, seconds.
        mean_dwell_s: f64,
    },
}

/// A bounded stream of `(arrival_ns, model_idx)` requests, drawn from a
/// private seeded RNG. Iteration order is the arrival order.
pub(crate) struct RequestSource {
    kind: ArrivalKind,
    mix: ModelMix,
    rng: StdRng,
    clock_ns: SimTime,
    /// MMPP only: currently in the burst state, and when it ends.
    in_burst: bool,
    state_until_ns: SimTime,
    remaining: u64,
}

impl RequestSource {
    /// A stochastic source emitting `count` requests.
    #[must_use]
    pub fn new(kind: ArrivalKind, mix: ModelMix, seed: u64, count: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let (in_burst, state_until_ns) = match kind {
            ArrivalKind::Poisson { .. } => (false, SimTime::MAX),
            ArrivalKind::Mmpp { mean_dwell_s, .. } => {
                // Start in the burst state with a fresh dwell draw.
                (true, secs_to_ns(exp_draw(&mut rng, 1.0 / mean_dwell_s)))
            }
        };
        Self { kind, mix, rng, clock_ns: 0, in_burst, state_until_ns, remaining: count }
    }

    /// The next arrival, or `None` when the stream is exhausted.
    pub(crate) fn next_request(&mut self) -> Option<(SimTime, usize)> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        match self.kind {
            ArrivalKind::Poisson { rate_rps } => {
                self.clock_ns += gap_ns(&mut self.rng, rate_rps);
            }
            ArrivalKind::Mmpp { rate_hi, rate_lo, mean_dwell_s } => loop {
                let rate = if self.in_burst { rate_hi } else { rate_lo };
                let candidate = self.clock_ns + gap_ns(&mut self.rng, rate);
                if candidate <= self.state_until_ns {
                    self.clock_ns = candidate;
                    break;
                }
                // The state flips before this arrival would land: advance
                // to the switch point and redraw there (the exponential's
                // memorylessness makes this exact, not an approximation).
                self.clock_ns = self.state_until_ns;
                self.in_burst = !self.in_burst;
                self.state_until_ns =
                    self.clock_ns.saturating_add(secs_to_ns(exp_draw(&mut self.rng, 1.0 / mean_dwell_s)));
            },
        }
        let model_idx = self.mix.pick(&mut self.rng);
        Some((self.clock_ns, model_idx))
    }
}

/// One exponential inter-arrival gap at `rate` events/second, in ns.
fn gap_ns(rng: &mut StdRng, rate: f64) -> SimTime {
    assert!(rate > 0.0, "arrival rate must be positive");
    let gap_s = exp_draw(rng, rate);
    // Round, but never zero: two arrivals at the same instant would only
    // be ordered by the queue's tie-break, which is fine, but a zero gap
    // at huge rates could stall virtual time entirely.
    (gap_s * NS_PER_SEC).round().max(1.0) as SimTime
}

/// Draws Exp(rate) via inversion; 1 - u avoids ln(0).
fn exp_draw(rng: &mut StdRng, rate: f64) -> f64 {
    let u: f64 = rng.gen_range(0.0..1.0);
    -(1.0 - u).ln() / rate
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ModelMix {
        /// A single-model mix.
        pub(crate) fn single(model: Model) -> Self {
            Self::new(vec![model], vec![1.0])
        }
    }

    impl RequestSource {
        /// Drains the source: `(arrival_ns, model_idx)` in arrival order.
        fn record(mut self) -> Vec<(SimTime, usize)> {
            std::iter::from_fn(|| self.next_request()).collect()
        }
    }

    #[test]
    fn poisson_mean_rate_is_close() {
        let mix = ModelMix::single(Model::ResNet18);
        let mut src = RequestSource::new(ArrivalKind::Poisson { rate_rps: 1000.0 }, mix, 7, 20_000);
        let mut last = 0;
        let mut n = 0u64;
        while let Some((t, _)) = src.next_request() {
            last = t;
            n += 1;
        }
        let rate = n as f64 / (last as f64 / NS_PER_SEC);
        assert!((rate - 1000.0).abs() / 1000.0 < 0.05, "empirical rate {rate}");
    }

    #[test]
    fn same_seed_same_stream() {
        let mk = || {
            RequestSource::new(
                ArrivalKind::Mmpp { rate_hi: 2000.0, rate_lo: 100.0, mean_dwell_s: 0.05 },
                ModelMix::paper_serving_mix(),
                42,
                500,
            )
            .record()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn mmpp_is_burstier_than_poisson() {
        // Squared coefficient of variation of inter-arrival gaps: 1 for
        // Poisson, > 1 for a 2-state MMPP with distinct rates.
        let cv2 = |kind| {
            let src = RequestSource::new(kind, ModelMix::single(Model::MnasNet), 3, 30_000);
            let t: Vec<u64> = src.record().iter().map(|&(at_ns, _)| at_ns).collect();
            let gaps: Vec<f64> = t.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
            var / (mean * mean)
        };
        let poisson = cv2(ArrivalKind::Poisson { rate_rps: 1000.0 });
        let mmpp = cv2(ArrivalKind::Mmpp { rate_hi: 1900.0, rate_lo: 100.0, mean_dwell_s: 0.1 });
        assert!((poisson - 1.0).abs() < 0.15, "poisson cv2 {poisson}");
        assert!(mmpp > 2.0, "mmpp cv2 {mmpp}");
    }

    #[test]
    fn mix_shares_normalize() {
        let mix = ModelMix::paper_serving_mix();
        let total: f64 = (0..mix.len()).map(|i| mix.share(i)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }
}
