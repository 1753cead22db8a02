use inca_units::{Energy, EnergyPerBit, Time};
use serde::{Deserialize, Serialize};

use crate::constants;

/// An HBM2 DRAM channel model.
///
/// Two paper-published behaviours are reproduced:
///
/// 1. **Access energy** — 32 pJ per 8-bit access (§V-A, adopted from
///    NeuroSim+), i.e. 4 pJ/bit.
/// 2. **The Fig 1b latency knee** — effective latency is flat up to ~80 % of
///    the maximum sustained bandwidth, then "increases exponentially in the
///    region beyond 80 %" (citing Li/Reddy/Jacob and Srinivasan). We model
///
///    ```text
///    latency(u) = L0                       for u ≤ knee
///    latency(u) = L0 · exp(k · (u - knee))  for u > knee
///    ```
///
///    with `u` the fraction of sustained bandwidth, `knee = 0.8`, and `k`
///    chosen so latency grows ~50× as `u → 1` (the qualitative blow-up of
///    the figure).
///
/// # Examples
///
/// ```
/// use inca_circuit::DramModel;
///
/// let dram = DramModel::hbm2_8gb();
/// // `(utilization, latency_ns)` at u = 0, 0.01, …, 1.
/// let curve = dram.latency_curve(101);
/// // Below the knee, latency is flat:
/// assert_eq!(curve[20].1, curve[70].1);
/// // Beyond it, latency explodes:
/// assert!(curve[99].1 > 10.0 * curve[50].1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DramModel {
    capacity_bytes: u64,
    /// Maximum sustained bandwidth, bytes/s.
    sustained_bw: f64,
    /// Idle (unloaded) access latency.
    idle_latency_s: Time,
    /// Energy per bit.
    energy_per_bit_j: EnergyPerBit,
    /// Utilization knee where queueing delay takes off.
    knee: f64,
    /// Exponential growth coefficient past the knee.
    blowup_k: f64,
}

impl DramModel {
    /// The paper's 8 GB HBM2 part (Table II). Sustained bandwidth is set to
    /// 256 GB/s per stack (HBM2 spec) and idle latency to 100 ns.
    #[must_use]
    pub fn hbm2_8gb() -> Self {
        Self {
            capacity_bytes: 8 * 1024 * 1024 * 1024,
            sustained_bw: 256e9,
            idle_latency_s: Time::from_seconds(100e-9),
            energy_per_bit_j: constants::HBM2_ENERGY_PER_BIT, // 32 pJ / 8 bits (SS V-A)
            knee: 0.8,
            blowup_k: 20.0,
        }
    }

    /// Capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Energy to move `bytes` (32 pJ per byte at the paper's 8-bit
    /// granularity).
    #[must_use]
    pub fn access_energy_j(&self, bytes: u64) -> Energy {
        bytes as f64 * 8.0 * self.energy_per_bit_j
    }

    /// Effective per-access latency at bandwidth utilization `u ∈ [0, 1]` —
    /// the Fig 1b curve.
    #[must_use]
    pub(crate) fn latency_at_utilization(&self, u: f64) -> Time {
        let u = u.clamp(0.0, 1.0);
        if u <= self.knee {
            self.idle_latency_s
        } else {
            self.idle_latency_s * (self.blowup_k * (u - self.knee)).exp()
        }
    }

    /// Samples the Fig 1b curve: `(utilization, latency_ns)` pairs over
    /// `points` evenly spaced utilizations in `[0, 1]`.
    #[must_use]
    pub fn latency_curve(&self, points: usize) -> Vec<(f64, f64)> {
        (0..points)
            .map(|i| {
                let u = if points <= 1 { 0.0 } else { i as f64 / (points - 1) as f64 };
                (u, self.latency_at_utilization(u).nanoseconds())
            })
            .collect()
    }
}

impl Default for DramModel {
    fn default() -> Self {
        Self::hbm2_8gb()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inca_units::Time;
    use proptest::prelude::*;

    proptest! {
        /// DRAM latency is monotone nondecreasing in utilization and flat
        /// below the knee.
        #[test]
        fn dram_latency_monotone(u1 in 0.0f64..=1.0, u2 in 0.0f64..=1.0) {
            let d = DramModel::hbm2_8gb();
            let (lo, hi) = if u1 <= u2 { (u1, u2) } else { (u2, u1) };
            prop_assert!(d.latency_at_utilization(lo) <= d.latency_at_utilization(hi) + Time::from_seconds(1e-18));
            if hi <= 0.8 {
                prop_assert_eq!(d.latency_at_utilization(lo), d.latency_at_utilization(hi));
            }
        }
    }

    #[test]
    fn energy_is_32pj_per_byte() {
        let d = DramModel::hbm2_8gb();
        assert!((d.access_energy_j(1).joules() - 32e-12).abs() < 1e-18);
        assert!((d.access_energy_j(1000).joules() - 32e-9).abs() < 1e-15);
    }

    #[test]
    fn latency_flat_below_knee() {
        let d = DramModel::hbm2_8gb();
        for u in [0.0, 0.3, 0.5, 0.8] {
            assert_eq!(d.latency_at_utilization(u), Time::from_seconds(100e-9), "u={u}");
        }
    }

    #[test]
    fn latency_explodes_beyond_knee() {
        let d = DramModel::hbm2_8gb();
        let l80 = d.latency_at_utilization(0.8);
        let l90 = d.latency_at_utilization(0.9);
        let l100 = d.latency_at_utilization(1.0);
        assert!(l90 > 2.0 * l80);
        assert!(l100 > 10.0 * l80);
        assert!(l100 > l90);
    }

    #[test]
    fn latency_curve_is_monotone_nondecreasing() {
        let d = DramModel::hbm2_8gb();
        let curve = d.latency_curve(101);
        assert_eq!(curve.len(), 101);
        for pair in curve.windows(2) {
            assert!(pair[1].1 >= pair[0].1);
        }
    }

    #[test]
    fn utilization_clamped() {
        let d = DramModel::hbm2_8gb();
        assert_eq!(d.latency_at_utilization(-0.5), d.latency_at_utilization(0.0));
        assert_eq!(d.latency_at_utilization(1.5), d.latency_at_utilization(1.0));
    }
}
