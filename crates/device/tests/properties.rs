//! Property-based tests on RRAM device invariants.

use inca_device::{DeviceParams, NoiseModel};
use proptest::prelude::*;
use rand::SeedableRng;

proptest! {
    /// Read energy is monotonic in the normalized conductance.
    #[test]
    fn read_energy_monotonic(a in 0.0f64..=1.0, b in 0.0f64..=1.0) {
        let params = DeviceParams::default();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(params.read_energy_j(lo) <= params.read_energy_j(hi) + 1e-24);
    }

    /// Noise with relative σ never changes the sign expectation: the sample
    /// mean over many draws stays near the clean value.
    #[test]
    fn relative_noise_unbiased(sigma in 0.001f64..0.05, value in 0.1f64..10.0, seed in any::<u64>()) {
        let noise = NoiseModel::relative(sigma);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = 4000;
        let mean: f64 = (0..n).map(|_| noise.apply(value, &mut rng)).sum::<f64>() / f64::from(n);
        // 6-sigma band on the sample mean.
        let band = 6.0 * sigma * value / f64::from(n).sqrt();
        prop_assert!((mean - value).abs() < band.max(1e-6), "mean={mean} value={value}");
    }
}
