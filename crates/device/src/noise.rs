use rand::distributions::Distribution;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Zero-centered Gaussian noise model for RRAM nonideality.
///
/// The paper models the combined effect of device variation, nonlinearity
/// and asymmetry as zero-centered normal noise whose strength σ is expressed
/// *relative* to the stored value (§V-B7, following Yu, *Neuro-inspired
/// computing with emerging nonvolatile memorys*). The practical range is
/// σ ∈ [0.5 %, 5 %].
///
/// # Examples
///
/// ```
/// use inca_device::NoiseModel;
/// use rand::SeedableRng;
///
/// let noise = NoiseModel::relative(0.02);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let noisy = noise.apply(1.0, &mut rng);
/// assert!((noisy - 1.0).abs() < 0.2); // within a few sigma
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoiseModel {
    /// Noise strength σ.
    pub sigma: f64,
    /// When `true`, σ scales with the magnitude of the perturbed value
    /// (`x → x · (1 + N(0, σ))`); when `false` it is absolute
    /// (`x → x + N(0, σ)`).
    pub relative: bool,
}

impl NoiseModel {
    /// A noise model with σ relative to the stored value (the paper's mode).
    #[must_use]
    pub fn relative(sigma: f64) -> Self {
        Self { sigma: sigma.abs(), relative: true }
    }

    /// A noise model with absolute σ.
    #[must_use]
    pub fn absolute(sigma: f64) -> Self {
        Self { sigma: sigma.abs(), relative: false }
    }

    /// The noiseless model (σ = 0).
    #[must_use]
    pub fn none() -> Self {
        Self { sigma: 0.0, relative: true }
    }

    /// Whether this model perturbs values at all.
    #[must_use]
    pub fn is_noisy(&self) -> bool {
        self.sigma > 0.0
    }

    /// Applies one sample of noise to `value`.
    pub fn apply<R: Rng + ?Sized>(&self, value: f64, rng: &mut R) -> f64 {
        if self.sigma == 0.0 {
            return value;
        }
        let z = standard_normal(rng);
        if self.relative {
            value * (1.0 + self.sigma * z)
        } else {
            value + self.sigma * z
        }
    }

    /// Applies independent noise samples to every element of `values`.
    pub fn apply_slice<R: Rng + ?Sized>(&self, values: &mut [f32], rng: &mut R) {
        if self.sigma == 0.0 {
            return;
        }
        for v in values {
            *v = self.apply(f64::from(*v), rng) as f32;
        }
    }
}

impl Default for NoiseModel {
    fn default() -> Self {
        Self::none()
    }
}

/// Samples a standard normal via Box–Muller (avoids depending on
/// `rand_distr`, which is outside the approved dependency set).
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// A `rand` distribution wrapper so the model can be plugged into iterator
/// pipelines (`rng.sample(noise_dist)`).
impl Distribution<f64> for NoiseModel {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.apply(1.0, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn zero_sigma_is_identity() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let n = NoiseModel::none();
        assert_eq!(n.apply(3.25, &mut rng), 3.25);
        assert!(!n.is_noisy());
    }

    #[test]
    fn relative_noise_statistics() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let n = NoiseModel::relative(0.05);
        let samples: Vec<f64> = (0..20_000).map(|_| n.apply(2.0, &mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        assert!((mean - 2.0).abs() < 0.01, "mean={mean}");
        // Var[x(1+σz)] = x²σ² = 4 * 0.0025 = 0.01
        assert!((var - 0.01).abs() < 0.002, "var={var}");
    }

    #[test]
    fn absolute_noise_statistics() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(43);
        let n = NoiseModel::absolute(0.1);
        let samples: Vec<f64> = (0..20_000).map(|_| n.apply(0.0, &mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        assert!(mean.abs() < 0.005, "mean={mean}");
        assert!((var - 0.01).abs() < 0.002, "var={var}");
    }

    #[test]
    fn relative_noise_scales_with_magnitude() {
        let mut rng_a = rand::rngs::StdRng::seed_from_u64(7);
        let mut rng_b = rand::rngs::StdRng::seed_from_u64(7);
        let n = NoiseModel::relative(0.05);
        let small = n.apply(1.0, &mut rng_a) - 1.0;
        let large = n.apply(100.0, &mut rng_b) - 100.0;
        assert!((large - 100.0 * small).abs() < 1e-9);
    }

    #[test]
    fn apply_slice_perturbs_every_element() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut v = vec![1.0f32; 64];
        NoiseModel::relative(0.05).apply_slice(&mut v, &mut rng);
        assert!(v.iter().any(|&x| (x - 1.0).abs() > 1e-6));
    }

    #[test]
    fn negative_sigma_is_normalized() {
        assert_eq!(NoiseModel::relative(-0.02).sigma, 0.02);
    }
}
