use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::Tensor;

/// A procedurally generated multi-class image dataset.
///
/// Substitutes for ImageNet/CIFAR in the accuracy studies (see DESIGN.md):
/// each class `k` is a distinct oriented-grating pattern
/// `sin(f_k · (x·cosθ_k + y·sinθ_k))` plus per-sample Gaussian pixel noise
/// and a random phase. The task is learnable by a small CNN in a few epochs
/// but hard enough that accuracy responds measurably to weight corruption —
/// exactly what Tables I and VI need.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyntheticDataset {
    images: Vec<f32>,
    labels: Vec<usize>,
    samples: usize,
    side: usize,
}

impl SyntheticDataset {
    /// Generates `samples` images of `side × side` pixels over `classes`
    /// classes, deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero.
    #[must_use]
    pub fn generate(samples: usize, side: usize, classes: usize, seed: u64) -> Self {
        assert!(samples > 0 && side > 0 && classes > 0, "dataset dimensions must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut images = Vec::with_capacity(samples * side * side);
        let mut labels = Vec::with_capacity(samples);
        for s in 0..samples {
            let class = s % classes;
            let theta = std::f32::consts::PI * class as f32 / classes as f32;
            let freq = 0.9 + 0.55 * (class % 3) as f32;
            let phase: f32 = rng.gen_range(0.0..std::f32::consts::TAU);
            let (sin_t, cos_t) = theta.sin_cos();
            for y in 0..side {
                for x in 0..side {
                    let u = x as f32 - side as f32 / 2.0;
                    let v = y as f32 - side as f32 / 2.0;
                    let signal = (freq * (u * cos_t + v * sin_t) + phase).sin();
                    let noise: f32 = rng.gen_range(-0.25..0.25);
                    images.push(signal + noise);
                }
            }
            labels.push(class);
        }
        Self { images, labels, samples, side }
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples
    }

    /// Whether the dataset is empty (never true for generated sets).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples == 0
    }

    /// Assembles a `[len, 1, side, side]` batch of the samples at `indices`
    /// together with their labels.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    #[must_use]
    pub fn batch(&self, indices: &[usize]) -> (Tensor, Vec<usize>) {
        let pix = self.side * self.side;
        let mut data = Vec::with_capacity(indices.len() * pix);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            assert!(i < self.samples, "sample index {i} out of bounds");
            data.extend_from_slice(&self.images[i * pix..(i + 1) * pix]);
            labels.push(self.labels[i]);
        }
        (Tensor::from_vec(data, &[indices.len(), 1, self.side, self.side]), labels)
    }

    /// Splits sample indices into train/test at `train_fraction`,
    /// interleaving classes so both splits are balanced.
    #[must_use]
    pub fn split(&self, train_fraction: f32) -> (Vec<usize>, Vec<usize>) {
        let cut = ((self.samples as f32) * train_fraction.clamp(0.0, 1.0)) as usize;
        ((0..cut).collect(), (cut..self.samples).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = SyntheticDataset::generate(32, 8, 4, 7);
        let b = SyntheticDataset::generate(32, 8, 4, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = SyntheticDataset::generate(32, 8, 4, 7);
        let b = SyntheticDataset::generate(32, 8, 4, 8);
        assert_ne!(a, b);
    }

    #[test]
    fn labels_cycle_through_classes() {
        let d = SyntheticDataset::generate(10, 4, 3, 0);
        assert_eq!(d.labels, vec![0, 1, 2, 0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn batch_shapes() {
        let d = SyntheticDataset::generate(16, 6, 4, 1);
        let (x, y) = d.batch(&[0, 5, 9]);
        assert_eq!(x.shape(), &[3, 1, 6, 6]);
        assert_eq!(y, vec![0, 1, 1]);
    }

    #[test]
    fn split_partitions_everything() {
        let d = SyntheticDataset::generate(20, 4, 4, 2);
        let (train, test) = d.split(0.8);
        assert_eq!(train.len(), 16);
        assert_eq!(test.len(), 4);
        assert_eq!(train.len() + test.len(), d.len());
    }

    #[test]
    fn classes_are_visually_distinct() {
        // Mean absolute pixel difference between class prototypes should
        // exceed intra-class differences: a sanity check that the task is
        // learnable.
        let d = SyntheticDataset::generate(64, 8, 2, 3);
        let pix = 64usize;
        let class_mean = |class: usize| -> Vec<f32> {
            let idxs: Vec<usize> = (0..d.len()).filter(|&i| d.labels[i] == class).collect();
            let mut mean = vec![0.0f32; pix];
            for &i in &idxs {
                let (x, _) = d.batch(&[i]);
                for (m, v) in mean.iter_mut().zip(x.data()) {
                    *m += v / idxs.len() as f32;
                }
            }
            mean
        };
        let m0 = class_mean(0);
        let m1 = class_mean(1);
        let diff: f32 = m0.iter().zip(&m1).map(|(a, b)| (a - b).abs()).sum::<f32>() / pix as f32;
        assert!(diff > 0.1, "class prototypes too similar: {diff}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_samples_panics() {
        let _ = SyntheticDataset::generate(0, 8, 4, 0);
    }
}
