use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::{Loss, Network, NoiseInjection, QuantConfig, Sgd, SyntheticDataset};

/// Training-loop configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training split.
    pub epochs: usize,
    /// Learning rate for vanilla SGD.
    pub lr: f32,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Fraction of the dataset used for training (rest is the test split).
    pub train_fraction: f32,
    /// Noise-injection protocol (Table VI).
    pub noise: NoiseInjection,
    /// Fake-quantization configuration (Table I).
    pub quant: QuantConfig,
    /// RNG seed for noise sampling.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 5,
            lr: 0.05,
            batch_size: 16,
            train_fraction: 0.8,
            noise: NoiseInjection::none(),
            quant: QuantConfig::full_precision(),
            seed: 0,
        }
    }
}

/// Statistics produced by [`Trainer::fit`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainStats {
    /// Mean training loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Training accuracy after the final epoch.
    pub final_train_accuracy: f32,
    /// Held-out test accuracy after the final epoch.
    pub test_accuracy: f32,
}

/// Drives the training loop: forward (with optional activation noise /
/// quantization), loss, backward, vanilla-SGD update, and — for the
/// weight-noise protocol — a post-update programming perturbation.
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer.
    ///
    /// # Panics
    ///
    /// Panics if `epochs` or `batch_size` is zero, `lr` is not positive,
    /// `train_fraction` is not a finite value in `(0, 1]`, or the
    /// quantization config sets a bit depth outside `1..=24` or holds a
    /// range that is not finite and positive.
    #[must_use]
    pub fn new(config: TrainConfig) -> Self {
        assert!(config.epochs > 0, "epochs must be positive");
        assert!(config.batch_size > 0, "batch size must be positive");
        assert!(config.lr > 0.0, "learning rate must be positive");
        let fraction = config.train_fraction;
        assert!(fraction > 0.0 && fraction <= 1.0, "train fraction must lie in (0, 1], got {fraction}");
        config.quant.assert_valid();
        Self { config }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Trains `net` on `dataset` and returns per-epoch losses plus final
    /// train/test accuracies. With a train fraction of 1 the test split is
    /// empty and the test accuracy is the train accuracy.
    ///
    /// # Panics
    ///
    /// Panics if the train fraction of `dataset` holds no sample.
    pub fn fit(&mut self, net: &mut Network, dataset: &SyntheticDataset, loss: Loss) -> TrainStats {
        let cfg = self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let (train_idx, test_idx) = dataset.split(cfg.train_fraction);
        assert!(
            !train_idx.is_empty(),
            "a train fraction of {} leaves no training sample",
            cfg.train_fraction
        );
        let optimizer = Sgd::new(cfg.lr);
        let mut epoch_losses = Vec::with_capacity(cfg.epochs);

        for _epoch in 0..cfg.epochs {
            let mut epoch_loss = 0.0f32;
            let mut batches = 0usize;
            for chunk in train_idx.chunks(cfg.batch_size) {
                let (x, y) = dataset.batch(chunk);
                let logits = self.forward(net, &x, &mut rng);
                let (l, grad) = loss.evaluate(&logits, &y);
                epoch_loss += l;
                batches += 1;
                let _ = net.backward(&grad);
                optimizer.step(net);
                // Model the imperfect RRAM programming of the just-updated
                // weights (WS scenario).
                cfg.noise.perturb_weights(net, &mut rng);
            }
            epoch_losses.push(if batches > 0 { epoch_loss / batches as f32 } else { 0.0 });
        }

        // Post-training quantization (the Table I protocol, following
        // Banner et al.): weights snap to the grid once, after training.
        cfg.quant.apply_to_weights(net);

        let final_train_accuracy = self.evaluate(net, dataset, &train_idx, &mut rng);
        let test_accuracy = if test_idx.is_empty() {
            final_train_accuracy
        } else {
            self.evaluate(net, dataset, &test_idx, &mut rng)
        };
        TrainStats { epoch_losses, final_train_accuracy, test_accuracy }
    }

    /// Classification accuracy on the given sample indices, evaluated under
    /// the same noise/quantization regime as training (the paper evaluates
    /// the *in situ* accelerator, noise included).
    pub fn evaluate(
        &mut self,
        net: &mut Network,
        dataset: &SyntheticDataset,
        indices: &[usize],
        rng: &mut StdRng,
    ) -> f32 {
        if indices.is_empty() {
            return 0.0;
        }
        let mut correct = 0usize;
        for chunk in indices.chunks(self.config.batch_size) {
            let (x, y) = dataset.batch(chunk);
            let logits = self.forward(net, &x, rng);
            correct += (Loss::accuracy(&logits, &y) * y.len() as f32).round() as usize;
        }
        correct as f32 / indices.len() as f32
    }

    fn forward(&self, net: &mut Network, x: &crate::Tensor, rng: &mut StdRng) -> crate::Tensor {
        let noise = self.config.noise;
        let quant = self.config.quant;
        net.forward_with(x, &mut |_, t| {
            let t = noise.perturb_activation(t, rng);
            quant.apply_to_activation(t)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers;

    fn small_net(seed: u64) -> Network {
        let mut net = Network::new();
        net.push(layers::Conv2d::new(1, 4, 3, 1, 1, seed));
        net.push(layers::Relu::new());
        net.push(layers::MaxPool2d::new(2, 2));
        net.push(layers::Flatten::new());
        net.push(layers::Linear::new(4 * 4 * 4, 4, seed + 1));
        net
    }

    #[test]
    fn clean_training_learns_the_task() {
        let dataset = SyntheticDataset::generate(240, 8, 4, 11);
        let mut net = small_net(0);
        let mut trainer = Trainer::new(TrainConfig { epochs: 6, lr: 0.08, ..TrainConfig::default() });
        let stats = trainer.fit(&mut net, &dataset, Loss::CrossEntropy);
        assert!(stats.test_accuracy > 0.7, "test accuracy {}", stats.test_accuracy);
        // Loss should broadly decrease.
        assert!(stats.epoch_losses.last().unwrap() < stats.epoch_losses.first().unwrap());
    }

    /// Miniature Table VI: σ = 5 % weight noise collapses training while the
    /// same noise on activations barely registers.
    #[test]
    fn heavy_weight_noise_hurts_more_than_activation_noise() {
        let classes = 10;
        let dataset = SyntheticDataset::generate(300, 10, classes, 11);
        let deeper = |seed: u64| {
            let mut net = Network::new();
            net.push(layers::Conv2d::new(1, 6, 3, 1, 1, seed));
            net.push(layers::Relu::new());
            net.push(layers::MaxPool2d::new(2, 2));
            net.push(layers::Flatten::new());
            net.push(layers::Linear::new(6 * 5 * 5, classes, seed + 1));
            net
        };
        let base = TrainConfig { epochs: 5, lr: 0.08, ..TrainConfig::default() };

        let mut wn_net = deeper(0);
        let mut wn = Trainer::new(TrainConfig { noise: NoiseInjection::weights(0.05), ..base });
        let wn_stats = wn.fit(&mut wn_net, &dataset, Loss::CrossEntropy);

        let mut an_net = deeper(0);
        let mut an = Trainer::new(TrainConfig { noise: NoiseInjection::activations(0.05), ..base });
        let an_stats = an.fit(&mut an_net, &dataset, Loss::CrossEntropy);

        assert!(
            an_stats.test_accuracy > wn_stats.test_accuracy + 0.1,
            "activation-noise accuracy {} should clearly beat weight-noise accuracy {}",
            an_stats.test_accuracy,
            wn_stats.test_accuracy
        );
    }

    #[test]
    #[should_panic(expected = "train fraction must lie in (0, 1], got NaN")]
    fn a_nan_train_fraction_is_refused() {
        let _ = Trainer::new(TrainConfig { train_fraction: f32::NAN, ..TrainConfig::default() });
    }

    #[test]
    #[should_panic(expected = "train fraction must lie in (0, 1], got 0")]
    fn a_zero_train_fraction_is_refused() {
        let _ = Trainer::new(TrainConfig { train_fraction: 0.0, ..TrainConfig::default() });
    }

    #[test]
    #[should_panic(expected = "train fraction must lie in (0, 1], got -1")]
    fn a_negative_train_fraction_is_refused() {
        let _ = Trainer::new(TrainConfig { train_fraction: -1.0, ..TrainConfig::default() });
    }

    #[test]
    #[should_panic(expected = "train fraction must lie in (0, 1], got 1.5")]
    fn a_train_fraction_past_one_is_refused() {
        let _ = Trainer::new(TrainConfig { train_fraction: 1.5, ..TrainConfig::default() });
    }

    #[test]
    #[should_panic(expected = "train fraction must lie in (0, 1], got inf")]
    fn an_infinite_train_fraction_is_refused() {
        let _ = Trainer::new(TrainConfig { train_fraction: f32::INFINITY, ..TrainConfig::default() });
    }

    #[test]
    #[should_panic(expected = "a train fraction of 0.01 leaves no training sample")]
    fn a_split_without_training_samples_is_refused() {
        let dataset = SyntheticDataset::generate(40, 8, 4, 5);
        let mut trainer =
            Trainer::new(TrainConfig { epochs: 1, train_fraction: 0.01, ..TrainConfig::default() });
        let _ = trainer.fit(&mut small_net(0), &dataset, Loss::CrossEntropy);
    }

    #[test]
    fn the_whole_dataset_trains_and_tests_on_itself() {
        let dataset = SyntheticDataset::generate(40, 8, 4, 5);
        let mut trainer =
            Trainer::new(TrainConfig { epochs: 2, train_fraction: 1.0, ..TrainConfig::default() });
        let stats = trainer.fit(&mut small_net(0), &dataset, Loss::CrossEntropy);
        assert!(stats.epoch_losses.iter().all(|&l| l > 0.0), "{:?}", stats.epoch_losses);
        assert_eq!(stats.test_accuracy.to_bits(), stats.final_train_accuracy.to_bits());
    }

    #[test]
    fn l2_loss_also_trains() {
        let dataset = SyntheticDataset::generate(160, 8, 4, 5);
        let mut net = small_net(3);
        let mut trainer = Trainer::new(TrainConfig { epochs: 4, lr: 0.05, ..TrainConfig::default() });
        let stats = trainer.fit(&mut net, &dataset, Loss::L2);
        assert!(stats.final_train_accuracy > 0.4, "train accuracy {}", stats.final_train_accuracy);
    }

    /// The accuracy CNN (conv 1→8, ReLU, pool, conv 8→16, ReLU, flatten,
    /// FC → 10 on 12 × 12 images), built from the shipped layers or from
    /// their per-element oracle loops.
    fn accuracy_cnn(oracle: bool) -> Network {
        use layers::{Conv2d, Flatten, Linear, MaxPool2d, Oracle, Oracled, Relu};
        fn push<L: Oracle + 'static>(net: &mut Network, layer: L, oracle: bool) {
            if oracle {
                net.push(Oracled(layer));
            } else {
                net.push(layer);
            }
        }
        let mut net = Network::new();
        push(&mut net, Conv2d::new(1, 8, 3, 1, 1, 5), oracle);
        push(&mut net, Relu::new(), oracle);
        push(&mut net, MaxPool2d::new(2, 2), oracle);
        push(&mut net, Conv2d::new(8, 16, 3, 1, 1, 6), oracle);
        push(&mut net, Relu::new(), oracle);
        net.push(Flatten::new());
        push(&mut net, Linear::new(16 * 6 * 6, 10, 7), oracle);
        net
    }

    /// Training the accuracy CNN on its kernels follows the oracle loops'
    /// trajectory bit for bit under every regime the accuracy tables use:
    /// the same losses, accuracies and final weights.
    #[test]
    fn kernels_train_the_accuracy_cnn_bit_for_bit() {
        let dataset = SyntheticDataset::generate(40, 12, 10, 3);
        let quant =
            QuantConfig { weight_bits: Some(8), activation_bits: Some(4), ..QuantConfig::full_precision() };
        let regimes = [
            ("plain", NoiseInjection::none(), QuantConfig::full_precision()),
            ("4-bit activations", NoiseInjection::none(), quant),
            ("weight noise", NoiseInjection::weights(0.02), QuantConfig::full_precision()),
            ("activation noise", NoiseInjection::activations(0.02), QuantConfig::full_precision()),
        ];
        for (regime, noise, quant) in regimes {
            let config = TrainConfig { epochs: 1, lr: 0.08, noise, quant, seed: 9, ..TrainConfig::default() };
            let runs = [false, true].map(|oracle| {
                let mut net = accuracy_cnn(oracle);
                let stats = Trainer::new(config).fit(&mut net, &dataset, Loss::CrossEntropy);
                let mut weights = Vec::new();
                net.map_weights(&mut |w| {
                    weights.push(w.to_bits());
                    w
                });
                (stats.epoch_losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(), stats, weights)
            });
            let [(fast_losses, fast, fast_weights), (oracle_losses, oracle, oracle_weights)] = runs;
            assert_eq!(fast_losses, oracle_losses, "{regime}: losses");
            assert_eq!(fast.test_accuracy, oracle.test_accuracy, "{regime}: test accuracy");
            assert_eq!(fast.final_train_accuracy, oracle.final_train_accuracy, "{regime}: train accuracy");
            assert!(fast_weights == oracle_weights, "{regime}: weights differ");
        }
    }

    #[test]
    #[should_panic(expected = "epochs")]
    fn zero_epochs_panics() {
        let _ = Trainer::new(TrainConfig { epochs: 0, ..TrainConfig::default() });
    }

    /// A trainer whose quantization config is full precision, edited by
    /// `edit`.
    fn trainer_with_quant(edit: impl FnOnce(&mut QuantConfig)) -> Trainer {
        let mut quant = QuantConfig::full_precision();
        edit(&mut quant);
        Trainer::new(TrainConfig { quant, ..TrainConfig::default() })
    }

    #[test]
    #[should_panic(expected = "activation bits must lie in 1..=24, got 0")]
    fn zero_activation_bits_panic() {
        let _ = trainer_with_quant(|q| q.activation_bits = Some(0));
    }

    #[test]
    #[should_panic(expected = "weight bits must lie in 1..=24, got 25")]
    fn weight_bits_past_24_panic() {
        let _ = trainer_with_quant(|q| q.weight_bits = Some(25));
    }

    #[test]
    #[should_panic(expected = "activation range must be finite and positive, got 0")]
    fn zero_activation_range_panics() {
        let _ = trainer_with_quant(|q| q.activation_range = 0.0);
    }

    #[test]
    #[should_panic(expected = "weight range must be finite and positive, got -0.5")]
    fn negative_weight_range_panics() {
        let _ = trainer_with_quant(|q| q.weight_range = -0.5);
    }

    #[test]
    #[should_panic(expected = "activation range must be finite and positive, got NaN")]
    fn nan_activation_range_panics() {
        let _ = trainer_with_quant(|q| q.activation_range = f32::NAN);
    }
}
