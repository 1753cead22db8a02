//! `accuracy-train`: the Table I / Table VI accuracy cells — float
//! training in `inca-nn`, which is nearly all of `experiments all`'s
//! host time. Nothing else runs here.

use inca_core::{noise_accuracy_row, quantization_accuracy, AccuracyConfig};
use inca_nn::layers::{Conv2d, Flatten, Linear, MaxPool2d, Relu};
use inca_nn::{Loss, Network, NoiseInjection, QuantConfig, Sgd, SyntheticDataset, TrainConfig, Trainer};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::measure::{ensure, median, run, stream, time, Checks, Fnv64, Measured, Sample};
use crate::trace::Tracer;

/// Samples per synthetic dataset and epochs per training: one training
/// takes ~0.5 s and a round of every cell ~2.5 s, so a 25-s run takes a
/// median over ~9 rounds, with the host sampled between cells. The shape
/// (1→8→16 convs on 12×12, FC to 10, batches of 16) is `quick()`'s.
const SAMPLES: usize = 160;
const EPOCHS: usize = 2;

/// At least this many rounds per run.
const MIN_ROUNDS: usize = 3;

/// The share of the dataset `AccuracyConfig` trains on.
const TRAIN_FRACTION: f32 = 0.8;

/// Batches the per-layer probe times.
const PROBE_BATCHES: usize = 24;

/// Sub-millisecond dataset builds `nn.dataset_s` takes the median of.
const DATASET_BUILDS: u64 = 25;

/// Batch size of `AccuracyConfig`'s trainer.
const BATCH: usize = 16;

/// One accuracy cell.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Cell {
    /// Table I: weight and activation bits.
    Quant(u8, u8),
    /// Table VI: one σ, trained once with weight noise and once with
    /// activation noise.
    Noise(f64),
}

/// The cells of one round, in order.
const CELLS: [Cell; 4] = [Cell::Quant(8, 8), Cell::Quant(8, 4), Cell::Quant(4, 8), Cell::Noise(0.02)];

pub(crate) fn config(seed: u64) -> AccuracyConfig {
    AccuracyConfig { seed, samples: SAMPLES, epochs: EPOCHS, ..AccuracyConfig::quick() }
}

fn dataset(cfg: &AccuracyConfig) -> SyntheticDataset {
    SyntheticDataset::generate(cfg.samples, cfg.side, cfg.classes, cfg.seed)
}

/// Samples one training of `cfg` steps through.
fn trained_samples(cfg: &AccuracyConfig) -> f64 {
    (cfg.epochs * (cfg.samples as f32 * TRAIN_FRACTION) as usize) as f64
}

/// One training on `data`, as `quantization_accuracy` and
/// `noise_accuracy_row` run it (they generate the dataset inside; the
/// ledger generates it in setup). Returns the test accuracy in percent.
fn train(cfg: &AccuracyConfig, data: &SyntheticDataset, noise: NoiseInjection, quant: QuantConfig) -> f32 {
    let mut trainer = Trainer::new(TrainConfig {
        epochs: cfg.epochs,
        lr: cfg.lr,
        batch_size: BATCH,
        train_fraction: TRAIN_FRACTION,
        noise,
        quant,
        seed: cfg.seed,
    });
    trainer.fit(&mut network(cfg), data, Loss::CrossEntropy).test_accuracy * 100.0
}

/// Runs one cell on `data`; returns its accuracies (percent) and
/// trainings.
fn run_cell(cfg: &AccuracyConfig, data: &SyntheticDataset, cell: Cell) -> (Vec<f32>, usize) {
    match cell {
        Cell::Quant(w, a) => {
            let quant = QuantConfig {
                weight_bits: Some(w),
                activation_bits: Some(a),
                weight_range: 1.0,
                activation_range: 1.0,
            };
            (vec![train(cfg, data, NoiseInjection::none(), quant)], 1)
        }
        Cell::Noise(sigma) => {
            let full = QuantConfig::full_precision;
            let wt = train(cfg, data, NoiseInjection::weights(sigma), full());
            let act = train(cfg, data, NoiseInjection::activations(sigma), full());
            (vec![wt, act], 2)
        }
    }
}

/// `inca-core`'s own entry point for `cell`, which the ledger's
/// composition must match exactly.
fn core_cell(cfg: &AccuracyConfig, cell: Cell) -> Vec<f32> {
    match cell {
        Cell::Quant(w, a) => vec![quantization_accuracy(cfg, w, a)],
        Cell::Noise(sigma) => {
            let row = noise_accuracy_row(cfg, sigma);
            vec![row.weight_noise_acc, row.activation_noise_acc]
        }
    }
}

fn check_accuracies(accs: &[f32]) -> Result<(), String> {
    ensure(accs.iter().all(|a| a.is_finite() && (0.0..=100.0).contains(a)), || {
        format!("bad accuracies {accs:?}")
    })
}

/// One round: every cell of [`CELLS`] on `data`, in order. `wrap(c, f)`
/// runs cell `c`, so the traced run can span each one. Returns each
/// cell's accuracies and the round's trainings.
fn run_round(
    cfg: &AccuracyConfig,
    data: &SyntheticDataset,
    mut wrap: impl FnMut(u64, &mut dyn FnMut() -> (Vec<f32>, usize)) -> (Vec<f32>, usize),
) -> (Vec<Vec<f32>>, usize) {
    let mut trainings = 0;
    let accs = CELLS
        .iter()
        .enumerate()
        .map(|(c, &cell)| {
            let (accs, n) = wrap(c as u64, &mut || run_cell(cfg, data, cell));
            trainings += n;
            accs
        })
        .collect();
    (accs, trainings)
}

/// Untraced phase. Setup: `SyntheticDataset::generate`. Operation: one
/// cell's trainings on that dataset, the cells in turn; work: samples
/// trained. The cells differ in cost per sample, so rates are taken over
/// whole rounds of every cell.
pub(crate) fn measure(seed: u64, seconds: f64, checks: &mut Checks) -> Measured {
    let cfg = config(seed);
    let mut first_round: Vec<Vec<f32>> = Vec::new();
    let m = run(
        seconds,
        MIN_ROUNDS,
        CELLS.len(),
        || dataset(&cfg),
        |i, data| {
            let ((accs, trainings), secs) = time(|| run_cell(&cfg, &data, CELLS[i % CELLS.len()]));
            // Every round repeats the first bit for bit.
            let outcome = check_accuracies(&accs).and_then(|()| match first_round.get(i % CELLS.len()) {
                Some(first) => ensure(*first == accs, || format!("cell {i} differs from the first round")),
                None => {
                    first_round.push(accs.clone());
                    Ok(())
                }
            });
            checks.record(&format!("cell {i}"), outcome);
            Sample { secs, work: trainings as f64 * trained_samples(&cfg) }
        },
    );
    let digest = first_round.iter().fold(Fnv64::new(), |h, accs| h.f32s(accs)).finish();
    Measured { digest, ..m }
}

/// `AccuracyConfig`'s network: conv(1→8) · ReLU · pool · conv(8→16) ·
/// ReLU · flatten · FC(→10).
fn network(cfg: &AccuracyConfig) -> Network {
    let pooled = cfg.side / 2;
    let mut net = Network::new();
    net.push(Conv2d::new(1, 8, 3, 1, 1, cfg.seed));
    net.push(Relu::new());
    net.push(MaxPool2d::new(2, 2));
    net.push(Conv2d::new(8, 16, 3, 1, 1, cfg.seed + 1));
    net.push(Relu::new());
    net.push(Flatten::new());
    net.push(Linear::new(16 * pooled * pooled, cfg.classes, cfg.seed + 2));
    net
}

/// The per-layer metric each layer's forward and backward count toward.
const LAYER_METRICS: [(&str, &str); 7] = [
    ("nn.conv1_fwd", "nn.conv1_bwd"),
    ("nn.pool_relu", "nn.pool_relu"),
    ("nn.pool_relu", "nn.pool_relu"),
    ("nn.conv2_fwd", "nn.conv2_bwd"),
    ("nn.pool_relu", "nn.pool_relu"),
    ("nn.pool_relu", "nn.pool_relu"),
    ("nn.fc_fwd", "nn.fc_bwd"),
];

/// Traced phase: the dataset build, every public `inca_nn` layer of the
/// accuracy network forward and backward per batch of 16, the SGD step,
/// activation quantization and noise, and one round (the untraced
/// operation) with every cell in a span; its first cell must match
/// `inca-core`'s own entry point.
pub(crate) fn layers(seed: u64, tr: &mut Tracer, checks: &mut Checks) -> (Vec<(String, f64)>, Sample) {
    let cfg = config(seed);
    let mut data = dataset(&cfg);
    let mut dataset_s = Vec::new();
    for rep in 0..DATASET_BUILDS {
        let secs;
        (data, secs) = tr.timed("nn.dataset", rep, |_| dataset(&cfg));
        dataset_s.push(secs);
    }
    let mut net = network(&cfg);
    let sgd = Sgd::new(cfg.lr);
    let quant = QuantConfig {
        weight_bits: Some(8),
        activation_bits: Some(4),
        weight_range: 1.0,
        activation_range: 1.0,
    };
    let noise = NoiseInjection::activations(0.02);
    let mut rng = StdRng::seed_from_u64(stream(seed, 0));
    let train = (cfg.samples as f32 * TRAIN_FRACTION) as usize;
    let mut finite = true;
    for b in 0..PROBE_BATCHES {
        let indices: Vec<usize> = (0..BATCH).map(|j| (b * BATCH + j) % train).collect();
        let (x, y) = data.batch(&indices);
        tr.span("nn.batch", b as u64, |tr| {
            let mut cur = x;
            let mut conv1_out = None;
            for (i, layer) in net.layers_mut().enumerate() {
                cur = tr.span(LAYER_METRICS[i].0, b as u64, |_| layer.forward(&cur));
                if i == 0 {
                    conv1_out = Some(cur.clone());
                }
            }
            let (loss, mut grad) = Loss::CrossEntropy.evaluate(&cur, &y);
            finite &= loss.is_finite();
            for (i, layer) in net.layers_mut().enumerate().collect::<Vec<_>>().into_iter().rev() {
                grad = tr.span(LAYER_METRICS[i].1, b as u64, |_| layer.backward(&grad));
            }
            tr.span("nn.sgd", b as u64, |_| sgd.step(&mut net));
            if let Some(a) = conv1_out {
                let q = a.clone();
                tr.span("nn.quant", b as u64, |_| std::hint::black_box(quant.apply_to_activation(q)));
                tr.span("nn.noise", b as u64, |_| {
                    std::hint::black_box(noise.perturb_activation(a, &mut rng))
                });
            }
        });
    }
    checks.record("nn probe loss", ensure(finite, || "non-finite training loss".into()));

    let ((accs, trainings), round_s) =
        tr.timed("nn.round", 0, |tr| run_round(&cfg, &data, |c, f| tr.span("nn.cell", c, |_| f())));
    checks.record(
        "traced round",
        accs.iter().try_for_each(|a| check_accuracies(a)).and_then(|()| {
            ensure(accs.first() == Some(&core_cell(&cfg, CELLS[0])), || {
                "first cell differs from inca-core's own run".into()
            })
        }),
    );

    let per_batch_us = |name: &str| {
        let spans = tr.spans();
        let batches: Vec<f64> = (0..PROBE_BATCHES as u64)
            .map(|b| {
                spans.iter().filter(|s| s.name == name && s.op == b).map(|s| s.secs()).sum::<f64>() * 1e6
            })
            .collect();
        median(&batches)
    };
    let mut metrics = vec![("nn.dataset_s".to_string(), median(&dataset_s))];
    for name in [
        "nn.conv1_fwd",
        "nn.conv1_bwd",
        "nn.conv2_fwd",
        "nn.conv2_bwd",
        "nn.fc_fwd",
        "nn.fc_bwd",
        "nn.pool_relu",
        "nn.sgd",
        "nn.quant",
        "nn.noise",
    ] {
        metrics.push((format!("{name}_us"), per_batch_us(name)));
    }
    (metrics, Sample { secs: round_s, work: trainings as f64 * trained_samples(&cfg) })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_network_matches_the_accuracy_shape() {
        let cfg = config(1);
        let mut net = network(&cfg);
        assert_eq!(net.len(), LAYER_METRICS.len());
        let data = SyntheticDataset::generate(BATCH, cfg.side, cfg.classes, 1);
        let (x, _) = data.batch(&(0..BATCH).collect::<Vec<_>>());
        assert_eq!(net.forward(&x).shape(), &[BATCH, cfg.classes]);
        assert_eq!(trained_samples(&cfg), 256.0);
    }

    #[test]
    fn composed_cells_match_inca_core() {
        let cfg = AccuracyConfig { samples: 40, epochs: 1, ..config(3) };
        let data = dataset(&cfg);
        for cell in [CELLS[1], CELLS[3]] {
            assert_eq!(run_cell(&cfg, &data, cell).0, core_cell(&cfg, cell), "{cell:?}");
        }
    }

    #[test]
    fn accuracy_check_rejects_out_of_range_values() {
        assert!(check_accuracies(&[0.0, 55.5, 100.0]).is_ok());
        assert!(check_accuracies(&[101.0]).is_err());
        assert!(check_accuracies(&[f32::NAN]).is_err());
    }
}
