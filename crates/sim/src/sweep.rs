//! Parallel parameter sweeps over the analytical simulator.
//!
//! Experiment sweeps (six models × two architectures × two phases) are
//! embarrassingly parallel; this module fans them out across threads with
//! `crossbeam`'s scoped threads so borrowed configurations need no
//! cloning gymnastics.

use inca_arch::ArchConfig;
use inca_workloads::Model;

use crate::{simulate_inference, simulate_training, NetworkStats};

/// One sweep point: a model evaluated on one architecture in one phase.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The evaluated model.
    pub model: Model,
    /// Whether this point is training (else inference).
    pub training: bool,
    /// The simulation result.
    pub stats: NetworkStats,
}

/// Runs inference and training for every model on the given architecture,
/// in parallel (one thread per sweep point, bounded by the small fixed
/// point count).
#[must_use]
pub fn sweep_models(config: &ArchConfig, models: &[Model]) -> Vec<SweepPoint> {
    let mut out: Vec<Option<SweepPoint>> = Vec::new();
    out.resize_with(models.len() * 2, || None);
    let slots = &mut out[..];

    // Sweep threads record into the caller's telemetry capture.
    let telemetry = &inca_telemetry::current();
    crossbeam::thread::scope(|scope| {
        for (chunk, &model) in slots.chunks_mut(2).zip(models) {
            // `chunks_mut(2)` over a `2 * len` buffer: chunks are exact.
            let (inf_slot, rest) = chunk.split_first_mut().expect("chunk of two"); // lint: allow(panic-path)
            let tr_slot = &mut rest[0];
            scope.spawn(move |_| {
                telemetry.enter(|| {
                    let spec = model.spec();
                    *inf_slot =
                        Some(SweepPoint { model, training: false, stats: simulate_inference(config, &spec) });
                    *tr_slot =
                        Some(SweepPoint { model, training: true, stats: simulate_training(config, &spec) });
                });
            });
        }
    })
    // A worker can only panic if the simulator itself panicked; propagate.
    .expect("sweep threads join"); // lint: allow(panic-path)

    // Every chunk was paired with a model and both slots written above.
    out.into_iter().map(|p| p.expect("every slot filled")).collect() // lint: allow(panic-path)
}

/// Convenience: the full paper sweep (both architectures, six models),
/// returning `(inca_points, baseline_points)`.
#[must_use]
pub fn paper_sweep() -> (Vec<SweepPoint>, Vec<SweepPoint>) {
    let models = Model::paper_suite();
    let inca_cfg = ArchConfig::inca_paper();
    let base_cfg = ArchConfig::baseline_paper();
    let mut result = (Vec::new(), Vec::new());
    let telemetry = &inca_telemetry::current();
    crossbeam::thread::scope(|scope| {
        let inca = scope.spawn(|_| telemetry.enter(|| sweep_models(&inca_cfg, &models)));
        let base = scope.spawn(|_| telemetry.enter(|| sweep_models(&base_cfg, &models)));
        // Join failures only propagate worker panics; nothing to recover.
        // lint: allow(panic-path)
        result = (inca.join().expect("inca sweep"), base.join().expect("baseline sweep"));
    })
    .expect("paper sweep joins"); // lint: allow(panic-path)
    result
}

#[cfg(test)]
mod tests {
    use inca_telemetry::capture;

    use super::*;

    #[test]
    fn sweep_covers_every_model_twice() {
        let models = [Model::ResNet18, Model::MobileNetV2];
        let points = sweep_models(&ArchConfig::inca_paper(), &models);
        assert_eq!(points.len(), 4);
        for (i, &model) in models.iter().enumerate() {
            assert_eq!(points[2 * i].model, model);
            assert!(!points[2 * i].training);
            assert!(points[2 * i + 1].training);
        }
    }

    #[test]
    fn parallel_sweep_matches_serial_simulation() {
        let models = [Model::ResNet18];
        let cfg = ArchConfig::baseline_paper();
        let (points, swept) = capture(|| sweep_models(&cfg, &models));
        let (serial, counted) = capture(|| {
            let spec = Model::ResNet18.spec();
            let _ = simulate_training(&cfg, &spec);
            simulate_inference(&cfg, &spec)
        });
        assert_eq!(points[0].stats.energy, serial.energy);
        // The sweep threads record into the caller's capture.
        assert!(counted.total_events() > 0);
        assert_eq!(swept.counters(), counted.counters());
    }

    #[test]
    fn paper_sweep_shape() {
        let ((inca, base), swept) = capture(paper_sweep);
        let ((), counted) = capture(|| {
            let models = Model::paper_suite();
            let _ = sweep_models(&ArchConfig::inca_paper(), &models);
            let _ = sweep_models(&ArchConfig::baseline_paper(), &models);
        });
        assert_eq!(swept.counters(), counted.counters());
        assert_eq!(inca.len(), 12);
        assert_eq!(base.len(), 12);
        // Every INCA training point beats its baseline counterpart.
        for (i, b) in inca.iter().zip(&base) {
            if i.training {
                assert!(i.stats.energy.total_j() < b.stats.energy.total_j(), "{}", i.model);
            }
        }
    }
}
