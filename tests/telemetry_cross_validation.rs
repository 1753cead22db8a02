//! Cross-validation of the hardware event telemetry against the
//! analytical event model.
//!
//! Two independent paths count the same physics:
//!
//! * the functional engine in `inca-core` executes a layer on the
//!   bit-level crossbar model, and every read pulse / ADC conversion /
//!   DAC drive / programming pulse increments an `inca-telemetry`
//!   counter at the point where the hardware would fire it;
//! * `inca_sim::events` predicts those counts from layer geometry alone
//!   (closed forms over `oh * ow * cout * cin * 2 * wbits * dbits`), per
//!   sample: a batch on the planes of the 3D stacks multiplies the
//!   per-plane events (read pulses, conversions, programming) by B and
//!   leaves the per-broadcast ones (DAC drives, bit-serial cycles) as is.
//!
//! Their exact agreement validates both the instrumentation placement
//! (no double counting, no missed call sites) and the analytical model.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use inca_core::{HwConv, Result, DATA_BITS, WEIGHT_BITS};
use inca_nn::Tensor;
use inca_sim::{conv_forward_events, ConvGeometry};
use inca_telemetry::{capture, Event, Snapshot};
use rand::{Rng, SeedableRng};

fn random_tensor(shape: &[usize], seed: u64, lo: f32, hi: f32) -> Tensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Tensor::from_vec((0..shape.iter().product::<usize>()).map(|_| rng.gen_range(lo..hi)).collect(), shape)
}

fn run_layer(geom: ConvGeometry, seed: u64) {
    run_batch(geom, 1, seed);
}

/// One of `HwConv`'s two reads, with its name.
type Read = (&'static str, fn(&HwConv, &Tensor) -> Result<Tensor>);

/// The reference read, which counts per read, and the fast one, which
/// records each forward's reads as one record per event kind.
const READS: [Read; 2] = [("forward_reference", HwConv::forward_reference), ("forward", HwConv::forward)];

/// The layer `geom` with random weights.
fn layer(geom: &ConvGeometry, seed: u64) -> HwConv {
    let w = random_tensor(&[geom.cout, geom.cin, geom.k, geom.k], seed, -0.5, 0.5);
    HwConv::from_float(&w, &vec![0.0f32; geom.cout], geom.stride, geom.pad).unwrap().with_side(geom.tile_side)
}

/// [`run_layer`] on a batch of `batch` samples.
fn run_batch(geom: ConvGeometry, batch: u64, seed: u64) {
    // Both reads must land on the analytical closed forms exactly.
    let conv = layer(&geom, seed);
    let x = random_tensor(&[batch as usize, geom.cin, geom.h, geom.w], seed + 1, -0.5, 1.0);
    for (name, read) in READS {
        let ((), counted) = capture(|| {
            read(&conv, &x).unwrap();
        });
        assert_matches_model(&counted, &geom, batch, name);
    }
}

/// One forward of `geom` on `batch` samples counted exactly the closed
/// forms of `inca_sim::events`.
fn assert_matches_model(counted: &Snapshot, geom: &ConvGeometry, batch: u64, read: &str) {
    let predicted = conv_forward_events(geom, u32::from(WEIGHT_BITS), u32::from(DATA_BITS));
    assert_eq!(counted.get(Event::XbarReadPulse), predicted.read_pulses * batch, "read pulses ({read})");
    assert_eq!(counted.get(Event::AdcConversion), predicted.adc_conversions * batch, "adc ({read})");
    assert_eq!(counted.get(Event::DacDrive), predicted.dac_drives, "dac ({read})");
    assert_eq!(counted.get(Event::BitSerialCycle), predicted.bit_serial_cycles, "bit-serial cycles ({read})");
    assert_eq!(
        counted.get(Event::RramProgramPulse),
        predicted.program_pulses * batch,
        "program pulses ({read})"
    );
}

#[test]
fn counted_events_match_analytical_model_small_layer() {
    run_layer(ConvGeometry { cin: 2, cout: 3, h: 8, w: 8, k: 3, stride: 1, pad: 1, tile_side: 16 }, 42);
}

#[test]
fn counted_events_match_analytical_model_multi_tile() {
    // 20x20 input with pad 1 -> 22x22 padded, which the 16-wide
    // partitioner splits into 2x2 halo-overlapped tiles per channel.
    run_layer(ConvGeometry { cin: 2, cout: 2, h: 20, w: 20, k: 3, stride: 1, pad: 1, tile_side: 16 }, 7);
}

#[test]
fn batch_counts_scale_per_plane_events_only() {
    // Three samples on the multi-tile geometry: every plane of the
    // halo-tiled stacks is programmed, conducts and converts, while each
    // broadcast drives the shared pillars once.
    run_batch(ConvGeometry { cin: 2, cout: 2, h: 20, w: 20, k: 3, stride: 1, pad: 1, tile_side: 16 }, 3, 7);
}

#[test]
fn counted_events_match_analytical_model_strided() {
    run_layer(ConvGeometry { cin: 3, cout: 2, h: 9, w: 9, k: 3, stride: 2, pad: 0, tile_side: 16 }, 11);
}

#[test]
fn counted_events_match_analytical_model_small_tiles() {
    // The tile sides `read_path_parity` draws: 8 and 6 cut the 22x22
    // padded map into 3x3 and 5x5 halo-overlapped tiles per channel.
    for tile_side in [8, 6] {
        run_layer(ConvGeometry { cin: 2, cout: 2, h: 20, w: 20, k: 3, stride: 1, pad: 1, tile_side }, 13);
        run_layer(ConvGeometry { cin: 3, cout: 2, h: 11, w: 9, k: 3, stride: 2, pad: 0, tile_side }, 17);
    }
}

#[test]
fn a_capture_counts_only_its_own_forwards() {
    // Another thread keeps forwarding a different layer outside any
    // capture. Each capture below stays open until that thread has
    // finished at least one whole forward inside its window, and still
    // counts exactly the closed forms of its own forward.
    let geom = ConvGeometry { cin: 2, cout: 3, h: 8, w: 8, k: 3, stride: 1, pad: 1, tile_side: 8 };
    let other = layer(&ConvGeometry { cin: 2, cout: 2, h: 6, w: 6, ..geom }, 9);
    let other_x = random_tensor(&[1, 2, 6, 6], 10, -0.5, 1.0);
    let (stop, finished) = (AtomicBool::new(false), AtomicU64::new(0));
    let counted = std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::SeqCst) {
                other.forward_reference(&other_x).unwrap();
                finished.fetch_add(1, Ordering::SeqCst);
            }
        });
        let conv = layer(&geom, 42);
        let x = random_tensor(&[1, geom.cin, geom.h, geom.w], 43, -0.5, 1.0);
        let counted = READS.map(|(name, read)| {
            let ((), counted) = capture(|| {
                let before = finished.load(Ordering::SeqCst);
                read(&conv, &x).unwrap();
                while finished.load(Ordering::SeqCst) < before + 2 {
                    std::thread::yield_now();
                }
            });
            (name, counted)
        });
        // Stopped before any assert can unwind, so the scope always joins.
        stop.store(true, Ordering::SeqCst);
        counted
    });
    for (name, counted) in &counted {
        assert_matches_model(counted, &geom, 1, name);
    }
}
