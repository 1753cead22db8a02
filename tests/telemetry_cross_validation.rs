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

use std::sync::{Mutex, MutexGuard, PoisonError};

use inca_core::{ExecPolicy, HwConv, ReadPath, DATA_BITS, WEIGHT_BITS};
use inca_nn::Tensor;
use inca_sim::{conv_forward_events, ConvGeometry};
use inca_telemetry::Event;
use rand::{Rng, SeedableRng};

/// Tests in this binary mutate the process-global telemetry state.
static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    TELEMETRY_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn random_tensor(shape: &[usize], seed: u64, lo: f32, hi: f32) -> Tensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Tensor::from_vec((0..shape.iter().product::<usize>()).map(|_| rng.gen_range(lo..hi)).collect(), shape)
}

fn run_layer(geom: ConvGeometry, seed: u64) {
    run_batch(geom, 1, seed);
}

/// [`run_layer`] on a batch of `batch` samples.
fn run_batch(geom: ConvGeometry, batch: u64, seed: u64) {
    // Both read paths must land on the analytical closed forms exactly:
    // the scalar path counts per read, the packed path records each
    // forward's reads as one record per event kind — same totals.
    for read_path in [ReadPath::Scalar, ReadPath::Packed] {
        let w = random_tensor(&[geom.cout, geom.cin, geom.k, geom.k], seed, -0.5, 0.5);
        let bias = vec![0.0f32; geom.cout];
        let x = random_tensor(&[batch as usize, geom.cin, geom.h, geom.w], seed + 1, -0.5, 1.0);
        let conv = HwConv::from_float(&w, &bias, geom.stride, geom.pad)
            .unwrap()
            .with_side(geom.tile_side)
            .with_policy(ExecPolicy::sequential().with_read_path(read_path));

        inca_telemetry::reset();
        inca_telemetry::set_enabled(true);
        conv.forward(&x).unwrap();
        inca_telemetry::set_enabled(false);

        let predicted = conv_forward_events(&geom, u32::from(WEIGHT_BITS), u32::from(DATA_BITS));
        assert_eq!(
            inca_telemetry::total(Event::XbarReadPulse),
            predicted.read_pulses * batch,
            "read pulses ({read_path:?})"
        );
        assert_eq!(
            inca_telemetry::total(Event::AdcConversion),
            predicted.adc_conversions * batch,
            "adc ({read_path:?})"
        );
        assert_eq!(inca_telemetry::total(Event::DacDrive), predicted.dac_drives, "dac ({read_path:?})");
        assert_eq!(
            inca_telemetry::total(Event::BitSerialCycle),
            predicted.bit_serial_cycles,
            "bit-serial cycles ({read_path:?})"
        );
        assert_eq!(
            inca_telemetry::total(Event::RramProgramPulse),
            predicted.program_pulses * batch,
            "program pulses ({read_path:?})"
        );
        assert_eq!(inca_telemetry::total(Event::ProgramCacheMiss), 1);
        assert_eq!(inca_telemetry::total(Event::ProgramCacheHit), 0);
        inca_telemetry::reset();
    }
}

#[test]
fn counted_events_match_analytical_model_small_layer() {
    let _guard = serial();
    run_layer(ConvGeometry { cin: 2, cout: 3, h: 8, w: 8, k: 3, stride: 1, pad: 1, tile_side: 16 }, 42);
}

#[test]
fn counted_events_match_analytical_model_multi_tile() {
    // 20x20 input with pad 1 -> 22x22 padded, which the 16-wide
    // partitioner splits into 2x2 halo-overlapped tiles per channel.
    let _guard = serial();
    run_layer(ConvGeometry { cin: 2, cout: 2, h: 20, w: 20, k: 3, stride: 1, pad: 1, tile_side: 16 }, 7);
}

#[test]
fn batch_counts_scale_per_plane_events_only() {
    // Three samples on the multi-tile geometry: every plane of the
    // halo-tiled stacks is programmed, conducts and converts, while each
    // broadcast drives the shared pillars once.
    let _guard = serial();
    run_batch(ConvGeometry { cin: 2, cout: 2, h: 20, w: 20, k: 3, stride: 1, pad: 1, tile_side: 16 }, 3, 7);
}

#[test]
fn counted_events_match_analytical_model_strided() {
    let _guard = serial();
    run_layer(ConvGeometry { cin: 3, cout: 2, h: 9, w: 9, k: 3, stride: 2, pad: 0, tile_side: 16 }, 11);
}

#[test]
fn counted_events_match_analytical_model_small_tiles() {
    // The tile sides `read_path_parity` draws: 8 and 6 cut the 22x22
    // padded map into 3x3 and 5x5 halo-overlapped tiles per channel.
    let _guard = serial();
    for tile_side in [8, 6] {
        run_layer(ConvGeometry { cin: 2, cout: 2, h: 20, w: 20, k: 3, stride: 1, pad: 1, tile_side }, 13);
        run_layer(ConvGeometry { cin: 3, cout: 2, h: 11, w: 9, k: 3, stride: 2, pad: 0, tile_side }, 17);
    }
}

#[test]
fn scalar_clone_reads_the_packed_forwards_programming() {
    // Clones share the programmed state: a scalar clone forwarding the
    // same input hits the cache and derives its bit-planes from the
    // programmed codes without a second programming.
    let _guard = serial();
    let geom = ConvGeometry { cin: 2, cout: 3, h: 10, w: 10, k: 3, stride: 1, pad: 1, tile_side: 8 };
    let w = random_tensor(&[geom.cout, geom.cin, geom.k, geom.k], 5, -0.5, 0.5);
    let x = random_tensor(&[1, geom.cin, geom.h, geom.w], 6, -0.5, 1.0);
    let packed = HwConv::from_float(&w, &vec![0.0; geom.cout], 1, 1).unwrap().with_side(geom.tile_side);
    let scalar = packed.clone().with_policy(ExecPolicy::sequential().with_read_path(ReadPath::Scalar));
    let predicted = conv_forward_events(&geom, u32::from(WEIGHT_BITS), u32::from(DATA_BITS));

    inca_telemetry::reset();
    inca_telemetry::set_enabled(true);
    let y_packed = packed.forward(&x).unwrap();
    let y_scalar = scalar.forward(&x).unwrap();
    inca_telemetry::set_enabled(false);

    assert_eq!(y_packed.data(), y_scalar.data());
    assert_eq!(inca_telemetry::total(Event::XbarReadPulse), 2 * predicted.read_pulses);
    assert_eq!(inca_telemetry::total(Event::RramProgramPulse), predicted.program_pulses);
    assert_eq!(inca_telemetry::total(Event::ProgramCacheMiss), 1);
    assert_eq!(inca_telemetry::total(Event::ProgramCacheHit), 1);
    inca_telemetry::reset();
}

#[test]
fn cached_forward_skips_programming_but_repeats_reads() {
    let _guard = serial();
    let geom = ConvGeometry { cin: 2, cout: 2, h: 8, w: 8, k: 3, stride: 1, pad: 1, tile_side: 16 };
    let w = random_tensor(&[geom.cout, geom.cin, geom.k, geom.k], 3, -0.5, 0.5);
    let x = random_tensor(&[1, geom.cin, geom.h, geom.w], 4, -0.5, 1.0);
    let conv = HwConv::from_float(&w, &vec![0.0; geom.cout], 1, 1).unwrap();
    let predicted = conv_forward_events(&geom, u32::from(WEIGHT_BITS), u32::from(DATA_BITS));

    inca_telemetry::reset();
    inca_telemetry::set_enabled(true);
    conv.forward(&x).unwrap();
    conv.forward(&x).unwrap();
    inca_telemetry::set_enabled(false);

    // Reads double; the activation is programmed exactly once.
    assert_eq!(inca_telemetry::total(Event::XbarReadPulse), 2 * predicted.read_pulses);
    assert_eq!(inca_telemetry::total(Event::RramProgramPulse), predicted.program_pulses);
    assert_eq!(inca_telemetry::total(Event::ProgramCacheMiss), 1);
    assert_eq!(inca_telemetry::total(Event::ProgramCacheHit), 1);
    inca_telemetry::reset();
}
