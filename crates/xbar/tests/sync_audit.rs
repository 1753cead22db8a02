//! Concurrency audit of the crossbar read path: the parallel execution
//! engine in `inca-core` shares programmed arrays across scoped worker
//! threads, so every read entry point must be `&self` and every array
//! type `Send + Sync`. These tests pin that contract down at the type
//! level and exercise genuinely concurrent window reads.

use inca_xbar::{AdcReadout, Crossbar2d, Stack3d, VerticalPlane};

fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn array_types_are_send_and_sync() {
    assert_send_sync::<VerticalPlane>();
    assert_send_sync::<Stack3d>();
    assert_send_sync::<Crossbar2d>();
    assert_send_sync::<AdcReadout>();
}

#[test]
fn concurrent_plane_window_reads_agree_with_serial() {
    let mut plane = VerticalPlane::new(8, 8);
    let bits: Vec<u8> = (0..64).map(|i| (i % 3 == 0) as u8).collect();
    plane.write_bits(&bits).unwrap();
    let kernel = [1u8, 0, 1, 1, 1, 0, 0, 1, 1];

    let serial: Vec<u32> = (0..6)
        .flat_map(|r| (0..6).map(move |c| (r, c)))
        .map(|(r, c)| plane.direct_conv_window(r, c, 3, 3, &kernel).unwrap())
        .collect();

    // The same reads, fanned across threads against one shared `&plane`.
    let plane_ref = &plane;
    let concurrent: Vec<u32> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|r| {
                scope.spawn(move || {
                    (0..6)
                        .map(|c| plane_ref.direct_conv_window(r, c, 3, 3, &kernel).unwrap())
                        .collect::<Vec<u32>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(serial, concurrent);
}

#[test]
fn concurrent_stack_broadcast_reads_agree_with_serial() {
    let mut stack = Stack3d::new(6, 6, 4);
    for p in 0..4 {
        let bits: Vec<u8> = (0..36).map(|i| ((i + p) % 2 == 0) as u8).collect();
        stack.write_plane(p, &bits).unwrap();
    }
    let kernel = [1u8, 1, 0, 1];

    let serial: Vec<Vec<u32>> = (0..5)
        .flat_map(|r| (0..5).map(move |c| (r, c)))
        .map(|(r, c)| stack.direct_conv_window(r, c, 2, 2, &kernel).unwrap())
        .collect();

    let stack_ref = &stack;
    let concurrent: Vec<Vec<u32>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..5)
            .map(|r| {
                scope.spawn(move || {
                    (0..5)
                        .map(|c| stack_ref.direct_conv_window(r, c, 2, 2, &kernel).unwrap())
                        .collect::<Vec<Vec<u32>>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(serial, concurrent);
}

/// Telemetry counters must tolerate the same sharing: many threads reading
/// one plane concurrently inside one capture must lose no events. The
/// expected counts follow from the plane read contract — one read pulse and
/// kh*kw DAC drives per `direct_conv_window` call.
#[test]
fn concurrent_reads_record_exact_telemetry_counts() {
    use inca_telemetry::Event;

    let mut plane = VerticalPlane::new(8, 8);
    let bits: Vec<u8> = (0..64).map(|i| (i % 5 == 0) as u8).collect();
    plane.write_bits(&bits).unwrap();
    let kernel = [1u8, 0, 1, 1, 0, 1, 1, 0, 1];

    let plane_ref = &plane;
    let ((), counted) = inca_telemetry::capture(|| {
        let telemetry = &inca_telemetry::current();
        std::thread::scope(|scope| {
            for r in 0..6 {
                scope.spawn(move || {
                    telemetry.enter(|| {
                        for c in 0..6 {
                            plane_ref.direct_conv_window(r, c, 3, 3, &kernel).unwrap();
                        }
                    });
                });
            }
        });
    });

    let windows = 6 * 6;
    assert_eq!(counted.get(Event::XbarReadPulse), windows);
    assert_eq!(counted.get(Event::DacDrive), windows * 9);
}

#[test]
fn concurrent_crossbar_mvm_agrees_with_serial() {
    let mut xbar = Crossbar2d::new(8, 4);
    for col in 0..4 {
        let bits: Vec<u8> = (0..8).map(|r| ((r + col) % 2) as u8).collect();
        xbar.program_column(col, &bits).unwrap();
    }
    let inputs: Vec<Vec<u8>> = (0..8).map(|s| (0..8).map(|r| ((r * s) % 3 == 0) as u8).collect()).collect();

    let serial: Vec<Vec<u32>> = inputs.iter().map(|v| xbar.mvm_binary(v).unwrap()).collect();

    let xbar_ref = &xbar;
    let concurrent: Vec<Vec<u32>> = std::thread::scope(|scope| {
        let handles: Vec<_> =
            inputs.iter().map(|v| scope.spawn(move || xbar_ref.mvm_binary(v).unwrap())).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(serial, concurrent);
}
