//! `vgg16-cifar-hw`: VGG16-CIFAR's layer plan programmed onto the
//! hardware-functional engine (`HwConv`s and an `HwLinear` in an
//! `HwNetwork` with its 5 max-pools). The only workload that exercises
//! `inca-xbar` popcount, the conv engine (reads) and weight programming
//! (writes).

use inca_arch::ArchConfig;
use inca_core::{ExecPolicy, HwConv, HwLinear, HwNetwork, DATA_BITS, WEIGHT_BITS};
use inca_nn::Tensor;
use inca_sim::{conv_forward_events, simulate_inference, ConvGeometry};
use inca_workloads::{LayerKind, LayerSpec, Model, ModelSpec};
use inca_xbar::packed::words_for;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::{json, Value};

use crate::host;
use crate::measure::{ensure, median, run, stream, time, wall_time, Checks, Fnv64, Measured, Sample};
use crate::trace::Tracer;

/// Every conv's channel count is divided by this. The engine keeps ~470 B
/// of programmed state per weight, so full width needs ~6.9 GB and 64× the
/// MACs (~20–30 s per forward on a 2-vCPU host), which fits neither a
/// shared machine nor a 25-s run; at 1/8 width programming takes ~0.1 s
/// and one forward ~0.4 s in ~114 MB, so a run yields a median over ~50
/// images. Kernel sizes, strides, padding and spatial sizes are
/// VGG16-CIFAR's own.
const WIDTH_DIVISOR: usize = 8;

/// The workload refuses to start below this much available memory
/// rather than risk being OOM-killed (its peak is ~0.14 GB).
const MIN_MEM_AVAILABLE_MB: f64 = 1000.0;

/// The first images' logits form the output digest.
const DIGEST_IMAGES: usize = 3;

/// `HwConv`'s default subarray side.
const TILE_SIDE: usize = 16;

/// Kernel side of the word lane the popcount microbenchmark exercises.
const LANE_K: usize = 3;

/// `and_popcount_lanes` calls per microbenchmark repetition.
const POPCOUNT_CALLS: usize = 200_000;

/// VGG16-CIFAR with every conv's width divided by [`WIDTH_DIVISOR`]; the
/// 3 input channels and the 10 classes stay.
pub(crate) fn spec() -> ModelSpec {
    let mut spec = Model::Vgg16Cifar.spec();
    for (i, l) in spec.layers.iter_mut().enumerate() {
        if i > 0 {
            l.cin /= WIDTH_DIVISOR;
        }
        if !l.is_linear() {
            l.cout /= WIDTH_DIVISOR;
        }
    }
    spec
}

/// Seeded He-uniform float weights for every weighted layer, in order.
pub(crate) fn weights(spec: &ModelSpec, seed: u64) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(stream(seed, 0));
    spec.weighted_layers()
        .map(|l| {
            let shape = match l.kind {
                LayerKind::Conv { k, .. } => vec![l.cout, l.cin, k, k],
                _ => vec![l.cout, l.cin],
            };
            let n: usize = shape.iter().product();
            let bound = (6.0 / (n / l.cout) as f32).sqrt();
            Tensor::from_vec((0..n).map(|_| rng.gen_range(-bound..bound)).collect(), &shape)
        })
        .collect()
}

/// Image `i` of a run: a fresh seeded 1×3×32×32 input, so the engine's
/// activation cache never hits.
pub(crate) fn image(seed: u64, i: usize) -> Tensor {
    let mut rng = StdRng::seed_from_u64(stream(seed, 1 + i as u64));
    Tensor::from_vec((0..3 * 32 * 32).map(|_| rng.gen_range(-1.0f32..1.0)).collect(), &[1, 3, 32, 32])
}

/// One stage of the programmed network, kept separately so the traced
/// run can call each layer's own `forward`.
enum Stage {
    Conv(HwConv),
    Relu,
    Pool(usize),
    Flatten,
    Fc(HwLinear),
}

/// Programs every weighted layer; `wrap(i, program)` runs the programming
/// of weighted layer `i`, so the traced run can span each one.
fn program(
    spec: &ModelSpec,
    weights: &[Tensor],
    mut wrap: impl FnMut(usize, &mut dyn FnMut() -> Result<Stage, String>) -> Result<Stage, String>,
) -> Result<Vec<Stage>, String> {
    let mut stages = Vec::new();
    let mut w = weights.iter().enumerate();
    for l in spec.layers() {
        match l.kind {
            LayerKind::Conv { stride, pad, .. } => {
                let (i, t) = w.next().ok_or("fewer weights than layers")?;
                let bias = vec![0.0; l.cout];
                stages.push(wrap(i, &mut || {
                    HwConv::from_float(t, &bias, stride, pad).map(Stage::Conv).map_err(|e| e.to_string())
                })?);
            }
            LayerKind::Linear { .. } => {
                let (i, t) = w.next().ok_or("fewer weights than layers")?;
                let bias = vec![0.0; l.cout];
                stages.push(Stage::Flatten);
                stages.push(wrap(i, &mut || {
                    HwLinear::from_float(t, &bias).map(Stage::Fc).map_err(|e| e.to_string())
                })?);
            }
            LayerKind::Activation => stages.push(Stage::Relu),
            LayerKind::Pool { k, .. } => stages.push(Stage::Pool(k)),
            other => return Err(format!("no hardware stage for {other:?}")),
        }
    }
    Ok(stages)
}

fn network(stages: Vec<Stage>) -> HwNetwork {
    stages.into_iter().fold(HwNetwork::new(), |net, s| match s {
        Stage::Conv(c) => net.conv(c),
        Stage::Relu => net.relu(),
        Stage::Pool(k) => net.max_pool(k),
        Stage::Flatten => net.flatten(),
        Stage::Fc(fc) => net.linear(fc),
    })
}

fn check_logits(y: &Tensor) -> Result<(), String> {
    ensure(y.len() == 10 && y.data().iter().all(|v| v.is_finite()), || format!("bad logits {:?}", y.data()))
}

/// conv01 under `ExecPolicy::parallel_with(2)` must be bit-identical to
/// the default sequential policy.
fn check_parallel_conv01(spec: &ModelSpec, weights: &[Tensor], x: &Tensor) -> Result<(), String> {
    let Some(LayerSpec { kind: LayerKind::Conv { stride, pad, .. }, cout, .. }) =
        spec.conv_layers().next().copied()
    else {
        return Err("no conv layer".into());
    };
    let bias = vec![0.0; cout];
    let conv = || HwConv::from_float(&weights[0], &bias, stride, pad).map_err(|e| e.to_string());
    let seq = conv()?.forward(x).map_err(|e| e.to_string())?;
    let par = conv()?.with_policy(ExecPolicy::parallel_with(2)).forward(x).map_err(|e| e.to_string())?;
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    ensure(bits(&seq) == bits(&par), || "conv01 differs under parallel_with(2)".into())
}

/// Untraced phase. Setup: weight programming, before every image.
/// Operation: one `HwNetwork::forward` of a fresh image; work: 1 image.
pub(crate) fn measure(seed: u64, seconds: f64, checks: &mut Checks) -> Measured {
    if let Some(mb) = host::mem_available_mb().filter(|&mb| mb < MIN_MEM_AVAILABLE_MB) {
        checks.record("start", Err(format!("MemAvailable {mb:.0} MB < {MIN_MEM_AVAILABLE_MB} MB; refusing")));
        return Measured::default();
    }
    let spec = spec();
    let weights = weights(&spec, seed);
    if host::threads() >= 2 {
        checks.record("conv01 parallel_with(2)", check_parallel_conv01(&spec, &weights, &image(seed, 0)));
    }
    let mut digest = Fnv64::new();
    let m = run(
        seconds,
        DIGEST_IMAGES,
        1,
        || program(&spec, &weights, |_, f| f()).map(network),
        |i, net| {
            let x = image(seed, i);
            let mut secs = f64::NAN;
            let outcome = net.and_then(|net| {
                let y;
                (y, secs) = time(|| net.forward(&x));
                let y = y.map_err(|e| e.to_string())?;
                if i < DIGEST_IMAGES {
                    digest = digest.f32s(y.data());
                }
                check_logits(&y)
            });
            checks.record(&format!("image {i}"), outcome);
            Sample { secs, work: 1.0 }
        },
    );
    Measured { digest: digest.finish(), ..m }
}

/// Per-layer results of the traced run.
pub(crate) struct Layers {
    pub metrics: Vec<(String, f64)>,
    /// Per-DNN-layer table: host time beside modeled counts and energy.
    pub table: Value,
    /// conv03 parallel speedup, or its skip marker.
    pub parallel_speedup: Value,
    /// The traced forward: the same work as one untraced operation.
    pub traced: Sample,
}

/// Traced phase: programs each layer and runs one image through each
/// layer's own `forward`, every call in a span.
pub(crate) fn layers(seed: u64, tr: &mut Tracer, checks: &mut Checks) -> Layers {
    let spec = spec();
    let weights = weights(&spec, seed);
    let rss0 = host::status_bytes("VmRSS");
    let stages = tr.span("hw.program", 0, |tr| {
        program(&spec, &weights, |i, f| tr.span("hw.program_layer", i as u64, |_| f()))
    });
    let rss1 = host::status_bytes("VmRSS");
    let stages = match stages {
        Ok(s) => s,
        Err(why) => {
            checks.record("traced programming", Err(why));
            return Layers {
                metrics: Vec::new(),
                table: Value::Null,
                parallel_speedup: Value::Null,
                traced: Sample { secs: 1.0, work: 0.0 },
            };
        }
    };
    let n_weights: usize = weights.iter().map(Tensor::len).sum();

    // One image, stage by stage. ReLU, max-pool and flatten run through
    // single-stage `HwNetwork`s, the only public way to call them.
    let x0 = image(seed, 0);
    let mut conv_s = Vec::new();
    let mut conv3_input = None;
    let (logits, forward_s) = tr.timed("hw.forward", 0, |tr| {
        let mut x = x0.clone();
        for stage in &stages {
            x = match stage {
                Stage::Conv(c) => {
                    let name = format!("hw.conv{:02}", conv_s.len() + 1);
                    if conv_s.len() == 2 {
                        conv3_input = Some(x.clone());
                    }
                    let (y, secs) = tr.timed(name, 0, |_| c.forward(&x));
                    conv_s.push(secs);
                    y.map_err(|e| e.to_string())?
                }
                Stage::Fc(fc) => tr.span("hw.fc", 0, |_| fc.forward(&x)).map_err(|e| e.to_string())?,
                digital => {
                    let single = match digital {
                        Stage::Relu => HwNetwork::new().relu(),
                        Stage::Pool(k) => HwNetwork::new().max_pool(*k),
                        _ => HwNetwork::new().flatten(),
                    };
                    tr.span("hw.digital", 0, |_| single.forward(&x)).map_err(|e| e.to_string())?
                }
            };
        }
        Ok::<_, String>(x)
    });

    let conv3 = stages
        .iter()
        .filter_map(|s| match s {
            Stage::Conv(c) => Some(c),
            _ => None,
        })
        .nth(2);
    let parallel_speedup = match (conv3, &conv3_input) {
        (Some(conv), Some(x)) => parallel_speedup(conv, x),
        _ => host::skipped("conv03 not reached"),
    };

    // The stage-by-stage logits must equal the whole network's.
    let whole = network(stages).forward(&x0).map_err(|e| e.to_string());
    let agree = match (&logits, &whole) {
        (Ok(a), Ok(b)) => check_logits(a).and_then(|()| {
            ensure(a.data() == b.data(), || "stage-by-stage logits differ from HwNetwork::forward".into())
        }),
        (Err(e), _) | (_, Err(e)) => Err(e.clone()),
    };
    checks.record("traced forward", agree);

    let convs: Vec<LayerSpec> = spec.conv_layers().copied().collect();
    let pulses: Vec<u64> = convs.iter().map(read_pulses).collect();
    let total_conv_s: f64 = conv_s.iter().sum();
    let ns_per_call = tr.span("xbar.popcount", 0, |_| popcount_ns_per_call());
    // One `and_popcount_lanes` call covers all activation bits of one
    // (output, channel, side, weight-bit) read.
    let calls = pulses.iter().sum::<u64>() as f64 / f64::from(DATA_BITS);

    let mut metrics: Vec<(String, f64)> =
        conv_s.iter().enumerate().map(|(i, &s)| (format!("hw.conv{:02}_s", i + 1), s)).collect();
    metrics.extend([
        ("hw.fc_s".to_string(), tr.total("hw.fc")),
        ("hw.digital_s".to_string(), tr.total("hw.digital")),
        ("hw.read_pulses_per_s".to_string(), pulses.iter().sum::<u64>() as f64 / total_conv_s),
        ("xbar.popcount_ns_per_call".to_string(), ns_per_call),
        ("xbar.popcount_share".to_string(), calls * ns_per_call * 1e-9 / total_conv_s),
        ("hw.weight_program_s".to_string(), tr.total("hw.program")),
        (
            "hw.rss_bytes_per_weight".to_string(),
            rss1.zip(rss0).map_or(f64::NAN, |(b, a)| (b - a) / n_weights as f64),
        ),
    ]);
    Layers {
        metrics,
        table: dnn_table(&spec, &convs, &conv_s, &pulses),
        parallel_speedup,
        traced: Sample { secs: forward_s, work: 1.0 },
    }
}

fn read_pulses(l: &LayerSpec) -> u64 {
    let (k, stride, pad) = match l.kind {
        LayerKind::Conv { k, stride, pad, .. } => (k, stride, pad),
        _ => (1, 1, 0),
    };
    let g = ConvGeometry { cin: l.cin, cout: l.cout, h: l.h, w: l.w, k, stride, pad, tile_side: TILE_SIDE };
    conv_forward_events(&g, u32::from(WEIGHT_BITS), u32::from(DATA_BITS)).read_pulses
}

/// Median ns per `and_popcount_lanes` call on the lane one 3×3 window of
/// 8 activation bits occupies (`DATA_BITS · k · words_for(k)` words).
fn popcount_ns_per_call() -> f64 {
    let n = usize::from(DATA_BITS) * LANE_K * words_for(LANE_K);
    let x: Vec<u64> = (0..n as u64).map(|i| stream(1, i)).collect();
    let w: Vec<u64> = (0..n as u64).map(|i| stream(2, i)).collect();
    let mut out = vec![0u32; n];
    let reps: Vec<f64> = (0..5)
        .map(|_| {
            let ((), secs) = time(|| {
                for _ in 0..POPCOUNT_CALLS {
                    inca_xbar::and_popcount_lanes(
                        std::hint::black_box(&x),
                        std::hint::black_box(&w),
                        &mut out,
                    );
                    std::hint::black_box(&mut out);
                }
            });
            secs * 1e9 / POPCOUNT_CALLS as f64
        })
        .collect();
    median(&reps)
}

/// conv03 under `ExecPolicy::parallel()` against the default policy, in
/// wall time. Below 4 host threads the ratio would measure the scheduler,
/// not the engine, so it is an explicit skip marker.
fn parallel_speedup(conv: &HwConv, x: &Tensor) -> Value {
    speedup_or_skip(host::threads(), || {
        let par = conv.clone().with_policy(ExecPolicy::parallel());
        let run = |c: &HwConv| median(&(0..3).map(|_| wall_time(|| c.forward(x)).1).collect::<Vec<_>>());
        run(conv) / run(&par)
    })
}

fn speedup_or_skip(host_threads: usize, measure: impl FnOnce() -> f64) -> Value {
    if host_threads < 4 {
        host::skipped("host_threads < 4")
    } else {
        json!(measure())
    }
}

/// One row per conv: host CPU time (host), the geometry-derived read
/// pulses, and `inca-sim`'s modeled energy and cycles on the paper's INCA
/// configuration (simulated).
fn dnn_table(spec: &ModelSpec, convs: &[LayerSpec], conv_s: &[f64], pulses: &[u64]) -> Value {
    let stats = simulate_inference(&ArchConfig::inca_paper(), spec);
    let rows: Vec<Value> = convs
        .iter()
        .enumerate()
        .map(|(i, l)| {
            let sim = stats.per_layer.get(i);
            json!({
                "layer": format!("conv{:02}", i + 1),
                "cin": l.cin as u64,
                "cout": l.cout as u64,
                "h": l.h as u64,
                "w": l.w as u64,
                "host_s": conv_s.get(i).copied().unwrap_or(f64::NAN),
                "read_pulses": pulses[i],
                "sim_energy_pj_per_image": sim.map_or(f64::NAN, |s| s.energy.total_j().picojoules() / stats.batch as f64),
                "sim_cycles_per_batch": sim.map_or(0, |s| s.cycles),
            })
        })
        .collect();
    json!({
        "model": format!("VGG16-CIFAR at 1/{WIDTH_DIVISOR} width"),
        "columns": json!({
            "host_s": "host: CPU time of one HwConv::forward",
            "read_pulses": "simulated: inca_sim::conv_forward_events(WEIGHT_BITS, DATA_BITS)",
            "sim_energy_pj_per_image": "simulated: simulate_inference(inca_paper) energy / batch",
            "sim_cycles_per_batch": "simulated: simulate_inference(inca_paper) array cycles",
        }),
        "sim_batch": stats.batch as u64,
        "rows": Value::Array(rows),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_spec_keeps_vgg16_cifar_topology() {
        let s = spec();
        assert_eq!(s.conv_layers().count(), 13);
        let fc = s.weighted_layers().last().copied().expect("fc");
        assert_eq!((fc.cin, fc.cout), (512 / WIDTH_DIVISOR, 10));
        assert_eq!(s.layers()[0].cin, 3);
        let w = weights(&s, 1);
        assert_eq!(w.len(), 14);
        assert_eq!(w[0].shape(), &[64 / WIDTH_DIVISOR, 3, 3, 3]);
    }

    #[test]
    fn parallel_speedup_is_a_skip_marker_below_four_threads() {
        assert_eq!(
            speedup_or_skip(2, || unreachable!("not measured"))["skipped"].as_str(),
            Some("host_threads < 4")
        );
        assert_eq!(speedup_or_skip(8, || 3.5).as_f64(), Some(3.5));
    }

    #[test]
    fn inputs_follow_the_seed() {
        let digest =
            |seed| Fnv64::new().f32s(image(seed, 0).data()).f32s(weights(&spec(), seed)[0].data()).finish();
        assert_eq!(digest(5), digest(5));
        assert_ne!(digest(5), digest(6));
        assert_ne!(image(5, 0).data(), image(5, 1).data());
    }
}
