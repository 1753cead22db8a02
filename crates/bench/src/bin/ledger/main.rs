//! `inca-ledger`: the end-to-end and per-layer benchmark of the INCA
//! workspace. See `README.md` beside this package for the workloads, the
//! metrics, their bounds and the public APIs measured.
//!
//! ```text
//! ledger --workload <name> [--seed <u64>] [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! One workload runs per process and its outputs are checked. The last
//! line of stdout is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` — every end-to-end metric untraced, every per-layer
//! metric with `--trace 1`. A traced run also writes
//! `ledger-out/<workload>.json` (host, per-layer values, the per-DNN-layer
//! table, span self times) and `ledger-out/<workload>.trace.json` (Chrome
//! trace events).

mod calib;
mod fleet;
mod host;
mod hw;
mod measure;
mod queue;
mod serve;
mod trace;
mod train;

use std::collections::BTreeMap;
use std::process::ExitCode;

use serde_json::{json, Map, Value};

use measure::{median, Checks, Measured, Sample};
use trace::Tracer;

/// The seed every workload defaults to; only at this seed are output
/// digests compared with `reference.json`.
const DEFAULT_SEED: u64 = 2026;

/// Default measured seconds per run.
const DEFAULT_SECONDS: f64 = 25.0;

/// Output digests at [`DEFAULT_SEED`], one per workload.
const REFERENCE: &str = include_str!("reference.json");

/// Where a traced run writes its artifacts, relative to the working
/// directory.
const OUT_DIR: &str = "ledger-out";

/// End-to-end metrics: name and unit. `work_per_ref_cpu_s` counts each
/// workload's own unit of work (images, simulated events or trained
/// samples) per second of CPU time; it and `setup_s` are scaled to the
/// reference host speed (see `calib`).
const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("peak_rss_mb", "MB"), ("work_per_ref_cpu_s", "1/s")];

/// Per-layer metrics: name and unit, all produced by every traced run.
const PER_LAYER: [(&str, &str); 48] = [
    ("hw.conv01_s", "s"),
    ("hw.conv02_s", "s"),
    ("hw.conv03_s", "s"),
    ("hw.conv04_s", "s"),
    ("hw.conv05_s", "s"),
    ("hw.conv06_s", "s"),
    ("hw.conv07_s", "s"),
    ("hw.conv08_s", "s"),
    ("hw.conv09_s", "s"),
    ("hw.conv10_s", "s"),
    ("hw.conv11_s", "s"),
    ("hw.conv12_s", "s"),
    ("hw.conv13_s", "s"),
    ("hw.fc_s", "s"),
    ("hw.digital_s", "s"),
    ("hw.read_pulses_per_s", "1/s"),
    ("xbar.popcount_ns_per_call", "ns"),
    ("xbar.popcount_share", "ratio"),
    ("hw.weight_program_s", "s"),
    ("hw.rss_bytes_per_weight", "B"),
    ("costs.build_s", "s"),
    ("fleet.point_p50_s", "s"),
    ("fleet.point_max_s", "s"),
    ("fleet.events", "count"),
    ("net.packet_hops", "count"),
    ("net.packet_hops_per_s", "1/s"),
    ("net.drops", "count"),
    ("net.ecn_marks", "count"),
    ("net.retransmits", "count"),
    ("events.dense_pops_per_s", "1/s"),
    ("events.sparse_pops_per_s", "1/s"),
    ("serve.point_p50_s", "s"),
    ("serve.point_max_s", "s"),
    ("serve.events", "count"),
    ("obs.overhead_ratio", "ratio"),
    ("obs.trace_mb", "MB"),
    ("nn.dataset_s", "s"),
    ("nn.conv1_fwd_us", "us"),
    ("nn.conv1_bwd_us", "us"),
    ("nn.conv2_fwd_us", "us"),
    ("nn.conv2_bwd_us", "us"),
    ("nn.fc_fwd_us", "us"),
    ("nn.fc_bwd_us", "us"),
    ("nn.pool_relu_us", "us"),
    ("nn.sgd_us", "us"),
    ("nn.quant_us", "us"),
    ("nn.noise_us", "us"),
    ("trace.overhead", "ratio"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Hw,
    Fleet,
    Serve,
    Train,
}

impl Workload {
    const ALL: [Workload; 4] = [Workload::Hw, Workload::Fleet, Workload::Serve, Workload::Train];

    fn name(self) -> &'static str {
        match self {
            Workload::Hw => "vgg16-cifar-hw",
            Workload::Fleet => "fleet-fat-tree",
            Workload::Serve => "serve-single-site",
            Workload::Train => "accuracy-train",
        }
    }

    fn measure(self, seed: u64, seconds: f64, checks: &mut Checks) -> Measured {
        match self {
            Workload::Hw => hw::measure(seed, seconds, checks),
            Workload::Fleet => fleet::measure(seed, seconds, checks),
            Workload::Serve => serve::measure(seed, seconds, checks),
            Workload::Train => train::measure(seed, seconds, checks),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: ledger --workload <name> [--seed <u64>] [--seconds <n>] [--trace <0|1>]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed `{value}`: expected a u64"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}`: expected 0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// Compares a workload's output digest with `reference` (JSON mapping
/// workload name to a hex digest).
fn check_reference(reference: &str, workload: &str, digest: u64) -> Result<(), String> {
    let parsed = serde_json::from_str(reference).map_err(|e| format!("reference.json: {e}"))?;
    let want = parsed[workload].as_str().ok_or_else(|| format!("reference.json has no `{workload}`"))?;
    measure::ensure(want == format!("{digest:016x}"), || format!("digest {digest:016x} != reference {want}"))
}

fn metric(value: f64, unit: &str) -> Value {
    json!({ "value": value, "unit": unit })
}

/// The end-to-end metrics of an untraced phase.
fn end_to_end(m: &Measured) -> Map {
    let mut out = Map::new();
    for (name, unit) in END_TO_END {
        let value = match name {
            "setup_s" => metric(m.setup_ref_s(), unit),
            "peak_rss_mb" => m
                .peak_bytes
                .or_else(|| host::status_bytes("VmHWM"))
                .map_or_else(|| host::skipped("no /proc/self/status"), |b| metric(b / 1e6, unit)),
            _ => metric(m.work_per_ref_s(), unit),
        };
        out.insert(name.into(), value);
    }
    out
}

/// The untraced phase, with the reference check at the default seed.
fn untraced(args: &Args, checks: &mut Checks) -> Measured {
    checks.record(
        "CPU clock",
        measure::ensure(measure::cpu_secs().is_finite(), || "no process CPU clock on this platform".into()),
    );
    let m = args.workload.measure(args.seed, args.seconds, checks);
    let name = args.workload.name();
    let rates = m.round_rates(false);
    eprintln!(
        "ledger: {name} seed {} digest {:016x}: unscaled setup median {:.6} s over {} reps, work per CPU \
         second median {:.6e} (min {:.6e}, max {:.6e}) over {} rounds of {} ops; host slowness median \
         {:.3} (min {:.3}, max {:.3}); CPU/wall {:.3}",
        args.seed,
        m.digest,
        m.setup_s(),
        m.setup.len(),
        m.work_per_s(),
        rates.iter().copied().fold(f64::INFINITY, f64::min),
        measure::max(&rates),
        rates.len(),
        m.round,
        median(&m.slowness),
        m.slowness.iter().copied().fold(f64::INFINITY, f64::min),
        measure::max(&m.slowness),
        m.cpu_share
    );
    if args.seed == DEFAULT_SEED && !m.ops.is_empty() {
        checks.record("reference digest", check_reference(REFERENCE, name, m.digest));
    }
    m
}

/// Everything the traced run produces beyond the per-layer values.
struct Traced {
    per_layer: BTreeMap<String, f64>,
    table: Value,
    parallel_speedup: Value,
    /// The traced counterpart of one of the workload's operations.
    op: Sample,
}

/// Every layer probe, each call in a span.
fn probes(args: &Args, tr: &mut Tracer, checks: &mut Checks) -> Traced {
    let seed = args.seed;
    let hw = hw::layers(seed, tr, checks);
    let (fleet, fleet_op) = fleet::layers(seed, tr, checks);
    let serve = serve::layers(seed, tr, checks);
    let events = queue::layers(seed, tr);
    let (nn, train_op) = train::layers(seed, tr, checks);
    let op = match args.workload {
        Workload::Hw => hw.traced,
        Workload::Fleet => fleet_op,
        Workload::Serve => serve.traced,
        Workload::Train => train_op,
    };
    let per_layer = [hw.metrics, fleet, serve.metrics, events, nn].into_iter().flatten().collect();
    Traced { per_layer, table: hw.table, parallel_speedup: hw.parallel_speedup, op }
}

fn write_artifacts(name: &str, report: &Value, tr: &Tracer) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let write = |file: String, text: String| std::fs::write(&file, text).map_err(|e| format!("{file}: {e}"));
    write(
        format!("{OUT_DIR}/{name}.json"),
        serde_json::to_string_pretty(report).map_err(|e| e.to_string())?,
    )?;
    write(format!("{OUT_DIR}/{name}.trace.json"), tr.chrome_json())
}

/// The traced run: the layer probes, then the untraced phase (probes go
/// first so `hw.rss_bytes_per_weight` sees a fresh heap), then the
/// artifacts. Returns the per-layer metrics.
fn traced_run(args: &Args, checks: &mut Checks) -> Map {
    let mut tr = Tracer::new();
    let mut traced = probes(args, &mut tr, checks);
    let m = untraced(args, checks);
    traced.per_layer.insert("trace.overhead".into(), m.work_per_s() / traced.op.rate());
    let mut metrics = Map::new();
    for (name, unit) in PER_LAYER {
        let value = traced.per_layer.get(name).copied().unwrap_or(f64::NAN);
        checks
            .record(&format!("per-layer {name}"), measure::ensure(value.is_finite(), || format!("{value}")));
        metrics.insert(name.into(), metric(value, unit));
    }
    let mut untraced_summary = Map::new();
    for (name, value) in end_to_end(&m).iter() {
        let summary = json!({
            "median": value["value"].clone(),
            "unit": value["unit"].clone(),
            "samples": samples(&m, name),
        });
        untraced_summary.insert(name.clone(), summary);
    }
    let report = json!({
        "workload": args.workload.name(),
        "seed": args.seed,
        "host": host::describe(),
        "host_slowness_median": median(&m.slowness),
        "end_to_end_untraced": Value::Object(untraced_summary),
        "per_layer": Value::Object(metrics.clone()),
        "exec.parallel_speedup": traced.parallel_speedup,
        "dnn_layers": traced.table,
        "spans": tr.summary(),
    });
    checks.record("artifacts", write_artifacts(args.workload.name(), &report, &tr));
    metrics
}

fn run(args: &Args) -> Value {
    let mut checks = Checks::default();
    let metrics =
        if args.trace { traced_run(args, &mut checks) } else { end_to_end(&untraced(args, &mut checks)) };
    json!({
        "correct": checks.failed == 0 && checks.attempted > 0,
        "attempted": checks.attempted.max(1),
        "failed": checks.failed,
        "metrics": Value::Object(metrics),
    })
}

fn samples(m: &Measured, metric: &str) -> u64 {
    match metric {
        "setup_s" => m.setup.len() as u64,
        "work_per_ref_cpu_s" => m.round_rates(true).len() as u64,
        _ => 1,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(args) => {
            println!("{}", run(&args));
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("ledger: {why}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
    }

    #[test]
    fn metric_names_are_valid_unique_and_within_limits() {
        let names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER.iter()).map(|m| m.0).collect();
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(Workload::ALL.iter().all(|w| valid_name(w.name())));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_workloads_and_metrics() {
        let b = serde_json::from_str(include_str!("../../../../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            b[key]
                .as_array()
                .expect(key)
                .iter()
                .map(|m| (m["name"].as_str().unwrap_or("").into(), m["unit"].as_str().unwrap_or("").into()))
                .collect()
        };
        let own = |list: &[(&str, &str)]| {
            list.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect::<Vec<_>>()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, Workload::ALL.iter().map(|w| w.name().to_string()).collect::<Vec<_>>());
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload fleet-fat-tree --seed 7 --seconds 3 --trace 1").expect("valid");
        assert_eq!(a, Args { workload: Workload::Fleet, seed: 7, seconds: 3.0, trace: true });
        let d = args("--workload accuracy-train").expect("defaults");
        assert_eq!((d.seed, d.seconds, d.trace), (DEFAULT_SEED, DEFAULT_SECONDS, false));
    }

    #[test]
    fn rejects_bad_input_with_a_message() {
        assert!(args("--workload nope").unwrap_err().contains("unknown workload"));
        assert!(args("--workload serve-single-site --seed -3").unwrap_err().contains("bad --seed"));
        assert!(args("--workload serve-single-site --seed").unwrap_err().contains("needs a value"));
        assert!(args("--workload serve-single-site --trace 2").unwrap_err().contains("bad --trace"));
        assert!(args("--seed 1").unwrap_err().contains("missing --workload"));
        assert!(args("--frobnicate 1").unwrap_err().contains("unknown flag"));
    }

    #[test]
    fn reference_covers_every_workload_and_a_corrupt_digest_fails() {
        let parsed = serde_json::from_str(REFERENCE).expect("reference.json parses");
        for w in Workload::ALL {
            let hex = parsed[w.name()].as_str().expect("entry");
            let digest = u64::from_str_radix(hex, 16).expect("hex digest");
            assert!(check_reference(REFERENCE, w.name(), digest).is_ok());
        }
        let hex = parsed["fleet-fat-tree"].as_str().expect("entry");
        let digest = u64::from_str_radix(hex, 16).expect("hex digest");
        let corrupt = REFERENCE.replace(hex, &format!("{:016x}", digest ^ 1));
        let mut checks = Checks::default();
        checks.record("reference digest", check_reference(&corrupt, "fleet-fat-tree", digest));
        assert_eq!((checks.attempted, checks.failed), (1, 1));
    }
}
