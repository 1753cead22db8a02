//! `fleet-fat-tree`: the `experiments net` fleet sweep (INCA and WS, 6
//! load points each, 152 chips behind 8 dispatchers on a k=8 fat-tree).
//! Exercises `inca-net`, the fleet loop and the calendar queue under
//! dense packet-hop events; no crossbar or NN work.

use inca_serve::{
    run_fleet_point_with_costs, run_fleet_sweep, ArrivalKind, CostCache, FleetConfig, FleetPointSummary,
    FleetReport, FleetResult, FleetSweepConfig,
};

use crate::measure::{ensure, max, median, run, time, Checks, Fnv64, Measured, Sample};
use crate::serve;
use crate::trace::Tracer;

/// At least this many grid passes per run.
const MIN_OPS: usize = 3;

/// The quick sweep (2,000 requests per point) with the run's seed, on
/// one thread.
pub(crate) fn config(seed: u64) -> FleetSweepConfig {
    FleetSweepConfig { seed, workers: 1, ..FleetSweepConfig::quick() }
}

/// The cost model build `run_fleet_sweep` starts with.
fn cost_caches(cfg: &FleetSweepConfig) -> Vec<CostCache> {
    serve::cost_caches(&cfg.backends, &cfg.mix, cfg.num_chips())
}

fn points(report: &FleetReport) -> impl Iterator<Item = &FleetPointSummary> {
    report.backends.iter().flat_map(|b| b.points.iter())
}

/// Every point of the sweep's grid through `run_fleet_point_with_costs`
/// on `caches`, in the sweep's order, with its per-point configuration
/// and seed stream. `wrap(point, f)` runs point `point`, so the traced
/// run can span each one.
fn run_points(
    cfg: &FleetSweepConfig,
    grid: &[f64],
    caches: &mut [CostCache],
    mut wrap: impl FnMut(u64, &mut dyn FnMut() -> FleetResult) -> FleetResult,
) -> Vec<FleetPointSummary> {
    let mut out = Vec::new();
    for (bi, (&backend, cache)) in cfg.backends.iter().zip(caches.iter_mut()).enumerate() {
        for (gi, &rate) in grid.iter().enumerate() {
            let point = FleetConfig {
                backend,
                topo: cfg.topo,
                dispatchers: cfg.dispatchers,
                policy: cfg.policy,
                batch: cfg.batch,
                queue_cap: cfg.queue_cap,
                mix: cfg.mix.clone(),
                arrivals: ArrivalKind::Poisson { rate_rps: rate },
                seed: cfg.seed ^ ((bi as u64) << 32) ^ gi as u64,
                requests: cfg.requests_per_point,
                net: cfg.net,
                util_sample_interval_ns: cfg.util_sample_interval_ns,
                ecmp_permute_seed: cfg.ecmp_permute_seed,
            };
            let run = wrap((bi * grid.len() + gi) as u64, &mut || run_fleet_point_with_costs(&point, cache));
            out.push(FleetPointSummary::from_run(rate, &run));
        }
    }
    out
}

/// Every point conserves requests and summarizes exactly as the sweep's.
fn check_points(report: &FleetReport, summaries: &[FleetPointSummary]) -> Result<(), String> {
    summaries.iter().try_for_each(|p| serve::conserved(p.offered, p.completed, p.shed))?;
    ensure(points(report).eq(summaries), || "points differ from run_fleet_sweep's".into())
}

fn events(summaries: &[FleetPointSummary]) -> f64 {
    summaries.iter().map(|p| p.events).sum::<u64>() as f64
}

/// Untraced phase. One untimed `run_fleet_sweep` fixes the grid and the
/// digest. Setup: the cost model build the sweep starts with. Operation:
/// the sweep's grid on those caches; work: simulated events.
pub(crate) fn measure(seed: u64, seconds: f64, checks: &mut Checks) -> Measured {
    let cfg = config(seed);
    let report = run_fleet_sweep(&cfg);
    let m = run(
        seconds,
        MIN_OPS,
        1,
        || cost_caches(&cfg),
        |i, mut caches| {
            let (summaries, secs) = time(|| run_points(&cfg, &report.grid_rps, &mut caches, |_, f| f()));
            checks.record(&format!("fleet grid {i}"), check_points(&report, &summaries));
            Sample { secs, work: events(&summaries) }
        },
    );
    Measured { digest: Fnv64::new().bytes(report.to_pretty_json().as_bytes()).finish(), ..m }
}

/// Traced phase: one sweep, then the untraced operation — a fresh cost
/// model build and the grid on it — with every point in a span.
pub(crate) fn layers(seed: u64, tr: &mut Tracer, checks: &mut Checks) -> (Vec<(String, f64)>, Sample) {
    let cfg = config(seed);
    let (report, sweep_s) = tr.timed("fleet.sweep", 0, |_| run_fleet_sweep(&cfg));
    let mut caches = tr.span("fleet.costs", 0, |_| cost_caches(&cfg));
    let mut point_s = Vec::new();
    let (summaries, grid_s) = tr.timed("fleet.grid", 0, |tr| {
        run_points(&cfg, &report.grid_rps, &mut caches, |p, f| {
            let (run, secs) = tr.timed("fleet.point", p, |_| f());
            point_s.push(secs);
            run
        })
    });
    checks.record("traced fleet grid", check_points(&report, &summaries));
    let net = |f: fn(&FleetPointSummary) -> u64| points(&report).map(f).sum::<u64>() as f64;
    let hops = net(|p| p.net.packets);
    let metrics = vec![
        ("fleet.point_p50_s".to_string(), median(&point_s)),
        ("fleet.point_max_s".to_string(), max(&point_s)),
        ("fleet.events".to_string(), net(|p| p.events)),
        ("net.packet_hops".to_string(), hops),
        ("net.packet_hops_per_s".to_string(), hops / sweep_s),
        ("net.drops".to_string(), net(|p| p.net.drops)),
        ("net.ecn_marks".to_string(), net(|p| p.net.ecn_marks)),
        ("net.retransmits".to_string(), net(|p| p.net.retransmits)),
    ];
    (metrics, Sample { secs: grid_s, work: events(&summaries) })
}
