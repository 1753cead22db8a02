//! `serve-single-site`: the single-site serving engine in two phases per
//! operation:
//!
//! * the `experiments serve` sweep (INCA, WS and GPU over a shared 9-point
//!   load grid, 4 chips): the calendar queue with sparse batch timers and
//!   arrivals, no fabric;
//! * the `experiments obs` run (bursty MMPP arrivals into an INCA fleet,
//!   `queue_cap` 512) under `ObsConfig::full()`: the same engine plus
//!   tracing, time-series sampling and SLO monitoring.

use inca_serve::{
    run_point_observed, run_point_with_costs, run_sweep, ArrivalKind, BackendKind, CostCache, ModelMix,
    ObsConfig, PointSummary, RunResult, ServeConfig, ServeReport, SweepConfig,
};

use crate::measure::{ensure, max, median, run, same_as_first, time, Checks, Fnv64, Measured, Sample};
use crate::trace::Tracer;

/// At least this many operations per run.
const MIN_OPS: usize = 3;

/// Requests per sweep point: ~0.3 s per grid pass on one thread.
const SWEEP_REQUESTS: u64 = 50_000;

/// Requests of the observed run (~0.1 s each), so an operation takes
/// ~0.4 s and a 25-s run a median over ~60.
const OBS_REQUESTS: u64 = 200_000;

/// Observed vs plain repetitions for `obs.overhead_ratio`.
const OBS_REPS: u64 = 5;

/// Sub-millisecond cost model builds `costs.build_s` takes the median of;
/// the grid runs on the last.
const COST_BUILDS: u64 = 25;

/// The quick sweep at [`SWEEP_REQUESTS`] per point with the run's seed,
/// on one thread.
pub(crate) fn sweep_config(seed: u64) -> SweepConfig {
    SweepConfig { seed, workers: 1, requests_per_point: SWEEP_REQUESTS, ..SweepConfig::quick() }
}

/// The `experiments obs` configuration at [`OBS_REQUESTS`] with the
/// run's seed: an INCA fleet whose MMPP burst state sits far past
/// capacity, so queues deepen, requests shed and the SLO burns.
pub(crate) fn obs_config(seed: u64) -> ServeConfig {
    let mut cfg = ServeConfig::default_fleet(BackendKind::Inca, 0.0);
    cfg.arrivals = ArrivalKind::Mmpp { rate_hi: 400_000.0, rate_lo: 200.0, mean_dwell_s: 0.05 };
    cfg.queue_cap = 512;
    cfg.seed = seed;
    cfg.requests = OBS_REQUESTS;
    cfg
}

/// The cost model build the sweeps start with: one cache per backend,
/// priced up to the full-batch capacity of `chips` chips.
pub(crate) fn cost_caches(backends: &[BackendKind], mix: &ModelMix, chips: usize) -> Vec<CostCache> {
    backends
        .iter()
        .map(|&b| {
            let mut cache = CostCache::new(b, mix);
            std::hint::black_box(cache.capacity_rps(mix, chips));
            cache
        })
        .collect()
}

fn points(report: &ServeReport) -> impl Iterator<Item = &PointSummary> {
    report.backends.iter().flat_map(|b| b.points.iter())
}

/// Every offered request is either completed or shed.
pub(crate) fn conserved(offered: u64, completed: u64, shed: u64) -> Result<(), String> {
    ensure(offered == completed + shed, || {
        format!("offered {offered} != completed {completed} + shed {shed}")
    })
}

/// Every point of the sweep's grid through `run_point_with_costs` on
/// `caches`, in the sweep's order, with its per-point configuration and
/// seed stream. `wrap(point, f)` runs point `point`, so the traced run can
/// span each one.
fn run_points(
    cfg: &SweepConfig,
    grid: &[f64],
    caches: &mut [CostCache],
    mut wrap: impl FnMut(u64, &mut dyn FnMut() -> RunResult) -> RunResult,
) -> Vec<PointSummary> {
    let mut out = Vec::new();
    for (bi, (&backend, cache)) in cfg.backends.iter().zip(caches.iter_mut()).enumerate() {
        for (gi, &rate) in grid.iter().enumerate() {
            let point = ServeConfig {
                backend,
                chips: cfg.chips,
                policy: cfg.policy,
                batch: cfg.batch,
                queue_cap: cfg.queue_cap,
                mix: cfg.mix.clone(),
                arrivals: ArrivalKind::Poisson { rate_rps: rate },
                seed: cfg.seed ^ ((bi as u64) << 32) ^ gi as u64,
                requests: cfg.requests_per_point,
            };
            let run = wrap((bi * grid.len() + gi) as u64, &mut || run_point_with_costs(&point, cache));
            out.push(PointSummary::from_run(rate, &run));
        }
    }
    out
}

/// Every point conserves requests and summarizes exactly as the sweep's.
fn check_points(report: &ServeReport, summaries: &[PointSummary]) -> Result<(), String> {
    summaries.iter().try_for_each(|p| conserved(p.offered, p.completed, p.shed))?;
    ensure(points(report).eq(summaries), || "points differ from run_sweep's".into())
}

fn events(summaries: &[PointSummary]) -> f64 {
    summaries.iter().map(|p| p.events).sum::<u64>() as f64
}

/// The unobserved run of `cfg` on a fresh cost model: what every observed
/// run must reproduce.
fn plain_run(cfg: &ServeConfig) -> RunResult {
    run_point_with_costs(cfg, &mut CostCache::new(cfg.backend, &cfg.mix))
}

/// Every field of a run, the completed requests included, folded into one
/// digest, so the reference run need not stay in memory.
fn fingerprint(run: &RunResult) -> u64 {
    let RunResult {
        completed,
        shed,
        makespan_ns,
        energy_j,
        batch_hist,
        switches,
        events,
        queue_depth_sum,
        max_queue_depth,
        offered,
    } = run;
    let head = [
        *shed,
        *makespan_ns,
        energy_j.picojoules().to_bits(),
        *switches,
        *events,
        *queue_depth_sum,
        *max_queue_depth as u64,
        *offered,
    ];
    let requests = completed
        .iter()
        .flat_map(|c| [c.id, c.model_idx as u64, c.arrival_ns, c.done_ns, c.batch_size as u64, c.service_ns]);
    head.into_iter().chain(batch_hist.iter().copied()).chain(requests).fold(Fnv64::new(), Fnv64::u64).finish()
}

/// Untraced phase. Before the timed loop, one untimed `run_sweep` fixes
/// the grid and is the reference every grid must reproduce, and one
/// unobserved run of the observed configuration is the result every
/// observed run must reproduce. Setup: the cost model build the sweep
/// starts with. Operation: the sweep's grid on those caches, then one
/// `run_point_observed(ObsConfig::full())`, which builds its own cost
/// model and recorder inside and offers no way to pass them in; work:
/// simulated events of both.
pub(crate) fn measure(seed: u64, seconds: f64, checks: &mut Checks) -> Measured {
    let cfg = sweep_config(seed);
    let report = run_sweep(&cfg);
    let obs_cfg = obs_config(seed);
    let obs = ObsConfig::full();
    let plain = fingerprint(&plain_run(&obs_cfg));
    let mut first = None;
    let m = run(
        seconds,
        MIN_OPS,
        1,
        || cost_caches(&cfg.backends, &cfg.mix, cfg.chips),
        |i, mut caches| {
            let (summaries, grid_s) = time(|| run_points(&cfg, &report.grid_rps, &mut caches, |_, f| f()));
            let ((run, out), observed_s) = time(|| run_point_observed(&obs_cfg, &obs));
            let digest = Fnv64::new()
                .u64(run.events)
                .u64(run.shed)
                .u64(run.completed.len() as u64)
                .u64(run.makespan_ns)
                .bytes(out.trace_json.as_deref().unwrap_or("").as_bytes())
                .bytes(out.timeseries_json().as_bytes())
                .finish();
            checks.record(
                &format!("serve op {i}"),
                check_points(&report, &summaries)
                    .and_then(|()| conserved(run.offered, run.completed.len() as u64, run.shed))
                    .and_then(|()| {
                        ensure(fingerprint(&run) == plain, || "observing changed the run's result".into())
                    })
                    .and_then(|()| same_as_first(&mut first, digest)),
            );
            Sample { secs: grid_s + observed_s, work: events(&summaries) + run.events as f64 }
        },
    );
    let digest = Fnv64::new().bytes(report.to_pretty_json().as_bytes()).u64(first.unwrap_or(0)).finish();
    Measured { digest, ..m }
}

/// Per-layer results of the serving engine's traced run.
pub(crate) struct Layers {
    pub metrics: Vec<(String, f64)>,
    /// The traced counterpart of one untraced operation.
    pub traced: Sample,
}

/// Traced phase: one sweep, then the untraced operation — the cost model
/// build and the grid on it, with every point in a span, and the observed
/// run, beside the same run unobserved.
pub(crate) fn layers(seed: u64, tr: &mut Tracer, checks: &mut Checks) -> Layers {
    let cfg = sweep_config(seed);
    let report = tr.span("serve.sweep", 0, |_| run_sweep(&cfg));
    let mut caches = Vec::new();
    let mut build_s = Vec::new();
    for rep in 0..COST_BUILDS {
        let secs;
        (caches, secs) = tr.timed("costs.build", rep, |_| cost_caches(&cfg.backends, &cfg.mix, cfg.chips));
        build_s.push(secs);
    }
    let mut point_s = Vec::new();
    let (summaries, grid_s) = tr.timed("serve.grid", 0, |tr| {
        run_points(&cfg, &report.grid_rps, &mut caches, |p, f| {
            let (run, secs) = tr.timed("serve.point", p, |_| f());
            point_s.push(secs);
            run
        })
    });
    checks.record("traced serve grid", check_points(&report, &summaries));

    let obs_cfg = obs_config(seed);
    let obs = ObsConfig::full();
    let mut plain_s = Vec::new();
    let mut observed_s = Vec::new();
    let mut trace_bytes = 0;
    let mut observed_events = 0;
    for rep in 0..OBS_REPS {
        let (plain, secs) = tr.timed("obs.plain", rep, |_| plain_run(&obs_cfg));
        plain_s.push(secs);
        let ((run, out), secs) = tr.timed("obs.observed", rep, |_| run_point_observed(&obs_cfg, &obs));
        observed_s.push(secs);
        trace_bytes = out.trace_json.as_ref().map_or(0, String::len);
        observed_events = run.events;
        checks.record(
            &format!("observed run {rep} vs plain"),
            ensure(plain == run, || "observing changed the run's result".into()),
        );
    }

    let metrics = vec![
        ("costs.build_s".to_string(), median(&build_s)),
        ("serve.point_p50_s".to_string(), median(&point_s)),
        ("serve.point_max_s".to_string(), max(&point_s)),
        ("serve.events".to_string(), events(&summaries)),
        ("obs.overhead_ratio".to_string(), median(&observed_s) / median(&plain_s)),
        ("obs.trace_mb".to_string(), trace_bytes as f64 / 1e6),
    ];
    Layers {
        metrics,
        traced: Sample {
            secs: grid_s + median(&observed_s),
            work: events(&summaries) + observed_events as f64,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64) -> SweepConfig {
        SweepConfig {
            requests_per_point: 200,
            ws_grid: vec![0.5],
            inca_grid: vec![],
            gpu_grid: vec![],
            ..sweep_config(seed)
        }
    }

    #[test]
    fn same_seed_same_digest_other_seed_other_inputs() {
        let digest = |seed| Fnv64::new().bytes(run_sweep(&tiny(seed)).to_pretty_json().as_bytes()).finish();
        assert_eq!(digest(3), digest(3));
        assert_ne!(digest(3), digest(4));
    }

    #[test]
    fn grid_on_setup_caches_reproduces_the_sweep() {
        let cfg = tiny(3);
        let report = run_sweep(&cfg);
        let mut caches = cost_caches(&cfg.backends, &cfg.mix, cfg.chips);
        let summaries = run_points(&cfg, &report.grid_rps, &mut caches, |_, f| f());
        assert!(check_points(&report, &summaries).is_ok());
        let other = run_sweep(&tiny(4));
        assert!(check_points(&other, &summaries).is_err());
    }

    #[test]
    fn fingerprint_covers_every_completed_request() {
        let cfg = ServeConfig { requests: 300, ..obs_config(3) };
        let run = plain_run(&cfg);
        assert_eq!(fingerprint(&run), fingerprint(&plain_run(&cfg)));
        let mut moved = run.clone();
        let mid = run.completed.len() / 2;
        moved.completed[mid].done_ns += 1;
        assert_ne!(fingerprint(&run), fingerprint(&moved));
    }

    #[test]
    fn conservation_check_flags_lost_requests() {
        assert!(conserved(10, 7, 3).is_ok());
        assert!(conserved(10, 7, 2).is_err());
    }
}
