//! Golden outputs for the serving paths no committed artifact pins.
//!
//! `SERVE_report.json` runs only join-shortest-queue on free dispatch,
//! and every `NET_report.json` point has no switches and no shedding.
//! Each case below folds every output field of one small run — each
//! completed request, the energy bits, the fabric totals and the
//! observability bytes — into one FNV-1a digest and compares it with a
//! recorded constant, so a change to any of these paths shows up as a
//! digest mismatch rather than passing a run-versus-itself check.

use inca_serve::{
    run_fleet_point, run_point, run_point_observed, ArrivalKind, BackendKind, CompletedRequest,
    DispatchPolicy, FleetConfig, FleetResult, FleetTopo, ModelMix, ObsConfig, RunResult, ServeConfig,
};
use inca_workloads::Model;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    fn u64(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }
}

fn fold_request(h: Fnv, c: &CompletedRequest) -> Fnv {
    [c.id, c.model_idx as u64, c.arrival_ns, c.done_ns, c.batch_size as u64, c.service_ns]
        .into_iter()
        .fold(h, Fnv::u64)
}

/// Every field of a [`RunResult`], destructured so a new field cannot be
/// left out silently.
fn fold_run(h: Fnv, run: &RunResult) -> Fnv {
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
    let h = completed.iter().fold(h.u64(completed.len() as u64), fold_request);
    let h = [
        *shed,
        *makespan_ns,
        energy_j.picojoules().to_bits(),
        *switches,
        *events,
        *queue_depth_sum,
        *max_queue_depth as u64,
        *offered,
    ]
    .into_iter()
    .fold(h, Fnv::u64);
    batch_hist.iter().copied().fold(h.u64(batch_hist.len() as u64), Fnv::u64)
}

/// The serving fields as [`fold_run`] orders them, then every fabric field.
fn fold_fleet(h: Fnv, r: &FleetResult) -> Fnv {
    let h = fold_run(h, &r.run);
    let n = r.net;
    let h = [n.flows_started, n.flows_completed, n.packets, n.bytes, n.drops, n.ecn_marks, n.retransmits]
        .into_iter()
        .fold(h, Fnv::u64);
    let h = r.tier_busy.iter().fold(h, |h, &(busy, links)| h.u64(busy).u64(links as u64));
    let h = r.max_link_util.iter().fold(h, |h, u| h.u64(u.to_bits()));
    match &r.util_series {
        Some(series) => h.u64(1).bytes(series.to_json().as_bytes()),
        None => h.u64(0),
    }
}

fn two_models() -> ModelMix {
    ModelMix { models: vec![Model::ResNet18, Model::MobileNetV2], weights: vec![2.0, 1.0] }
}

/// Three chips under the four-model serving mix: models ≥ chips, so
/// affinity homes are `model_idx % chips` and chip 0 serves two models.
fn ideal(policy: DispatchPolicy) -> ServeConfig {
    let mut cfg = ServeConfig::default_fleet(BackendKind::Inca, 2_000.0);
    cfg.chips = 3;
    cfg.policy = policy;
    cfg.requests = 400;
    cfg.seed = 11;
    cfg
}

/// 14 chips behind 2 dispatchers on a 16-host leaf-spine.
fn fabric(policy: DispatchPolicy) -> FleetConfig {
    let mut cfg = FleetConfig::default_fleet(BackendKind::Inca, 3_000.0);
    cfg.topo = FleetTopo::LeafSpine { leaves: 4, spines: 2, hosts_per_leaf: 4 };
    cfg.dispatchers = 2;
    cfg.policy = policy;
    cfg.mix = two_models();
    cfg.requests = 300;
    cfg.seed = 12;
    cfg
}

fn ideal_mmpp_capped() -> ServeConfig {
    let mut cfg = ideal(DispatchPolicy::JoinShortestQueue);
    cfg.backend = BackendKind::WsBaseline;
    cfg.arrivals = ArrivalKind::Mmpp { rate_hi: 50_000.0, rate_lo: 200.0, mean_dwell_s: 0.01 };
    cfg.queue_cap = 8;
    cfg.requests = 500;
    cfg
}

fn fabric_overload() -> FleetConfig {
    let mut cfg = fabric(DispatchPolicy::RoundRobin);
    cfg.backend = BackendKind::WsBaseline;
    cfg.arrivals = ArrivalKind::Poisson { rate_rps: 1e6 };
    cfg.queue_cap = 4;
    cfg.requests = 400;
    cfg
}

fn fabric_sampled() -> FleetConfig {
    let mut cfg = fabric(DispatchPolicy::JoinShortestQueue);
    cfg.util_sample_interval_ns = 1_000_000;
    cfg
}

fn observed() -> u64 {
    let mut cfg = ServeConfig::default_fleet(BackendKind::Inca, 0.0);
    cfg.arrivals = ArrivalKind::Mmpp { rate_hi: 400_000.0, rate_lo: 200.0, mean_dwell_s: 0.005 };
    cfg.queue_cap = 64;
    cfg.requests = 1_500;
    cfg.seed = 13;
    let (run, out) = run_point_observed(&cfg, &ObsConfig::full());
    fold_run(Fnv::new(), &run)
        .bytes(out.trace_json.as_deref().unwrap_or("").as_bytes())
        .bytes(out.timeseries_json().as_bytes())
        .0
}

fn digest(case: &str) -> u64 {
    let serve = |cfg: ServeConfig| fold_run(Fnv::new(), &run_point(&cfg)).0;
    let fleet = |cfg: FleetConfig| fold_fleet(Fnv::new(), &run_fleet_point(&cfg)).0;
    match case {
        "ideal_round_robin" => serve(ideal(DispatchPolicy::RoundRobin)),
        "ideal_jsq" => serve(ideal(DispatchPolicy::JoinShortestQueue)),
        "ideal_affinity" => serve(ideal(DispatchPolicy::ModelAffinity)),
        "fabric_round_robin" => fleet(fabric(DispatchPolicy::RoundRobin)),
        "fabric_jsq" => fleet(fabric(DispatchPolicy::JoinShortestQueue)),
        "fabric_affinity" => fleet(fabric(DispatchPolicy::ModelAffinity)),
        "ideal_mmpp_queue_cap_8" => serve(ideal_mmpp_capped()),
        "fabric_overload_queue_cap_4" => fleet(fabric_overload()),
        "fabric_util_sampled" => fleet(fabric_sampled()),
        "ideal_observed_full" => observed(),
        _ => unreachable!("unknown golden case {case}"),
    }
}

/// Digests recorded from the separate single-site and fleet loops that
/// preceded the one engine; a mismatch means that path's output changed.
const GOLDEN: [(&str, u64); 10] = [
    ("ideal_round_robin", 0x9321_1d6f_37af_8ebf),
    ("ideal_jsq", 0xcfd4_3614_f875_7c17),
    ("ideal_affinity", 0x3d79_4d86_0601_9d3e),
    ("fabric_round_robin", 0xcd2a_dcea_c2e8_bc8c),
    ("fabric_jsq", 0xff40_4553_da6a_fac7),
    ("fabric_affinity", 0xd8d6_6238_19a1_a72e),
    ("ideal_mmpp_queue_cap_8", 0x42e5_1328_742f_428c),
    ("fabric_overload_queue_cap_4", 0xcfe1_ae15_a151_d851),
    ("fabric_util_sampled", 0xaa38_0794_26f9_d2e1),
    ("ideal_observed_full", 0x4a7e_6511_9c77_c402),
];

#[test]
fn every_path_matches_its_golden_digest() {
    let mismatches: Vec<String> = GOLDEN
        .iter()
        .filter_map(|&(case, want)| {
            let got = digest(case);
            (got != want).then(|| format!("    (\"{case}\", {got:#018x}), // recorded {want:#018x}"))
        })
        .collect();
    assert!(mismatches.is_empty(), "golden digests differ:\n{}", mismatches.join("\n"));
}

/// The golden cases exercise what they claim to: switches and shedding
/// on both transports, weight flows on the fabric, a sampled series.
#[test]
fn golden_cases_cover_their_paths() {
    let rr = run_point(&ideal(DispatchPolicy::RoundRobin));
    assert!(rr.switches > 0, "round-robin over four models must switch");
    let capped = run_point(&ideal_mmpp_capped());
    assert!(capped.shed > 0, "MMPP bursts must overflow a queue cap of 8");
    let over = run_fleet_point(&fabric_overload());
    assert!(over.run.shed > 0 && over.run.switches > 0, "overload must shed and pull weights");
    assert_eq!(over.net.flows_completed, 2 * over.run.completed.len() as u64 + over.run.switches);
    let sampled = run_fleet_point(&fabric_sampled());
    assert!(sampled.util_series.as_ref().is_some_and(|s| !s.is_empty()));
}
