//! The fleet sweep's headline guarantee: `NET_report.json` is a pure
//! function of the sweep configuration. Neither the worker count (an
//! execution knob) nor the stored order of equal-cost ECMP paths (an
//! implementation accident rank-select routing is designed to hide) may
//! change a single byte of the report.

use inca_serve::{FleetSweepConfig, FleetTopo, ModelMix};
use inca_workloads::Model;
use proptest::prelude::*;

/// A sweep small enough to run many times under proptest but big enough
/// to exercise congestion, batching, and both backends.
fn tiny_sweep(seed: u64) -> FleetSweepConfig {
    FleetSweepConfig {
        topo: FleetTopo::LeafSpine { leaves: 4, spines: 2, hosts_per_leaf: 4 },
        dispatchers: 2,
        requests_per_point: 200,
        ws_grid: vec![0.3, 1.0],
        inca_grid: vec![0.8],
        mix: ModelMix { models: vec![Model::ResNet18, Model::MobileNetV2], weights: vec![2.0, 1.0] },
        seed,
        ..FleetSweepConfig::quick()
    }
}

fn report_bytes(cfg: &FleetSweepConfig) -> String {
    inca_serve::run_fleet_sweep(cfg).to_pretty_json()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// `workers` is purely an execution knob: the sequential path, a
    /// deliberately odd pool, and the host-sized default must all emit
    /// byte-identical reports.
    #[test]
    fn report_bytes_survive_any_worker_count(seed in 0u64..1_000_000) {
        let mut cfg = tiny_sweep(seed);
        cfg.workers = 1;
        let sequential = report_bytes(&cfg);
        for workers in [0usize, 2, 3, 5] {
            cfg.workers = workers;
            prop_assert_eq!(
                &sequential,
                &report_bytes(&cfg),
                "workers={} changed the report bytes",
                workers
            );
        }
    }

    /// Rank-select ECMP keys only on stable link ids, so permuting the
    /// *storage order* of equal-cost candidates — any permutation — must
    /// leave the report byte-identical.
    #[test]
    fn report_bytes_survive_ecmp_storage_permutation(
        seed in 0u64..1_000_000,
        permute in any::<u64>(),
    ) {
        let mut cfg = tiny_sweep(seed);
        cfg.workers = 1;
        let baseline = report_bytes(&cfg);
        cfg.ecmp_permute_seed = Some(permute);
        prop_assert_eq!(
            &baseline,
            &report_bytes(&cfg),
            "ECMP storage permutation (seed {}) changed the report bytes",
            permute
        );
    }
}

/// Fat-tree variant of the permutation invariance, where equal-cost
/// fan-out is widest (uplinks toward 16 cores), pinned as a plain test
/// so it always runs on the paper topology shape.
#[test]
fn fat_tree_report_survives_permutation_and_workers() {
    let mut cfg = tiny_sweep(2026);
    cfg.topo = FleetTopo::FatTree { k: 4, hosts_per_edge: 3 };
    cfg.dispatchers = 4;
    cfg.workers = 1;
    let baseline = report_bytes(&cfg);
    cfg.workers = 0;
    cfg.ecmp_permute_seed = Some(0xD15C0);
    assert_eq!(baseline, report_bytes(&cfg));
}
