//! Property-based tests on workload-spec invariants.

use inca_workloads::{LayerKind, Model, ModelBuilder};
use proptest::prelude::*;

/// Shape consistency: every layer's input shape equals the previous
/// *main-path* layer's output shape — except after residual side branches,
/// which restore an earlier checkpoint. We verify the weaker global
/// invariant that holds for all our linearized models: every layer's input
/// shape appeared as some earlier layer's output shape (or the model
/// input).
#[test]
fn layer_shapes_chain() {
    for model in Model::paper_suite() {
        let spec = model.spec();
        let mut seen: Vec<(usize, usize, usize)> = vec![(3, 224, 224)];
        for layer in spec.layers() {
            let input = (layer.cin, layer.h, layer.w);
            assert!(
                seen.contains(&input),
                "{model}: layer input {input:?} never produced (kind {:?})",
                layer.kind
            );
            seen.push((layer.cout, layer.oh, layer.ow));
        }
    }
}

#[test]
fn every_model_ends_in_a_1000_way_classifier() {
    for model in Model::paper_suite() {
        let spec = model.spec();
        let last = spec.layers().last().unwrap();
        assert!(matches!(last.kind, LayerKind::Linear { .. }), "{model}");
        assert_eq!(last.cout, 1000, "{model}");
    }
}

#[test]
fn macs_exceed_params_for_conv_nets() {
    // Convolutions reuse weights spatially, so MACs >> params for every
    // ImageNet model.
    for model in Model::paper_suite() {
        let spec = model.spec();
        assert!(spec.total_macs() > spec.param_count(), "{model}");
    }
}

proptest! {
    /// Param counts are additive over layers.
    #[test]
    fn params_additive(c1 in 1usize..8, c2 in 1usize..8) {
        let layers = ModelBuilder::new(3, 16, 16)
            .conv(c1, 3, 1, 1, true)
            .conv(c2, 3, 1, 1, true)
            .finish();
        let total: u64 = layers.iter().map(|l| l.param_count()).sum();
        let expected = (9 * 3 * c1 + c1) as u64 + (9 * c1 * c2 + c2) as u64;
        prop_assert_eq!(total, expected);
    }

    /// Activation input sums are invariant under appending non-weighted
    /// layers.
    #[test]
    fn activations_ignore_stateless_layers(c in 1usize..8) {
        let base = ModelBuilder::new(3, 8, 8).conv(c, 3, 1, 1, false).finish();
        let with_relu = ModelBuilder::new(3, 8, 8).conv(c, 3, 1, 1, false).relu().finish();
        let sum = |ls: &[inca_workloads::LayerSpec]| -> u64 {
            ls.iter().filter(|l| l.is_weighted()).map(|l| l.input_elems()).sum()
        };
        prop_assert_eq!(sum(&base), sum(&with_relu));
    }
}
