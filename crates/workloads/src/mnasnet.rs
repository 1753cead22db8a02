//! MNasNet-B1 (Tan et al., depth multiplier 1.0) layer specification —
//! the second "light model" (§V-B4).

use crate::{LayerSpec, ModelBuilder};

/// Inverted-residual stacks: (kernel k, expansion e, output c, repeats n,
/// first-block stride s) — the torchvision `mnasnet1_0` plan.
const STACKS: [(usize, usize, usize, usize, usize); 6] = [
    (3, 3, 24, 3, 2),
    (5, 3, 40, 3, 2),
    (5, 6, 80, 3, 2),
    (3, 6, 96, 2, 1),
    (5, 6, 192, 4, 2),
    (3, 6, 320, 1, 1),
];

fn inverted_residual(b: &mut ModelBuilder, k: usize, e: usize, out: usize, stride: usize) {
    let (cin, _, _) = b.shape();
    let hidden = cin * e;
    b.pointwise_mut(hidden).bn_mut().relu_mut();
    b.depthwise_mut(k, stride, k / 2).bn_mut().relu_mut();
    b.pointwise_mut(out).bn_mut();
    if stride == 1 && cin == out {
        b.residual_add_mut();
    }
}

/// MNasNet-B1 at depth multiplier 1.0.
#[must_use]
pub(crate) fn mnasnet_b1(input: usize) -> Vec<LayerSpec> {
    let mut b = ModelBuilder::new(3, input, input);
    // Stem.
    b.conv_mut(32, 3, 2, 1, false).bn_mut().relu_mut();
    // Depthwise-separable first stage (32 -> 16).
    b.depthwise_mut(3, 1, 1).bn_mut().relu_mut();
    b.pointwise_mut(16).bn_mut();
    // Inverted-residual stacks.
    for &(k, e, c, n, s) in &STACKS {
        for block in 0..n {
            inverted_residual(&mut b, k, e, c, if block == 0 { s } else { 1 });
        }
    }
    // Head.
    b.pointwise_mut(1280).bn_mut().relu_mut();
    b.global_avg_pool_mut().linear_mut(1000, true);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LayerKind;

    impl LayerSpec {
        /// Kernel side length for conv layers (0 otherwise).
        fn kernel(&self) -> usize {
            match self.kind {
                LayerKind::Conv { k, .. } => k,
                _ => 0,
            }
        }
    }

    #[test]
    fn exact_param_count() {
        let params: u64 = mnasnet_b1(224).iter().map(|l| l.param_count()).sum();
        assert_eq!(params, 4_383_312); // torchvision mnasnet1_0
    }

    #[test]
    fn five_by_five_depthwise_present() {
        let layers = mnasnet_b1(224);
        let has_5x5 = layers.iter().any(|l| l.is_depthwise() && l.kernel() == 5);
        assert!(has_5x5, "MNasNet uses 5x5 depthwise kernels");
    }

    #[test]
    fn spatial_flow_ends_at_7x7x1280() {
        let layers = mnasnet_b1(224);
        let gap = layers.iter().find(|l| matches!(l.kind, crate::LayerKind::GlobalAvgPool)).unwrap();
        assert_eq!((gap.cin, gap.h, gap.w), (1280, 7, 7));
    }

    #[test]
    fn depthwise_block_count() {
        let layers = mnasnet_b1(224);
        // 1 separable stem + 16 inverted-residual blocks.
        assert_eq!(layers.iter().filter(|l| l.is_depthwise()).count(), 17);
    }

    #[test]
    fn residual_add_count() {
        let layers = mnasnet_b1(224);
        // Within-stack repeats with stride 1 and matching channels:
        // 2 + 2 + 2 + 1 + 3 + 0 = 10.
        let adds = layers.iter().filter(|l| matches!(l.kind, crate::LayerKind::ResidualAdd)).count();
        assert_eq!(adds, 10);
    }
}
