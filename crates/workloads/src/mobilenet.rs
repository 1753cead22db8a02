//! MobileNetV2 (Sandler et al.) layer specification — the first of the two
//! "light models" (§V-B4).

use crate::{LayerSpec, ModelBuilder};

/// The inverted-residual plan: (expansion t, output channels c, repeats n,
/// first-block stride s).
const PLAN: [(usize, usize, usize, usize); 7] = [
    (1, 16, 1, 1),
    (6, 24, 2, 2),
    (6, 32, 3, 2),
    (6, 64, 4, 2),
    (6, 96, 3, 1),
    (6, 160, 3, 2),
    (6, 320, 1, 1),
];

fn inverted_residual(b: &mut ModelBuilder, t: usize, out: usize, stride: usize) {
    let (cin, _, _) = b.shape();
    let hidden = cin * t;
    if t != 1 {
        b.pointwise_mut(hidden).bn_mut().relu_mut(); // expand + ReLU6
    }
    b.depthwise_mut(3, stride, 1).bn_mut().relu_mut();
    b.pointwise_mut(out).bn_mut(); // linear projection
    if stride == 1 && cin == out {
        b.residual_add_mut();
    }
}

/// MobileNetV2 at width multiplier 1.0.
#[must_use]
pub(crate) fn mobilenet_v2(input: usize) -> Vec<LayerSpec> {
    let mut b = ModelBuilder::new(3, input, input);
    b.conv_mut(32, 3, 2, 1, false).bn_mut().relu_mut();
    for &(t, c, n, s) in &PLAN {
        for block in 0..n {
            inverted_residual(&mut b, t, c, if block == 0 { s } else { 1 });
        }
    }
    b.pointwise_mut(1280).bn_mut().relu_mut();
    b.global_avg_pool_mut().linear_mut(1000, true);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_param_count() {
        let params: u64 = mobilenet_v2(224).iter().map(|l| l.param_count()).sum();
        assert_eq!(params, 3_504_872); // torchvision mobilenet_v2
    }

    #[test]
    fn depthwise_and_pointwise_present() {
        let layers = mobilenet_v2(224);
        let dw = layers.iter().filter(|l| l.is_depthwise()).count();
        let pw = layers.iter().filter(|l| l.is_pointwise()).count();
        assert_eq!(dw, 17); // one per inverted-residual block
        assert!(pw >= 33); // expand + project per block (minus t=1 expands) + head
    }

    #[test]
    fn spatial_flow_ends_at_7x7x1280() {
        let layers = mobilenet_v2(224);
        let gap = layers.iter().find(|l| matches!(l.kind, crate::LayerKind::GlobalAvgPool)).unwrap();
        assert_eq!((gap.cin, gap.h, gap.w), (1280, 7, 7));
    }

    #[test]
    fn residual_adds_only_on_matching_blocks() {
        let layers = mobilenet_v2(224);
        let adds = layers.iter().filter(|l| matches!(l.kind, crate::LayerKind::ResidualAdd)).count();
        // Blocks with stride 1 and cin == cout: 1+2+3+2+2+0 = 10.
        assert_eq!(adds, 10);
    }

    #[test]
    fn macs_near_published_value() {
        // MobileNetV2 is ~300 MMACs.
        let macs: u64 = mobilenet_v2(224).iter().map(|l| l.macs()).sum();
        let m = macs as f64 / 1e6;
        assert!((m - 300.0).abs() < 40.0, "got {m} MMACs");
    }
}
