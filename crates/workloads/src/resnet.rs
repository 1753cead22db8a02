//! ResNet-18 and ResNet-50 (He et al.) layer specifications.
//!
//! Residual branches are linearized: each block lists its main-path convs
//! followed by the downsample conv (emitted against the block's true input
//! shape via [`ModelBuilder::restore`]) and a `ResidualAdd` marker.

use crate::{LayerSpec, ModelBuilder, PoolKind};

/// A BasicBlock (two 3 × 3 convs) with optional downsample.
fn basic_block(b: &mut ModelBuilder, out: usize, stride: usize) {
    let input = b.shape();
    b.conv_mut(out, 3, stride, 1, false).bn_mut().relu_mut();
    b.conv_mut(out, 3, 1, 1, false).bn_mut();
    if stride != 1 || input.0 != out {
        let main = b.shape();
        b.restore(input).conv_mut(out, 1, stride, 0, false).bn_mut();
        debug_assert_eq!(b.shape(), main);
    }
    b.residual_add_mut().relu_mut();
}

/// A Bottleneck block (1 × 1 reduce, 3 × 3, 1 × 1 expand ×4).
fn bottleneck_block(b: &mut ModelBuilder, width: usize, stride: usize) {
    let out = width * 4;
    let input = b.shape();
    b.pointwise_mut(width).bn_mut().relu_mut();
    b.conv_mut(width, 3, stride, 1, false).bn_mut().relu_mut();
    b.pointwise_mut(out).bn_mut();
    if stride != 1 || input.0 != out {
        let main = b.shape();
        b.restore(input).conv_mut(out, 1, stride, 0, false).bn_mut();
        debug_assert_eq!(b.shape(), main);
    }
    b.residual_add_mut().relu_mut();
}

fn stem(b: &mut ModelBuilder) {
    b.conv_mut(64, 7, 2, 3, false).bn_mut().relu_mut();
    // torchvision uses a padded 3x3/2 max pool (112 -> 56); a 2x2/2 pool
    // yields the identical output size without needing pool padding.
    b.pool_mut(PoolKind::Max, 2, 2);
}

/// ResNet-18: BasicBlocks, stage plan [2, 2, 2, 2].
#[must_use]
pub(crate) fn resnet18(input: usize) -> Vec<LayerSpec> {
    let mut b = ModelBuilder::new(3, input, input);
    stem(&mut b);
    for (stage, &(out, blocks)) in [(64, 2), (128, 2), (256, 2), (512, 2)].iter().enumerate() {
        for block in 0..blocks {
            let stride = if stage > 0 && block == 0 { 2 } else { 1 };
            basic_block(&mut b, out, stride);
        }
    }
    b.global_avg_pool_mut().linear_mut(1000, true);
    b.finish()
}

/// ResNet-50: Bottlenecks, stage plan [3, 4, 6, 3].
#[must_use]
pub(crate) fn resnet50(input: usize) -> Vec<LayerSpec> {
    let mut b = ModelBuilder::new(3, input, input);
    stem(&mut b);
    for (stage, &(width, blocks)) in [(64, 3), (128, 4), (256, 6), (512, 3)].iter().enumerate() {
        for block in 0..blocks {
            let stride = if stage > 0 && block == 0 { 2 } else { 1 };
            bottleneck_block(&mut b, width, stride);
        }
    }
    b.global_avg_pool_mut().linear_mut(1000, true);
    b.finish()
}

/// ResNet-18 adapted to CIFAR-10: 3 × 3 stem without pooling, 10-way head
/// — the Fig 6 workload.
#[must_use]
pub(crate) fn resnet18_cifar() -> Vec<LayerSpec> {
    let mut b = ModelBuilder::new(3, 32, 32);
    b.conv_mut(64, 3, 1, 1, false).bn_mut().relu_mut();
    for (stage, &(out, blocks)) in [(64, 2), (128, 2), (256, 2), (512, 2)].iter().enumerate() {
        for block in 0..blocks {
            let stride = if stage > 0 && block == 0 { 2 } else { 1 };
            basic_block(&mut b, out, stride);
        }
    }
    b.global_avg_pool_mut().linear_mut(10, true);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet18_exact_param_count() {
        let params: u64 = resnet18(224).iter().map(|l| l.param_count()).sum();
        assert_eq!(params, 11_689_512); // torchvision resnet18
    }

    #[test]
    fn resnet50_exact_param_count() {
        let params: u64 = resnet50(224).iter().map(|l| l.param_count()).sum();
        assert_eq!(params, 25_557_032); // torchvision resnet50
    }

    #[test]
    fn resnet18_conv_count() {
        // 1 stem + 16 block convs + 3 downsamples = 20.
        assert_eq!(resnet18(224).iter().filter(|l| l.is_conv()).count(), 20);
    }

    #[test]
    fn resnet50_conv_count() {
        // 1 stem + 48 block convs + 4 downsamples = 53.
        assert_eq!(resnet50(224).iter().filter(|l| l.is_conv()).count(), 53);
    }

    #[test]
    fn resnet18_activation_input_sum_exact() {
        // Hand-derived in DESIGN.md: 2,183,168 elements = 2.082 MiB.
        let sum: u64 = resnet18(224).iter().filter(|l| l.is_weighted()).map(|l| l.input_elems()).sum();
        assert_eq!(sum, 2_183_168);
    }

    #[test]
    fn spatial_flow_ends_at_7x7() {
        let layers = resnet18(224);
        let gap = layers.iter().find(|l| matches!(l.kind, crate::LayerKind::GlobalAvgPool)).unwrap();
        assert_eq!((gap.cin, gap.h, gap.w), (512, 7, 7));
        let gap50 = resnet50(224);
        let gap50 = gap50.iter().find(|l| matches!(l.kind, crate::LayerKind::GlobalAvgPool)).unwrap();
        assert_eq!((gap50.cin, gap50.h, gap50.w), (2048, 7, 7));
    }

    #[test]
    fn downsample_convs_have_block_input_shapes() {
        let layers = resnet18(224);
        // The first downsample is the 64 -> 128 1x1 stride-2 conv with a
        // 56x56 input.
        let ds =
            layers.iter().find(|l| matches!(l.kind, crate::LayerKind::Conv { k: 1, stride: 2, .. })).unwrap();
        assert_eq!((ds.cin, ds.h, ds.cout, ds.oh), (64, 56, 128, 28));
    }

    #[test]
    fn cifar_variant_keeps_32x32_in_stage1() {
        let layers = resnet18_cifar();
        assert_eq!(layers[0].oh, 32);
        let gap = layers.iter().find(|l| matches!(l.kind, crate::LayerKind::GlobalAvgPool)).unwrap();
        assert_eq!((gap.cin, gap.h), (512, 4));
    }
}
