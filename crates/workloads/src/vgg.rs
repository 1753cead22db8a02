//! VGG-16 and VGG-19 (Simonyan & Zisserman) layer specifications.

use crate::{LayerSpec, ModelBuilder};

/// The per-stage channel plan shared by VGG-16 and VGG-19.
const STAGES: [usize; 5] = [64, 128, 256, 512, 512];

fn vgg(input: usize, convs_per_stage: [usize; 5], classifier: bool) -> Vec<LayerSpec> {
    let mut b = ModelBuilder::new(3, input, input);
    for (stage, &channels) in STAGES.iter().enumerate() {
        for _ in 0..convs_per_stage[stage] {
            b.conv_mut(channels, 3, 1, 1, true).relu_mut();
        }
        b.pool_mut(crate::PoolKind::Max, 2, 2);
    }
    if classifier {
        b.linear_mut(4096, true).relu_mut();
        b.linear_mut(4096, true).relu_mut();
        b.linear_mut(1000, true);
    } else {
        // CIFAR-10 head: single FC from the 1x1 feature map.
        b.linear_mut(10, true);
    }
    b.finish()
}

/// VGG-16: stage plan 2-2-3-3-3, ImageNet classifier head.
#[must_use]
pub(crate) fn vgg16(input: usize) -> Vec<LayerSpec> {
    vgg(input, [2, 2, 3, 3, 3], true)
}

/// VGG-19: stage plan 2-2-4-4-4, ImageNet classifier head.
#[must_use]
pub(crate) fn vgg19(input: usize) -> Vec<LayerSpec> {
    vgg(input, [2, 2, 4, 4, 4], true)
}

/// VGG-16 adapted to CIFAR-10 (32 × 32 input, compact head) — the Fig 6
/// workload.
#[must_use]
pub(crate) fn vgg16_cifar() -> Vec<LayerSpec> {
    vgg(32, [2, 2, 3, 3, 3], false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vgg16_has_13_convs_3_fcs() {
        let layers = vgg16(224);
        let convs = layers.iter().filter(|l| l.is_conv()).count();
        let fcs = layers.iter().filter(|l| l.is_linear()).count();
        assert_eq!(convs, 13);
        assert_eq!(fcs, 3);
    }

    #[test]
    fn vgg19_has_16_convs() {
        assert_eq!(vgg19(224).iter().filter(|l| l.is_conv()).count(), 16);
    }

    #[test]
    fn vgg16_exact_param_count() {
        let params: u64 = vgg16(224).iter().map(|l| l.param_count()).sum();
        assert_eq!(params, 138_357_544); // torchvision vgg16
    }

    #[test]
    fn vgg19_exact_param_count() {
        let params: u64 = vgg19(224).iter().map(|l| l.param_count()).sum();
        assert_eq!(params, 143_667_240); // torchvision vgg19
    }

    #[test]
    fn vgg16_activation_input_sum_exact() {
        // Hand-derived in DESIGN.md: 9,115,136 elements = 8.693 MiB.
        let sum: u64 = vgg16(224).iter().filter(|l| l.is_weighted()).map(|l| l.input_elems()).sum();
        assert_eq!(sum, 9_115_136);
    }

    #[test]
    fn final_feature_map_is_7x7x512() {
        let layers = vgg16(224);
        let first_fc = layers.iter().find(|l| l.is_linear()).unwrap();
        assert_eq!((first_fc.cin, first_fc.h, first_fc.w), (512, 7, 7));
    }

    #[test]
    fn cifar_variant_spatial_flow() {
        let layers = vgg16_cifar();
        let first_fc = layers.iter().find(|l| l.is_linear()).unwrap();
        assert_eq!((first_fc.cin, first_fc.h, first_fc.w), (512, 1, 1));
    }
}
