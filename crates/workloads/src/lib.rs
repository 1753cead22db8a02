//! Workload model zoo: layer-by-layer specifications of the six networks
//! the paper evaluates (§V-A) — VGG16, VGG19, ResNet18, ResNet50,
//! MobileNetV2 and MNasNet — at ImageNet resolution, plus CIFAR-10 variants
//! for the Fig 6 energy-breakdown study.
//!
//! These specs are *shape descriptions*, not trainable networks: the
//! analytical simulator consumes kernel/feature-map dimensions, parameter
//! counts, MAC counts and activation sizes. Fidelity matters because the
//! paper's Table IV decomposes exactly into `weights` and `activation
//! inputs` of these models — our specs reproduce torchvision parameter
//! counts (VGG16: 138.36 M, ResNet18: 11.69 M, MobileNetV2: 3.50 M, …).
//!
//! # Examples
//!
//! ```
//! use inca_workloads::Model;
//!
//! let vgg = Model::Vgg16.spec();
//! // Table IV: VGG16 weights occupy 131.94 MiB at 8 bits.
//! let mib = vgg.param_count() as f64 / (1u64 << 20) as f64;
//! assert!((mib - 131.94).abs() < 0.3, "got {mib}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod layer;
mod mnasnet;
mod mobilenet;
mod model;
mod resnet;
mod vgg;

pub use builder::ModelBuilder;
pub use layer::{LayerKind, LayerSpec, PoolKind};
pub use model::{Model, ModelSpec};
