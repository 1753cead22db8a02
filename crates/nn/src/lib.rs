//! A minimal, dependency-light DNN training framework.
//!
//! The INCA paper's accuracy studies (Table I: quantization bit-depth
//! sweeps; Table VI: training under weight-vs-activation noise) require an
//! actual trainable network. This crate provides exactly that substrate:
//!
//! * [`Tensor`] — a dense row-major f32 tensor with NCHW conventions,
//! * [`layers`] — convolution, fully-connected, max pooling, flatten and
//!   ReLU layers, each with a full backward pass
//!   (Eqs 1–4 of the paper),
//! * [`Loss`] — the L² loss the paper describes and softmax cross-entropy,
//! * [`Sgd`] — the "hardware-friendly" vanilla gradient-descent optimizer,
//! * [`QuantConfig`] — uniform fake-quantization of weights/activations,
//! * [`NoiseInjection`] — the Table VI protocol: zero-centered Gaussian
//!   noise of strength σ applied to weights or activations during training,
//! * [`SyntheticDataset`] — a procedurally generated 10-class image task
//!   substituting for ImageNet (see DESIGN.md, substitutions),
//! * [`Network`] / [`Trainer`] — a sequential container and training loop.
//!
//! # Examples
//!
//! ```
//! use inca_nn::{layers, Loss, Network, SyntheticDataset, Trainer, TrainConfig};
//!
//! let dataset = SyntheticDataset::generate(128, 8, 4, 42);
//! let mut net = Network::new();
//! net.push(layers::Conv2d::new(1, 4, 3, 1, 1, 7));
//! net.push(layers::Relu::new());
//! net.push(layers::MaxPool2d::new(2, 2));
//! net.push(layers::Flatten::new());
//! net.push(layers::Linear::new(4 * 4 * 4, 4, 8));
//! let mut trainer = Trainer::new(TrainConfig { epochs: 1, lr: 0.05, batch_size: 16, ..TrainConfig::default() });
//! let stats = trainer.fit(&mut net, &dataset, Loss::CrossEntropy);
//! assert!(stats.final_train_accuracy > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod data;
mod error;
pub mod layers;
mod loss;
mod network;
mod noise;
mod optim;
mod quantize;
mod tensor;
mod train;

pub use data::SyntheticDataset;
pub use error::NnError;
pub use layers::Layer;
pub use loss::Loss;
pub use network::Network;
pub use noise::{NoiseInjection, NoiseTarget};
pub use optim::Sgd;
pub use quantize::QuantConfig;
pub use tensor::Tensor;
pub use train::{TrainConfig, TrainStats, Trainer};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, NnError>;
