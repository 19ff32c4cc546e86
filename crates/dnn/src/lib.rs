//! # t2fsnn-dnn
//!
//! From-scratch CNN training substrate for the [T2FSNN (DAC 2020)]
//! reproduction.
//!
//! T2FSNN is a DNN→SNN *conversion* method: it needs a trained,
//! weight-normalized CNN as its input. This crate provides everything for
//! that pipeline with no external deep-learning dependency:
//!
//! * [`layers`] — conv / dense / ReLU / pool / flatten with analytic
//!   backward passes;
//! * [`Network`] — a named sequential container;
//! * [`Sgd`] / [`train`] — mini-batch SGD with momentum and weight decay;
//! * [`architectures`] — the scaled-VGG family (`conv1_1 … fc7` naming,
//!   matching the paper's Figure 5 labels);
//! * [`normalize_for_snn`] — the data-based normalization that bounds all
//!   activations to `[0, 1]`, which is what lets the paper fix `θ0 = 1`;
//! * [`Recipe`] — one value fixing a source network's dataset, split,
//!   architecture, seeds, training loop and normalization, and
//!   [`Recipe::fit`], the one driver that makes it.
//!
//! ## Quick example
//!
//! ```no_run
//! use rand::SeedableRng;
//! use t2fsnn_data::{DatasetSpec, SyntheticConfig};
//! use t2fsnn_dnn::{architectures, normalize_for_snn, train, TrainConfig};
//!
//! # fn main() -> Result<(), t2fsnn_tensor::TensorError> {
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
//! let data = SyntheticConfig::new(DatasetSpec::cifar10_like(), 1).generate(256);
//! let (train_set, test_set) = data.split(192);
//! let mut net = architectures::vgg_scaled(&mut rng, &data.spec, Default::default());
//! train(&mut net, &train_set, &TrainConfig::default(), &mut rng)?;
//! normalize_for_snn(&mut net, &train_set.images, 0.999)?;
//! # Ok(())
//! # }
//! ```
//!
//! [T2FSNN (DAC 2020)]: https://arxiv.org/abs/2003.11741

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod architectures;
pub mod layers;
mod network;
mod normalize;
mod optim;
mod recipe;
mod train;

pub use network::Network;
pub use normalize::{
    normalize_for_snn, visit_weighted_activations, weighted_layer_activations, NormalizationReport,
};
pub use optim::{Sgd, SgdConfig};
pub use recipe::{Fitted, Recipe};
pub use train::{evaluate, train, EpochReport, TrainConfig, TrainReport};
