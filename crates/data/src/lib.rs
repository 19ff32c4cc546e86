//! # t2fsnn-data
//!
//! Synthetic dataset substrate for the [T2FSNN (DAC 2020)] reproduction.
//!
//! The paper evaluates on MNIST, CIFAR-10 and CIFAR-100. Those datasets are
//! not available in this environment, so this crate provides *procedural
//! substitutes* with identical tensor shapes and class counts
//! ([`DatasetSpec::mnist_like`], [`DatasetSpec::cifar10_like`],
//! [`DatasetSpec::cifar100_like`]): each class is a deterministic pattern
//! prototype and each sample a jittered, noisy rendering of it (see
//! [`SyntheticConfig`]). The README's *Datasets and scaled networks*
//! section explains why this substitution preserves the behaviour under
//! study.
//!
//! ## Quick example
//!
//! ```
//! use t2fsnn_data::{DatasetSpec, SyntheticConfig};
//!
//! let ds = SyntheticConfig::new(DatasetSpec::mnist_like(), 42).generate(100);
//! let (train, test) = ds.split(80);
//! assert_eq!(train.len(), 80);
//! for (images, labels) in train.batches(16) {
//!     assert_eq!(images.dims()[0], labels.len());
//! }
//! ```
//!
//! [T2FSNN (DAC 2020)]: https://arxiv.org/abs/2003.11741

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod spec;
mod stats;
mod synthetic;

pub use spec::DatasetSpec;
pub use stats::DatasetStats;
pub use synthetic::{Batches, Dataset, SyntheticConfig};
