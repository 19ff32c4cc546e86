//! # t2fsnn
//!
//! A from-scratch Rust reproduction of **"T2FSNN: Deep Spiking Neural
//! Networks with Time-to-first-spike Coding"** (Park, Kim, Na, Yoon — DAC
//! 2020, [arXiv:2003.11741]).
//!
//! T2FSNN converts a trained CNN into a deep spiking network in which
//! **every neuron fires at most once** and the *timing* of that single
//! spike carries the activation value. The pieces, mapped to the paper:
//!
//! | Paper concept | Here |
//! |---|---|
//! | Exponential kernel `ε(t) = exp(-(t-t_d)/τ)` (Eq. 5) | [`kernel::ExpKernel`] |
//! | Dynamic threshold `θ(t) = θ0·ε(t)` + TTFS encoding (Eq. 6–7) | [`kernel::ExpKernel::encode`] |
//! | Dendrite decoding (Eq. 8) | [`kernel::ExpKernel::decode`], applied by the engine |
//! | Two-phase layer pipeline (Fig. 3) | [`T2fsnn::run`] |
//! | Gradient-based kernel optimization (Eq. 9–14) | [`optimize`] |
//! | Early firing (Sec. III-C) | [`T2fsnnConfig::with_early_firing`] |
//! | Ablation / comparison / energy (Tables I–II) | [`eval`] |
//! | Computational cost (Table III) | [`cost`] |
//!
//! The substrates live in sibling crates: `t2fsnn-tensor` (numerics),
//! `t2fsnn-data` (synthetic datasets), `t2fsnn-dnn` (CNN training and the
//! data-based normalization that lets the paper fix θ0 = 1), and
//! `t2fsnn-snn` (the clock-driven simulator plus the rate/phase/burst
//! baselines).
//!
//! The experiments' inputs live here too: [`scenario`] defines one
//! scenario per evaluated dataset (synthetic data, scaled architecture,
//! training recipe, time window) and caches each trained, normalized
//! network on disk in the checksummed binary format of [`binfmt`]. The
//! reproduction binaries and the server both load models through it.
//!
//! ## Quickstart
//!
//! ```no_run
//! use rand::SeedableRng;
//! use t2fsnn::{KernelParams, T2fsnn, T2fsnnConfig};
//! use t2fsnn_data::{DatasetSpec, SyntheticConfig};
//! use t2fsnn_dnn::{architectures, normalize_for_snn, train, TrainConfig};
//!
//! # fn main() -> Result<(), t2fsnn_tensor::TensorError> {
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
//!
//! // 1. Train a CNN on a CIFAR-10-shaped synthetic dataset.
//! let data = SyntheticConfig::new(DatasetSpec::cifar10_like(), 1).generate(512);
//! let (train_set, test_set) = data.split(384);
//! let mut dnn = architectures::vgg_scaled(&mut rng, &data.spec, Default::default());
//! train(&mut dnn, &train_set, &TrainConfig::default(), &mut rng)?;
//!
//! // 2. Normalize activations into [0, 1] (θ0 = 1) and convert.
//! normalize_for_snn(&mut dnn, &train_set.images, 0.999)?;
//! let model = T2fsnn::from_dnn(
//!     &dnn,
//!     T2fsnnConfig::new(64).with_early_firing(),
//!     KernelParams::default(),
//! )?;
//!
//! // 3. Spiking inference: at most one spike per neuron.
//! let run = model.run(&test_set.images, &test_set.labels)?;
//! println!(
//!     "accuracy {:.1}%  latency {} steps  {:.0} spikes/image",
//!     run.accuracy * 100.0, run.latency, run.spikes_per_image(),
//! );
//! # Ok(())
//! # }
//! ```
//!
//! [arXiv:2003.11741]: https://arxiv.org/abs/2003.11741

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod binfmt;
pub mod cost;
pub mod eval;
mod infer;
pub mod kernel;
mod network;
pub mod optimize;
mod pipeline;
pub mod scenario;

pub use infer::{ImageInference, InferOptions};
pub use kernel::{ExpKernel, KernelParams, KernelTable};
pub use network::{NoiseConfig, T2fsnn, T2fsnnConfig};
pub use pipeline::{LayerSpikes, TtfsRun};
