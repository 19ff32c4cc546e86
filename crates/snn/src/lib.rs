//! # t2fsnn-snn
//!
//! Clock-driven spiking-neural-network simulator for the [T2FSNN (DAC
//! 2020)] reproduction.
//!
//! This crate is the substrate the paper's *comparison baselines* run on:
//!
//! * [`SnnNetwork`] — a trained DNN converted into weighted spiking ops
//!   with event-driven (sparsity-exploiting) propagation and exact synaptic
//!   operation counting;
//! * [`engine`] — the compiled [`OpPlan`] and the [`OpExecutor`] segment
//!   walk that carries each layer's fired events into the next layer's
//!   integrate-and-fire membranes (Eq. 2–4 of the paper), shared with the
//!   TTFS engine;
//! * [`coding`] — rate, phase (weighted spikes) and burst neural codings
//!   (Fig. 1), plus the reverse-coding (TDSNN-like) cost model of
//!   Table III;
//! * [`simulate`] — the engine producing accuracy-vs-time curves (Fig. 6),
//!   spike counts (Tables I–II) and operation counts (Table III);
//! * [`energy`] — the TrueNorth/SpiNNaker normalized energy estimator
//!   (Table II).
//!
//! The paper's own coding — TTFS with kernel-based dynamic threshold and
//! dendrite — lives in the `t2fsnn` core crate, built on the same
//! substrate.
//!
//! ## Quick example
//!
//! ```no_run
//! use rand::SeedableRng;
//! use t2fsnn_data::{DatasetSpec, SyntheticConfig};
//! use t2fsnn_dnn::{architectures, normalize_for_snn, train, TrainConfig};
//! use t2fsnn_snn::coding::RateCoding;
//! use t2fsnn_snn::{simulate, SimConfig, SnnNetwork};
//!
//! # fn main() -> Result<(), t2fsnn_tensor::TensorError> {
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
//! let data = SyntheticConfig::new(DatasetSpec::cifar10_like(), 1).generate(128);
//! let (train_set, test_set) = data.split(96);
//! let mut dnn = architectures::vgg_scaled(&mut rng, &data.spec, Default::default());
//! train(&mut dnn, &train_set, &TrainConfig::default(), &mut rng)?;
//! normalize_for_snn(&mut dnn, &train_set.images, 0.999)?;
//! let snn = SnnNetwork::from_dnn(&dnn)?;
//! let outcome = simulate(
//!     &snn,
//!     &mut RateCoding::new(),
//!     &test_set.images,
//!     &test_set.labels,
//!     &SimConfig::new(512, 64),
//! )?;
//! println!("rate coding: {:.1}% with {} spikes",
//!          outcome.final_accuracy * 100.0, outcome.total_spikes());
//! # Ok(())
//! # }
//! ```
//!
//! [T2FSNN (DAC 2020)]: https://arxiv.org/abs/2003.11741

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod coding;
pub mod energy;
pub mod engine;
mod network;
mod sim;

pub use engine::{OpExecutor, OpPlan, SimEngine};
pub use network::{SnnNetwork, SnnOp};
pub use sim::{argmax, simulate, simulate_on, CurvePoint, SimConfig, SimOutcome};
