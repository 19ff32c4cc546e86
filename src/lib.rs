//! Workspace umbrella crate for the T2FSNN reproduction (Park et al.,
//! DAC 2020: *T2FSNN: Deep Spiking Neural Networks with
//! Time-to-first-spike Coding*).
//!
//! This crate holds no logic of its own; it anchors the cross-crate
//! integration tests in `tests/` and the runnable walkthroughs in
//! `examples/`, and re-exports the six workspace crates under one roof
//! for convenience:
//!
//! ```
//! use t2fsnn_workspace::tensor::Tensor;
//!
//! let t = Tensor::zeros([2, 3]);
//! assert_eq!(t.numel(), 6);
//! ```
//!
//! Crate DAG (each layer may depend on the ones above it):
//!
//! ```text
//! t2fsnn-tensor          dense tensors, conv/matmul/pool ops
//!   └─ t2fsnn-data       synthetic datasets, stats
//!        └─ t2fsnn-dnn   layers, training, SNN-oriented normalization
//!             └─ t2fsnn-snn   IF neurons, codings, event-driven sim
//!                  └─ t2fsnn      TTFS kernels, conversion, evaluation,
//!                       │         scenarios and their `T2FB` cache
//!                       ├─ t2fsnn-bench  repro_* binaries, benches
//!                       └─ t2fsnn-serve  HTTP serving, model registry, serve_load
//! ```
//!
//! `t2fsnn-bench` and `t2fsnn-serve` are siblings: neither depends on
//! the other (`serve_load`, a `t2fsnn-serve` binary, drives the server
//! over HTTP and runs `repro_fig6` as a child process).

/// Dense tensor substrate.
pub use t2fsnn_tensor as tensor;

/// Synthetic dataset generation and statistics.
pub use t2fsnn_data as data;

/// DNN layers, training, and normalization.
pub use t2fsnn_dnn as dnn;

/// Spiking substrate: neurons, codings, simulation.
pub use t2fsnn_snn as snn;

/// The T2FSNN core: kernels, conversion, evaluation.
pub use t2fsnn as core;

/// Reproduction harness: the scenario re-exports and report helpers.
pub use t2fsnn_bench as bench;
