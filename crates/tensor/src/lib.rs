//! # t2fsnn-tensor
//!
//! Dense `f32` tensor substrate for the [T2FSNN (DAC 2020)] reproduction.
//!
//! This crate provides the single numeric container shared by the whole
//! workspace — the [`Tensor`] — together with the kernels a from-scratch
//! CNN + spiking-network simulator needs: [`ops::matmul`], im2col
//! [`ops::conv2d`] (with analytic backward passes), [`ops::max_pool2d`] /
//! [`ops::avg_pool2d`], activations, and random [`init`]ializers.
//!
//! It intentionally does *not* depend on any deep-learning framework; the
//! reproduction builds every substrate from scratch per its design brief.
//!
//! ## Quick example
//!
//! ```
//! use t2fsnn_tensor::{ops, Tensor};
//!
//! # fn main() -> Result<(), t2fsnn_tensor::TensorError> {
//! // A 1-image, 1-channel 4×4 input convolved with an edge-ish kernel.
//! let input = Tensor::from_fn([1, 1, 4, 4], |i| (i[2] + i[3]) as f32);
//! let weight = Tensor::from_vec([1, 1, 2, 2], vec![1.0, -1.0, -1.0, 1.0])?;
//! let bias = Tensor::zeros([1]);
//! let out = ops::conv2d(&input, &weight, &bias, ops::Conv2dSpec::new(1, 0))?;
//! assert_eq!(out.dims(), &[1, 1, 3, 3]);
//! # Ok(())
//! # }
//! ```
//!
//! [T2FSNN (DAC 2020)]: https://arxiv.org/abs/2003.11741

#![warn(missing_docs)]
// `deny` rather than `forbid`: the [`simd`] module (and only it) opts
// back in with a module-level `allow` for the AVX2 `target_feature`
// context and the `std::arch` intrinsic calls behind its runtime
// dispatch. Everything else stays safe.
#![deny(unsafe_code)]

mod error;
mod events;
pub mod init;
pub mod log;
pub mod ops;
mod parallel;
pub mod perturb;
pub mod profile;
mod shape;
pub mod simd;
mod tensor;
pub mod trace;

pub use error::{Result, TensorError};
pub use events::SpikeBatch;
pub use parallel::ThreadPool;
pub use shape::Shape;
pub use tensor::Tensor;
