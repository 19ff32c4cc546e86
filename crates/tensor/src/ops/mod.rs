//! Numeric kernels on [`Tensor`](crate::Tensor): matrix multiplication,
//! 2-D convolution, pooling, activations, and event-driven sparse
//! propagation.
//!
//! The dense matmul family is register-blocked and cache-tiled for a
//! single core, with inner loops running on the runtime-dispatched
//! [`crate::simd`] primitives (explicit AVX2 when available, scalar
//! twins otherwise — bit-identical either way); `conv2d` parallelizes
//! across the batch via the crate's scoped
//! [`ThreadPool`](crate::ThreadPool); the [`sparse`] module provides
//! event-list kernels that are bit-identical to their dense twins.

mod activation;
mod conv;
mod matmul;
mod pool;
pub mod sparse;

pub use activation::{accuracy, cross_entropy, relu, relu_backward, softmax, top_k_accuracy};
pub use conv::{
    col2im, col2im_into, conv2d, conv2d_backward, conv2d_backward_on, im2col, im2col_into,
    Conv2dSpec,
};
pub use matmul::{matmul, matmul_a_bt, matmul_at_b, matvec};
pub use pool::{
    avg_pool2d, avg_pool2d_backward, avg_pool2d_pm, first_spike_gate, max_pool2d,
    max_pool2d_backward, max_pool2d_pm,
};
