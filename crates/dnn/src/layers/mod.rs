//! Network layers: convolution, dense, ReLU, pooling, flatten.
//!
//! Layers are represented by a closed [`Layer`] enum rather than trait
//! objects: the DNN→SNN conversion needs to pattern-match on layer kinds
//! and lift their weights, which an enum makes direct and exhaustive.

mod batchnorm;
mod conv;
mod linear;
mod simple;

pub use batchnorm::BatchNorm2d;
pub use conv::Conv2d;
pub use linear::Linear;
pub use simple::{Flatten, Pool, PoolKind, Relu};

use serde::{Deserialize, Serialize};
use t2fsnn_tensor::{Result, Tensor};

/// One network layer of any supported kind.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use t2fsnn_dnn::layers::{Layer, Relu};
/// use t2fsnn_tensor::Tensor;
///
/// # fn main() -> Result<(), t2fsnn_tensor::TensorError> {
/// let mut layer = Layer::from(Relu::new());
/// let y = layer.forward(&Tensor::from_vec([2], vec![-1.0, 1.0])?, false)?;
/// assert_eq!(y.data(), &[0.0, 1.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Layer {
    /// 2-D convolution with bias.
    Conv2d(Conv2d),
    /// Fully connected layer.
    Linear(Linear),
    /// Rectified linear unit.
    Relu(Relu),
    /// Average or max pooling.
    Pool(Pool),
    /// Collapse spatial dims before dense layers.
    Flatten(Flatten),
    /// Per-channel batch normalization (fold before SNN conversion).
    BatchNorm(BatchNorm2d),
}

impl Layer {
    /// Forward pass through the layer. `train` enables caching for a later
    /// [`Layer::backward`].
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the concrete layer.
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        match self {
            Layer::Conv2d(l) => l.forward(input, train),
            Layer::Linear(l) => l.forward(input, train),
            Layer::Relu(l) => Ok(l.forward(input, train)),
            Layer::Pool(l) => l.forward(input, train),
            Layer::Flatten(l) => l.forward(input, train),
            Layer::BatchNorm(l) => l.forward(input, train),
        }
    }

    /// Backward pass; accumulates parameter gradients where applicable and
    /// returns the gradient with respect to the layer input.
    ///
    /// # Errors
    ///
    /// Returns an error if no `forward(train=true)` preceded this call.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        match self {
            Layer::Conv2d(l) => l.backward(grad_out),
            Layer::Linear(l) => l.backward(grad_out),
            Layer::Relu(l) => l.backward(grad_out),
            Layer::Pool(l) => l.backward(grad_out),
            Layer::Flatten(l) => l.backward(grad_out),
            Layer::BatchNorm(l) => l.backward(grad_out),
        }
    }

    /// Visits `(parameter, gradient)` pairs, in a deterministic order, for
    /// layers that have parameters. The gradient tensor is zeroed lazily if
    /// no backward pass has populated it.
    pub fn visit_params(&mut self, f: &mut impl FnMut(&mut Tensor, &mut Tensor)) {
        match self {
            Layer::Conv2d(l) => {
                let gw = l
                    .grad_weight
                    .get_or_insert_with(|| Tensor::zeros(l.weight.shape().clone()));
                f(&mut l.weight, gw);
                let gb = l
                    .grad_bias
                    .get_or_insert_with(|| Tensor::zeros(l.bias.shape().clone()));
                f(&mut l.bias, gb);
            }
            Layer::Linear(l) => {
                let gw = l
                    .grad_weight
                    .get_or_insert_with(|| Tensor::zeros(l.weight.shape().clone()));
                f(&mut l.weight, gw);
                let gb = l
                    .grad_bias
                    .get_or_insert_with(|| Tensor::zeros(l.bias.shape().clone()));
                f(&mut l.bias, gb);
            }
            Layer::BatchNorm(l) => {
                let gg = l
                    .grad_gamma
                    .get_or_insert_with(|| Tensor::zeros(l.gamma.shape().clone()));
                f(&mut l.gamma, gg);
                let gb = l
                    .grad_beta
                    .get_or_insert_with(|| Tensor::zeros(l.beta.shape().clone()));
                f(&mut l.beta, gb);
            }
            Layer::Relu(_) | Layer::Pool(_) | Layer::Flatten(_) => {}
        }
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        match self {
            Layer::Conv2d(l) => {
                l.grad_weight = None;
                l.grad_bias = None;
            }
            Layer::Linear(l) => {
                l.grad_weight = None;
                l.grad_bias = None;
            }
            Layer::BatchNorm(l) => {
                l.grad_gamma = None;
                l.grad_beta = None;
            }
            Layer::Relu(_) | Layer::Pool(_) | Layer::Flatten(_) => {}
        }
    }

    /// Returns `true` for layers carrying trainable parameters.
    /// Batch norm's γ/β are trainable but the layer is folded away before
    /// conversion, so it is *not* a weighted (neuron-bearing) layer.
    pub fn has_params(&self) -> bool {
        matches!(self, Layer::Conv2d(_) | Layer::Linear(_))
    }

    /// Short kind tag used in summaries ("conv", "linear", …).
    pub fn kind(&self) -> &'static str {
        match self {
            Layer::Conv2d(_) => "conv",
            Layer::Linear(_) => "linear",
            Layer::Relu(_) => "relu",
            Layer::Pool(_) => "pool",
            Layer::Flatten(_) => "flatten",
            Layer::BatchNorm(_) => "batchnorm",
        }
    }

    /// Number of trainable scalars in the layer.
    pub fn param_count(&self) -> usize {
        match self {
            Layer::Conv2d(l) => l.weight.numel() + l.bias.numel(),
            Layer::Linear(l) => l.weight.numel() + l.bias.numel(),
            Layer::BatchNorm(l) => l.gamma.numel() + l.beta.numel(),
            _ => 0,
        }
    }
}

impl From<Conv2d> for Layer {
    fn from(l: Conv2d) -> Self {
        Layer::Conv2d(l)
    }
}

impl From<Linear> for Layer {
    fn from(l: Linear) -> Self {
        Layer::Linear(l)
    }
}

impl From<Relu> for Layer {
    fn from(l: Relu) -> Self {
        Layer::Relu(l)
    }
}

impl From<Pool> for Layer {
    fn from(l: Pool) -> Self {
        Layer::Pool(l)
    }
}

impl From<Flatten> for Layer {
    fn from(l: Flatten) -> Self {
        Layer::Flatten(l)
    }
}

impl From<BatchNorm2d> for Layer {
    fn from(l: BatchNorm2d) -> Self {
        Layer::BatchNorm(l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use t2fsnn_tensor::ops::Conv2dSpec;

    #[test]
    fn enum_dispatch_forwards() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut layer: Layer = Conv2d::new(&mut rng, 1, 2, 3, Conv2dSpec::new(1, 1)).into();
        let y = layer.forward(&Tensor::zeros([1, 1, 4, 4]), false).unwrap();
        assert_eq!(y.dims(), &[1, 2, 4, 4]);
        assert_eq!(layer.kind(), "conv");
        assert!(layer.has_params());
        assert_eq!(layer.param_count(), 2 * 9 + 2);
    }

    #[test]
    fn visit_params_provides_lazy_zero_grads() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut layer: Layer = Linear::new(&mut rng, 3, 2).into();
        let mut seen = 0;
        layer.visit_params(&mut |p, g| {
            assert_eq!(p.shape(), g.shape());
            assert!(g.iter().all(|&x| x == 0.0));
            seen += 1;
        });
        assert_eq!(seen, 2);
    }

    #[test]
    fn zero_grad_clears_accumulation() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut layer: Layer = Linear::new(&mut rng, 3, 2).into();
        let x = Tensor::ones([1, 3]);
        let y = layer.forward(&x, true).unwrap();
        layer.backward(&Tensor::ones(y.shape().clone())).unwrap();
        layer.zero_grad();
        layer.visit_params(&mut |_, g| assert!(g.iter().all(|&x| x == 0.0)));
    }

    #[test]
    fn parameter_free_layers_report_no_params() {
        assert!(!Layer::from(Relu::new()).has_params());
        assert!(!Layer::from(Flatten::new()).has_params());
        assert_eq!(Layer::from(Pool::down2(PoolKind::Avg)).param_count(), 0);
    }
}
