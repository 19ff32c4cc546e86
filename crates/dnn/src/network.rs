//! Sequential network container.

use serde::{Deserialize, Serialize};
use t2fsnn_tensor::{Result, Tensor, TensorError};

use crate::layers::Layer;

/// A feed-forward network: an ordered list of named [`Layer`]s.
///
/// Layer names (e.g. `"conv2_1"`) follow the VGG convention so that
/// experiment code can reference the same layers the paper's Figure 5
/// plots.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use t2fsnn_dnn::layers::{Linear, Relu};
/// use t2fsnn_dnn::Network;
/// use t2fsnn_tensor::Tensor;
///
/// # fn main() -> Result<(), t2fsnn_tensor::TensorError> {
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// let mut net = Network::new();
/// net.push("fc1", Linear::new(&mut rng, 4, 8));
/// net.push("relu1", Relu::new());
/// net.push("fc2", Linear::new(&mut rng, 8, 2));
/// let logits = net.forward(&Tensor::zeros([3, 4]), false)?;
/// assert_eq!(logits.dims(), &[3, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Network {
    names: Vec<String>,
    layers: Vec<Layer>,
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Network::default()
    }

    /// Appends a named layer.
    pub fn push(&mut self, name: &str, layer: impl Into<Layer>) {
        self.names.push(name.to_string());
        self.layers.push(layer.into());
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Returns `true` if the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Layer names, in order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Immutable access to the layers, in order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutable access to the layers, in order.
    pub fn layers_mut(&mut self) -> &mut [Layer] {
        &mut self.layers
    }

    /// Finds a layer index by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Full forward pass. `train` enables the caches required by
    /// [`Network::backward`].
    ///
    /// # Errors
    ///
    /// Propagates the first layer error encountered.
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, train)?;
        }
        Ok(x)
    }

    /// Forward pass that records every layer's output.
    ///
    /// Returns `(final_output, per_layer_outputs)`; `per_layer_outputs[i]`
    /// is the output of layer `i`. Used by the data-based normalization and
    /// [`crate::weighted_layer_activations`], which need whole-set
    /// activations; the kernel optimizer streams them instead
    /// ([`crate::visit_weighted_activations`]).
    ///
    /// # Errors
    ///
    /// Propagates the first layer error encountered.
    pub fn forward_recording(&mut self, input: &Tensor) -> Result<(Tensor, Vec<Tensor>)> {
        let mut record: Vec<Tensor> = Vec::with_capacity(self.layers.len());
        for i in 0..self.layers.len() {
            // Borrow the previous output from the record instead of
            // cloning every activation (they can be tens of MB for a
            // whole calibration set).
            let x = record.last().unwrap_or(input);
            let y = self.layers[i].forward(x, false)?;
            record.push(y);
        }
        let output = record.last().cloned().unwrap_or_else(|| input.clone());
        Ok((output, record))
    }

    /// Backward pass from the loss gradient at the output; accumulates
    /// parameter gradients in every trainable layer.
    ///
    /// # Errors
    ///
    /// Returns an error if `forward(train=true)` did not precede this call.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        Ok(g)
    }

    /// Visits all `(parameter, gradient)` pairs in deterministic order.
    pub fn visit_params(&mut self, mut f: impl FnMut(&mut Tensor, &mut Tensor)) {
        for layer in &mut self.layers {
            layer.visit_params(&mut f);
        }
    }

    /// Clears all accumulated gradients.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Total number of trainable scalars.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Layer::param_count).sum()
    }

    /// Predicted class for every row of `input`.
    ///
    /// # Errors
    ///
    /// Propagates forward-pass errors, or an internal error if the output
    /// is not `[batch, classes]`.
    pub fn predict(&mut self, input: &Tensor) -> Result<Vec<usize>> {
        let logits = self.forward(input, false)?;
        if logits.rank() != 2 {
            return Err(TensorError::InvalidArgument {
                op: "Network::predict",
                message: format!("expected [batch, classes] logits, got {}", logits.shape()),
            });
        }
        let (n, c) = (logits.dims()[0], logits.dims()[1]);
        let mut preds = Vec::with_capacity(n);
        for i in 0..n {
            let row = &logits.data()[i * c..(i + 1) * c];
            let best = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(j, _)| j)
                .unwrap_or(0);
            preds.push(best);
        }
        Ok(preds)
    }

    /// Folds every batch-norm layer into the convolution that precedes it
    /// (Rueckauer et al. 2017): `W' = γ/σ·W`, `b' = γ/σ·(b − μ) + β`,
    /// using the *running* statistics. The network's inference-time
    /// function is unchanged; the batch-norm layers are removed.
    ///
    /// Must be called after training and **before**
    /// [`crate::normalize_for_snn`] / SNN conversion (batch norm's shift
    /// breaks the positive homogeneity those steps rely on).
    ///
    /// Returns the number of layers folded.
    ///
    /// # Errors
    ///
    /// Returns an error if a batch-norm layer does not directly follow a
    /// convolution with a matching channel count.
    pub fn fold_batchnorm(&mut self) -> Result<usize> {
        let mut folded = 0usize;
        let mut i = 0usize;
        while i < self.layers.len() {
            if !matches!(self.layers[i], Layer::BatchNorm(_)) {
                i += 1;
                continue;
            }
            let (scales, shifts) = match &self.layers[i] {
                Layer::BatchNorm(bn) => bn.inference_affine(),
                _ => unreachable!("checked above"),
            };
            let name = self.names[i].clone();
            let prev = i.checked_sub(1).and_then(|p| self.layers.get_mut(p));
            match prev {
                Some(Layer::Conv2d(conv)) if conv.weight.dims()[0] == scales.len() => {
                    let dims = conv.weight.dims().to_vec();
                    let per_filter: usize = dims[1..].iter().product();
                    let wd = conv.weight.data_mut();
                    for (o, &scale) in scales.iter().enumerate() {
                        for w in &mut wd[o * per_filter..(o + 1) * per_filter] {
                            *w *= scale;
                        }
                    }
                    let bd = conv.bias.data_mut();
                    for ((b, &scale), &shift) in bd.iter_mut().zip(&scales).zip(&shifts) {
                        *b = *b * scale + shift;
                    }
                }
                _ => {
                    return Err(TensorError::InvalidArgument {
                        op: "Network::fold_batchnorm",
                        message: format!(
                            "batch-norm layer `{name}` must directly follow a convolution \
                             with {} output channels",
                            scales.len()
                        ),
                    })
                }
            }
            self.layers.remove(i);
            self.names.remove(i);
            folded += 1;
        }
        Ok(folded)
    }

    /// One-line human-readable structure summary.
    pub fn summary(&self) -> String {
        let mut parts = Vec::with_capacity(self.layers.len());
        for (name, layer) in self.names.iter().zip(&self.layers) {
            parts.push(format!("{name}({})", layer.kind()));
        }
        format!(
            "Network[{} layers, {} params]: {}",
            self.layers.len(),
            self.param_count(),
            parts.join(" -> ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Flatten, Linear, Pool, PoolKind, Relu};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn small_net() -> Network {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut net = Network::new();
        net.push("fc1", Linear::new(&mut rng, 4, 8));
        net.push("relu1", Relu::new());
        net.push("fc2", Linear::new(&mut rng, 8, 3));
        net
    }

    #[test]
    fn forward_chains_layers() {
        let mut net = small_net();
        let y = net.forward(&Tensor::ones([2, 4]), false).unwrap();
        assert_eq!(y.dims(), &[2, 3]);
    }

    #[test]
    fn forward_recording_returns_all_outputs() {
        let mut net = small_net();
        let (y, rec) = net.forward_recording(&Tensor::ones([1, 4])).unwrap();
        assert_eq!(rec.len(), 3);
        assert_eq!(rec[2], y);
        assert_eq!(rec[0].dims(), &[1, 8]);
    }

    #[test]
    fn backward_accumulates_all_grads() {
        let mut net = small_net();
        let y = net.forward(&Tensor::ones([2, 4]), true).unwrap();
        net.backward(&Tensor::ones(y.shape().clone())).unwrap();
        let mut nonzero = 0;
        net.visit_params(|_, g| {
            if g.iter().any(|&x| x != 0.0) {
                nonzero += 1;
            }
        });
        assert!(nonzero >= 3, "expected most grads nonzero, got {nonzero}");
        net.zero_grad();
        net.visit_params(|_, g| assert!(g.iter().all(|&x| x == 0.0)));
    }

    #[test]
    fn index_of_finds_layers() {
        let net = small_net();
        assert_eq!(net.index_of("relu1"), Some(1));
        assert_eq!(net.index_of("missing"), None);
    }

    #[test]
    fn predict_returns_argmax_rows() {
        let mut net = Network::new();
        let w = Tensor::from_vec([2, 2], vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        net.push("id", Linear::from_parts(w, Tensor::zeros([2])).unwrap());
        let x = Tensor::from_vec([2, 2], vec![0.9, 0.1, 0.2, 0.8]).unwrap();
        assert_eq!(net.predict(&x).unwrap(), vec![0, 1]);
    }

    #[test]
    fn predict_rejects_non_logits_output() {
        let mut net = Network::new();
        net.push("pool", Pool::down2(PoolKind::Avg));
        assert!(net.predict(&Tensor::zeros([1, 1, 4, 4])).is_err());
    }

    #[test]
    fn summary_mentions_layers() {
        let mut net = small_net();
        net.push("flat", Flatten::new());
        let s = net.summary();
        assert!(s.contains("fc1(linear)"));
        assert!(s.contains("4 layers"));
    }

    #[test]
    fn param_count_sums_layers() {
        let net = small_net();
        assert_eq!(net.param_count(), 4 * 8 + 8 + 8 * 3 + 3);
    }

    #[test]
    fn clone_is_deep() {
        let mut net = small_net();
        let clone = net.clone();
        // Mutating the original must not affect the clone.
        net.visit_params(|p, _| p.map_inplace(|_| 0.0));
        let mut changed = false;
        let mut cloned = clone;
        cloned.visit_params(|p, _| {
            if p.iter().any(|&x| x != 0.0) {
                changed = true;
            }
        });
        assert!(changed, "clone should retain the original weights");
    }
}
