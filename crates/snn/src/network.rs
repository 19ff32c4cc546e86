//! The converted spiking network: weight-carrying ops with sparse spike
//! propagation.
//!
//! A [`SnnNetwork`] is produced from a trained, weight-normalized
//! [`t2fsnn_dnn::Network`] by [`SnnNetwork::from_dnn`]. ReLU layers are
//! dropped (integrate-and-fire neurons implement rectification natively)
//! and every convolution / dense layer becomes a weighted op whose outputs
//! feed a population of IF neurons. Average pooling and flatten are linear
//! pass-throughs with no neurons.
//!
//! Propagation is *event-driven at the arithmetic level*: only non-zero
//! entries of the incoming spike tensor do work, and every op reports the
//! exact number of synaptic operations it performed — the quantity the
//! paper's Table III counts.

use serde::{Deserialize, Serialize};
use t2fsnn_dnn::layers::{Layer, PoolKind};
use t2fsnn_dnn::Network;
use t2fsnn_tensor::ops::{sparse, Conv2dSpec};
use t2fsnn_tensor::{trace, Result, SpikeBatch, Tensor, TensorError};

/// One op of a converted spiking network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum SnnOp {
    /// Convolution synapses (`weight: [O, I, K, K]`, `bias: [O]`); outputs
    /// drive IF neurons.
    Conv {
        /// Layer name inherited from the source DNN (e.g. `"conv2_1"`).
        name: String,
        /// Filter bank.
        weight: Tensor,
        /// Per-channel bias, injected as a constant current.
        bias: Tensor,
        /// Stride/padding of the source layer.
        spec: Conv2dSpec,
    },
    /// Dense synapses (`weight: [O, I]`); outputs drive IF neurons.
    Linear {
        /// Layer name inherited from the source DNN (e.g. `"fc6"`).
        name: String,
        /// Weight matrix.
        weight: Tensor,
        /// Bias, injected as a constant current.
        bias: Tensor,
    },
    /// Linear average pooling; spikes are scaled, no neurons.
    AvgPool {
        /// Window edge length.
        window: usize,
        /// Stride.
        stride: usize,
    },
    /// Max pooling. Exact under TTFS coding only: the earliest spike in a
    /// window belongs to the largest value, so a first-spike gate (kept by
    /// the TTFS engine) implements the max. The baseline-coding simulator
    /// rejects networks containing this op — rate/phase/burst coding have
    /// no exact spiking max (the conversion literature substitutes average
    /// pooling for them).
    MaxPool {
        /// Window edge length.
        window: usize,
        /// Stride.
        stride: usize,
    },
    /// Shape adapter between conv and dense sections; no neurons.
    Flatten,
}

impl SnnOp {
    /// Returns `true` if this op's outputs are integrate-and-fire neurons.
    pub fn is_weighted(&self) -> bool {
        matches!(self, SnnOp::Conv { .. } | SnnOp::Linear { .. })
    }

    /// The op's name, if it is a weighted op.
    pub fn name(&self) -> Option<&str> {
        match self {
            SnnOp::Conv { name, .. } | SnnOp::Linear { name, .. } => Some(name),
            _ => None,
        }
    }

    /// Output shape (excluding the batch axis) for the given input shape.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible with the op.
    pub fn output_shape(&self, input: &[usize]) -> Result<Vec<usize>> {
        match self {
            SnnOp::Conv { weight, spec, .. } => {
                if input.len() != 3 || input[0] != weight.dims()[1] {
                    return Err(TensorError::InvalidArgument {
                        op: "SnnOp::output_shape",
                        message: format!(
                            "conv expects [{}, H, W] input, got {input:?}",
                            weight.dims()[1]
                        ),
                    });
                }
                let k = weight.dims()[2];
                Ok(vec![
                    weight.dims()[0],
                    spec.output_dim(input[1], k),
                    spec.output_dim(input[2], k),
                ])
            }
            SnnOp::Linear { weight, .. } => {
                let numel: usize = input.iter().product();
                if input.len() != 1 || numel != weight.dims()[1] {
                    return Err(TensorError::InvalidArgument {
                        op: "SnnOp::output_shape",
                        message: format!(
                            "linear expects [{}] input, got {input:?}",
                            weight.dims()[1]
                        ),
                    });
                }
                Ok(vec![weight.dims()[0]])
            }
            SnnOp::AvgPool { window, stride } | SnnOp::MaxPool { window, stride } => {
                if input.len() != 3 {
                    return Err(TensorError::InvalidArgument {
                        op: "SnnOp::output_shape",
                        message: format!("pool expects [C, H, W] input, got {input:?}"),
                    });
                }
                let down = |d: usize| {
                    if d < *window {
                        0
                    } else {
                        (d - window) / stride + 1
                    }
                };
                Ok(vec![input[0], down(input[1]), down(input[2])])
            }
            SnnOp::Flatten => Ok(vec![input.iter().product()]),
        }
    }

    /// Propagates a spike (or current) tensor through the op, *without*
    /// bias, returning the postsynaptic drive and the number of synaptic
    /// accumulate operations performed.
    ///
    /// Only non-zero input entries trigger work, so sparse spike tensors
    /// are cheap. `input` carries the batch axis: `[N, ...]`.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch.
    pub fn propagate(&self, input: &Tensor) -> Result<(Tensor, u64)> {
        match self {
            SnnOp::Conv { weight, spec, .. } => conv_scatter(input, weight, *spec),
            SnnOp::Linear { weight, .. } => linear_scatter(input, weight),
            SnnOp::AvgPool { window, stride } => {
                let out = t2fsnn_tensor::ops::avg_pool2d(input, *window, *stride)?;
                Ok((out, 0))
            }
            SnnOp::MaxPool { window, stride } => {
                // Stateless spatial max of the instantaneous values. Exact
                // for dense decoded tensors (the analytic path); the TTFS
                // clock engine adds first-spike gating on top for
                // step-by-step correctness.
                let (out, _) = t2fsnn_tensor::ops::max_pool2d(input, *window, *stride)?;
                Ok((out, 0))
            }
            SnnOp::Flatten => {
                let n = input.dims()[0];
                let rest: usize = input.dims()[1..].iter().product();
                Ok((input.reshape([n, rest])?, 0))
            }
        }
    }

    /// The bias tensor, if this is a weighted op.
    pub fn bias(&self) -> Option<&Tensor> {
        match self {
            SnnOp::Conv { bias, .. } | SnnOp::Linear { bias, .. } => Some(bias),
            _ => None,
        }
    }

    /// Adds `scale × bias` to a `[N, ...]` drive tensor (constant bias
    /// current injection).
    ///
    /// # Errors
    ///
    /// Returns an error if `drive`'s shape is incompatible.
    pub fn inject_bias(&self, drive: &mut Tensor, scale: f32) -> Result<()> {
        let bias = match self.bias() {
            Some(b) => b,
            None => return Ok(()),
        };
        if scale == 0.0 {
            return Ok(());
        }
        match self {
            SnnOp::Conv { .. } => {
                let dims = drive.dims().to_vec();
                if dims.len() != 4 || dims[1] != bias.dims()[0] {
                    return Err(TensorError::InvalidArgument {
                        op: "SnnOp::inject_bias",
                        message: format!("conv drive {:?} vs bias {:?}", dims, bias.dims()),
                    });
                }
                let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
                let dd = drive.data_mut();
                for ni in 0..n {
                    for ci in 0..c {
                        let b = bias.data()[ci] * scale;
                        let base = (ni * c + ci) * h * w;
                        for v in &mut dd[base..base + h * w] {
                            *v += b;
                        }
                    }
                }
                Ok(())
            }
            SnnOp::Linear { .. } => {
                let dims = drive.dims().to_vec();
                if dims.len() != 2 || dims[1] != bias.dims()[0] {
                    return Err(TensorError::InvalidArgument {
                        op: "SnnOp::inject_bias",
                        message: format!("linear drive {:?} vs bias {:?}", dims, bias.dims()),
                    });
                }
                let (n, o) = (dims[0], dims[1]);
                let dd = drive.data_mut();
                for ni in 0..n {
                    for (j, v) in dd[ni * o..(ni + 1) * o].iter_mut().enumerate() {
                        *v += bias.data()[j] * scale;
                    }
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// [`SnnOp::inject_bias`] for the engine's position-major state
    /// (`[N, OH, OW, C]` for convolutions — each position's channel row
    /// gets the bias vector — or `[N, O]` for dense layers). No-op for
    /// unbiased ops or `scale == 0`.
    ///
    /// # Errors
    ///
    /// Returns an error if `drive`'s shape is incompatible.
    pub fn inject_bias_pm(&self, drive: &mut Tensor, scale: f32) -> Result<()> {
        let bias = match self.bias() {
            Some(b) => b,
            None => return Ok(()),
        };
        if scale == 0.0 {
            return Ok(());
        }
        let _s = trace::span("op/bias_inject");
        let c = bias.dims()[0];
        let ok = match self {
            SnnOp::Conv { .. } => drive.rank() == 4 && drive.dims()[3] == c,
            _ => drive.rank() == 2 && drive.dims()[1] == c,
        };
        if !ok {
            return Err(TensorError::InvalidArgument {
                op: "SnnOp::inject_bias_pm",
                message: format!("drive {} does not match bias [{c}]", drive.shape()),
            });
        }
        t2fsnn_tensor::simd::add_scaled_rows(drive.data_mut(), bias.data(), scale);
        Ok(())
    }

    /// Per-image synaptic-accumulate counts this op would charge for an
    /// event-form position-major signal, written into `out` (one slot per
    /// image). The counts are exactly what
    /// [`crate::OpExecutor::accumulate_weighted_events`] charges in total —
    /// resolved per image so an online-serving request can be billed its
    /// own synops; images never interact, so `out.sum()` equals the batch
    /// charge.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatches or if this is not a weighted
    /// op.
    pub fn synops_events_by_image(&self, events: &SpikeBatch, out: &mut [u64]) -> Result<()> {
        match self {
            SnnOp::Conv { weight, spec, .. } => {
                let kernel = (weight.dims()[2], weight.dims()[3]);
                sparse::conv2d_synops_events_by_image(events, weight.dims()[0], kernel, *spec, out)
            }
            SnnOp::Linear { weight, .. } => {
                if out.len() != events.batch() {
                    return Err(TensorError::InvalidArgument {
                        op: "SnnOp::synops_events_by_image",
                        message: format!(
                            "{} images but out has {} slots",
                            events.batch(),
                            out.len()
                        ),
                    });
                }
                let o = weight.dims()[0] as u64;
                for (ni, slot) in out.iter_mut().enumerate() {
                    *slot = events.image_events(ni).0.len() as u64 * o;
                }
                Ok(())
            }
            _ => Err(TensorError::InvalidArgument {
                op: "SnnOp::synops_events_by_image",
                message: "not a weighted op".to_string(),
            }),
        }
    }

    /// [`SnnOp::synops_events_by_image`] for a dense position-major
    /// signal (`[N, OH, OW, C]` for convolutions, `[N, I]` for linear
    /// layers): each non-zero entry is charged its `valid taps × O`
    /// accumulates.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatches or if this is not a weighted
    /// op.
    pub fn synops_pm_by_image(&self, signal: &Tensor, out: &mut [u64]) -> Result<()> {
        match self {
            SnnOp::Conv { weight, spec, .. } => {
                let kernel = (weight.dims()[2], weight.dims()[3]);
                sparse::conv2d_synops_pm_by_image(signal, weight.dims()[0], kernel, *spec, out)
            }
            SnnOp::Linear { weight, .. } => {
                if signal.rank() != 2 || out.len() != signal.dims()[0] {
                    return Err(TensorError::InvalidArgument {
                        op: "SnnOp::synops_pm_by_image",
                        message: format!(
                            "signal {} does not give one row per out slot ({})",
                            signal.shape(),
                            out.len()
                        ),
                    });
                }
                let o = weight.dims()[0] as u64;
                let features = signal.dims()[1];
                for (row, slot) in signal.data().chunks_exact(features.max(1)).zip(out) {
                    *slot = row.iter().filter(|&&v| v != 0.0).count() as u64 * o;
                }
                Ok(())
            }
            _ => Err(TensorError::InvalidArgument {
                op: "SnnOp::synops_pm_by_image",
                message: "not a weighted op".to_string(),
            }),
        }
    }
}

/// Sparse scatter convolution: for every non-zero input element, add its
/// weighted kernel patch into the output. Returns `(output, synops)`.
///
/// Delegates to the shared cache-friendly kernel in
/// [`t2fsnn_tensor::ops::sparse`]; the event-list variant used by the
/// [`crate::engine`] is bit-identical to it.
fn conv_scatter(input: &Tensor, weight: &Tensor, spec: Conv2dSpec) -> Result<(Tensor, u64)> {
    t2fsnn_tensor::ops::sparse::conv2d_scatter(input, weight, spec)
}

/// Sparse dense-layer propagation: only non-zero inputs touch weights.
fn linear_scatter(input: &Tensor, weight: &Tensor) -> Result<(Tensor, u64)> {
    if input.rank() != 2 || input.dims()[1] != weight.dims()[1] {
        return Err(TensorError::InvalidArgument {
            op: "linear_scatter",
            message: format!(
                "expected [N, {}] input, got {}",
                weight.dims()[1],
                input.shape()
            ),
        });
    }
    let (n, i) = (input.dims()[0], input.dims()[1]);
    let o = weight.dims()[0];
    let mut out = Tensor::zeros([n, o]);
    let od = out.data_mut();
    let id = input.data();
    let wd = weight.data();
    let mut synops = 0u64;
    for ni in 0..n {
        for ii in 0..i {
            let v = id[ni * i + ii];
            if v == 0.0 {
                continue;
            }
            for oi in 0..o {
                od[ni * o + oi] += wd[oi * i + ii] * v;
            }
            synops += o as u64;
        }
    }
    Ok((out, synops))
}

/// A converted spiking network.
///
/// # Examples
///
/// ```no_run
/// use rand::SeedableRng;
/// use t2fsnn_data::DatasetSpec;
/// use t2fsnn_dnn::architectures;
/// use t2fsnn_snn::SnnNetwork;
///
/// # fn main() -> Result<(), t2fsnn_tensor::TensorError> {
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// let spec = DatasetSpec::cifar10_like();
/// let dnn = architectures::vgg_scaled(&mut rng, &spec, Default::default());
/// let snn = SnnNetwork::from_dnn(&dnn)?;
/// assert!(snn.weighted_count() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SnnNetwork {
    ops: Vec<SnnOp>,
}

impl SnnNetwork {
    /// Converts a trained DNN into a spiking network.
    ///
    /// ReLU layers are dropped (IF neurons rectify natively); average
    /// pooling and flatten are carried over as linear pass-throughs.
    ///
    /// # Errors
    ///
    /// Returns an error if the network contains max pooling, which has no
    /// exact spiking equivalent in this conversion scheme (use
    /// `PoolKind::Avg` when building the DNN, as the conversion literature
    /// recommends).
    pub fn from_dnn(dnn: &Network) -> Result<Self> {
        let mut ops = Vec::new();
        for (name, layer) in dnn.names().iter().zip(dnn.layers()) {
            match layer {
                Layer::Conv2d(l) => ops.push(SnnOp::Conv {
                    name: name.clone(),
                    weight: l.weight.clone(),
                    bias: l.bias.clone(),
                    spec: l.spec,
                }),
                Layer::Linear(l) => ops.push(SnnOp::Linear {
                    name: name.clone(),
                    weight: l.weight.clone(),
                    bias: l.bias.clone(),
                }),
                // ReLU is realized by the IF firing condition; dropout is
                // identity at inference. Both vanish in conversion.
                Layer::Relu(_) | Layer::Dropout(_) => {}
                Layer::BatchNorm(_) => {
                    return Err(TensorError::InvalidArgument {
                        op: "SnnNetwork::from_dnn",
                        message: format!(
                            "layer `{name}`: fold batch norm into the preceding convolution \
                             first (Network::fold_batchnorm)"
                        ),
                    })
                }
                Layer::Pool(p) => match p.kind {
                    PoolKind::Avg => ops.push(SnnOp::AvgPool {
                        window: p.window,
                        stride: p.stride,
                    }),
                    PoolKind::Max => ops.push(SnnOp::MaxPool {
                        window: p.window,
                        stride: p.stride,
                    }),
                },
                Layer::Flatten(_) => ops.push(SnnOp::Flatten),
            }
        }
        if !ops.iter().any(SnnOp::is_weighted) {
            return Err(TensorError::InvalidArgument {
                op: "SnnNetwork::from_dnn",
                message: "network has no weighted layers".to_string(),
            });
        }
        Ok(SnnNetwork { ops })
    }

    /// The ops, in propagation order.
    pub fn ops(&self) -> &[SnnOp] {
        &self.ops
    }

    /// Visits every weight row of every weighted op, in order, as
    /// `f(layer, row, weights)` — `layer` is the weighted op's ordinal
    /// (0-based), `row` the output-neuron index, and `weights` the row's
    /// mutable fan-in slice (`[I·K·K]` for convs, `[I]` for linears).
    /// This is the mutation point for deterministic weight-fault
    /// injection: callers key their RNG streams on `(layer, row)`, so
    /// visit order carries no entropy.
    pub fn for_each_weight_row(&mut self, mut f: impl FnMut(usize, usize, &mut [f32])) {
        let mut layer = 0usize;
        for op in &mut self.ops {
            let weight = match op {
                SnnOp::Conv { weight, .. } => weight,
                SnnOp::Linear { weight, .. } => weight,
                _ => continue,
            };
            let rows = weight.dims()[0];
            let fan_in: usize = weight.dims()[1..].iter().product();
            if fan_in > 0 {
                for (row, slice) in weight.data_mut().chunks_exact_mut(fan_in).enumerate() {
                    debug_assert!(row < rows);
                    f(layer, row, slice);
                }
            }
            layer += 1;
        }
    }

    /// Returns `true` if the network contains max-pooling ops (supported
    /// by the TTFS engine only — see [`SnnOp::MaxPool`]).
    pub fn has_max_pool(&self) -> bool {
        self.ops
            .iter()
            .any(|op| matches!(op, SnnOp::MaxPool { .. }))
    }

    /// Number of weighted (neuron-bearing) ops.
    pub fn weighted_count(&self) -> usize {
        self.ops.iter().filter(|o| o.is_weighted()).count()
    }

    /// Names of the weighted ops, in order.
    pub fn weighted_names(&self) -> Vec<&str> {
        self.ops.iter().filter_map(SnnOp::name).collect()
    }

    /// Per-op output shapes (excluding batch) for a `[C, H, W]` input.
    ///
    /// # Errors
    ///
    /// Returns an error if shapes do not chain.
    pub fn output_shapes(&self, input: &[usize]) -> Result<Vec<Vec<usize>>> {
        let mut shapes = Vec::with_capacity(self.ops.len());
        let mut cur = input.to_vec();
        for op in &self.ops {
            cur = op.output_shape(&cur)?;
            shapes.push(cur.clone());
        }
        Ok(shapes)
    }

    /// Total number of IF neurons for a `[C, H, W]` input.
    ///
    /// # Errors
    ///
    /// Returns an error if shapes do not chain.
    pub fn neuron_count(&self, input: &[usize]) -> Result<usize> {
        let shapes = self.output_shapes(input)?;
        Ok(self
            .ops
            .iter()
            .zip(&shapes)
            .filter(|(op, _)| op.is_weighted())
            .map(|(_, s)| s.iter().product::<usize>())
            .sum())
    }

    /// Equivalent dense multiply-accumulate count of the source DNN for a
    /// `[C, H, W]` input (the "DNN" column of Table III).
    ///
    /// # Errors
    ///
    /// Returns an error if shapes do not chain.
    pub fn dense_macs(&self, input: &[usize]) -> Result<u64> {
        let shapes = self.output_shapes(input)?;
        let mut macs = 0u64;
        let mut prev: Vec<usize> = input.to_vec();
        for (op, shape) in self.ops.iter().zip(&shapes) {
            match op {
                SnnOp::Conv { weight, .. } => {
                    let k = weight.dims()[2] as u64;
                    let out_numel: u64 = shape.iter().product::<usize>() as u64;
                    macs += out_numel * weight.dims()[1] as u64 * k * k;
                }
                SnnOp::Linear { weight, .. } => {
                    macs += (weight.dims()[0] * weight.dims()[1]) as u64;
                }
                _ => {}
            }
            prev = shape.clone();
        }
        let _ = prev;
        Ok(macs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use t2fsnn_data::DatasetSpec;
    use t2fsnn_dnn::architectures::{cnn_small, mlp_tiny};
    use t2fsnn_dnn::layers::{Pool, PoolKind};
    use t2fsnn_tensor::ops;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(17)
    }

    #[test]
    fn conversion_drops_relu_and_keeps_weights() {
        let spec = DatasetSpec::tiny();
        let dnn = mlp_tiny(&mut rng(), &spec);
        let snn = SnnNetwork::from_dnn(&dnn).unwrap();
        // flatten + fc1 + fc2 (relu dropped)
        assert_eq!(snn.ops().len(), 3);
        assert_eq!(snn.weighted_count(), 2);
        assert_eq!(snn.weighted_names(), vec!["fc1", "fc2"]);
    }

    #[test]
    fn conversion_carries_max_pool_through() {
        let spec = DatasetSpec::new("t", 1, 16, 16, 4);
        let dnn = cnn_small(&mut rng(), &spec, PoolKind::Max);
        let snn = SnnNetwork::from_dnn(&dnn).unwrap();
        assert!(snn.has_max_pool());
        let avg = SnnNetwork::from_dnn(&cnn_small(&mut rng(), &spec, PoolKind::Avg)).unwrap();
        assert!(!avg.has_max_pool());
    }

    #[test]
    fn max_pool_op_takes_spatial_max() {
        let op = SnnOp::MaxPool {
            window: 2,
            stride: 2,
        };
        let mut input = Tensor::zeros([1, 1, 4, 4]);
        input.set(&[0, 0, 0, 0], 0.3).unwrap();
        input.set(&[0, 0, 1, 1], 0.7).unwrap();
        input.set(&[0, 0, 2, 3], 0.5).unwrap();
        let (out, synops) = op.propagate(&input).unwrap();
        assert_eq!(synops, 0);
        assert_eq!(out.get(&[0, 0, 0, 0]), Some(0.7));
        assert_eq!(out.get(&[0, 0, 1, 1]), Some(0.5));
        assert_eq!(op.output_shape(&[1, 4, 4]).unwrap(), vec![1, 2, 2]);
    }

    #[test]
    fn conversion_rejects_pure_pooling_network() {
        let mut dnn = t2fsnn_dnn::Network::new();
        dnn.push("pool", Pool::down2(PoolKind::Avg));
        assert!(SnnNetwork::from_dnn(&dnn).is_err());
    }

    #[test]
    fn output_shapes_chain() {
        let spec = DatasetSpec::new("t", 1, 16, 16, 4);
        let dnn = cnn_small(&mut rng(), &spec, PoolKind::Avg);
        let snn = SnnNetwork::from_dnn(&dnn).unwrap();
        let shapes = snn.output_shapes(&[1, 16, 16]).unwrap();
        assert_eq!(shapes.first().unwrap(), &vec![8, 16, 16]);
        assert_eq!(shapes.last().unwrap(), &vec![4]);
    }

    #[test]
    fn conv_scatter_matches_dense_conv() {
        let weight = Tensor::from_fn([2, 3, 3, 3], |i| {
            ((i[0] * 27 + i[1] * 9 + i[2] * 3 + i[3]) % 7) as f32 * 0.1 - 0.2
        });
        let spec = Conv2dSpec::new(1, 1);
        let op = SnnOp::Conv {
            name: "c".into(),
            weight: weight.clone(),
            bias: Tensor::zeros([2]),
            spec,
        };
        // Sparse spike-like input.
        let mut input = Tensor::zeros([2, 3, 5, 5]);
        input.set(&[0, 0, 0, 0], 1.0).unwrap();
        input.set(&[0, 2, 3, 4], 1.0).unwrap();
        input.set(&[1, 1, 2, 2], 2.0).unwrap();
        let (sparse, synops) = op.propagate(&input).unwrap();
        let dense = ops::conv2d(&input, &weight, &Tensor::zeros([2]), spec).unwrap();
        assert!(sparse.all_close(&dense, 1e-5));
        assert!(synops > 0);
    }

    #[test]
    fn conv_scatter_with_stride_matches_dense() {
        let weight = Tensor::from_fn([2, 1, 2, 2], |i| (i[0] + i[2] + i[3]) as f32 * 0.5 - 0.3);
        let spec = Conv2dSpec::new(2, 0);
        let op = SnnOp::Conv {
            name: "c".into(),
            weight: weight.clone(),
            bias: Tensor::zeros([2]),
            spec,
        };
        let input = Tensor::from_fn([1, 1, 6, 6], |i| ((i[2] * 6 + i[3]) % 3) as f32);
        let (sparse, _) = op.propagate(&input).unwrap();
        let dense = ops::conv2d(&input, &weight, &Tensor::zeros([2]), spec).unwrap();
        assert!(sparse.all_close(&dense, 1e-5));
    }

    #[test]
    fn linear_scatter_matches_matvec() {
        let weight = Tensor::from_fn([3, 4], |i| (i[0] * 4 + i[1]) as f32 * 0.1);
        let op = SnnOp::Linear {
            name: "l".into(),
            weight: weight.clone(),
            bias: Tensor::zeros([3]),
        };
        let input = Tensor::from_vec([2, 4], vec![1.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0]).unwrap();
        let (out, synops) = op.propagate(&input).unwrap();
        // Only 2 non-zero inputs × 3 outputs = 6 synops.
        assert_eq!(synops, 6);
        let expect = ops::matmul_a_bt(&input, &weight).unwrap();
        assert!(out.all_close(&expect, 1e-6));
    }

    #[test]
    fn zero_input_costs_zero_synops() {
        let op = SnnOp::Linear {
            name: "l".into(),
            weight: Tensor::ones([3, 4]),
            bias: Tensor::zeros([3]),
        };
        let (out, synops) = op.propagate(&Tensor::zeros([1, 4])).unwrap();
        assert_eq!(synops, 0);
        assert_eq!(out.sum(), 0.0);
    }

    #[test]
    fn inject_bias_scales() {
        let op = SnnOp::Linear {
            name: "l".into(),
            weight: Tensor::ones([2, 2]),
            bias: Tensor::from_vec([2], vec![1.0, -2.0]).unwrap(),
        };
        let mut drive = Tensor::zeros([1, 2]);
        op.inject_bias(&mut drive, 0.5).unwrap();
        assert_eq!(drive.data(), &[0.5, -1.0]);
        let mut wrong = Tensor::zeros([1, 3]);
        assert!(op.inject_bias(&mut wrong, 1.0).is_err());
    }

    #[test]
    fn neuron_count_and_macs() {
        let spec = DatasetSpec::new("t", 1, 16, 16, 4);
        let dnn = cnn_small(&mut rng(), &spec, PoolKind::Avg);
        let snn = SnnNetwork::from_dnn(&dnn).unwrap();
        // conv1: 8×16×16, conv2: 16×8×8, fc3: 64, fc4: 4
        let neurons = snn.neuron_count(&[1, 16, 16]).unwrap();
        assert_eq!(neurons, 8 * 16 * 16 + 16 * 8 * 8 + 64 + 4);
        let macs = snn.dense_macs(&[1, 16, 16]).unwrap();
        let expect = (16 * 16 * 8 * 9) as u64
            + (8 * 8 * 16 * 8 * 9) as u64
            + (16 * 4 * 4 * 64) as u64
            + (64 * 4) as u64;
        assert_eq!(macs, expect);
    }

    #[test]
    fn avg_pool_op_passes_scaled_spikes() {
        let op = SnnOp::AvgPool {
            window: 2,
            stride: 2,
        };
        let mut input = Tensor::zeros([1, 1, 4, 4]);
        input.set(&[0, 0, 0, 0], 1.0).unwrap();
        let (out, synops) = op.propagate(&input).unwrap();
        assert_eq!(synops, 0);
        assert_eq!(out.get(&[0, 0, 0, 0]), Some(0.25));
    }

    #[test]
    fn weight_rows_visit_every_weighted_op_with_correct_fan_in() {
        let spec = DatasetSpec::new("t", 1, 16, 16, 4);
        let dnn = cnn_small(&mut rng(), &spec, PoolKind::Avg);
        let mut snn = SnnNetwork::from_dnn(&dnn).unwrap();
        // conv1 [8,1,3,3], conv2 [16,8,3,3], fc3 [64,256], fc4 [4,64].
        let mut seen: Vec<(usize, usize, usize)> = Vec::new();
        snn.for_each_weight_row(|layer, row, weights| {
            seen.push((layer, row, weights.len()));
        });
        assert_eq!(seen.len(), 8 + 16 + 64 + 4);
        assert_eq!(seen[0], (0, 0, 9));
        assert_eq!(seen[8], (1, 0, 8 * 9));
        assert_eq!(seen[8 + 16], (2, 0, 256));
        assert_eq!(seen.last(), Some(&(3, 3, 64)));
        // Rows arrive in (layer, row) order, each exactly once.
        let mut expect = Vec::new();
        for (layer, rows, fan_in) in [(0, 8, 9), (1, 16, 72), (2, 64, 256), (3, 4, 64)] {
            for row in 0..rows {
                expect.push((layer, row, fan_in));
            }
        }
        assert_eq!(seen, expect);
        // Writes through the callback land in the op's weights.
        snn.for_each_weight_row(|layer, row, weights| {
            if layer == 0 && row == 2 {
                weights[0] = 42.0;
            }
        });
        match &snn.ops()[0] {
            SnnOp::Conv { weight, .. } => assert_eq!(weight.data()[2 * 9], 42.0),
            _ => panic!("first op should be a conv"),
        }
    }
}
