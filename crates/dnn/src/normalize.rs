//! Data-based weight normalization for DNN→SNN conversion.
//!
//! Following Diehl et al. (IJCNN 2015) and Rueckauer et al. (Frontiers
//! 2017), the trained network's weights are rescaled so that every
//! weighted-layer activation lies in `[0, 1]` over the calibration data.
//! This is the step that lets the paper set the TTFS threshold constant
//! `θ0 = 1` ("the range of integrated membrane potentials … was limited
//! [0, 1] by the data-based normalization", Sec. III-A).
//!
//! The transformation is prediction-preserving for ReLU networks: scaling
//! a layer's weights by `λ_{l-1}/λ_l` and its bias by `1/λ_l` rescales its
//! (positively homogeneous) activations by `1/λ_l` without changing the
//! argmax of the final logits.

use serde::{Deserialize, Serialize};
use t2fsnn_tensor::{Result, Tensor, TensorError};

use crate::layers::Layer;
use crate::network::Network;

/// Outcome of a [`normalize_for_snn`] run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NormalizationReport {
    /// `(layer_index, λ)` for every weighted layer, in network order;
    /// λ is the activation scale that was divided out.
    pub scales: Vec<(usize, f32)>,
    /// The percentile used when extracting λ (1.0 = exact maximum).
    pub percentile: f32,
}

impl NormalizationReport {
    /// λ of the `i`-th weighted layer.
    pub fn scale(&self, weighted_index: usize) -> Option<f32> {
        self.scales.get(weighted_index).map(|&(_, s)| s)
    }
}

/// Returns the `p`-quantile (0 < p ≤ 1) of the positive part of `values`.
///
/// Activations below zero are discarded: they are killed by ReLU and must
/// not influence the scale.
fn positive_percentile(values: &Tensor, p: f32) -> f32 {
    let mut pos: Vec<f32> = values.iter().copied().filter(|&x| x > 0.0).collect();
    if pos.is_empty() {
        return 1.0; // a dead layer keeps scale 1 to avoid dividing by 0
    }
    pos.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let idx = ((pos.len() as f32 * p).ceil() as usize).clamp(1, pos.len()) - 1;
    pos[idx]
}

/// Rescales `network`'s weights in place so that every weighted layer's
/// post-ReLU activation over `calibration` lies in `[0, 1]` (up to the
/// chosen percentile).
///
/// `calibration` must be a `[N, C, H, W]` batch of *unit-range* images —
/// the input layer's scale is taken as 1.
///
/// # Errors
///
/// Returns an error if the forward pass fails or `percentile` is outside
/// `(0, 1]`.
pub fn normalize_for_snn(
    network: &mut Network,
    calibration: &Tensor,
    percentile: f32,
) -> Result<NormalizationReport> {
    if !(percentile > 0.0 && percentile <= 1.0) {
        return Err(TensorError::InvalidArgument {
            op: "normalize_for_snn",
            message: format!("percentile must be in (0, 1], got {percentile}"),
        });
    }
    if network
        .layers()
        .iter()
        .any(|l| matches!(l, Layer::BatchNorm(_)))
    {
        return Err(TensorError::InvalidArgument {
            op: "normalize_for_snn",
            message: "network contains batch norm; call Network::fold_batchnorm() first \
                      (its shift term breaks the ReLU homogeneity normalization relies on)"
                .to_string(),
        });
    }
    let (_, activations) = network.forward_recording(calibration)?;
    let mut scales = Vec::new();
    let mut prev_scale = 1.0f32;
    for (i, layer) in network.layers_mut().iter_mut().enumerate() {
        let (weight, bias) = match layer {
            Layer::Conv2d(l) => (&mut l.weight, &mut l.bias),
            Layer::Linear(l) => (&mut l.weight, &mut l.bias),
            _ => continue,
        };
        // λ from the positive part of this layer's own (pre-normalization)
        // output — equivalent to the post-ReLU maximum.
        let lambda = positive_percentile(&activations[i], percentile).max(1e-6);
        let w_scale = prev_scale / lambda;
        weight.map_inplace(|w| w * w_scale);
        bias.map_inplace(|b| b / lambda);
        scales.push((i, lambda));
        prev_scale = lambda;
    }
    Ok(NormalizationReport { scales, percentile })
}

/// Weighted layer `i`'s activation tap: the ReLU that follows it, or
/// the layer itself (the final classifier, or a conv followed by batch
/// norm). Returns `(weighted layer, tapped layer)` pairs in network
/// order; the tapped indices strictly increase.
fn weighted_taps(layers: &[Layer]) -> Vec<(usize, usize)> {
    (0..layers.len())
        .filter(|&i| layers[i].has_params())
        .map(|i| match layers.get(i + 1) {
            Some(Layer::Relu(_)) => (i, i + 1),
            _ => (i, i),
        })
        .collect()
}

/// Records the post-activation output of every *weighted* layer for the
/// given input batch. Layer `i`'s entry is the output of the ReLU that
/// follows it, or the raw output for the final classifier layer.
///
/// This is the ground truth `z̄` the paper's gradient-based kernel
/// optimization trains against (Sec. III-B). It holds every activation
/// of the whole batch at once; [`visit_weighted_activations`] streams
/// the same values chunk by chunk.
///
/// # Errors
///
/// Propagates forward-pass errors.
pub fn weighted_layer_activations(
    network: &mut Network,
    input: &Tensor,
) -> Result<Vec<(usize, Tensor)>> {
    let (_, activations) = network.forward_recording(input)?;
    Ok(weighted_taps(network.layers())
        .into_iter()
        .map(|(i, tap)| (i, activations[tap].clone()))
        .collect())
}

/// Images per forward chunk of [`visit_weighted_activations`]: small
/// enough that a chunk's activations stay cache-sized, large enough
/// that the small-plane convs fill their grouped GEMMs on every worker.
const FORWARD_CHUNK: usize = 64;

/// Runs the inference forward over `input` in chunks of 64 images and
/// calls `visit(k, activations)` with the `k`-th weighted layer's
/// activation of each chunk — the tap of [`weighted_layer_activations`].
/// Chunks arrive in batch order, so concatenating layer `k`'s chunks
/// gives exactly that function's `k`-th tensor: every layer is
/// per-image at inference, and each conv or linear output element
/// accumulates in the same order whatever the batch. Nothing outlives
/// its chunk.
///
/// # Errors
///
/// Propagates forward-pass errors, or an error if `input` has rank 0.
pub fn visit_weighted_activations(
    network: &mut Network,
    input: &Tensor,
    mut visit: impl FnMut(usize, &Tensor),
) -> Result<()> {
    let Some((&n, image_dims)) = input.dims().split_first() else {
        return Err(TensorError::InvalidArgument {
            op: "visit_weighted_activations",
            message: "expected a batch, got a scalar".to_string(),
        });
    };
    let taps = weighted_taps(network.layers());
    let feature: usize = image_dims.iter().product();
    for start in (0..n).step_by(FORWARD_CHUNK) {
        let end = (start + FORWARD_CHUNK).min(n);
        let mut dims = input.dims().to_vec();
        dims[0] = end - start;
        let mut x = Tensor::from_vec(dims, input.data()[start * feature..end * feature].to_vec())?;
        let mut next = 0;
        for (i, layer) in network.layers_mut().iter_mut().enumerate() {
            if next == taps.len() {
                break; // nothing downstream is tapped
            }
            x = layer.forward(&x, false)?;
            if taps[next].1 == i {
                visit(next, &x);
                next += 1;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::architectures::{cnn_small, mlp_tiny};
    use crate::layers::PoolKind;
    use crate::train::{evaluate, train, TrainConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use t2fsnn_data::{DatasetSpec, SyntheticConfig};

    fn trained_small_net() -> (crate::network::Network, t2fsnn_data::Dataset) {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let data = SyntheticConfig::new(DatasetSpec::tiny(), 4).generate(64);
        let mut net = mlp_tiny(&mut rng, &data.spec);
        train(&mut net, &data, &TrainConfig::default(), &mut rng).unwrap();
        (net, data)
    }

    #[test]
    fn normalization_bounds_activations_to_unit_range() {
        let (mut net, data) = trained_small_net();
        normalize_for_snn(&mut net, &data.images, 1.0).unwrap();
        let acts = weighted_layer_activations(&mut net, &data.images).unwrap();
        for (idx, act) in &acts {
            assert!(
                act.max() <= 1.0 + 1e-4,
                "layer {idx} exceeds unit range: {}",
                act.max()
            );
        }
    }

    #[test]
    fn normalization_preserves_predictions() {
        let (mut net, data) = trained_small_net();
        let before = net.predict(&data.images).unwrap();
        normalize_for_snn(&mut net, &data.images, 1.0).unwrap();
        let after = net.predict(&data.images).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn normalization_preserves_accuracy_on_conv_net() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let spec = DatasetSpec::new("small", 1, 16, 16, 4);
        let data = SyntheticConfig::new(spec.clone(), 8).generate(64);
        let mut net = cnn_small(&mut rng, &spec, PoolKind::Avg);
        train(&mut net, &data, &TrainConfig::default(), &mut rng).unwrap();
        let acc_before = evaluate(&mut net, &data, 16).unwrap();
        normalize_for_snn(&mut net, &data.images, 0.999).unwrap();
        let acc_after = evaluate(&mut net, &data, 16).unwrap();
        assert!(
            (acc_before - acc_after).abs() < 0.05,
            "accuracy moved too much: {acc_before} -> {acc_after}"
        );
    }

    #[test]
    fn percentile_validation() {
        let (mut net, data) = trained_small_net();
        assert!(normalize_for_snn(&mut net, &data.images, 0.0).is_err());
        assert!(normalize_for_snn(&mut net, &data.images, 1.5).is_err());
    }

    #[test]
    fn positive_percentile_ignores_negatives() {
        let t = Tensor::from_vec([5], vec![-10.0, -1.0, 0.5, 1.0, 2.0]).unwrap();
        assert_eq!(positive_percentile(&t, 1.0), 2.0);
        assert_eq!(positive_percentile(&t, 0.5), 1.0);
    }

    #[test]
    fn positive_percentile_of_dead_layer_is_one() {
        let t = Tensor::from_vec([3], vec![-1.0, -2.0, 0.0]).unwrap();
        assert_eq!(positive_percentile(&t, 1.0), 1.0);
    }

    #[test]
    fn weighted_layer_activations_are_post_relu() {
        let (mut net, data) = trained_small_net();
        let acts = weighted_layer_activations(&mut net, &data.images).unwrap();
        // mlp_tiny: fc1 (followed by relu) and fc2 (final) are weighted.
        assert_eq!(acts.len(), 2);
        // fc1's recorded activation must be non-negative (post-ReLU).
        assert!(acts[0].1.min() >= 0.0);
    }
}
