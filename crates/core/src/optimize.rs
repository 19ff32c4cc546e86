//! Gradient-based kernel optimization — the paper's "+GO" (Sec. III-B,
//! Eq. 9–14).
//!
//! The kernels trade *precision* against *representable range*: a large τ
//! transmits values precisely but cannot express small values within the
//! window `T`; a small τ reaches small values but quantizes coarsely. The
//! paper resolves the trade-off by supervised, layer-wise SGD on `(τ, t_d)`
//! against the DNN's own activations `z̄`:
//!
//! * `L_prec` (Eq. 9) — mean squared encode→decode error over spiking
//!   values; its τ-gradient is Eq. 12;
//! * `L_min` (Eq. 10) — squared gap between the smallest ground-truth
//!   value and the kernel's minimum representable `exp(-(T-t_d)/τ)`;
//!   τ-gradient Eq. 13;
//! * `L_max` (Eq. 11) — squared gap between the largest ground-truth value
//!   and the maximum representable `exp(t_d/τ)`; t_d-gradient Eq. 14.

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use t2fsnn_dnn::{visit_weighted_activations, Network};
use t2fsnn_tensor::{Result, Tensor, TensorError};

use crate::kernel::{ExpKernel, KernelParams};
use crate::network::T2fsnn;

/// Hyper-parameters of the kernel optimizer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GoConfig {
    /// Learning rate on τ (driven by `L_prec` and `L_min`).
    pub lr_tau: f32,
    /// Learning rate on t_d (driven by `L_max`).
    pub lr_td: f32,
    /// Activation values per SGD mini-batch.
    pub batch_size: usize,
    /// Passes over the activation set.
    pub passes: usize,
    /// Record a loss sample every this many consumed values (Fig. 4's
    /// x-axis resolution), plus one before the first and one after the
    /// last mini-batch. `0` (the default) records no history: each
    /// sample evaluates all three losses, which costs more than the
    /// SGD itself at a fine resolution.
    pub record_every: usize,
}

impl Default for GoConfig {
    /// Rates tuned for unit-range activations and windows of 16–128 steps.
    fn default() -> Self {
        GoConfig {
            lr_tau: 20.0,
            lr_td: 2.0,
            batch_size: 256,
            passes: 2,
            record_every: 0,
        }
    }
}

/// Upper bound on values used per layer: beyond this, activations are
/// subsampled by striding. A VGG conv layer over a few hundred calibration
/// images yields millions of activations; a deterministic ~10⁵ sample
/// estimates the loss surface more than precisely enough for two scalar
/// parameters.
const MAX_OPT_VALUES: usize = 100_000;

/// Upper bound on values used when *recording* loss samples for Fig. 4
/// histories (full-set evaluation at every record point would dominate
/// the runtime).
const MAX_LOSS_VALUES: usize = 20_000;

/// Deterministic stride subsample of `values` to at most `cap` entries.
fn subsample(values: &[f32], cap: usize) -> Vec<f32> {
    if values.len() <= cap {
        return values.to_vec();
    }
    let stride = values.len() / cap + 1;
    values.iter().step_by(stride).copied().collect()
}

/// [`subsample`] of a `total`-element sequence that arrives in pieces:
/// after every piece has been pushed, in order, `values` holds exactly
/// `subsample(whole, cap)`.
struct StrideSampler {
    stride: usize,
    /// Global index of the next element to keep.
    next: usize,
    /// Elements pushed so far.
    seen: usize,
    values: Vec<f32>,
}

impl StrideSampler {
    fn new(total: usize, cap: usize) -> Self {
        let stride = if total <= cap { 1 } else { total / cap + 1 };
        StrideSampler {
            stride,
            next: 0,
            seen: 0,
            values: Vec::with_capacity(total.div_ceil(stride)),
        }
    }

    fn push(&mut self, piece: &[f32]) {
        let end = self.seen + piece.len();
        while self.next < end {
            self.values.push(piece[self.next - self.seen]);
            self.next += self.stride;
        }
        self.seen = end;
    }
}

/// One sample of the three losses during optimization (a Fig. 4 point).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LossSample {
    /// Number of activation values consumed so far ("# of data").
    pub seen: usize,
    /// Precision loss `L_prec` (Eq. 9).
    pub l_prec: f32,
    /// Minimum-representation loss `L_min` (Eq. 10).
    pub l_min: f32,
    /// Maximum-representation loss `L_max` (Eq. 11).
    pub l_max: f32,
    /// τ at this point.
    pub tau: f32,
    /// t_d at this point.
    pub t_d: f32,
}

/// Result of optimizing one layer's kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GoOutcome {
    /// Optimized parameters.
    pub params: KernelParams,
    /// Loss trajectory (Fig. 4 series); empty unless
    /// [`GoConfig::record_every`] is positive.
    pub history: Vec<LossSample>,
}

/// Computes the three losses of Eq. 9–11 for ground-truth values `z̄`
/// under kernel `params` over window `T`.
///
/// Values that produce no spike contribute nothing to `L_prec` (the set
/// `F` in Eq. 9 only contains spike times); `z̄_min` is the smallest
/// *positive* ground-truth value and `z̄_max` the largest.
pub fn kernel_losses(
    values: &[f32],
    params: KernelParams,
    window: usize,
    theta0: f32,
) -> LossSample {
    let kernel = ExpKernel::new(params, window);
    let mut n_spikes = 0usize;
    let mut prec = 0.0f32;
    let mut z_min = f32::INFINITY;
    let mut z_max = f32::NEG_INFINITY;
    for &x in values {
        if x > 0.0 {
            z_min = z_min.min(x);
            z_max = z_max.max(x);
        }
        if let Some(t) = kernel.encode(x, theta0) {
            let decoded = kernel.decode(t) * theta0;
            prec += 0.5 * (x - decoded) * (x - decoded);
            n_spikes += 1;
        }
    }
    let l_prec = if n_spikes > 0 {
        prec / n_spikes as f32
    } else {
        0.0
    };
    let (l_min, l_max) = if z_min.is_finite() {
        let zh_min = kernel.min_representable();
        let zh_max = kernel.max_representable();
        (
            0.5 * (z_min - zh_min) * (z_min - zh_min),
            0.5 * (z_max - zh_max) * (z_max - zh_max),
        )
    } else {
        (0.0, 0.0)
    };
    LossSample {
        seen: 0,
        l_prec,
        l_min,
        l_max,
        tau: params.tau,
        t_d: params.t_d,
    }
}

/// One SGD step on a mini-batch of ground-truth values, returning updated
/// parameters (Eq. 12–14).
fn sgd_step(
    values: &[f32],
    params: KernelParams,
    window: usize,
    theta0: f32,
    config: &GoConfig,
) -> KernelParams {
    let kernel = ExpKernel::new(params, window);
    let t_f = window as f32;
    let mut grad_tau = 0.0f32;
    let mut n_spikes = 0usize;
    let mut z_min = f32::INFINITY;
    let mut z_max = f32::NEG_INFINITY;
    for &x in values {
        if x > 0.0 {
            z_min = z_min.min(x);
            z_max = z_max.max(x);
        }
        if let Some(t) = kernel.encode(x, theta0) {
            let decoded = kernel.decode(t) * theta0;
            // Eq. 12: ∂L_prec/∂τ = -(1/|F|)·Σ (t_f − t_d)/τ² ·(z̄−ẑ)·ẑ
            grad_tau -=
                (t as f32 - params.t_d) / (params.tau * params.tau) * (x - decoded) * decoded;
            n_spikes += 1;
        }
    }
    if n_spikes > 0 {
        grad_tau /= n_spikes as f32;
    }
    let mut grad_td = 0.0f32;
    if z_min.is_finite() {
        // Eq. 13: ∂L_min/∂τ = -((T − t_d)/τ²)·(z̄_min − ẑ_min)·ẑ_min
        let zh_min = kernel.min_representable();
        grad_tau -= (t_f - params.t_d) / (params.tau * params.tau) * (z_min - zh_min) * zh_min;
        // Eq. 14: ∂L_max/∂t_d = -(1/τ)·(z̄_max − ẑ_max)·ẑ_max
        let zh_max = kernel.max_representable();
        grad_td -= (z_max - zh_max) * zh_max / params.tau;
    }
    let tau = (params.tau - config.lr_tau * grad_tau).clamp(0.5, 4.0 * window as f32);
    let t_d = (params.t_d - config.lr_td * grad_td).clamp(0.0, window as f32 * 0.5);
    KernelParams { tau, t_d }
}

/// Optimizes one layer's kernel against a set of ground-truth activation
/// values via mini-batch SGD (the per-layer core of "+GO").
///
/// # Errors
///
/// Returns an error if `values` is empty.
pub fn optimize_kernel<R: Rng + ?Sized>(
    values: &[f32],
    initial: KernelParams,
    window: usize,
    theta0: f32,
    config: &GoConfig,
    rng: &mut R,
) -> Result<GoOutcome> {
    if values.is_empty() {
        return Err(TensorError::InvalidArgument {
            op: "optimize_kernel",
            message: "cannot optimize a kernel against zero activations".to_string(),
        });
    }
    let _s = t2fsnn_tensor::trace::span("go/optimize_kernel");
    let values = subsample(values, MAX_OPT_VALUES);
    let values = values.as_slice();
    let loss_values = subsample(values, MAX_LOSS_VALUES);
    let mut params = initial;
    let mut history = Vec::new();
    let mut seen = 0usize;
    let mut last_record = 0usize;
    let record = |seen: usize, params: KernelParams, history: &mut Vec<LossSample>| {
        if config.record_every == 0 {
            return;
        }
        let _s = t2fsnn_tensor::trace::span("go/record_losses");
        let mut sample = kernel_losses(&loss_values, params, window, theta0);
        sample.seen = seen;
        history.push(sample);
    };
    record(0, params, &mut history);
    let mut order: Vec<usize> = (0..values.len()).collect();
    for _ in 0..config.passes {
        order.shuffle(rng);
        for chunk in order.chunks(config.batch_size.max(1)) {
            let batch: Vec<f32> = chunk.iter().map(|&i| values[i]).collect();
            params = sgd_step(&batch, params, window, theta0, config);
            seen += batch.len();
            if seen - last_record >= config.record_every {
                record(seen, params, &mut history);
                last_record = seen;
            }
        }
    }
    record(seen, params, &mut history);
    Ok(GoOutcome { params, history })
}

/// Optimizes every hidden layer's kernel of `model` against the DNN's
/// activations on `images` — the full "+GO" procedure.
///
/// The input encoder is trained against the raw pixel values, and each
/// weighted hidden layer against its post-ReLU DNN activation (the `z̄` of
/// Eq. 9). The output layer keeps its kernel (it never fires).
///
/// Returns one [`GoOutcome`] per optimized kernel: index 0 is the input
/// encoder, then one per hidden layer.
///
/// # Errors
///
/// Propagates forward-pass and validation errors.
pub fn optimize_model<R: Rng + ?Sized>(
    model: &mut T2fsnn,
    dnn: &mut Network,
    images: &Tensor,
    config: &GoConfig,
    rng: &mut R,
) -> Result<Vec<GoOutcome>> {
    let calibration = GoCalibration::collect(dnn, images)?;
    optimize_model_calibrated(model, &calibration, config, rng)
}

/// The ground-truth value sets kernel optimization trains against:
/// the raw pixel distribution for the input encoder and each hidden
/// weighted layer's post-ReLU DNN activations (the `z̄` of Eq. 9), each
/// already stride-subsampled to the ≤ 10⁵ values [`optimize_kernel`]
/// reads.
///
/// Collecting them runs the DNN forward over every calibration image,
/// so harness code that builds several GO variants of the same network
/// collects once and calls [`optimize_model_calibrated`] per variant.
pub struct GoCalibration {
    pixels: Vec<f32>,
    hidden_values: Vec<Vec<f32>>,
}

impl GoCalibration {
    /// Streams the DNN forward over `images` in chunks and keeps, per
    /// value set, exactly the elements `optimize_kernel` would keep from
    /// the whole-set tensor (the stride follows from the set's total
    /// size: images × values per image). The kernels optimized against
    /// it are therefore those of the whole-set values, while at most
    /// one chunk of activations is alive at a time.
    ///
    /// # Errors
    ///
    /// Propagates forward-pass errors.
    pub fn collect(dnn: &mut Network, images: &Tensor) -> Result<Self> {
        let _s = t2fsnn_tensor::trace::span("go/collect_activations");
        let mut pixels = StrideSampler::new(images.numel(), MAX_OPT_VALUES);
        pixels.push(images.data());
        // The last weighted layer never fires, so it is skipped.
        let weighted = dnn.layers().iter().filter(|l| l.has_params()).count();
        let mut hidden: Vec<Option<StrideSampler>> = (1..weighted).map(|_| None).collect();
        let n = images.dims().first().copied().unwrap_or(0);
        visit_weighted_activations(dnn, images, |k, act| {
            if let Some(slot) = hidden.get_mut(k) {
                let per_image = act.numel() / act.dims()[0].max(1);
                slot.get_or_insert_with(|| StrideSampler::new(n * per_image, MAX_OPT_VALUES))
                    .push(act.data());
            }
        })?;
        Ok(GoCalibration {
            pixels: pixels.values,
            hidden_values: hidden
                .into_iter()
                .map(|s| s.map(|s| s.values).unwrap_or_default())
                .collect(),
        })
    }

    /// Number of hidden (firing) layers covered.
    pub fn hidden_layers(&self) -> usize {
        self.hidden_values.len()
    }

    /// A calibration with no values, for building variants that skip
    /// kernel optimization.
    pub fn empty() -> Self {
        GoCalibration {
            pixels: Vec::new(),
            hidden_values: Vec::new(),
        }
    }
}

/// [`optimize_model`] against precollected [`GoCalibration`] data.
///
/// # Errors
///
/// Propagates validation errors (e.g. a calibration collected from a
/// network with a different number of hidden layers).
pub fn optimize_model_calibrated<R: Rng + ?Sized>(
    model: &mut T2fsnn,
    calibration: &GoCalibration,
    config: &GoConfig,
    rng: &mut R,
) -> Result<Vec<GoOutcome>> {
    // `kernels()` has one entry per weighted layer including the output
    // layer, which never fires; the calibration must cover exactly the
    // firing (hidden) layers — a mismatch either way means it was
    // collected from a different network.
    let firing_layers = model.kernels().len().saturating_sub(1);
    if calibration.hidden_layers() != firing_layers {
        return Err(TensorError::InvalidArgument {
            op: "optimize_model_calibrated",
            message: format!(
                "calibration covers {} hidden layers but the model has {} firing layers — \
                 was it collected from a different network?",
                calibration.hidden_layers(),
                firing_layers
            ),
        });
    }
    let window = model.config().time_window;
    let theta0 = model.config().theta0;
    let mut outcomes = Vec::new();

    // Input encoder ← pixel distribution.
    let outcome = optimize_kernel(
        &calibration.pixels,
        model.input_kernel(),
        window,
        theta0,
        config,
        rng,
    )?;
    model.set_input_kernel(outcome.params);
    outcomes.push(outcome);

    // Hidden layers ← DNN activations.
    for (i, values) in calibration.hidden_values.iter().enumerate() {
        let outcome = optimize_kernel(values, model.kernels()[i], window, theta0, config, rng)?;
        model.set_kernel(i, outcome.params)?;
        outcomes.push(outcome);
    }
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(4)
    }

    /// The whole-set path `GoCalibration::collect` replaced: record every
    /// weighted layer's activation over all images, then subsample.
    fn collect_oracle(dnn: &mut Network, images: &Tensor) -> (Vec<usize>, GoCalibration) {
        let activations = t2fsnn_dnn::weighted_layer_activations(dnn, images).unwrap();
        let hidden = activations.len() - 1;
        let sizes = activations[..hidden]
            .iter()
            .map(|(_, a)| a.numel())
            .collect();
        let calibration = GoCalibration {
            pixels: subsample(images.data(), MAX_OPT_VALUES),
            hidden_values: activations[..hidden]
                .iter()
                .map(|(_, a)| subsample(a.data(), MAX_OPT_VALUES))
                .collect(),
        };
        (sizes, calibration)
    }

    #[test]
    fn streaming_collect_matches_whole_set_oracle() {
        use t2fsnn_data::{DatasetSpec, SyntheticConfig};
        use t2fsnn_dnn::architectures::{vgg_scaled, VggScale};
        // 100 images: one full forward chunk and a partial one. The
        // pixels and `conv1_1` (409 600 values) are strided, the deep
        // layers on 4×4 and 2×2 planes are kept whole.
        let spec = DatasetSpec::new("go-stream", 3, 32, 32, 5);
        let images = SyntheticConfig::new(spec.clone(), 6).generate(100).images;
        let scale = VggScale {
            base_channels: 4,
            convs_per_block: [1, 1, 1, 1, 1],
            fc_width: 16,
            ..VggScale::default()
        };
        let mut dnn = vgg_scaled(&mut rng(), &spec, scale);
        let (sizes, want) = collect_oracle(&mut dnn, &images);
        assert!(sizes.iter().any(|&s| s > MAX_OPT_VALUES));
        assert!(sizes.iter().any(|&s| s <= MAX_OPT_VALUES));
        let got = GoCalibration::collect(&mut dnn, &images).unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.pixels), bits(&want.pixels));
        assert_eq!(got.hidden_layers(), want.hidden_layers());
        for (k, (g, w)) in got
            .hidden_values
            .iter()
            .zip(&want.hidden_values)
            .enumerate()
        {
            assert_eq!(bits(g), bits(w), "hidden layer {k}");
        }
    }

    #[test]
    fn stride_sampler_matches_subsample_for_any_split() {
        let values: Vec<f32> = (0..1000).map(|i| i as f32).collect();
        for (len, cap) in [
            (0, 10),
            (10, 10),
            (11, 10),
            (1000, 7),
            (999, 100),
            (500, 499),
        ] {
            let whole = &values[..len];
            for piece in [1, 3, 64, 1000] {
                let mut sampler = StrideSampler::new(len, cap);
                for chunk in whole.chunks(piece) {
                    sampler.push(chunk);
                }
                sampler.push(&[]);
                assert_eq!(sampler.values, subsample(whole, cap), "{len}/{cap}/{piece}");
            }
        }
    }

    /// The default rates, recording a loss sample every 16 384 values
    /// (for 4096 values over two passes, that is the first and the last
    /// sample only).
    fn recording() -> GoConfig {
        GoConfig {
            record_every: 16_384,
            ..GoConfig::default()
        }
    }

    /// A plausible activation set: many small values, few large.
    fn activations() -> Vec<f32> {
        let mut rng = rng();
        (0..4096)
            .map(|_| {
                let u: f32 = rng.gen_range(0.0..1.0);
                u * u // skew toward small values, like post-ReLU activations
            })
            .collect()
    }

    #[test]
    fn small_tau_grows_and_precision_improves() {
        // Fig. 4(a), red curve: τ0 = 2, T = 20 → τ increases, L_prec falls.
        let values = activations();
        let outcome = optimize_kernel(
            &values,
            KernelParams::new(2.0, 0.0),
            20,
            1.0,
            &recording(),
            &mut rng(),
        )
        .unwrap();
        let first = outcome.history.first().unwrap();
        let last = outcome.history.last().unwrap();
        assert!(
            outcome.params.tau > 2.0,
            "τ should grow from 2.0, got {}",
            outcome.params.tau
        );
        assert!(
            last.l_prec < first.l_prec,
            "L_prec should fall: {} -> {}",
            first.l_prec,
            last.l_prec
        );
    }

    #[test]
    fn large_tau_shrinks_to_fix_min_representation() {
        // Fig. 4(a), blue curve: τ0 = 18, T = 20 → τ decreases, L_min falls.
        let values = activations();
        let outcome = optimize_kernel(
            &values,
            KernelParams::new(18.0, 0.0),
            20,
            1.0,
            &recording(),
            &mut rng(),
        )
        .unwrap();
        let first = outcome.history.first().unwrap();
        let last = outcome.history.last().unwrap();
        assert!(
            outcome.params.tau < 18.0,
            "τ should shrink from 18.0, got {}",
            outcome.params.tau
        );
        assert!(
            last.l_min < first.l_min,
            "L_min should fall: {} -> {}",
            first.l_min,
            last.l_min
        );
    }

    #[test]
    fn l_max_decreases_via_t_d() {
        // Fig. 4(b): L_max falls as t_d adapts the maximum representable.
        let values = activations();
        let outcome = optimize_kernel(
            &values,
            KernelParams::new(2.0, 0.0),
            20,
            1.0,
            &recording(),
            &mut rng(),
        )
        .unwrap();
        let first = outcome.history.first().unwrap();
        let last = outcome.history.last().unwrap();
        assert!(
            last.l_max <= first.l_max + 1e-6,
            "L_max should not grow: {} -> {}",
            first.l_max,
            last.l_max
        );
    }

    #[test]
    fn losses_zero_for_dead_layer() {
        let sample = kernel_losses(&[0.0, -1.0], KernelParams::default(), 32, 1.0);
        assert_eq!(sample.l_prec, 0.0);
        assert_eq!(sample.l_min, 0.0);
        assert_eq!(sample.l_max, 0.0);
    }

    #[test]
    fn empty_values_rejected() {
        assert!(optimize_kernel(
            &[],
            KernelParams::default(),
            32,
            1.0,
            &GoConfig::default(),
            &mut rng()
        )
        .is_err());
    }

    #[test]
    fn history_is_monotone_in_seen() {
        let values = activations();
        let outcome = optimize_kernel(
            &values,
            KernelParams::new(6.0, 0.0),
            20,
            1.0,
            &recording(),
            &mut rng(),
        )
        .unwrap();
        assert!(outcome.history.len() >= 2);
        for pair in outcome.history.windows(2) {
            assert!(pair[1].seen >= pair[0].seen);
        }
        // The default records nothing, and recording never moves the
        // optimized kernel.
        let quiet = optimize_kernel(
            &values,
            KernelParams::new(6.0, 0.0),
            20,
            1.0,
            &GoConfig::default(),
            &mut rng(),
        )
        .unwrap();
        assert!(quiet.history.is_empty());
        assert_eq!(quiet.params.tau.to_bits(), outcome.params.tau.to_bits());
        assert_eq!(quiet.params.t_d.to_bits(), outcome.params.t_d.to_bits());
    }

    #[test]
    fn tau_stays_in_sane_bounds() {
        // Adversarial data: all values equal — gradients must not blow up.
        let values = vec![0.5f32; 1024];
        let outcome = optimize_kernel(
            &values,
            KernelParams::new(1.0, 0.0),
            16,
            1.0,
            &GoConfig {
                lr_tau: 1000.0,
                lr_td: 1000.0,
                ..GoConfig::default()
            },
            &mut rng(),
        )
        .unwrap();
        assert!(outcome.params.tau >= 0.5);
        assert!(outcome.params.tau <= 64.0);
        assert!(outcome.params.t_d >= 0.0);
        assert!(outcome.params.t_d <= 8.0);
    }
}
