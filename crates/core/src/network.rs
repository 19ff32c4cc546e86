//! The T2FSNN model: a converted spiking network plus per-layer TTFS
//! kernels and pipeline configuration.

use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};
use t2fsnn_dnn::Network;
use t2fsnn_snn::{OpPlan, SnnNetwork};
use t2fsnn_tensor::{perturb, Result, TensorError};

use crate::kernel::{ExpKernel, KernelParams};

/// Timing-noise model for robustness / failure-injection experiments.
///
/// TTFS coding carries information in spike *timing*, so fabric-level
/// timing noise directly corrupts values: a spike arriving `±j` steps off
/// decodes to `ε(t ± j)` instead of `ε(t)`, and a dropped spike decodes to
/// nothing. This is an extension beyond the paper (which assumes an ideal
/// fabric); the `repro_robustness` binary sweeps it (its `jitter` and
/// `drop` families).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoiseConfig {
    /// Maximum absolute spike-time perturbation, uniform in `[-j, +j]`
    /// steps, applied at decode.
    pub jitter: usize,
    /// Probability that an emitted spike is lost in transit (it still
    /// counts as fired — the neuron stays refractory — but contributes no
    /// downstream potential).
    pub drop_prob: f32,
    /// RNG seed, so noisy runs stay reproducible.
    pub seed: u64,
}

impl NoiseConfig {
    /// Pure timing jitter, no drops.
    pub fn jitter_only(jitter: usize, seed: u64) -> Self {
        NoiseConfig {
            jitter,
            drop_prob: 0.0,
            seed,
        }
    }

    /// Pure spike loss, no jitter.
    ///
    /// # Panics
    ///
    /// Panics if `drop_prob` is outside `[0, 1]`.
    pub fn drops_only(drop_prob: f32, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&drop_prob),
            "drop probability must be in [0, 1]"
        );
        NoiseConfig {
            jitter: 0,
            drop_prob,
            seed,
        }
    }
}

/// Pipeline configuration (Sec. III-A and III-C).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct T2fsnnConfig {
    /// Per-layer time window `T` (both integration and fire phase length).
    pub time_window: usize,
    /// Threshold constant θ0 (Eq. 6). The paper fixes 1.0 because
    /// data-based normalization bounds activations to `[0, 1]`.
    pub theta0: f32,
    /// Early firing (Sec. III-C): if set, each layer's fire phase starts
    /// this many steps after its integration phase began, instead of `T`.
    /// The paper uses `T/2`.
    pub early_start: Option<usize>,
    /// Accuracy-curve sampling interval in global time steps.
    pub record_every: usize,
    /// Optional timing-noise injection (extension; `None` = ideal fabric).
    pub noise: Option<NoiseConfig>,
    /// Dense vs event-driven kernel dispatch (not serialized: a runtime
    /// execution knob with no effect on results — the engines are
    /// bit-identical and the determinism suite asserts it).
    #[serde(skip)]
    pub engine: t2fsnn_snn::SimEngine,
}

impl T2fsnnConfig {
    /// Baseline configuration (no early firing) with window `T`.
    ///
    /// # Panics
    ///
    /// Panics if `time_window == 0`.
    pub fn new(time_window: usize) -> Self {
        assert!(time_window > 0, "time window must be positive");
        T2fsnnConfig {
            time_window,
            theta0: 1.0,
            early_start: None,
            record_every: time_window,
            noise: None,
            engine: t2fsnn_snn::SimEngine::default(),
        }
    }

    /// Enables timing-noise injection (see [`NoiseConfig`]).
    pub fn with_noise(mut self, noise: NoiseConfig) -> Self {
        self.noise = Some(noise);
        self
    }

    /// Overrides the execution engine (the result is bit-identical either
    /// way; [`t2fsnn_snn::SimEngine::Dense`] exists as the reference for
    /// tests and for profiling the dispatch itself).
    pub fn with_engine(mut self, engine: t2fsnn_snn::SimEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Enables early firing at the paper's recommended `T/2` offset.
    pub fn with_early_firing(mut self) -> Self {
        self.early_start = Some((self.time_window / 2).max(1));
        self
    }

    /// Enables early firing at a custom offset (must be in `1..=T`).
    ///
    /// # Panics
    ///
    /// Panics if `offset` is zero or exceeds the time window.
    pub fn with_early_start(mut self, offset: usize) -> Self {
        assert!(
            offset >= 1 && offset <= self.time_window,
            "early-firing offset must be in 1..=T"
        );
        self.early_start = Some(offset);
        self
    }

    /// The pipeline stride between consecutive layers' fire-phase starts:
    /// `T` without early firing, the early-start offset with it.
    pub fn stride(&self) -> usize {
        self.early_start.unwrap_or(self.time_window)
    }
}

/// A complete T2FSNN: weights, kernels and pipeline settings, plus the
/// compiled execution plan its inference calls share (see
/// [`T2fsnn::plan`]).
///
/// # Examples
///
/// ```no_run
/// use rand::SeedableRng;
/// use t2fsnn::{KernelParams, T2fsnn, T2fsnnConfig};
/// use t2fsnn_data::DatasetSpec;
/// use t2fsnn_dnn::architectures;
///
/// # fn main() -> Result<(), t2fsnn_tensor::TensorError> {
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// let dnn = architectures::vgg_scaled(&mut rng, &DatasetSpec::cifar10_like(), Default::default());
/// let model = T2fsnn::from_dnn(&dnn, T2fsnnConfig::new(32), KernelParams::default())?;
/// println!("pipeline latency: {} steps", model.total_steps());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct T2fsnn {
    net: SnnNetwork,
    input_kernel: KernelParams,
    kernels: Vec<KernelParams>,
    config: T2fsnnConfig,
    /// The compiled plan of the first input shape this model ran, keyed
    /// by that shape. Not serialized (a loaded model recompiles on first
    /// use); clones share it, and [`T2fsnn::perturb_weights`] — the only
    /// weight mutator — resets it. The plan holds no engine state, so a
    /// clone switched to another [`t2fsnn_snn::SimEngine`] reuses it.
    #[serde(skip)]
    plan: OnceLock<(Vec<usize>, Arc<OpPlan>)>,
}

impl T2fsnn {
    /// Converts a trained (and data-normalized) DNN into a T2FSNN, giving
    /// every layer the same initial kernel parameters. Run
    /// [`crate::optimize::optimize_model`] afterwards to train them
    /// (the paper's "+GO").
    ///
    /// # Errors
    ///
    /// Propagates conversion errors (e.g. max pooling, which has no exact
    /// spiking equivalent).
    pub fn from_dnn(dnn: &Network, config: T2fsnnConfig, initial: KernelParams) -> Result<Self> {
        let net = SnnNetwork::from_dnn(dnn)?;
        let kernels = vec![initial; net.weighted_count()];
        Ok(T2fsnn {
            net,
            input_kernel: initial,
            kernels,
            config,
            plan: OnceLock::new(),
        })
    }

    /// The underlying converted network.
    pub fn network(&self) -> &SnnNetwork {
        &self.net
    }

    /// The pipeline configuration.
    pub fn config(&self) -> T2fsnnConfig {
        self.config
    }

    /// Replaces the pipeline configuration (e.g. to toggle early firing on
    /// an already-optimized model).
    pub fn set_config(&mut self, config: T2fsnnConfig) {
        self.config = config;
    }

    /// Kernel parameters of the input encoder.
    pub fn input_kernel(&self) -> KernelParams {
        self.input_kernel
    }

    /// Sets the input encoder kernel.
    pub fn set_input_kernel(&mut self, params: KernelParams) {
        self.input_kernel = params;
    }

    /// Per-weighted-layer fire-kernel parameters, in layer order.
    pub fn kernels(&self) -> &[KernelParams] {
        &self.kernels
    }

    /// Sets one layer's kernel parameters.
    ///
    /// # Errors
    ///
    /// Returns an error if `layer` is out of range.
    pub fn set_kernel(&mut self, layer: usize, params: KernelParams) -> Result<()> {
        match self.kernels.get_mut(layer) {
            Some(k) => {
                *k = params;
                Ok(())
            }
            None => Err(TensorError::InvalidArgument {
                op: "T2fsnn::set_kernel",
                message: format!(
                    "layer {layer} out of range ({} weighted layers)",
                    self.kernels.len()
                ),
            }),
        }
    }

    /// Instantiated fire kernel of weighted layer `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn fire_kernel(&self, i: usize) -> ExpKernel {
        ExpKernel::new(self.kernels[i], self.config.time_window)
    }

    /// Instantiated input-encoding kernel.
    pub fn input_encoder(&self) -> ExpKernel {
        ExpKernel::new(self.input_kernel, self.config.time_window)
    }

    /// Number of weighted (neuron-bearing) layers, including the output.
    pub fn weighted_count(&self) -> usize {
        self.kernels.len()
    }

    /// Global time step at which hidden layer `i`'s fire phase starts:
    /// `(i + 1) · stride` (Fig. 3 — stride is `T`, or the early-firing
    /// offset when enabled).
    pub fn fire_start(&self, i: usize) -> usize {
        (i + 1) * self.config.stride()
    }

    /// Total pipeline length in time steps — the deterministic inference
    /// latency the paper's Tables I/II report:
    /// `(L−1)·stride + T` for `L` weighted layers.
    pub fn total_steps(&self) -> usize {
        let l = self.weighted_count();
        (l - 1) * self.config.stride() + self.config.time_window
    }

    /// The compiled execution plan for `[C, H, W]` inputs (`input_dims`
    /// excludes the batch axis): the weights re-laid-out for the engine
    /// and every op's state dims. The first shape compiled is cached and
    /// shared by every later call, pool chunk and clone; any other shape
    /// compiles a fresh plan per call and never replaces or reuses the
    /// cached one. [`T2fsnn::infer`] and [`T2fsnn::run`] call this, so a
    /// caller only needs it to move the compile out of the first
    /// inference (the serving registry does so at load).
    ///
    /// # Errors
    ///
    /// Returns an error if the network's shapes do not chain over
    /// `input_dims`.
    pub fn plan(&self, input_dims: &[usize]) -> Result<Arc<OpPlan>> {
        match self.plan.get() {
            Some((dims, plan)) if dims == input_dims => Ok(Arc::clone(plan)),
            Some(_) => OpPlan::new(self.net.ops(), input_dims).map(Arc::new),
            None => {
                let plan = Arc::new(OpPlan::new(self.net.ops(), input_dims)?);
                // A racing first call may have cached its own compile of
                // the same weights; either copy is correct.
                let _ = self.plan.set((input_dims.to_vec(), Arc::clone(&plan)));
                Ok(plan)
            }
        }
    }

    /// Applies the spec's model-level families (`wgauss`, `wstuck`,
    /// `wbitflip`) to every weight row in place. Each row draws from its
    /// own `(seed, layer, row)`-keyed ChaCha8 stream, so the result is
    /// independent of visit order and identical on every engine, layout,
    /// and SIMD path. An identity spec leaves every bit untouched.
    ///
    /// Returns `(changed_rows, total_rows)` — how many rows were
    /// actually modified out of all weight rows in the network. The
    /// cached plan is dropped, so the next inference compiles the new
    /// weights.
    pub fn perturb_weights(&mut self, spec: &perturb::PerturbSpec) -> (u64, u64) {
        self.plan.take();
        let mut changed = 0u64;
        let mut total = 0u64;
        self.net.for_each_weight_row(|layer, row, weights| {
            total += 1;
            if spec.perturb_weight_row(layer, row, weights) {
                changed += 1;
            }
        });
        (changed, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use t2fsnn_data::DatasetSpec;
    use t2fsnn_dnn::architectures::{mlp_tiny, vgg_scaled};

    fn tiny_model(config: T2fsnnConfig) -> T2fsnn {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let dnn = mlp_tiny(&mut rng, &DatasetSpec::tiny());
        T2fsnn::from_dnn(&dnn, config, KernelParams::default()).unwrap()
    }

    #[test]
    fn latency_matches_paper_formula_for_vgg16_shape() {
        // VGG-16 (16 weighted layers) with T = 80: baseline 1280 steps,
        // early firing at T/2: 680 — exactly Table I's latency column.
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let scale = t2fsnn_dnn::architectures::VggScale {
            convs_per_block: [2, 2, 3, 3, 3],
            base_channels: 2,
            fc_width: 16,
            ..Default::default()
        };
        let dnn = vgg_scaled(&mut rng, &DatasetSpec::cifar10_like(), scale);
        // 13 convs + fc6 + fc7 = 15 weighted; VGG-16 counts the softmax FC
        // too — our fc7 is that layer, so weighted_count is 15. The paper
        // formula L·T with its 16 layers equals (L−1)·T + T here.
        let model = T2fsnn::from_dnn(&dnn, T2fsnnConfig::new(80), KernelParams::default()).unwrap();
        assert_eq!(model.weighted_count(), 15);
        assert_eq!(model.total_steps(), 14 * 80 + 80); // 1200
        let ef = T2fsnn::from_dnn(
            &dnn,
            T2fsnnConfig::new(80).with_early_firing(),
            KernelParams::default(),
        )
        .unwrap();
        assert_eq!(ef.total_steps(), 14 * 40 + 80); // 640 ≈ paper's 46.9% cut
        let reduction = 1.0 - ef.total_steps() as f32 / model.total_steps() as f32;
        assert!((reduction - 0.467).abs() < 0.01, "reduction {reduction}");
    }

    #[test]
    fn fire_starts_are_strided() {
        let model = tiny_model(T2fsnnConfig::new(20));
        assert_eq!(model.fire_start(0), 20);
        assert_eq!(model.fire_start(1), 40);
        let ef = tiny_model(T2fsnnConfig::new(20).with_early_firing());
        assert_eq!(ef.fire_start(0), 10);
        assert_eq!(ef.fire_start(1), 20);
    }

    #[test]
    fn early_firing_halves_stride() {
        let config = T2fsnnConfig::new(20);
        assert_eq!(config.stride(), 20);
        assert_eq!(config.with_early_firing().stride(), 10);
        assert_eq!(config.with_early_start(5).stride(), 5);
    }

    #[test]
    #[should_panic(expected = "1..=T")]
    fn early_start_beyond_window_panics() {
        let _ = T2fsnnConfig::new(10).with_early_start(11);
    }

    #[test]
    fn set_kernel_validates_index() {
        let mut model = tiny_model(T2fsnnConfig::new(16));
        assert!(model.set_kernel(0, KernelParams::new(4.0, 1.0)).is_ok());
        assert_eq!(model.kernels()[0].t_d, 1.0);
        assert!(model.set_kernel(99, KernelParams::default()).is_err());
    }

    #[test]
    fn config_accessors() {
        let mut model = tiny_model(T2fsnnConfig::new(16));
        assert_eq!(model.config().time_window, 16);
        model.set_config(T2fsnnConfig::new(32));
        assert_eq!(model.config().time_window, 32);
        model.set_input_kernel(KernelParams::new(2.0, 0.5));
        assert_eq!(model.input_kernel().tau, 2.0);
        assert_eq!(model.input_encoder().window(), 32);
        assert_eq!(model.fire_kernel(0).window(), 32);
    }

    fn flat_weights(model: &T2fsnn) -> Vec<u32> {
        use t2fsnn_snn::SnnOp;
        let mut out = Vec::new();
        for op in model.network().ops() {
            let w = match op {
                SnnOp::Conv { weight, .. } => weight,
                SnnOp::Linear { weight, .. } => weight,
                _ => continue,
            };
            out.extend(w.data().iter().map(|v| v.to_bits()));
        }
        out
    }

    #[test]
    fn identity_perturbation_leaves_weights_untouched() {
        let mut model = tiny_model(T2fsnnConfig::new(16));
        let before = flat_weights(&model);
        let (changed, total) = model.perturb_weights(&perturb::PerturbSpec::identity(5));
        assert_eq!(changed, 0);
        assert!(total > 0, "the model must expose weight rows");
        assert_eq!(flat_weights(&model), before, "identity must be bitwise");
    }

    #[test]
    fn weight_perturbation_is_deterministic_and_counts_rows() {
        let spec = perturb::PerturbSpec::parse("3:wgauss=0.1,wstuck=0.3").unwrap();
        let mut a = tiny_model(T2fsnnConfig::new(16));
        let mut b = tiny_model(T2fsnnConfig::new(16));
        let (changed_a, total_a) = a.perturb_weights(&spec);
        let (changed_b, total_b) = b.perturb_weights(&spec);
        assert_eq!((changed_a, total_a), (changed_b, total_b));
        assert!(changed_a > 0, "an active spec must touch rows");
        assert!(changed_a <= total_a);
        assert_eq!(flat_weights(&a), flat_weights(&b), "same spec, same bits");
    }
}
