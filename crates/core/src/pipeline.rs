//! The phased TTFS execution engine (Fig. 3 of the paper).
//!
//! Every layer runs an *integration phase* (decoding incoming spike times
//! through the dendrite kernel into membrane potential) followed by a
//! *fire phase* (encoding the potential into one spike via the dynamic
//! threshold). Without early firing, layer `l`'s fire phase starts only
//! after its integration completes (`stride = T`); with early firing it
//! starts `T/2` into integration, overlapping the pipeline at the cost of
//! *non-guaranteed integration* — spikes arriving after a neuron fired are
//! wasted, which this engine models faithfully.
//!
//! [`T2fsnn::run`] and [`T2fsnn::infer`] run one step loop
//! (`T2fsnn::simulate_chunk` in [`crate::infer`]) over the pool's chunks
//! of the batch. It bills every spike and synop to its image; `infer`
//! returns the per-image results and `run` sums them into batch totals,
//! spike histograms and an accuracy curve of integer correct counts.
//! The loop steps a [`StepState`], whose work follows spikes rather
//! than neuron-steps. Every spike reaches the next layer through the
//! [`OpExecutor`] segment walk the rate/phase/burst baselines also run
//! on, with the TTFS max-pool gates passed in:
//!
//! * **Input buckets.** Each call encodes its input once into per-step,
//!   per-image spike lists; an input step emits its bucket straight as
//!   events, with no dense drive to build or rescan.
//! * **Retire on fire.** A hidden neuron that fires has its membrane
//!   potential set to `−∞`, so the threshold scan only ever returns new
//!   spikes and no refractory mask is kept. This is exact: hidden
//!   potentials are read by nothing but the scan, every later
//!   integration adds a finite value (weights are finite, and weight
//!   perturbations flip mantissa bits only), and `−∞ + x = −∞` for finite
//!   `x`, so under early firing — where inputs keep arriving after the
//!   spike — a retired neuron can never cross again. The output layer is
//!   never retired: its potentials are the answer.
//!
//! [`T2fsnn::analytic_logits`] is the same pipeline written as a DNN,
//! each layer's activation encoded and decoded through its kernel as if
//! integration always completed. It fires each layer once into the same
//! segment walk on the network's cached plan, on the
//! [`SimEngine::Dense`] engine the step loop's reference uses, so both
//! add every term in the same canonical order.

use rand::Rng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use t2fsnn_snn::{CurvePoint, OpExecutor, OpPlan, SimEngine, SnnOp};
use t2fsnn_tensor::{perturb, trace, Result, SpikeBatch, Tensor, TensorError, ThreadPool};

use crate::network::{NoiseConfig, T2fsnn};

/// Spike statistics of one hidden layer during a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerSpikes {
    /// Layer name (e.g. `"conv2_1"`).
    pub name: String,
    /// Global step at which the layer's fire phase started.
    pub fire_start: usize,
    /// Total spikes emitted (over the whole batch).
    pub count: u64,
    /// Spike-time histogram over the local fire window `[0, T)` —
    /// the data behind the paper's Figure 5.
    pub histogram: Vec<u64>,
}

impl LayerSpikes {
    /// Local time of the first spike, if any (Fig. 5's orange marker).
    pub fn first_spike_local(&self) -> Option<usize> {
        self.histogram.iter().position(|&c| c > 0)
    }

    /// Global time of the first spike, if any.
    pub fn first_spike_global(&self) -> Option<usize> {
        self.first_spike_local().map(|t| t + self.fire_start)
    }
}

/// Everything measured during one T2FSNN inference run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TtfsRun {
    /// Final classification accuracy over the batch.
    pub accuracy: f32,
    /// Accuracy sampled over global time (Fig. 6 series).
    pub curve: Vec<CurvePoint>,
    /// Deterministic pipeline latency in time steps (Tables I/II).
    pub latency: usize,
    /// Number of images in the batch.
    pub images: usize,
    /// Spikes emitted by the input encoding.
    pub input_spikes: u64,
    /// Input-layer spike-time histogram over `[0, T)`.
    pub input_histogram: Vec<u64>,
    /// Per-hidden-layer spike statistics, in layer order.
    pub layers: Vec<LayerSpikes>,
    /// Synaptic accumulate operations performed (event-driven count).
    pub synop_adds: u64,
    /// Kernel multiplies performed (one table lookup/multiply per spike).
    pub synop_mults: u64,
}

impl TtfsRun {
    /// Total spikes: input plus all hidden layers. Every neuron spikes at
    /// most once — the TTFS invariant.
    pub fn total_spikes(&self) -> u64 {
        self.input_spikes + self.layers.iter().map(|l| l.count).sum::<u64>()
    }

    /// Average spikes per image.
    pub fn spikes_per_image(&self) -> f64 {
        if self.images == 0 {
            0.0
        } else {
            self.total_spikes() as f64 / self.images as f64
        }
    }
}

/// One content-keyed event-noise stream per image of the batch (empty
/// when `noise` is `None`). Keying each image's stream on its pixel
/// *content* — never its batch position — is what makes noisy runs
/// invariant to batch composition, solo-vs-batched execution, and
/// worker count.
pub(crate) fn noise_streams(noise: Option<NoiseConfig>, images: &Tensor) -> Vec<ChaCha8Rng> {
    let Some(cfg) = noise else {
        return Vec::new();
    };
    let n = images.dims()[0];
    let feature: usize = images.dims()[1..].iter().product();
    (0..n)
        .map(|img| {
            perturb::event_stream(cfg.seed, &images.data()[img * feature..(img + 1) * feature])
        })
        .collect()
}

/// The PSP value a spike fired at `local` delivers downstream, with
/// optional timing noise (jitter shifts the decode index; drops zero
/// it). `rng` is the firing image's own noise stream.
pub(crate) fn delivered_value(
    table: &[f32],
    local: usize,
    theta0: f32,
    noise: Option<NoiseConfig>,
    rng: Option<&mut ChaCha8Rng>,
) -> f32 {
    if let (Some(cfg), Some(rng)) = (noise, rng) {
        if cfg.drop_prob > 0.0 && rng.gen::<f32>() < cfg.drop_prob {
            return 0.0;
        }
        let t = if cfg.jitter > 0 {
            let j = rng.gen_range(-(cfg.jitter as isize)..=cfg.jitter as isize);
            (local as isize + j).clamp(0, table.len() as isize - 1) as usize
        } else {
            local
        };
        table[t] * theta0
    } else {
        table[local] * theta0
    }
}

/// One chunk's simulation state and the three step primitives of the
/// step loop: [`StepState::input_step`], [`StepState::fire`] and
/// [`StepState::propagate`]. The spike-emitting primitives leave their
/// per-image spike counts in `spikes`, which the loop bills to each
/// image; the weighted kernels bill synop adds to the `synops` ledger
/// themselves.
pub(crate) struct StepState<'a> {
    plan: &'a OpPlan,
    executor: OpExecutor<'a>,
    /// Membrane potentials per weighted layer, position-major, bias
    /// folded in. A hidden neuron that fired holds −∞ (retired).
    pub(crate) potentials: Vec<Tensor>,
    /// First-spike latches of the max-pool ops (one per pool window),
    /// position-major like the membranes downstream of the first
    /// weighted op, channel-major in the image domain before it.
    gates: Vec<Option<Tensor>>,
    /// Fire kernels as LUTs (Sec. V), one per weighted layer.
    pub(crate) fire_tables: Vec<Vec<f32>>,
    input_table: Vec<f32>,
    /// `input_offsets[t·N + img]..input_offsets[t·N + img + 1]` slices
    /// `input_indices`: the pixels of image `img` that spike at input
    /// step `t`, ascending in the drive's scan order.
    input_offsets: Vec<usize>,
    input_indices: Vec<u32>,
    /// Per-image dims of the input drive: position-major `[H, W, C]`
    /// when the network opens with a bare conv, else the image dims.
    input_dims: Vec<usize>,
    /// Whether the network opens with a bare conv, so input events enter
    /// it position-major; otherwise they pass through the channel-major
    /// image domain first.
    pm_input: bool,
    /// Reused drive of the first weighted layer: each input step's
    /// events accumulate into it from zero, and it is then added to the
    /// first membranes (adding in place would round differently).
    drive: Tensor,
    theta0: f32,
    noise: Option<NoiseConfig>,
    /// Per-image, content-keyed noise streams (empty without noise).
    rngs: Vec<ChaCha8Rng>,
    /// Per-image spikes of the last `input_step`/`fire`.
    pub(crate) spikes: Vec<u64>,
    /// Per-image synop ledger of the chunk: every weighted kernel adds
    /// its synop adds to its image's slot as it scatters.
    pub(crate) synops: Vec<u64>,
    events: SpikeBatch,
    hits: Vec<u32>,
}

impl<'a> StepState<'a> {
    /// Input step `t` of `[0, T)`: every pixel bucketed at `t` spikes;
    /// the step's events (a spike dropped by noise still counts but
    /// delivers nothing) are integrated into the first weighted layer.
    pub(crate) fn input_step(&mut self, t: usize) -> Result<()> {
        let _s = trace::span("ttfs/input_window");
        let n = self.spikes.len();
        self.events.begin(&self.input_dims);
        let mut any = false;
        for img in 0..n {
            let bucket = &self.input_indices
                [self.input_offsets[t * n + img]..self.input_offsets[t * n + img + 1]];
            for &p in bucket {
                let v = delivered_value(
                    &self.input_table,
                    t,
                    self.theta0,
                    self.noise,
                    self.rngs.get_mut(img),
                );
                if v != 0.0 {
                    self.events.push(p, v);
                }
            }
            self.spikes[img] = bucket.len() as u64;
            any |= !bucket.is_empty();
            self.events.end_image();
        }
        if !any {
            return Ok(());
        }
        self.drive.data_mut().fill(0.0);
        if self.pm_input {
            self.executor.integrate_events(
                0,
                &mut self.events,
                &mut self.gates,
                0.0,
                &mut self.drive,
                &mut self.synops,
            )?;
        } else {
            // Pass-through ops in the channel-major image domain (e.g. an
            // MLP's flatten) come first.
            self.executor.integrate_image(
                self.events.to_dense(),
                &mut self.gates,
                0.0,
                &mut self.drive,
                &mut self.synops,
            )?;
        }
        self.potentials[0].add_scaled(&self.drive, 1.0)
    }

    /// Fire phase of hidden layer `i` at local step `local`: every
    /// neuron at or above the decaying threshold emits its one spike
    /// into the event list and is retired (its potential set to −∞, see
    /// the module docs). Returns whether any neuron fired.
    pub(crate) fn fire(&mut self, i: usize, local: usize) -> bool {
        let _s = trace::span("ttfs/fire_scan");
        let table = &self.fire_tables[i];
        let threshold = self.theta0 * table[local];
        let plan = self.plan;
        let dims = plan.state_dims(plan.segments()[i].weighted);
        let feature = dims.iter().product::<usize>().max(1);
        self.events.begin(dims);
        let mut any = false;
        for (img, membrane) in self.potentials[i]
            .data_mut()
            .chunks_exact_mut(feature)
            .enumerate()
        {
            self.hits.clear();
            // Candidates come back in ascending index order: the
            // canonical event order.
            t2fsnn_tensor::simd::collect_ge(membrane, threshold, &mut self.hits);
            for &j in &self.hits {
                membrane[j as usize] = f32::NEG_INFINITY;
                // Dendrite-decoded PSP value (ideal: ε·θ0).
                let v = delivered_value(
                    table,
                    local,
                    self.theta0,
                    self.noise,
                    self.rngs.get_mut(img),
                );
                if v != 0.0 {
                    self.events.push(j, v);
                }
            }
            self.events.end_image();
            self.spikes[img] = self.hits.len() as u64;
            any |= !self.hits.is_empty();
        }
        any
    }

    /// Integrates the last fire phase's events through segment `k` —
    /// pass-through ops, then the weighted op — into layer `k`'s
    /// membranes: the executor's one segment walk, with the max-pool
    /// gates latching first spikes. The weighted kernel bills each
    /// image's synop adds to `synops`.
    pub(crate) fn propagate(&mut self, k: usize) -> Result<()> {
        let _s = trace::span("ttfs/segment_propagate");
        self.executor.integrate_events(
            k,
            &mut self.events,
            &mut self.gates,
            0.0,
            &mut self.potentials[k],
            &mut self.synops,
        )
    }
}

impl T2fsnn {
    /// A fresh [`StepState`] for the `[N, C, H, W]` `images` over the
    /// compiled `plan`: bias-initialized membranes, zeroed gates, fire
    /// LUTs, noise streams, and the input encoded once into per-step,
    /// per-image spike buckets.
    pub(crate) fn step_state<'a>(
        &'a self,
        images: &Tensor,
        plan: &'a OpPlan,
    ) -> Result<StepState<'a>> {
        let config = self.config();
        let t_window = config.time_window;
        let ops = self.network().ops();
        let segments = plan.segments();
        let d = images.dims();
        let n = d[0];
        let zeros = |i: usize| {
            let mut dims = vec![n];
            dims.extend_from_slice(plan.state_dims(i));
            Tensor::zeros(dims)
        };
        let mut potentials = Vec::with_capacity(segments.len());
        for seg in segments {
            let mut p = zeros(seg.weighted);
            ops[seg.weighted].inject_bias_pm(&mut p, 1.0)?;
            potentials.push(p);
        }
        let gates = ops
            .iter()
            .enumerate()
            .map(|(i, op)| matches!(op, SnnOp::MaxPool { .. }).then(|| zeros(i)))
            .collect();
        let fire_tables = (0..segments.len())
            .map(|i| {
                let k = self.fire_kernel(i);
                (0..t_window).map(|t| k.eval(t as f32)).collect()
            })
            .collect();
        let encoder = self.input_encoder();
        let input_table = (0..t_window).map(|t| encoder.eval(t as f32)).collect();

        // When the network opens with a bare conv (every bundled conv
        // architecture) the input is scanned position-major, the layout
        // the conv's event kernel consumes: scan index `p = (y·W + x)·C
        // + c` reads pixel `c·HW + y·W + x`. Buckets are filled by a
        // counting sort over the scan, so each stays ascending.
        let pm_input =
            segments[0].pass.is_empty() && matches!(ops[segments[0].weighted], SnnOp::Conv { .. });
        let (c, hw) = (d[1], d[2] * d[3]);
        let feature = (c * hw).max(1);
        let input_dims = if pm_input {
            vec![d[2], d[3], c]
        } else {
            d[1..].to_vec()
        };
        let mut times = Vec::with_capacity(n * feature);
        let mut input_offsets = vec![0usize; t_window * n + 1];
        for (img, pixels) in images.data().chunks_exact(feature).enumerate() {
            for p in 0..feature {
                let src = if pm_input { (p % c) * hw + p / c } else { p };
                let time = encoder
                    .encode(pixels[src], config.theta0)
                    .filter(|&t| t < t_window);
                if let Some(t) = time {
                    input_offsets[t * n + img + 1] += 1;
                }
                times.push(time);
            }
        }
        for k in 1..input_offsets.len() {
            input_offsets[k] += input_offsets[k - 1];
        }
        let mut cursor = input_offsets.clone();
        let mut input_indices = vec![0u32; input_offsets[t_window * n]];
        for (k, time) in times.into_iter().enumerate() {
            if let Some(t) = time {
                let slot = &mut cursor[t * n + k / feature];
                input_indices[*slot] = (k % feature) as u32;
                *slot += 1;
            }
        }
        let drive = zeros(segments[0].weighted);

        Ok(StepState {
            plan,
            executor: OpExecutor::new(ops, plan, config.engine),
            potentials,
            gates,
            fire_tables,
            input_table,
            input_offsets,
            input_indices,
            input_dims,
            pm_input,
            drive,
            theta0: config.theta0,
            noise: config.noise,
            rngs: noise_streams(config.noise, images),
            spikes: vec![0; n],
            synops: vec![0; n],
            events: SpikeBatch::empty(),
            hits: Vec::new(),
        })
    }

    /// Runs the full phased TTFS inference over a `[N, C, H, W]` batch
    /// on the process-global thread pool: the per-image results of the
    /// step loop summed over the batch.
    ///
    /// # Errors
    ///
    /// Returns an error on image/label shape mismatches, if the
    /// network's shapes do not chain, if it does not end in a
    /// classifier, or if the config is invalid (as [`T2fsnn::infer`]).
    pub fn run(&self, images: &Tensor, labels: &[usize]) -> Result<TtfsRun> {
        let sim = self.simulate("T2fsnn::run", images, Some(labels), ThreadPool::global())?;
        let n = labels.len();
        let curve: Vec<CurvePoint> = sim
            .curve
            .iter()
            .map(|&(step, correct)| CurvePoint {
                step,
                accuracy: correct as f32 / n.max(1) as f32,
            })
            .collect();
        let mut histograms = sim.histograms.into_iter();
        let input_histogram = histograms.next().expect("the input's histogram");
        let names = self.network().weighted_names();
        let layers = histograms
            .enumerate()
            .map(|(i, histogram)| LayerSpikes {
                name: names[i].to_string(),
                fire_start: self.fire_start(i),
                count: histogram.iter().sum(),
                histogram,
            })
            .collect();
        Ok(TtfsRun {
            accuracy: curve.last().map(|p| p.accuracy).unwrap_or(0.0),
            curve,
            latency: self.total_steps(),
            images: n,
            input_spikes: input_histogram.iter().sum(),
            input_histogram,
            layers,
            synop_adds: sim.images.iter().map(|r| r.synop_adds).sum(),
            synop_mults: sim.images.iter().map(|r| r.synop_mults).sum(),
        })
    }

    /// Analytic (non-clock-driven) forward pass: encodes and decodes every
    /// layer's activation through its kernel *as if* integration were
    /// always complete. Equivalent to the clock-driven engine **without**
    /// early firing (a property the test suite checks), and used as a fast
    /// oracle. It runs on the network's cached plan through the
    /// [`SimEngine::Dense`] kernels of the step loop, so every weighted
    /// op adds its terms in the same canonical order.
    ///
    /// Returns the output layer's decoded logits, `[N, classes]`.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatches or a zero time window.
    pub fn analytic_logits(&self, images: &Tensor) -> Result<Tensor> {
        if self.config().time_window == 0 {
            return Err(TensorError::InvalidArgument {
                op: "T2fsnn::analytic_logits",
                message: "time_window must be positive".to_string(),
            });
        }
        let theta0 = self.config().theta0;
        let ops = self.network().ops();
        let plan = self.network().plan(&images.dims()[1..])?;
        let mut executor = OpExecutor::new(ops, &plan, SimEngine::Dense);
        let n = images.dims()[0];
        let mut synops = vec![0; n];
        let zeros = |k: usize| {
            let mut dims = vec![n];
            dims.extend_from_slice(plan.state_dims(plan.segments()[k].weighted));
            Tensor::zeros(dims)
        };
        // Quantize the input through encode/decode.
        let input_encoder = self.input_encoder();
        let signal = images.map(|x| match input_encoder.encode(x, theta0) {
            Some(t) => input_encoder.decode(t) * theta0,
            None => 0.0,
        });
        let mut z = zeros(0);
        executor.integrate_image(signal, &mut [], 1.0, &mut z, &mut synops)?;
        for k in 1..plan.segments().len() {
            // Each layer fires once, at the spike time its value encodes.
            let kernel = self.fire_kernel(k - 1);
            let fired = z.map(|u| match kernel.encode(u, theta0) {
                Some(t) => kernel.decode(t) * theta0,
                None => 0.0,
            });
            z = zeros(k);
            let mut events = SpikeBatch::from_dense(&fired)?;
            executor.integrate_events(k, &mut events, &mut [], 1.0, &mut z, &mut synops)?;
        }
        Ok(z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::InferOptions;
    use crate::kernel::KernelParams;
    use crate::network::T2fsnnConfig;
    use t2fsnn_dnn::Network;
    use t2fsnn_snn::argmax;

    fn model(dnn: &Network, config: T2fsnnConfig) -> T2fsnn {
        T2fsnn::from_dnn(dnn, config, KernelParams::new(8.0, 0.0)).unwrap()
    }

    /// Accuracy of `[N, classes]` logits under the step loop's argmax.
    fn accuracy(logits: &Tensor, labels: &[usize]) -> f32 {
        let rows = logits.data().chunks_exact(logits.dims()[1]);
        let correct = rows.zip(labels).filter(|(row, &y)| argmax(row).0 == y);
        correct.count() as f32 / labels.len() as f32
    }

    #[test]
    fn ttfs_accuracy_tracks_dnn() {
        let (dnn, test_set) = crate::tests::mlp();
        let dnn_acc = t2fsnn_dnn::evaluate(&mut dnn.clone(), test_set, 16).unwrap();
        let m = model(dnn, T2fsnnConfig::new(32));
        let run = m.run(&test_set.images, &test_set.labels).unwrap();
        assert!(
            run.accuracy >= dnn_acc - 0.15,
            "T2FSNN {:.3} too far below DNN {:.3}",
            run.accuracy,
            dnn_acc
        );
    }

    #[test]
    fn every_neuron_spikes_at_most_once() {
        let (dnn, test_set) = crate::tests::mlp();
        let m = model(dnn, T2fsnnConfig::new(32));
        let run = m.run(&test_set.images, &test_set.labels).unwrap();
        let n = test_set.len() as u64;
        // Hidden layer of mlp_tiny has 32 neurons per image.
        assert!(run.layers[0].count <= 32 * n, "TTFS invariant violated");
        // Input spikes bounded by pixel count.
        assert!(run.input_spikes <= (64 * n), "{}", run.input_spikes);
        assert!(run.total_spikes() > 0);
    }

    #[test]
    fn clock_engine_matches_analytic_oracle_without_early_firing() {
        let (dnn, test_set) = crate::tests::mlp();
        let m = model(dnn, T2fsnnConfig::new(32));
        let run = m.run(&test_set.images, &test_set.labels).unwrap();
        let logits = m.analytic_logits(&test_set.images).unwrap();
        let analytic_acc = accuracy(&logits, &test_set.labels);
        assert!(
            (run.accuracy - analytic_acc).abs() < 1e-6,
            "clock {} vs analytic {}",
            run.accuracy,
            analytic_acc
        );
    }

    #[test]
    fn early_firing_cuts_latency_with_small_accuracy_cost() {
        let (dnn, test_set) = crate::tests::mlp();
        let base = model(dnn, T2fsnnConfig::new(32));
        let ef = model(dnn, T2fsnnConfig::new(32).with_early_firing());
        let run_base = base.run(&test_set.images, &test_set.labels).unwrap();
        let run_ef = ef.run(&test_set.images, &test_set.labels).unwrap();
        assert!(run_ef.latency < run_base.latency);
        assert!(
            run_ef.accuracy >= run_base.accuracy - 0.15,
            "EF accuracy dropped too much: {} vs {}",
            run_ef.accuracy,
            run_base.accuracy
        );
    }

    #[test]
    fn latency_equals_pipeline_formula() {
        let (dnn, test_set) = crate::tests::mlp();
        let m = model(dnn, T2fsnnConfig::new(16));
        let run = m.run(&test_set.images, &test_set.labels).unwrap();
        // mlp_tiny has 2 weighted layers: (2-1)*16 + 16 = 32.
        assert_eq!(run.latency, 32);
        assert_eq!(run.curve.last().unwrap().step, 32);
    }

    #[test]
    fn histograms_sum_to_counts() {
        let (dnn, test_set) = crate::tests::mlp();
        let m = model(dnn, T2fsnnConfig::new(32));
        let run = m.run(&test_set.images, &test_set.labels).unwrap();
        for layer in &run.layers {
            assert_eq!(layer.histogram.iter().sum::<u64>(), layer.count);
        }
        assert_eq!(run.input_histogram.iter().sum::<u64>(), run.input_spikes);
        assert_eq!(run.input_histogram.len(), 32);
    }

    #[test]
    fn first_spike_accessors() {
        let spikes = LayerSpikes {
            name: "conv".into(),
            fire_start: 40,
            count: 5,
            histogram: vec![0, 0, 3, 2, 0],
        };
        assert_eq!(spikes.first_spike_local(), Some(2));
        assert_eq!(spikes.first_spike_global(), Some(42));
        let empty = LayerSpikes {
            name: "dead".into(),
            fire_start: 0,
            count: 0,
            histogram: vec![0; 4],
        };
        assert_eq!(empty.first_spike_local(), None);
    }

    #[test]
    fn run_validates_inputs() {
        let (dnn, test_set) = crate::tests::mlp();
        let m = model(dnn, T2fsnnConfig::new(8));
        assert!(m.run(&Tensor::zeros([4, 8, 8]), &[0; 4]).is_err());
        assert!(m.run(&test_set.images, &[0; 3]).is_err());
    }

    #[test]
    fn empty_batch_runs_and_infers_to_nothing() {
        let (dnn, test_set) = crate::tests::mlp();
        let m = model(dnn, T2fsnnConfig::new(8));
        let mut dims = test_set.images.dims().to_vec();
        dims[0] = 0;
        let empty = Tensor::zeros(dims);
        let run = m.run(&empty, &[]).unwrap();
        assert_eq!(run.images, 0);
        assert_eq!(run.accuracy, 0.0);
        // mlp_tiny: 16 steps, one curve point per `record_every` (= T).
        let steps: Vec<usize> = run.curve.iter().map(|p| p.step).collect();
        assert_eq!(steps, [8, 16]);
        assert!(run.curve.iter().all(|p| p.accuracy == 0.0));
        assert_eq!(
            (run.total_spikes(), run.synop_adds, run.synop_mults),
            (0, 0, 0)
        );
        assert_eq!(run.input_histogram, [0; 8]);
        assert_eq!(run.layers.len(), 1);
        assert_eq!(run.layers[0].histogram, [0; 8]);
        assert!(m.infer(&empty, InferOptions).unwrap().is_empty());
    }

    #[test]
    fn max_pool_network_matches_analytic_oracle() {
        // TTFS max pooling via first-spike gating must agree with the true
        // max over decoded values — the strongest check that the gate is
        // semantically exact.
        let (dnn, test_set) = crate::tests::max_pool_cnn();
        let dnn_acc = t2fsnn_dnn::evaluate(&mut dnn.clone(), test_set, 16).unwrap();
        let m = model(dnn, T2fsnnConfig::new(32));
        let run = m.run(&test_set.images, &test_set.labels).unwrap();
        let logits = m.analytic_logits(&test_set.images).unwrap();
        let analytic_acc = accuracy(&logits, &test_set.labels);
        assert!(
            (run.accuracy - analytic_acc).abs() < 1e-6,
            "clock {} vs analytic {} on max-pool net",
            run.accuracy,
            analytic_acc
        );
        assert!(
            run.accuracy >= dnn_acc - 0.2,
            "max-pool T2FSNN {:.3} too far below DNN {:.3}",
            run.accuracy,
            dnn_acc
        );
    }

    #[test]
    fn zero_noise_equals_ideal_run() {
        let (dnn, test_set) = crate::tests::mlp();
        let ideal = model(dnn, T2fsnnConfig::new(32));
        let noisy_cfg =
            T2fsnnConfig::new(32).with_noise(crate::network::NoiseConfig::jitter_only(0, 7));
        let noisy = model(dnn, noisy_cfg);
        let a = ideal.run(&test_set.images, &test_set.labels).unwrap();
        let b = noisy.run(&test_set.images, &test_set.labels).unwrap();
        assert_eq!(a.accuracy, b.accuracy);
        assert_eq!(a.total_spikes(), b.total_spikes());
    }

    #[test]
    fn heavy_drops_degrade_accuracy_and_deliveries() {
        let (dnn, test_set) = crate::tests::mlp();
        let ideal = model(dnn, T2fsnnConfig::new(32));
        let broken_cfg =
            T2fsnnConfig::new(32).with_noise(crate::network::NoiseConfig::drops_only(0.95, 7));
        let broken = model(dnn, broken_cfg);
        let a = ideal.run(&test_set.images, &test_set.labels).unwrap();
        let b = broken.run(&test_set.images, &test_set.labels).unwrap();
        // Dropped spikes deliver no PSP: synaptic work collapses with them.
        assert!(
            b.synop_adds < a.synop_adds / 4,
            "95% drops should erase most deliveries: {} vs {}",
            b.synop_adds,
            a.synop_adds
        );
        assert!(
            b.accuracy < a.accuracy,
            "dropping 95% of spikes must hurt: {} vs {}",
            b.accuracy,
            a.accuracy
        );
    }

    #[test]
    fn noisy_runs_are_reproducible() {
        let (dnn, test_set) = crate::tests::mlp();
        let cfg = T2fsnnConfig::new(32).with_noise(crate::network::NoiseConfig {
            jitter: 3,
            drop_prob: 0.1,
            seed: 42,
        });
        let m = model(dnn, cfg);
        let a = m.run(&test_set.images, &test_set.labels).unwrap();
        let b = m.run(&test_set.images, &test_set.labels).unwrap();
        assert_eq!(a.accuracy, b.accuracy);
        assert_eq!(a.synop_adds, b.synop_adds);
    }

    #[test]
    fn spikes_per_image_accounts_for_batch() {
        let (dnn, test_set) = crate::tests::mlp();
        let m = model(dnn, T2fsnnConfig::new(32));
        let run = m.run(&test_set.images, &test_set.labels).unwrap();
        let per_img = run.spikes_per_image();
        assert!(per_img > 0.0);
        assert!(per_img <= (64 + 32 + 4) as f64, "{per_img}"); // ≤ #neurons+pixels
    }
}
