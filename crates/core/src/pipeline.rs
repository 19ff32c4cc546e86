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

use rand::Rng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use t2fsnn_snn::{CurvePoint, OpExecutor, SimEngine, SnnOp};
use t2fsnn_tensor::{perturb, trace, Result, SpikeBatch, Tensor, TensorError};

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

/// Internal: ops between two weighted layers plus the weighted layer.
pub(crate) struct Segment {
    pub(crate) pre_ops: Vec<usize>,
    pub(crate) weighted: usize,
}

pub(crate) fn build_segments(ops: &[SnnOp]) -> Vec<Segment> {
    let mut segments = Vec::new();
    let mut pre = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        if op.is_weighted() {
            segments.push(Segment {
                pre_ops: std::mem::take(&mut pre),
                weighted: i,
            });
        } else {
            pre.push(i);
        }
    }
    segments
}

/// Pushes a spike tensor through one segment (pass-through ops, then the
/// weighted op), applying first-spike gating at max-pool ops: under TTFS
/// the earliest spike in a pool window carries the maximum value, so each
/// window forwards exactly its first spike and suppresses the rest.
///
/// Propagation routes through the [`OpExecutor`], which dispatches to
/// event-list kernels when the spike signal is sparse — under TTFS it
/// almost always is (each neuron fires at most once over a whole window).
fn propagate_segment(
    ops: &[SnnOp],
    executor: &mut OpExecutor<'_>,
    seg: &Segment,
    mut signal: Tensor,
    gates: &mut [Option<Tensor>],
    synop_adds: &mut u64,
) -> Result<Tensor> {
    for &pi in &seg.pre_ops {
        let (mut z, s) = executor.propagate(ops, pi, &signal)?;
        *synop_adds += s;
        apply_gate(gates[pi].as_mut(), &mut z);
        signal = z;
    }
    let (z, s) = executor.propagate(ops, seg.weighted, &signal)?;
    *synop_adds += s;
    Ok(z)
}

/// [`propagate_segment`] for a spike signal already in event form (the
/// core engine's fire phases emit events directly — under TTFS every
/// neuron spikes at most once per window, so the dense intermediate was
/// almost entirely zeros). The signal stays in event form through the
/// whole segment — average pooling via the event-form pooling kernel and
/// max pooling via the first-spike-wins [`OpExecutor::max_pool_events`]
/// (no densification between the fire phase and the integrate) — and the
/// weighted op's axpy rows land **directly in the next layer's membrane
/// potentials** (`potential`), with no intermediate drive tensor.
///
/// With `dense_mode` (the [`SimEngine::Dense`] reference engine) the
/// events are densified up front and the position-major dense twins run
/// instead; both modes are bit-identical (the canonical-order
/// invariant), which the test suite asserts on max-pool networks.
#[allow(clippy::too_many_arguments)] // one call site; mirrors the dense twin
fn propagate_segment_events(
    ops: &[SnnOp],
    executor: &mut OpExecutor<'_>,
    seg: &Segment,
    events: &mut SpikeBatch,
    gates: &mut [Option<Tensor>],
    synop_adds: &mut u64,
    dense_mode: bool,
    potential: &mut Tensor,
) -> Result<()> {
    let mut dense: Option<Tensor> = if dense_mode {
        Some(events.to_dense())
    } else {
        None
    };
    for &pi in &seg.pre_ops {
        if let Some(signal) = dense.take() {
            let (mut z, s) = executor.propagate(ops, pi, &signal)?;
            *synop_adds += s;
            apply_gate(gates[pi].as_mut(), &mut z);
            dense = Some(z);
        } else {
            match &ops[pi] {
                SnnOp::AvgPool { window, stride } if gates[pi].is_none() => {
                    executor.avg_pool_events(events, *window, *stride)?;
                }
                SnnOp::MaxPool { window, stride } => {
                    let gate = gates[pi]
                        .as_mut()
                        .expect("max-pool ops carry a first-spike gate");
                    executor.max_pool_events(events, *window, *stride, gate)?;
                }
                SnnOp::Flatten if gates[pi].is_none() => {
                    let numel = events.feature_numel();
                    events.reshape_features(&[numel])?;
                }
                _ => {
                    // Unreachable with the bundled architectures; keep a
                    // correct dense fallback for exotic op/gate combos.
                    let signal = events.to_dense();
                    let (mut z, s) = executor.propagate(ops, pi, &signal)?;
                    *synop_adds += s;
                    apply_gate(gates[pi].as_mut(), &mut z);
                    dense = Some(z);
                }
            }
        }
    }
    *synop_adds += match dense {
        Some(signal) => executor.accumulate_weighted(ops, seg.weighted, &signal, 0.0, potential)?,
        None => executor.accumulate_weighted_events(ops, seg.weighted, events, 0.0, potential)?,
    };
    Ok(())
}

/// First-spike gating at a max-pool op: a window forwards exactly its
/// first spike and suppresses the rest.
#[inline]
pub(crate) fn apply_gate(gate: Option<&mut Tensor>, z: &mut Tensor) {
    if let Some(gate) = gate {
        for (v, g) in z.data_mut().iter_mut().zip(gate.data_mut()) {
            if *g != 0.0 {
                *v = 0.0; // window already fired: suppress
            } else if *v != 0.0 {
                *g = 1.0; // first spike through this window: latch
            }
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

impl T2fsnn {
    /// Runs the full phased TTFS inference over a `[N, C, H, W]` batch.
    ///
    /// # Errors
    ///
    /// Returns an error on image/label shape mismatches or if the
    /// network's shapes do not chain.
    pub fn run(&self, images: &Tensor, labels: &[usize]) -> Result<TtfsRun> {
        if images.rank() != 4 {
            return Err(TensorError::InvalidArgument {
                op: "T2fsnn::run",
                message: format!("expected [N, C, H, W] images, got {}", images.shape()),
            });
        }
        let n = images.dims()[0];
        if labels.len() != n {
            return Err(TensorError::InvalidArgument {
                op: "T2fsnn::run",
                message: format!("{n} images but {} labels", labels.len()),
            });
        }
        let config = self.config();
        let t_window = config.time_window;
        let ops = self.network().ops();
        let segments = build_segments(ops);
        let l_count = segments.len();
        let dense_mode = matches!(config.engine, SimEngine::Dense);
        let plan = self.plan(&images.dims()[1..])?;
        let mut executor = OpExecutor::new(&plan, config.engine);

        // Membrane potentials (initialized with the bias: one constant
        // current injection per inference) and refractory masks, in the
        // engine's native position-major layout.
        let mut potentials: Vec<Tensor> = Vec::with_capacity(l_count);
        let mut fired: Vec<Tensor> = Vec::with_capacity(l_count);
        for seg in &segments {
            let mut dims = vec![n];
            dims.extend_from_slice(plan.state_dims(seg.weighted));
            let mut p = Tensor::zeros(dims.clone());
            ops[seg.weighted].inject_bias_pm(&mut p, 1.0)?;
            potentials.push(p);
            fired.push(Tensor::zeros(dims));
        }

        // Precompute input spike times (local, within window 0).
        let input_encoder = self.input_encoder();
        let theta0 = config.theta0;
        let enc_times: Vec<Option<usize>> = images
            .iter()
            .map(|&x| input_encoder.encode(x, theta0))
            .collect();
        // When the network opens with a bare conv (every bundled conv
        // architecture), build the per-step input drive directly in the
        // engine's position-major layout: the spike times are permuted
        // once here, erasing a full tensor transpose per input step.
        let pm_input = segments[0].pre_ops.is_empty()
            && matches!(ops[segments[0].weighted], SnnOp::Conv { .. });
        let (enc_scan, drive_dims): (Vec<Option<usize>>, Vec<usize>) = if pm_input {
            let d = images.dims();
            let (c, h, w) = (d[1], d[2], d[3]);
            let mut scan = Vec::with_capacity(enc_times.len());
            for ni in 0..n {
                for yi in 0..h {
                    for xi in 0..w {
                        for ci in 0..c {
                            scan.push(enc_times[((ni * c + ci) * h + yi) * w + xi]);
                        }
                    }
                }
            }
            (scan, vec![n, h, w, c])
        } else {
            (enc_times, images.dims().to_vec())
        };

        let total_steps = self.total_steps();
        let mut input_histogram = vec![0u64; t_window];
        let mut layer_hists: Vec<Vec<u64>> = (0..l_count.saturating_sub(1))
            .map(|_| vec![0u64; t_window])
            .collect();
        let mut input_spikes = 0u64;
        let mut synop_adds = 0u64;
        let mut synop_mults = 0u64;
        let mut curve = Vec::new();

        // First-spike gates for max-pool ops (one latch per pool window),
        // position-major like the membranes downstream of the first
        // weighted op, channel-major in the image domain before it.
        let mut gates: Vec<Option<Tensor>> = ops
            .iter()
            .enumerate()
            .map(|(i, op)| {
                matches!(op, SnnOp::MaxPool { .. }).then(|| {
                    let mut dims = vec![n];
                    dims.extend_from_slice(plan.state_dims(i));
                    Tensor::zeros(dims)
                })
            })
            .collect();

        // Fire kernels instantiated once (LUT form, Sec. V).
        let fire_tables: Vec<Vec<f32>> = (0..l_count)
            .map(|i| {
                let k = self.fire_kernel(i);
                (0..t_window).map(|t| k.eval(t as f32)).collect()
            })
            .collect();
        let input_table: Vec<f32> = (0..t_window)
            .map(|t| input_encoder.eval(t as f32))
            .collect();

        // Per-image, content-keyed noise streams (empty without noise):
        // the fix for the old single batch-order-dependent stream.
        let mut noise_rngs = noise_streams(config.noise, images);
        let raw_feature: usize = images.dims()[1..].iter().product::<usize>().max(1);
        // Reused event list and threshold-scan hit buffer for the fire
        // phases.
        let mut fire_ev = SpikeBatch::empty();
        let mut fire_hits: Vec<u32> = Vec::new();

        #[allow(clippy::needless_range_loop)] // `t` drives far more than the histogram
        for t in 0..total_steps {
            // Input fire window: [0, T).
            if t < t_window {
                let _s = trace::span("ttfs/input_window");
                let mut any = 0u64;
                let drive = Tensor::from_vec(
                    drive_dims.clone(),
                    enc_scan
                        .iter()
                        .enumerate()
                        .map(|(idx, &et)| {
                            if et == Some(t) {
                                any += 1;
                                delivered_value(
                                    &input_table,
                                    t,
                                    theta0,
                                    config.noise,
                                    noise_rngs.get_mut(idx / raw_feature),
                                )
                            } else {
                                0.0
                            }
                        })
                        .collect(),
                )?;
                if any > 0 {
                    input_spikes += any;
                    input_histogram[t] += any;
                    synop_mults += any; // one kernel multiply per spike
                    let z = if pm_input {
                        let (z, s) =
                            executor.propagate_input_pm(ops, segments[0].weighted, &drive)?;
                        synop_adds += s;
                        z
                    } else {
                        propagate_segment(
                            ops,
                            &mut executor,
                            &segments[0],
                            drive,
                            &mut gates,
                            &mut synop_adds,
                        )?
                    };
                    potentials[0].add_scaled(&z, 1.0)?;
                }
            }

            // Hidden fire windows.
            for i in 0..l_count.saturating_sub(1) {
                let start = self.fire_start(i);
                if t < start || t >= start + t_window {
                    continue;
                }
                let local = t - start;
                let eps = fire_tables[i][local];
                let threshold = theta0 * eps;
                let mut count = 0u64;
                {
                    let _s = trace::span("ttfs/fire_scan");
                    // Emit spikes straight into the event list (a spike
                    // dropped by noise still counts but delivers no PSP,
                    // exactly as the dense tensor's 0.0 entry did). The
                    // threshold scan runs on the SIMD compare-and-mask
                    // primitive — candidates come back in ascending
                    // index order, then the refractory mask filters them
                    // exactly as the scalar scan did.
                    let feature: usize = potentials[i].dims()[1..].iter().product();
                    let feature_dims = potentials[i].dims()[1..].to_vec();
                    fire_ev.begin(&feature_dims);
                    let pd = potentials[i].data();
                    let fd = fired[i].data_mut();
                    for (img, (pimg, fimg)) in pd
                        .chunks_exact(feature.max(1))
                        .zip(fd.chunks_exact_mut(feature.max(1)))
                        .enumerate()
                    {
                        fire_hits.clear();
                        t2fsnn_tensor::simd::collect_ge(pimg, threshold, &mut fire_hits);
                        for &j in &fire_hits {
                            let f = &mut fimg[j as usize];
                            if *f == 0.0 {
                                *f = 1.0;
                                // Dendrite-decoded PSP value (ideal: ε·θ0).
                                let v = delivered_value(
                                    &fire_tables[i],
                                    local,
                                    theta0,
                                    config.noise,
                                    noise_rngs.get_mut(img),
                                );
                                if v != 0.0 {
                                    fire_ev.push(j, v);
                                }
                                count += 1;
                            }
                        }
                        fire_ev.end_image();
                    }
                }
                if count > 0 {
                    let _s = trace::span("ttfs/segment_propagate");
                    layer_hists[i][local] += count;
                    synop_mults += count;
                    propagate_segment_events(
                        ops,
                        &mut executor,
                        &segments[i + 1],
                        &mut fire_ev,
                        &mut gates,
                        &mut synop_adds,
                        dense_mode,
                        &mut potentials[i + 1],
                    )?;
                }
            }

            if (t + 1) % config.record_every == 0 || t + 1 == total_steps {
                let _s = trace::span("ttfs/record");
                let accuracy = output_accuracy(&potentials[l_count - 1], labels)?;
                curve.push(CurvePoint {
                    step: t + 1,
                    accuracy,
                });
            }
        }

        let accuracy = curve.last().map(|p| p.accuracy).unwrap_or(0.0);
        let names = self.network().weighted_names();
        let layers = layer_hists
            .into_iter()
            .enumerate()
            .map(|(i, histogram)| LayerSpikes {
                name: names[i].to_string(),
                fire_start: self.fire_start(i),
                count: histogram.iter().sum(),
                histogram,
            })
            .collect();
        Ok(TtfsRun {
            accuracy,
            curve,
            latency: total_steps,
            images: n,
            input_spikes,
            input_histogram,
            layers,
            synop_adds,
            synop_mults,
        })
    }

    /// Analytic (non-clock-driven) forward pass: encodes and decodes every
    /// layer's activation through its kernel *as if* integration were
    /// always complete. Equivalent to the clock-driven engine **without**
    /// early firing (a property the test suite checks), and used as a fast
    /// oracle.
    ///
    /// Returns the output layer's decoded logits, `[N, classes]`.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatches.
    pub fn analytic_logits(&self, images: &Tensor) -> Result<Tensor> {
        let config = self.config();
        let theta0 = config.theta0;
        let ops = self.network().ops();
        let segments = build_segments(ops);
        let input_encoder = self.input_encoder();
        // Quantize the input through encode/decode.
        let mut signal = images.map(|x| match input_encoder.encode(x, theta0) {
            Some(t) => input_encoder.decode(t) * theta0,
            None => 0.0,
        });
        for (i, seg) in segments.iter().enumerate() {
            for &pi in &seg.pre_ops {
                signal = ops[pi].propagate(&signal)?.0;
            }
            let (mut z, _) = ops[seg.weighted].propagate(&signal)?;
            ops[seg.weighted].inject_bias(&mut z, 1.0)?;
            if i + 1 == segments.len() {
                return Ok(z);
            }
            let kernel = self.fire_kernel(i);
            signal = z.map(|u| match kernel.encode(u, theta0) {
                Some(t) => kernel.decode(t) * theta0,
                None => 0.0,
            });
        }
        unreachable!("segments is non-empty by conversion invariant")
    }
}

fn output_accuracy(potential: &Tensor, labels: &[usize]) -> Result<f32> {
    if potential.rank() != 2 || potential.dims()[0] != labels.len() {
        return Err(TensorError::InvalidArgument {
            op: "output_accuracy",
            message: format!(
                "output {} vs {} labels — the network must end in a classifier",
                potential.shape(),
                labels.len()
            ),
        });
    }
    if labels.is_empty() {
        return Ok(0.0);
    }
    let (n, c) = (potential.dims()[0], potential.dims()[1]);
    let mut correct = 0usize;
    for (i, &y) in labels.iter().enumerate() {
        let row = &potential.data()[i * c..(i + 1) * c];
        let pred = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(j, _)| j)
            .unwrap_or(0);
        if pred == y {
            correct += 1;
        }
    }
    Ok(correct as f32 / n as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelParams;
    use crate::network::T2fsnnConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use t2fsnn_data::{Dataset, DatasetSpec, SyntheticConfig};
    use t2fsnn_dnn::architectures::mlp_tiny;
    use t2fsnn_dnn::{normalize_for_snn, train, Network, TrainConfig};

    fn fixture() -> (Network, Dataset, Dataset) {
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        // Ease the default noise slightly for the unit fixture so the tiny
        // MLP reaches a solidly-above-chance accuracy in a few epochs.
        let data = SyntheticConfig::new(DatasetSpec::tiny(), 9)
            .with_noise(0.1)
            .generate(160);
        let (train_set, test_set) = data.split(128);
        let mut dnn = mlp_tiny(&mut rng, &data.spec);
        let config = TrainConfig {
            epochs: 10,
            ..TrainConfig::default()
        };
        train(&mut dnn, &train_set, &config, &mut rng).unwrap();
        normalize_for_snn(&mut dnn, &train_set.images, 0.999).unwrap();
        (dnn, train_set, test_set)
    }

    fn model(dnn: &Network, config: T2fsnnConfig) -> T2fsnn {
        T2fsnn::from_dnn(dnn, config, KernelParams::new(8.0, 0.0)).unwrap()
    }

    #[test]
    fn ttfs_accuracy_tracks_dnn() {
        let (mut dnn, _, test_set) = fixture();
        let dnn_acc = t2fsnn_dnn::evaluate(&mut dnn, &test_set, 16).unwrap();
        let m = model(&dnn, T2fsnnConfig::new(32));
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
        let (dnn, _, test_set) = fixture();
        let m = model(&dnn, T2fsnnConfig::new(32));
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
        let (dnn, _, test_set) = fixture();
        let m = model(&dnn, T2fsnnConfig::new(32));
        let run = m.run(&test_set.images, &test_set.labels).unwrap();
        let logits = m.analytic_logits(&test_set.images).unwrap();
        let analytic_acc = output_accuracy(&logits, &test_set.labels).unwrap();
        assert!(
            (run.accuracy - analytic_acc).abs() < 1e-6,
            "clock {} vs analytic {}",
            run.accuracy,
            analytic_acc
        );
    }

    #[test]
    fn early_firing_cuts_latency_with_small_accuracy_cost() {
        let (dnn, _, test_set) = fixture();
        let base = model(&dnn, T2fsnnConfig::new(32));
        let ef = model(&dnn, T2fsnnConfig::new(32).with_early_firing());
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
        let (dnn, _, test_set) = fixture();
        let m = model(&dnn, T2fsnnConfig::new(16));
        let run = m.run(&test_set.images, &test_set.labels).unwrap();
        // mlp_tiny has 2 weighted layers: (2-1)*16 + 16 = 32.
        assert_eq!(run.latency, 32);
        assert_eq!(run.curve.last().unwrap().step, 32);
    }

    #[test]
    fn histograms_sum_to_counts() {
        let (dnn, _, test_set) = fixture();
        let m = model(&dnn, T2fsnnConfig::new(32));
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
        let (dnn, _, test_set) = fixture();
        let m = model(&dnn, T2fsnnConfig::new(8));
        assert!(m.run(&Tensor::zeros([4, 8, 8]), &[0; 4]).is_err());
        assert!(m.run(&test_set.images, &[0; 3]).is_err());
    }

    #[test]
    fn max_pool_network_matches_analytic_oracle() {
        // TTFS max pooling via first-spike gating must agree with the true
        // max over decoded values — the strongest check that the gate is
        // semantically exact.
        let mut rng = ChaCha8Rng::seed_from_u64(88);
        let spec = DatasetSpec::new("maxpool", 1, 16, 16, 4);
        let data = SyntheticConfig::new(spec.clone(), 14).generate(96);
        let (train_set, test_set) = data.split(72);
        let mut dnn = t2fsnn_dnn::architectures::cnn_small(
            &mut rng,
            &spec,
            t2fsnn_dnn::layers::PoolKind::Max,
        );
        train(&mut dnn, &train_set, &TrainConfig::default(), &mut rng).unwrap();
        normalize_for_snn(&mut dnn, &train_set.images, 0.999).unwrap();
        let dnn_acc = t2fsnn_dnn::evaluate(&mut dnn, &test_set, 16).unwrap();
        let m = T2fsnn::from_dnn(&dnn, T2fsnnConfig::new(32), KernelParams::new(8.0, 0.0)).unwrap();
        let run = m.run(&test_set.images, &test_set.labels).unwrap();
        let logits = m.analytic_logits(&test_set.images).unwrap();
        let analytic_acc = output_accuracy(&logits, &test_set.labels).unwrap();
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
        let (dnn, _, test_set) = fixture();
        let ideal = model(&dnn, T2fsnnConfig::new(32));
        let noisy_cfg =
            T2fsnnConfig::new(32).with_noise(crate::network::NoiseConfig::jitter_only(0, 7));
        let noisy = model(&dnn, noisy_cfg);
        let a = ideal.run(&test_set.images, &test_set.labels).unwrap();
        let b = noisy.run(&test_set.images, &test_set.labels).unwrap();
        assert_eq!(a.accuracy, b.accuracy);
        assert_eq!(a.total_spikes(), b.total_spikes());
    }

    #[test]
    fn heavy_drops_degrade_accuracy_and_deliveries() {
        let (dnn, _, test_set) = fixture();
        let ideal = model(&dnn, T2fsnnConfig::new(32));
        let broken_cfg =
            T2fsnnConfig::new(32).with_noise(crate::network::NoiseConfig::drops_only(0.95, 7));
        let broken = model(&dnn, broken_cfg);
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
        let (dnn, _, test_set) = fixture();
        let cfg = T2fsnnConfig::new(32).with_noise(crate::network::NoiseConfig {
            jitter: 3,
            drop_prob: 0.1,
            seed: 42,
        });
        let m = model(&dnn, cfg);
        let a = m.run(&test_set.images, &test_set.labels).unwrap();
        let b = m.run(&test_set.images, &test_set.labels).unwrap();
        assert_eq!(a.accuracy, b.accuracy);
        assert_eq!(a.synop_adds, b.synop_adds);
    }

    #[test]
    fn spikes_per_image_accounts_for_batch() {
        let (dnn, _, test_set) = fixture();
        let m = model(&dnn, T2fsnnConfig::new(32));
        let run = m.run(&test_set.images, &test_set.labels).unwrap();
        let per_img = run.spikes_per_image();
        assert!(per_img > 0.0);
        assert!(per_img <= (64 + 32 + 4) as f64, "{per_img}"); // ≤ #neurons+pixels
    }
}
