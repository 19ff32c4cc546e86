//! The clock-driven simulation engine.
//!
//! Simulates a converted [`SnnNetwork`] under any [`Coding`] over a batch
//! of images, recording everything the paper's evaluation needs: the
//! accuracy-versus-time curve (Fig. 6), per-layer spike counts (Table I/II),
//! synaptic operation counts (Table III extension) and latency.
//!
//! Execution is organized for speed without changing a single bit of the
//! results:
//!
//! * **Event-driven dispatch** — each step's signal is propagated through
//!   weighted ops as a sparse event list when its density is below the
//!   engine threshold (see [`SimEngine`]); the sparse and dense kernels
//!   are bit-identical by construction.
//! * **Batch-level parallelism** — images never interact, so the batch is
//!   split into contiguous chunks simulated on the scoped
//!   [`ThreadPool`] and merged in chunk order. Accuracy is aggregated
//!   from integer correct-counts, so the merged outcome is bit-identical
//!   to a single-threaded run for every worker count. Codings whose
//!   state is batch-order-dependent (Bernoulli rate input) report
//!   [`Coding::batch_divisible`]` == false` and run on one thread.

use serde::{Deserialize, Serialize};
use t2fsnn_tensor::{trace, Result, SpikeBatch, Tensor, TensorError, ThreadPool};

use crate::coding::Coding;
use crate::engine::{OpExecutor, OpPlan, SimEngine};
use crate::network::{SnnNetwork, SnnOp};
use crate::neuron::IfState;

/// Engine parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Total simulated time steps.
    pub max_steps: usize,
    /// Sample the accuracy curve every this many steps (also the curve's
    /// resolution for latency measurements).
    pub record_every: usize,
    /// Dense vs event-driven kernel dispatch (not serialized: a runtime
    /// execution knob with no effect on results).
    #[serde(skip)]
    pub engine: SimEngine,
}

impl SimConfig {
    /// Creates a config with the default (event-driven) engine.
    ///
    /// # Panics
    ///
    /// Panics if either field is zero.
    pub fn new(max_steps: usize, record_every: usize) -> Self {
        assert!(
            max_steps > 0 && record_every > 0,
            "sim config must be positive"
        );
        SimConfig {
            max_steps,
            record_every,
            engine: SimEngine::default(),
        }
    }

    /// Overrides the execution engine (the result is bit-identical either
    /// way; [`SimEngine::Dense`] exists as the reference for tests and
    /// for profiling the dispatch itself).
    pub fn with_engine(mut self, engine: SimEngine) -> Self {
        self.engine = engine;
        self
    }
}

/// One sample of the accuracy-versus-time curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CurvePoint {
    /// Time step (1-based: accuracy after this many steps).
    pub step: usize,
    /// Classification accuracy over the simulated batch.
    pub accuracy: f32,
}

/// Everything measured during one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimOutcome {
    /// Name of the coding scheme.
    pub coding: String,
    /// Number of images simulated.
    pub images: usize,
    /// Steps actually simulated.
    pub steps: usize,
    /// Accuracy curve, sampled every `record_every` steps.
    pub curve: Vec<CurvePoint>,
    /// Final accuracy (last curve point).
    pub final_accuracy: f32,
    /// `(layer_name, spikes)` for every hidden weighted layer, summed over
    /// the batch and all steps.
    pub spikes_per_layer: Vec<(String, u64)>,
    /// Spikes emitted by the input encoding (0 for analog current).
    pub input_spikes: u64,
    /// Synaptic accumulate operations performed.
    pub synop_adds: u64,
    /// Synaptic multiply operations performed (0 for unweighted-spike
    /// codings).
    pub synop_mults: u64,
}

impl SimOutcome {
    /// Total spikes: input encoding plus all hidden layers.
    pub fn total_spikes(&self) -> u64 {
        self.input_spikes + self.spikes_per_layer.iter().map(|&(_, s)| s).sum::<u64>()
    }

    /// Average spikes per image.
    pub fn spikes_per_image(&self) -> f64 {
        if self.images == 0 {
            0.0
        } else {
            self.total_spikes() as f64 / self.images as f64
        }
    }

    /// Latency: the first recorded step at which accuracy reaches
    /// `final_accuracy - tolerance`. This is the "time to (near-)final
    /// accuracy" notion behind the paper's latency columns.
    pub fn latency(&self, tolerance: f32) -> usize {
        let target = self.final_accuracy - tolerance;
        self.curve
            .iter()
            .find(|p| p.accuracy >= target)
            .map(|p| p.step)
            .unwrap_or(self.steps)
    }
}

/// Raw per-chunk tallies; accuracies stay integer correct-counts until
/// the final merge so chunked and single-threaded runs agree bit for bit.
struct ChunkStats {
    /// `(step, correct)` per recorded curve point.
    curve: Vec<(usize, u64)>,
    /// Spikes per op index (zero for non-weighted ops).
    spikes_hidden: Vec<u64>,
    input_spikes: u64,
    synop_adds: u64,
    synop_mults: u64,
}

/// Simulates `net` under `coding` for a batch of images, using the
/// process-global thread pool for batch-level parallelism.
///
/// `images` is `[N, C, H, W]` with unit-range pixels; `labels` has length
/// `N`. The final weighted layer never fires — its membrane potential
/// accumulates and its argmax is the prediction (standard conversion
/// practice for the output layer).
///
/// # Errors
///
/// Returns an error if shapes are inconsistent or the label count differs
/// from the image count.
pub fn simulate(
    net: &SnnNetwork,
    coding: &mut dyn Coding,
    images: &Tensor,
    labels: &[usize],
    config: &SimConfig,
) -> Result<SimOutcome> {
    simulate_on(net, coding, images, labels, config, ThreadPool::global())
}

/// [`simulate`] with an explicit thread pool (the result is bit-identical
/// for every worker count).
///
/// # Errors
///
/// Returns an error if shapes are inconsistent or the label count differs
/// from the image count.
pub fn simulate_on(
    net: &SnnNetwork,
    coding: &mut dyn Coding,
    images: &Tensor,
    labels: &[usize],
    config: &SimConfig,
    pool: &ThreadPool,
) -> Result<SimOutcome> {
    if images.rank() != 4 {
        return Err(TensorError::InvalidArgument {
            op: "simulate",
            message: format!("expected [N, C, H, W] images, got {}", images.shape()),
        });
    }
    let n = images.dims()[0];
    if labels.len() != n {
        return Err(TensorError::InvalidArgument {
            op: "simulate",
            message: format!("{n} images but {} labels", labels.len()),
        });
    }
    if net.has_max_pool() {
        return Err(TensorError::InvalidArgument {
            op: "simulate",
            message: "max pooling has no exact spiking equivalent under rate/phase/burst \
                      coding; build the DNN with PoolKind::Avg (TTFS supports max pooling \
                      via first-spike gating in the t2fsnn engine)"
                .to_string(),
        });
    }
    let ops = net.ops();
    if !ops.iter().any(SnnOp::is_weighted) {
        return Err(TensorError::InvalidArgument {
            op: "simulate",
            message: "network has no weighted ops".to_string(),
        });
    }
    // Compile the plan once per call: it shape-checks the whole chain up
    // front (so chunk workers can't fail on anything but numerics) and
    // every chunk shares its re-laid-out weights.
    let plan = OpPlan::new(ops, &images.dims()[1..])?;

    let ranges = pool.chunk_ranges(n);
    let stats = if ranges.len() > 1 && coding.batch_divisible() {
        let feature: usize = images.dims()[1..].iter().product();
        let mut tasks: Vec<(Box<dyn Coding>, Tensor, &[usize])> = Vec::with_capacity(ranges.len());
        for range in &ranges {
            let mut dims = images.dims().to_vec();
            dims[0] = range.len();
            let chunk = Tensor::from_vec(
                dims,
                images.data()[range.start * feature..range.end * feature].to_vec(),
            )?;
            tasks.push((coding.boxed_clone(), chunk, &labels[range.clone()]));
        }
        let results = pool.run_tasks(tasks, |(mut chunk_coding, chunk_images, chunk_labels)| {
            simulate_chunk(
                net,
                &plan,
                chunk_coding.as_mut(),
                &chunk_images,
                chunk_labels,
                config,
            )
        });
        merge_chunks(results)?
    } else {
        simulate_chunk(net, &plan, coding, images, labels, config)?
    };

    let curve: Vec<CurvePoint> = stats
        .curve
        .iter()
        .map(|&(step, correct)| CurvePoint {
            step,
            accuracy: if n == 0 {
                0.0
            } else {
                correct as f32 / n as f32
            },
        })
        .collect();
    let final_accuracy = curve.last().map(|p| p.accuracy).unwrap_or(0.0);
    let last_weighted = ops.iter().rposition(SnnOp::is_weighted).expect("checked");
    let spikes_per_layer = ops
        .iter()
        .enumerate()
        .filter(|(i, op)| op.is_weighted() && *i != last_weighted)
        .map(|(i, op)| (op.name().unwrap_or("?").to_string(), stats.spikes_hidden[i]))
        .collect();
    Ok(SimOutcome {
        coding: coding.name().to_string(),
        images: n,
        steps: config.max_steps,
        curve,
        final_accuracy,
        spikes_per_layer,
        input_spikes: stats.input_spikes,
        synop_adds: stats.synop_adds,
        synop_mults: stats.synop_mults,
    })
}

fn merge_chunks(results: Vec<Result<ChunkStats>>) -> Result<ChunkStats> {
    let mut iter = results.into_iter();
    let mut acc = iter.next().expect("at least one chunk")?;
    for result in iter {
        let stats = result?;
        debug_assert_eq!(acc.curve.len(), stats.curve.len());
        for (a, b) in acc.curve.iter_mut().zip(stats.curve) {
            debug_assert_eq!(a.0, b.0, "chunks record the same steps");
            a.1 += b.1;
        }
        for (a, b) in acc.spikes_hidden.iter_mut().zip(stats.spikes_hidden) {
            *a += b;
        }
        acc.input_spikes += stats.input_spikes;
        acc.synop_adds += stats.synop_adds;
        acc.synop_mults += stats.synop_mults;
    }
    Ok(acc)
}

/// Simulates one contiguous sub-batch. All validation happens in
/// [`simulate_on`]; per-image results are independent of how the batch
/// was chunked.
fn simulate_chunk(
    net: &SnnNetwork,
    plan: &OpPlan,
    coding: &mut dyn Coding,
    images: &Tensor,
    labels: &[usize],
    config: &SimConfig,
) -> Result<ChunkStats> {
    let n = images.dims()[0];
    let ops = net.ops();
    let last_weighted = ops
        .iter()
        .rposition(SnnOp::is_weighted)
        .expect("validated by simulate_on");
    let mut executor = OpExecutor::new(plan, config.engine);

    // Neuron state per weighted op, in the engine's native position-major
    // layout (`[N, OH, OW, C]` for conv outputs).
    let mut states: Vec<Option<IfState>> = ops
        .iter()
        .enumerate()
        .map(|(i, op)| {
            op.is_weighted().then(|| {
                let mut dims = vec![n];
                dims.extend_from_slice(plan.state_dims(i));
                IfState::new(dims)
            })
        })
        .collect();

    coding.reset();
    let needs_mult = coding.synop_needs_mult();
    let mut spikes_hidden: Vec<u64> = ops.iter().map(|_| 0).collect();
    let mut input_spikes = 0u64;
    let mut synop_adds = 0u64;
    let mut synop_mults = 0u64;
    let mut curve = Vec::new();

    // Deterministic periodic inputs let us compute the (expensive, often
    // dense) input-layer propagation once per phase and replay it. The
    // cached synop counts are still charged every step — the arithmetic
    // happens on real hardware; we just avoid recomputing it.
    let first_weighted = ops
        .iter()
        .position(SnnOp::is_weighted)
        .expect("validated by simulate_on");
    struct CachedDrive {
        /// First-weighted-op output for this input phase.
        raw: Tensor,
        /// `raw` with the bias current folded in at `fused_scale`, so
        /// the per-step work is a single integrate.
        fused: Tensor,
        fused_scale: f32,
        in_spikes: u64,
        synops: u64,
    }
    let mut input_cache: Vec<Option<CachedDrive>> = match coding.input_period() {
        Some(p) if p > 0 => (0..p).map(|_| None).collect(),
        _ => Vec::new(),
    };

    // Event-mode fire phases emit straight into this reused event list,
    // skipping the dense spike tensor entirely; the dense reference
    // engine keeps the tensor path.
    let use_event_fire = !matches!(config.engine, SimEngine::Dense);
    let mut fire_events = SpikeBatch::empty();

    for t in 0..config.max_steps {
        let cache_key = if input_cache.is_empty() {
            None
        } else {
            Some(t % input_cache.len())
        };
        let bias_scale = coding.bias_scale(t);
        // Resolve this step's input-layer drive: borrowed from the
        // per-phase cache (filled on first use — no per-step clone), or
        // computed fresh for non-periodic codings. The cached synop
        // counts are still charged every step: the arithmetic happens on
        // real hardware, it is just not recomputed here. The cache keeps
        // the drive with the bias current already folded in, so the
        // per-step work collapses to one integrate.
        let mut fresh_drive: Option<Tensor> = None;
        let input_span = trace::span("sim/input_drive");
        if let Some(k) = cache_key {
            if input_cache[k].is_none() {
                let (raw, in_spikes) = coding.encode(images, t);
                let mut z = raw;
                let mut synops_acc = 0u64;
                for i in 0..=first_weighted {
                    let (next, synops) = executor.propagate(ops, i, &z)?;
                    synops_acc += synops;
                    z = next;
                }
                input_cache[k] = Some(CachedDrive {
                    fused: z.clone(),
                    raw: z,
                    fused_scale: f32::NAN, // force the fuse below
                    in_spikes,
                    synops: synops_acc,
                });
            }
            let entry = input_cache[k].as_mut().expect("filled above");
            if entry.fused_scale != bias_scale {
                // Re-fuse for this step's bias scale (bundled codings
                // use a constant scale, so this runs once per phase).
                entry.fused = entry.raw.clone();
                ops[first_weighted].inject_bias_pm(&mut entry.fused, bias_scale)?;
                entry.fused_scale = bias_scale;
            }
            input_spikes += entry.in_spikes;
            synop_adds += entry.synops;
            if needs_mult {
                synop_mults += entry.synops;
            }
        } else {
            let (raw, in_spikes) = coding.encode(images, t);
            input_spikes += in_spikes;
            let mut z = raw;
            let mut synops_acc = 0u64;
            for i in 0..=first_weighted {
                let (next, synops) = executor.propagate(ops, i, &z)?;
                synops_acc += synops;
                z = next;
            }
            synop_adds += synops_acc;
            if needs_mult {
                synop_mults += synops_acc;
            }
            ops[first_weighted].inject_bias_pm(&mut z, bias_scale)?;
            fresh_drive = Some(z);
        }
        drop(input_span);
        let step_span = trace::span("sim/step_ops");
        let drive: &Tensor = match cache_key {
            Some(k) => &input_cache[k].as_ref().expect("filled above").fused,
            None => fresh_drive.as_ref().expect("computed above"),
        };
        let skip_until = first_weighted;
        let mut signal = Tensor::default();
        let mut hidden_index = 0usize;
        // Set after a fire phase that emitted nothing: every op until the
        // next weighted layer maps an all-zero signal to all-zero output
        // with zero synops, so propagation is skipped outright (deep
        // layers are silent for many early steps) — only the constant
        // bias current still reaches the membrane.
        let mut signal_zero = false;
        // Whether `fire_events` (not `signal`) holds the live signal.
        let mut events_active = false;
        for (i, op) in ops.iter().enumerate() {
            if i < skip_until {
                continue;
            }
            if op.is_weighted() {
                let state = states[i].as_mut().expect("weighted op has state");
                let synops = if i == skip_until {
                    // `drive` holds this op's output with the bias
                    // already folded in (synops charged above); one
                    // integrate finishes the step for this layer.
                    state.integrate(drive)?;
                    0
                } else if signal_zero {
                    ops[i].inject_bias_pm(state.potential_mut(), bias_scale)?;
                    0
                } else if events_active {
                    executor.accumulate_weighted_events(
                        ops,
                        i,
                        &fire_events,
                        bias_scale,
                        state.potential_mut(),
                    )?
                } else {
                    executor.accumulate_weighted(
                        ops,
                        i,
                        &signal,
                        bias_scale,
                        state.potential_mut(),
                    )?
                };
                synop_adds += synops;
                if needs_mult {
                    synop_mults += synops;
                }
                if i == last_weighted {
                    // Output layer: accumulate only.
                    signal_zero = true;
                    events_active = false;
                } else if use_event_fire {
                    let _s = trace::span("sim/fire");
                    let count = coding.fire_events(
                        state.potential_mut(),
                        t,
                        hidden_index,
                        &mut fire_events,
                    );
                    spikes_hidden[i] += count;
                    signal_zero = count == 0;
                    events_active = count > 0;
                    hidden_index += 1;
                } else {
                    let _s = trace::span("sim/fire");
                    let (spikes, count) = coding.fire(state.potential_mut(), t, hidden_index);
                    spikes_hidden[i] += count;
                    signal = spikes;
                    signal_zero = count == 0;
                    events_active = false;
                    hidden_index += 1;
                }
            } else if events_active && !signal_zero {
                // Pass-through ops on an event signal: the signal stays
                // in event form all the way to the next integrate
                // (synops are zero for all of them).
                match op {
                    SnnOp::AvgPool { window, stride } => {
                        executor.avg_pool_events(&mut fire_events, *window, *stride)?;
                    }
                    SnnOp::Flatten => {
                        let numel = fire_events.feature_numel();
                        fire_events.reshape_features(&[numel])?;
                    }
                    _ => {
                        // Not reachable with the bundled architectures
                        // (max pooling is rejected up front); densify and
                        // take the dense path.
                        signal = fire_events.to_dense();
                        events_active = false;
                        let (z, synops) = executor.propagate(ops, i, &signal)?;
                        synop_adds += synops;
                        if needs_mult {
                            synop_mults += synops;
                        }
                        signal = z;
                    }
                }
            } else {
                let (z, synops) = if signal_zero {
                    let mut dims = vec![n];
                    dims.extend_from_slice(plan.state_dims(i));
                    (Tensor::zeros(dims), 0)
                } else {
                    executor.propagate(ops, i, &signal)?
                };
                synop_adds += synops;
                if needs_mult {
                    synop_mults += synops;
                }
                signal = z;
            }
        }
        drop(step_span);
        if (t + 1) % config.record_every == 0 || t + 1 == config.max_steps {
            let _s = trace::span("sim/record");
            let output = states[last_weighted].as_ref().expect("output state");
            let correct = batch_correct(output.potential(), labels)?;
            curve.push((t + 1, correct));
        }
    }

    Ok(ChunkStats {
        curve,
        spikes_hidden,
        input_spikes,
        synop_adds,
        synop_mults,
    })
}

/// Argmax correct-count of a `[N, classes]` potential tensor.
fn batch_correct(potential: &Tensor, labels: &[usize]) -> Result<u64> {
    if potential.rank() != 2 || potential.dims()[0] != labels.len() {
        return Err(TensorError::InvalidArgument {
            op: "batch_correct",
            message: format!(
                "potential {} vs {} labels — output layer is not [N, classes]",
                potential.shape(),
                labels.len()
            ),
        });
    }
    let c = potential.dims()[1];
    let mut correct = 0u64;
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
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coding::{BurstCoding, PhaseCoding, RateCoding, ReverseCoding};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use t2fsnn_data::{DatasetSpec, SyntheticConfig};
    use t2fsnn_dnn::architectures::mlp_tiny;
    use t2fsnn_dnn::{normalize_for_snn, train, TrainConfig};

    /// A trained, normalized tiny network plus its dataset.
    ///
    /// Sized so the DNN actually generalizes (~80% test accuracy): with
    /// fewer samples/epochs the MLP sits at chance on the held-out split
    /// and every downstream accuracy assertion becomes vacuous.
    fn fixture() -> (SnnNetwork, Tensor, Vec<usize>, f32) {
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        let data = SyntheticConfig::new(DatasetSpec::tiny(), 6).generate(320);
        let (train_set, test_set) = data.split(256);
        let mut dnn = mlp_tiny(&mut rng, &data.spec);
        let cfg = TrainConfig {
            epochs: 12,
            ..TrainConfig::default()
        };
        train(&mut dnn, &train_set, &cfg, &mut rng).unwrap();
        normalize_for_snn(&mut dnn, &train_set.images, 0.999).unwrap();
        let dnn_acc = t2fsnn_dnn::evaluate(&mut dnn, &test_set, 16).unwrap();
        let snn = SnnNetwork::from_dnn(&dnn).unwrap();
        (
            snn,
            test_set.images.clone(),
            test_set.labels.clone(),
            dnn_acc,
        )
    }

    #[test]
    fn rate_coding_approaches_dnn_accuracy() {
        let (snn, images, labels, dnn_acc) = fixture();
        let mut coding = RateCoding::new();
        let outcome = simulate(
            &snn,
            &mut coding,
            &images,
            &labels,
            &SimConfig::new(256, 32),
        )
        .unwrap();
        assert!(
            outcome.final_accuracy >= dnn_acc - 0.15,
            "rate SNN {:.3} too far below DNN {:.3}",
            outcome.final_accuracy,
            dnn_acc
        );
        assert!(outcome.total_spikes() > 0);
        // Rate coding spikes grow ~linearly with time: later half must add
        // a similar amount as the first half.
        let early = simulate(
            &snn,
            &mut RateCoding::new(),
            &images,
            &labels,
            &SimConfig::new(128, 32),
        )
        .unwrap();
        assert!(outcome.total_spikes() > early.total_spikes());
    }

    #[test]
    fn phase_coding_runs_and_spikes_less_per_value() {
        let (snn, images, labels, _) = fixture();
        let outcome = simulate(
            &snn,
            &mut PhaseCoding::new(8),
            &images,
            &labels,
            &SimConfig::new(64, 8),
        )
        .unwrap();
        assert_eq!(outcome.coding, "phase");
        assert!(outcome.final_accuracy > 0.25, "{}", outcome.final_accuracy);
        assert!(outcome.synop_mults > 0, "phase coding multiplies");
    }

    #[test]
    fn burst_coding_converges_quickly() {
        let (snn, images, labels, dnn_acc) = fixture();
        let outcome = simulate(
            &snn,
            &mut BurstCoding::new(5),
            &images,
            &labels,
            &SimConfig::new(64, 8),
        )
        .unwrap();
        assert!(
            outcome.final_accuracy >= dnn_acc - 0.2,
            "burst {:.3} vs dnn {:.3}",
            outcome.final_accuracy,
            dnn_acc
        );
    }

    #[test]
    fn burst_uses_fewer_spikes_than_rate_at_same_accuracy_scale() {
        let (snn, images, labels, _) = fixture();
        let rate = simulate(
            &snn,
            &mut RateCoding::new(),
            &images,
            &labels,
            &SimConfig::new(256, 64),
        )
        .unwrap();
        let burst = simulate(
            &snn,
            &mut BurstCoding::new(5),
            &images,
            &labels,
            &SimConfig::new(64, 16),
        )
        .unwrap();
        assert!(
            burst.total_spikes() < rate.total_spikes(),
            "burst {} !< rate {}",
            burst.total_spikes(),
            rate.total_spikes()
        );
    }

    #[test]
    fn event_engine_is_bit_identical_to_dense_reference() {
        let (snn, images, labels, _) = fixture();
        for threshold in [0.05f32, 0.25, 1.0] {
            let dense = simulate(
                &snn,
                &mut PhaseCoding::new(8),
                &images,
                &labels,
                &SimConfig::new(48, 8).with_engine(SimEngine::dense()),
            )
            .unwrap();
            let event = simulate(
                &snn,
                &mut PhaseCoding::new(8),
                &images,
                &labels,
                &SimConfig::new(48, 8).with_engine(SimEngine::Event {
                    sparsity_threshold: threshold,
                }),
            )
            .unwrap();
            assert_eq!(dense, event, "threshold {threshold}");
        }
    }

    #[test]
    fn chunked_simulation_is_bit_identical_for_every_worker_count() {
        let (snn, images, labels, _) = fixture();
        let serial = simulate_on(
            &snn,
            &mut BurstCoding::new(5),
            &images,
            &labels,
            &SimConfig::new(32, 8),
            &ThreadPool::new(1),
        )
        .unwrap();
        for workers in [2usize, 3, 5] {
            let parallel = simulate_on(
                &snn,
                &mut BurstCoding::new(5),
                &images,
                &labels,
                &SimConfig::new(32, 8),
                &ThreadPool::new(workers),
            )
            .unwrap();
            assert_eq!(serial, parallel, "workers={workers}");
        }
        // Reverse coding carries per-layer refractory state and must
        // still chunk cleanly.
        let serial = simulate_on(
            &snn,
            &mut ReverseCoding::new(16),
            &images,
            &labels,
            &SimConfig::new(32, 8),
            &ThreadPool::new(1),
        )
        .unwrap();
        let parallel = simulate_on(
            &snn,
            &mut ReverseCoding::new(16),
            &images,
            &labels,
            &SimConfig::new(32, 8),
            &ThreadPool::new(4),
        )
        .unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn bernoulli_rate_input_declines_chunking_but_still_runs() {
        let (snn, images, labels, _) = fixture();
        let mut coding = RateCoding::bernoulli(7);
        assert!(!crate::coding::Coding::batch_divisible(&coding));
        let a = simulate_on(
            &snn,
            &mut coding,
            &images,
            &labels,
            &SimConfig::new(16, 8),
            &ThreadPool::new(4),
        )
        .unwrap();
        // The multi-worker pool must not change the single RNG stream.
        let b = simulate_on(
            &snn,
            &mut RateCoding::bernoulli(7),
            &images,
            &labels,
            &SimConfig::new(16, 8),
            &ThreadPool::new(1),
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn curve_is_sampled_at_requested_resolution() {
        let (snn, images, labels, _) = fixture();
        let outcome = simulate(
            &snn,
            &mut RateCoding::new(),
            &images,
            &labels,
            &SimConfig::new(100, 25),
        )
        .unwrap();
        let steps: Vec<usize> = outcome.curve.iter().map(|p| p.step).collect();
        assert_eq!(steps, vec![25, 50, 75, 100]);
    }

    #[test]
    fn latency_finds_first_good_step() {
        let outcome = SimOutcome {
            coding: "x".into(),
            images: 1,
            steps: 100,
            curve: vec![
                CurvePoint {
                    step: 25,
                    accuracy: 0.1,
                },
                CurvePoint {
                    step: 50,
                    accuracy: 0.8,
                },
                CurvePoint {
                    step: 75,
                    accuracy: 0.82,
                },
                CurvePoint {
                    step: 100,
                    accuracy: 0.82,
                },
            ],
            final_accuracy: 0.82,
            spikes_per_layer: vec![],
            input_spikes: 0,
            synop_adds: 0,
            synop_mults: 0,
        };
        assert_eq!(outcome.latency(0.05), 50);
        assert_eq!(outcome.latency(0.0), 75);
    }

    #[test]
    fn simulate_validates_inputs() {
        let (snn, images, labels, _) = fixture();
        let bad = Tensor::zeros([2, 8, 8]);
        assert!(simulate(
            &snn,
            &mut RateCoding::new(),
            &bad,
            &labels,
            &SimConfig::new(4, 2)
        )
        .is_err());
        assert!(simulate(
            &snn,
            &mut RateCoding::new(),
            &images,
            &labels[..3],
            &SimConfig::new(4, 2)
        )
        .is_err());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_config_panics() {
        let _ = SimConfig::new(0, 1);
    }
}
