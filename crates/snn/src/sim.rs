//! The clock-driven simulation engine.
//!
//! Simulates a converted [`SnnNetwork`] under any [`Coding`] over a batch
//! of images, recording everything the paper's evaluation needs: the
//! accuracy-versus-time curve (Fig. 6), per-layer spike counts (Table I/II),
//! synaptic operation counts (Table III extension) and latency.
//!
//! Each step encodes the input into the first layer through the
//! [`OpExecutor`] image-domain entry, then every hidden layer fires
//! ([`Coding::fire`]) into an event list that the executor's segment walk
//! carries into the next layer's membrane; the TTFS engine in the
//! `t2fsnn` crate runs the same walk. Execution is organized for speed
//! without changing a single bit of the results:
//!
//! * **Event-driven dispatch** — fired spikes stay an event list up to
//!   the next weighted op, and a dense input signal is scattered as events
//!   when its density is below the engine threshold (see [`SimEngine`]);
//!   the sparse and dense kernels are bit-identical by construction, and
//!   [`SimEngine::Dense`] densifies every list as the reference.
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
use crate::network::SnnNetwork;

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
    /// Spikes per hidden weighted layer.
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
/// Returns an error if shapes are inconsistent, the label count differs
/// from the image count, or `config` has a zero step count or recording
/// interval.
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
/// As [`simulate`].
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
    if config.max_steps == 0 || config.record_every == 0 {
        return Err(TensorError::InvalidArgument {
            op: "simulate",
            message: format!(
                "max_steps ({}) and record_every ({}) must be positive",
                config.max_steps, config.record_every
            ),
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
    // The network's cached plan shape-checks the whole chain up front
    // (so chunk workers can't fail on anything but numerics) and every
    // chunk shares its re-laid-out weights.
    let plan = net.plan(&images.dims()[1..])?;

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
    let spikes_per_layer = net
        .weighted_names()
        .into_iter()
        .zip(stats.spikes_hidden)
        .map(|(name, spikes)| (name.to_string(), spikes))
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
    let segments = plan.segments();
    let layers = segments.len();
    let mut executor = OpExecutor::new(ops, plan, config.engine);
    let zeros = |k: usize| {
        let mut dims = vec![n];
        dims.extend_from_slice(plan.state_dims(segments[k].weighted));
        Tensor::zeros(dims)
    };
    // One membrane per weighted layer, in the engine's native
    // position-major layout (`[N, OH, OW, C]` for conv outputs).
    let mut potentials: Vec<Tensor> = (0..layers).map(zeros).collect();

    coding.reset();
    let needs_mult = coding.synop_needs_mult();
    let mut spikes_hidden = vec![0u64; layers - 1];
    let mut input_spikes = 0u64;
    // Per-image synop ledger: every weighted kernel bills its adds here
    // as it scatters.
    let mut synops = vec![0u64; n];
    let mut curve = Vec::new();

    // Deterministic periodic inputs let us compute the (expensive, often
    // dense) input-layer propagation once per phase and replay it. The
    // cached synop counts are still charged every step — the arithmetic
    // happens on real hardware; we just avoid recomputing it.
    struct CachedDrive {
        /// First-weighted-op output for this input phase, with the bias
        /// current folded in, so the per-step work is a single integrate.
        fused: Tensor,
        in_spikes: u64,
        /// Per-image synop adds of computing `fused`.
        synops: Vec<u64>,
    }
    let mut input_cache: Vec<Option<CachedDrive>> = match coding.input_period() {
        Some(p) if p > 0 => (0..p).map(|_| None).collect(),
        _ => Vec::new(),
    };
    // Every fire phase emits into this reused event list.
    let mut events = SpikeBatch::empty();
    let bias_scale = coding.bias_scale();

    for t in 0..config.max_steps {
        // Resolve this step's input-layer drive: borrowed from the
        // per-phase cache (filled on first use), or computed fresh for
        // non-periodic codings. Either way the image-domain entry of the
        // segment walk accumulates the encoded input, plus the bias
        // current, into a zeroed drive.
        let input_span = trace::span("sim/input_drive");
        let fresh_drive;
        let drive: &Tensor = if input_cache.is_empty() {
            let (z, in_spikes) = coding.encode(images, t);
            input_spikes += in_spikes;
            let mut drive = zeros(0);
            executor.integrate_image(z, &mut [], bias_scale, &mut drive, &mut synops)?;
            fresh_drive = drive;
            &fresh_drive
        } else {
            let period = input_cache.len();
            let entry = &mut input_cache[t % period];
            if entry.is_none() {
                let (z, in_spikes) = coding.encode(images, t);
                let mut fused = zeros(0);
                let mut fused_synops = vec![0u64; n];
                executor.integrate_image(z, &mut [], bias_scale, &mut fused, &mut fused_synops)?;
                *entry = Some(CachedDrive {
                    fused,
                    in_spikes,
                    synops: fused_synops,
                });
            }
            let entry = entry.as_ref().expect("filled above");
            input_spikes += entry.in_spikes;
            for (slot, &charged) in synops.iter_mut().zip(&entry.synops) {
                *slot += charged;
            }
            &entry.fused
        };
        drop(input_span);
        let step_span = trace::span("sim/step_ops");
        potentials[0].add_scaled(drive, 1.0)?;
        // Each hidden layer fires into `events`, which the segment walk
        // carries into the next layer's membrane. The output layer only
        // accumulates.
        for k in 1..layers {
            let (fired, next) = potentials.split_at_mut(k);
            let fire_span = trace::span("sim/fire");
            spikes_hidden[k - 1] += coding.fire(&mut fired[k - 1], t, &mut events);
            drop(fire_span);
            executor.integrate_events(
                k,
                &mut events,
                &mut [],
                bias_scale,
                &mut next[0],
                &mut synops,
            )?;
        }
        drop(step_span);
        if (t + 1) % config.record_every == 0 || t + 1 == config.max_steps {
            let _s = trace::span("sim/record");
            let correct = batch_correct(&potentials[layers - 1], labels)?;
            curve.push((t + 1, correct));
        }
    }

    let synop_adds = synops.iter().sum();
    Ok(ChunkStats {
        curve,
        spikes_hidden,
        input_spikes,
        synop_adds,
        // Codings with multiplying synapses pay one multiply per add.
        synop_mults: if needs_mult { synop_adds } else { 0 },
    })
}

/// Argmax over one output row: the last maximal element (matching
/// `Iterator::max_by`), with a NaN comparing equal to everything, and
/// `(0, −∞)` for an empty row. Every coding's prediction comes from it:
/// the baselines' accuracy curves here and the TTFS engine's labels and
/// correct counts, so all of them break ties the same way.
pub fn argmax(row: &[f32]) -> (usize, f32) {
    row.iter()
        .copied()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
        .unwrap_or((0, f32::NEG_INFINITY))
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
    let rows = potential.data().chunks_exact(potential.dims()[1].max(1));
    Ok(rows
        .zip(labels)
        .filter(|(row, &y)| argmax(row).0 == y)
        .count() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coding::{BurstCoding, PhaseCoding, RateCoding};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::sync::OnceLock;
    use t2fsnn_data::DatasetSpec;
    use t2fsnn_dnn::architectures::mlp_tiny;
    use t2fsnn_dnn::{Fitted, Recipe, TrainConfig};

    /// A trained, normalized tiny network, converted, plus its test
    /// split and DNN accuracy; fitted once per test binary.
    ///
    /// Sized so the DNN actually generalizes (~80% test accuracy): with
    /// fewer samples/epochs the MLP sits at chance on the held-out split
    /// and every downstream accuracy assertion becomes vacuous.
    fn fixture() -> &'static (SnnNetwork, Tensor, Vec<usize>, f32) {
        static FIXTURE: OnceLock<(SnnNetwork, Tensor, Vec<usize>, f32)> = OnceLock::new();
        FIXTURE.get_or_init(|| {
            let Fitted { mut dnn, test, .. } = Recipe {
                data_seed: 6,
                samples: 320,
                train_size: 256,
                init_seed: 33,
                train: TrainConfig {
                    epochs: 12,
                    ..TrainConfig::default()
                },
                ..Recipe::default()
            }
            .fit()
            .unwrap();
            let dnn_acc = t2fsnn_dnn::evaluate(&mut dnn, &test, 16).unwrap();
            let snn = SnnNetwork::from_dnn(&dnn).unwrap();
            (snn, test.images, test.labels, dnn_acc)
        })
    }

    #[test]
    fn rate_coding_approaches_dnn_accuracy() {
        let (snn, images, labels, dnn_acc) = fixture();
        let mut coding = RateCoding::new();
        let outcome = simulate(snn, &mut coding, images, labels, &SimConfig::new(256, 32)).unwrap();
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
            snn,
            &mut RateCoding::new(),
            images,
            labels,
            &SimConfig::new(128, 32),
        )
        .unwrap();
        assert!(outcome.total_spikes() > early.total_spikes());
    }

    #[test]
    fn phase_coding_runs_and_spikes_less_per_value() {
        let (snn, images, labels, _) = fixture();
        let outcome = simulate(
            snn,
            &mut PhaseCoding::new(8),
            images,
            labels,
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
            snn,
            &mut BurstCoding::new(5),
            images,
            labels,
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
            snn,
            &mut RateCoding::new(),
            images,
            labels,
            &SimConfig::new(256, 64),
        )
        .unwrap();
        let burst = simulate(
            snn,
            &mut BurstCoding::new(5),
            images,
            labels,
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
                snn,
                &mut PhaseCoding::new(8),
                images,
                labels,
                &SimConfig::new(48, 8).with_engine(SimEngine::dense()),
            )
            .unwrap();
            let event = simulate(
                snn,
                &mut PhaseCoding::new(8),
                images,
                labels,
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
            snn,
            &mut BurstCoding::new(5),
            images,
            labels,
            &SimConfig::new(32, 8),
            &ThreadPool::new(1),
        )
        .unwrap();
        for workers in [2usize, 3, 5] {
            let parallel = simulate_on(
                snn,
                &mut BurstCoding::new(5),
                images,
                labels,
                &SimConfig::new(32, 8),
                &ThreadPool::new(workers),
            )
            .unwrap();
            assert_eq!(serial, parallel, "workers={workers}");
        }
    }

    #[test]
    fn bernoulli_rate_input_declines_chunking_but_still_runs() {
        let (snn, images, labels, _) = fixture();
        let mut coding = RateCoding::bernoulli(7);
        assert!(!crate::coding::Coding::batch_divisible(&coding));
        let a = simulate_on(
            snn,
            &mut coding,
            images,
            labels,
            &SimConfig::new(16, 8),
            &ThreadPool::new(4),
        )
        .unwrap();
        // The multi-worker pool must not change the single RNG stream.
        let b = simulate_on(
            snn,
            &mut RateCoding::bernoulli(7),
            images,
            labels,
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
            snn,
            &mut RateCoding::new(),
            images,
            labels,
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
            snn,
            &mut RateCoding::new(),
            &bad,
            labels,
            &SimConfig::new(4, 2)
        )
        .is_err());
        assert!(simulate(
            snn,
            &mut RateCoding::new(),
            images,
            &labels[..3],
            &SimConfig::new(4, 2)
        )
        .is_err());
    }

    #[test]
    fn argmax_takes_the_last_maximum_and_lets_nan_tie() {
        assert_eq!(argmax(&[1.0, 3.0, 2.0, 3.0, 0.5]), (3, 3.0));
        assert_eq!(argmax(&[2.0, 2.0, 2.0]), (2, 2.0));
        // NaN compares equal to everything, so the scan keeps moving
        // right past it: here the later 1.0 wins over the earlier 5.0.
        let (i, v) = argmax(&[5.0, f32::NAN, 1.0]);
        assert_eq!((i, v), (2, 1.0));
        let (i, v) = argmax(&[0.0, 4.0, f32::NAN]);
        assert_eq!(i, 2);
        assert!(v.is_nan());
        assert_eq!(argmax(&[]), (0, f32::NEG_INFINITY));
        // The baselines' correct count follows the same rule.
        let tied = Tensor::from_vec([2, 3], vec![1.0, 1.0, 0.0, 0.0, f32::NAN, -1.0]).unwrap();
        assert_eq!(batch_correct(&tied, &[1, 2]).unwrap(), 2);
        assert_eq!(batch_correct(&tied, &[0, 1]).unwrap(), 0);
    }

    #[test]
    fn zero_steps_or_record_interval_is_an_error() {
        // `SimConfig`'s fields are public, so `SimConfig::new`'s assert
        // does not guard them: `simulate_on` must reject the zeros
        // instead of dividing by them.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let spec = DatasetSpec::tiny();
        let snn = SnnNetwork::from_dnn(&mlp_tiny(&mut rng, &spec)).unwrap();
        let images = Tensor::ones([2, spec.channels, spec.height, spec.width]);
        let pool = ThreadPool::new(1);
        for (max_steps, record_every) in [(4, 0), (0, 2)] {
            let config = SimConfig {
                max_steps,
                record_every,
                engine: SimEngine::default(),
            };
            let result = simulate_on(
                &snn,
                &mut RateCoding::new(),
                &images,
                &[0, 1],
                &config,
                &pool,
            );
            assert!(
                matches!(result, Err(TensorError::InvalidArgument { .. })),
                "max_steps {max_steps}, record_every {record_every}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_config_panics() {
        let _ = SimConfig::new(0, 1);
    }
}
