//! Per-image (request-scoped) TTFS inference with an anytime early-exit.
//!
//! [`T2fsnn::run`] answers the *batch* questions the paper asks
//! (accuracy curves, spike histograms). An online-serving path needs the
//! *per-request* answers instead: each image's label, how many steps it
//! took to decide, and how many spikes/synaptic operations it cost —
//! independent of whatever other requests happened to share its batch.
//! [`T2fsnn::infer`] provides exactly that, with two contracts:
//!
//! * **Batch invariance** — an image's [`ImageInference`] is
//!   bit-identical whether it ran solo, inside any batch, or on any
//!   worker count. Images never interact in the pipeline: every kernel
//!   processes per-image slices in the canonical order, and noise
//!   injection draws from a per-image ChaCha8 stream keyed on the
//!   image's *content* (never its batch position), so even noisy
//!   inference is a pure function of the single image. The serving
//!   test suite asserts the invariance over random request streams.
//! * **Anytime early-exit** — under TTFS the first output spike *is* the
//!   decision. With [`InferOptions::early_exit`] the output layer is
//!   given its own fire phase on the standard pipeline schedule
//!   (starting at `fire_start(L−1)`, i.e. one stride after the last
//!   hidden layer's): the first step whose decaying threshold
//!   `θ0·ε(t)` is crossed decides the request, and the request's
//!   simulation is terminated — its neurons stop firing, which is where
//!   the spike/synop savings come from. Without early firing the output
//!   fire phase begins exactly when output integration completes, so a
//!   decision equals the full-window argmax *by construction*; with
//!   early firing the fire phase overlaps integration and carries the
//!   same "non-guaranteed integration" caveat as early firing itself.
//!   Requests whose potentials never cross the threshold fall back to
//!   the full-window argmax with [`ImageInference::decision_step`]
//!   `None`.
//!
//! The anytime property is also the serving layer's pressure valve: a
//! deadline-pressed full-window request can be *forced* onto the
//! early-exit path (the serve crate's degradation ladder) and its
//! result is bit-identical to the same image explicitly requested with
//! [`InferOptions::early_exit`] — degraded service is a cheaper point
//! on the same accuracy/latency curve, not a different computation.

use serde::{Deserialize, Serialize};
use t2fsnn_snn::{argmax, OpPlan, SnnOp};
use t2fsnn_tensor::{trace, Result, Tensor, TensorError, ThreadPool};

use crate::network::T2fsnn;

/// Knobs of a [`T2fsnn::infer`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InferOptions {
    /// Give the output layer its own fire phase and terminate each
    /// image's simulation at its first output spike (see the module
    /// docs for the exact semantics). Off by default.
    pub early_exit: bool,
}

impl InferOptions {
    /// Options with the early-exit fire phase enabled. Also the forced
    /// degraded mode under deadline pressure: there is exactly one
    /// early-exit code path, whether a client asked for it or a
    /// scheduler imposed it, so the two are bit-identical by
    /// construction.
    pub fn early_exit() -> Self {
        InferOptions { early_exit: true }
    }
}

/// Everything measured for one image of an [`T2fsnn::infer`] call.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImageInference {
    /// Predicted class.
    pub label: usize,
    /// Global step (1-based) of the first output spike, when the
    /// early-exit fire phase decided the image; `None` when early exit
    /// was off or the output potentials never crossed the threshold.
    pub decision_step: Option<usize>,
    /// Steps this image was simulated for (its anytime latency): the
    /// decision step when early exit fired, the full window otherwise.
    pub steps: usize,
    /// Membrane potential of the winning output neuron when the image
    /// was decided.
    pub top_potential: f32,
    /// Spikes emitted by the input encoding of this image.
    pub input_spikes: u64,
    /// Spikes emitted by all hidden layers of this image.
    pub hidden_spikes: u64,
    /// Synaptic accumulate operations charged to this image.
    pub synop_adds: u64,
    /// Kernel multiplies charged to this image (one per spike).
    pub synop_mults: u64,
}

impl ImageInference {
    /// Input plus hidden spikes — every neuron spikes at most once.
    pub fn total_spikes(&self) -> u64 {
        self.input_spikes + self.hidden_spikes
    }

    /// Whether the early-exit fire phase decided this image.
    pub fn decided(&self) -> bool {
        self.decision_step.is_some()
    }
}

/// What the step loop measured over a batch (or one chunk of it).
pub(crate) struct Simulation {
    /// Per-image results, in batch order.
    pub(crate) images: Vec<ImageInference>,
    /// Spikes at each local step `[0, T)` of a fire window: the input
    /// encoding's first, then each hidden layer's.
    pub(crate) histograms: Vec<Vec<u64>>,
    /// `(step, images labelled correctly)` at each record step; empty
    /// without labels.
    pub(crate) curve: Vec<(usize, usize)>,
}

impl Simulation {
    /// Appends the next chunk: its images follow, its histograms and
    /// correct counts add in.
    fn absorb(&mut self, next: Simulation) {
        self.images.extend(next.images);
        for (a, b) in self.histograms.iter_mut().zip(next.histograms) {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
        for (a, b) in self.curve.iter_mut().zip(next.curve) {
            debug_assert_eq!(a.0, b.0, "chunks record the same steps");
            a.1 += b.1;
        }
    }
}

impl T2fsnn {
    /// Runs per-image TTFS inference over a `[N, C, H, W]` batch on the
    /// process-global thread pool. Each image's result is bit-identical
    /// whether it runs solo, in any batch or on any worker count; with
    /// [`InferOptions::early_exit`] its first output spike decides it.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatches or if the network does not
    /// end in a classifier.
    pub fn infer(&self, images: &Tensor, opts: InferOptions) -> Result<Vec<ImageInference>> {
        self.infer_on(images, opts, ThreadPool::global())
    }

    /// [`T2fsnn::infer`] with an explicit thread pool; results are
    /// bit-identical for every worker count.
    ///
    /// # Errors
    ///
    /// As [`T2fsnn::infer`].
    pub fn infer_on(
        &self,
        images: &Tensor,
        opts: InferOptions,
        pool: &ThreadPool,
    ) -> Result<Vec<ImageInference>> {
        let sim = self.simulate("T2fsnn::infer", images, None, opts.early_exit, pool)?;
        Ok(sim.images)
    }

    /// The setup both entry points share: validates the batch (and its
    /// labels), compiles the plan once, runs [`T2fsnn::simulate_chunk`]
    /// on each of `pool`'s contiguous chunks of the batch and merges the
    /// chunks in order. An empty batch is one empty chunk. Errors name
    /// the entry point `op`.
    pub(crate) fn simulate(
        &self,
        op: &'static str,
        images: &Tensor,
        labels: Option<&[usize]>,
        early_exit: bool,
        pool: &ThreadPool,
    ) -> Result<Simulation> {
        if images.rank() != 4 {
            return Err(TensorError::InvalidArgument {
                op,
                message: format!("expected [N, C, H, W] images, got {}", images.shape()),
            });
        }
        let n = images.dims()[0];
        if let Some(labels) = labels.filter(|l| l.len() != n) {
            return Err(TensorError::InvalidArgument {
                op,
                message: format!("{n} images but {} labels", labels.len()),
            });
        }
        let plan = self.plan(&images.dims()[1..])?;
        let ops = self.network().ops();
        let output = ops
            .iter()
            .rposition(SnnOp::is_weighted)
            .expect("plan has a weighted op");
        if plan.state_dims(output).len() != 1 {
            return Err(TensorError::InvalidArgument {
                op,
                message: format!(
                    "output {:?} per image — the network must end in a classifier",
                    plan.state_dims(output)
                ),
            });
        }
        let ranges = pool.chunk_ranges(n);
        if ranges.len() <= 1 {
            return self.simulate_chunk(images, labels, early_exit, &plan);
        }
        let feature: usize = images.dims()[1..].iter().product();
        let mut tasks = Vec::with_capacity(ranges.len());
        for range in ranges {
            let mut dims = images.dims().to_vec();
            dims[0] = range.len();
            let chunk = images.data()[range.start * feature..range.end * feature].to_vec();
            tasks.push((Tensor::from_vec(dims, chunk)?, labels.map(|l| &l[range])));
        }
        let mut chunks = pool
            .run_tasks(tasks, |(chunk, labels)| {
                self.simulate_chunk(&chunk, labels, early_exit, &plan)
            })
            .into_iter();
        let mut sim = chunks.next().expect("two or more chunks")?;
        for chunk in chunks {
            sim.absorb(chunk?);
        }
        Ok(sim)
    }

    /// The TTFS step loop over one contiguous sub-batch and the shared
    /// compiled `plan`. Each step's spikes and synops are billed to their
    /// images, so per-image results are independent of the chunking.
    /// With `labels`, the correct count is recorded every
    /// `record_every` steps and at the last step of the pipeline.
    fn simulate_chunk(
        &self,
        images: &Tensor,
        labels: Option<&[usize]>,
        early_exit: bool,
        plan: &OpPlan,
    ) -> Result<Simulation> {
        let config = self.config();
        let t_window = config.time_window;
        let n = images.dims()[0];
        // Serving keeps the flight recorder on, so a traced chunk records
        // one span plus one child per pipeline stage (set in the step
        // loop); the per-step spans below feed only the profile
        // aggregate.
        let mut tracer = trace::coarse("ttfs/infer_chunk", n as u64);
        let mut st = self.step_state(images, plan)?;
        let l_count = st.segments.len();

        let total_steps = self.total_steps();
        // Early-exit fire phase of the output layer, on the standard
        // pipeline schedule: without early firing it begins exactly when
        // output integration completes (= `total_steps`), so a decision
        // equals the full-window argmax by construction.
        let ee_start = self.fire_start(l_count - 1);
        let last_step = if early_exit {
            total_steps.max(ee_start + t_window)
        } else {
            total_steps
        };
        // Stage k starts at step k·stride, when layer k receives its first
        // input (the first layer at step 0); with early exit, stage L is
        // the output layer's fire window (`ee_start`).
        let stride = config.stride();
        let stages = if early_exit { l_count + 1 } else { l_count };

        // Per-image accounting.
        let mut undecided = n;
        let blank = ImageInference {
            label: 0,
            decision_step: None,
            steps: last_step,
            top_potential: f32::NEG_INFINITY,
            input_spikes: 0,
            hidden_spikes: 0,
            synop_adds: 0,
            synop_mults: 0,
        };
        let mut results = vec![blank; n];
        let mut histograms = vec![vec![0u64; t_window]; l_count];
        let mut curve = Vec::new();
        let classes = st.potentials[l_count - 1].dims()[1].max(1);

        for t in 0..last_step {
            if early_exit && undecided == 0 {
                break;
            }
            if t % stride == 0 && t / stride < stages {
                tracer.stage("ttfs/stage", (t / stride) as u64);
            }
            // Input fire window: [0, T). Decided images are terminated —
            // their pixels stop spiking.
            if t < t_window {
                st.input_step(t)?;
                for (r, &s) in results.iter_mut().zip(&st.spikes) {
                    r.input_spikes += s;
                    r.synop_mults += s; // one kernel multiply per spike
                    histograms[0][t] += s;
                }
            }

            // Hidden fire windows; decided images emit nothing.
            for i in 0..l_count - 1 {
                let start = self.fire_start(i);
                if t < start || t >= start + t_window {
                    continue;
                }
                let local = t - start;
                if st.fire(i, local) {
                    st.propagate(i + 1)?;
                    for (r, &s) in results.iter_mut().zip(&st.spikes) {
                        r.hidden_spikes += s;
                        r.synop_mults += s;
                        histograms[i + 1][local] += s;
                    }
                }
            }

            // Output fire phase (early exit): the first step whose
            // decaying threshold is crossed decides the image.
            if early_exit && t >= ee_start && t < ee_start + t_window {
                let _s = trace::span("ttfs/early_exit");
                let threshold = config.theta0 * st.fire_tables[l_count - 1][t - ee_start];
                let out = &st.potentials[l_count - 1];
                for (img, row) in out.data().chunks_exact(classes).enumerate() {
                    if st.decided[img] {
                        continue;
                    }
                    let (label, top) = argmax(row);
                    if top >= threshold {
                        st.decided[img] = true;
                        undecided -= 1;
                        let r = &mut results[img];
                        r.label = label;
                        r.top_potential = top;
                        r.decision_step = Some(t + 1);
                        r.steps = t + 1;
                    }
                }
            }

            if let Some(labels) = labels {
                if (t + 1) % config.record_every == 0 || t + 1 == total_steps {
                    let _s = trace::span("ttfs/record");
                    let out = st.potentials[l_count - 1].data().chunks_exact(classes);
                    let correct = out.zip(labels).filter(|(row, &y)| argmax(row).0 == y);
                    curve.push((t + 1, correct.count()));
                }
            }
        }

        // Undecided images (or every image when early exit is off):
        // full-window argmax. Synop adds come straight from the ledger
        // the kernels billed.
        let out = &st.potentials[l_count - 1];
        for (img, row) in out.data().chunks_exact(classes).enumerate() {
            let r = &mut results[img];
            r.synop_adds = st.synops[img];
            if !st.decided[img] {
                (r.label, r.top_potential) = argmax(row);
            }
        }
        Ok(Simulation {
            images: results,
            histograms,
            curve,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binfmt::crc32;
    use crate::eval::{build_variant_calibrated, Variant};
    use crate::kernel::KernelParams;
    use crate::network::{NoiseConfig, T2fsnnConfig};
    use crate::optimize::{GoCalibration, GoConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use t2fsnn_data::{Dataset, DatasetSpec, SyntheticConfig};
    use t2fsnn_dnn::{normalize_for_snn, train, Network, TrainConfig};

    fn fixture() -> (Network, Dataset) {
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let data = SyntheticConfig::new(DatasetSpec::tiny(), 9)
            .with_noise(0.1)
            .generate(160);
        let (train_set, test_set) = data.split(128);
        let mut dnn = t2fsnn_dnn::architectures::mlp_tiny(&mut rng, &data.spec);
        let config = TrainConfig {
            epochs: 10,
            ..TrainConfig::default()
        };
        train(&mut dnn, &train_set, &config, &mut rng).unwrap();
        normalize_for_snn(&mut dnn, &train_set.images, 0.999).unwrap();
        (dnn, test_set)
    }

    fn cnn_fixture() -> (Network, Dataset) {
        let mut rng = ChaCha8Rng::seed_from_u64(88);
        let spec = DatasetSpec::new("infer-cnn", 1, 16, 16, 4);
        let data = SyntheticConfig::new(spec.clone(), 14).generate(96);
        let (train_set, test_set) = data.split(72);
        let mut dnn = t2fsnn_dnn::architectures::cnn_small(
            &mut rng,
            &spec,
            t2fsnn_dnn::layers::PoolKind::Max,
        );
        train(&mut dnn, &train_set, &TrainConfig::default(), &mut rng).unwrap();
        normalize_for_snn(&mut dnn, &train_set.images, 0.999).unwrap();
        (dnn, test_set)
    }

    fn model(dnn: &Network, config: T2fsnnConfig) -> T2fsnn {
        T2fsnn::from_dnn(dnn, config, KernelParams::new(8.0, 0.0)).unwrap()
    }

    #[test]
    fn infer_matches_run_accuracy_and_synops() {
        for (dnn, test_set) in [fixture(), cnn_fixture()] {
            let m = model(&dnn, T2fsnnConfig::new(32));
            let run = m.run(&test_set.images, &test_set.labels).unwrap();
            let inf = m.infer(&test_set.images, InferOptions::default()).unwrap();
            let correct = inf
                .iter()
                .zip(&test_set.labels)
                .filter(|(r, &y)| r.label == y)
                .count();
            let accuracy = correct as f32 / test_set.len() as f32;
            assert!(
                (accuracy - run.accuracy).abs() < 1e-6,
                "infer {} vs run {}",
                accuracy,
                run.accuracy
            );
            // Per-image charges sum to the batch totals `run` reports.
            assert_eq!(
                inf.iter().map(|r| r.synop_adds).sum::<u64>(),
                run.synop_adds
            );
            assert_eq!(
                inf.iter().map(|r| r.synop_mults).sum::<u64>(),
                run.synop_mults
            );
            assert_eq!(
                inf.iter().map(|r| r.input_spikes).sum::<u64>(),
                run.input_spikes
            );
            assert_eq!(
                inf.iter().map(|r| r.hidden_spikes).sum::<u64>(),
                run.layers.iter().map(|l| l.count).sum::<u64>()
            );
            for r in &inf {
                assert_eq!(r.steps, m.total_steps());
                assert_eq!(r.decision_step, None);
            }
        }
    }

    #[test]
    fn early_exit_label_equals_full_window_label_when_decided() {
        // Without early firing the output fire phase begins after its
        // integration completes, so this equality holds by construction;
        // the assertion guards the construction.
        for (dnn, test_set) in [fixture(), cnn_fixture()] {
            let m = model(&dnn, T2fsnnConfig::new(32));
            let full = m.infer(&test_set.images, InferOptions::default()).unwrap();
            let ee = m
                .infer(&test_set.images, InferOptions::early_exit())
                .unwrap();
            let mut fired = 0usize;
            for (f, e) in full.iter().zip(&ee) {
                assert_eq!(f.label, e.label, "early-exit changed a label");
                if let Some(step) = e.decision_step {
                    fired += 1;
                    assert_eq!(e.steps, step);
                    assert!(step > m.total_steps() - m.config().time_window);
                    // The decision froze the image: it cannot have spent
                    // more than the full run.
                    assert!(e.total_spikes() <= f.total_spikes());
                    assert!(e.synop_adds <= f.synop_adds);
                } else {
                    assert_eq!(e.steps, m.total_steps() + m.config().time_window);
                }
            }
            assert!(fired > 0, "no image ever decided early");
        }
    }

    #[test]
    fn solo_and_batched_inference_are_bit_identical() {
        let (dnn, test_set) = cnn_fixture();
        let m = model(&dnn, T2fsnnConfig::new(32));
        let (images, _) = (test_set.images.clone(), &test_set.labels);
        let batched = m.infer(&images, InferOptions::early_exit()).unwrap();
        for i in [0usize, 3, 7] {
            let solo_img = images.index_axis0(i).unwrap();
            let mut dims = vec![1];
            dims.extend_from_slice(solo_img.dims());
            let solo_img = solo_img.reshape(dims).unwrap();
            let solo = m.infer(&solo_img, InferOptions::early_exit()).unwrap();
            assert_eq!(solo.len(), 1);
            assert_eq!(solo[0], batched[i], "image {i} differs solo vs batched");
            assert_eq!(
                solo[0].top_potential.to_bits(),
                batched[i].top_potential.to_bits()
            );
        }
    }

    #[test]
    fn worker_counts_are_bit_identical() {
        let (dnn, test_set) = fixture();
        let m = model(&dnn, T2fsnnConfig::new(32));
        let serial = m
            .infer_on(
                &test_set.images,
                InferOptions::early_exit(),
                &ThreadPool::new(1),
            )
            .unwrap();
        for workers in [2usize, 4] {
            let parallel = m
                .infer_on(
                    &test_set.images,
                    InferOptions::early_exit(),
                    &ThreadPool::new(workers),
                )
                .unwrap();
            assert_eq!(serial, parallel, "workers={workers}");
        }
    }

    #[test]
    fn early_firing_models_still_infer_consistently() {
        // With early firing the early-exit decision overlaps integration
        // (non-guaranteed), but the per-image results must still be
        // batch-invariant and undecided images must match the full run.
        let (dnn, test_set) = fixture();
        let m = model(&dnn, T2fsnnConfig::new(32).with_early_firing());
        let ee = m
            .infer(&test_set.images, InferOptions::early_exit())
            .unwrap();
        let solo_img = test_set.images.index_axis0(2).unwrap();
        let mut dims = vec![1];
        dims.extend_from_slice(solo_img.dims());
        let solo = m
            .infer(&solo_img.reshape(dims).unwrap(), InferOptions::early_exit())
            .unwrap();
        assert_eq!(solo[0], ee[2]);
    }

    #[test]
    fn outputs_match_pinned_digests() {
        // Digests of every `infer` (early exit off, on) and `run` output
        // on the CNN fixture. They were recorded before fired neurons were
        // retired to −∞ and input steps bucketed, so they pin both as
        // exact. The `Debug` form of an `f32` round-trips its bits, so
        // any changed label, potential, spike or synop count breaks a
        // digest.
        let (dnn, test_set) = cnn_fixture();
        let noise = NoiseConfig {
            jitter: 2,
            drop_prob: 0.15,
            seed: 5,
        };
        let mut got = Vec::new();
        for config in [
            T2fsnnConfig::new(32),
            T2fsnnConfig::new(32).with_early_firing(),
            T2fsnnConfig::new(32).with_noise(noise),
        ] {
            let m = model(&dnn, config);
            for opts in [InferOptions::default(), InferOptions::early_exit()] {
                let inf = m.infer(&test_set.images, opts).unwrap();
                got.push(crc32(format!("{inf:?}").as_bytes()));
            }
            let run = m.run(&test_set.images, &test_set.labels).unwrap();
            got.push(crc32(format!("{run:?}").as_bytes()));
        }
        let want: [u32; 9] = [
            49618881, 3898515578, 600444793, // clean: infer, infer + early exit, run
            2436551278, 3806195860, 3562344242, // early firing
            2734141354, 71217591, 2769929130, // jitter + drop noise
        ];
        assert_eq!(got, want);

        // GO-built kernels (τ/t_d bits of the input encoder and every
        // layer) on a 1/2-width VGG whose deepest convs run on 4×4 and
        // 2×2 planes, calibrated on 100 images: pixels and `conv1_1` are
        // stride-subsampled, the deep layers are kept whole.
        let mut rng = ChaCha8Rng::seed_from_u64(19);
        let spec = DatasetSpec::new("infer-go", 3, 32, 32, 5);
        let data = SyntheticConfig::new(spec.clone(), 31).generate(100);
        let scale = t2fsnn_dnn::architectures::VggScale {
            base_channels: 4,
            convs_per_block: [1, 1, 1, 1, 1],
            fc_width: 16,
            ..Default::default()
        };
        let mut vgg = t2fsnn_dnn::architectures::vgg_scaled(&mut rng, &spec, scale);
        normalize_for_snn(&mut vgg, &data.images, 0.999).unwrap();
        let calibration = GoCalibration::collect(&mut vgg, &data.images).unwrap();
        let go = GoConfig {
            passes: 1,
            ..GoConfig::default()
        };
        let mut go_digests = Vec::new();
        for ef in [false, true] {
            let m = build_variant_calibrated(
                &vgg,
                &calibration,
                32,
                Variant { go: true, ef },
                KernelParams::new(8.0, 0.0),
                &go,
                &mut rng,
            )
            .unwrap();
            let bits: Vec<(u32, u32)> = std::iter::once(m.input_kernel())
                .chain(m.kernels().iter().copied())
                .map(|k| (k.tau.to_bits(), k.t_d.to_bits()))
                .collect();
            go_digests.push(crc32(format!("{bits:?}").as_bytes()));
        }
        assert_eq!(go_digests, [880852117u32, 2716465684]); // GO, GO + early firing
    }

    #[test]
    fn infer_validates_inputs() {
        let (dnn, test_set) = fixture();
        let m = model(&dnn, T2fsnnConfig::new(8));
        assert!(m
            .infer(&Tensor::zeros([4, 8, 8]), InferOptions::default())
            .is_err());
        // Noise configs used to be rejected here (the old RNG stream was
        // batch-order-dependent); per-image content-keyed streams lifted
        // that restriction.
        let noisy = model(
            &dnn,
            T2fsnnConfig::new(8).with_noise(NoiseConfig::jitter_only(1, 3)),
        );
        assert!(noisy
            .infer(&test_set.images, InferOptions::default())
            .is_ok());
    }

    #[test]
    fn non_classifier_output_is_rejected_before_any_step() {
        // A conv → ReLU DNN converts, but its `[N, H, W, C]` output is
        // no classifier: every entry point rejects it, none panics.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut dnn = Network::new();
        let spec = t2fsnn_tensor::ops::Conv2dSpec::new(1, 1);
        dnn.push(
            "conv",
            t2fsnn_dnn::layers::Conv2d::new(&mut rng, 1, 2, 3, spec),
        );
        dnn.push("relu", t2fsnn_dnn::layers::Relu::new());
        let m = model(&dnn, T2fsnnConfig::new(8));
        let images = Tensor::zeros([3, 1, 4, 4]);
        fn invalid<T>(r: Result<T>) -> bool {
            matches!(r, Err(TensorError::InvalidArgument { .. }))
        }
        assert!(invalid(m.run(&images, &[0; 3])));
        assert!(invalid(m.infer(&images, InferOptions::default())));
        let pool = ThreadPool::new(2);
        for opts in [InferOptions::default(), InferOptions::early_exit()] {
            assert!(invalid(m.infer_on(&images, opts, &pool)));
        }
    }

    #[test]
    fn zero_severity_noise_infer_is_bit_identical_to_clean() {
        // A noise config whose knobs are all zero must take no RNG draws
        // and reproduce the clean path bit for bit.
        let (dnn, test_set) = fixture();
        let clean = model(&dnn, T2fsnnConfig::new(32));
        let zero = model(
            &dnn,
            T2fsnnConfig::new(32).with_noise(NoiseConfig::jitter_only(0, 7)),
        );
        for opts in [InferOptions::default(), InferOptions::early_exit()] {
            let a = clean.infer(&test_set.images, opts).unwrap();
            let b = zero.infer(&test_set.images, opts).unwrap();
            assert_eq!(a, b);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.top_potential.to_bits(), y.top_potential.to_bits());
            }
        }
    }

    #[test]
    fn noisy_infer_is_batch_invariant() {
        // The per-image content-keyed streams make noisy inference a
        // pure function of the single image: solo and batched results
        // must agree bit for bit.
        let (dnn, test_set) = fixture();
        let m = model(
            &dnn,
            T2fsnnConfig::new(32).with_noise(NoiseConfig {
                jitter: 2,
                drop_prob: 0.15,
                seed: 42,
            }),
        );
        let batched = m
            .infer(&test_set.images, InferOptions::early_exit())
            .unwrap();
        // Solo runs and a shuffled sub-batch must both reproduce the
        // full batch's per-image answers.
        for i in [0usize, 3, 7] {
            let solo_img = test_set.images.index_axis0(i).unwrap();
            let mut dims = vec![1];
            dims.extend_from_slice(solo_img.dims());
            let solo = m
                .infer(&solo_img.reshape(dims).unwrap(), InferOptions::early_exit())
                .unwrap();
            assert_eq!(solo[0], batched[i], "image {i} differs solo vs batched");
            assert_eq!(
                solo[0].top_potential.to_bits(),
                batched[i].top_potential.to_bits()
            );
        }
        let feature: usize = test_set.images.dims()[1..].iter().product();
        let order = [5usize, 1, 6];
        let mut sub = Vec::with_capacity(order.len() * feature);
        for &i in &order {
            sub.extend_from_slice(&test_set.images.data()[i * feature..(i + 1) * feature]);
        }
        let mut dims = test_set.images.dims().to_vec();
        dims[0] = order.len();
        let sub = Tensor::from_vec(dims, sub).unwrap();
        let sub_results = m.infer(&sub, InferOptions::early_exit()).unwrap();
        for (k, &i) in order.iter().enumerate() {
            assert_eq!(sub_results[k], batched[i], "image {i} differs in sub-batch");
        }
    }

    #[test]
    fn noisy_infer_is_worker_invariant_and_matches_run() {
        let (dnn, test_set) = fixture();
        let m = model(
            &dnn,
            T2fsnnConfig::new(32).with_noise(NoiseConfig {
                jitter: 3,
                drop_prob: 0.1,
                seed: 9,
            }),
        );
        let serial = m
            .infer_on(
                &test_set.images,
                InferOptions::default(),
                &ThreadPool::new(1),
            )
            .unwrap();
        for workers in [2usize, 4] {
            let parallel = m
                .infer_on(
                    &test_set.images,
                    InferOptions::default(),
                    &ThreadPool::new(workers),
                )
                .unwrap();
            assert_eq!(serial, parallel, "workers={workers}");
        }
        // Full-window noisy inference consumes each image's stream in
        // exactly `run`'s order, so the batch path agrees too.
        let run = m.run(&test_set.images, &test_set.labels).unwrap();
        let correct = serial
            .iter()
            .zip(&test_set.labels)
            .filter(|(r, &y)| r.label == y)
            .count();
        let accuracy = correct as f32 / test_set.len() as f32;
        assert!((accuracy - run.accuracy).abs() < 1e-6);
        assert_eq!(
            serial.iter().map(|r| r.synop_adds).sum::<u64>(),
            run.synop_adds
        );
        assert_eq!(
            serial.iter().map(|r| r.hidden_spikes).sum::<u64>(),
            run.layers.iter().map(|l| l.count).sum::<u64>()
        );
    }
}
