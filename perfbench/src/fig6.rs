//! The `fig6-repro` workload: the Fig. 6 pipeline of `repro_fig6`,
//! called stage by stage from here so every library call is timed and
//! no results file is written.
//!
//! Per scenario one pass runs `SnnNetwork::from_dnn`, `simulate` for
//! rate, phase and burst coding, `GoCalibration::collect`, then
//! `build_variant_calibrated` and `T2fsnn::run` for the four T2FSNN
//! variants — the same calls, arguments and seeds as `repro_fig6`.

use std::time::Instant;

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use t2fsnn::eval::{build_variant_calibrated, Variant};
use t2fsnn::optimize::{GoCalibration, GoConfig};
use t2fsnn::{T2fsnn, TtfsRun};
use t2fsnn_bench::{Prepared, Scenario};
use t2fsnn_snn::coding::{BurstCoding, Coding, PhaseCoding, RateCoding};
use t2fsnn_snn::{simulate, SimConfig, SimEngine, SimOutcome, SnnNetwork};
use t2fsnn_tensor::Tensor;

use crate::spans::Spans;

/// The scenarios Fig. 6 plots.
pub const SCENARIOS: [Scenario; 2] = [Scenario::Cifar10Like, Scenario::Cifar100Like];

/// Test images of the fixed subset rerun on [`SimEngine::Dense`].
const DENSE_CHECK_IMAGES: usize = 4;

/// Codings evaluated per scenario and pass: three baselines and the
/// four T2FSNN variants.
pub const CODINGS: usize = 3 + Variant::ALL.len();

/// Index of T2FSNN+GO+EF in [`Variant::ALL`], the variant whose
/// accuracy, spikes and steps the workload reports.
pub const GO_EF: usize = 3;

/// One scenario's inputs to a pass: its prepared network and the eval
/// subset in the run's seeded order.
pub struct Case {
    pub prepared: Prepared,
    images: Tensor,
    labels: Vec<usize>,
}

impl Case {
    /// The scenario's eval subset (the first `eval_images()` test
    /// images, as `repro_fig6` uses) shuffled by `seed`. The seed fixes
    /// the order only; the image set is the same for every seed.
    pub fn new(prepared: Prepared, seed: u64) -> Case {
        let n = prepared.scenario.eval_images().min(prepared.test.len());
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
        let parts: Vec<Tensor> = order
            .iter()
            .map(|&i| {
                prepared
                    .test
                    .images
                    .index_axis0(i)
                    .expect("index below the split length")
            })
            .collect();
        let labels = order.iter().map(|&i| prepared.test.labels[i]).collect();
        Case {
            images: Tensor::stack(&parts).expect("test images share one shape"),
            labels,
            prepared,
        }
    }
}

/// Seconds spent in each kind of timed call during one pass, summed
/// over the pass's scenarios, plus the pass's wall time.
#[derive(Debug, Default, Clone, Copy)]
pub struct PassTimes {
    pub convert: f64,
    pub rate: f64,
    pub phase: f64,
    pub burst: f64,
    pub collect: f64,
    pub build: f64,
    pub run: f64,
    pub wall: f64,
}

impl PassTimes {
    /// Sum of the timed calls (everything but loop overhead).
    pub fn timed(&self) -> f64 {
        self.convert + self.rate + self.phase + self.burst + self.collect + self.build + self.run
    }
}

/// What one scenario of a pass produced.
pub struct ScenarioOutput {
    /// Rate, phase and burst outcomes, in that order.
    pub baselines: Vec<SimOutcome>,
    /// The four variant runs, in [`Variant::ALL`] order.
    pub runs: Vec<TtfsRun>,
    snn: SnnNetwork,
    models: Vec<T2fsnn>,
}

impl PartialEq for ScenarioOutput {
    /// Results only: the networks are inputs, not outputs.
    fn eq(&self, other: &Self) -> bool {
        self.baselines == other.baselines && self.runs == other.runs
    }
}

/// The baseline codings with their step counts and span names.
fn baselines(scenario: Scenario) -> [(&'static str, Box<dyn Coding>, usize); 3] {
    [
        (
            "snn.simulate_rate",
            Box::new(RateCoding::new()),
            scenario.rate_steps(),
        ),
        (
            "snn.simulate_phase",
            Box::new(PhaseCoding::new(8)),
            scenario.fast_coding_steps(),
        ),
        (
            "snn.simulate_burst",
            Box::new(BurstCoding::new(5)),
            scenario.fast_coding_steps(),
        ),
    ]
}

fn sim_config(steps: usize) -> SimConfig {
    SimConfig::new(steps, (steps / 16).max(1))
}

/// Runs one Fig. 6 pass over `cases`, timing every library call.
///
/// # Errors
///
/// Returns the first library error, naming the call that failed.
pub fn pass(cases: &mut [Case], spans: &Spans) -> Result<(PassTimes, Vec<ScenarioOutput>), String> {
    let mut times = PassTimes::default();
    let mut outputs = Vec::with_capacity(cases.len());
    let start = Instant::now();
    for case in cases.iter_mut() {
        let scenario = case.prepared.scenario;
        let (snn, d) = spans.time("snn.convert", || SnnNetwork::from_dnn(&case.prepared.dnn));
        times.convert += d.as_secs_f64();
        let snn = snn.map_err(|e| format!("{}: SnnNetwork::from_dnn: {e}", scenario.name()))?;

        let mut sims = Vec::with_capacity(3);
        for (i, (span, mut coding, steps)) in baselines(scenario).into_iter().enumerate() {
            let (outcome, d) = spans.time(span, || {
                simulate(
                    &snn,
                    coding.as_mut(),
                    &case.images,
                    &case.labels,
                    &sim_config(steps),
                )
            });
            match i {
                0 => times.rate += d.as_secs_f64(),
                1 => times.phase += d.as_secs_f64(),
                _ => times.burst += d.as_secs_f64(),
            }
            sims.push(outcome.map_err(|e| format!("{}: {span}: {e}", scenario.name()))?);
        }

        let (calibration, d) = spans.time("core.go_collect", || {
            GoCalibration::collect(&mut case.prepared.dnn, &case.prepared.train.images)
        });
        times.collect += d.as_secs_f64();
        let calibration =
            calibration.map_err(|e| format!("{}: GoCalibration::collect: {e}", scenario.name()))?;

        let mut runs = Vec::with_capacity(Variant::ALL.len());
        let mut models = Vec::with_capacity(Variant::ALL.len());
        for variant in Variant::ALL {
            let mut rng = ChaCha8Rng::seed_from_u64(scenario.seed() + 6);
            let (model, d) = spans.time("core.go_build", || {
                build_variant_calibrated(
                    &case.prepared.dnn,
                    &calibration,
                    scenario.time_window(),
                    variant,
                    scenario.initial_kernel(),
                    &GoConfig::default(),
                    &mut rng,
                )
            });
            times.build += d.as_secs_f64();
            let model =
                model.map_err(|e| format!("{}: build {}: {e}", scenario.name(), variant.name()))?;
            let (run, d) = spans.time("core.run", || model.run(&case.images, &case.labels));
            times.run += d.as_secs_f64();
            runs.push(
                run.map_err(|e| format!("{}: run {}: {e}", scenario.name(), variant.name()))?,
            );
            models.push(model);
        }
        outputs.push(ScenarioOutput {
            baselines: sims,
            runs,
            snn,
            models,
        });
    }
    times.wall = start.elapsed().as_secs_f64();
    Ok((times, outputs))
}

/// The standing bit-identity contract on a fixed subset (the first
/// [`DENSE_CHECK_IMAGES`] test images of each scenario): every baseline
/// and every variant must produce the same results on the default engine
/// and on [`SimEngine::Dense`]. Returns one line per mismatch.
pub fn dense_check(cases: &[Case], outputs: &[ScenarioOutput]) -> Result<Vec<String>, String> {
    let mut problems = Vec::new();
    for (case, out) in cases.iter().zip(outputs) {
        let scenario = case.prepared.scenario;
        let (images, labels) = case.prepared.eval_subset(DENSE_CHECK_IMAGES);
        let fail =
            |what: &str, e: t2fsnn_tensor::TensorError| format!("{}: {what}: {e}", scenario.name());
        for ((span, mut default, steps), (_, mut dense, _)) in
            baselines(scenario).into_iter().zip(baselines(scenario))
        {
            let config = sim_config(steps);
            let a = simulate(&out.snn, default.as_mut(), &images, &labels, &config)
                .map_err(|e| fail(span, e))?;
            let b = simulate(
                &out.snn,
                dense.as_mut(),
                &images,
                &labels,
                &config.with_engine(SimEngine::Dense),
            )
            .map_err(|e| fail(span, e))?;
            if a != b {
                problems.push(format!(
                    "{}: {span} differs on the dense engine",
                    scenario.name()
                ));
            }
        }
        for (variant, model) in Variant::ALL.iter().zip(&out.models) {
            let mut dense = model.clone();
            dense.set_config(model.config().with_engine(SimEngine::Dense));
            let a = model
                .run(&images, &labels)
                .map_err(|e| fail("core.run", e))?;
            let b = dense
                .run(&images, &labels)
                .map_err(|e| fail("core.run", e))?;
            if a != b {
                problems.push(format!(
                    "{}: {} differs on the dense engine",
                    scenario.name(),
                    variant.name()
                ));
            }
        }
    }
    Ok(problems)
}
