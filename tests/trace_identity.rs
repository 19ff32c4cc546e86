//! Observability read-only contract: tracing and profiling must never
//! change a single computed bit.
//!
//! Mirrors the SIMD on/off discipline — a reference run with both
//! observability sinks off is compared bit for bit against runs with
//! the flight recorder and the profile aggregate enabled, across both
//! execution engines, batch compositions and worker counts. A span
//! site that ever fed back into computation (or perturbed iteration
//! order) would show up here as a diverged `ImageInference`.

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use t2fsnn::{ImageInference, InferOptions, KernelParams, T2fsnn, T2fsnnConfig};
use t2fsnn_dnn::{Fitted, Network, Recipe};
use t2fsnn_snn::SimEngine;
use t2fsnn_tensor::{profile, trace, Tensor, ThreadPool};

/// The fitted tiny MLP and its test images.
fn fixture() -> (&'static Network, &'static Tensor) {
    static FITTED: OnceLock<Fitted> = OnceLock::new();
    let fitted = FITTED.get_or_init(|| {
        Recipe {
            data_seed: 55,
            samples: 40,
            train_size: 32,
            init_seed: 31_337,
            ..Recipe::default()
        }
        .fit()
        .expect("fit")
    });
    (&fitted.dnn, &fitted.test.images)
}

fn build(dnn: &Network, engine: SimEngine) -> T2fsnn {
    T2fsnn::from_dnn(
        dnn,
        T2fsnnConfig::new(24).with_engine(engine),
        KernelParams::default(),
    )
    .expect("conversion")
}

/// Serializes the tests of this file: each toggles the process-global
/// tracing and profiling switches.
fn observability_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `images` through `model` split into `batch` -sized slices on a
/// `workers`-wide pool, concatenating the per-image results.
fn run_split(model: &T2fsnn, images: &Tensor, batch: usize, workers: usize) -> Vec<ImageInference> {
    let pool = ThreadPool::new(workers);
    let n = images.dims()[0];
    let feature: usize = images.dims()[1..].iter().product();
    let mut out = Vec::with_capacity(n);
    let mut start = 0;
    while start < n {
        let end = (start + batch).min(n);
        let mut dims = images.dims().to_vec();
        dims[0] = end - start;
        let slice = Tensor::from_vec(dims, images.data()[start * feature..end * feature].to_vec())
            .expect("slice");
        out.extend(model.infer_on(&slice, InferOptions, &pool).expect("infer"));
        start = end;
    }
    out
}

/// The tentpole contract test: every observability state produces the
/// same bits as the all-off reference, for both engines, across batch
/// splits and worker counts.
#[test]
fn tracing_and_profiling_change_no_bits() {
    let _serial = observability_lock();
    let (dnn, images) = fixture();
    let n = images.dims()[0];
    for engine in [SimEngine::Dense, SimEngine::default()] {
        let model = build(dnn, engine);
        // Reference: both sinks off, whole batch, single worker.
        trace::set_enabled(false);
        profile::set_enabled(false);
        let reference = run_split(&model, images, n, 1);
        assert_eq!(reference.len(), n);

        // Observability states × batch/worker shapes. (trace, profile)
        // = (false, false) re-checks pure batch invariance on the way.
        for (trace_on, profile_on) in [(true, false), (false, true), (true, true), (false, false)] {
            trace::set_enabled(trace_on);
            profile::set_enabled(profile_on);
            for (batch, workers) in [(n, 4), (1, 1), (3, 2), (7, 3)] {
                let probe = run_split(&model, images, batch, workers);
                assert_eq!(
                    reference, probe,
                    "bits diverged: engine {engine:?}, trace {trace_on}, profile {profile_on}, \
                     batch {batch}, workers {workers}"
                );
            }
        }
        trace::set_enabled(false);
        profile::set_enabled(false);
    }
}

/// Tracing a run actually records the engine-phase spans (the identity
/// test above would pass vacuously if span sites were compiled out).
#[test]
fn traced_run_records_engine_phase_spans() {
    let _serial = observability_lock();
    let (dnn, images) = fixture();
    let model = build(dnn, SimEngine::default());
    trace::set_enabled(true);
    let trace_id = trace::next_trace_id();
    {
        let _scope = trace::trace_scope(trace_id);
        let _ = model.infer(images, InferOptions).expect("infer");
    }
    trace::set_enabled(false);
    let events = trace::snapshot();
    let tagged: Vec<_> = events.iter().filter(|e| e.trace_id == trace_id).collect();
    assert!(
        !tagged.is_empty(),
        "a traced inference must record spans under its trace id"
    );
    assert!(
        tagged.iter().any(|e| e.key.starts_with("ttfs/")),
        "expected ttfs/* engine phase spans, got {:?}",
        tagged.iter().map(|e| e.key).collect::<Vec<_>>()
    );
    assert!(
        tagged.iter().any(|e| e.parent_id != 0),
        "engine spans must nest (some span with a parent)"
    );
    // Coarse recording: each pool chunk is one `ttfs/infer_chunk` span
    // whose children are its pipeline stages; the per-step spans stay
    // out of the recorder.
    let chunks: Vec<u64> = tagged
        .iter()
        .filter(|e| e.key == "ttfs/infer_chunk")
        .map(|e| e.span_id)
        .collect();
    assert!(!chunks.is_empty());
    for e in &tagged {
        match e.key {
            "ttfs/infer_chunk" => {}
            "ttfs/stage" => assert!(chunks.contains(&e.parent_id), "stray stage {e:?}"),
            other => panic!("per-step span `{other}` reached the recorder"),
        }
    }
    let stages = tagged.iter().filter(|e| e.key == "ttfs/stage").count();
    assert_eq!(stages, chunks.len() * model.weighted_count());
}
