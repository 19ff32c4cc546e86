//! The engine stays per call: a clone that inherited a cached plan and
//! was switched to `SimEngine::Dense` through `set_config` runs the dense
//! kernels, while the original keeps the event kernels.
//!
//! The two are told apart by the op spans each run records. Inside the
//! step loop those spans skip the flight recorder (it records one coarse
//! span per chunk) and reach only the process-global profile aggregate,
//! which any concurrently running test would add to, so this test has a
//! binary of its own.

use std::sync::Arc;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use t2fsnn::{KernelParams, T2fsnn, T2fsnnConfig};
use t2fsnn_data::DatasetSpec;
use t2fsnn_dnn::architectures::cnn_small;
use t2fsnn_dnn::layers::PoolKind;
use t2fsnn_snn::SimEngine;
use t2fsnn_tensor::{profile, Tensor};

#[test]
fn dense_clone_of_a_cached_model_runs_the_dense_path() {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let spec = DatasetSpec::new("engine-switch", 1, 8, 8, 3);
    let dnn = cnn_small(&mut rng, &spec, PoolKind::Max);
    let model = T2fsnn::from_dnn(&dnn, T2fsnnConfig::new(8), KernelParams::new(4.0, 0.0)).unwrap();
    let images = Tensor::from_fn([3, 1, 8, 8], |i| {
        ((i[0] * 7919 + i[2] * 53 + i[3] * 13 + 11) % 89) as f32 / 88.0
    });
    let labels = vec![0usize, 1, 2];
    model.run(&images, &labels).unwrap();
    let mut dense = model.clone();
    dense.set_config(model.config().with_engine(SimEngine::Dense));
    assert!(Arc::ptr_eq(
        &model.network().plan(&[1, 8, 8]).unwrap(),
        &dense.network().plan(&[1, 8, 8]).unwrap()
    ));
    profile::set_enabled(true);
    let spans_of = |m: &T2fsnn| {
        profile::reset();
        let run = m.run(&images, &labels).unwrap();
        let keys: Vec<&str> = profile::entries().into_iter().map(|e| e.key).collect();
        (run, keys)
    };
    let (event_run, event_keys) = spans_of(&model);
    let (dense_run, dense_keys) = spans_of(&dense);
    profile::set_enabled(false);
    assert_eq!(event_run, dense_run, "the engines are bit-identical");
    let event_kernel = |k: &&str| k.ends_with("_events");
    let dense_kernel = |k: &&str| *k == "op/conv_dense_walk" || *k == "op/linear_dense";
    assert!(event_keys.iter().any(event_kernel), "{event_keys:?}");
    assert!(dense_keys.iter().any(dense_kernel), "{dense_keys:?}");
    assert!(!dense_keys.iter().any(event_kernel), "{dense_keys:?}");
}
