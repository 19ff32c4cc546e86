//! Determinism regression tests: the whole pipeline is seeded, so the
//! same `SyntheticConfig` + RNG seed must produce bit-identical results
//! every time. Guards every future performance refactor against
//! accidentally introducing nondeterminism (threading, hash ordering,
//! fast-math reassociation).

use t2fsnn::{KernelParams, T2fsnn, T2fsnnConfig};
use t2fsnn_data::{Dataset, DatasetSpec, SyntheticConfig};
use t2fsnn_dnn::{Fitted, Network, Recipe};

/// Fits the tiny MLP afresh on every call: the tests below compare fits.
fn fixture() -> (Network, Dataset) {
    let Fitted { dnn, test, .. } = Recipe {
        data_seed: 77,
        samples: 64,
        train_size: 48,
        init_seed: 424_242,
        ..Recipe::default()
    }
    .fit()
    .expect("fit");
    (dnn, test)
}

#[test]
fn dataset_generation_is_bit_identical_across_invocations() {
    let spec = DatasetSpec::tiny();
    let a = SyntheticConfig::new(spec.clone(), 9001).generate(32);
    let b = SyntheticConfig::new(spec, 9001).generate(32);
    assert_eq!(a, b, "same SyntheticConfig + seed must be bit-identical");
}

#[test]
fn ttfs_run_is_bit_identical_across_invocations() {
    let (dnn, test_set) = fixture();
    let model =
        T2fsnn::from_dnn(&dnn, T2fsnnConfig::new(32), KernelParams::default()).expect("conversion");

    let first = model
        .run(&test_set.images, &test_set.labels)
        .expect("run 1");
    let second = model
        .run(&test_set.images, &test_set.labels)
        .expect("run 2");

    // `TtfsRun` derives `PartialEq` over every field, including the
    // input histogram and each layer's spike-time histogram — i.e. the
    // full TTFS spike trains, not just the summary accuracy.
    assert_eq!(
        first, second,
        "two T2fsnn::run invocations on identical inputs diverged"
    );
    assert_eq!(first.input_histogram, second.input_histogram);
    for (a, b) in first.layers.iter().zip(&second.layers) {
        assert_eq!(
            a.histogram, b.histogram,
            "layer {} spike train diverged",
            a.name
        );
    }
}

#[test]
fn ttfs_run_is_bit_identical_across_freshly_built_models() {
    // Rebuild everything from the seeds (not just re-run one model):
    // catches nondeterminism in training and conversion as well.
    let (dnn_a, test_a) = fixture();
    let (dnn_b, test_b) = fixture();
    assert_eq!(test_a, test_b);

    let run = |dnn: &Network, test: &Dataset| {
        T2fsnn::from_dnn(dnn, T2fsnnConfig::new(32), KernelParams::default())
            .expect("conversion")
            .run(&test.images, &test.labels)
            .expect("run")
    };
    assert_eq!(run(&dnn_a, &test_a), run(&dnn_b, &test_b));
}
