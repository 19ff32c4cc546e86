//! Integration tests of the conversion chain invariants:
//! normalization bounds, prediction preservation, analytic-oracle
//! equivalence and kernel-window trade-offs across crates.

use std::sync::OnceLock;

use t2fsnn::{KernelParams, T2fsnn, T2fsnnConfig};
use t2fsnn_data::{Dataset, DatasetSpec};
use t2fsnn_dnn::architectures::Architecture;
use t2fsnn_dnn::layers::PoolKind;
use t2fsnn_dnn::{weighted_layer_activations, Fitted, Network, Recipe};

/// The two-block average-pool CNN, normalized at `percentile`.
fn recipe(percentile: f32) -> Recipe {
    Recipe {
        spec: DatasetSpec::new("conv-pipeline", 1, 16, 16, 4),
        data_seed: 31,
        samples: 112,
        train_size: 80,
        architecture: Architecture::CnnSmall(PoolKind::Avg),
        init_seed: 303,
        percentile,
        ..Recipe::default()
    }
}

/// [`recipe`] at the 99.9th percentile, fitted once: the network and its
/// test split.
fn trained_cnn() -> (&'static Network, &'static Dataset) {
    static FITTED: OnceLock<Fitted> = OnceLock::new();
    let fitted = FITTED.get_or_init(|| recipe(0.999).fit().expect("fit"));
    (&fitted.dnn, &fitted.test)
}

#[test]
fn normalization_bounds_every_layer_for_conv_nets() {
    let mut fitted = recipe(1.0).fit().expect("fit");
    let acts = weighted_layer_activations(&mut fitted.dnn, &fitted.train.images).expect("acts");
    for (idx, act) in &acts {
        assert!(
            act.max() <= 1.0 + 1e-4,
            "layer {idx} activation {} escapes [0,1]",
            act.max()
        );
        assert!(act.min() >= -10.0, "absurd activation at layer {idx}");
    }
}

#[test]
fn clock_engine_equals_analytic_oracle_on_conv_net() {
    let (dnn, test_set) = trained_cnn();
    let model = T2fsnn::from_dnn(dnn, T2fsnnConfig::new(32), KernelParams::new(8.0, 0.0))
        .expect("conversion");
    let run = model
        .run(&test_set.images, &test_set.labels)
        .expect("clock run");
    let logits = model.analytic_logits(&test_set.images).expect("analytic");
    // Per-image argmax agreement between clock-driven and analytic paths.
    let (n, c) = (logits.dims()[0], logits.dims()[1]);
    let mut analytic_correct = 0usize;
    for i in 0..n {
        let row = &logits.data()[i * c..(i + 1) * c];
        let pred = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(j, _)| j)
            .unwrap();
        if pred == test_set.labels[i] {
            analytic_correct += 1;
        }
    }
    let analytic_acc = analytic_correct as f32 / n as f32;
    assert!(
        (run.accuracy - analytic_acc).abs() < 1e-6,
        "clock {} vs analytic {}",
        run.accuracy,
        analytic_acc
    );
}

#[test]
fn wider_window_never_hurts_much() {
    // The τ/T trade-off (Sec. III-B): with fixed τ, a longer window can
    // represent smaller values, so accuracy should not degrade as T grows.
    let (dnn, test_set) = trained_cnn();
    let acc_for = |window: usize| {
        let model = T2fsnn::from_dnn(dnn, T2fsnnConfig::new(window), KernelParams::new(8.0, 0.0))
            .expect("conversion");
        model
            .run(&test_set.images, &test_set.labels)
            .expect("run")
            .accuracy
    };
    let narrow = acc_for(8);
    let wide = acc_for(48);
    assert!(
        wide >= narrow - 0.05,
        "wider window should not hurt: T=8 → {narrow}, T=48 → {wide}"
    );
}

#[test]
fn spike_counts_scale_linearly_with_batch() {
    let (dnn, test_set) = trained_cnn();
    let model = T2fsnn::from_dnn(dnn, T2fsnnConfig::new(24), KernelParams::new(8.0, 0.0))
        .expect("conversion");
    let (half, _) = test_set.split(test_set.len() / 2);
    let run_half = model.run(&half.images, &half.labels).expect("half");
    let run_full = model.run(&test_set.images, &test_set.labels).expect("full");
    let per_img_half = run_half.spikes_per_image();
    let per_img_full = run_full.spikes_per_image();
    let ratio = per_img_half / per_img_full;
    assert!(
        (0.8..1.25).contains(&ratio),
        "spikes/image should be batch-independent: {per_img_half} vs {per_img_full}"
    );
}
