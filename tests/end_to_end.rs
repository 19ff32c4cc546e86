//! End-to-end integration test: synthetic data → CNN training →
//! normalization → T2FSNN conversion → all four ablation variants.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::OnceLock;
use t2fsnn::eval::{ablation_table, build_variant, Variant};
use t2fsnn::optimize::GoConfig;
use t2fsnn::KernelParams;
use t2fsnn_data::{Dataset, DatasetSpec};
use t2fsnn_dnn::architectures::Architecture;
use t2fsnn_dnn::layers::PoolKind;
use t2fsnn_dnn::{evaluate, Fitted, Network, Recipe, TrainConfig};

/// Sized so the CNN clears the >0.5 learning bar with margin; 96 train
/// samples at the default epochs landed exactly at 0.5 held-out accuracy.
fn pipeline_fixture() -> (Network, &'static Dataset, &'static Dataset) {
    static FITTED: OnceLock<Fitted> = OnceLock::new();
    let recipe = || Recipe {
        spec: DatasetSpec::new("e2e", 1, 16, 16, 4),
        data_seed: 13,
        samples: 224,
        train_size: 176,
        architecture: Architecture::CnnSmall(PoolKind::Avg),
        init_seed: 101,
        train: TrainConfig {
            epochs: 10,
            ..TrainConfig::default()
        },
        ..Recipe::default()
    };
    let fitted = FITTED.get_or_init(|| recipe().fit().expect("fit"));
    (fitted.dnn.clone(), &fitted.train, &fitted.test)
}

#[test]
fn full_pipeline_trains_converts_and_classifies() {
    let (mut dnn, train_set, test_set) = pipeline_fixture();
    let dnn_acc = evaluate(&mut dnn, test_set, 16).expect("evaluation");
    assert!(
        dnn_acc > 0.5,
        "CNN failed to learn the synthetic task: {dnn_acc}"
    );

    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let model = build_variant(
        &mut dnn,
        &train_set.images,
        32,
        Variant {
            go: false,
            ef: false,
        },
        KernelParams::new(8.0, 0.0),
        &GoConfig::default(),
        &mut rng,
    )
    .expect("conversion");
    let run = model.run(&test_set.images, &test_set.labels).expect("run");
    assert!(
        run.accuracy >= dnn_acc - 0.2,
        "T2FSNN accuracy {:.3} too far below DNN {:.3}",
        run.accuracy,
        dnn_acc
    );

    // TTFS invariant: at most one spike per neuron per image.
    let neurons = model
        .network()
        .neuron_count(&[1, 16, 16])
        .expect("neuron count") as u64;
    let pixels = 16 * 16;
    let n = test_set.len() as u64;
    assert!(run.total_spikes() <= (neurons + pixels) * n);
}

#[test]
fn ablation_runs_all_variants_with_consistent_shapes() {
    let (mut dnn, train_set, test_set) = pipeline_fixture();
    let mut rng = ChaCha8Rng::seed_from_u64(8);
    let rows = ablation_table(
        &mut dnn,
        &train_set.images,
        test_set,
        24,
        KernelParams::new(6.0, 0.0),
        &GoConfig {
            passes: 1,
            ..GoConfig::default()
        },
        &mut rng,
    )
    .expect("ablation");
    assert_eq!(rows.len(), 4);
    // Table I shape: EF halves latency, GO does not change it.
    assert_eq!(rows[0].latency, rows[1].latency);
    assert_eq!(rows[2].latency, rows[3].latency);
    let reduction = 1.0 - rows[2].latency as f32 / rows[0].latency as f32;
    assert!(
        reduction > 0.3,
        "early firing should cut latency substantially, got {reduction}"
    );
    for row in &rows {
        assert!(
            row.accuracy > 0.3,
            "{} collapsed: {}",
            row.method,
            row.accuracy
        );
    }
}

#[test]
fn go_variant_reduces_or_maintains_spikes() {
    // Table I: +GO slightly reduces spike counts at equal latency.
    let (mut dnn, train_set, test_set) = pipeline_fixture();
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let base = build_variant(
        &mut dnn,
        &train_set.images,
        32,
        Variant {
            go: false,
            ef: false,
        },
        KernelParams::new(8.0, 0.0),
        &GoConfig::default(),
        &mut rng,
    )
    .expect("base");
    let go = build_variant(
        &mut dnn,
        &train_set.images,
        32,
        Variant {
            go: true,
            ef: false,
        },
        KernelParams::new(8.0, 0.0),
        &GoConfig::default(),
        &mut rng,
    )
    .expect("go");
    let run_base = base.run(&test_set.images, &test_set.labels).expect("run");
    let run_go = go.run(&test_set.images, &test_set.labels).expect("run");
    assert_eq!(run_base.latency, run_go.latency);
    // GO must not collapse accuracy.
    assert!(
        run_go.accuracy >= run_base.accuracy - 0.1,
        "GO hurt accuracy: {} -> {}",
        run_base.accuracy,
        run_go.accuracy
    );
}
