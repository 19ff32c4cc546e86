//! Cross-crate integration test: the qualitative orderings of the paper's
//! Table II must hold on the synthetic substrate — T2FSNN uses the fewest
//! spikes, burst beats rate on spikes, and normalized energy favors
//! T2FSNN.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::OnceLock;
use t2fsnn::eval::{build_variant, energy_table, CodingMeasurement, Variant};
use t2fsnn::optimize::GoConfig;
use t2fsnn::KernelParams;
use t2fsnn_data::Dataset;
use t2fsnn_dnn::{Fitted, Network, Recipe, TrainConfig};
use t2fsnn_snn::coding::{BurstCoding, PhaseCoding, RateCoding};
use t2fsnn_snn::{simulate, SimConfig, SnnNetwork};

/// Sized so the MLP actually generalizes (~80% held-out accuracy); with
/// fewer samples/epochs it sits at chance and the accuracy assertions
/// below are meaningless.
fn fixture() -> (Network, &'static Dataset, &'static Dataset) {
    static FITTED: OnceLock<Fitted> = OnceLock::new();
    let recipe = || Recipe {
        data_seed: 21,
        samples: 320,
        train_size: 256,
        init_seed: 202,
        train: TrainConfig {
            epochs: 12,
            ..TrainConfig::default()
        },
        ..Recipe::default()
    };
    let fitted = FITTED.get_or_init(|| recipe().fit().expect("fit"));
    (fitted.dnn.clone(), &fitted.train, &fitted.test)
}

#[test]
fn spike_ordering_matches_table2() {
    let (mut dnn, train_set, test_set) = fixture();
    let snn = SnnNetwork::from_dnn(&dnn).expect("conversion");

    let rate = simulate(
        &snn,
        &mut RateCoding::new(),
        &test_set.images,
        &test_set.labels,
        &SimConfig::new(256, 32),
    )
    .expect("rate sim");
    let burst = simulate(
        &snn,
        &mut BurstCoding::new(5),
        &test_set.images,
        &test_set.labels,
        &SimConfig::new(64, 16),
    )
    .expect("burst sim");
    let phase = simulate(
        &snn,
        &mut PhaseCoding::new(8),
        &test_set.images,
        &test_set.labels,
        &SimConfig::new(64, 16),
    )
    .expect("phase sim");

    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let model = build_variant(
        &mut dnn,
        &train_set.images,
        32,
        Variant { go: true, ef: true },
        KernelParams::new(8.0, 0.0),
        &GoConfig {
            passes: 1,
            ..GoConfig::default()
        },
        &mut rng,
    )
    .expect("T2FSNN build");
    let ttfs = model
        .run(&test_set.images, &test_set.labels)
        .expect("T2FSNN run");

    // Table II shape: T2FSNN has by far the fewest spikes.
    assert!(
        ttfs.total_spikes() < burst.total_spikes(),
        "T2FSNN {} !< burst {}",
        ttfs.total_spikes(),
        burst.total_spikes()
    );
    assert!(
        ttfs.total_spikes() < rate.total_spikes(),
        "T2FSNN {} !< rate {}",
        ttfs.total_spikes(),
        rate.total_spikes()
    );
    // Burst coding reduces spikes versus rate coding.
    assert!(
        burst.total_spikes() < rate.total_spikes(),
        "burst {} !< rate {}",
        burst.total_spikes(),
        rate.total_spikes()
    );
    // All schemes must actually classify.
    for (name, acc) in [
        ("rate", rate.final_accuracy),
        ("phase", phase.final_accuracy),
        ("burst", burst.final_accuracy),
        ("t2fsnn", ttfs.accuracy),
    ] {
        assert!(acc > 0.25, "{name} collapsed to {acc}");
    }
}

#[test]
fn normalized_energy_favors_t2fsnn() {
    let (mut dnn, train_set, test_set) = fixture();
    let snn = SnnNetwork::from_dnn(&dnn).expect("conversion");
    let rate = simulate(
        &snn,
        &mut RateCoding::new(),
        &test_set.images,
        &test_set.labels,
        &SimConfig::new(256, 32),
    )
    .expect("rate sim");

    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let model = build_variant(
        &mut dnn,
        &train_set.images,
        32,
        Variant { go: true, ef: true },
        KernelParams::new(8.0, 0.0),
        &GoConfig {
            passes: 1,
            ..GoConfig::default()
        },
        &mut rng,
    )
    .expect("build");
    let ttfs = model.run(&test_set.images, &test_set.labels).expect("run");

    let rate_m = CodingMeasurement::from_sim(&rate, 0.01);
    let ttfs_m = CodingMeasurement::from_ttfs("T2FSNN+GO+EF", &ttfs);
    let rows = energy_table(&[rate_m.clone(), ttfs_m], &rate_m).expect("energy");
    assert!((rows[0].truenorth - 1.0).abs() < 1e-6);
    assert!(
        rows[1].truenorth < 1.0,
        "T2FSNN TrueNorth energy should beat rate: {}",
        rows[1].truenorth
    );
    assert!(
        rows[1].spinnaker < 1.0,
        "T2FSNN SpiNNaker energy should beat rate: {}",
        rows[1].spinnaker
    );
}
