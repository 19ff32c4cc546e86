//! Golden digests of the rate/phase/burst baselines: every `SimOutcome`
//! (accuracy curve, per-layer spikes, synop counts) of each coding on a
//! trained MLP and a trained average-pool CNN, on the dense reference
//! engine and on the default event engine. The `Debug` form of an `f32`
//! round-trips its bits, so any changed curve point, spike or synop count
//! breaks a digest, including a change that moves both engines alike.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use t2fsnn::binfmt::crc32;
use t2fsnn_data::{Dataset, DatasetSpec, SyntheticConfig};
use t2fsnn_dnn::architectures::{cnn_small, mlp_tiny};
use t2fsnn_dnn::layers::PoolKind;
use t2fsnn_dnn::{normalize_for_snn, train, Network, TrainConfig};
use t2fsnn_snn::coding::{BurstCoding, Coding, PhaseCoding, RateCoding};
use t2fsnn_snn::{simulate, SimConfig, SimEngine, SnnNetwork};

/// Trains `dnn` on the first `n_train` images of `data`, normalizes it
/// for conversion and returns the converted network with the rest.
fn converted(mut dnn: Network, data: Dataset, n_train: usize, seed: u64) -> (SnnNetwork, Dataset) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let (train_set, test_set) = data.split(n_train);
    train(&mut dnn, &train_set, &TrainConfig::default(), &mut rng).unwrap();
    normalize_for_snn(&mut dnn, &train_set.images, 0.999).unwrap();
    (SnnNetwork::from_dnn(&dnn).unwrap(), test_set)
}

#[test]
fn baseline_outcomes_match_pinned_digests() {
    let mut rng = ChaCha8Rng::seed_from_u64(41);
    let tiny = SyntheticConfig::new(DatasetSpec::tiny(), 3).generate(160);
    let mlp = converted(mlp_tiny(&mut rng, &tiny.spec), tiny, 128, 42);
    let spec = DatasetSpec::new("digest-cnn", 1, 16, 16, 4);
    let data = SyntheticConfig::new(spec.clone(), 5).generate(96);
    let cnn = converted(cnn_small(&mut rng, &spec, PoolKind::Avg), data, 72, 43);

    let mut got = Vec::new();
    for (snn, test_set) in [&mlp, &cnn] {
        let codings: [(Box<dyn Coding>, SimConfig); 4] = [
            (Box::new(RateCoding::new()), SimConfig::new(64, 16)),
            (Box::new(RateCoding::bernoulli(9)), SimConfig::new(32, 8)),
            (Box::new(PhaseCoding::new(8)), SimConfig::new(48, 8)),
            (Box::new(BurstCoding::new(5)), SimConfig::new(32, 8)),
        ];
        for (coding, config) in codings {
            let mut digests = Vec::new();
            for engine in [SimEngine::Dense, SimEngine::default()] {
                let outcome = simulate(
                    snn,
                    coding.boxed_clone().as_mut(),
                    &test_set.images,
                    &test_set.labels,
                    &config.with_engine(engine),
                )
                .unwrap();
                assert!(outcome.total_spikes() > 0, "{}", coding.name());
                digests.push(crc32(format!("{outcome:?}").as_bytes()));
            }
            assert_eq!(digests[0], digests[1], "{}: engines differ", coding.name());
            got.push(digests[0]);
        }
    }
    // mlp_tiny, then cnn_small: rate, Bernoulli rate, phase, burst.
    let want: [u32; 8] = [
        3861528519, 1531287136, 1023562853, 4174899135, // mlp_tiny
        740450124, 346628155, 1066285029, 3027948450, // cnn_small
    ];
    assert_eq!(got, want);
}
