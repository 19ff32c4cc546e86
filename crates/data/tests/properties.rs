//! Property-based tests for the synthetic dataset generator.

use proptest::prelude::*;
use t2fsnn_data::{DatasetSpec, SyntheticConfig};

fn small_spec() -> impl Strategy<Value = DatasetSpec> {
    (1usize..3, 4usize..12, 4usize..12, 2usize..6)
        .prop_map(|(c, h, w, k)| DatasetSpec::new("prop", c, h, w, k))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pixels_always_in_unit_range(spec in small_spec(), seed in 0u64..1000) {
        let ds = SyntheticConfig::new(spec, seed).generate(12);
        prop_assert!(ds.images.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn generation_is_deterministic(spec in small_spec(), seed in 0u64..1000) {
        let a = SyntheticConfig::new(spec.clone(), seed).generate(8);
        let b = SyntheticConfig::new(spec, seed).generate(8);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn labels_below_class_count(spec in small_spec(), seed in 0u64..1000) {
        let classes = spec.classes;
        let ds = SyntheticConfig::new(spec, seed).generate(20);
        prop_assert!(ds.labels.iter().all(|&y| y < classes));
    }

    #[test]
    fn round_robin_balance_is_tight(spec in small_spec(), n in 1usize..40) {
        let ds = SyntheticConfig::new(spec, 5).generate(n);
        let counts = ds.class_counts();
        let max = counts.iter().max().copied().unwrap_or(0);
        let min = counts.iter().min().copied().unwrap_or(0);
        prop_assert!(max - min <= 1, "round-robin must differ by at most 1: {counts:?}");
    }

    #[test]
    fn split_preserves_every_sample(spec in small_spec(), n in 2usize..24, at_frac in 0.0f32..1.0) {
        let ds = SyntheticConfig::new(spec, 9).generate(n);
        let at = ((n as f32 * at_frac) as usize).min(n);
        let (a, b) = ds.split(at);
        prop_assert_eq!(a.len() + b.len(), n);
        for i in 0..a.len() {
            prop_assert_eq!(a.sample(i).1, ds.sample(i).1);
        }
        for i in 0..b.len() {
            prop_assert_eq!(b.sample(i).1, ds.sample(at + i).1);
        }
    }

    #[test]
    fn batches_partition_in_order(n in 1usize..30, batch in 1usize..10) {
        let ds = SyntheticConfig::new(DatasetSpec::tiny(), 2).generate(n);
        let mut seen = Vec::new();
        for (images, labels) in ds.batches(batch) {
            prop_assert_eq!(images.dims()[0], labels.len());
            prop_assert!(labels.len() <= batch);
            seen.extend(labels);
        }
        prop_assert_eq!(seen, ds.labels);
    }

    #[test]
    fn noise_increases_within_class_variance(seed in 0u64..200) {
        let clean = SyntheticConfig::new(DatasetSpec::tiny(), seed)
            .with_noise(0.0)
            .with_max_shift(0)
            .generate(8);
        let noisy = SyntheticConfig::new(DatasetSpec::tiny(), seed)
            .with_noise(0.15)
            .with_max_shift(0)
            .generate(8);
        // Distance between two same-class samples grows (or stays) with noise.
        let dist = |ds: &t2fsnn_data::Dataset| {
            let (a, _) = ds.sample(0);
            let (b, _) = ds.sample(4);
            a.sub(&b).unwrap().norm_sq()
        };
        prop_assert!(dist(&noisy) + 1e-6 >= dist(&clean) * 0.5);
    }
}
