//! Property-based tests for the SNN substrate: IF-neuron conservation
//! laws, coding invariants, and event-driven propagation equivalence.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use t2fsnn_dnn::layers::{Conv2d, Flatten, Linear, Pool, PoolKind, Relu};
use t2fsnn_dnn::Network;
use t2fsnn_snn::coding::{BurstCoding, Coding, PhaseCoding, RateCoding};
use t2fsnn_snn::{simulate_on, OpExecutor, OpPlan, SimConfig, SimEngine, SnnNetwork, SnnOp};
use t2fsnn_tensor::ops::{conv2d, Conv2dSpec};
use t2fsnn_tensor::{SpikeBatch, Tensor, ThreadPool};

/// A small random architecture (untrained weights are fine: the
/// properties below assert *equivalence between execution paths*, not
/// accuracy) over 8×8 single-channel inputs.
fn random_network(arch: usize, width: usize, seed: u64) -> Network {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut net = Network::new();
    match arch % 3 {
        0 => {
            net.push("flatten", Flatten::new());
            net.push("fc1", Linear::new(&mut rng, 64, 8 + width));
            net.push("relu1", Relu::new());
            net.push("fc2", Linear::new(&mut rng, 8 + width, 4));
        }
        1 => {
            let c = 2 + width / 2;
            net.push(
                "conv1",
                Conv2d::new(&mut rng, 1, c, 3, Conv2dSpec::new(1, 1)),
            );
            net.push("relu1", Relu::new());
            net.push("pool1", Pool::down2(PoolKind::Avg));
            net.push(
                "conv2",
                Conv2d::new(&mut rng, c, c * 2, 3, Conv2dSpec::new(1, 1)),
            );
            net.push("relu2", Relu::new());
            net.push("pool2", Pool::down2(PoolKind::Avg));
            net.push("flatten", Flatten::new());
            net.push("fc", Linear::new(&mut rng, c * 2 * 4, 4));
        }
        _ => {
            let c = 2 + width;
            net.push(
                "conv1",
                Conv2d::new(&mut rng, 1, c, 3, Conv2dSpec::new(2, 1)),
            );
            net.push("relu1", Relu::new());
            net.push("flatten", Flatten::new());
            net.push("fc", Linear::new(&mut rng, c * 16, 4));
        }
    }
    net
}

fn random_batch(seed: u64, n: usize) -> (Tensor, Vec<usize>) {
    let images = Tensor::from_fn([n, 1, 8, 8], |i| {
        let key = i[0] * 6151 + i[2] * 67 + i[3] * 11 + seed as usize;
        ((key % 97) as f32) / 96.0
    });
    let labels = (0..n).map(|i| (i + seed as usize) % 4).collect();
    (images, labels)
}

/// Every bundled coding in a fresh state.
fn all_codings() -> Vec<Box<dyn Coding>> {
    vec![
        Box::new(RateCoding::new()),
        Box::new(RateCoding::bernoulli(11)),
        Box::new(PhaseCoding::new(4)),
        Box::new(BurstCoding::new(3)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole invariant: for every coding and architecture, the
    /// event-driven engine's `SimOutcome` — accuracy curve, spike
    /// counts, synop counts — is identical to the dense reference at
    /// every sparsity threshold, and independent of the worker count.
    #[test]
    fn event_engine_matches_dense_reference(
        arch in 0usize..3,
        width in 0usize..4,
        seed in 0u64..500,
    ) {
        let dnn = random_network(arch, width, seed);
        let snn = SnnNetwork::from_dnn(&dnn).unwrap();
        let (images, labels) = random_batch(seed, 5);
        let serial = ThreadPool::new(1);
        for coding in all_codings() {
            let run = |engine: SimEngine, pool: &ThreadPool| {
                let mut c = coding.boxed_clone();
                simulate_on(
                    &snn,
                    c.as_mut(),
                    &images,
                    &labels,
                    &SimConfig::new(12, 4).with_engine(engine),
                    pool,
                )
                .unwrap()
            };
            let dense = run(SimEngine::dense(), &serial);
            prop_assert!(dense.steps == 12 && dense.curve.len() == 3);
            for threshold in [0.05f32, 0.5, 1.0] {
                let event = run(
                    SimEngine::Event { sparsity_threshold: threshold },
                    &serial,
                );
                prop_assert_eq!(&dense, &event, "coding {} threshold {}", coding.name(), threshold);
            }
            // Worker count must not change a single bit either.
            let parallel = run(SimEngine::default(), &ThreadPool::new(3));
            prop_assert_eq!(&dense, &parallel, "coding {} parallel", coding.name());
        }
    }

    /// SIMD dispatch (runtime AVX2 vs the `T2FSNN_SIMD=0` scalar
    /// fallback) must never change a `SimOutcome` bit — across every
    /// bundled coding, the Dense and Event engines, and worker counts
    /// 1/2/4. The SIMD kernels vectorize across independent output
    /// elements only, so each element's canonical accumulation sequence
    /// is untouched. (Without AVX2 hardware both runs are scalar and the
    /// comparison is trivially true.)
    #[test]
    fn simd_dispatch_never_changes_sim_outcomes(
        arch in 0usize..3,
        width in 0usize..4,
        seed in 0u64..500,
    ) {
        let dnn = random_network(arch, width, seed);
        let snn = SnnNetwork::from_dnn(&dnn).unwrap();
        let (images, labels) = random_batch(seed, 5);
        for coding in all_codings() {
            for engine in [SimEngine::dense(), SimEngine::default()] {
                for workers in [1usize, 2, 4] {
                    let pool = ThreadPool::new(workers);
                    let run = || {
                        let mut c = coding.boxed_clone();
                        simulate_on(
                            &snn,
                            c.as_mut(),
                            &images,
                            &labels,
                            &SimConfig::new(8, 4).with_engine(engine),
                            &pool,
                        )
                        .unwrap()
                    };
                    let prev = t2fsnn_tensor::simd::set_enabled(false);
                    let scalar = run();
                    t2fsnn_tensor::simd::set_enabled(true);
                    let vector = run();
                    t2fsnn_tensor::simd::set_enabled(prev);
                    prop_assert_eq!(
                        &scalar,
                        &vector,
                        "coding {} engine {:?} workers {}",
                        coding.name(),
                        engine,
                        workers
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn if_neuron_conserves_charge(drives in prop::collection::vec(0.0f32..2.0, 1..50)) {
        // Total input = total transmitted (spikes × θ) + residual potential,
        // for the rate-coding IF neuron (θ = 1, reset by subtraction).
        let mut coding = RateCoding::new();
        let mut u = Tensor::zeros([1, 1]);
        let mut events = SpikeBatch::empty();
        let mut spikes = 0u64;
        for (t, &d) in drives.iter().enumerate() {
            u.add_scaled(&Tensor::from_vec([1, 1], vec![d]).unwrap(), 1.0).unwrap();
            spikes += coding.fire(&mut u, t, &mut events);
        }
        let total_in: f32 = drives.iter().sum();
        let residual = u.data()[0];
        prop_assert!(
            (total_in - (spikes as f32 + residual)).abs() < 1e-3,
            "in={total_in} spikes={spikes} residual={residual}"
        );
    }

    #[test]
    fn rate_spike_count_tracks_value(xi in 1u32..100, steps in 50usize..300) {
        let x = xi as f32 / 100.0;
        let mut coding = RateCoding::new();
        let mut u = Tensor::zeros([1, 1]);
        let mut events = SpikeBatch::empty();
        let mut spikes = 0u64;
        for t in 0..steps {
            u.data_mut()[0] += x;
            spikes += coding.fire(&mut u, t, &mut events);
        }
        let rate = spikes as f32 / steps as f32;
        prop_assert!((rate - x).abs() < 0.05, "rate {rate} vs {x}");
    }

    #[test]
    fn phase_coding_transmits_value_per_period(xi in 0u32..256) {
        // One period of weighted spikes decodes to x within 2^-K.
        let x = xi as f32 / 256.0;
        let mut coding = PhaseCoding::new(8);
        let img = Tensor::from_vec([1, 1], vec![x]).unwrap();
        let mut decoded = 0.0f32;
        for t in 0..8 {
            let (d, _) = coding.encode(&img, t);
            decoded += d.data()[0];
        }
        prop_assert!((decoded - x).abs() <= 1.0 / 256.0 + 1e-6, "{decoded} vs {x}");
    }

    #[test]
    fn burst_transmission_is_conservative(v in 0.0f32..40.0, n_max in 1u32..8) {
        let mut coding = BurstCoding::new(n_max);
        let mut u = Tensor::from_vec([1, 1], vec![v]).unwrap();
        let mut events = SpikeBatch::empty();
        let count = coding.fire(&mut u, 0, &mut events);
        let s = events.to_dense();
        // Residual + transmitted = original, and burst length respected.
        prop_assert!((u.data()[0] + s.data()[0] - v).abs() < 1e-4);
        prop_assert!(count <= n_max as u64);
        // Transmitted value matches the geometric formula for the count.
        if count > 0 {
            prop_assert!((s.data()[0] - coding.burst_value(count as u32)).abs() < 1e-5);
        }
    }

    #[test]
    fn conv_scatter_equals_dense_conv_on_random_spikes(
        positions in prop::collection::vec((0usize..2, 0usize..6, 0usize..6), 0..12),
        stride in 1usize..3,
        padding in 0usize..2,
    ) {
        let weight = Tensor::from_fn([3, 2, 3, 3], |i| {
            ((i[0] * 7 + i[1] * 5 + i[2] * 3 + i[3]) % 11) as f32 * 0.1 - 0.5
        });
        let spec = Conv2dSpec::new(stride, padding);
        let mut input = Tensor::zeros([1, 2, 6, 6]);
        for (c, y, x) in positions {
            input.set(&[0, c, y, x], 1.0).unwrap();
        }
        let ops = [SnnOp::Conv {
            name: "prop".into(),
            weight: weight.clone(),
            bias: Tensor::zeros([3]),
            spec,
        }];
        let plan = OpPlan::new(&ops, &[2, 6, 6]).unwrap();
        let mut dims = vec![1];
        dims.extend_from_slice(plan.state_dims(0));
        let mut sparse = Tensor::zeros(dims);
        let dense = conv2d(&input, &weight, &Tensor::zeros([3]), spec).unwrap();
        OpExecutor::new(&ops, &plan, SimEngine::dense())
            .integrate_image(input, &mut [], 0.0, &mut sparse, &mut [0])
            .unwrap();
        prop_assert!(sparse.to_channel_major().unwrap().all_close(&dense, 1e-4));
    }

    #[test]
    fn linear_scatter_synops_equal_nnz_times_fanout(
        mask in prop::collection::vec(prop::bool::ANY, 8..9),
        out_features in 1usize..6,
    ) {
        let weight = Tensor::ones([out_features, 8]);
        let ops = [SnnOp::Linear {
            name: "prop".into(),
            weight,
            bias: Tensor::zeros([out_features]),
        }];
        let plan = OpPlan::new(&ops, &[8]).unwrap();
        let data: Vec<f32> = mask.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect();
        let nnz = data.iter().filter(|&&x| x != 0.0).count() as u64;
        let input = Tensor::from_vec([1, 8], data).unwrap();
        for engine in [SimEngine::dense(), SimEngine::event()] {
            let mut synops = [0u64];
            OpExecutor::new(&ops, &plan, engine)
                .integrate_image(
                    input.clone(),
                    &mut [],
                    0.0,
                    &mut Tensor::zeros([1, out_features]),
                    &mut synops,
                )
                .unwrap();
            prop_assert_eq!(synops[0], nnz * out_features as u64);
        }
    }

    #[test]
    fn bias_scales_sum_to_unity_over_decode_window(period in 1usize..16) {
        // Every coding's bias injection must integrate to one full bias
        // per decode window.
        let codings: Vec<Box<dyn Coding>> = vec![
            Box::new(RateCoding::new()),
            Box::new(PhaseCoding::new(period.clamp(1, 24))),
            Box::new(BurstCoding::new(5)),
        ];
        for coding in codings {
            let window = coding.decode_window();
            let total: f32 = (0..window).map(|t| coding.bias_scale(t)).sum();
            prop_assert!(
                (total - 1.0).abs() < 1e-4,
                "{}: bias integrates to {total} over window {window}",
                coding.name()
            );
        }
    }
}
