//! Property-based tests for the TTFS kernel machinery — the encode/decode
//! invariants the paper's analysis depends on — plus the clock engine's
//! dense/event execution identity and the compiled-plan cache.

use std::sync::Arc;

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use t2fsnn::kernel::{ExpKernel, KernelParams};
use t2fsnn::optimize::kernel_losses;
use t2fsnn::{ImageInference, InferOptions, T2fsnn, T2fsnnConfig};
use t2fsnn_dnn::layers::{Conv2d, Flatten, Linear, Pool, PoolKind, Relu};
use t2fsnn_dnn::Network;
use t2fsnn_snn::SimEngine;
use t2fsnn_tensor::ops::Conv2dSpec;
use t2fsnn_tensor::perturb::PerturbSpec;
use t2fsnn_tensor::{Tensor, ThreadPool};

/// A small random CNN over 8×8 single-channel inputs, optionally with
/// max pooling (the op only the TTFS engine supports).
fn random_cnn(kind: PoolKind, width: usize, seed: u64) -> Network {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let c = 2 + width;
    let mut net = Network::new();
    net.push(
        "conv1",
        Conv2d::new(&mut rng, 1, c, 3, Conv2dSpec::new(1, 1)),
    );
    net.push("relu1", Relu::new());
    net.push("pool1", Pool::down2(kind));
    net.push(
        "conv2",
        Conv2d::new(&mut rng, c, c * 2, 3, Conv2dSpec::new(1, 1)),
    );
    net.push("relu2", Relu::new());
    net.push("pool2", Pool::down2(kind));
    net.push("flatten", Flatten::new());
    net.push("fc", Linear::new(&mut rng, c * 2 * 4, 4));
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The clock engine's execution identity on the position-major
    /// pipeline: the dense reference engine and the event engine produce
    /// bit-identical `TtfsRun`s — accuracy curves, spike histograms and
    /// synop counts — on random architectures including max-pool
    /// networks (first-spike-wins pooling over events vs the densified
    /// gated pool), with and without early firing.
    #[test]
    fn ttfs_dense_and_event_engines_are_bit_identical(
        max_pool in prop::bool::ANY,
        width in 0usize..3,
        early in prop::bool::ANY,
        seed in 0u64..500,
    ) {
        let kind = if max_pool { PoolKind::Max } else { PoolKind::Avg };
        let dnn = random_cnn(kind, width, seed);
        let images = Tensor::from_fn([3, 1, 8, 8], |i| {
            let key = i[0] * 6151 + i[2] * 67 + i[3] * 11 + seed as usize;
            ((key % 97) as f32) / 96.0
        });
        let labels = vec![0usize, 1, 2];
        let model_with = |engine: SimEngine| {
            let mut config = T2fsnnConfig::new(8).with_engine(engine);
            if early {
                config = config.with_early_firing();
            }
            T2fsnn::from_dnn(&dnn, config, KernelParams::new(4.0, 0.0)).unwrap()
        };
        let run_with = |engine: SimEngine| model_with(engine).run(&images, &labels).unwrap();
        let dense = run_with(SimEngine::dense());
        for threshold in [0.05f32, 0.5, 1.0] {
            let event = run_with(SimEngine::Event { sparsity_threshold: threshold });
            prop_assert_eq!(&dense, &event, "max_pool={} threshold={}", max_pool, threshold);
        }
        // SIMD dispatch identity on the same runs: the AVX2 fire-phase
        // threshold scan and scatter kernels must reproduce the scalar
        // fallback's `TtfsRun` bit for bit on both engines.
        for engine in [SimEngine::dense(), SimEngine::default()] {
            let prev = t2fsnn_tensor::simd::set_enabled(false);
            let scalar = run_with(engine);
            t2fsnn_tensor::simd::set_enabled(true);
            let vector = run_with(engine);
            t2fsnn_tensor::simd::set_enabled(prev);
            prop_assert_eq!(&scalar, &vector, "simd identity, max_pool={}", max_pool);
        }
        // `infer` joins the contract: both engines agree bit for bit.
        // Its per-image charges sum to `run`'s totals, and no layer of an
        // image spikes more often than it has neurons — with early
        // firing, a retired neuron that could cross again would break
        // that bound.
        let (dense_model, event_model) = (model_with(SimEngine::dense()), model_with(SimEngine::default()));
        let d = dense_model.infer(&images, InferOptions).unwrap();
        let inf = event_model.infer(&images, InferOptions).unwrap();
        prop_assert!(same_inferences(&d, &inf), "infer engines differ");
        let sum = |f: fn(&ImageInference) -> u64| inf.iter().map(f).sum::<u64>();
        prop_assert_eq!(sum(|r| r.input_spikes), dense.input_spikes);
        prop_assert_eq!(sum(|r| r.hidden_spikes), dense.layers.iter().map(|l| l.count).sum::<u64>());
        prop_assert_eq!(sum(|r| r.synop_adds), dense.synop_adds);
        prop_assert_eq!(sum(|r| r.synop_mults), dense.synop_mults);
        // conv1 holds c·8·8 neurons, conv2 (after a 2×2 pool) 2c·4·4.
        let c = 2 + width;
        let neurons = [c * 64, 2 * c * 16];
        for (i, &label) in labels.iter().enumerate() {
            let solo = images.index_axis0(i).unwrap().reshape([1, 1, 8, 8]).unwrap();
            let run = event_model.run(&solo, &[label]).unwrap();
            prop_assert!(run.input_spikes <= 64);
            for (layer, &cap) in run.layers.iter().zip(&neurons) {
                prop_assert!(layer.count <= cap as u64, "{}: {} spikes", layer.name, layer.count);
            }
        }
    }
}

fn params() -> impl Strategy<Value = (KernelParams, usize)> {
    (0.5f32..40.0, 0.0f32..8.0, 8usize..128)
        .prop_map(|(tau, t_d, window)| (KernelParams::new(tau, t_d), window))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kernel_is_decreasing((p, window) in params()) {
        // Strictly decreasing until f32 underflow flattens the tail to 0
        // (tiny τ over a long window), then non-increasing.
        let k = ExpKernel::new(p, window);
        for t in 1..window {
            let prev = k.eval((t - 1) as f32);
            let cur = k.eval(t as f32);
            if prev > f32::MIN_POSITIVE {
                prop_assert!(cur < prev, "t={t}: {cur} !< {prev}");
            } else {
                prop_assert!(cur <= prev);
            }
        }
    }

    #[test]
    fn encode_is_monotone_nonincreasing_in_value((p, window) in params()) {
        // Larger values never fire later — the defining TTFS property.
        let k = ExpKernel::new(p, window);
        let mut last: Option<usize> = None;
        for i in (1..=50).rev() {
            let x = i as f32 / 50.0;
            if let Some(t) = k.encode(x, 1.0) {
                if let Some(prev) = last {
                    prop_assert!(t >= prev, "x={x}: t={t} < prev={prev}");
                }
                last = Some(t);
            }
        }
    }

    #[test]
    fn decode_never_exceeds_encoded_value((p, window) in params(), xi in 1u32..1000) {
        // The threshold crossing is from above: ẑ ≤ z̄ always.
        let k = ExpKernel::new(p, window);
        let x = xi as f32 / 1000.0 * k.max_representable().min(1.0);
        if let Some(t) = k.encode(x, 1.0) {
            let decoded = k.decode(t);
            prop_assert!(decoded <= x * (1.0 + 1e-5), "decoded {decoded} > {x}");
        }
    }

    #[test]
    fn precision_error_bound_holds((p, window) in params(), xi in 1u32..1000) {
        // |z̄ − ẑ| ≤ ẑ·(exp(1/τ) − 1), the paper's Sec. III-B bound.
        let k = ExpKernel::new(p, window);
        let x = xi as f32 / 1000.0;
        if let Some(t) = k.encode(x, 1.0) {
            let decoded = k.decode(t);
            // Values above the max representable saturate at t=0 and are
            // excluded from the bound (the kernel cannot express them).
            prop_assume!(x <= k.max_representable());
            let bound = k.precision_error_bound(decoded) + 1e-5;
            prop_assert!(
                (x - decoded).abs() <= bound,
                "x={x} decoded={decoded} err={} bound={bound}",
                (x - decoded).abs()
            );
        }
    }

    #[test]
    fn representable_range_brackets_spiking((p, window) in params(), xi in 1u32..1000) {
        let k = ExpKernel::new(p, window);
        let x = xi as f32 / 1000.0;
        if k.encode(x, 1.0).is_some() {
            // Anything that spikes is at least the threshold at T−1.
            prop_assert!(x >= k.eval((window - 1) as f32) - 1e-6);
        } else if x > 0.0 {
            // Anything positive that does not spike is below that threshold.
            prop_assert!(x < k.eval((window - 1) as f32) + 1e-6);
        }
    }

    #[test]
    fn lookup_table_is_exact((p, window) in params()) {
        let k = ExpKernel::new(p, window);
        let table = k.to_table();
        prop_assert_eq!(table.len(), window);
        for t in 0..window {
            prop_assert!((table.value(t) - k.eval(t as f32)).abs() < 1e-6);
        }
    }

    #[test]
    fn losses_are_finite_and_nonnegative(
        (p, window) in params(),
        values in prop::collection::vec(0.0f32..1.0, 1..64)
    ) {
        let sample = kernel_losses(&values, p, window, 1.0);
        prop_assert!(sample.l_prec.is_finite() && sample.l_prec >= 0.0);
        prop_assert!(sample.l_min.is_finite() && sample.l_min >= 0.0);
        prop_assert!(sample.l_max.is_finite() && sample.l_max >= 0.0);
    }

    #[test]
    fn larger_tau_lowers_mean_precision_error(t_d in 0.0f32..4.0) {
        // Pointwise the ceil-discretization can favor either kernel, but
        // averaged over the value range, precision is monotone in τ
        // (the trade-off of Sec. III-B).
        let window = 64usize;
        let coarse = ExpKernel::new(KernelParams::new(4.0, t_d), window);
        let fine = ExpKernel::new(KernelParams::new(16.0, t_d), window);
        let mean_err = |k: &ExpKernel| {
            let mut err = 0.0f32;
            let mut n = 0usize;
            for i in 1..=200 {
                let x = i as f32 / 200.0;
                if let Some(t) = k.encode(x, 1.0) {
                    err += (x - k.decode(t)).abs();
                    n += 1;
                }
            }
            err / n.max(1) as f32
        };
        prop_assert!(
            mean_err(&fine) < mean_err(&coarse),
            "fine {} !< coarse {}",
            mean_err(&fine),
            mean_err(&coarse)
        );
    }
}

/// Bit-level equality of two per-image inference lists, `top_potential`
/// included (NaN-safe, unlike `==` on the floats).
fn same_inferences(a: &[ImageInference], b: &[ImageInference]) -> bool {
    a == b
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.top_potential.to_bits() == y.top_potential.to_bits())
}

fn plan_images(n: usize, seed: u64, dims: [usize; 3]) -> Tensor {
    let [c, h, w] = dims;
    Tensor::from_fn([n, c, h, w], |i| {
        let key = i[0] * 7919 + i[2] * 53 + i[3] * 13 + seed as usize;
        ((key % 89) as f32) / 88.0
    })
}

fn plan_model(max_pool: bool, width: usize, seed: u64) -> T2fsnn {
    let kind = if max_pool {
        PoolKind::Max
    } else {
        PoolKind::Avg
    };
    let dnn = random_cnn(kind, width, seed);
    T2fsnn::from_dnn(&dnn, T2fsnnConfig::new(8), KernelParams::new(4.0, 0.0)).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The compiled-plan cache: a call that reuses the cached plan is
    /// bit-identical to the first call of a fresh clone, for `infer`
    /// (solo and batched, 1/2/4 workers) and for
    /// `run`, and every call of one input shape shares one plan.
    #[test]
    fn cached_plan_calls_match_a_fresh_clone(
        max_pool in prop::bool::ANY,
        width in 0usize..3,
        seed in 0u64..500,
    ) {
        let model = plan_model(max_pool, width, seed);
        let images = plan_images(5, seed, [1, 8, 8]);
        let solo = plan_images(1, seed + 1, [1, 8, 8]);
        let labels = vec![0usize, 1, 2, 3, 0];
        // Warm the cache, then check every later call against a clone
        // taken before it (whose own first call compiles afresh).
        let pristine = model.clone();
        let first = model.run(&images, &labels).unwrap();
        let plan = model.network().plan(&[1, 8, 8]).unwrap();
        prop_assert_eq!(&model.run(&images, &labels).unwrap(), &first);
        prop_assert_eq!(&pristine.clone().run(&images, &labels).unwrap(), &first);
        for batch in [&solo, &images] {
            let fresh = pristine.clone().infer(batch, InferOptions).unwrap();
            for workers in [1usize, 2, 4] {
                let pool = ThreadPool::new(workers);
                let cached = model.infer_on(batch, InferOptions, &pool).unwrap();
                prop_assert!(same_inferences(&cached, &fresh), "workers={}", workers);
            }
        }
        // One compile per model and input shape: the plan those calls
        // used is still the one cached after the first.
        prop_assert!(Arc::ptr_eq(&plan, &model.network().plan(&[1, 8, 8]).unwrap()));
    }

    /// `perturb_weights` drops the cached plan: perturbing after an
    /// inference gives exactly the bits of a model perturbed before any.
    #[test]
    fn perturbing_after_inference_matches_perturbing_first(
        max_pool in prop::bool::ANY,
        seed in 0u64..500,
    ) {
        let spec = PerturbSpec::parse("3:wgauss=0.2,wstuck=0.1").unwrap();
        let images = plan_images(3, seed, [1, 8, 8]);
        let labels = vec![0usize, 1, 2];
        let mut before = plan_model(max_pool, 1, seed);
        before.perturb_weights(&spec);
        let mut after = plan_model(max_pool, 1, seed);
        let clean = after.infer(&images, InferOptions).unwrap();
        after.perturb_weights(&spec);
        let want = before.infer(&images, InferOptions).unwrap();
        let got = after.infer(&images, InferOptions).unwrap();
        prop_assert!(same_inferences(&got, &want));
        prop_assert!(!same_inferences(&got, &clean), "the perturbation must show");
        prop_assert_eq!(after.run(&images, &labels).unwrap(), before.run(&images, &labels).unwrap());
    }

    /// A different input shape never reuses the cached plan. `[1, 4, 16]`
    /// images reach the classifier with as many features as `[1, 8, 8]`
    /// ones, so a wrongly reused plan would not even fail loudly.
    #[test]
    fn another_input_shape_never_reuses_the_cached_plan(
        max_pool in prop::bool::ANY,
        seed in 0u64..500,
    ) {
        let model = plan_model(max_pool, 1, seed);
        let square = plan_images(2, seed, [1, 8, 8]);
        let wide = plan_images(2, seed, [1, 4, 16]);
        model.infer(&square, InferOptions).unwrap();
        let cached = model.network().plan(&[1, 8, 8]).unwrap();
        let other = model.network().plan(&[1, 4, 16]).unwrap();
        prop_assert!(!Arc::ptr_eq(&cached, &other));
        prop_assert_eq!(other.state_dims(0), &[4, 16, 3][..]);
        let fresh = plan_model(max_pool, 1, seed).infer(&wide, InferOptions).unwrap();
        prop_assert!(same_inferences(&model.infer(&wide, InferOptions).unwrap(), &fresh));
        // The first shape's plan stays cached.
        prop_assert!(Arc::ptr_eq(&cached, &model.network().plan(&[1, 8, 8]).unwrap()));
    }
}
