//! Property-based tests for the tensor substrate.

use proptest::prelude::*;
use std::sync::Mutex;
use t2fsnn_tensor::{init, ops, simd, Shape, Tensor};

/// Serializes the tests that toggle the global SIMD dispatch so one
/// test's forced mode cannot make another's on-vs-off comparison
/// vacuous (flipping the mode never changes results — that is the
/// property — but each comparison should genuinely run both paths).
static SIMD_GATE: Mutex<()> = Mutex::new(());

/// Runs `f` with SIMD dispatch forced to `on`, restoring the previous
/// state afterwards.
fn with_simd<T>(on: bool, f: impl FnOnce() -> T) -> T {
    let prev = simd::set_enabled(on);
    let out = f();
    simd::set_enabled(prev);
    out
}

fn small_dims() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..5, 1..4)
}

fn tensor_with(dims: Vec<usize>) -> impl Strategy<Value = Tensor> {
    let n: usize = dims.iter().product();
    prop::collection::vec(-10.0f32..10.0, n..=n)
        .prop_map(move |data| Tensor::from_vec(Shape::from(dims.clone()), data).unwrap())
}

fn arbitrary_tensor() -> impl Strategy<Value = Tensor> {
    small_dims().prop_flat_map(tensor_with)
}

/// Naive quadruple-loop convolution backward: the oracle for the blocked
/// GEMM backward pass. Returns `(grad_input, grad_weight, grad_bias)`.
fn conv2d_backward_naive(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    spec: ops::Conv2dSpec,
) -> (Tensor, Tensor, Tensor) {
    let (n, c, h, w) = (
        input.dims()[0],
        input.dims()[1],
        input.dims()[2],
        input.dims()[3],
    );
    let (o, _, kh, kw) = (
        weight.dims()[0],
        weight.dims()[1],
        weight.dims()[2],
        weight.dims()[3],
    );
    let (oh, ow) = (spec.output_dim(h, kh), spec.output_dim(w, kw));
    let mut gi = Tensor::zeros(input.shape().clone());
    let mut gw = Tensor::zeros(weight.shape().clone());
    let mut gb = Tensor::zeros([o]);
    for ni in 0..n {
        for oc in 0..o {
            for oi in 0..oh {
                for oj in 0..ow {
                    let g = grad_out[&[ni, oc, oi, oj][..]];
                    gb.data_mut()[oc] += g;
                    for ci in 0..c {
                        for ki in 0..kh {
                            for kj in 0..kw {
                                let ii = (oi * spec.stride + ki) as isize - spec.padding as isize;
                                let jj = (oj * spec.stride + kj) as isize - spec.padding as isize;
                                if ii < 0 || jj < 0 || ii >= h as isize || jj >= w as isize {
                                    continue;
                                }
                                let x = input[&[ni, ci, ii as usize, jj as usize][..]];
                                let wv = weight[&[oc, ci, ki, kj][..]];
                                let widx = ((oc * c + ci) * kh + ki) * kw + kj;
                                gw.data_mut()[widx] += g * x;
                                let iidx = ((ni * c + ci) * h + ii as usize) * w + jj as usize;
                                gi.data_mut()[iidx] += g * wv;
                            }
                        }
                    }
                }
            }
        }
    }
    (gi, gw, gb)
}

/// Reference triple loop: the oracle for the blocked GEMM family.
fn matmul_naive(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let n = b.dims()[1];
    Tensor::from_fn(Shape::from(vec![m, n]), |idx| {
        (0..k)
            .map(|p| a.data()[idx[0] * k + p] * b.data()[p * n + idx[1]])
            .sum()
    })
}

proptest! {
    #[test]
    fn blocked_matmul_family_matches_naive_oracle(
        m in 1usize..18,
        k in 1usize..40,
        n in 1usize..18,
        seed in 0u32..1000,
    ) {
        // Odd, non-multiple-of-tile shapes exercise every remainder path
        // of the register-blocked kernels (rows % 4, cols % 2, k % 8).
        let a = Tensor::from_fn(Shape::from(vec![m, k]), |i| {
            (((i[0] * 31 + i[1] * 7 + seed as usize) % 19) as f32) * 0.13 - 1.1
        });
        let b = Tensor::from_fn(Shape::from(vec![k, n]), |i| {
            (((i[0] * 13 + i[1] * 5 + seed as usize) % 23) as f32) * 0.09 - 0.9
        });
        let want = matmul_naive(&a, &b);
        prop_assert!(ops::matmul(&a, &b).unwrap().all_close(&want, 1e-5));
        let at = a.transpose().unwrap();
        prop_assert!(ops::matmul_at_b(&at, &b).unwrap().all_close(&want, 1e-5));
        let bt = b.transpose().unwrap();
        prop_assert!(ops::matmul_a_bt(&a, &bt).unwrap().all_close(&want, 1e-5));
    }

    #[test]
    fn sparse_conv_paths_are_bit_identical(
        c in 1usize..4,
        h in 3usize..9,
        w in 3usize..9,
        o in 1usize..6,
        stride in 1usize..3,
        padding in 0usize..2,
        density in 0.0f64..0.6,
        seed in 0u32..1000,
    ) {
        let spec = ops::Conv2dSpec::new(stride, padding);
        let input = Tensor::from_fn(Shape::from(vec![2, c, h, w]), |i| {
            let key = i[0] * 7919 + i[1] * 811 + i[2] * 53 + i[3] * 7 + seed as usize;
            if ((key % 1000) as f64) < density * 1000.0 {
                ((key % 9) as f32) * 0.4 - 1.2
            } else {
                0.0
            }
        });
        let weight = Tensor::from_fn(Shape::from(vec![o, c, 3, 3]), |i| {
            (((i[0] * 9 + i[1] * 3 + i[2] + i[3] + seed as usize) % 11) as f32) * 0.1 - 0.5
        });
        let filter_t = ops::sparse::transpose_filter(&weight).unwrap();
        // Channel-major reference walk, canonical (y, x, c) order.
        let (dense_cm, s1) = ops::sparse::conv2d_scatter(&input, &weight, spec).unwrap();
        // Position-major dense walk and event scatter.
        let input_pm = input.to_position_major().unwrap();
        let (dense_pm, s_pm) =
            ops::sparse::conv2d_scatter_pm(&input_pm, &filter_t, (3, 3), spec).unwrap();
        let events = t2fsnn_tensor::SpikeBatch::from_dense(&input_pm).unwrap();
        let (sparse_pm, s2) =
            ops::sparse::conv2d_scatter_events_pm(&events, &filter_t, (3, 3), spec).unwrap();
        prop_assert_eq!(&dense_pm, &sparse_pm);
        prop_assert_eq!(s1, s2);
        prop_assert_eq!(s1, s_pm);
        // Cross-layout identity: same bits in permuted storage.
        prop_assert_eq!(&dense_pm.to_channel_major().unwrap(), &dense_cm);
        // The im2col reference agrees to fp tolerance.
        let reference = ops::conv2d(&input, &weight, &Tensor::zeros([o]), spec).unwrap();
        prop_assert!(dense_cm.all_close(&reference, 1e-4));
    }

    #[test]
    fn conv_backward_matches_naive_loops_and_is_worker_invariant(
        n in 1usize..4,
        c in 1usize..3,
        h in 3usize..7,
        w in 3usize..7,
        o in 1usize..4,
        stride in 1usize..3,
        padding in 0usize..2,
        seed in 0u32..500,
    ) {
        // Odd, non-tile-aligned shapes exercise the blocked GEMM
        // remainder paths inside the backward pass.
        let spec = ops::Conv2dSpec::new(stride, padding);
        let input = Tensor::from_fn(Shape::from(vec![n, c, h, w]), |i| {
            (((i[0] * 131 + i[1] * 31 + i[2] * 7 + i[3] + seed as usize) % 17) as f32) * 0.11 - 0.8
        });
        let weight = Tensor::from_fn(Shape::from(vec![o, c, 3, 3]), |i| {
            (((i[0] * 27 + i[1] * 9 + i[2] * 3 + i[3] + seed as usize) % 13) as f32) * 0.1 - 0.6
        });
        let oh = spec.output_dim(h, 3);
        let ow = spec.output_dim(w, 3);
        prop_assume!(oh > 0 && ow > 0);
        let gout = Tensor::from_fn(Shape::from(vec![n, o, oh, ow]), |i| {
            (((i[0] * 53 + i[1] * 11 + i[2] * 3 + i[3] + seed as usize) % 7) as f32) * 0.3 - 0.9
        });
        let (gi, gw, gb) = ops::conv2d_backward(&input, &weight, &gout, spec).unwrap();
        // Naive quadruple-loop oracle for all three gradients.
        let (ngi, ngw, ngb) = conv2d_backward_naive(&input, &weight, &gout, spec);
        prop_assert!(gi.all_close(&ngi, 1e-3));
        prop_assert!(gw.all_close(&ngw, 1e-3));
        prop_assert!(gb.all_close(&ngb, 1e-3));
        // The deterministic-parallelism contract: bit-identical gradients
        // for every worker count (this is what `T2FSNN_THREADS` feeds).
        let serial =
            ops::conv2d_backward_on(&input, &weight, &gout, spec, &t2fsnn_tensor::ThreadPool::new(1))
                .unwrap();
        for workers in [2usize, 4] {
            let parallel = ops::conv2d_backward_on(
                &input,
                &weight,
                &gout,
                spec,
                &t2fsnn_tensor::ThreadPool::new(workers),
            )
            .unwrap();
            prop_assert_eq!(&serial.0, &parallel.0, "grad_input, workers={}", workers);
            prop_assert_eq!(&serial.1, &parallel.1, "grad_weight, workers={}", workers);
            prop_assert_eq!(&serial.2, &parallel.2, "grad_bias, workers={}", workers);
        }
        prop_assert_eq!(&gi, &serial.0);
        prop_assert_eq!(&gw, &serial.1);
        prop_assert_eq!(&gb, &serial.2);
    }

    /// SIMD dispatch must never change a bit: the AVX2 kernels vectorize
    /// across independent output elements only, so on odd/unaligned
    /// shapes (every remainder path) the blocked matmul family returns
    /// exactly the scalar fallback's results. (On hardware without AVX2
    /// both runs take the scalar path and the comparison is trivially
    /// true — the CI `T2FSNN_SIMD=0` leg is what keeps the scalar path
    /// covered on AVX2 machines.)
    #[test]
    fn simd_matmul_family_is_bit_identical_to_scalar(
        m in 1usize..18,
        k in 1usize..40,
        n in 1usize..18,
        seed in 0u32..1000,
    ) {
        let _gate = SIMD_GATE.lock().unwrap();
        let a = Tensor::from_fn(Shape::from(vec![m, k]), |i| {
            (((i[0] * 7 + i[1] * 13 + seed as usize) % 23) as f32) * 0.11 - 1.2
        });
        let b = Tensor::from_fn(Shape::from(vec![k, n]), |i| {
            (((i[0] * 17 + i[1] * 5 + seed as usize) % 19) as f32) * 0.13 - 1.1
        });
        let x = Tensor::from_fn(Shape::from(vec![k]), |i| {
            (((i[0] * 29 + seed as usize) % 13) as f32) * 0.17 - 1.0
        });
        let at = a.transpose().unwrap();
        let bt = b.transpose().unwrap();
        let run = || {
            (
                ops::matmul(&a, &b).unwrap(),
                ops::matmul_at_b(&at, &b).unwrap(),
                ops::matmul_a_bt(&a, &bt).unwrap(),
                ops::matvec(&a, &x).unwrap(),
            )
        };
        let scalar = with_simd(false, run);
        let vector = with_simd(true, run);
        prop_assert_eq!(&scalar.0, &vector.0, "matmul");
        prop_assert_eq!(&scalar.1, &vector.1, "matmul_at_b");
        prop_assert_eq!(&scalar.2, &vector.2, "matmul_a_bt");
        prop_assert_eq!(&scalar.3, &vector.3, "matvec");
    }

    /// SIMD on-vs-off bit-identity for the event/dense scatter kernels
    /// (conv + linear, dense walks and event lists) on random sparse
    /// signals at odd shapes.
    #[test]
    fn simd_scatter_kernels_are_bit_identical_to_scalar(
        c in 1usize..4,
        h in 3usize..9,
        w in 3usize..9,
        o in 1usize..7,
        stride in 1usize..3,
        padding in 0usize..2,
        density in 0.0f64..0.6,
        seed in 0u32..1000,
    ) {
        let _gate = SIMD_GATE.lock().unwrap();
        let spec = ops::Conv2dSpec::new(stride, padding);
        let input_pm = Tensor::from_fn(Shape::from(vec![2, h, w, c]), |i| {
            let key = i[0] * 7919 + i[1] * 811 + i[2] * 53 + i[3] * 7 + seed as usize;
            if ((key % 1000) as f64) < density * 1000.0 {
                ((key % 9) as f32) * 0.4 - 1.2
            } else {
                0.0
            }
        });
        let weight = Tensor::from_fn(Shape::from(vec![o, c, 3, 3]), |i| {
            (((i[0] * 9 + i[1] * 3 + i[2] + i[3] + seed as usize) % 11) as f32) * 0.1 - 0.5
        });
        let filter_t = ops::sparse::transpose_filter(&weight).unwrap();
        let events = t2fsnn_tensor::SpikeBatch::from_dense(&input_pm).unwrap();
        let flat = input_pm.reshape([2, h * w * c]).unwrap();
        let weight_t = Tensor::from_fn(Shape::from(vec![h * w * c, o]), |i| {
            (((i[0] * 3 + i[1] * 7 + seed as usize) % 17) as f32) * 0.09 - 0.7
        });
        let run = || {
            (
                ops::sparse::conv2d_scatter_pm(&input_pm, &filter_t, (3, 3), spec).unwrap(),
                ops::sparse::conv2d_scatter_events_pm(&events, &filter_t, (3, 3), spec).unwrap(),
                ops::sparse::linear_scatter_t(&flat, &weight_t).unwrap(),
                ops::sparse::linear_scatter_events(&events, &weight_t).unwrap(),
            )
        };
        let scalar = with_simd(false, run);
        let vector = with_simd(true, run);
        prop_assert_eq!(&scalar.0.0, &vector.0.0, "conv dense walk");
        prop_assert_eq!(&scalar.1.0, &vector.1.0, "conv event scatter");
        prop_assert_eq!(&scalar.2.0, &vector.2.0, "linear dense");
        prop_assert_eq!(&scalar.3.0, &vector.3.0, "linear events");
    }

    /// The conv scatter at the output widths it specialises on (8, 16,
    /// 32, 64) and around them (7, 9, 24 take the runtime-width
    /// fallback): the event scatter, the position-major dense walk and
    /// the channel-major oracle give the same bits and synop counts,
    /// with SIMD on and off, for 1×1/3×3/5×5 kernels, padding 0–2,
    /// stride 1–2, channel counts and widths that are not powers of two
    /// (the division path of the event decoder), and a batch holding an
    /// empty image.
    #[test]
    fn specialised_width_conv_scatter_is_bit_identical(
        o_pick in 0usize..7,
        c in 1usize..34,
        k_pick in 0usize..3,
        h_extra in 0usize..7,
        w_extra in 0usize..7,
        padding in 0usize..3,
        stride in 1usize..3,
        empty in 0usize..3,
        density in 0.0f64..0.5,
        seed in 0u32..1000,
    ) {
        let _gate = SIMD_GATE.lock().unwrap();
        let o = [7usize, 8, 9, 16, 24, 32, 64][o_pick];
        let k = [1usize, 3, 5][k_pick];
        let (h, w) = (k + h_extra, k + w_extra);
        let spec = ops::Conv2dSpec::new(stride, padding);
        let input = Tensor::from_fn(Shape::from(vec![3, c, h, w]), |i| {
            let key = i[0] * 7919 + i[1] * 811 + i[2] * 53 + i[3] * 7 + seed as usize;
            if i[0] != empty && ((key % 1000) as f64) < density * 1000.0 {
                ((key % 97) as f32) * 0.0137 - 0.6
            } else {
                0.0
            }
        });
        let weight = Tensor::from_fn(Shape::from(vec![o, c, k, k]), |i| {
            let key = i[0] * 131 + i[1] * 31 + i[2] * 7 + i[3] + seed as usize;
            ((key % 89) as f32) * 0.0113 - 0.5
        });
        let filter_t = ops::sparse::transpose_filter(&weight).unwrap();
        let input_pm = input.to_position_major().unwrap();
        let events = t2fsnn_tensor::SpikeBatch::from_dense(&input_pm).unwrap();
        let run = || {
            (
                ops::sparse::conv2d_scatter(&input, &weight, spec).unwrap(),
                ops::sparse::conv2d_scatter_pm(&input_pm, &filter_t, (k, k), spec).unwrap(),
                ops::sparse::conv2d_scatter_events_pm(&events, &filter_t, (k, k), spec).unwrap(),
            )
        };
        let scalar = with_simd(false, run);
        let vector = with_simd(true, run);
        for ((oracle, s_oracle), (dense, s_dense), (sparse, s_sparse)) in [&scalar, &vector] {
            prop_assert_eq!(&dense.to_channel_major().unwrap(), oracle, "dense walk vs oracle");
            prop_assert_eq!(&sparse.to_channel_major().unwrap(), oracle, "event scatter vs oracle");
            prop_assert_eq!(s_dense, s_oracle);
            prop_assert_eq!(s_sparse, s_oracle);
        }
        prop_assert_eq!(&scalar.1.0, &vector.1.0, "dense walk, SIMD off vs on");
        prop_assert_eq!(&scalar.2.0, &vector.2.0, "event scatter, SIMD off vs on");
        prop_assert_eq!(scalar.2.1, vector.2.1);
    }

    /// SIMD on-vs-off identity of the threshold scan (the fire-phase
    /// primitive): same hit indices in the same ascending order, for
    /// thresholds that do and do not exactly equal stored values.
    #[test]
    fn simd_threshold_scan_is_identical_to_scalar(
        len in 0usize..70,
        threshold_step in 0usize..9,
        seed in 0u32..1000,
    ) {
        let _gate = SIMD_GATE.lock().unwrap();
        // Values on a coarse grid so `threshold` frequently hits exact
        // equality (the `>=` edge).
        let data: Vec<f32> = (0..len)
            .map(|i| (((i * 7 + seed as usize) % 9) as f32) * 0.25 - 1.0)
            .collect();
        let threshold = threshold_step as f32 * 0.25 - 1.0;
        let scan = || {
            let mut hits = Vec::new();
            simd::collect_ge(&data, threshold, &mut hits);
            hits
        };
        let scalar = with_simd(false, scan);
        let vector = with_simd(true, scan);
        prop_assert_eq!(scalar, vector);
    }

    #[test]
    fn flat_multi_index_round_trip(dims in small_dims(), seed in 0usize..1000) {
        let shape = Shape::from(dims);
        let flat = seed % shape.numel();
        let multi = shape.multi_index(flat).unwrap();
        prop_assert_eq!(shape.flat_index(&multi), Some(flat));
    }

    #[test]
    fn add_is_commutative(t in arbitrary_tensor()) {
        let u = t.map(|x| x * 0.5 + 1.0);
        let ab = t.add(&u).unwrap();
        let ba = u.add(&t).unwrap();
        prop_assert!(ab.all_close(&ba, 1e-6));
    }

    #[test]
    fn sub_then_add_round_trips(t in arbitrary_tensor()) {
        let u = t.map(|x| x - 3.0);
        let back = t.sub(&u).unwrap().add(&u).unwrap();
        prop_assert!(back.all_close(&t, 1e-4));
    }

    #[test]
    fn scale_distributes_over_add(t in arbitrary_tensor(), alpha in -5.0f32..5.0) {
        let u = t.map(|x| x * 0.25);
        let lhs = t.add(&u).unwrap().scale(alpha);
        let rhs = t.scale(alpha).add(&u.scale(alpha)).unwrap();
        prop_assert!(lhs.all_close(&rhs, 1e-3));
    }

    #[test]
    fn reshape_preserves_sum(t in arbitrary_tensor()) {
        let flat = t.reshape([t.numel()]).unwrap();
        prop_assert!((flat.sum() - t.sum()).abs() < 1e-4);
    }

    #[test]
    fn sum_bounded_by_extremes(t in arbitrary_tensor()) {
        let n = t.numel() as f32;
        prop_assert!(t.sum() <= t.max() * n + 1e-3);
        prop_assert!(t.sum() >= t.min() * n - 1e-3);
    }

    #[test]
    fn argmax_points_at_max(t in arbitrary_tensor()) {
        let i = t.argmax().unwrap();
        prop_assert_eq!(t.data()[i], t.max());
    }

    #[test]
    fn relu_is_idempotent_and_nonnegative(t in arbitrary_tensor()) {
        let r = ops::relu(&t);
        prop_assert!(r.iter().all(|&x| x >= 0.0));
        prop_assert!(ops::relu(&r).all_close(&r, 0.0));
    }

    #[test]
    fn softmax_rows_are_distributions(
        rows in 1usize..4,
        cols in 1usize..6,
        seed in prop::collection::vec(-20.0f32..20.0, 1..24)
    ) {
        let n = rows * cols;
        let data: Vec<f32> = (0..n).map(|i| seed[i % seed.len()]).collect();
        let t = Tensor::from_vec([rows, cols], data).unwrap();
        let s = ops::softmax(&t).unwrap();
        for r in 0..rows {
            let sum: f32 = s.data()[r * cols..(r + 1) * cols].iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn matmul_is_linear_in_first_argument(
        m in 1usize..4, k in 1usize..4, n in 1usize..4, alpha in -3.0f32..3.0
    ) {
        let mut rng = rand::rngs::mock::StepRng::new(7, 13);
        use rand::Rng;
        let rand_t = |r: &mut rand::rngs::mock::StepRng, rows: usize, cols: usize| {
            Tensor::from_vec(
                [rows, cols],
                (0..rows * cols).map(|_| (r.gen::<u32>() % 17) as f32 / 8.0 - 1.0).collect(),
            ).unwrap()
        };
        let a = rand_t(&mut rng, m, k);
        let b = rand_t(&mut rng, k, n);
        let lhs = ops::matmul(&a.scale(alpha), &b).unwrap();
        let rhs = ops::matmul(&a, &b).unwrap().scale(alpha);
        prop_assert!(lhs.all_close(&rhs, 1e-3));
    }

    #[test]
    fn conv_is_linear_in_input(
        c in 1usize..3, hw in 3usize..6, o in 1usize..3, alpha in -2.0f32..2.0
    ) {
        let spec = ops::Conv2dSpec::new(1, 1);
        let input = Tensor::from_fn([1, c, hw, hw], |i| ((i[1] + i[2] * i[3]) % 5) as f32 * 0.2);
        let weight = Tensor::from_fn([o, c, 3, 3], |i| ((i[0] + i[2] + i[3]) % 3) as f32 * 0.1 - 0.1);
        let bias = Tensor::zeros([o]);
        let lhs = ops::conv2d(&input.scale(alpha), &weight, &bias, spec).unwrap();
        let rhs = ops::conv2d(&input, &weight, &bias, spec).unwrap().scale(alpha);
        prop_assert!(lhs.all_close(&rhs, 1e-3));
    }

    #[test]
    fn avg_pool_preserves_global_mean_when_exact(
        c in 1usize..3, half in 1usize..4
    ) {
        // When the window tiles the input exactly, the pooled mean equals
        // the input mean.
        let hw = half * 2;
        let input = Tensor::from_fn([1, c, hw, hw], |i| (i[1] * 7 + i[2] * 3 + i[3]) as f32 * 0.1);
        let pooled = ops::avg_pool2d(&input, 2, 2).unwrap();
        prop_assert!((pooled.mean() - input.mean()).abs() < 1e-4);
    }

    #[test]
    fn max_pool_never_decreases_max(c in 1usize..3, half in 1usize..4) {
        let hw = half * 2;
        let input = Tensor::from_fn([1, c, hw, hw], |i| ((i[1] * 13 + i[2] * 5 + i[3] * 2) % 11) as f32);
        let (pooled, _) = ops::max_pool2d(&input, 2, 2).unwrap();
        prop_assert_eq!(pooled.max(), input.max());
        prop_assert!(pooled.min() >= input.min());
    }

    #[test]
    fn he_init_std_tracks_fan_in(fan_in in 1usize..512) {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(fan_in as u64);
        let t = init::he_normal(&mut rng, [4096], fan_in);
        let expect = (2.0 / fan_in as f32).sqrt();
        let std = t.map(|x| x * x).mean().sqrt();
        prop_assert!((std - expect).abs() < expect * 0.2 + 1e-3);
    }

    #[test]
    fn stack_then_index_round_trips(dims in small_dims(), n in 1usize..4) {
        let parts: Vec<Tensor> = (0..n)
            .map(|i| Tensor::from_fn(Shape::from(dims.clone()), |idx| {
                (i * 100 + idx.iter().sum::<usize>()) as f32
            }))
            .collect();
        let stacked = Tensor::stack(&parts).unwrap();
        for (i, part) in parts.iter().enumerate() {
            prop_assert_eq!(&stacked.index_axis0(i).unwrap(), part);
        }
    }
}
