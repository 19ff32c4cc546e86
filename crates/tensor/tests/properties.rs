//! Property-based tests for the tensor substrate.

use proptest::prelude::*;
use std::sync::Mutex;
use t2fsnn_tensor::{init, ops, simd, Shape, SpikeBatch, Tensor};

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

/// The position-major conv dense walk into a zeroed target: the fresh
/// output and the per-image synop ledger the kernel billed.
fn conv_dense_walk(
    input_pm: &Tensor,
    filter_t: &Tensor,
    k: usize,
    spec: ops::Conv2dSpec,
) -> (Tensor, Vec<u64>) {
    let d = input_pm.dims();
    let (oh, ow) = (spec.output_dim(d[1], k), spec.output_dim(d[2], k));
    let mut out = Tensor::zeros([d[0], oh, ow, filter_t.dims()[1]]);
    let mut synops = vec![0; d[0]];
    ops::sparse::conv2d_scatter_pm_acc(input_pm, filter_t, (k, k), spec, &mut out, &mut synops)
        .unwrap();
    (out, synops)
}

/// [`conv_dense_walk`] for the conv event scatter.
fn conv_event_scatter(
    events: &SpikeBatch,
    filter_t: &Tensor,
    k: usize,
    spec: ops::Conv2dSpec,
) -> (Tensor, Vec<u64>) {
    let d = events.feature_dims();
    let (oh, ow) = (spec.output_dim(d[0], k), spec.output_dim(d[1], k));
    let mut out = Tensor::zeros([events.batch(), oh, ow, filter_t.dims()[1]]);
    let mut synops = vec![0; events.batch()];
    ops::sparse::conv2d_scatter_events_pm_acc(
        events,
        filter_t,
        (k, k),
        spec,
        &mut out,
        &mut synops,
    )
    .unwrap();
    (out, synops)
}

/// The linear dense form into a zeroed target, with its ledger.
fn linear_dense(flat: &Tensor, weight_t: &Tensor) -> (Tensor, Vec<u64>) {
    let n = flat.dims()[0];
    let mut out = Tensor::zeros([n, weight_t.dims()[1]]);
    let mut synops = vec![0; n];
    ops::sparse::linear_scatter_t_acc(flat, weight_t, &mut out, &mut synops).unwrap();
    (out, synops)
}

/// The linear event form into a zeroed target, with its ledger.
fn linear_events(events: &SpikeBatch, weight_t: &Tensor) -> (Tensor, Vec<u64>) {
    let n = events.batch();
    let mut out = Tensor::zeros([n, weight_t.dims()[1]]);
    let mut synops = vec![0; n];
    ops::sparse::linear_scatter_events_acc(events, weight_t, &mut out, &mut synops).unwrap();
    (out, synops)
}

/// Test oracle: a bias-free convolution of a channel-major
/// `[N, C, H, W]` input by a `[O, C, K, K]` weight, written as plain
/// gather loops. Each output element adds its non-zero inputs' terms in
/// ascending `(ki, kj, c)` order, which is the canonical `(y, x, c)`
/// order of its sources, so the scatter kernels must match it bit for
/// bit (modulo the layout permutation). It shares no tap or filter
/// helper with them.
fn conv_oracle(input: &Tensor, weight: &Tensor, spec: ops::Conv2dSpec) -> Tensor {
    let [n, c, h, w] = [0, 1, 2, 3].map(|a| input.dims()[a]);
    let (o, k) = (weight.dims()[0], weight.dims()[2]);
    let (oh, ow) = (spec.output_dim(h, k), spec.output_dim(w, k));
    let (id, wd) = (input.data(), weight.data());
    let src = |out: usize, tap: usize, len: usize| {
        (out * spec.stride + tap)
            .checked_sub(spec.padding)
            .filter(|&p| p < len)
    };
    Tensor::from_fn(Shape::from(vec![n, o, oh, ow]), |i| {
        let mut acc = 0.0f32;
        for ki in 0..k {
            let Some(y) = src(i[2], ki, h) else { continue };
            for kj in 0..k {
                let Some(x) = src(i[3], kj, w) else { continue };
                for ci in 0..c {
                    let v = id[((i[0] * c + ci) * h + y) * w + x];
                    if v != 0.0 {
                        acc += v * wd[((i[1] * c + ci) * k + ki) * k + kj];
                    }
                }
            }
        }
        acc
    })
}

/// Test oracle: the per-image synop adds of an `o`-output, `k×k`
/// convolution over a channel-major `[N, C, H, W]` input, counted with
/// plain loops: every non-zero entry charges `o` per valid kernel tap.
fn conv_synops_oracle(input: &Tensor, o: usize, k: usize, spec: ops::Conv2dSpec) -> Vec<u64> {
    let d = input.dims();
    let (h, w) = (d[2], d[3]);
    let taps = |src: usize, len: usize| {
        let out = spec.output_dim(len, k);
        (0..k)
            .filter(|&kk| {
                let num = (src + spec.padding) as isize - kk as isize;
                num >= 0
                    && (num as usize).is_multiple_of(spec.stride)
                    && (num as usize / spec.stride) < out
            })
            .count() as u64
    };
    let plane = d[1] * h * w;
    (0..d[0])
        .map(|ni| {
            let image = &input.data()[ni * plane..(ni + 1) * plane];
            let mut charged = 0u64;
            for (j, &v) in image.iter().enumerate() {
                if v != 0.0 {
                    charged += taps(j / w % h, h) * taps(j % w, w) * o as u64;
                }
            }
            charged
        })
        .collect()
}

/// Test oracle: the per-image synop adds of a linear layer, non-zero
/// inputs × `o`.
fn linear_synops_oracle(flat: &Tensor, o: usize) -> Vec<u64> {
    let features = flat.dims()[1].max(1);
    let rows = flat.data().chunks_exact(features);
    rows.map(|row| row.iter().filter(|&&v| v != 0.0).count() as u64 * o as u64)
        .collect()
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
        n in 1usize..48,
        seed in 0u32..1000,
        zero_rows in any::<u32>(),
    ) {
        // Odd, non-multiple-of-tile shapes exercise every remainder path
        // of the register-blocked kernels (rows % 4, cols % 16 past one
        // and two 16-column tiles, cols % 2, k % 8). Row `i` of `A` is
        // all zero where bit `i` of `zero_rows` is set, which runs the
        // zero skips.
        let a = Tensor::from_fn(Shape::from(vec![m, k]), |i| {
            if zero_rows >> i[0] & 1 == 1 {
                return 0.0;
            }
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
        // Channel-major plain-loop oracle, canonical (y, x, c) order.
        let dense_cm = conv_oracle(&input, &weight, spec);
        // Position-major dense walk and event scatter.
        let input_pm = input.to_position_major().unwrap();
        let (dense_pm, s_pm) = conv_dense_walk(&input_pm, &filter_t, 3, spec);
        let events = SpikeBatch::from_dense(&input_pm).unwrap();
        let (sparse_pm, s2) = conv_event_scatter(&events, &filter_t, 3, spec);
        prop_assert_eq!(&dense_pm, &sparse_pm);
        prop_assert_eq!(&s2, &s_pm);
        prop_assert_eq!(&s_pm, &conv_synops_oracle(&input, o, 3, spec));
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
        n in 1usize..48,
        seed in 0u32..1000,
        zero_rows in any::<u32>(),
    ) {
        let _gate = SIMD_GATE.lock().unwrap();
        // Widths past two 16-column tiles, and all-zero rows of `A`
        // where bits of `zero_rows` are set, so both the register tile
        // and the zero skips run with SIMD on and off.
        let a = Tensor::from_fn(Shape::from(vec![m, k]), |i| {
            if zero_rows >> i[0] & 1 == 1 {
                return 0.0;
            }
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
    /// signals at odd shapes, with linear rows of `linear_o` floats
    /// (picked by `linear_pick`) from under one eight-lane block to past
    /// 64.
    #[test]
    fn simd_scatter_kernels_are_bit_identical_to_scalar(
        c in 1usize..4,
        h in 3usize..9,
        w in 3usize..9,
        o in 1usize..7,
        linear_pick in 0usize..8,
        stride in 1usize..3,
        padding in 0usize..2,
        density in 0.0f64..0.6,
        seed in 0u32..1000,
    ) {
        let _gate = SIMD_GATE.lock().unwrap();
        let linear_o = [1usize, 5, 8, 13, 63, 64, 65, 100][linear_pick];
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
        let events = SpikeBatch::from_dense(&input_pm).unwrap();
        let flat = input_pm.reshape([2, h * w * c]).unwrap();
        let weight_t = Tensor::from_fn(Shape::from(vec![h * w * c, linear_o]), |i| {
            (((i[0] * 3 + i[1] * 7 + seed as usize) % 17) as f32) * 0.09 - 0.7
        });
        let run = || {
            (
                conv_dense_walk(&input_pm, &filter_t, 3, spec),
                conv_event_scatter(&events, &filter_t, 3, spec),
                linear_dense(&flat, &weight_t),
                linear_events(&events, &weight_t),
            )
        };
        let scalar = with_simd(false, run);
        let vector = with_simd(true, run);
        prop_assert_eq!(&scalar.0.0, &vector.0.0, "conv dense walk");
        prop_assert_eq!(&scalar.1.0, &vector.1.0, "conv event scatter");
        prop_assert_eq!(&scalar.2.0, &vector.2.0, "linear dense");
        prop_assert_eq!(&scalar.3.0, &vector.3.0, "linear events");
        let input_cm = input_pm.to_channel_major().unwrap();
        let conv_cm = conv_oracle(&input_cm, &weight, spec);
        prop_assert_eq!(&scalar.0.0.to_channel_major().unwrap(), &conv_cm, "conv vs oracle");
        // Every kernel's per-image ledger is the oracle's count, SIMD on
        // or off.
        let conv_want = conv_synops_oracle(&input_cm, o, 3, spec);
        let linear_want = linear_synops_oracle(&flat, linear_o);
        for run in [&scalar, &vector] {
            prop_assert_eq!(&run.0.1, &conv_want, "conv dense walk ledger");
            prop_assert_eq!(&run.1.1, &conv_want, "conv event scatter ledger");
            prop_assert_eq!(&run.2.1, &linear_want, "linear dense ledger");
            prop_assert_eq!(&run.3.1, &linear_want, "linear events ledger");
        }
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
        let events = SpikeBatch::from_dense(&input_pm).unwrap();
        let oracle = conv_oracle(&input, &weight, spec);
        let run = || {
            (
                conv_dense_walk(&input_pm, &filter_t, k, spec),
                conv_event_scatter(&events, &filter_t, k, spec),
            )
        };
        let scalar = with_simd(false, run);
        let vector = with_simd(true, run);
        // Per image, the ledgers hold the oracle's count; the empty image
        // is charged nothing.
        let want = conv_synops_oracle(&input, o, k, spec);
        prop_assert_eq!(want[empty], 0);
        for ((dense, s_dense), (sparse, s_sparse)) in [&scalar, &vector] {
            prop_assert_eq!(&dense.to_channel_major().unwrap(), &oracle, "dense walk vs oracle");
            prop_assert_eq!(&sparse.to_channel_major().unwrap(), &oracle, "event scatter vs oracle");
            prop_assert_eq!(s_dense, &want, "dense walk ledger");
            prop_assert_eq!(s_sparse, &want, "event scatter ledger");
        }
        prop_assert_eq!(&scalar.0.0, &vector.0.0, "dense walk, SIMD off vs on");
        prop_assert_eq!(&scalar.1.0, &vector.1.0, "event scatter, SIMD off vs on");
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
