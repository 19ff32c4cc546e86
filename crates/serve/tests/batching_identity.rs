//! The serving-correctness property: a random request stream produces
//! **byte-identical** per-request outputs no matter how the dynamic
//! micro-batcher slices it — batch sizes {1, k, max} and worker counts
//! {1, 2, 4}.
//!
//! This is what makes batching a pure throughput knob: the server can
//! re-batch arbitrarily under load without changing a single response.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use t2fsnn::scenario::{prepare, Scenario};
use t2fsnn::{ImageInference, InferOptions, T2fsnn, T2fsnnConfig};
use t2fsnn_tensor::{Tensor, ThreadPool};

/// Builds the tiny scenario model exactly as the serve registry does.
fn tiny_model() -> (T2fsnn, Tensor) {
    let scenario = Scenario::Tiny;
    let prepared = prepare(scenario);
    let model = T2fsnn::from_dnn(
        &prepared.dnn,
        T2fsnnConfig::new(scenario.time_window()),
        scenario.initial_kernel(),
    )
    .unwrap();
    (model, prepared.test.images.clone())
}

/// A random request stream: images sampled (with repeats) from the
/// held-out set.
fn random_stream(images: &Tensor, len: usize, seed: u64) -> Tensor {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = images.dims()[0];
    let picks: Vec<Tensor> = (0..len)
        .map(|_| images.index_axis0(rng.gen_range(0..n)).unwrap())
        .collect();
    Tensor::stack(&picks).unwrap()
}

/// Runs the stream through `infer` in consecutive batches of
/// `batch_size` on `workers` workers, concatenating per-request results.
fn run_stream(
    model: &T2fsnn,
    stream: &Tensor,
    batch_size: usize,
    workers: usize,
) -> Vec<ImageInference> {
    let pool = ThreadPool::new(workers);
    let n = stream.dims()[0];
    let feature: usize = stream.dims()[1..].iter().product();
    let mut out = Vec::with_capacity(n);
    let mut start = 0;
    while start < n {
        let end = (start + batch_size).min(n);
        let mut dims = stream.dims().to_vec();
        dims[0] = end - start;
        let batch =
            Tensor::from_vec(dims, stream.data()[start * feature..end * feature].to_vec()).unwrap();
        out.extend(model.infer_on(&batch, InferOptions, &pool).unwrap());
        start = end;
    }
    out
}

/// Byte-level equality: every counted field plus the winning potential's
/// exact bit pattern.
fn assert_identical(a: &[ImageInference], b: &[ImageInference], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x, y, "{what}: request {i} differs");
        assert_eq!(
            x.top_potential.to_bits(),
            y.top_potential.to_bits(),
            "{what}: request {i} potential bits differ"
        );
    }
}

#[test]
fn random_streams_are_invariant_to_batching_and_workers() {
    let (model, images) = tiny_model();
    const MAX_BATCH: usize = 8;
    for seed in [11u64, 12] {
        let stream = random_stream(&images, 17, seed);
        let reference = run_stream(&model, &stream, 1, 1);
        for batch_size in [3usize, MAX_BATCH] {
            for workers in [1usize, 2, 4] {
                let got = run_stream(&model, &stream, batch_size, workers);
                assert_identical(
                    &reference,
                    &got,
                    &format!("seed {seed} batch {batch_size} workers {workers}"),
                );
            }
        }
    }
}
