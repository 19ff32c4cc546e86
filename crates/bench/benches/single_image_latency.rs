//! End-to-end **single-image** inference latency — the number that
//! matters for online serving, where a request is one image and the
//! batch dimension amortizes nothing.
//!
//! Covers the three coding baselines (rate/phase/burst) through
//! the clock-driven simulator plus the TTFS pipeline, with and without
//! the serving path's early-exit fire phase.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use t2fsnn::{InferOptions, T2fsnn, T2fsnnConfig};
use t2fsnn_bench::{prepare, Scenario};
use t2fsnn_snn::coding::{BurstCoding, Coding, PhaseCoding, RateCoding};
use t2fsnn_snn::{simulate, SimConfig, SnnNetwork};
use t2fsnn_tensor::Tensor;

/// Steps for the coding baselines: enough for the fast codings to
/// converge; rate coding is charged the same so the comparison is
/// apples-to-apples per step count.
const SIM_STEPS: usize = 64;

fn single_image(prepared: &t2fsnn_bench::Prepared) -> (Tensor, Vec<usize>) {
    prepared.eval_subset(1)
}

fn bench_codings(c: &mut Criterion) {
    let prepared = prepare(Scenario::Tiny);
    let snn = SnnNetwork::from_dnn(&prepared.dnn).expect("convert");
    let (image, label) = single_image(&prepared);
    let mut group = c.benchmark_group("single_image_latency");
    let codings: Vec<(&str, Box<dyn Coding>)> = vec![
        ("rate", Box::new(RateCoding::new())),
        ("phase", Box::new(PhaseCoding::new(8))),
        ("burst", Box::new(BurstCoding::new(5))),
    ];
    for (name, coding) in codings {
        group.bench_function(format!("sim/{name}"), |b| {
            b.iter(|| {
                let mut coding = coding.boxed_clone();
                simulate(
                    &snn,
                    coding.as_mut(),
                    black_box(&image),
                    &label,
                    &SimConfig::new(SIM_STEPS, SIM_STEPS),
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_ttfs(c: &mut Criterion) {
    let scenario = Scenario::Tiny;
    let prepared = prepare(scenario);
    let model = T2fsnn::from_dnn(
        &prepared.dnn,
        T2fsnnConfig::new(scenario.time_window()),
        scenario.initial_kernel(),
    )
    .expect("convert");
    let (image, label) = single_image(&prepared);
    let mut group = c.benchmark_group("single_image_latency");
    group.bench_function("ttfs/run", |b| {
        b.iter(|| model.run(black_box(&image), &label).unwrap())
    });
    group.bench_function("ttfs/infer", |b| {
        b.iter(|| {
            model
                .infer(black_box(&image), InferOptions::default())
                .unwrap()
        })
    });
    group.bench_function("ttfs/infer_early_exit", |b| {
        b.iter(|| {
            model
                .infer(black_box(&image), InferOptions::early_exit())
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_codings, bench_ttfs);
criterion_main!(benches);
