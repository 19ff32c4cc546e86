//! Micro-benchmarks of the position-major event hot path in isolation,
//! at spiking-realistic densities on a scaled-VGG-like layer shape
//! (32×32×16 → 16 channels, 3×3): the conv event scatter (axpy rows
//! straight into a membrane tensor), the event-form average and TTFS
//! max pooling, and the rate coding's subtract-reset fire phase (the
//! three kernels of the rate/phase/burst baselines' step loop). The
//! `conv_event_scatter_shapes` group adds the conv layer shapes the
//! fig6 traffic actually has, at per-layer densities measured on the
//! rate/phase/burst baselines (and the TTFS first conv); each prints its
//! synop count per call, so its cost per synop is the reported time
//! divided by that count.
//!
//! `just bench-smoke` prints their deltas against the committed
//! baseline. Per-kernel cost per event (pooling) or per neuron (fire)
//! is the reported time divided by the input's event or neuron count.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use t2fsnn_snn::coding::{Coding, RateCoding};
use t2fsnn_tensor::ops::sparse::{
    avg_pool2d_events, conv2d_scatter_events_pm_acc, conv2d_scatter_pm_acc, max_pool2d_events,
    transpose_filter, PoolScratch,
};
use t2fsnn_tensor::ops::Conv2dSpec;
use t2fsnn_tensor::{SpikeBatch, Tensor};

const N: usize = 4;
const C: usize = 16;
const O: usize = 16;
const HW: usize = 32;
/// Images per batch of the average-pooling and fire groups: one
/// simulator chunk of a 32-image fig6 evaluation on two workers.
const KERNEL_N: usize = 16;

/// A deterministic spike batch of `n` images at roughly the given
/// density (percent), on the default layer shape.
fn spikes_pm(n: usize, density_pct: usize) -> Tensor {
    spikes_pm_shape(n, HW, C, density_pct)
}

/// A deterministic `[n, hw, hw, c]` spike batch at roughly the given
/// density (percent).
fn spikes_pm_shape(n: usize, hw: usize, c: usize, density_pct: usize) -> Tensor {
    Tensor::from_fn([n, hw, hw, c], |i| {
        let key = i[0] * 104_729 + i[1] * 1_299_709 + i[2] * 15_485_863 + i[3] * 32_452_843;
        if key % 100 < density_pct {
            ((key % 5) as f32) * 0.25 + 0.25
        } else {
            0.0
        }
    })
}

fn bench_event_scatter(c: &mut Criterion) {
    let weight = Tensor::from_fn([O, C, 3, 3], |i| {
        ((i[0] * 31 + i[1] * 17 + i[2] * 5 + i[3]) % 13) as f32 * 0.07 - 0.4
    });
    let filter_t = transpose_filter(&weight).unwrap();
    let spec = Conv2dSpec::new(1, 1);
    let mut group = c.benchmark_group("conv_event_scatter");
    for density in [2usize, 10, 25] {
        let dense = spikes_pm(N, density);
        let events = SpikeBatch::from_dense(&dense).unwrap();
        let mut target = Tensor::zeros([N, HW, HW, O]);
        group.bench_function(format!("events_into_membrane/{density}pct"), |b| {
            b.iter(|| {
                conv2d_scatter_events_pm_acc(
                    black_box(&events),
                    &filter_t,
                    (3, 3),
                    spec,
                    &mut target,
                )
                .unwrap()
            })
        });
        group.bench_function(format!("dense_walk_into_membrane/{density}pct"), |b| {
            b.iter(|| {
                conv2d_scatter_pm_acc(black_box(&dense), &filter_t, (3, 3), spec, &mut target)
                    .unwrap()
            })
        });
    }
    group.finish();
}

/// `(H = W, C, O, densities in percent)` of the fig6 conv layers: a
/// cifar-like `8×8×32 → 32` and `16×16×8 → 16` block conv at the
/// densities the rate/phase/burst baselines put on them, and the TTFS
/// first conv `32×32×3 → 8` (3×3, padding 1, stride 1 throughout).
const TRAFFIC_SHAPES: [(usize, usize, usize, &[usize]); 3] = [
    (8, 32, 32, &[5, 10, 20]),
    (16, 8, 16, &[4, 14, 25]),
    (32, 3, 8, &[4]),
];

fn bench_event_scatter_shapes(c: &mut Criterion) {
    let spec = Conv2dSpec::new(1, 1);
    let mut group = c.benchmark_group("conv_event_scatter_shapes");
    for &(hw, ci, o, densities) in &TRAFFIC_SHAPES {
        let weight = Tensor::from_fn([o, ci, 3, 3], |i| {
            ((i[0] * 31 + i[1] * 17 + i[2] * 5 + i[3]) % 13) as f32 * 0.07 - 0.4
        });
        let filter_t = transpose_filter(&weight).unwrap();
        for &density in densities {
            let events =
                SpikeBatch::from_dense(&spikes_pm_shape(KERNEL_N, hw, ci, density)).unwrap();
            let mut target = Tensor::zeros([KERNEL_N, hw, hw, o]);
            let synops =
                conv2d_scatter_events_pm_acc(&events, &filter_t, (3, 3), spec, &mut target)
                    .unwrap();
            let id = format!("{hw}x{hw}x{ci}to{o}/{density}pct");
            println!("{id}: {synops} synops per call");
            group.bench_function(id, |b| {
                b.iter(|| {
                    conv2d_scatter_events_pm_acc(
                        black_box(&events),
                        &filter_t,
                        (3, 3),
                        spec,
                        &mut target,
                    )
                    .unwrap()
                })
            });
        }
    }
    group.finish();
}

fn bench_max_pool_events(c: &mut Criterion) {
    let mut group = c.benchmark_group("max_pool2d_events");
    for density in [2usize, 10, 25] {
        let dense = spikes_pm(N, density);
        let events = SpikeBatch::from_dense(&dense).unwrap();
        let mut gate = Tensor::zeros([N, HW / 2, HW / 2, C]);
        let mut out = SpikeBatch::empty();
        let mut scratch = PoolScratch::new();
        group.bench_function(format!("first_spike_wins/{density}pct"), |b| {
            b.iter(|| {
                // A fresh inference per iteration: clear the gate so the
                // pooling always does its full first-spike work.
                gate.map_inplace(|_| 0.0);
                max_pool2d_events(black_box(&events), 2, 2, &mut gate, &mut out, &mut scratch)
                    .unwrap();
                out.nnz()
            })
        });
    }
    group.finish();
}

fn bench_avg_pool_events(c: &mut Criterion) {
    let mut group = c.benchmark_group("avg_pool2d_events");
    for density in [2usize, 5, 20] {
        let events = SpikeBatch::from_dense(&spikes_pm(KERNEL_N, density)).unwrap();
        let mut out = SpikeBatch::empty();
        let mut scratch = PoolScratch::new();
        group.bench_function(format!("window2_stride2/{density}pct"), |b| {
            b.iter(|| {
                avg_pool2d_events(black_box(&events), 2, 2, &mut out, &mut scratch).unwrap();
                out.nnz()
            })
        });
    }
    group.finish();
}

fn bench_rate_fire_events(c: &mut Criterion) {
    let mut group = c.benchmark_group("fire_events");
    for density in [2usize, 5, 20] {
        // Hit neurons sit at 2^23, so each subtract-reset by θ = 1
        // leaves them (exactly) above threshold for millions of calls:
        // every iteration fires the same neurons without re-seeding the
        // membranes. The rest stay below θ untouched.
        let mut potential =
            spikes_pm(KERNEL_N, density).map(|v| if v > 0.0 { 8_388_608.0 } else { 0.5 });
        let mut coding = RateCoding::new();
        let mut events = SpikeBatch::empty();
        group.bench_function(format!("rate/{density}pct"), |b| {
            b.iter(|| coding.fire_events(black_box(&mut potential), 0, 0, &mut events))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_event_scatter,
    bench_event_scatter_shapes,
    bench_max_pool_events,
    bench_avg_pool_events,
    bench_rate_fire_events
);
criterion_main!(benches);
