//! Ablation bench (README, *Extension experiments*): direct `exp` kernel
//! evaluation versus
//! the lookup table the paper proposes in Sec. V. Validates that the LUT
//! is the right implementation choice for the inner simulation loop.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use t2fsnn::kernel::{ExpKernel, KernelParams};

fn bench_kernel(c: &mut Criterion) {
    let kernel = ExpKernel::new(KernelParams::new(8.0, 2.0), 128);
    let table = kernel.to_table();
    let mut group = c.benchmark_group("kernel_lut");
    group.bench_function("direct_exp_128", |b| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for t in 0..128usize {
                acc += kernel.eval(black_box(t as f32));
            }
            acc
        })
    });
    group.bench_function("lookup_table_128", |b| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for t in 0..128usize {
                acc += table.value(black_box(t));
            }
            acc
        })
    });
    group.bench_function("encode_1000_values", |b| {
        b.iter(|| {
            let mut spikes = 0usize;
            for i in 1..=1000 {
                if kernel.encode(black_box(i as f32 / 1000.0), 1.0).is_some() {
                    spikes += 1;
                }
            }
            spikes
        })
    });
    group.finish();
}

criterion_group!(benches, bench_kernel);
criterion_main!(benches);
