//! Figure 1 bench: uniform-SR inference cost growth with target
//! resolution. The harness binary `fig1` prints the table; this bench
//! measures the actual per-inference wall time of the uniform conv stack
//! as the target side doubles, demonstrating the same 4x-per-doubling
//! scaling that caps the batch size on fixed memory.

use adarnet_core::memory::{uniform_max_batch, V100_BYTES};
use adarnet_core::SurfNet;
use adarnet_tensor::{Shape, Tensor};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_uniform_sr_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig1_uniform_sr_inference");
    group.sample_size(10);
    // LR 8x8 upscaled by 2/4/8 per side: output 16^2 / 32^2 / 64^2.
    for scale in [2usize, 4, 8] {
        let net = SurfNet::new(scale, 0);
        let lr = Tensor::<f32>::full(Shape::d3(4, 8, 8), 0.4);
        group.bench_with_input(BenchmarkId::new("surfnet_scale", scale), &scale, |b, _| {
            b.iter(|| black_box(net.predict(black_box(&lr))))
        });
    }
    group.finish();

    // Print the Figure 1 capacity table alongside the timings.
    eprintln!("\nFigure 1 capacity model (16 GB budget):");
    for side in [128usize, 256, 512, 1024] {
        eprintln!(
            "  {side:>4}^2 -> max batch {}",
            uniform_max_batch(side * side, V100_BYTES)
        );
    }
}

criterion_group!(
    name = fig1;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_secs(1));
    targets = bench_uniform_sr_scaling
);
criterion_main!(fig1);
