//! Table 2 bench: inference cost of ADARNet's non-uniform SR vs SURFNet's
//! uniform SR on the same LR input. The memory side and the full 7-case
//! table come from the `table2` harness binary; here criterion measures
//! the wall-clock gap that produces the paper's 7-28.5x end-to-end
//! speedups.

use adarnet_core::{AdarNet, AdarNetConfig, SurfNet};
use adarnet_tensor::{Shape, Tensor};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn lr_input() -> Tensor<f32> {
    Tensor::from_vec(
        Shape::d3(4, 16, 32),
        (0..4 * 16 * 32)
            .map(|i| ((i as f32) * 0.011).sin() * 0.4 + 0.5)
            .collect(),
    )
}

fn bench_adarnet_inference(c: &mut Criterion) {
    let model = AdarNet::new(AdarNetConfig {
        ph: 8,
        pw: 8,
        seed: 1,
        ..AdarNetConfig::default()
    })
    .freeze();
    let lr = lr_input();
    c.bench_function("table2_adarnet_nonuniform_sr", |b| {
        b.iter(|| black_box(model.try_predict(black_box(&lr)).unwrap()))
    });
}

fn bench_surfnet_inference(c: &mut Criterion) {
    let net = SurfNet::new(8, 2); // 64x uniform SR
    let lr = lr_input();
    c.bench_function("table2_surfnet_uniform_sr_64x", |b| {
        b.iter(|| black_box(net.predict(black_box(&lr))))
    });
}

criterion_group!(
    name = table2;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_secs(1));
    targets = bench_adarnet_inference, bench_surfnet_inference
);
criterion_main!(table2);
