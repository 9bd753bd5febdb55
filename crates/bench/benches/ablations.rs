//! Ablation benches for the design choices the paper motivates in §3.1
//! and §5.1 (indexed in DESIGN.md §7):
//!
//! * **Shared vs per-resolution decoder** — one decoder shared across all
//!   bins (the paper's choice) vs four separate decoders: 4x the
//!   parameters and a cold cache per bin.
//! * **Max vs average scorer pooling** — the paper argues max pooling is
//!   the conservative choice (a patch takes the resolution its *most*
//!   demanding cell needs); the ablation reports how many patches would
//!   drop a level under average pooling.
//! * **Bin count b** — inference cost at b = 2, 3, 4 bins.
//! * **Lambda balance** — the data/PDE loss split at lambda around the
//!   paper's 0.03.

use adarnet_core::{hybrid_loss_and_grad, AdarNet, AdarNetConfig, LossConfig, NormStats, Ranker};
use adarnet_nn::{Layer, MaxPool2d};
use adarnet_tensor::{Shape, Tensor};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn lr_input() -> Tensor<f32> {
    Tensor::from_vec(
        Shape::d3(4, 16, 32),
        (0..4 * 16 * 32)
            .map(|i| ((i as f32) * 0.013).sin() * 0.4 + 0.5)
            .collect(),
    )
}

/// Shared decoder (paper) vs simulated per-resolution decoders: the
/// per-resolution variant re-instantiates (cold) weights per bin, which is
/// what a 4-decoder design pays in parameters and cache traffic.
fn bench_decoder_sharing(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_decoder_sharing");
    group.sample_size(10);
    let lr = lr_input();

    let model = AdarNet::new(AdarNetConfig {
        ph: 8,
        pw: 8,
        seed: 3,
        ..AdarNetConfig::default()
    });
    let shared = model.freeze();
    eprintln!(
        "[ablation] shared decoder params: {} | 4 separate decoders would hold {}",
        model.decoder.num_params(),
        4 * model.decoder.num_params()
    );
    group.bench_function("shared_decoder_predict", |b| {
        b.iter(|| black_box(shared.try_predict(black_box(&lr)).unwrap()))
    });

    // Per-resolution: one (frozen, like the shared one) decoder per bin.
    let per_bin: Vec<adarnet_core::FrozenDecoder> = (0..4)
        .map(|k| adarnet_core::Decoder::new(7, 1000 + k).freeze())
        .collect();
    group.bench_function("per_resolution_decoders_predict", |b| {
        b.iter(|| {
            let plan = shared.try_plan(&lr).unwrap();
            let mut cells = 0usize;
            for bin in 0..4u8 {
                let group_idx = plan.binning.groups[bin as usize].clone();
                if group_idx.is_empty() {
                    continue;
                }
                let inputs: Vec<Tensor<f32>> =
                    group_idx.iter().map(|&i| plan.decoder_input(i)).collect();
                let batch = Tensor::stack(&inputs);
                let out = per_bin[bin as usize].forward(&batch);
                cells += out.len();
            }
            black_box(cells)
        })
    });
    group.finish();
}

/// Max vs average pooling on the scorer's latent image.
fn bench_pooling(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_scorer_pooling");
    group.sample_size(20);
    let latent = Tensor::from_vec(
        Shape::d4(1, 1, 64, 256),
        (0..64 * 256).map(|i| ((i as f32) * 0.37).sin()).collect(),
    );
    let mut maxpool = MaxPool2d::new(16, 16);

    let avg_pool = |x: &Tensor<f32>| -> Tensor<f32> {
        let (h, w) = (x.dim(2), x.dim(3));
        let (oh, ow) = (h / 16, w / 16);
        let mut out = Tensor::<f32>::zeros(Shape::d4(1, 1, oh, ow));
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0f32;
                for py in 0..16 {
                    for px in 0..16 {
                        acc += x.get4(0, 0, oy * 16 + py, ox * 16 + px);
                    }
                }
                out.set4(0, 0, oy, ox, acc / 256.0);
            }
        }
        out
    };

    // Report the conservativeness gap: how many patches bin lower under
    // average pooling (they would be under-refined).
    let ranker = Ranker::paper();
    let max_bins = ranker.bin_tensor(&maxpool.forward(&latent));
    let avg_bins = ranker.bin_tensor(&avg_pool(&latent));
    let dropped = max_bins
        .bin_of_patch
        .iter()
        .zip(&avg_bins.bin_of_patch)
        .filter(|(m, a)| a < m)
        .count();
    eprintln!(
        "[ablation] avg pooling under-refines {dropped}/{} patches vs max pooling",
        max_bins.bin_of_patch.len()
    );

    group.bench_function("max_pooling", |b| {
        b.iter(|| black_box(maxpool.forward(black_box(&latent))))
    });
    group.bench_function("avg_pooling", |b| {
        b.iter(|| black_box(avg_pool(black_box(&latent))))
    });
    group.finish();
}

/// Inference cost vs bin count.
fn bench_bin_count(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_bin_count");
    group.sample_size(10);
    let lr = lr_input();
    for bins in [2u8, 3, 4] {
        let model = AdarNet::new(AdarNetConfig {
            ph: 8,
            pw: 8,
            bins,
            seed: 9,
            ..AdarNetConfig::default()
        })
        .freeze();
        let pred = model.try_predict(&lr).unwrap();
        eprintln!(
            "[ablation] b={bins}: active cells {} (max level {})",
            pred.active_cells(),
            bins - 1
        );
        group.bench_with_input(BenchmarkId::new("bins", bins), &bins, |b, _| {
            b.iter(|| black_box(model.try_predict(black_box(&lr)).unwrap()))
        });
    }
    group.finish();
}

/// Loss-balance report and cost at lambda near the paper's 0.03.
fn bench_lambda(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_lambda");
    group.sample_size(20);
    let pred = Tensor::from_vec(
        Shape::d3(4, 8, 8),
        (0..256)
            .map(|i| ((i as f32) * 0.07).cos() * 0.3 + 0.4)
            .collect(),
    );
    let label = Tensor::from_vec(
        Shape::d3(4, 8, 8),
        (0..256)
            .map(|i| ((i as f32) * 0.07).cos() * 0.3 + 0.45)
            .collect(),
    );
    let norm = NormStats::identity();
    for lambda in [0.003f64, 0.03, 0.3] {
        let cfg = LossConfig {
            lambda,
            ..LossConfig::paper(0.05, 0.05)
        };
        let (pl, _) = hybrid_loss_and_grad(&pred, &label, 0, &norm, &cfg);
        eprintln!(
            "[ablation] lambda={lambda}: data {:.3e} vs lambda*pde {:.3e} (ratio {:.2})",
            pl.data,
            lambda * pl.pde,
            pl.data / (lambda * pl.pde).max(1e-300)
        );
        group.bench_with_input(
            BenchmarkId::new("lambda", format!("{lambda}")),
            &lambda,
            |b, _| b.iter(|| black_box(hybrid_loss_and_grad(&pred, &label, 0, &norm, &cfg))),
        );
    }
    group.finish();
}

/// Convection-scheme ablation: pure upwind vs hybrid blend. The scheme
/// changes the discrete steady state (less numerical diffusion at higher
/// blend) at roughly equal per-iteration cost.
fn bench_convection_scheme(c: &mut Criterion) {
    use adarnet_amr::{PatchLayout, RefinementMap};
    use adarnet_cfd::{CaseConfig, CaseMesh, RansSolver, SolverConfig};
    let mut group = c.benchmark_group("ablation_convection_scheme");
    group.sample_size(10);
    for blend in [0.0f64, 0.5] {
        group.bench_with_input(
            BenchmarkId::new("blend", format!("{blend}")),
            &blend,
            |b, &blend| {
                b.iter_with_setup(
                    || {
                        let mut case = CaseConfig::channel(2.5e3);
                        case.lx = 0.5;
                        let mesh = CaseMesh::new(
                            case,
                            RefinementMap::uniform(PatchLayout::new(2, 4, 4, 4), 0, 3),
                        );
                        RansSolver::new(
                            mesh,
                            SolverConfig {
                                conv_blend: blend,
                                max_iters: 50,
                                tol: 1e-12,
                                ..SolverConfig::default()
                            },
                        )
                    },
                    |mut solver| black_box(solver.solve_to_convergence()),
                )
            },
        );
    }
    group.finish();
}

criterion_group!(
    name = ablations;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_secs(1));
    targets = bench_decoder_sharing, bench_pooling, bench_bin_count, bench_lambda, bench_convection_scheme
);
criterion_main!(ablations);
