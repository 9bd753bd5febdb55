//! Ablations for the design choices the paper motivates in §3.1 and
//! §5.1 (indexed in DESIGN.md §7):
//!
//! * `ablation_decoder_sharing` — one decoder shared across all bins
//!   (the paper's choice) vs four separate decoders: 4x the parameters
//!   and a cold cache per bin.
//! * `ablation_scorer_pooling` — the paper argues max pooling is the
//!   conservative choice (a patch takes the resolution its *most*
//!   demanding cell needs); the ablation reports how many patches would
//!   drop a level under average pooling.
//! * `ablation_bin_count` — inference cost at b = 2, 3, 4 bins.
//! * `ablation_lambda` — the data/PDE loss split at lambda around the
//!   paper's 0.03.
//! * `ablation_convection_scheme` — pure upwind vs hybrid blend.
//!
//! Every timing row is the median of [`SAMPLES`] wall-clock samples of
//! one call each, after one untimed warm-up call; the whole run takes
//! about two seconds, so there is no smaller setting to select.
//!
//! Run with: `cargo run --release -p adarnet-bench --bin ablations`

use adarnet_core::{
    decoder, hybrid_loss_and_grad, AdarNet, AdarNetConfig, LossConfig, NormStats, Ranker,
};
use adarnet_nn::{FrozenSequential, Layer, MaxPool2d};
use adarnet_tensor::{Shape, Tensor};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timed calls per row.
const SAMPLES: usize = 21;

/// Print `row` (`group/name`) with the median of [`SAMPLES`] timed
/// calls of `f`.
fn report<R>(row: &str, mut f: impl FnMut() -> R) {
    black_box(f());
    let mut times: Vec<Duration> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed()
        })
        .collect();
    times.sort();
    println!(
        "{row:<58} median {:>12?}  ({SAMPLES} samples)",
        times[SAMPLES / 2]
    );
}

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
fn decoder_sharing() {
    let lr = lr_input();

    let model = AdarNet::new(AdarNetConfig {
        ph: 8,
        pw: 8,
        seed: 3,
        ..AdarNetConfig::default()
    });
    let shared = model.freeze();
    println!(
        "[ablation] shared decoder params: {} | 4 separate decoders would hold {}",
        model.decoder.num_params(),
        4 * model.decoder.num_params()
    );
    report("ablation_decoder_sharing/shared_decoder_predict", || {
        shared.try_predict(black_box(&lr)).unwrap()
    });

    // Per-resolution: one (frozen, like the shared one) decoder per bin.
    let per_bin: Vec<FrozenSequential> = (0..4).map(|k| decoder(7, 1000 + k).freeze()).collect();
    report(
        "ablation_decoder_sharing/per_resolution_decoders_predict",
        || {
            let plan = shared.try_plan(&lr).unwrap();
            let mut cells = 0usize;
            for (bin, group_idx) in plan.binning.groups.iter().enumerate() {
                if group_idx.is_empty() {
                    continue;
                }
                let inputs: Vec<Tensor<f32>> =
                    group_idx.iter().map(|&i| plan.decoder_input(i)).collect();
                let batch = Tensor::stack(&inputs);
                cells += per_bin[bin].infer(&batch).len();
            }
            cells
        },
    );
}

/// Max vs average pooling on the scorer's latent image.
fn scorer_pooling() {
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
    println!(
        "[ablation] avg pooling under-refines {dropped}/{} patches vs max pooling",
        max_bins.bin_of_patch.len()
    );

    report("ablation_scorer_pooling/max_pooling", || {
        maxpool.forward(black_box(&latent))
    });
    report("ablation_scorer_pooling/avg_pooling", || {
        avg_pool(black_box(&latent))
    });
}

/// Inference cost vs bin count.
fn bin_count() {
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
        println!(
            "[ablation] b={bins}: active cells {} (max level {})",
            pred.active_cells(),
            bins - 1
        );
        report(&format!("ablation_bin_count/bins/{bins}"), || {
            model.try_predict(black_box(&lr)).unwrap()
        });
    }
}

/// Loss-balance report and cost at lambda near the paper's 0.03.
fn lambda() {
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
        println!(
            "[ablation] lambda={lambda}: data {:.3e} vs lambda*pde {:.3e} (ratio {:.2})",
            pl.data,
            lambda * pl.pde,
            pl.data / (lambda * pl.pde).max(1e-300)
        );
        report(&format!("ablation_lambda/lambda/{lambda}"), || {
            hybrid_loss_and_grad(&pred, &label, 0, &norm, &cfg)
        });
    }
}

/// Convection-scheme ablation: pure upwind vs hybrid blend. The scheme
/// changes the discrete steady state (less numerical diffusion at higher
/// blend) at roughly equal per-iteration cost. Mesh and solver setup is
/// inside the timed call: 50 iterations dominate it.
fn convection_scheme() {
    use adarnet_amr::{PatchLayout, RefinementMap};
    use adarnet_cfd::{CaseConfig, CaseMesh, RansSolver, SolverConfig};
    for blend in [0.0f64, 0.5] {
        report(&format!("ablation_convection_scheme/blend/{blend}"), || {
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
            .solve_to_convergence()
        });
    }
}

fn main() {
    decoder_sharing();
    scorer_pooling();
    bin_count();
    lambda();
    convection_scheme();
}
