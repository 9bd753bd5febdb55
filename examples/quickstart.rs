//! Quickstart: train a small ADARNet on synthetic channel-flow data and
//! predict a non-uniform mesh for an unseen Reynolds number.
//!
//! Run with: `cargo run --release --example quickstart`

use adarnet_core::{AdarNet, AdarNetConfig, NormStats, Trainer, TrainerConfig};
use adarnet_dataset::{generate, DatasetConfig};
use adarnet_tensor::Tensor;

fn main() {
    // 1. A miniature dataset: the paper's three canonical flows at LR.
    //    (Paper scale: 30 000 samples at 64x256; here: 12 at 32x128 so the
    //    example runs in seconds. Scale up freely.)
    let ds_cfg = DatasetConfig {
        per_family: 4,
        h: 32,
        w: 128,
        seed: 0,
        val_fraction: 0.25,
    };
    let (train, val) = adarnet_dataset::train_val_split(generate(&ds_cfg), &ds_cfg);
    println!("dataset: {} train / {} val samples", train.len(), val.len());

    // 2. The DNN: scorer -> ranker (4 bins) -> shared decoder.
    let fields: Vec<&Tensor<f32>> = train.iter().map(|s| &s.field).collect();
    let norm = NormStats::from_samples(fields);
    let model = AdarNet::new(AdarNetConfig {
        ph: 16,
        pw: 16,
        bins: 4,
        seed: 42,
        ..AdarNetConfig::default()
    });
    println!(
        "model: {} scorer + {} decoder parameters",
        model.scorer.num_params(),
        model.decoder.num_params()
    );

    // 3. Semi-supervised training: LR data MSE + lambda * PDE residual.
    let mut trainer = Trainer::new(model, norm, TrainerConfig::default());
    for epoch in 0..3 {
        let tr = trainer.train_epoch(&train);
        let va = trainer.validate(&val);
        println!(
            "epoch {epoch}: train total {:.3e} (data {:.3e}, pde {:.3e}) | val total {:.3e}",
            tr.total, tr.data, tr.pde, va.total
        );
    }

    // 4. One-shot non-uniform SR on an unseen case.
    let unseen = adarnet_cfd::CaseConfig::channel(2.5e3); // test Re (§5)
    let lr = adarnet_dataset::synthesize(&unseen, 32, 128);
    let pred = trainer
        .model
        .freeze()
        .try_predict(&trainer.norm.normalize(&lr))
        .expect("a trained scorer emits finite scores");
    let map = pred.refinement_map(3);
    println!(
        "\npredicted refinement map for {} (levels 0-3):",
        unseen.name
    );
    print!("{}", map.ascii());
    println!(
        "active cells: {} of {} uniform-HR cells ({:.1}%)",
        pred.active_cells(),
        32 * 128 * 64,
        100.0 * pred.active_cells() as f64 / (32.0 * 128.0 * 64.0)
    );
}
