//! Full training run at reduced scale (the §4.2 recipe): three canonical
//! flow families, Adam at lr 1e-4, hybrid loss with lambda = 0.03, with
//! train/validation tracking per epoch.
//!
//! Run with: `cargo run --release --example train_small [epochs]`
//! (defaults to 10 epochs; the paper trains 350 at 1000x the data scale).

use adarnet_core::{AdarNet, AdarNetConfig, NormStats, Trainer, TrainerConfig};
use adarnet_dataset::{generate, train_val_split, DatasetConfig};

fn main() {
    let epochs: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);

    let ds_cfg = DatasetConfig {
        per_family: 12,
        h: 32,
        w: 128,
        seed: 3,
        val_fraction: 0.1,
    };
    let (train, val) = train_val_split(generate(&ds_cfg), &ds_cfg);
    println!(
        "dataset: {} train / {} val (paper: 27000 / 3000)",
        train.len(),
        val.len()
    );

    let norm = NormStats::from_samples(train.iter().map(|s| &s.field));
    let model = AdarNet::new(AdarNetConfig {
        ph: 8,
        pw: 8,
        bins: 4,
        seed: 1234,
        ..AdarNetConfig::default()
    });
    println!(
        "parameters: scorer {}, decoder {} (shared across all 4 resolutions)",
        model.scorer.num_params(),
        model.decoder.num_params()
    );
    let mut trainer = Trainer::new(model, norm, TrainerConfig::default());

    println!("\nepoch |   train total |    train data |     train pde |     val total");
    let mut best = f64::INFINITY;
    for epoch in 0..epochs {
        let tr = trainer.train_epoch(&train);
        let va = trainer.validate(&val);
        let marker = if va.total < best { " *" } else { "" };
        best = best.min(va.total);
        println!(
            "{epoch:>5} | {:>13.4e} | {:>13.4e} | {:>13.4e} | {:>13.4e}{marker}",
            tr.total, tr.data, tr.pde, va.total
        );
    }
    println!("\nbest validation loss: {best:.4e} (paper reaches 9e-6 at full scale)");

    // Show where the trained scorer refines each family.
    let frozen = trainer.model.freeze();
    for case in [
        adarnet_cfd::CaseConfig::channel(2.5e3),
        adarnet_cfd::CaseConfig::flat_plate(2.5e5),
        adarnet_cfd::CaseConfig::cylinder(1e5),
    ] {
        let lr = adarnet_dataset::synthesize(&case, 32, 128);
        let pred = frozen
            .try_predict(&trainer.norm.normalize(&lr))
            .expect("a trained scorer emits finite scores");
        println!("\n{}:", case.name);
        print!("{}", pred.refinement_map(3).ascii());
    }
}
