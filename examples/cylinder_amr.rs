//! Flow around a cylinder (the paper's hardest unseen-geometry test): run
//! the iterative AMR baseline and an ADARNet prediction, and print the two
//! refinement maps side by side — a terminal rendition of Figure 9's
//! cylinder row.
//!
//! Run with: `cargo run --release --example cylinder_amr`

use adarnet_amr::{AmrDriver, PatchLayout};
use adarnet_cfd::{CaseConfig, SolverConfig};
use adarnet_core::{run_amr_baseline, AdarNet, AdarNetConfig, NormStats, Trainer, TrainerConfig};
use adarnet_dataset::{Family, Sample, SampleMeta};

fn main() {
    let case = CaseConfig::cylinder(1e5);
    let layout = PatchLayout::new(4, 16, 8, 8); // 32 x 128 LR cells
    let solver_cfg = SolverConfig {
        max_iters: 1500,
        tol: 2e-3,
        ..SolverConfig::default()
    };

    // Train on the ellipse family only (the cylinder is unseen; §5).
    let mut train: Vec<Sample> = Vec::new();
    for (aspect, alpha, re) in adarnet_dataset::ellipse_training_configs(8) {
        let c = CaseConfig::ellipse(aspect, alpha, re);
        train.push(Sample {
            field: adarnet_dataset::synthesize(&c, 32, 128),
            meta: SampleMeta {
                family: Family::Ellipse,
                reynolds: re,
                name: c.name.clone(),
                lx: c.lx,
                ly: c.ly,
            },
        });
    }
    let norm = NormStats::from_samples(train.iter().map(|s| &s.field));
    let model = AdarNet::new(AdarNetConfig {
        ph: 8,
        pw: 8,
        seed: 11,
        ..AdarNetConfig::default()
    });
    let mut trainer = Trainer::new(model, norm, TrainerConfig::default());
    println!(
        "training on {} ellipse-family samples (cylinder unseen)...",
        train.len()
    );
    for epoch in 0..4 {
        let st = trainer.train_epoch(&train);
        println!("  epoch {epoch}: total {:.3e}", st.total);
    }

    // ADARNet one-shot mesh for the unseen cylinder.
    let lr = adarnet_dataset::synthesize(&case, 32, 128);
    let pred = trainer
        .model
        .freeze()
        .try_predict(&trainer.norm.normalize(&lr))
        .expect("a trained scorer emits finite scores");
    let adarnet_map = pred.refinement_map(3);

    // Iterative AMR baseline (feature-based on grad nu_tilde).
    println!("\nrunning the iterative AMR baseline (this is the slow path)...");
    let driver = AmrDriver {
        max_level: 3,
        theta: 0.5,
        max_rounds: 3,
        balance_jump: Some(1),
        ..AmrDriver::default()
    };
    let baseline = run_amr_baseline(&case, layout, solver_cfg, driver);

    println!(
        "\nADARNet (one-shot)          AMR solver ({} rounds)",
        baseline.outcome.rounds.len()
    );
    let a_lines: Vec<String> = adarnet_map.ascii().lines().map(String::from).collect();
    let b_lines: Vec<String> = baseline
        .outcome
        .final_map
        .ascii()
        .lines()
        .map(String::from)
        .collect();
    for (a, b) in a_lines.iter().zip(&b_lines) {
        println!("{a}    {b}");
    }
    println!(
        "\nmesh agreement {:.0}% | mean level distance {:.2}",
        100.0 * adarnet_map.agreement(&baseline.outcome.final_map),
        adarnet_map.mean_level_distance(&baseline.outcome.final_map)
    );
    println!(
        "active cells: ADARNet {} vs AMR {} vs uniform HR {}",
        adarnet_map.active_cells(),
        baseline.outcome.final_map.active_cells(),
        layout.num_patches() * layout.patch_cells(3)
    );
    println!(
        "AMR baseline ITC {} over {} rounds (the iterative cost ADARNet's one shot removes)",
        baseline.itc(),
        baseline.outcome.rounds.len()
    );
}
