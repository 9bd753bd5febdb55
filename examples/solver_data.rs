//! Full-fidelity data generation: collect LR training samples through the
//! RANS solver (the paper's actual §4.1 pipeline) instead of the synthetic
//! models, cache them to disk, and fine-tune a model on them.
//!
//! Run with: `cargo run --release --example solver_data`

use adarnet_amr::PatchLayout;
use adarnet_cfd::{CaseConfig, SolverConfig};
use adarnet_core::{AdarNet, AdarNetConfig, NormStats, Trainer, TrainerConfig};
use adarnet_dataset::{solve_lr_sample, Family, Sample, SampleMeta};

fn main() {
    let layout = PatchLayout::new(2, 8, 8, 8); // 16 x 64 LR cells
    let solver_cfg = SolverConfig {
        max_iters: 2500,
        tol: 2.5e-3,
        ..SolverConfig::default()
    };

    // Collect a handful of solver-generated channel samples (the paper
    // collects 10 000 per family; each of ours costs a real solve).
    let mut samples = Vec::new();
    for re in [2.0e3, 3.0e3, 5.0e3, 8.0e3] {
        let mut case = CaseConfig::channel(re);
        case.lx = 1.0; // short channel so each solve takes seconds
        print!("solving Re = {re:>8.0} ... ");
        let (field, iters) = solve_lr_sample(&case, layout, solver_cfg);
        println!("{iters} iterations");
        samples.push(Sample {
            field,
            meta: SampleMeta {
                family: Family::Channel,
                reynolds: re,
                name: case.name.clone(),
                lx: case.lx,
                ly: case.ly,
            },
        });
    }

    // Cache to disk (the expensive part is now reusable).
    let path = std::env::temp_dir().join("adarnet_solver_samples.json");
    adarnet_dataset::save_samples(&samples, &path).expect("cache write");
    println!(
        "cached {} solver samples to {}",
        samples.len(),
        path.display()
    );
    let reloaded = adarnet_dataset::load_samples(&path).expect("cache read");
    assert_eq!(reloaded.len(), samples.len());

    // Train on the solver data.
    let norm = NormStats::from_samples(reloaded.iter().map(|s| &s.field));
    let model = AdarNet::new(AdarNetConfig {
        ph: 8,
        pw: 8,
        seed: 99,
        ..AdarNetConfig::default()
    });
    let mut trainer = Trainer::new(model, norm, TrainerConfig::default());
    for epoch in 0..4 {
        let st = trainer.train_epoch(&reloaded);
        println!(
            "epoch {epoch}: total {:.3e} (data {:.3e}, pde {:.3e})",
            st.total, st.data, st.pde
        );
    }

    // Predict the unseen test Re.
    let mut test_case = CaseConfig::channel(2.5e3);
    test_case.lx = 1.0;
    let (lr, _) = solve_lr_sample(&test_case, layout, solver_cfg);
    let pred = trainer
        .model
        .freeze()
        .try_predict(&trainer.norm.normalize(&lr))
        .expect("a trained scorer emits finite scores");
    println!(
        "\n{} refinement map from solver-data-trained model:",
        test_case.name
    );
    print!("{}", pred.refinement_map(3).ascii());
}
