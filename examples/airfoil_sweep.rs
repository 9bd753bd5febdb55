//! Design-space sweep over the ellipse training family (Figure 7) plus the
//! unseen airfoil/cylinder test geometries (Figure 8): predict a
//! non-uniform mesh per configuration and report the active-cell savings —
//! the batch-capacity story behind Figure 1, from the adaptive side.
//!
//! Run with: `cargo run --release --example airfoil_sweep`

use adarnet_cfd::CaseConfig;
use adarnet_core::{memory, AdarNet, AdarNetConfig, NormStats, Trainer, TrainerConfig};
use adarnet_dataset::{Family, Sample, SampleMeta, ELLIPSE_ASPECTS};

fn main() {
    let (h, w) = (32, 128);

    // Train on a subsample of the ellipse family.
    let mut train: Vec<Sample> = Vec::new();
    for (aspect, alpha, re) in adarnet_dataset::ellipse_training_configs(10) {
        let c = CaseConfig::ellipse(aspect, alpha, re);
        train.push(Sample {
            field: adarnet_dataset::synthesize(&c, h, w),
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
        seed: 23,
        ..AdarNetConfig::default()
    });
    let mut trainer = Trainer::new(model, norm, TrainerConfig::default());
    println!("training on {} ellipse configurations...", train.len());
    for _ in 0..4 {
        trainer.train_epoch(&train);
    }

    let frozen = trainer.model.freeze();
    let predict = |lr: &adarnet_tensor::Tensor<f32>| {
        frozen
            .try_predict(&trainer.norm.normalize(lr))
            .expect("a trained scorer emits finite scores")
    };

    // Sweep the aspect-ratio family at a fixed flow condition.
    println!("\naspect  active-cells  fraction  mem-reduction");
    for &aspect in &ELLIPSE_ASPECTS {
        let case = CaseConfig::ellipse(aspect, 2.0, 7e4);
        let lr = adarnet_dataset::synthesize(&case, h, w);
        let pred = predict(&lr);
        let map = pred.refinement_map(3);
        let uniform = map.layout().num_patches() * map.layout().patch_cells(3);
        println!(
            "{aspect:>6}  {:>12}  {:>7.1}%  {:>12.2}x",
            map.active_cells(),
            100.0 * map.active_cells() as f64 / uniform as f64,
            memory::reduction_factor(&map)
        );
    }

    // The unseen test geometries (Figure 8).
    println!("\nunseen geometries:");
    for case in [
        CaseConfig::cylinder(1e5),
        CaseConfig::naca0012(2.5e4),
        CaseConfig::naca1412(2.5e4),
    ] {
        let lr = adarnet_dataset::synthesize(&case, h, w);
        let pred = predict(&lr);
        let map = pred.refinement_map(3);
        println!("\n{} (levels 0-3):", case.name);
        print!("{}", map.ascii());
        println!(
            "active {:.1}% | memory reduction {:.2}x",
            100.0 * map.active_fraction(),
            memory::reduction_factor(&map)
        );
    }
}
