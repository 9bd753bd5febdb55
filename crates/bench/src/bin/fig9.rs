//! Figure 9: per-patch refinement maps — ADARNet's one-shot prediction vs
//! the iterative AMR solver's final mesh — for the five cases the paper
//! visualizes (channel Re 2.5e3, flat plate Re 1.35e6, cylinder, and both
//! airfoils).
//!
//! Prints the two level maps side by side plus the agreement metrics that
//! quantify the paper's "excellent agreement" claim.
//!
//! Run with: `cargo run --release -p adarnet-bench --bin fig9`
//! (`ADARNET_BENCH_SCALE=full` for the paper-shaped 64-patch layout.)

use adarnet_amr::AmrDriver;
use adarnet_bench::{bench_case, case_lr_sample, trained_model, Scale};
use adarnet_core::run_amr_baseline;
use adarnet_dataset::TestCase;

fn main() {
    let scale = Scale::from_env();
    let trainer = trained_model(scale);
    let driver = AmrDriver {
        max_level: 3,
        theta: 0.5,
        max_rounds: 4,
        balance_jump: Some(1),
        ..AmrDriver::default()
    };

    let cases = [
        TestCase::ChannelInt,
        TestCase::FlatPlateExt,
        TestCase::Cylinder,
        TestCase::Naca1412,
        TestCase::Naca0012,
    ];

    println!("Figure 9: refinement maps (digits are levels 0-3)\n");
    let frozen = trainer.model.freeze();
    for tc in cases {
        let case = bench_case(tc, scale);
        let sample = case_lr_sample(tc, scale);
        let pred = frozen
            .try_predict(&trainer.norm.normalize(&sample.field))
            .expect("a trained scorer emits finite scores");
        let adarnet_map = pred.refinement_map(3);

        let baseline = run_amr_baseline(&case, scale.layout(), scale.solver_cfg(), driver);
        let amr_map = &baseline.outcome.final_map;

        println!("=== {} ===", case.name);
        let right_header = format!("AMR solver ({} rounds)", baseline.outcome.rounds.len());
        println!(
            "{:<w$}  {}",
            "ADARNet (one-shot)",
            right_header,
            w = scale.layout().npx.max(18)
        );
        let left: Vec<String> = adarnet_map.ascii().lines().map(String::from).collect();
        let right: Vec<String> = amr_map.ascii().lines().map(String::from).collect();
        for (l, r) in left.iter().zip(&right) {
            println!("{:<w$}  {}", l, r, w = scale.layout().npx.max(18));
        }
        println!(
            "agreement {:.0}% | mean level distance {:.2} | active cells {} vs {}\n",
            100.0 * adarnet_map.agreement(amr_map),
            adarnet_map.mean_level_distance(amr_map),
            adarnet_map.active_cells(),
            amr_map.active_cells(),
        );
    }
}
