//! Figure 11: grid-convergence study — the quantity of interest (Cf for
//! wall-bounded cases, Cd for body cases) as the maximum refinement level
//! n grows 0..3, for ADARNet's predicted mesh vs the AMR solver's mesh.
//!
//! At n = 0 both start from the same coarse mesh (identical QoI); as n
//! grows, both QoI sequences should converge toward each other — plus the
//! Hoerner experimental Cd reference for the cylinder.
//!
//! Run with: `cargo run --release -p adarnet-bench --bin fig11`

use adarnet_amr::{AmrDriver, RefinementMap};
use adarnet_bench::{bench_case, case_lr_sample, trained_model, Scale};
use adarnet_cfd::{
    drag_coefficient, skin_friction_coefficient, CaseMesh, RansSolver, HOERNER_CYLINDER_CD,
};
use adarnet_core::run_amr_baseline;
use adarnet_dataset::TestCase;

fn main() {
    let scale = Scale::from_env();
    let trainer = trained_model(scale);
    let mut solver_cfg = scale.solver_cfg();
    // The convergence study runs 56 solves; cap each a bit tighter.
    solver_cfg.max_iters = solver_cfg.max_iters.min(800);

    println!("Figure 11: QoI vs refinement level n (Cf for cf/fp, Cd for bodies)\n");
    println!(
        "{:<16} {:>2} {:>14} {:>14}",
        "case", "n", "ADARNet", "AMR solver"
    );

    let frozen = trainer.model.freeze();
    for tc in TestCase::ALL {
        let case = bench_case(tc, scale);
        let sample = case_lr_sample(tc, scale);
        let pred = frozen
            .try_predict(&trainer.norm.normalize(&sample.field))
            .expect("a trained scorer emits finite scores");
        let full_map = pred.refinement_map(3);

        for n in 0u8..4 {
            // ADARNet's mesh, clamped to max level n (the gradual 4^n x
            // refinement of the study).
            let levels: Vec<u8> = full_map.levels().iter().map(|&l| l.min(n)).collect();
            let a_map = RefinementMap::from_levels(*full_map.layout(), levels, 3);
            let a_mesh = CaseMesh::new(case.clone(), a_map);
            let mut a_solver = RansSolver::new(a_mesh, solver_cfg);
            let _ = a_solver.solve_to_convergence();
            let a_qoi = qoi(tc, &a_solver);

            // AMR solver with max refinement level n.
            let driver = AmrDriver {
                max_level: n,
                theta: 0.5,
                max_rounds: n as usize + 2,
                balance_jump: Some(1),
                ..AmrDriver::default()
            };
            let baseline = run_amr_baseline(&case, scale.layout(), solver_cfg, driver);
            let b_mesh = CaseMesh::new(case.clone(), baseline.outcome.final_map.clone());
            let b_solver = RansSolver::with_state(b_mesh, baseline.final_state.clone(), solver_cfg);
            let b_qoi = qoi(tc, &b_solver);

            println!(
                "{:<16} {:>2} {:>14.6} {:>14.6}",
                tc.label(),
                n,
                a_qoi,
                b_qoi
            );
        }
        if tc == TestCase::Cylinder {
            println!(
                "{:<16}    experimental Cd (Hoerner): {:.3}",
                "", HOERNER_CYLINDER_CD
            );
        }
        println!();
    }
}

fn qoi(tc: TestCase, solver: &RansSolver) -> f64 {
    if tc.uses_drag() {
        drag_coefficient(&solver.state, &solver.mesh)
    } else {
        skin_friction_coefficient(&solver.state, &solver.mesh, 0.95)
    }
}
