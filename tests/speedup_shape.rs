//! Mechanism tests for the paper's headline claims, at miniature scale:
//! where the Table 1 / Table 2 advantages come from.

use adarnet_amr::{AmrDriver, PatchLayout, RefinementMap};
use adarnet_cfd::{CaseConfig, CaseMesh, RansSolver, SolverConfig};
use adarnet_core::{memory, run_amr_baseline, AdarNet, AdarNetConfig};
use adarnet_tensor::{Shape, Tensor};

fn tiny_case() -> (CaseConfig, PatchLayout, SolverConfig) {
    let mut case = CaseConfig::channel(2.5e3);
    case.lx = 0.5;
    (
        case,
        PatchLayout::new(2, 4, 4, 4),
        SolverConfig {
            max_iters: 250,
            tol: 1e-12, // force the cap so iteration counts are comparable
            ..SolverConfig::default()
        },
    )
}

/// Table 1's mechanism: the iterative AMR loop pays for multiple solve
/// rounds, so its total ITC exceeds a single solve on its own final mesh.
#[test]
fn amr_iterative_overhead_exists() {
    let (case, layout, cfg) = tiny_case();
    let driver = AmrDriver {
        max_level: 2,
        theta: 0.3,
        max_rounds: 3,
        balance_jump: None,
        ..AmrDriver::default()
    };
    let report = run_amr_baseline(&case, layout, cfg, driver);
    assert!(report.outcome.rounds.len() > 1, "driver never refined");

    // One-shot solve on the same final mesh, from freestream.
    let mesh = CaseMesh::new(case, report.outcome.final_map.clone());
    let mut one_shot = RansSolver::new(mesh, cfg);
    let single = one_shot.solve_to_convergence();

    assert!(
        report.itc() > single.iterations,
        "iterative ITC {} should exceed single-solve ITC {}",
        report.itc(),
        single.iterations
    );
}

/// Table 2's mechanism: the memory reduction factor equals the uniform/
/// active cell ratio (up to the channel-count constant), so any prediction
/// that leaves patches coarse wins memory.
#[test]
fn memory_reduction_tracks_active_cells() {
    let model = AdarNet::new(AdarNetConfig {
        ph: 8,
        pw: 8,
        seed: 21,
        ..AdarNetConfig::default()
    });
    let x = Tensor::from_vec(
        Shape::d3(4, 16, 32),
        (0..4 * 512).map(|i| ((i as f32) * 0.019).sin()).collect(),
    );
    let pred = model.freeze().try_predict(&x).unwrap();
    let map = pred.refinement_map(3);
    let rf = memory::reduction_factor(&map);
    let uniform_cells = map.layout().num_patches() * map.layout().patch_cells(3);
    let cell_ratio = uniform_cells as f64 / map.active_cells() as f64;
    // rf = cell_ratio * (uniform channels / adarnet channels).
    let channel_ratio =
        memory::UNIFORM_STACK_CHANNELS as f64 / memory::ADARNET_STACK_CHANNELS as f64;
    assert!(
        (rf - cell_ratio * channel_ratio).abs() < 1e-9,
        "rf {rf} vs cells {cell_ratio} * {channel_ratio}"
    );
}

/// The one-shot mesh requires no driver rounds: a prediction's refinement
/// map is final and the physics solver never re-marks it.
#[test]
fn adarnet_mesh_is_one_shot() {
    let (case, layout, cfg) = tiny_case();
    // Any non-uniform map stands in for a DNN prediction here.
    let mut levels = vec![0u8; layout.num_patches()];
    levels[0] = 2;
    levels[1] = 1;
    let map = RefinementMap::from_levels(layout, levels, 3);
    let mesh = CaseMesh::new(case, map.clone());
    let mut solver = RansSolver::new(mesh, cfg);
    let _ = solver.solve_to_convergence();
    // The solver converged the *solution*; the mesh is untouched.
    assert_eq!(solver.mesh.map, map);
    assert!(solver.state.all_finite());
}

/// Figure 1's mechanism end-to-end: uniform-SR memory per sample grows
/// 4x per resolution doubling, adaptive memory grows with active cells.
#[test]
fn uniform_memory_quadratic_growth() {
    let m128 = memory::uniform_bytes_per_sample(128 * 128);
    let m256 = memory::uniform_bytes_per_sample(256 * 256);
    assert!((m256 / m128 - 4.0).abs() < 1e-9);
    // Budget capacity at the paper's calibration point.
    assert!(memory::uniform_max_batch(1024 * 1024, memory::V100_BYTES) <= 3);
    assert!(memory::uniform_max_batch(128 * 128, memory::V100_BYTES) >= 100);
}
