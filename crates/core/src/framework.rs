//! The end-to-end framework (§3.3, Figure 6): LR field → DNN inference →
//! non-uniform prediction → physics solver drives it to convergence.
//!
//! Two entry points mirror the paper's two pipelines:
//! * [`run_adarnet_case`] — ADARNet's one-shot path: one inference, one
//!   solve on the DNN's mesh (no further refinement).
//! * [`run_amr_baseline`] — the iterative feature-based AMR loop
//!   (solve → assess → refine → re-solve).
//!
//! Both report the timings and iteration counts Table 1 compares.

use std::time::Instant;

use adarnet_amr::{AmrDriver, AmrOutcome, AmrSim, PatchLayout, RefinementMap, SolveStats};
use adarnet_cfd::{CaseConfig, CaseMesh, FlowState, RansSolver, SolverConfig};
use adarnet_tensor::Tensor;

use crate::engine::EngineError;
use crate::loss::NormStats;
use crate::network::{AdarNet, Prediction};

/// How the LR input field was obtained (cost accounting for Table 1's
/// "lr" column).
#[derive(Debug, Clone, Copy)]
pub struct LrInput {
    /// Wall-clock seconds spent producing the LR field.
    pub seconds: f64,
    /// Solver iterations spent (0 for synthetic fields).
    pub iterations: u64,
}

/// Report of one ADARNet end-to-end run.
pub struct AdarnetRunReport {
    /// Case name.
    pub case_name: String,
    /// Cost of obtaining the LR input.
    pub lr: LrInput,
    /// DNN inference wall-clock seconds.
    pub inference_seconds: f64,
    /// Physics-solver statistics driving inference to convergence.
    pub physics: SolveStats,
    /// The one-shot predicted mesh.
    pub map: RefinementMap,
    /// Converged flow state on that mesh.
    pub final_state: FlowState,
    /// Active cells of the non-uniform mesh.
    pub active_cells: usize,
    /// The raw prediction (diagnostics).
    pub prediction: Prediction,
}

impl AdarnetRunReport {
    /// Total time-to-convergence: lr + inference + physics solve (the
    /// paper's TTC definition for ADARNet).
    pub fn ttc_seconds(&self) -> f64 {
        self.lr.seconds + self.inference_seconds + self.physics.seconds
    }

    /// Iterations-to-convergence of the physics solve.
    pub fn itc(&self) -> u64 {
        self.physics.iterations
    }
}

/// Convert a (denormalized) prediction into a [`FlowState`] on its own
/// non-uniform mesh.
pub fn prediction_to_state(pred: &Prediction, norm: &NormStats, max_level: u8) -> FlowState {
    let map = pred.refinement_map(max_level);
    let mut state = FlowState::zeros(&map);
    for (idx, patch) in pred.patches.iter().enumerate() {
        let (h, w) = (patch.dim(1), patch.dim(2));
        let fields: [&mut adarnet_amr::CompositeField; 4] =
            [&mut state.u, &mut state.v, &mut state.p, &mut state.nt];
        for (c, f) in fields.into_iter().enumerate() {
            let g = f.patch_at_mut(idx);
            let (lo, span) = (norm.lo[c], norm.hi[c] - norm.lo[c]);
            for i in 0..h {
                for j in 0..w {
                    g.set(i, j, (patch.get3(c, i, j) * span + lo) as f64);
                }
            }
        }
    }
    state
}

/// Run the ADARNet end-to-end pipeline on one case.
///
/// * `model` — a trained [`AdarNet`].
/// * `norm` — the training normalization.
/// * `lr_field` — the LR input `(4, H, W)` in physical units, with its
///   production cost in `lr`.
/// * The DNN's mesh is final: the physics solver refines the *solution*,
///   never the mesh (§3.3).
pub fn run_adarnet_case(
    model: &AdarNet,
    norm: &NormStats,
    case: &CaseConfig,
    lr_field: &Tensor<f32>,
    lr: LrInput,
    solver_cfg: SolverConfig,
) -> AdarnetRunReport {
    match try_run_adarnet_case(model, norm, case, lr_field, lr, solver_cfg) {
        Ok(report) => report,
        #[expect(
            clippy::panic,
            reason = "the infallible adapter over a typed error: its callers feed fields they synthesized themselves, so an error here is a bug to stop on, not a condition to handle; serving goes through the try_ variant"
        )]
        Err(e) => panic!("{e}"),
    }
}

/// Fallible variant of [`run_adarnet_case`]: a scorer that produces
/// non-finite scores (or an empty patch grid) surfaces as a typed
/// [`EngineError`] before any physics solve starts, instead of a panic
/// mid-pipeline.
pub fn try_run_adarnet_case(
    model: &AdarNet,
    norm: &NormStats,
    case: &CaseConfig,
    lr_field: &Tensor<f32>,
    lr: LrInput,
    solver_cfg: SolverConfig,
) -> Result<AdarnetRunReport, EngineError> {
    // One-time weight preparation (GEMM panel packing, deconv
    // flip-transpose) happens outside the inference timer, matching the
    // serving engine, which packs at construction.
    let frozen = model.freeze();
    let t0 = Instant::now();
    let normalized = norm.normalize(lr_field);
    let prediction = frozen.try_predict(&normalized)?;
    let inference_seconds = t0.elapsed().as_secs_f64();

    let max_level = model.cfg.bins - 1;
    let map = prediction.refinement_map(max_level);
    let mut state = prediction_to_state(&prediction, norm, max_level);

    let mesh = CaseMesh::new(case.clone(), map.clone());
    state.enforce_solid(&mesh);
    let mut solver = RansSolver::with_state(mesh, state, solver_cfg);
    let physics = solver.solve_to_convergence();

    Ok(AdarnetRunReport {
        case_name: case.name.clone(),
        lr,
        inference_seconds,
        physics,
        map,
        active_cells: solver.mesh.active_cells(),
        final_state: solver.state.clone(),
        prediction,
    })
}

/// Report of the iterative AMR baseline run.
pub struct AmrBaselineReport {
    /// Case name.
    pub case_name: String,
    /// Per-round driver outcome (mesh evolution, per-round solves).
    pub outcome: AmrOutcome,
    /// Converged flow state on the final mesh.
    pub final_state: FlowState,
    /// Active cells of the final mesh.
    pub active_cells: usize,
}

impl AmrBaselineReport {
    /// Total time-to-convergence across all rounds.
    pub fn ttc_seconds(&self) -> f64 {
        self.outcome.total_seconds()
    }

    /// Total iterations-to-convergence across all rounds.
    pub fn itc(&self) -> u64 {
        self.outcome.total_iterations()
    }
}

/// Run the iterative feature-based AMR baseline on one case (the paper's
/// OpenFOAM `dynamicMeshRefine` stand-in, §4.3).
pub fn run_amr_baseline(
    case: &CaseConfig,
    layout: PatchLayout,
    solver_cfg: SolverConfig,
    driver: AmrDriver,
) -> AmrBaselineReport {
    let mesh = CaseMesh::new(
        case.clone(),
        RefinementMap::uniform(layout, 0, driver.max_level),
    );
    let mut solver = RansSolver::new(mesh, solver_cfg);
    let outcome = driver.run(&mut solver, layout);
    // Make sure the solver state matches the final mesh (the driver leaves
    // it on the last solved mesh).
    if solver.mesh.map != outcome.final_map {
        solver.project_to(&outcome.final_map.clone());
    }
    AmrBaselineReport {
        case_name: case.name.clone(),
        active_cells: solver.mesh.active_cells(),
        final_state: solver.state.clone(),
        outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::AdarNetConfig;
    use adarnet_dataset::synthesize;

    fn small_layout() -> PatchLayout {
        PatchLayout::new(2, 8, 8, 8)
    }

    fn quick_cfg() -> SolverConfig {
        SolverConfig {
            max_iters: 150,
            tol: 1e-9, // force the iteration cap in tests
            ..SolverConfig::default()
        }
    }

    fn short_channel() -> CaseConfig {
        let mut c = CaseConfig::channel(2.5e3);
        c.lx = 1.0;
        c
    }

    #[test]
    fn adarnet_pipeline_runs_end_to_end() {
        let case = short_channel();
        let lr_field = synthesize(&case, 16, 64);
        let norm = NormStats::from_samples([&lr_field]);
        let model = AdarNet::new(AdarNetConfig {
            ph: 8,
            pw: 8,
            seed: 3,
            ..AdarNetConfig::default()
        });
        let report = run_adarnet_case(
            &model,
            &norm,
            &case,
            &lr_field,
            LrInput {
                seconds: 0.5,
                iterations: 100,
            },
            quick_cfg(),
        );
        assert!(report.final_state.all_finite());
        assert_eq!(report.physics.iterations, 150);
        assert!(report.ttc_seconds() > 0.5);
        assert_eq!(report.active_cells, report.prediction.active_cells());
        assert_eq!(report.map.layout().num_patches(), 16);
    }

    #[test]
    fn prediction_to_state_denormalizes() {
        let case = short_channel();
        let lr_field = synthesize(&case, 16, 64);
        let norm = NormStats::from_samples([&lr_field]);
        let model = AdarNet::new(AdarNetConfig {
            ph: 8,
            pw: 8,
            seed: 4,
            ..AdarNetConfig::default()
        });
        let pred = model
            .freeze()
            .try_predict(&norm.normalize(&lr_field))
            .unwrap();
        let state = prediction_to_state(&pred, &norm, 3);
        assert!(state.all_finite());
        // Values must be in physical range, not [0, 1] (u_in = 0.25 scale).
        let umax = state
            .u
            .to_uniform(0)
            .as_slice()
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(umax > 0.0);
    }

    #[test]
    fn amr_baseline_accumulates_rounds() {
        let case = short_channel();
        let driver = AmrDriver {
            max_rounds: 3,
            theta: 0.3,
            max_level: 3,
            balance_jump: None,
            ..AmrDriver::default()
        };
        let report = run_amr_baseline(&case, small_layout(), quick_cfg(), driver);
        assert!(!report.outcome.rounds.is_empty());
        assert!(report.final_state.all_finite());
        // ITC across rounds is the sum of per-round solves.
        let per_round: u64 = report
            .outcome
            .rounds
            .iter()
            .map(|r| r.solve.iterations)
            .sum();
        assert_eq!(report.itc(), per_round);
    }
}
