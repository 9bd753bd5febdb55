//! `ttc_capped`: the paper's path, LR solve → inference → warm-started
//! solve on the predicted mesh, for the seven Table 1 cases.
//!
//! "Capped" because the warm solve on the predicted mesh does not reach
//! tolerance today at any cap (ROADMAP item 6), so it runs a fixed
//! number of iterations; the LR half runs to tolerance, so a gain in
//! convergence rate shows.

use std::time::Instant;

use adarnet_amr::{PatchLayout, RefinementMap};
use adarnet_cfd::{CaseConfig, CaseMesh, RansSolver, SolverConfig};
use adarnet_core::framework::{prediction_to_state, LrInput};
use adarnet_core::{
    try_run_adarnet_case, AdarNet, AdarNetConfig, NormStats, Trainer, TrainerConfig,
};
use adarnet_dataset::{DatasetConfig, Sample, TestCase};

use super::{Measured, MODEL_SEED};
use crate::gen::{seeded_cases, whole_passes};
use crate::spans::{Layer, Recorder};

/// LR extent. The repository's quick scale is 32x64; 24x48 keeps its
/// 8x8 patches and four bins and lets five whole passes over the seven
/// cases fit one driver run.
pub const LR_H: usize = 24;
/// See [`LR_H`].
pub const LR_W: usize = 48;
/// Patch extent.
pub const PATCH: usize = 8;
/// Refinement bins.
pub const BINS: u8 = 4;
/// Iteration cap of the LR solve (it stops at `TOL` before that on six
/// of the seven cases).
pub const LR_CAP: u64 = 3000;
/// Iteration cap of the warm-started solve.
pub const WARM_CAP: u64 = 100;
/// Residual tolerance of both solves (the repository's quick scale).
pub const TOL: f64 = 2.5e-3;
/// Synthetic training samples per flow family in the set-up recipe.
pub const TRAIN_PER_FAMILY: usize = 2;

/// Everything `ttc_capped` needs between set-up and measurement.
pub struct Ttc {
    model: AdarNet,
    norm: NormStats,
    cases: Vec<(TestCase, CaseConfig)>,
    layout: PatchLayout,
    /// Seconds the dataset generator took in set-up.
    pub synthesize_s: f64,
    /// Seconds per training step in set-up.
    pub train_step_s: f64,
}

/// What one operation did, for the repeat check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OpCounts {
    lr_iters: u64,
    warm_iters: u64,
    active_cells: usize,
}

/// Solver configuration of the LR solve.
pub fn lr_cfg() -> SolverConfig {
    SolverConfig {
        max_iters: LR_CAP,
        tol: TOL,
        ..SolverConfig::default()
    }
}

/// Solver configuration of the warm-started solve.
pub fn warm_cfg() -> SolverConfig {
    SolverConfig {
        max_iters: WARM_CAP,
        ..lr_cfg()
    }
}

/// The patch layout of the LR field.
pub fn layout() -> PatchLayout {
    PatchLayout::for_field(LR_H, LR_W, PATCH, PATCH)
}

/// The recipe's synthetic training set.
pub fn training_set() -> Vec<Sample> {
    adarnet_dataset::generate(&DatasetConfig {
        per_family: TRAIN_PER_FAMILY,
        h: LR_H,
        w: LR_W,
        seed: 0,
        val_fraction: 0.0,
    })
}

/// The recipe's trainer on the untrained seed-42 model: the bench
/// crate's quick-scale learning rate and score weight.
pub fn trainer(train: &[Sample]) -> Trainer {
    let model = AdarNet::new(AdarNetConfig {
        ph: PATCH,
        pw: PATCH,
        bins: BINS,
        seed: MODEL_SEED,
        ..AdarNetConfig::default()
    });
    Trainer::new(
        model,
        NormStats::from_samples(train.iter().map(|s| &s.field)),
        TrainerConfig {
            lr: 2e-3,
            mu: 25.0,
            ..TrainerConfig::default()
        },
    )
}

impl Ttc {
    /// Seeded training recipe (one epoch over the synthetic set), the
    /// seeded case list, and one warm-up operation.
    pub fn setup(seed: u64) -> Ttc {
        let t0 = Instant::now();
        let train = training_set();
        let synthesize_s = t0.elapsed().as_secs_f64();
        let mut trainer = trainer(&train);
        let t1 = Instant::now();
        trainer.train_epoch(&train);
        let train_step_s = t1.elapsed().as_secs_f64() / train.len() as f64;
        let ttc = Ttc {
            model: trainer.model,
            norm: trainer.norm,
            cases: seeded_cases(seed),
            layout: layout(),
            synthesize_s,
            train_step_s,
        };
        let mut warmup = Measured::default();
        ttc.run_op(0, 0.0, None, &mut warmup);
        ttc
    }

    /// Operations in one pass.
    pub fn ops_per_pass(&self) -> usize {
        self.cases.len()
    }

    /// One untraced operation; returns its counts, or `None` if it
    /// failed. Counts that differ from `expect` (the same case in the
    /// first pass) fail it too.
    fn run_op(
        &self,
        idx: usize,
        t0_s: f64,
        expect: Option<OpCounts>,
        out: &mut Measured,
    ) -> Option<OpCounts> {
        let (tc, case) = &self.cases[idx];
        let started = Instant::now();
        let lr_mesh = CaseMesh::new(
            case.clone(),
            RefinementMap::uniform(self.layout, 0, BINS - 1),
        );
        let mut lr_solver = RansSolver::new(lr_mesh, lr_cfg());
        let lr = lr_solver.solve_to_convergence();
        let lr_field = lr_solver.state.to_tensor(0);
        let report = try_run_adarnet_case(
            &self.model,
            &self.norm,
            case,
            &lr_field,
            LrInput {
                seconds: lr.seconds,
                iterations: lr.iterations,
            },
            warm_cfg(),
        );
        let latency_s = started.elapsed().as_secs_f64();
        let counts = match report {
            Ok(r) => {
                let finite = lr_solver.state.all_finite() && r.final_state.all_finite();
                let cells_agree = r.active_cells == r.prediction.active_cells();
                if !finite {
                    out.violation(format!("{}: non-finite state", tc.label()));
                }
                if !cells_agree {
                    out.violation(format!(
                        "{}: mesh has {} active cells, prediction {}",
                        tc.label(),
                        r.active_cells,
                        r.prediction.active_cells()
                    ));
                }
                let counts = OpCounts {
                    lr_iters: lr.iterations,
                    warm_iters: r.physics.iterations,
                    active_cells: r.active_cells,
                };
                let repeats = expect.is_none_or(|e| e == counts);
                if !repeats {
                    out.violation(format!(
                        "{}: did {counts:?}, the first pass did {expect:?}",
                        tc.label()
                    ));
                }
                (finite && cells_agree && repeats).then_some(counts)
            }
            Err(e) => {
                out.violation(format!("{}: {e}", tc.label()));
                None
            }
        };
        out.push(latency_s * 1e3, t0_s + latency_s, counts.is_some());
        counts
    }

    /// Closed loop, one caller: whole passes over the seven cases until
    /// `seconds` have gone. Iteration counts must repeat across passes.
    pub fn measure(&self, seconds: f64) -> Measured {
        let mut out = Measured::default();
        let mut first: Vec<Option<OpCounts>> = vec![None; self.cases.len()];
        let t0 = Instant::now();
        let passes = whole_passes(seconds, |pass| {
            let started = Instant::now();
            for (idx, first) in first.iter_mut().enumerate() {
                let at = t0.elapsed().as_secs_f64();
                let counts = self.run_op(idx, at, *first, &mut out);
                if pass == 0 {
                    *first = counts;
                }
            }
            started.elapsed().as_secs_f64()
        });
        out.notes.push(format!(
            "{passes} passes over {} cases at LR {LR_H}x{LR_W}, patches {PATCH}x{PATCH}, {BINS} bins; LR tol {TOL} cap {LR_CAP}, warm cap {WARM_CAP}",
            self.cases.len()
        ));
        out
    }

    /// One pass with every call into a layer inside a span: the same
    /// steps `try_run_adarnet_case` takes. Each case runs twice, first
    /// under a recorder that is off and then under `rec`, so that the
    /// host's drift over the pass cancels out of the difference.
    /// Returns the mean operation time traced and untraced, seconds.
    pub fn replay(&self, rec: &mut Recorder) -> (f64, f64) {
        let mut off = Recorder::off();
        let (mut on_s, mut off_s) = (0.0, 0.0);
        for (_, case) in &self.cases {
            let started = Instant::now();
            self.replay_op(&mut off, case);
            off_s += started.elapsed().as_secs_f64();
            let started = Instant::now();
            self.replay_op(rec, case);
            on_s += started.elapsed().as_secs_f64();
        }
        let n = self.cases.len() as f64;
        (on_s / n, off_s / n)
    }

    fn replay_op(&self, rec: &mut Recorder, case: &CaseConfig) {
        rec.op("ttc_op", |rec| {
            let map0 = rec.span("RefinementMap::uniform", Layer::Amr, || {
                RefinementMap::uniform(self.layout, 0, BINS - 1)
            });
            let lr_mesh = rec.span("CaseMesh::new", Layer::Cfd, || {
                CaseMesh::new(case.clone(), map0)
            });
            let mut lr_solver = rec.span("RansSolver::new", Layer::Cfd, || {
                RansSolver::new(lr_mesh, lr_cfg())
            });
            rec.scope("solve_to_convergence.lr", Layer::Cfd, |rec| {
                let lr = lr_solver.solve_to_convergence();
                rec.count("iterations", lr.iterations);
                rec.count("converged", u64::from(lr.converged));
                rec.count("cells", lr_solver.mesh.active_cells() as u64);
            });
            let lr_field = rec.span("FlowState::to_tensor", Layer::Cfd, || {
                lr_solver.state.to_tensor(0)
            });
            let frozen = rec.span("AdarNet::freeze", Layer::Core, || self.model.freeze());
            let normalized = rec.span("NormStats::normalize", Layer::Core, || {
                self.norm.normalize(&lr_field)
            });
            let prediction = rec
                .span("FrozenAdarNet::try_predict", Layer::Core, || {
                    frozen.try_predict(&normalized)
                })
                .expect("the untraced run predicted these fields");
            let map = rec.span("Prediction::refinement_map", Layer::Core, || {
                prediction.refinement_map(BINS - 1)
            });
            let mut state = rec.span("prediction_to_state", Layer::Core, || {
                prediction_to_state(&prediction, &self.norm, BINS - 1)
            });
            let mesh = rec.span("CaseMesh::new", Layer::Cfd, || {
                CaseMesh::new(case.clone(), map)
            });
            rec.span("FlowState::enforce_solid", Layer::Cfd, || {
                state.enforce_solid(&mesh)
            });
            let mut solver = rec.span("RansSolver::with_state", Layer::Cfd, || {
                RansSolver::with_state(mesh, state, warm_cfg())
            });
            rec.scope("solve_to_convergence.warm", Layer::Cfd, |rec| {
                let physics = solver.solve_to_convergence();
                rec.count("iterations", physics.iterations);
                rec.count("cells", solver.mesh.active_cells() as u64);
            });
        });
    }
}
