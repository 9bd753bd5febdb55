//! Steady incompressible RANS + Spalart–Allmaras solver on composite patch
//! meshes, via artificial-compressibility pseudo-time marching.
//!
//! Role in the reproduction: this is the **physics solver** of the paper's
//! end-to-end framework (OpenFOAM `pimpleFoam` in §4.3). It (a) generates
//! LR training/input data, (b) drives ADARNet's DNN inference to
//! convergence on the DNN's non-uniform mesh, and (c) is the inner solver
//! of the iterative AMR baseline.
//!
//! Numerics (see DESIGN.md §4 for the OpenFOAM substitution argument):
//! * continuity is relaxed with an artificial compressibility term
//!   `dp/dtau + beta * div(u) = 0`, plus Jameson-style scalar pressure
//!   dissipation to suppress collocated-grid odd-even decoupling;
//! * convection first-order upwind, diffusion central with face-averaged
//!   effective viscosity `nu + nu_t`;
//! * SA transport with the standard production/destruction/diffusion
//!   split ([`crate::sa`]);
//! * explicit local pseudo-time stepping with a CFL bound combining
//!   convective, acoustic, and viscous limits;
//! * patch sweeps are Jacobi in space (every patch updates from the old
//!   state); ghost lines across refinement-level jumps come from
//!   [`adarnet_amr::CompositeField::ghost_line_into`].
//!
//! The cell kernel and the scratch it runs in live in `sweep.rs`;
//! this module drives it. Because a step reads only the old state,
//! [`RansSolver::solve_to_convergence`] sweeps contiguous patch ranges on
//! every core (one lane each, parked at two barriers per step) and the
//! calling thread copies them in and sums the residual in patch order:
//! the state and residual bits are the same at any lane count, and the
//! same as [`RansSolver::step`], which sweeps on the calling thread alone
//! (`tests/golden_solver.rs` pins them).

use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex, PoisonError, RwLock};
use std::thread;
use std::time::Instant;

use adarnet_amr::{gradient_indicator, AmrSim, RefinementMap, SolveStats};

use crate::mesh::CaseMesh;
use crate::sa::SaConstants;
use crate::state::FlowState;
use crate::sweep::{Kernel, Lane};

/// Solver tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct SolverConfig {
    /// CFL number for the explicit pseudo-time step.
    pub cfl: f64,
    /// Artificial compressibility `beta = beta_factor * u_in^2`.
    pub beta_factor: f64,
    /// Pressure dissipation coefficient (Jameson-style 2nd difference).
    pub kp: f64,
    /// Convection-scheme blend: `0.0` = pure first-order upwind (robust,
    /// diffusive), `1.0` = pure central (2nd-order, needs the pressure
    /// dissipation for stability). The classic hybrid scheme; values up to
    /// ~0.7 are stable on the bench cases and reduce numerical diffusion.
    pub conv_blend: f64,
    /// Convergence tolerance on the normalized momentum residual.
    pub tol: f64,
    /// Iteration cap.
    pub max_iters: u64,
    /// How often (iterations) a residual sample is recorded in
    /// `history`; the last step of a solve is always recorded.
    pub check_every: u64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            cfl: 0.6,
            beta_factor: 1.0,
            kp: 0.25,
            conv_blend: 0.0,
            tol: 2e-3,
            max_iters: 20_000,
            check_every: 10,
        }
    }
}

/// The RANS + SA solver bound to a mesh and state.
pub struct RansSolver {
    /// Discretized case (masks, wall distances).
    pub mesh: CaseMesh,
    /// Current flow state.
    pub state: FlowState,
    /// Tuning knobs.
    pub cfg: SolverConfig,
    /// SA closure constants.
    pub sa: SaConstants,
    /// `(iteration, normalized residual)` samples.
    pub history: Vec<(u64, f64)>,
    iters_done: u64,
    /// Sweep scratch, one per lane, kept across steps and solves.
    lanes: Vec<Mutex<Lane>>,
}

impl RansSolver {
    /// Create a solver from a mesh with a freestream initial state.
    pub fn new(mesh: CaseMesh, cfg: SolverConfig) -> RansSolver {
        let state = FlowState::freestream(&mesh);
        RansSolver {
            mesh,
            state,
            cfg,
            sa: SaConstants::standard(),
            history: Vec::new(),
            iters_done: 0,
            lanes: Vec::new(),
        }
    }

    /// Create a solver starting from an existing state (e.g. a DNN
    /// prediction to be driven to convergence).
    pub fn with_state(mesh: CaseMesh, state: FlowState, cfg: SolverConfig) -> RansSolver {
        assert_eq!(
            state.map(),
            &mesh.map,
            "state and mesh must share a refinement map"
        );
        RansSolver {
            mesh,
            state,
            cfg,
            sa: SaConstants::standard(),
            history: Vec::new(),
            iters_done: 0,
            lanes: Vec::new(),
        }
    }

    /// Total iterations performed so far by this solver instance.
    pub fn iterations(&self) -> u64 {
        self.iters_done
    }

    /// One explicit pseudo-time step across all patches, on one lane on
    /// the calling thread. Returns the normalized momentum residual (RMS
    /// of the momentum RHS scaled by `ly / u_in^2`).
    pub fn step(&mut self) -> f64 {
        let res = self.sweep_on(1, |step| step());
        self.iters_done += 1;
        res
    }

    /// March to convergence: iterate until the normalized residual drops
    /// below `cfg.tol`, turns non-finite, or `cfg.max_iters` is reached.
    /// The patches are swept on every core; the result does not depend
    /// on how many there are.
    pub fn solve_to_convergence(&mut self) -> SolveStats {
        self.solve_on(thread::available_parallelism().map_or(1, NonZeroUsize::get))
    }

    /// [`Self::solve_to_convergence`] on at most `lanes` lanes.
    fn solve_on(&mut self, lanes: usize) -> SolveStats {
        let _span = adarnet_obs::span!("stage_solver");
        let t0 = Instant::now();
        let cfg = self.cfg;
        let start = self.iters_done;
        let mut samples = Vec::new();
        let (iterations, res) = self.sweep_on(lanes, |step| {
            let (mut n, mut res) = (0, f64::INFINITY);
            while n < cfg.max_iters {
                res = step();
                n += 1;
                let last = !res.is_finite() || res < cfg.tol || n == cfg.max_iters;
                // Every `check_every` steps, and always the last.
                if last || n.is_multiple_of(cfg.check_every) {
                    samples.push((start + n, res));
                }
                if last {
                    break;
                }
            }
            (n, res)
        });
        self.iters_done += iterations;
        self.history.extend(samples);
        SolveStats {
            iterations,
            final_residual: res,
            seconds: t0.elapsed().as_secs_f64(),
            converged: res < cfg.tol,
        }
    }

    /// Hands `drive` a step function that sweeps every patch once from
    /// the old state (Jacobi in space) and returns the normalized
    /// residual.
    ///
    /// The patches are split into contiguous ranges of about equal cell
    /// count, one per lane. The calling thread sweeps the first range
    /// and a scoped thread each other one; a start and a finish barrier
    /// bracket every step. The calling thread then copies every range in
    /// and sums the residual in patch order, so the bits do not depend on
    /// the lane count.
    fn sweep_on<R>(&mut self, lanes: usize, drive: impl FnOnce(&mut dyn FnMut() -> f64) -> R) -> R {
        // Checked here, not in a lane: a lane that panicked would leave
        // the others parked at a barrier for good.
        assert_eq!(
            self.state.map(),
            &self.mesh.map,
            "state and mesh must share a refinement map"
        );
        let ranges = lane_ranges(&self.mesh.map, lanes);
        if self.lanes.len() < ranges.len() {
            self.lanes.resize_with(ranges.len(), Mutex::default);
        }
        let lanes = &self.lanes[..ranges.len()];
        let kernel = Kernel::new(&self.mesh, self.cfg, self.sa);
        let state = RwLock::new(&mut self.state);
        let start = Barrier::new(ranges.len());
        let finish = Barrier::new(ranges.len());
        let running = AtomicBool::new(true);
        // A poisoned lane is still valid: a sweep overwrites every
        // scratch value it uses.
        let sweep = |lane: usize| {
            let state = state.read().unwrap_or_else(PoisonError::into_inner);
            lanes[lane]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .sweep(&kernel, &state, ranges[lane].clone());
        };
        thread::scope(|s| {
            for lane in 1..ranges.len() {
                let (start, finish, running, sweep) = (&start, &finish, &running, &sweep);
                s.spawn(move || loop {
                    start.wait();
                    if !running.load(Ordering::SeqCst) {
                        break;
                    }
                    sweep(lane);
                    finish.wait();
                });
            }
            let out = drive(&mut || {
                start.wait();
                sweep(0);
                finish.wait();
                let mut state = state.write().unwrap_or_else(PoisonError::into_inner);
                let mut sums = (0.0, 0);
                for (lane, range) in lanes.iter().zip(&ranges) {
                    lane.lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .write_back(&mut state, range.clone(), &mut sums);
                }
                kernel.residual(sums.0, sums.1)
            });
            running.store(false, Ordering::SeqCst);
            start.wait();
            out
        })
    }

    /// Per-patch refinement indicator: max |grad nu_tilde| (the
    /// feature-based heuristic of the baseline AMR solver, §4.3).
    pub fn nt_gradient_indicator(&self) -> Vec<f64> {
        let (dy0, dx0) = self.mesh.cell_size0();
        gradient_indicator(&self.state.nt, dy0, dx0)
    }
}

/// Contiguous patch ranges of about equal cell count, one per lane:
/// `lanes` of them, capped at the patch count, none empty.
fn lane_ranges(map: &RefinementMap, lanes: usize) -> Vec<Range<usize>> {
    let layout = map.layout();
    let n = layout.num_patches();
    let lanes = lanes.clamp(1, n.max(1));
    let total = map.active_cells();
    let mut ranges = Vec::with_capacity(lanes);
    let (mut start, mut cells) = (0, 0);
    for idx in 0..n {
        cells += layout.patch_cells(map.level_at(idx));
        let closed = ranges.len() + 1;
        // Close a range once it holds its share, or when every lane left
        // needs one of the patches left.
        if closed < lanes && (cells * lanes >= total * closed || n - idx - 1 == lanes - closed) {
            ranges.push(start..idx + 1);
            start = idx + 1;
        }
    }
    ranges.push(start..n);
    ranges
}

impl AmrSim for RansSolver {
    fn solve(&mut self, map: &RefinementMap) -> SolveStats {
        if map != &self.mesh.map {
            self.project_to(map);
        }
        self.solve_to_convergence()
    }

    fn indicator(&self) -> Vec<f64> {
        self.nt_gradient_indicator()
    }

    fn project_to(&mut self, new_map: &RefinementMap) {
        self.mesh = self.mesh.with_map(new_map.clone());
        self.state = self.state.project_to(new_map);
        self.state.enforce_solid(&self.mesh);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::CaseConfig;
    use adarnet_amr::PatchLayout;

    fn tiny_channel(iters: u64) -> RansSolver {
        // Short channel so the flow develops quickly: 16 x 64 cells.
        let mut case = CaseConfig::channel(2.5e3);
        case.lx = 1.0;
        let layout = PatchLayout::new(2, 8, 8, 8);
        let mesh = CaseMesh::new(case, RefinementMap::uniform(layout, 0, 3));
        RansSolver::new(
            mesh,
            SolverConfig {
                max_iters: iters,
                ..SolverConfig::default()
            },
        )
    }

    #[test]
    fn residual_decreases_and_stays_finite() {
        let mut s = tiny_channel(400);
        let r0 = s.step();
        let mut r = r0;
        for _ in 0..399 {
            r = s.step();
        }
        assert!(s.state.all_finite(), "state went non-finite");
        assert!(r < r0, "residual did not decrease: {r0} -> {r}");
    }

    #[test]
    fn mass_conservation_trend() {
        // After settling, the outflow flux approaches the inflow flux.
        let mut s = tiny_channel(3000);
        let _ = s.solve_to_convergence();
        let u = &s.state.u;
        let layout = *s.mesh.layout();
        // Column-averaged u at inlet-most and outlet-most columns.
        let col_mean = |px: usize, col: usize| -> f64 {
            let mut acc = 0.0;
            let mut n = 0;
            for py in 0..layout.npy {
                let p = u.patch(py, px);
                for i in 0..p.ny() {
                    acc += p.get(i, col);
                    n += 1;
                }
            }
            acc / n as f64
        };
        let inflow = col_mean(0, 0);
        let outflow = col_mean(layout.npx - 1, s.state.u.patch(0, layout.npx - 1).nx() - 1);
        assert!(
            (inflow - outflow).abs() / inflow.abs() < 0.1,
            "inflow {inflow} vs outflow {outflow}"
        );
    }

    #[test]
    fn channel_develops_wall_shear() {
        let mut s = tiny_channel(3000);
        let _ = s.solve_to_convergence();
        // Near-wall u < centerline u (no-slip walls at top and bottom).
        let p_bottom = s.state.u.patch(0, 4);
        let p_top = s.state.u.patch(1, 4);
        let near_wall = p_bottom.get(0, 4);
        let center = p_bottom.get(p_bottom.ny() - 1, 4);
        assert!(
            near_wall < 0.8 * center,
            "no boundary layer: wall {near_wall} center {center}"
        );
        // Symmetry: top wall profile mirrors bottom.
        let near_top = p_top.get(p_top.ny() - 1, 4);
        assert!((near_wall - near_top).abs() < 0.3 * near_wall.abs().max(1e-12));
    }

    #[test]
    fn solver_runs_on_mixed_refinement_mesh() {
        let mut case = CaseConfig::channel(2.5e3);
        case.lx = 1.0;
        let layout = PatchLayout::new(2, 8, 8, 8);
        // Refine the bottom row of patches only.
        let mut levels = vec![0u8; 16];
        levels[..8].fill(1);
        let map = RefinementMap::from_levels(layout, levels, 3);
        let mesh = CaseMesh::new(case, map);
        let mut s = RansSolver::new(
            mesh,
            SolverConfig {
                max_iters: 300,
                ..SolverConfig::default()
            },
        );
        for _ in 0..300 {
            s.step();
        }
        assert!(s.state.all_finite());
    }

    #[test]
    fn cylinder_flow_stays_finite_and_decelerates_at_body() {
        let layout = PatchLayout::new(2, 8, 8, 8);
        let mesh = CaseMesh::new(
            CaseConfig::cylinder(1e5),
            RefinementMap::uniform(layout, 0, 3),
        );
        let mut s = RansSolver::new(
            mesh,
            SolverConfig {
                max_iters: 500,
                ..SolverConfig::default()
            },
        );
        for _ in 0..500 {
            s.step();
        }
        assert!(s.state.all_finite());
        // Wake cell just behind the body is slower than the freestream.
        let wake = s.state.u.to_uniform(0);
        let (ny, nx) = (wake.ny(), wake.nx());
        // Body center (2,1) in an 8x2 box: j ~ nx/4, i ~ ny/2.
        let behind = wake.get(ny / 2, nx / 4 + nx / 8);
        assert!(behind < s.mesh.case.u_in, "no wake deficit: {behind}");
    }

    #[test]
    fn blended_convection_converges_and_sharpens_profile() {
        let run = |blend: f64| -> (f64, RansSolver) {
            let mut case = CaseConfig::channel(2.5e3);
            case.lx = 1.0;
            let layout = PatchLayout::new(2, 8, 8, 8);
            let mesh = CaseMesh::new(case, RefinementMap::uniform(layout, 0, 3));
            let mut s = RansSolver::new(
                mesh,
                SolverConfig {
                    conv_blend: blend,
                    max_iters: 2000,
                    tol: 1e-9,
                    ..SolverConfig::default()
                },
            );
            let mut r = f64::INFINITY;
            for _ in 0..2000 {
                r = s.step();
            }
            (r, s)
        };
        let (r0, s0) = run(0.0);
        let (r5, s5) = run(0.5);
        assert!(s0.state.all_finite() && s5.state.all_finite());
        assert!(r0.is_finite() && r5.is_finite());
        // Scheme changes the discrete solution (the ablation's point).
        let d = s0.state.distance(&s5.state);
        assert!(d > 1e-9, "blend had no effect: {d}");
    }

    #[test]
    fn divergence_is_detected_not_hidden() {
        // Failure injection: an absurd CFL makes the explicit march blow
        // up; the solver must stop at the non-finite check and report
        // non-convergence rather than spinning to the iteration cap.
        let mut case = CaseConfig::channel(2.5e3);
        case.lx = 0.5;
        let mesh = CaseMesh::new(
            case,
            RefinementMap::uniform(PatchLayout::new(2, 4, 4, 4), 0, 3),
        );
        let mut s = RansSolver::new(
            mesh,
            SolverConfig {
                cfl: 50.0,
                max_iters: 5000,
                tol: 1e-9,
                check_every: 5,
                ..SolverConfig::default()
            },
        );
        let stats = s.solve_to_convergence();
        assert!(!stats.converged);
        assert!(
            stats.iterations < 5000,
            "diverging run was not cut short: {} iterations",
            stats.iterations
        );
        assert!(!stats.final_residual.is_finite() || stats.final_residual > 1.0);
    }

    #[test]
    fn laminar_channel_approaches_parabolic_profile() {
        // With turbulence effectively off (nu_tilde inflow ~ 0) and a low
        // Re, the steady profile tends toward the Poiseuille parabola —
        // fuller than the flat freestream start and symmetric.
        let mut case = CaseConfig::channel(100.0);
        case.lx = 0.4;
        let layout = PatchLayout::new(2, 8, 8, 8);
        let mesh = CaseMesh::new(case, RefinementMap::uniform(layout, 0, 3));
        let mut s = RansSolver::new(
            mesh,
            SolverConfig {
                max_iters: 6000,
                tol: 1e-6,
                ..SolverConfig::default()
            },
        );
        let _ = s.solve_to_convergence();
        let u = s.state.u.to_uniform(0);
        let nx = u.nx();
        // Near the outlet: centerline max, wall rows smallest, symmetric.
        let col = nx - 4;
        let wall_lo = u.get(0, col);
        let wall_hi = u.get(u.ny() - 1, col);
        let center = u.get(u.ny() / 2, col);
        assert!(
            center > 1.3 * wall_lo,
            "profile not developed: {wall_lo} vs {center}"
        );
        assert!(
            (wall_lo - wall_hi).abs() < 0.15 * center.abs().max(1e-12),
            "asymmetric profile: {wall_lo} vs {wall_hi}"
        );
    }

    #[test]
    fn amr_sim_projection_keeps_state_consistent() {
        let mut s = tiny_channel(100);
        for _ in 0..100 {
            s.step();
        }
        let layout = *s.mesh.layout();
        let fine = RefinementMap::uniform(layout, 1, 3);
        s.project_to(&fine);
        assert_eq!(s.state.map(), &fine);
        assert_eq!(s.mesh.map, fine);
        assert!(s.state.all_finite());
        // Can keep stepping after projection.
        let r = s.step();
        assert!(r.is_finite());
    }

    /// The cylinder at the ledger's LR extent on a map with level jumps
    /// up to three.
    fn mixed_cylinder(iters: u64) -> RansSolver {
        let layout = PatchLayout::for_field(24, 48, 8, 8);
        #[rustfmt::skip]
        let levels = vec![
            1, 2, 0, 0, 0, 0,
            0, 3, 1, 0, 0, 0,
            0, 0, 0, 0, 2, 1,
        ];
        let map = RefinementMap::from_levels(layout, levels, 3);
        RansSolver::new(
            CaseMesh::new(CaseConfig::cylinder(1e5), map),
            SolverConfig {
                max_iters: iters,
                tol: 0.0,
                ..SolverConfig::default()
            },
        )
    }

    fn bits(s: &RansSolver) -> Vec<u64> {
        let n = s.mesh.layout().num_patches();
        [&s.state.u, &s.state.v, &s.state.p, &s.state.nt]
            .into_iter()
            .flat_map(|f| (0..n).flat_map(move |idx| f.patch_at(idx).as_slice().iter()))
            .chain(s.history.iter().map(|(_, r)| r))
            .map(|x| x.to_bits())
            .collect()
    }

    #[test]
    fn lane_count_does_not_move_a_bit() {
        let solved = |lanes: usize| {
            let mut s = mixed_cylinder(20);
            let stats = s.solve_on(lanes);
            assert_eq!(stats.iterations, 20);
            assert!(s.state.all_finite());
            (bits(&s), s.history)
        };
        let one = solved(1);
        assert_eq!(solved(2), one);
        assert_eq!(solved(3), one);
    }

    #[test]
    fn lane_ranges_cover_every_patch_once() {
        let map = mixed_cylinder(0).mesh.map;
        let n = map.layout().num_patches();
        for lanes in 0..=n + 2 {
            let ranges = lane_ranges(&map, lanes);
            assert_eq!(ranges.len(), lanes.clamp(1, n), "{lanes} lanes");
            assert!(ranges.iter().all(|r| !r.is_empty()), "{ranges:?}");
            let ends: Vec<usize> = ranges.iter().map(|r| r.start).chain([n]).collect();
            assert!(ranges.iter().zip(&ends[1..]).all(|(r, &e)| r.end == e));
            assert_eq!(ranges[0].start, 0);
        }
        // Equal cells split evenly.
        let uniform = RefinementMap::uniform(*map.layout(), 0, 3);
        assert_eq!(lane_ranges(&uniform, 2), vec![0..9, 9..18]);
        assert_eq!(lane_ranges(&uniform, 3), vec![0..6, 6..12, 12..18]);
    }

    #[test]
    fn history_ends_on_the_last_step() {
        // Converging off a sample boundary: find the first step under a
        // tolerance (the residual peaks near step 45, then falls), then
        // sample every `k - 1` steps.
        let mut reference = tiny_channel(100);
        let res: Vec<f64> = (0..100).map(|_| reference.step()).collect();
        let tol = res[89];
        let k = 1 + res.iter().position(|&r| r < tol).expect("drops below r_90") as u64;
        assert!(k >= 3, "converged at step {k}");
        let mut s = tiny_channel(100);
        s.cfg.tol = tol;
        s.cfg.check_every = k - 1;
        let stats = s.solve_to_convergence();
        assert!(stats.converged);
        assert_eq!(stats.iterations, k);
        let last = res[k as usize - 1];
        assert_eq!(stats.final_residual.to_bits(), last.to_bits());
        let sampled: Vec<(u64, u64)> = s.history.iter().map(|&(i, r)| (i, r.to_bits())).collect();
        let expect = vec![(k - 1, res[k as usize - 2].to_bits()), (k, last.to_bits())];
        assert_eq!(sampled, expect);
        let (_, final_sample) = s.history.last().expect("sampled");
        assert_eq!(final_sample.to_bits(), stats.final_residual.to_bits());
        let first_under = s.history.iter().find(|&&(_, r)| r < tol).map(|&(i, _)| i);
        assert_eq!(first_under, Some(stats.iterations));

        // Diverging: the solve stops on the first non-finite residual,
        // however far off the next sample is.
        let diverging = || {
            let mut case = CaseConfig::channel(2.5e3);
            case.lx = 0.5;
            let layout = PatchLayout::new(2, 4, 4, 4);
            let mesh = CaseMesh::new(case, RefinementMap::uniform(layout, 0, 3));
            RansSolver::new(
                mesh,
                SolverConfig {
                    cfl: 50.0,
                    max_iters: 5000,
                    check_every: 5000,
                    ..SolverConfig::default()
                },
            )
        };
        let mut reference = diverging();
        let first_bad = (1..=5000u64)
            .find(|_| !reference.step().is_finite())
            .expect("cfl 50 diverges");
        let mut s = diverging();
        let stats = s.solve_to_convergence();
        assert_eq!(stats.iterations, first_bad);
        assert!(!stats.final_residual.is_finite());
        assert_eq!(s.history.len(), 1);
        assert_eq!(s.history[0].0, first_bad);
    }
}
