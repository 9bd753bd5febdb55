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
//!   [`CompositeField::ghost_line`].

use adarnet_amr::{gradient_indicator, AmrSim, RefinementMap, Side, SolveStats};
use std::time::Instant;

use crate::geometry::SideBc;
use crate::mesh::CaseMesh;
use crate::sa::{self, SaConstants};
use crate::state::FlowState;

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
    /// How often (iterations) the residual is evaluated.
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

/// One patch's padded working arrays: `(ny + 2) x (nx + 2)` with ghost ring.
struct Padded {
    ny: usize,
    nx: usize,
    u: Vec<f64>,
    v: Vec<f64>,
    p: Vec<f64>,
    nt: Vec<f64>,
    solid: Vec<bool>,
}

impl Padded {
    #[inline(always)]
    fn at(&self, i: usize, j: usize) -> usize {
        i * (self.nx + 2) + j
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
        }
    }

    /// Total iterations performed so far by this solver instance.
    pub fn iterations(&self) -> u64 {
        self.iters_done
    }

    fn beta(&self) -> f64 {
        (self.cfg.beta_factor * self.mesh.case.u_in * self.mesh.case.u_in).max(1e-8)
    }

    /// Build the padded array for one patch from the current state.
    fn pad_patch(&self, py: usize, px: usize) -> Padded {
        let s = &self.state;
        let layout = self.mesh.layout();
        let idx = layout.idx(py, px);
        let gu = s.u.patch_at(idx);
        let gv = s.v.patch_at(idx);
        let gp = s.p.patch_at(idx);
        let gn = s.nt.patch_at(idx);
        let (ny, nx) = (gu.ny(), gu.nx());
        let (pnx, stride) = (nx + 2, nx + 2);
        let n = (ny + 2) * pnx;
        let mut pad = Padded {
            ny,
            nx,
            u: vec![0.0; n],
            v: vec![0.0; n],
            p: vec![0.0; n],
            nt: vec![0.0; n],
            solid: vec![false; n],
        };
        // Interior.
        for i in 0..ny {
            let base = (i + 1) * stride + 1;
            pad.u[base..base + nx].copy_from_slice(&gu.as_slice()[i * nx..(i + 1) * nx]);
            pad.v[base..base + nx].copy_from_slice(&gv.as_slice()[i * nx..(i + 1) * nx]);
            pad.p[base..base + nx].copy_from_slice(&gp.as_slice()[i * nx..(i + 1) * nx]);
            pad.nt[base..base + nx].copy_from_slice(&gn.as_slice()[i * nx..(i + 1) * nx]);
            for j in 0..nx {
                pad.solid[base + j] = self.mesh.solid[idx][i * nx + j];
            }
        }

        let u_in = self.mesh.case.u_in;
        let nt_in = self.mesh.case.nu_tilde_inflow();

        // Ghost values for one variable along one side, from the neighbor
        // patch or from the physical BC.
        // Interior line adjacent to each side, per variable.
        let fill_side = |pad_field: &mut [f64],
                         field: &adarnet_amr::CompositeField,
                         side: Side,
                         // (interior_value) -> ghost_value at a physical BC
                         bc: &dyn Fn(f64) -> f64| {
            match field.ghost_line(py, px, side) {
                Some(g) => match side {
                    Side::ILo => {
                        for (j, &val) in g.iter().enumerate() {
                            pad_field[j + 1] = val;
                        }
                    }
                    Side::IHi => {
                        for (j, &val) in g.iter().enumerate() {
                            pad_field[(ny + 1) * stride + j + 1] = val;
                        }
                    }
                    Side::JLo => {
                        for (i, &val) in g.iter().enumerate() {
                            pad_field[(i + 1) * stride] = val;
                        }
                    }
                    Side::JHi => {
                        for (i, &val) in g.iter().enumerate() {
                            pad_field[(i + 1) * stride + nx + 1] = val;
                        }
                    }
                },
                None => match side {
                    Side::ILo => {
                        for j in 0..nx {
                            pad_field[j + 1] = bc(pad_field[stride + j + 1]);
                        }
                    }
                    Side::IHi => {
                        for j in 0..nx {
                            pad_field[(ny + 1) * stride + j + 1] =
                                bc(pad_field[ny * stride + j + 1]);
                        }
                    }
                    Side::JLo => {
                        for i in 0..ny {
                            pad_field[(i + 1) * stride] = bc(pad_field[(i + 1) * stride + 1]);
                        }
                    }
                    Side::JHi => {
                        for i in 0..ny {
                            pad_field[(i + 1) * stride + nx + 1] =
                                bc(pad_field[(i + 1) * stride + nx]);
                        }
                    }
                },
            }
        };

        // Physical BC ghost formulas per variable. `i = 0` is the domain
        // bottom, so Side::ILo at py = 0 is the bottom boundary.
        let case = &self.mesh.case;
        for side in Side::ALL {
            let bc_kind = match side {
                Side::ILo => case.bottom,
                Side::IHi => case.top,
                Side::JLo => case.left,
                Side::JHi => case.right,
            };
            let tangential_x = matches!(side, Side::ILo | Side::IHi);
            type BcFn = Box<dyn Fn(f64) -> f64>;
            let (bc_u, bc_v): (BcFn, BcFn) = match bc_kind {
                SideBc::Inlet => (Box::new(move |c| 2.0 * u_in - c), Box::new(|c| -c)),
                SideBc::Outlet => (Box::new(|c| c), Box::new(|c| c)),
                SideBc::Wall => (Box::new(|c| -c), Box::new(|c| -c)),
                SideBc::Symmetry => {
                    if tangential_x {
                        // Horizontal boundary: u tangential, v normal.
                        (Box::new(|c| c), Box::new(|c| -c))
                    } else {
                        (Box::new(|c| -c), Box::new(|c| c))
                    }
                }
            };
            let bc_p: Box<dyn Fn(f64) -> f64> = match bc_kind {
                SideBc::Outlet => Box::new(|c| -c), // p = 0 at the face
                _ => Box::new(|c| c),               // zero gradient
            };
            let bc_nt: Box<dyn Fn(f64) -> f64> = match bc_kind {
                SideBc::Inlet => Box::new(move |c| 2.0 * nt_in - c),
                SideBc::Wall => Box::new(|c| -c),
                _ => Box::new(|c| c),
            };
            fill_side(&mut pad.u, &s.u, side, bc_u.as_ref());
            fill_side(&mut pad.v, &s.v, side, bc_v.as_ref());
            fill_side(&mut pad.p, &s.p, side, bc_p.as_ref());
            fill_side(&mut pad.nt, &s.nt, side, bc_nt.as_ref());
        }

        // Corners: copy the diagonal interior value (not used by the
        // 5-point stencils, but keeps the arrays finite).
        for field in [&mut pad.u, &mut pad.v, &mut pad.p, &mut pad.nt] {
            field[0] = field[stride + 1];
            field[nx + 1] = field[stride + nx];
            field[(ny + 1) * stride] = field[ny * stride + 1];
            field[(ny + 1) * stride + nx + 1] = field[ny * stride + nx];
        }
        pad
    }

    /// One explicit pseudo-time step across all patches. Returns the
    /// normalized momentum residual (RMS of the momentum RHS scaled by
    /// `ly / u_in^2`).
    pub fn step(&mut self) -> f64 {
        let layout = *self.mesh.layout();
        let beta = self.beta();
        let cfg = self.cfg;
        let sa_c = self.sa;
        let nu = self.mesh.case.nu;
        let u_ref = self.mesh.case.u_in.max(1e-12);
        let l_ref = self.mesh.case.ly;

        // Compute every patch's update from the *old* state (Jacobi in
        // space, so the step does not depend on patch visit order).
        struct PatchOut {
            u: Vec<f64>,
            v: Vec<f64>,
            p: Vec<f64>,
            nt: Vec<f64>,
            res_sq: f64,
            cells: usize,
        }

        let outs: Vec<PatchOut> = (0..layout.num_patches())
            .map(|idx| {
                let (py, px) = layout.coords(idx);
                let level = self.mesh.map.level_at(idx);
                let (dy, dx) = self.mesh.cell_size(level);
                let pad = self.pad_patch(py, px);
                let (ny, nx) = (pad.ny, pad.nx);
                let dist = &self.mesh.dist[idx];

                let mut out = PatchOut {
                    u: vec![0.0; ny * nx],
                    v: vec![0.0; ny * nx],
                    p: vec![0.0; ny * nx],
                    nt: vec![0.0; ny * nx],
                    res_sq: 0.0,
                    cells: 0,
                };

                for i in 0..ny {
                    for j in 0..nx {
                        let c = pad.at(i + 1, j + 1);
                        let k = i * nx + j;
                        if pad.solid[c] {
                            // Solid cells: zero velocity and nu_tilde,
                            // pressure relaxed toward fluid neighbors for a
                            // smooth gradient at the surface.
                            let mut psum = 0.0;
                            let mut cnt = 0.0;
                            for nb in [
                                pad.at(i + 1, j),
                                pad.at(i + 1, j + 2),
                                pad.at(i, j + 1),
                                pad.at(i + 2, j + 1),
                            ] {
                                if !pad.solid[nb] {
                                    psum += pad.p[nb];
                                    cnt += 1.0;
                                }
                            }
                            out.p[k] = if cnt > 0.0 { psum / cnt } else { pad.p[c] };
                            continue;
                        }

                        let (uc, vc, pc, ntc) = (pad.u[c], pad.v[c], pad.p[c], pad.nt[c]);
                        let w = pad.at(i + 1, j);
                        let e = pad.at(i + 1, j + 2);
                        let s_ = pad.at(i, j + 1);
                        let n_ = pad.at(i + 2, j + 1);

                        // Neighbor values with no-slip reflection across
                        // solid faces (stair-step immersed boundary).
                        let gv = |arr: &[f64], nb: usize, center: f64, refl: f64| -> f64 {
                            if pad.solid[nb] {
                                refl * center
                            } else {
                                arr[nb]
                            }
                        };
                        let u_w = gv(&pad.u, w, uc, -1.0);
                        let u_e = gv(&pad.u, e, uc, -1.0);
                        let u_s = gv(&pad.u, s_, uc, -1.0);
                        let u_n = gv(&pad.u, n_, uc, -1.0);
                        let v_w = gv(&pad.v, w, vc, -1.0);
                        let v_e = gv(&pad.v, e, vc, -1.0);
                        let v_s = gv(&pad.v, s_, vc, -1.0);
                        let v_n = gv(&pad.v, n_, vc, -1.0);
                        let p_w = gv(&pad.p, w, pc, 1.0);
                        let p_e = gv(&pad.p, e, pc, 1.0);
                        let p_s = gv(&pad.p, s_, pc, 1.0);
                        let p_n = gv(&pad.p, n_, pc, 1.0);
                        let nt_w = gv(&pad.nt, w, ntc, -1.0);
                        let nt_e = gv(&pad.nt, e, ntc, -1.0);
                        let nt_s = gv(&pad.nt, s_, ntc, -1.0);
                        let nt_n = gv(&pad.nt, n_, ntc, -1.0);

                        // Effective viscosity at the cell and faces.
                        let nut_c = sa::eddy_viscosity(ntc, nu, &sa_c);
                        let nue_c = nu + nut_c;
                        let face_nue = |nt_nb: f64| -> f64 {
                            nu + 0.5 * (nut_c + sa::eddy_viscosity(nt_nb.max(0.0), nu, &sa_c))
                        };
                        let nue_e = face_nue(nt_e);
                        let nue_w = face_nue(nt_w);
                        let nue_n = face_nue(nt_n);
                        let nue_s = face_nue(nt_s);

                        // Convection: first-order upwind blended with a
                        // central contribution per cfg.conv_blend (hybrid
                        // scheme; non-conservative form).
                        let blend = cfg.conv_blend;
                        let upwind = |q_c: f64, q_w: f64, q_e: f64, q_s: f64, q_n: f64| -> f64 {
                            let fx_up = if uc >= 0.0 {
                                uc * (q_c - q_w) / dx
                            } else {
                                uc * (q_e - q_c) / dx
                            };
                            let fy_up = if vc >= 0.0 {
                                vc * (q_c - q_s) / dy
                            } else {
                                vc * (q_n - q_c) / dy
                            };
                            if blend <= 0.0 {
                                return fx_up + fy_up;
                            }
                            let fx_ct = uc * (q_e - q_w) / (2.0 * dx);
                            let fy_ct = vc * (q_n - q_s) / (2.0 * dy);
                            (1.0 - blend) * (fx_up + fy_up) + blend * (fx_ct + fy_ct)
                        };

                        let conv_u = upwind(uc, u_w, u_e, u_s, u_n);
                        let conv_v = upwind(vc, v_w, v_e, v_s, v_n);
                        let conv_nt = upwind(ntc, nt_w, nt_e, nt_s, nt_n);

                        let diff_u = (nue_e * (u_e - uc) - nue_w * (uc - u_w)) / (dx * dx)
                            + (nue_n * (u_n - uc) - nue_s * (uc - u_s)) / (dy * dy);
                        let diff_v = (nue_e * (v_e - vc) - nue_w * (vc - v_w)) / (dx * dx)
                            + (nue_n * (v_n - vc) - nue_s * (vc - v_s)) / (dy * dy);

                        let dpdx = (p_e - p_w) / (2.0 * dx);
                        let dpdy = (p_n - p_s) / (2.0 * dy);

                        let rhs_u = -conv_u - dpdx + diff_u;
                        let rhs_v = -conv_v - dpdy + diff_v;

                        // Continuity with artificial compressibility plus
                        // scalar pressure dissipation.
                        let div = (u_e - u_w) / (2.0 * dx) + (v_n - v_s) / (2.0 * dy);
                        let c_ac = (uc * uc + vc * vc + beta).sqrt();
                        let diss_p = cfg.kp
                            * c_ac
                            * ((p_e - 2.0 * pc + p_w) / dx + (p_n - 2.0 * pc + p_s) / dy);
                        let rhs_p = -beta * div + diss_p;

                        // SA transport.
                        let omega = ((v_e - v_w) / (2.0 * dx) - (u_n - u_s) / (2.0 * dy)).abs();
                        let d_wall = dist[k];
                        let src = sa::source(ntc, nu, omega, d_wall, &sa_c);
                        let face_dnt = |nt_nb: f64| -> f64 { nu + 0.5 * (ntc + nt_nb.max(0.0)) };
                        let diff_nt = ((face_dnt(nt_e) * (nt_e - ntc)
                            - face_dnt(nt_w) * (ntc - nt_w))
                            / (dx * dx)
                            + (face_dnt(nt_n) * (nt_n - ntc) - face_dnt(nt_s) * (ntc - nt_s))
                                / (dy * dy))
                            / sa_c.sigma;
                        let grad_nt_sq = {
                            let gx = (nt_e - nt_w) / (2.0 * dx);
                            let gy = (nt_n - nt_s) / (2.0 * dy);
                            gx * gx + gy * gy
                        };
                        let rhs_nt = -conv_nt + src + diff_nt + sa_c.cb2 / sa_c.sigma * grad_nt_sq;

                        // Local pseudo-time step.
                        let lam_x = uc.abs() + c_ac;
                        let lam_y = vc.abs() + c_ac;
                        let dt = cfg.cfl
                            / (lam_x / dx
                                + lam_y / dy
                                + 2.0 * nue_c * (1.0 / (dx * dx) + 1.0 / (dy * dy))
                                + 1e-30);

                        out.u[k] = uc + dt * rhs_u;
                        out.v[k] = vc + dt * rhs_v;
                        out.p[k] = pc + dt * rhs_p;
                        out.nt[k] = (ntc + dt * rhs_nt).max(0.0);

                        out.res_sq += rhs_u * rhs_u + rhs_v * rhs_v;
                        out.cells += 1;
                    }
                }
                out
            })
            .collect();

        // Write back and accumulate the residual.
        let mut res_sq = 0.0;
        let mut cells = 0usize;
        for (idx, o) in outs.into_iter().enumerate() {
            self.state
                .u
                .patch_at_mut(idx)
                .as_mut_slice()
                .copy_from_slice(&o.u);
            self.state
                .v
                .patch_at_mut(idx)
                .as_mut_slice()
                .copy_from_slice(&o.v);
            self.state
                .p
                .patch_at_mut(idx)
                .as_mut_slice()
                .copy_from_slice(&o.p);
            self.state
                .nt
                .patch_at_mut(idx)
                .as_mut_slice()
                .copy_from_slice(&o.nt);
            res_sq += o.res_sq;
            cells += o.cells;
        }
        self.iters_done += 1;
        let rms = (res_sq / (2.0 * cells.max(1) as f64)).sqrt();
        rms * l_ref / (u_ref * u_ref)
    }

    /// March to convergence: iterate until the normalized residual drops
    /// below `cfg.tol` or `cfg.max_iters` is reached.
    pub fn solve_to_convergence(&mut self) -> SolveStats {
        let _span = adarnet_obs::span!("stage_solver");
        let t0 = Instant::now();
        let start_iters = self.iters_done;
        let mut res = f64::INFINITY;
        while self.iters_done - start_iters < self.cfg.max_iters {
            res = self.step();
            if (self.iters_done - start_iters).is_multiple_of(self.cfg.check_every) {
                self.history.push((self.iters_done, res));
                if !res.is_finite() {
                    break;
                }
            }
            if res < self.cfg.tol {
                break;
            }
        }
        SolveStats {
            iterations: self.iters_done - start_iters,
            final_residual: res,
            seconds: t0.elapsed().as_secs_f64(),
            converged: res < self.cfg.tol,
        }
    }

    /// Per-patch refinement indicator: max |grad nu_tilde| (the
    /// feature-based heuristic of the baseline AMR solver, §4.3).
    pub fn nt_gradient_indicator(&self) -> Vec<f64> {
        let (dy0, dx0) = self.mesh.cell_size0();
        gradient_indicator(&self.state.nt, dy0, dx0)
    }
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
}
