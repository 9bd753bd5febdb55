//! One Jacobi sweep over a range of patches: the per-cell kernel of the
//! RANS + SA step and the scratch one lane owns.
//!
//! A [`Lane`] pads each patch of its range from the *old* state into
//! buffers it keeps across steps, runs [`sweep_patch`] on the padded
//! patch, and holds the updated patches until the driver in
//! [`crate::solver`] copies them in. Once its buffers have grown to the
//! lane's largest patch and range, a sweep allocates nothing.

use std::ops::Range;

use adarnet_amr::Side;

use crate::geometry::SideBc;
use crate::mesh::CaseMesh;
use crate::sa::{self, SaConstants};
use crate::solver::SolverConfig;
use crate::state::FlowState;

/// A physical-boundary ghost value from the adjacent interior value `c`.
#[derive(Debug, Clone, Copy)]
enum Ghost {
    /// Zero gradient: `c`.
    Same,
    /// Zero at the face: `-c`.
    Negate,
    /// `k / 2` at the face: `k - c`.
    Reflect(f64),
}

impl Ghost {
    #[inline]
    fn of(self, c: f64) -> f64 {
        match self {
            Ghost::Same => c,
            Ghost::Negate => -c,
            Ghost::Reflect(k) => k - c,
        }
    }
}

/// What a sweep reads besides the state: the mesh, the step's constants
/// and the ghost rule of every physical boundary.
pub(crate) struct Kernel<'a> {
    mesh: &'a CaseMesh,
    cfg: SolverConfig,
    sa: SaConstants,
    beta: f64,
    /// Per side in [`Side::ALL`] order, per variable `u, v, p, nt`.
    bcs: [[Ghost; 4]; 4],
}

impl<'a> Kernel<'a> {
    pub(crate) fn new(mesh: &'a CaseMesh, cfg: SolverConfig, sa: SaConstants) -> Kernel<'a> {
        let case = &mesh.case;
        let bcs = Side::ALL.map(|side| {
            // `i = 0` is the domain bottom, so ILo at py = 0 is the
            // bottom boundary.
            let (kind, horizontal) = match side {
                Side::ILo => (case.bottom, true),
                Side::IHi => (case.top, true),
                Side::JLo => (case.left, false),
                Side::JHi => (case.right, false),
            };
            let (u, v) = match kind {
                SideBc::Inlet => (Ghost::Reflect(2.0 * case.u_in), Ghost::Negate),
                SideBc::Outlet => (Ghost::Same, Ghost::Same),
                SideBc::Wall => (Ghost::Negate, Ghost::Negate),
                // Horizontal boundary: u tangential, v normal.
                SideBc::Symmetry if horizontal => (Ghost::Same, Ghost::Negate),
                SideBc::Symmetry => (Ghost::Negate, Ghost::Same),
            };
            // p = 0 at an outlet face, zero gradient elsewhere.
            let p = match kind {
                SideBc::Outlet => Ghost::Negate,
                _ => Ghost::Same,
            };
            let nt = match kind {
                SideBc::Inlet => Ghost::Reflect(2.0 * case.nu_tilde_inflow()),
                SideBc::Wall => Ghost::Negate,
                _ => Ghost::Same,
            };
            [u, v, p, nt]
        });
        Kernel {
            mesh,
            cfg,
            sa,
            beta: (cfg.beta_factor * case.u_in * case.u_in).max(1e-8),
            bcs,
        }
    }

    /// The normalized momentum residual of a step from its summed
    /// squared momentum RHS: the RMS scaled by `ly / u_in^2`.
    pub(crate) fn residual(&self, res_sq: f64, cells: usize) -> f64 {
        let u_ref = self.mesh.case.u_in.max(1e-12);
        let rms = (res_sq / (2.0 * cells.max(1) as f64)).sqrt();
        rms * self.mesh.case.ly / (u_ref * u_ref)
    }
}

/// One patch with its ghost ring, `(ny + 2) x (nx + 2)` row-major. The
/// corners are never read: every stencil has five points.
#[derive(Default)]
struct Padded {
    ny: usize,
    nx: usize,
    u: Vec<f64>,
    v: Vec<f64>,
    p: Vec<f64>,
    nt: Vec<f64>,
    /// `nu_t(max(nt, 0))` of every padded cell.
    nut: Vec<f64>,
    solid: Vec<bool>,
    /// One ghost line from a neighbour patch.
    ghost: Vec<f64>,
}

/// `(ghost, adjacent interior)` index pairs along `side` of a padded
/// `ny x nx` patch, in ghost-line order.
fn edge(side: Side, ny: usize, nx: usize) -> impl Iterator<Item = (usize, usize)> {
    let s = nx + 2;
    let (ghost, inner, step, len) = match side {
        Side::ILo => (1, s + 1, 1, nx),
        Side::IHi => ((ny + 1) * s + 1, ny * s + 1, 1, nx),
        Side::JLo => (s, s + 1, s, ny),
        Side::JHi => (s + nx + 1, s + nx, s, ny),
    };
    (0..len).map(move |t| (ghost + t * step, inner + t * step))
}

impl Padded {
    #[inline(always)]
    fn at(&self, i: usize, j: usize) -> usize {
        i * (self.nx + 2) + j
    }

    /// Pad patch `idx` of `state`: interior, ghosts from the neighbour
    /// patch or the physical BC, then the eddy-viscosity plane.
    fn fill(&mut self, kernel: &Kernel, state: &FlowState, idx: usize) {
        let mesh = kernel.mesh;
        let (py, px) = mesh.layout().coords(idx);
        let (ny, nx) = (state.u.patch_at(idx).ny(), state.u.patch_at(idx).nx());
        let stride = nx + 2;
        let n = (ny + 2) * stride;
        (self.ny, self.nx) = (ny, nx);
        self.solid.clear();
        self.solid.resize(n, false);
        for (i, row) in mesh.solid[idx].chunks_exact(nx).enumerate() {
            self.solid[(i + 1) * stride + 1..][..nx].copy_from_slice(row);
        }
        let fields = [
            (&mut self.u, &state.u),
            (&mut self.v, &state.v),
            (&mut self.p, &state.p),
            (&mut self.nt, &state.nt),
        ];
        for (var, (pad, field)) in fields.into_iter().enumerate() {
            pad.resize(n, 0.0);
            for (i, row) in field.patch_at(idx).as_slice().chunks_exact(nx).enumerate() {
                pad[(i + 1) * stride + 1..][..nx].copy_from_slice(row);
            }
            for (side, bcs) in Side::ALL.into_iter().zip(&kernel.bcs) {
                if field.ghost_line_into(py, px, side, &mut self.ghost) {
                    for ((g, _), &val) in edge(side, ny, nx).zip(&self.ghost) {
                        pad[g] = val;
                    }
                } else {
                    for (g, c) in edge(side, ny, nx) {
                        pad[g] = bcs[var].of(pad[c]);
                    }
                }
            }
        }
        let (nu, sa_c) = (mesh.case.nu, &kernel.sa);
        self.nut.resize(n, 0.0);
        for (nut, &nt) in self.nut.iter_mut().zip(&self.nt) {
            *nut = sa::eddy_viscosity(nt.max(0.0), nu, sa_c);
        }
    }
}

/// The scratch one lane owns, reused across steps: a padded patch and
/// the swept values of the lane's patches.
#[derive(Default)]
pub(crate) struct Lane {
    pad: Padded,
    /// Updated `u, v, p, nt` of the lane's patches, back to back in
    /// patch order.
    out: [Vec<f64>; 4],
    /// `(res_sq, fluid cells)` of each of the lane's patches.
    sums: Vec<(f64, usize)>,
}

impl Lane {
    /// Sweep `patches` from the old `state` into this lane's outputs.
    pub(crate) fn sweep(&mut self, kernel: &Kernel, state: &FlowState, patches: Range<usize>) {
        let cells = patches.clone().map(|idx| state.u.patch_at(idx).len()).sum();
        for out in &mut self.out {
            out.resize(cells, 0.0);
        }
        self.sums.clear();
        let mut at = 0;
        for idx in patches {
            self.pad.fill(kernel, state, idx);
            let len = self.pad.ny * self.pad.nx;
            let out = self.out.each_mut().map(|o| &mut o[at..at + len]);
            self.sums.push(sweep_patch(&self.pad, kernel, idx, out));
            at += len;
        }
    }

    /// Copy the swept `patches` into `state` and add their
    /// `(res_sq, fluid cells)` to `sums`, in patch order.
    pub(crate) fn write_back(
        &self,
        state: &mut FlowState,
        patches: Range<usize>,
        sums: &mut (f64, usize),
    ) {
        let mut at = 0;
        for (idx, &(res_sq, cells)) in patches.zip(&self.sums) {
            let len = state.u.patch_at(idx).len();
            let fields = [&mut state.u, &mut state.v, &mut state.p, &mut state.nt];
            for (field, out) in fields.into_iter().zip(&self.out) {
                field
                    .patch_at_mut(idx)
                    .as_mut_slice()
                    .copy_from_slice(&out[at..at + len]);
            }
            at += len;
            sums.0 += res_sq;
            sums.1 += cells;
        }
    }
}

/// One explicit pseudo-time step of padded patch `idx` into `out`
/// (`u, v, p, nt`). Returns the patch's squared momentum RHS summed over
/// its fluid cells, and their count.
fn sweep_patch(pad: &Padded, kernel: &Kernel, idx: usize, out: [&mut [f64]; 4]) -> (f64, usize) {
    let [out_u, out_v, out_p, out_nt] = out;
    let mesh = kernel.mesh;
    let (dy, dx) = mesh.cell_size(mesh.map.level_at(idx));
    let dist = &mesh.dist[idx];
    let (cfg, sa_c, beta, nu) = (kernel.cfg, kernel.sa, kernel.beta, mesh.case.nu);
    let (ny, nx) = (pad.ny, pad.nx);
    let mut res_sq = 0.0;
    let mut cells = 0;

    for i in 0..ny {
        for j in 0..nx {
            let c = pad.at(i + 1, j + 1);
            let k = i * nx + j;
            if pad.solid[c] {
                // Solid cells: zero velocity and nu_tilde, pressure
                // relaxed toward fluid neighbors for a smooth gradient at
                // the surface.
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
                out_u[k] = 0.0;
                out_v[k] = 0.0;
                out_p[k] = if cnt > 0.0 { psum / cnt } else { pad.p[c] };
                out_nt[k] = 0.0;
                continue;
            }

            let (uc, vc, pc, ntc) = (pad.u[c], pad.v[c], pad.p[c], pad.nt[c]);
            let w = pad.at(i + 1, j);
            let e = pad.at(i + 1, j + 2);
            let s_ = pad.at(i, j + 1);
            let n_ = pad.at(i + 2, j + 1);

            // Neighbor values with no-slip reflection across solid faces
            // (stair-step immersed boundary).
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

            // Effective viscosity at the cell and faces. A fluid
            // neighbour's nu_t comes from the padded plane; a solid one's
            // from the reflected nu_tilde.
            let nut_c = sa::eddy_viscosity(ntc, nu, &sa_c);
            let nue_c = nu + nut_c;
            let face_nue = |nb: usize, nt_nb: f64| -> f64 {
                let nut_nb = if pad.solid[nb] {
                    sa::eddy_viscosity(nt_nb.max(0.0), nu, &sa_c)
                } else {
                    pad.nut[nb]
                };
                nu + 0.5 * (nut_c + nut_nb)
            };
            let nue_e = face_nue(e, nt_e);
            let nue_w = face_nue(w, nt_w);
            let nue_n = face_nue(n_, nt_n);
            let nue_s = face_nue(s_, nt_s);

            // Convection: first-order upwind blended with a central
            // contribution per cfg.conv_blend (hybrid scheme;
            // non-conservative form).
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

            // Continuity with artificial compressibility plus scalar
            // pressure dissipation.
            let div = (u_e - u_w) / (2.0 * dx) + (v_n - v_s) / (2.0 * dy);
            let c_ac = (uc * uc + vc * vc + beta).sqrt();
            let diss_p =
                cfg.kp * c_ac * ((p_e - 2.0 * pc + p_w) / dx + (p_n - 2.0 * pc + p_s) / dy);
            let rhs_p = -beta * div + diss_p;

            // SA transport.
            let omega = ((v_e - v_w) / (2.0 * dx) - (u_n - u_s) / (2.0 * dy)).abs();
            let d_wall = dist[k];
            let src = sa::source(ntc, nu, omega, d_wall, &sa_c);
            let face_dnt = |nt_nb: f64| -> f64 { nu + 0.5 * (ntc + nt_nb.max(0.0)) };
            let diff_nt = ((face_dnt(nt_e) * (nt_e - ntc) - face_dnt(nt_w) * (ntc - nt_w))
                / (dx * dx)
                + (face_dnt(nt_n) * (nt_n - ntc) - face_dnt(nt_s) * (ntc - nt_s)) / (dy * dy))
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

            out_u[k] = uc + dt * rhs_u;
            out_v[k] = vc + dt * rhs_v;
            out_p[k] = pc + dt * rhs_p;
            out_nt[k] = (ntc + dt * rhs_nt).max(0.0);

            res_sq += rhs_u * rhs_u + rhs_v * rhs_v;
            cells += 1;
        }
    }
    (res_sq, cells)
}
