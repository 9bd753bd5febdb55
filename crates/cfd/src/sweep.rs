//! One Jacobi sweep over a range of patches: the RANS + SA cell kernel
//! and the scratch one lane owns.
//!
//! A [`Lane`] pads each patch of its range from the *old* state into
//! buffers it keeps across steps, sweeps the padded patch, and holds the
//! updated patches until the driver in [`crate::solver`] copies them in.
//!
//! The kernel works on one patch row at a time, in four passes over the
//! row's cells. The first computes every cell as if it were fluid, with
//! no data-dependent branch: solid neighbours, the upwind direction and
//! the `nt <= 0` cases of the SA closure are selects. The second takes
//! the SA destruction term's one `powf` over the row, the third finishes
//! `nt`, and the last writes the solid cells and sums the residual in
//! cell order. Every value keeps the operation order the golden hashes
//! pin (`docs/NUMERICS.md` §1, "The sweep contract"). Once the lane's
//! buffers have grown to its largest patch, row and range, a sweep
//! allocates nothing.

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
    row: RowScratch,
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
            self.sums
                .push(sweep_patch(&self.pad, &mut self.row, kernel, idx, out));
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

/// The five stencil rows of one padded plane around interior row `i`:
/// the centre and its west, east, south and north neighbours, each
/// `nx` long.
struct Stencil<'a, T> {
    c: &'a [T],
    w: &'a [T],
    e: &'a [T],
    s: &'a [T],
    n: &'a [T],
}

impl<'a, T: Copy> Stencil<'a, T> {
    fn of(plane: &'a [T], i: usize, nx: usize) -> Stencil<'a, T> {
        let stride = nx + 2;
        let c = (i + 1) * stride + 1;
        let row = |at: usize| &plane[at..at + nx];
        Stencil {
            c: row(c),
            w: row(c - 1),
            e: row(c + 1),
            s: row(c - stride),
            n: row(c + stride),
        }
    }

    /// The neighbours `[w, e, s, n]` of cell `j`.
    #[inline(always)]
    fn around(&self, j: usize) -> [T; 4] {
        [self.w[j], self.e[j], self.s[j], self.n[j]]
    }
}

/// The neighbours `[w, e, s, n]` of a fluid cell, each replaced by
/// `refl` where `solid` holds: a select after both loads, not a branch.
#[inline(always)]
fn reflect(vals: [f64; 4], solid: [bool; 4], refl: f64) -> [f64; 4] {
    [
        if solid[0] { refl } else { vals[0] },
        if solid[1] { refl } else { vals[1] },
        if solid[2] { refl } else { vals[2] },
        if solid[3] { refl } else { vals[3] },
    ]
}

/// What the first pass of a row hands on to the later ones, one value
/// per cell of the row.
#[derive(Default)]
struct RowScratch {
    /// Pseudo-time step.
    dt: Vec<f64>,
    /// `rhs_u^2 + rhs_v^2`.
    res: Vec<f64>,
    /// `nt` convection, diffusion and `cb2 / sigma * |grad nt|^2`.
    conv_nt: Vec<f64>,
    diff_nt: Vec<f64>,
    grad_nt: Vec<f64>,
    /// [`sa::source_parts`]: production, `g`, and the `powf` argument,
    /// which the second pass replaces by its sixth root.
    prod: Vec<f64>,
    g: Vec<f64>,
    root: Vec<f64>,
}

impl RowScratch {
    fn resize(&mut self, nx: usize) {
        for buf in [
            &mut self.dt,
            &mut self.res,
            &mut self.conv_nt,
            &mut self.diff_nt,
            &mut self.grad_nt,
            &mut self.prod,
            &mut self.g,
            &mut self.root,
        ] {
            buf.resize(nx, 0.0);
        }
    }
}

/// The per-patch constants of a sweep.
#[derive(Clone, Copy)]
struct Step {
    dx: f64,
    dy: f64,
    nu: f64,
    beta: f64,
    cfg: SolverConfig,
    sa: SaConstants,
}

/// One explicit pseudo-time step of padded patch `idx` into `out`
/// (`u, v, p, nt`), row by row. Returns the patch's squared momentum RHS
/// summed over its fluid cells in cell order, and their count.
///
/// Each row runs four passes. [`fluid_row`] computes every cell as if it
/// were fluid, with selects in place of data-dependent branches; the
/// second pass takes the one `powf` of the SA destruction term over the
/// row; [`finish_nt`] completes `nt`; [`solid_row`] overwrites the solid
/// cells and sums the residual.
fn sweep_patch(
    pad: &Padded,
    row: &mut RowScratch,
    kernel: &Kernel,
    idx: usize,
    out: [&mut [f64]; 4],
) -> (f64, usize) {
    let mesh = kernel.mesh;
    let (dy, dx) = mesh.cell_size(mesh.map.level_at(idx));
    let step = Step {
        dx,
        dy,
        nu: mesh.case.nu,
        beta: kernel.beta,
        cfg: kernel.cfg,
        sa: kernel.sa,
    };
    let nx = pad.nx;
    row.resize(nx);
    let mut sums = (0.0, 0);
    let [out_u, out_v, out_p, out_nt] = out;
    let rows = out_u
        .chunks_exact_mut(nx)
        .zip(out_v.chunks_exact_mut(nx))
        .zip(out_p.chunks_exact_mut(nx))
        .zip(out_nt.chunks_exact_mut(nx))
        .zip(mesh.dist[idx].chunks_exact(nx));
    for (i, ((((u, v), p), nt), dist)) in rows.enumerate() {
        // `conv_blend <= 0` is pure upwind: no central terms at all.
        if step.cfg.conv_blend <= 0.0 {
            fluid_row::<false>(pad, i, dist, &step, row, [&mut *u, &mut *v, &mut *p]);
        } else {
            fluid_row::<true>(pad, i, dist, &step, row, [&mut *u, &mut *v, &mut *p]);
        }
        for root in &mut row.root[..nx] {
            *root = root.powf(1.0 / 6.0);
        }
        finish_nt(pad, i, dist, &step.sa, row, nt);
        solid_row(pad, i, row, [u, v, p, nt], &mut sums);
    }
    sums
}

/// The first pass over row `i`: `u, v, p` of every cell as a fluid cell
/// into `out`, and what the `nt` update still needs into `row`.
#[inline(always)]
fn fluid_row<const BLEND: bool>(
    pad: &Padded,
    i: usize,
    dist: &[f64],
    step: &Step,
    row: &mut RowScratch,
    out: [&mut [f64]; 3],
) {
    let Step {
        dx,
        dy,
        nu,
        beta,
        cfg,
        sa: sa_c,
    } = *step;
    let nx = pad.nx;
    let [out_u, out_v, out_p] = out;
    let (out_u, out_v, out_p, dist) = (
        &mut out_u[..nx],
        &mut out_v[..nx],
        &mut out_p[..nx],
        &dist[..nx],
    );
    let RowScratch {
        dt: row_dt,
        res: row_res,
        conv_nt: row_conv,
        diff_nt: row_diff,
        grad_nt: row_grad,
        prod: row_prod,
        g: row_g,
        root: row_root,
    } = row;
    let (row_dt, row_res, row_conv, row_diff, row_grad) = (
        &mut row_dt[..nx],
        &mut row_res[..nx],
        &mut row_conv[..nx],
        &mut row_diff[..nx],
        &mut row_grad[..nx],
    );
    let (row_prod, row_g, row_root) = (&mut row_prod[..nx], &mut row_g[..nx], &mut row_root[..nx]);
    let solid = Stencil::of(&pad.solid, i, nx);
    let (u, v, p) = (
        Stencil::of(&pad.u, i, nx),
        Stencil::of(&pad.v, i, nx),
        Stencil::of(&pad.p, i, nx),
    );
    let (nt, nut) = (Stencil::of(&pad.nt, i, nx), Stencil::of(&pad.nut, i, nx));
    let blend = cfg.conv_blend;
    let cb2_sigma = sa_c.cb2 / sa_c.sigma;
    let inv_area = 1.0 / (dx * dx) + 1.0 / (dy * dy);

    for j in 0..nx {
        let (uc, vc, pc, ntc) = (u.c[j], v.c[j], p.c[j], nt.c[j]);

        // Neighbour values, reflected across solid faces (stair-step
        // immersed boundary): `-c` for the no-slip variables, `c` for
        // the pressure.
        let sides = solid.around(j);
        let [u_w, u_e, u_s, u_n] = reflect(u.around(j), sides, -uc);
        let [v_w, v_e, v_s, v_n] = reflect(v.around(j), sides, -vc);
        let [p_w, p_e, p_s, p_n] = reflect(p.around(j), sides, pc);
        let [nt_w, nt_e, nt_s, nt_n] = reflect(nt.around(j), sides, -ntc);

        // Effective viscosity at the cell and faces. A fluid neighbour's
        // nu_t comes from the padded plane; a solid one's from the
        // reflected nu_tilde, `-ntc` clamped at zero: `nu_t(|ntc|)` where
        // `ntc < 0`, else zero.
        let nut_abs = sa::eddy_viscosity(ntc.abs(), nu, &sa_c);
        let nut_c = if ntc <= 0.0 { 0.0 } else { nut_abs };
        let nut_refl = if ntc < 0.0 { nut_abs } else { 0.0 };
        let nue_c = nu + nut_c;
        let [nut_w, nut_e, nut_s, nut_n] = reflect(nut.around(j), sides, nut_refl);
        let nue_w = nu + 0.5 * (nut_c + nut_w);
        let nue_e = nu + 0.5 * (nut_c + nut_e);
        let nue_s = nu + 0.5 * (nut_c + nut_s);
        let nue_n = nu + 0.5 * (nut_c + nut_n);

        // Convection: first-order upwind blended with a central
        // contribution per cfg.conv_blend (hybrid scheme;
        // non-conservative form).
        let (vel, h) = ([uc, vc], [dx, dy]);
        let conv_u = convect::<BLEND>([uc, u_w, u_e, u_s, u_n], vel, h, blend);
        let conv_v = convect::<BLEND>([vc, v_w, v_e, v_s, v_n], vel, h, blend);
        let conv_nt = convect::<BLEND>([ntc, nt_w, nt_e, nt_s, nt_n], vel, h, blend);

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
        let diss_p = cfg.kp * c_ac * ((p_e - 2.0 * pc + p_w) / dx + (p_n - 2.0 * pc + p_s) / dy);
        let rhs_p = -beta * div + diss_p;

        // SA transport, all but the source's `powf`.
        let omega = ((v_e - v_w) / (2.0 * dx) - (u_n - u_s) / (2.0 * dy)).abs();
        (row_prod[j], row_g[j], row_root[j]) = sa::source_parts(ntc, nu, omega, dist[j], &sa_c);
        let dnt_w = nu + 0.5 * (ntc + nt_w.max(0.0));
        let dnt_e = nu + 0.5 * (ntc + nt_e.max(0.0));
        let dnt_s = nu + 0.5 * (ntc + nt_s.max(0.0));
        let dnt_n = nu + 0.5 * (ntc + nt_n.max(0.0));
        row_diff[j] = ((dnt_e * (nt_e - ntc) - dnt_w * (ntc - nt_w)) / (dx * dx)
            + (dnt_n * (nt_n - ntc) - dnt_s * (ntc - nt_s)) / (dy * dy))
            / sa_c.sigma;
        let gx = (nt_e - nt_w) / (2.0 * dx);
        let gy = (nt_n - nt_s) / (2.0 * dy);
        row_grad[j] = cb2_sigma * (gx * gx + gy * gy);
        row_conv[j] = conv_nt;

        // Local pseudo-time step.
        let lam_x = uc.abs() + c_ac;
        let lam_y = vc.abs() + c_ac;
        let dt = cfg.cfl / (lam_x / dx + lam_y / dy + 2.0 * nue_c * inv_area + 1e-30);
        row_dt[j] = dt;

        out_u[j] = uc + dt * rhs_u;
        out_v[j] = vc + dt * rhs_v;
        out_p[j] = pc + dt * rhs_p;
        row_res[j] = rhs_u * rhs_u + rhs_v * rhs_v;
    }
}

/// Convection of `q = [c, w, e, s, n]` at velocity `[uc, vc]`: first
/// order upwind, blended with the central difference when `BLEND`. The
/// upwind difference is picked before the multiply and divide, which
/// gives the bits of a branch around each product.
#[inline(always)]
fn convect<const BLEND: bool>(q: [f64; 5], vel: [f64; 2], h: [f64; 2], blend: f64) -> f64 {
    let ([q_c, q_w, q_e, q_s, q_n], [uc, vc], [dx, dy]) = (q, vel, h);
    let d_x = if uc >= 0.0 { q_c - q_w } else { q_e - q_c };
    let d_y = if vc >= 0.0 { q_c - q_s } else { q_n - q_c };
    let up = uc * d_x / dx + vc * d_y / dy;
    if !BLEND {
        return up;
    }
    let fx_ct = uc * (q_e - q_w) / (2.0 * dx);
    let fy_ct = vc * (q_n - q_s) / (2.0 * dy);
    (1.0 - blend) * up + blend * (fx_ct + fy_ct)
}

/// The third pass over row `i`: the SA source from its parts, then the
/// clamped `nt` update of every cell as a fluid cell.
#[inline(always)]
fn finish_nt(
    pad: &Padded,
    i: usize,
    dist: &[f64],
    sa_c: &SaConstants,
    row: &RowScratch,
    out: &mut [f64],
) {
    let nx = pad.nx;
    let nt = Stencil::of(&pad.nt, i, nx).c;
    let (out, dist) = (&mut out[..nx], &dist[..nx]);
    let (dt, conv, diff, grad) = (
        &row.dt[..nx],
        &row.conv_nt[..nx],
        &row.diff_nt[..nx],
        &row.grad_nt[..nx],
    );
    let (prod, g, root) = (&row.prod[..nx], &row.g[..nx], &row.root[..nx]);
    for j in 0..nx {
        let src = sa::source_finish(prod[j], g[j], root[j], nt[j], dist[j], sa_c);
        let rhs_nt = -conv[j] + src + diff[j] + grad[j];
        out[j] = (nt[j] + dt[j] * rhs_nt).max(0.0);
    }
}

/// The last pass over row `i`: solid cells get zero velocity and
/// nu_tilde, and a pressure relaxed toward their fluid neighbours for a
/// smooth gradient at the surface; fluid cells add their squared
/// momentum RHS to `sums`, in cell order.
fn solid_row(
    pad: &Padded,
    i: usize,
    row: &RowScratch,
    out: [&mut [f64]; 4],
    sums: &mut (f64, usize),
) {
    let nx = pad.nx;
    let [out_u, out_v, out_p, out_nt] = out.map(|o| &mut o[..nx]);
    let res = &row.res[..nx];
    let solid = Stencil::of(&pad.solid, i, nx);
    let p = Stencil::of(&pad.p, i, nx);
    for j in 0..nx {
        if !solid.c[j] {
            sums.0 += res[j];
            sums.1 += 1;
            continue;
        }
        let mut psum = 0.0;
        let mut cnt = 0.0;
        for (is_solid, p_nb) in solid.around(j).into_iter().zip(p.around(j)) {
            if !is_solid {
                psum += p_nb;
                cnt += 1.0;
            }
        }
        out_u[j] = 0.0;
        out_v[j] = 0.0;
        out_p[j] = if cnt > 0.0 { psum / cnt } else { p.c[j] };
        out_nt[j] = 0.0;
    }
}
