//! Quantities of interest for the grid-convergence study (Figure 11).
//!
//! * `Cf` — skin-friction coefficient at `x = 0.95 L` on the lower wall
//!   (channel flow and flat plate test cases).
//! * `Cd` — drag coefficient of the immersed body (cylinder and airfoil
//!   test cases), pressure plus friction, integrated over the stair-step
//!   surface.
//!
//! Both are evaluated on a uniform sampling of the composite solution at
//! the mesh's finest level, so the value reflects the composite mesh the
//! solver actually used.

use crate::mesh::CaseMesh;
use crate::state::FlowState;

/// Experimental cylinder drag coefficient from Hoerner (1965), the red
/// reference point in Figure 11.
pub const HOERNER_CYLINDER_CD: f64 = 1.108;

fn finest_level(mesh: &CaseMesh) -> u8 {
    mesh.map.levels().iter().copied().max().unwrap_or(0)
}

/// Skin-friction coefficient `Cf = tau_w / (0.5 u_in^2)` on the bottom
/// wall at `x = x_frac * lx`, with `tau_w = nu * u1 / (dy / 2)` from the
/// first cell row (one-sided gradient, no-slip wall).
pub fn skin_friction_coefficient(state: &FlowState, mesh: &CaseMesh, x_frac: f64) -> f64 {
    assert!((0.0..=1.0).contains(&x_frac), "x_frac must be in [0, 1]");
    let level = finest_level(mesh);
    let u = state.u.to_uniform(level);
    let (dy, _) = mesh.cell_size(level);
    let j = ((x_frac * u.nx() as f64) as usize).min(u.nx() - 1);
    let u1 = u.get(0, j);
    let tau_w = mesh.case.nu * u1 / (dy / 2.0);
    tau_w / (0.5 * mesh.case.u_in * mesh.case.u_in)
}

/// Lift coefficient of the immersed body:
/// `Cl = F_y / (0.5 u_in^2 * chord)`, pressure force only (friction lift
/// is negligible for these sections).
///
/// Zero within discretization error for symmetric bodies at zero
/// incidence (cylinder, NACA0012); nonzero for the cambered NACA1412.
/// Panics if the case has no body.
#[expect(
    clippy::expect_used,
    reason = "documented precondition: lift/drag coefficients are undefined without a body; callers gate on case.body.is_some()"
)]
pub fn lift_coefficient(state: &FlowState, mesh: &CaseMesh) -> f64 {
    let body = mesh
        .case
        .body
        .as_ref()
        .expect("lift_coefficient requires an immersed body");
    let level = finest_level(mesh);
    let p = state.p.to_uniform(level);
    let (dy, dx) = mesh.cell_size(level);
    let (ny, nx) = (p.ny(), p.nx());
    let is_solid = |i: i64, j: i64| -> bool {
        if i < 0 || j < 0 || i >= ny as i64 || j >= nx as i64 {
            return false;
        }
        body.contains((j as f64 + 0.5) * dx, (i as f64 + 0.5) * dy)
    };
    let mut f_y = 0.0;
    for i in 0..ny as i64 {
        for j in 0..nx as i64 {
            if is_solid(i, j) {
                continue;
            }
            // y-normal faces: pressure from the fluid side pushes the body
            // away from that side.
            if is_solid(i + 1, j) {
                // Fluid below the surface pushes the body up (+y).
                f_y += p.get(i as usize, j as usize) * dx;
            }
            if is_solid(i - 1, j) {
                f_y -= p.get(i as usize, j as usize) * dx;
            }
        }
    }
    let (xmin, _, xmax, _) = body.bbox();
    let chord = (xmax - xmin).max(1e-12);
    f_y / (0.5 * mesh.case.u_in * mesh.case.u_in * chord)
}

/// Drag coefficient of the immersed body:
/// `Cd = (F_pressure + F_friction) / (0.5 u_in^2 * frontal_height)`.
///
/// Forces are integrated over the stair-step solid surface at the mesh's
/// finest level: pressure acts on x-normal faces, wall shear on y-normal
/// faces. Panics if the case has no body.
#[expect(
    clippy::expect_used,
    reason = "documented precondition: lift/drag coefficients are undefined without a body; callers gate on case.body.is_some()"
)]
pub fn drag_coefficient(state: &FlowState, mesh: &CaseMesh) -> f64 {
    let body = mesh
        .case
        .body
        .as_ref()
        .expect("drag_coefficient requires an immersed body");
    let level = finest_level(mesh);
    let u = state.u.to_uniform(level);
    let p = state.p.to_uniform(level);
    let (dy, dx) = mesh.cell_size(level);
    let (ny, nx) = (u.ny(), u.nx());

    // Uniform-resolution solid mask from the geometry.
    let is_solid = |i: i64, j: i64| -> bool {
        if i < 0 || j < 0 || i >= ny as i64 || j >= nx as i64 {
            return false;
        }
        let x = (j as f64 + 0.5) * dx;
        let y = (i as f64 + 0.5) * dy;
        body.contains(x, y)
    };

    let mut f_pressure = 0.0;
    let mut f_friction = 0.0;
    for i in 0..ny as i64 {
        for j in 0..nx as i64 {
            if is_solid(i, j) {
                continue;
            }
            let (iu, ju) = (i as usize, j as usize);
            // x-normal faces: fluid cell with solid neighbor east/west.
            if is_solid(i, j + 1) {
                // Surface faces -x; pressure pushes the body +x.
                f_pressure += p.get(iu, ju) * dy;
            }
            if is_solid(i, j - 1) {
                // Surface faces +x; pressure pushes the body -x.
                f_pressure -= p.get(iu, ju) * dy;
            }
            // y-normal faces: wall shear drags the body along +-x with the
            // local flow.
            if is_solid(i + 1, j) || is_solid(i - 1, j) {
                let tau = mesh.case.nu * u.get(iu, ju) / (dy / 2.0);
                f_friction += tau * dx;
            }
        }
    }

    let q = 0.5 * mesh.case.u_in * mesh.case.u_in * body.frontal_height();
    (f_pressure + f_friction) / q
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::CaseConfig;
    use adarnet_amr::{PatchLayout, RefinementMap};

    fn channel_mesh() -> CaseMesh {
        let layout = PatchLayout::new(2, 8, 8, 8);
        CaseMesh::new(
            CaseConfig::channel(2.5e3),
            RefinementMap::uniform(layout, 0, 3),
        )
    }

    #[test]
    fn cf_zero_for_zero_flow() {
        let mesh = channel_mesh();
        let state = FlowState::zeros(&mesh.map);
        assert_eq!(skin_friction_coefficient(&state, &mesh, 0.95), 0.0);
    }

    #[test]
    fn cf_positive_for_forward_flow_and_scales_linearly() {
        let mesh = channel_mesh();
        let mut state = FlowState::zeros(&mesh.map);
        for px in 0..8 {
            let patch = state.u.patch_mut(0, px);
            for j in 0..8 {
                patch.set(0, j, 0.1);
            }
        }
        let cf1 = skin_friction_coefficient(&state, &mesh, 0.95);
        assert!(cf1 > 0.0);
        for px in 0..8 {
            let patch = state.u.patch_mut(0, px);
            for j in 0..8 {
                patch.set(0, j, 0.2);
            }
        }
        let cf2 = skin_friction_coefficient(&state, &mesh, 0.95);
        assert!((cf2 / cf1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn cd_positive_for_uniform_pressure_difference() {
        // Freestream pressure higher upstream than downstream of the body
        // gives positive pressure drag.
        let layout = PatchLayout::new(2, 8, 8, 8);
        let mesh = CaseMesh::new(
            CaseConfig::cylinder(1e5),
            RefinementMap::uniform(layout, 1, 3),
        );
        let mut state = FlowState::zeros(&mesh.map);
        // p = -x gradient: higher pressure on the upstream (west) side.
        let layoutc = *mesh.layout();
        for py in 0..layoutc.npy {
            for px in 0..layoutc.npx {
                let (h, w) = layoutc.patch_extent(mesh.map.level(py, px));
                for i in 0..h {
                    for j in 0..w {
                        let (x, _) = {
                            let level = mesh.map.level(py, px);
                            let (_, dxl) = mesh.cell_size(level);
                            let x0 = px as f64 * layoutc.pw as f64 * mesh.case.lx
                                / layoutc.coarse_w() as f64;
                            (x0 + (j as f64 + 0.5) * dxl, 0.0)
                        };
                        state.p.patch_mut(py, px).set(i, j, -x);
                    }
                }
            }
        }
        let cd = drag_coefficient(&state, &mesh);
        assert!(cd > 0.0, "cd = {cd}");
    }

    #[test]
    #[should_panic(expected = "requires an immersed body")]
    fn cd_requires_body() {
        let mesh = channel_mesh();
        let state = FlowState::zeros(&mesh.map);
        let _ = drag_coefficient(&state, &mesh);
    }

    #[test]
    fn lift_zero_for_uniform_pressure() {
        // A constant pressure field exerts no net lift on a closed body.
        let layout = PatchLayout::new(4, 8, 8, 8);
        let mesh = CaseMesh::new(
            CaseConfig::cylinder(1e5),
            RefinementMap::uniform(layout, 1, 3),
        );
        let mut state = FlowState::zeros(&mesh.map);
        for py in 0..4 {
            for px in 0..8 {
                state.p.patch_mut(py, px).fill(3.0);
            }
        }
        let cl = lift_coefficient(&state, &mesh);
        assert!(cl.abs() < 1e-9, "cl = {cl}");
    }

    #[test]
    fn lift_positive_when_pressure_higher_below() {
        // Higher pressure under the body than above it lifts it.
        let layout = PatchLayout::new(4, 8, 8, 8);
        let mesh = CaseMesh::new(
            CaseConfig::cylinder(1e5),
            RefinementMap::uniform(layout, 1, 3),
        );
        let mut state = FlowState::zeros(&mesh.map);
        let ly = mesh.case.ly;
        let layoutc = *mesh.layout();
        for py in 0..layoutc.npy {
            for px in 0..layoutc.npx {
                let level = mesh.map.level(py, px);
                let (dyl, _) = mesh.cell_size(level);
                let y0 = py as f64 * layoutc.ph as f64 * ly / layoutc.coarse_h() as f64;
                let (h, w) = layoutc.patch_extent(level);
                for i in 0..h {
                    let y = y0 + (i as f64 + 0.5) * dyl;
                    for j in 0..w {
                        state.p.patch_mut(py, px).set(i, j, ly - y); // high below
                    }
                }
            }
        }
        let cl = lift_coefficient(&state, &mesh);
        assert!(cl > 0.0, "cl = {cl}");
    }
}
