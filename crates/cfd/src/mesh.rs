//! Case meshes: a [`CaseConfig`] discretized on a composite patch mesh,
//! with precomputed solid masks and SA wall distances.

use adarnet_amr::{PatchLayout, RefinementMap};

use crate::geometry::CaseConfig;

/// A [`CaseConfig`] bound to a [`RefinementMap`]: per-cell solid masks and
/// wall distances at each patch's resolution.
#[derive(Debug, Clone)]
pub struct CaseMesh {
    /// The physical case.
    pub case: CaseConfig,
    /// The composite mesh.
    pub map: RefinementMap,
    /// Per-patch row-major solid mask (true = inside the body).
    pub solid: Vec<Vec<bool>>,
    /// Per-patch row-major wall distance at cell centers, clamped to at
    /// least half the local cell diagonal (SA needs d > 0).
    pub dist: Vec<Vec<f64>>,
}

impl CaseMesh {
    /// Discretize `case` on `map`, computing masks and wall distances.
    /// Patches are independent of each other; polygon distance over fine
    /// immersed-body patches is the single most expensive setup step.
    pub fn new(case: CaseConfig, map: RefinementMap) -> CaseMesh {
        let layout = *map.layout();
        let per_patch: Vec<(Vec<bool>, Vec<f64>)> = (0..layout.num_patches())
            .map(|idx| {
                let (py, px) = layout.coords(idx);
                let level = map.level_at(idx);
                let (h, w) = layout.patch_extent(level);
                let dx = case.lx / (layout.coarse_w() << level) as f64;
                let dy = case.ly / (layout.coarse_h() << level) as f64;
                let x0 = px as f64 * layout.pw as f64 * case.lx / layout.coarse_w() as f64;
                let y0 = py as f64 * layout.ph as f64 * case.ly / layout.coarse_h() as f64;
                let dmin = 0.5 * (dx * dx + dy * dy).sqrt();
                let mut solid = Vec::with_capacity(h * w);
                let mut dist = Vec::with_capacity(h * w);
                for i in 0..h {
                    for j in 0..w {
                        let x = x0 + (j as f64 + 0.5) * dx;
                        let y = y0 + (i as f64 + 0.5) * dy;
                        solid.push(case.is_solid(x, y));
                        dist.push(case.wall_distance(x, y).max(dmin));
                    }
                }
                (solid, dist)
            })
            .collect();
        let (solid, dist) = per_patch.into_iter().unzip();
        CaseMesh {
            case,
            map,
            solid,
            dist,
        }
    }

    /// The patch layout.
    pub fn layout(&self) -> &PatchLayout {
        self.map.layout()
    }

    /// Level-0 cell size `(dy0, dx0)`.
    pub fn cell_size0(&self) -> (f64, f64) {
        (
            self.case.ly / self.layout().coarse_h() as f64,
            self.case.lx / self.layout().coarse_w() as f64,
        )
    }

    /// Cell size `(dy, dx)` at refinement level `level`.
    pub fn cell_size(&self, level: u8) -> (f64, f64) {
        let (dy0, dx0) = self.cell_size0();
        let s = (1u64 << level) as f64;
        (dy0 / s, dx0 / s)
    }

    /// Number of fluid (non-solid) cells across the mesh.
    pub fn fluid_cells(&self) -> usize {
        self.solid
            .iter()
            .map(|p| p.iter().filter(|&&s| !s).count())
            .sum()
    }

    /// Total active cells.
    pub fn active_cells(&self) -> usize {
        self.solid.iter().map(|p| p.len()).sum()
    }

    /// Rebind this mesh to a new refinement map (same case), recomputing
    /// masks and distances.
    pub fn with_map(&self, map: RefinementMap) -> CaseMesh {
        CaseMesh::new(self.case.clone(), map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::CaseConfig;

    fn small_layout() -> PatchLayout {
        PatchLayout::new(2, 8, 8, 8) // 16 x 64 coarse cells
    }

    #[test]
    fn channel_mesh_has_no_solids() {
        let map = RefinementMap::uniform(small_layout(), 0, 3);
        let mesh = CaseMesh::new(CaseConfig::channel(2.5e3), map);
        assert_eq!(mesh.fluid_cells(), mesh.active_cells());
        let (dy0, dx0) = mesh.cell_size0();
        assert!((dy0 - 0.1 / 16.0).abs() < 1e-12);
        assert!((dx0 - 6.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn channel_wall_distance_clamped_positive() {
        let map = RefinementMap::uniform(small_layout(), 0, 3);
        let mesh = CaseMesh::new(CaseConfig::channel(2.5e3), map);
        for p in &mesh.dist {
            for &d in p {
                assert!(d > 0.0);
            }
        }
        // Wall distance of the first interior row ~ dy/2 (clamped at half
        // diagonal, which is larger here because dx >> dy).
        let d = mesh.dist[0][0];
        assert!(d >= 0.1 / 16.0 / 2.0);
    }

    #[test]
    fn cylinder_mesh_masks_the_body() {
        let map = RefinementMap::uniform(small_layout(), 1, 3);
        let mesh = CaseMesh::new(CaseConfig::cylinder(1e5), map);
        assert!(mesh.fluid_cells() < mesh.active_cells());
        // Solid fraction ~ area(pi r^2) / domain area = pi*0.25/16 ~ 4.9%.
        let frac = 1.0 - mesh.fluid_cells() as f64 / mesh.active_cells() as f64;
        assert!((frac - 0.049).abs() < 0.02, "solid fraction {frac}");
    }

    #[test]
    fn finer_map_refines_mask_resolution() {
        let layout = small_layout();
        let coarse = CaseMesh::new(
            CaseConfig::cylinder(1e5),
            RefinementMap::uniform(layout, 0, 3),
        );
        let fine = coarse.with_map(RefinementMap::uniform(layout, 2, 3));
        assert_eq!(fine.active_cells(), coarse.active_cells() * 16);
        // Solid fraction converges toward the exact area ratio as cells
        // shrink; fine should be at least as accurate.
        let exact = std::f64::consts::PI * 0.25 / 16.0;
        let f_frac = 1.0 - fine.fluid_cells() as f64 / fine.active_cells() as f64;
        assert!((f_frac - exact).abs() < 0.01, "{f_frac} vs {exact}");
    }
}
