//! Composite fields: one scalar variable stored per-patch at each patch's
//! own resolution.

use adarnet_tensor::Grid2;

use crate::RefinementMap;

/// A side of a patch, named by index direction to stay agnostic of the
/// physical orientation (the CFD crate maps `i = 0` to the domain bottom).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// Low-`i` boundary (row 0).
    ILo,
    /// High-`i` boundary (last row).
    IHi,
    /// High-`j` boundary (last column).
    JHi,
    /// Low-`j` boundary (column 0).
    JLo,
}

impl Side {
    /// All four sides.
    pub const ALL: [Side; 4] = [Side::ILo, Side::IHi, Side::JHi, Side::JLo];
}

/// One scalar variable on a composite (non-uniform) patch mesh.
///
/// Patch `(py, px)` at refinement level `n` stores a dense
/// `(ph * 2^n) x (pw * 2^n)` cell-centered grid. All patches cover
/// equal-size rectangles of the physical domain; refined patches just
/// resolve theirs with more cells.
#[derive(Debug, Clone, PartialEq)]
pub struct CompositeField {
    map: RefinementMap,
    patches: Vec<Grid2<f64>>,
}

impl CompositeField {
    /// A zero-valued field on the given mesh.
    pub fn zeros(map: &RefinementMap) -> Self {
        let layout = map.layout();
        let patches = (0..layout.num_patches())
            .map(|i| {
                let (h, w) = layout.patch_extent(map.level_at(i));
                Grid2::zeros(h, w)
            })
            .collect();
        CompositeField {
            map: map.clone(),
            patches,
        }
    }

    /// A constant-valued field on the given mesh.
    pub fn constant(map: &RefinementMap, value: f64) -> Self {
        let mut f = Self::zeros(map);
        for p in &mut f.patches {
            p.fill(value);
        }
        f
    }

    /// Build from a uniform grid sampled at refinement level
    /// `uniform_level` (grid extent must be `coarse * 2^uniform_level`).
    /// Each patch restricts (averages) or prolongs (bilinear) as needed.
    pub fn from_uniform(map: &RefinementMap, grid: &Grid2<f64>, uniform_level: u8) -> Self {
        let layout = map.layout();
        let scale = 1usize << uniform_level;
        assert_eq!(
            (grid.ny(), grid.nx()),
            (layout.coarse_h() * scale, layout.coarse_w() * scale),
            "uniform grid extent does not match layout at level {uniform_level}"
        );
        let mut f = Self::zeros(map);
        for py in 0..layout.npy {
            for px in 0..layout.npx {
                let idx = layout.idx(py, px);
                let level = map.level_at(idx);
                let (h, w) = layout.patch_extent(level);
                // Patch origin in uniform-grid cells.
                let oy = py * layout.ph * scale;
                let ox = px * layout.pw * scale;
                let (uh, uw) = (layout.ph * scale, layout.pw * scale);
                let patch = Grid2::from_fn(h, w, |i, j| {
                    // Map patch cell center to uniform-grid fractional index.
                    let fi = oy as f64 + (i as f64 + 0.5) * uh as f64 / h as f64 - 0.5;
                    let fj = ox as f64 + (j as f64 + 0.5) * uw as f64 / w as f64 - 0.5;
                    if h <= uh {
                        // Coarsening: average the covered block exactly.
                        let by = uh / h;
                        let bx = uw / w;
                        let mut acc = 0.0;
                        for di in 0..by {
                            for dj in 0..bx {
                                acc += grid.get(oy + i * by + di, ox + j * bx + dj);
                            }
                        }
                        acc / (by * bx) as f64
                    } else {
                        grid.sample_bilinear(fi, fj)
                    }
                });
                f.patches[idx] = patch;
            }
        }
        f
    }

    /// Sample the composite field onto a uniform grid at `level`
    /// (extent `coarse * 2^level`).
    pub fn to_uniform(&self, level: u8) -> Grid2<f64> {
        let layout = self.map.layout();
        let scale = 1usize << level;
        let (gh, gw) = (layout.coarse_h() * scale, layout.coarse_w() * scale);
        let (uh, uw) = (layout.ph * scale, layout.pw * scale);
        Grid2::from_fn(gh, gw, |i, j| {
            let py = i / uh;
            let px = j / uw;
            let idx = layout.idx(py, px);
            let patch = &self.patches[idx];
            let (h, w) = (patch.ny(), patch.nx());
            let li = i - py * uh;
            let lj = j - px * uw;
            if h == uh && w == uw {
                patch.get(li, lj)
            } else {
                // Map uniform cell center into patch-local fractional index.
                let fi = (li as f64 + 0.5) * h as f64 / uh as f64 - 0.5;
                let fj = (lj as f64 + 0.5) * w as f64 / uw as f64 - 0.5;
                patch.sample_bilinear(fi, fj)
            }
        })
    }

    /// The mesh this field lives on.
    pub fn map(&self) -> &RefinementMap {
        &self.map
    }

    /// Patch grid at `(py, px)`.
    pub fn patch(&self, py: usize, px: usize) -> &Grid2<f64> {
        &self.patches[self.map.layout().idx(py, px)]
    }

    /// Mutable patch grid at `(py, px)`.
    pub fn patch_mut(&mut self, py: usize, px: usize) -> &mut Grid2<f64> {
        let idx = self.map.layout().idx(py, px);
        &mut self.patches[idx]
    }

    /// Patch grid by flat index.
    pub fn patch_at(&self, idx: usize) -> &Grid2<f64> {
        &self.patches[idx]
    }

    /// Mutable patch grid by flat index.
    pub fn patch_at_mut(&mut self, idx: usize) -> &mut Grid2<f64> {
        &mut self.patches[idx]
    }

    /// Total active cells (sum over patches).
    pub fn active_cells(&self) -> usize {
        self.patches.iter().map(|p| p.len()).sum()
    }

    /// Ghost line for patch `(py, px)` on `side`: the neighbor's adjacent
    /// cell values resampled to this patch's resolution along the shared
    /// interface. Returns `None` at a domain boundary (caller applies its
    /// physical boundary condition instead).
    ///
    /// Resolution jumps are handled by linear interpolation along the
    /// neighbor's first interior line — fine neighbors are averaged down,
    /// coarse neighbors interpolated up. This is the standard face-ghost
    /// fill for block-structured AMR.
    pub fn ghost_line(&self, py: usize, px: usize, side: Side) -> Option<Vec<f64>> {
        let mut out = Vec::new();
        self.ghost_line_into(py, px, side, &mut out).then_some(out)
    }

    /// [`Self::ghost_line`] into a caller-owned buffer, which is cleared
    /// first and keeps its capacity. Returns `false`, with `out` empty,
    /// at a domain boundary.
    pub fn ghost_line_into(&self, py: usize, px: usize, side: Side, out: &mut Vec<f64>) -> bool {
        out.clear();
        let layout = self.map.layout();
        let neighbor = match side {
            Side::ILo => py.checked_sub(1).map(|ny| (ny, px)),
            Side::IHi => (py + 1 < layout.npy).then_some((py + 1, px)),
            Side::JLo => px.checked_sub(1).map(|nx| (py, nx)),
            Side::JHi => (px + 1 < layout.npx).then_some((py, px + 1)),
        };
        let Some((ny, nx)) = neighbor else {
            return false;
        };
        let me = self.patch(py, px);
        let nb = self.patch(ny, nx);
        // Extent of the interface in my cells and the neighbor's cells.
        let (mine, theirs) = match side {
            Side::ILo | Side::IHi => (me.nx(), nb.nx()),
            Side::JHi | Side::JLo => (me.ny(), nb.ny()),
        };
        out.reserve(mine);
        for k in 0..mine {
            // Fractional position along the interface, in neighbor cells.
            let t = (k as f64 + 0.5) * theirs as f64 / mine as f64 - 0.5;
            let t = t.clamp(0.0, theirs as f64 - 1.0);
            let k0 = t.floor() as usize;
            let k1 = (k0 + 1).min(theirs - 1);
            let frac = t - k0 as f64;
            let (v0, v1) = match side {
                // My North ghost comes from the neighbor's last row.
                Side::ILo => (nb.get(nb.ny() - 1, k0), nb.get(nb.ny() - 1, k1)),
                Side::IHi => (nb.get(0, k0), nb.get(0, k1)),
                // My East ghost comes from the neighbor's first column.
                Side::JHi => (nb.get(k0, 0), nb.get(k1, 0)),
                Side::JLo => (nb.get(k0, nb.nx() - 1), nb.get(k1, nb.nx() - 1)),
            };
            out.push(v0 * (1.0 - frac) + v1 * frac);
        }
        true
    }

    /// Resample this field onto a new refinement map of the same layout
    /// (the AMR driver's solution transfer after re-meshing).
    pub fn project_to(&self, new_map: &RefinementMap) -> CompositeField {
        assert_eq!(
            self.map.layout(),
            new_map.layout(),
            "project_to requires identical layouts"
        );
        let layout = *self.map.layout();
        let mut out = CompositeField::zeros(new_map);
        for idx in 0..layout.num_patches() {
            let old = &self.patches[idx];
            let (h2, w2) = layout.patch_extent(new_map.level_at(idx));
            let (h1, w1) = (old.ny(), old.nx());
            if (h1, w1) == (h2, w2) {
                out.patches[idx] = old.clone();
                continue;
            }
            out.patches[idx] = Grid2::from_fn(h2, w2, |i, j| {
                if h2 < h1 && h1 % h2 == 0 && w1 % w2 == 0 {
                    // Exact block average on coarsening.
                    let by = h1 / h2;
                    let bx = w1 / w2;
                    let mut acc = 0.0;
                    for di in 0..by {
                        for dj in 0..bx {
                            acc += old.get(i * by + di, j * bx + dj);
                        }
                    }
                    acc / (by * bx) as f64
                } else {
                    let fi = (i as f64 + 0.5) * h1 as f64 / h2 as f64 - 0.5;
                    let fj = (j as f64 + 0.5) * w1 as f64 / w2 as f64 - 0.5;
                    old.sample_bilinear(fi, fj)
                }
            });
        }
        out
    }

    /// L2 norm over all active cells.
    pub fn l2_norm(&self) -> f64 {
        self.patches
            .iter()
            .map(|p| {
                let n = p.l2_norm();
                n * n
            })
            .sum::<f64>()
            .sqrt()
    }

    /// Cell-count-weighted mean over the field.
    pub fn mean(&self) -> f64 {
        let total: f64 = self
            .patches
            .iter()
            .map(|p| p.as_slice().iter().sum::<f64>())
            .sum();
        total / self.active_cells() as f64
    }

    /// True if all cells are finite.
    pub fn all_finite(&self) -> bool {
        self.patches.iter().all(|p| p.all_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PatchLayout;

    fn layout() -> PatchLayout {
        PatchLayout::new(2, 2, 4, 4)
    }

    fn mixed_map() -> RefinementMap {
        RefinementMap::from_levels(layout(), vec![0, 1, 2, 0], 3)
    }

    #[test]
    fn zeros_allocates_per_level() {
        let f = CompositeField::zeros(&mixed_map());
        assert_eq!(f.patch(0, 0).ny(), 4);
        assert_eq!(f.patch(0, 1).ny(), 8);
        assert_eq!(f.patch(1, 0).ny(), 16);
        assert_eq!(f.active_cells(), 16 + 64 + 256 + 16);
    }

    #[test]
    fn uniform_roundtrip_constant() {
        let g = Grid2::full(8, 8, 2.5);
        let f = CompositeField::from_uniform(&mixed_map(), &g, 0);
        let back = f.to_uniform(0);
        assert!(back.max_abs_diff(&g) < 1e-12);
    }

    #[test]
    fn from_uniform_linear_field_preserved() {
        // A bilinear field is exactly representable under both restriction
        // and prolongation away from clamped edges.
        let g = Grid2::from_fn(8, 8, |i, j| i as f64 + 2.0 * j as f64);
        let f = CompositeField::from_uniform(&mixed_map(), &g, 0);
        // Level-0 patch (0,0) should be the exact subgrid.
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(f.patch(0, 0).get(i, j), g.get(i, j));
            }
        }
        // Level-2 patch (1,0): interior cell centers follow the same linear
        // function scaled to fine coordinates.
        let p = f.patch(1, 0);
        let v_interior = p.get(8, 8); // center-ish
        let expect = (4.0 + (8.0 + 0.5) / 4.0 - 0.5) + 2.0 * ((8.0 + 0.5) / 4.0 - 0.5);
        assert!(
            (v_interior - expect).abs() < 1e-9,
            "{v_interior} vs {expect}"
        );
    }

    #[test]
    fn ghost_line_same_level() {
        let map = RefinementMap::uniform(layout(), 0, 3);
        let mut f = CompositeField::zeros(&map);
        // Neighbor to the east of (0,0) is (0,1); fill its first column.
        for i in 0..4 {
            f.patch_mut(0, 1).set(i, 0, (i + 1) as f64);
        }
        let g = f.ghost_line(0, 0, Side::JHi).unwrap();
        assert_eq!(g, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn ghost_line_fine_to_coarse_and_back() {
        // Patch (0,0) level 0 (4 cells/side), patch (0,1) level 1 (8).
        let map = RefinementMap::from_levels(layout(), vec![0, 1, 0, 0], 3);
        let mut f = CompositeField::zeros(&map);
        for i in 0..8 {
            f.patch_mut(0, 1).set(i, 0, i as f64);
        }
        // Coarse patch sees averaged/interpolated fine values.
        let g = f.ghost_line(0, 0, Side::JHi).unwrap();
        assert_eq!(g.len(), 4);
        // Ghost cell k center maps to fine position (k+0.5)*2 - 0.5 = 2k+0.5.
        for (k, &v) in g.iter().enumerate() {
            assert!((v - (2.0 * k as f64 + 0.5)).abs() < 1e-12, "k={k}: {v}");
        }
        // Fine patch sees interpolated coarse values.
        for i in 0..4 {
            f.patch_mut(0, 0).set(i, 3, (10 * (i + 1)) as f64);
        }
        let g2 = f.ghost_line(0, 1, Side::JLo).unwrap();
        assert_eq!(g2.len(), 8);
        // First fine ghost cell center: t = 0.5*4/8 - 0.5 = -0.25 -> clamped 0.
        assert_eq!(g2[0], 10.0);
        // Middle cells interpolate between coarse neighbors.
        assert!(g2[3] > 10.0 && g2[3] < 40.0);
    }

    #[test]
    fn ghost_line_none_at_domain_boundary() {
        let f = CompositeField::zeros(&mixed_map());
        assert!(f.ghost_line(0, 0, Side::ILo).is_none());
        assert!(f.ghost_line(0, 0, Side::JLo).is_none());
        assert!(f.ghost_line(1, 1, Side::IHi).is_none());
        assert!(f.ghost_line(1, 1, Side::JHi).is_none());
        assert!(f.ghost_line(0, 0, Side::JHi).is_some());
    }

    #[test]
    fn ghost_line_into_reuses_the_buffer() {
        let mut f = CompositeField::zeros(&mixed_map());
        for (k, x) in f.patch_mut(1, 0).as_mut_slice().iter_mut().enumerate() {
            *x = k as f64;
        }
        let mut buf = Vec::new();
        for (py, px) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            for side in Side::ALL {
                let found = f.ghost_line_into(py, px, side, &mut buf);
                assert_eq!(found.then(|| buf.clone()), f.ghost_line(py, px, side));
                assert!(found || buf.is_empty());
            }
        }
    }

    #[test]
    fn project_preserves_constant() {
        let f = CompositeField::constant(&mixed_map(), 7.0);
        let finer = RefinementMap::from_levels(layout(), vec![1, 2, 3, 1], 3);
        let g = f.project_to(&finer);
        for py in 0..2 {
            for px in 0..2 {
                for &v in g.patch(py, px).as_slice() {
                    assert!((v - 7.0).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn project_coarsening_preserves_mean() {
        let map_fine = RefinementMap::uniform(layout(), 2, 3);
        let mut f = CompositeField::zeros(&map_fine);
        for idx in 0..4 {
            let p = f.patch_at_mut(idx);
            for i in 0..16 {
                for j in 0..16 {
                    p.set(i, j, ((i * 31 + j * 7 + idx) % 11) as f64);
                }
            }
        }
        let mean_before = f.mean();
        let g = f.project_to(&RefinementMap::uniform(layout(), 0, 3));
        assert!((g.mean() - mean_before).abs() < 1e-12);
    }
}
