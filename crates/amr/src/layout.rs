//! Patch-grid geometry.

/// Geometry of the patch tiling: `npy x npx` patches, each `ph x pw` cells
/// at the coarse (level-0) resolution.
///
/// The paper's configuration is a 64x256 LR field tiled by 16x16 patches,
/// i.e. `PatchLayout::new(4, 16, 16, 16)` — 64 patches total (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PatchLayout {
    /// Patch rows (vertical direction).
    pub npy: usize,
    /// Patch columns (horizontal direction).
    pub npx: usize,
    /// Coarse cells per patch, vertically.
    pub ph: usize,
    /// Coarse cells per patch, horizontally.
    pub pw: usize,
}

impl PatchLayout {
    /// Create a layout. All extents must be positive.
    pub fn new(npy: usize, npx: usize, ph: usize, pw: usize) -> Self {
        assert!(
            npy > 0 && npx > 0 && ph > 0 && pw > 0,
            "all layout extents must be positive"
        );
        PatchLayout { npy, npx, ph, pw }
    }

    /// The paper's layout: 64x256 LR field, 16x16 patches (§4.2).
    pub fn paper() -> Self {
        PatchLayout::new(4, 16, 16, 16)
    }

    /// Layout for an `h x w` coarse field with `ph x pw` patches. Panics if
    /// the patch size does not tile the field.
    pub fn for_field(h: usize, w: usize, ph: usize, pw: usize) -> Self {
        assert!(
            h.is_multiple_of(ph) && w.is_multiple_of(pw),
            "patch size {ph}x{pw} does not tile field {h}x{w}"
        );
        PatchLayout::new(h / ph, w / pw, ph, pw)
    }

    /// Total number of patches.
    pub fn num_patches(&self) -> usize {
        self.npy * self.npx
    }

    /// Coarse field height (level-0 cells).
    pub fn coarse_h(&self) -> usize {
        self.npy * self.ph
    }

    /// Coarse field width (level-0 cells).
    pub fn coarse_w(&self) -> usize {
        self.npx * self.pw
    }

    /// Flat patch index of patch `(py, px)`, row-major.
    #[inline]
    pub fn idx(&self, py: usize, px: usize) -> usize {
        debug_assert!(py < self.npy && px < self.npx);
        py * self.npx + px
    }

    /// Inverse of [`PatchLayout::idx`].
    #[inline]
    pub fn coords(&self, idx: usize) -> (usize, usize) {
        debug_assert!(idx < self.num_patches());
        (idx / self.npx, idx % self.npx)
    }

    /// Cell extent of a patch at refinement level `n`: `(ph * 2^n, pw * 2^n)`.
    #[inline]
    pub fn patch_extent(&self, level: u8) -> (usize, usize) {
        (self.ph << level, self.pw << level)
    }

    /// Cells in one patch at level `n` (the paper's `4^n x` area factor).
    #[inline]
    pub fn patch_cells(&self, level: u8) -> usize {
        let (h, w) = self.patch_extent(level);
        h * w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_layout_has_64_patches() {
        let l = PatchLayout::paper();
        assert_eq!(l.num_patches(), 64);
        assert_eq!(l.coarse_h(), 64);
        assert_eq!(l.coarse_w(), 256);
    }

    #[test]
    fn idx_coords_roundtrip() {
        let l = PatchLayout::new(3, 5, 8, 8);
        for py in 0..3 {
            for px in 0..5 {
                assert_eq!(l.coords(l.idx(py, px)), (py, px));
            }
        }
    }

    #[test]
    fn extents_scale_by_power_of_two() {
        let l = PatchLayout::new(2, 2, 16, 16);
        assert_eq!(l.patch_extent(0), (16, 16));
        assert_eq!(l.patch_extent(3), (128, 128));
        assert_eq!(l.patch_cells(3), 64 * 256); // 64x area of level 0
    }

    #[test]
    fn for_field_divides() {
        let l = PatchLayout::for_field(64, 256, 16, 16);
        assert_eq!(l, PatchLayout::paper());
    }

    #[test]
    #[should_panic(expected = "does not tile")]
    fn for_field_rejects_nondividing() {
        let _ = PatchLayout::for_field(60, 256, 16, 16);
    }
}
