//! Per-patch refinement levels.

use crate::PatchLayout;

/// A refinement decision: one level per patch.
///
/// This is both the output of ADARNet's ranker (one-shot) and the state the
/// iterative AMR driver evolves. Levels are bounded by `max_level`
/// (4 resolutions, i.e. `max_level = 3`, in the paper).
///
/// ```
/// use adarnet_amr::{PatchLayout, RefinementMap};
///
/// let layout = PatchLayout::paper(); // 64x256 LR field, 16x16 patches
/// let mut map = RefinementMap::uniform(layout, 0, 3);
/// map.set_level(0, 0, 3); // refine one patch 64x in cells
/// assert_eq!(map.active_cells(), 63 * 256 + 256 * 64);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefinementMap {
    layout: PatchLayout,
    max_level: u8,
    levels: Vec<u8>,
}

impl RefinementMap {
    /// A map with every patch at the same level.
    pub fn uniform(layout: PatchLayout, level: u8, max_level: u8) -> Self {
        assert!(level <= max_level, "level {level} exceeds max {max_level}");
        RefinementMap {
            layout,
            max_level,
            levels: vec![level; layout.num_patches()],
        }
    }

    /// A map from explicit per-patch levels (row-major).
    pub fn from_levels(layout: PatchLayout, levels: Vec<u8>, max_level: u8) -> Self {
        assert_eq!(levels.len(), layout.num_patches(), "level count mismatch");
        assert!(
            levels.iter().all(|&l| l <= max_level),
            "a level exceeds max_level {max_level}"
        );
        RefinementMap {
            layout,
            max_level,
            levels,
        }
    }

    /// The patch layout.
    pub fn layout(&self) -> &PatchLayout {
        &self.layout
    }

    /// Maximum permitted level.
    pub fn max_level(&self) -> u8 {
        self.max_level
    }

    /// Level of patch `(py, px)`.
    #[inline]
    pub fn level(&self, py: usize, px: usize) -> u8 {
        self.levels[self.layout.idx(py, px)]
    }

    /// Level by flat patch index.
    #[inline]
    pub fn level_at(&self, idx: usize) -> u8 {
        self.levels[idx]
    }

    /// Set the level of patch `(py, px)`.
    pub fn set_level(&mut self, py: usize, px: usize, level: u8) {
        assert!(
            level <= self.max_level,
            "level {level} exceeds max {}",
            self.max_level
        );
        let idx = self.layout.idx(py, px);
        self.levels[idx] = level;
    }

    /// Row-major slice of all levels.
    pub fn levels(&self) -> &[u8] {
        &self.levels
    }

    /// Total active cells across all patches.
    ///
    /// This is the quantity that drives ADARNet's memory/time advantage
    /// over uniform SR: a uniform map at `max_level` has
    /// `coarse_cells * 4^max_level` cells, while an adaptive map only pays
    /// `4^n` where it refined.
    pub fn active_cells(&self) -> usize {
        self.levels
            .iter()
            .map(|&l| self.layout.patch_cells(l))
            .sum()
    }

    /// Fraction of active cells relative to uniform refinement at
    /// `max_level` (in `(0, 1]`).
    pub fn active_fraction(&self) -> f64 {
        let uniform =
            self.layout.num_patches() as f64 * self.layout.patch_cells(self.max_level) as f64;
        self.active_cells() as f64 / uniform
    }

    /// Increase the level of every patch whose flat index is in `marks`,
    /// clamping at `max_level`. Returns how many patches actually changed.
    pub fn refine_marked(&mut self, marks: &[usize]) -> usize {
        let mut changed = 0;
        for &idx in marks {
            assert!(idx < self.levels.len(), "mark index {idx} out of range");
            if self.levels[idx] < self.max_level {
                self.levels[idx] += 1;
                changed += 1;
            }
        }
        changed
    }

    /// Limit neighbor level differences to at most `max_jump` by raising
    /// coarser neighbors (the classical 2:1 balance when `max_jump = 1`).
    /// Returns the number of patches raised.
    pub fn balance(&mut self, max_jump: u8) -> usize {
        assert!(max_jump >= 1, "max_jump must be at least 1");
        let (npy, npx) = (self.layout.npy, self.layout.npx);
        let mut raised = 0;
        // Fixed-point iteration; terminates because levels only increase and
        // are bounded by max_level.
        loop {
            let mut any = false;
            for py in 0..npy {
                for px in 0..npx {
                    let l = self.level(py, px);
                    let neighbors = [
                        (py.wrapping_sub(1), px),
                        (py + 1, px),
                        (py, px.wrapping_sub(1)),
                        (py, px + 1),
                    ];
                    for (ny, nx) in neighbors {
                        if ny >= npy || nx >= npx {
                            continue;
                        }
                        let nl = self.level(ny, nx);
                        if nl > l + max_jump {
                            let idx = self.layout.idx(py, px);
                            self.levels[idx] = nl - max_jump;
                            raised += 1;
                            any = true;
                        }
                    }
                }
            }
            if !any {
                break;
            }
        }
        raised
    }

    /// Render the map as an ASCII grid of level digits (one row of patch
    /// digits per patch row), as used by the Figure 9 harness.
    pub fn ascii(&self) -> String {
        let mut out = String::with_capacity((self.layout.npx + 1) * self.layout.npy);
        for py in 0..self.layout.npy {
            for px in 0..self.layout.npx {
                out.push(char::from_digit(self.level(py, px) as u32, 10).unwrap_or('?'));
            }
            out.push('\n');
        }
        out
    }

    /// Count of patches at each level `0..=max_level`.
    pub fn level_histogram(&self) -> Vec<usize> {
        let mut h = vec![0usize; self.max_level as usize + 1];
        for &l in &self.levels {
            h[l as usize] += 1;
        }
        h
    }

    /// Fraction of patches on which two maps agree exactly, the metric we
    /// use to quantify Fig. 9's "excellent agreement" claim.
    pub fn agreement(&self, other: &RefinementMap) -> f64 {
        assert_eq!(self.layout, other.layout, "layout mismatch");
        let same = self
            .levels
            .iter()
            .zip(&other.levels)
            .filter(|(a, b)| a == b)
            .count();
        same as f64 / self.levels.len() as f64
    }

    /// Mean absolute level difference between two maps (0 = identical).
    pub fn mean_level_distance(&self, other: &RefinementMap) -> f64 {
        assert_eq!(self.layout, other.layout, "layout mismatch");
        let total: f64 = self
            .levels
            .iter()
            .zip(&other.levels)
            .map(|(&a, &b)| (a as f64 - b as f64).abs())
            .sum();
        total / self.levels.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> PatchLayout {
        PatchLayout::new(2, 3, 4, 4)
    }

    #[test]
    fn uniform_map_active_cells() {
        let m = RefinementMap::uniform(layout(), 0, 3);
        assert_eq!(m.active_cells(), 6 * 16);
        let m3 = RefinementMap::uniform(layout(), 3, 3);
        assert_eq!(m3.active_cells(), 6 * 16 * 64);
        assert!((m.active_fraction() - 1.0 / 64.0).abs() < 1e-12);
        assert_eq!(m3.active_fraction(), 1.0);
    }

    #[test]
    fn refine_marked_clamps_at_max() {
        let mut m = RefinementMap::uniform(layout(), 3, 3);
        assert_eq!(m.refine_marked(&[0, 1]), 0); // already at max
        let mut m0 = RefinementMap::uniform(layout(), 0, 3);
        assert_eq!(m0.refine_marked(&[0, 5]), 2);
        assert_eq!(m0.level_at(0), 1);
        assert_eq!(m0.level_at(5), 1);
        assert_eq!(m0.level_at(2), 0);
    }

    #[test]
    fn balance_limits_jumps() {
        let mut m = RefinementMap::from_levels(layout(), vec![3, 0, 0, 0, 0, 0], 3);
        let raised = m.balance(1);
        assert!(raised > 0);
        // Neighbors of patch (0,0): (0,1) and (1,0) must now be >= 2.
        assert!(m.level(0, 1) >= 2);
        assert!(m.level(1, 0) >= 2);
        // And their neighbors >= 1.
        assert!(m.level(0, 2) >= 1);
        assert!(m.level(1, 1) >= 1);
    }

    #[test]
    fn ascii_rendering() {
        let m = RefinementMap::from_levels(layout(), vec![0, 1, 2, 3, 2, 1], 3);
        assert_eq!(m.ascii(), "012\n321\n");
    }

    #[test]
    fn histogram_and_agreement() {
        let a = RefinementMap::from_levels(layout(), vec![0, 1, 2, 3, 2, 1], 3);
        let b = RefinementMap::from_levels(layout(), vec![0, 1, 2, 3, 1, 1], 3);
        assert_eq!(a.level_histogram(), vec![1, 2, 2, 1]);
        assert!((a.agreement(&b) - 5.0 / 6.0).abs() < 1e-12);
        assert!((a.mean_level_distance(&b) - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "exceeds max")]
    fn set_level_checks_bound() {
        let mut m = RefinementMap::uniform(layout(), 0, 2);
        m.set_level(0, 0, 3);
    }
}
