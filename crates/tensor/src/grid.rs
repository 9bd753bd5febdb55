//! `Grid2` — a 2-D scalar field with `(i, j)` indexing for the CFD/AMR side.
//!
//! Separate from [`crate::Tensor`] because solver code benefits from a
//! fixed-rank type: `(i, j)` = `(row, col)` = `(y, x)` with no rank checks
//! in inner loops, plus field-specific helpers (interior iteration,
//! finite-difference-friendly neighbor access).

use crate::Element;

/// A dense row-major 2-D field. `ny` rows by `nx` columns; `(i, j)` indexes
/// row `i` (y-direction) and column `j` (x-direction).
#[derive(Clone, PartialEq)]
pub struct Grid2<T: Element> {
    ny: usize,
    nx: usize,
    data: Vec<T>,
}

impl<T: Element> Grid2<T> {
    /// A field of zeros.
    pub fn zeros(ny: usize, nx: usize) -> Self {
        Grid2 {
            ny,
            nx,
            data: vec![T::ZERO; ny * nx],
        }
    }

    /// A field filled with `value`.
    pub fn full(ny: usize, nx: usize, value: T) -> Self {
        Grid2 {
            ny,
            nx,
            data: vec![value; ny * nx],
        }
    }

    /// Wrap an existing row-major buffer. Panics on length mismatch.
    pub fn from_vec(ny: usize, nx: usize, data: Vec<T>) -> Self {
        assert_eq!(data.len(), ny * nx, "grid data length mismatch");
        Grid2 { ny, nx, data }
    }

    /// Build from a closure over `(i, j)`.
    pub fn from_fn(ny: usize, nx: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(ny * nx);
        for i in 0..ny {
            for j in 0..nx {
                data.push(f(i, j));
            }
        }
        Grid2 { ny, nx, data }
    }

    /// Rows (y extent).
    #[inline(always)]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Columns (x extent).
    #[inline(always)]
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Total cell count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the field has no cells.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Value at `(i, j)`.
    #[inline(always)]
    pub fn get(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.ny && j < self.nx);
        self.data[i * self.nx + j]
    }

    /// Set the value at `(i, j)`.
    #[inline(always)]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        debug_assert!(i < self.ny && j < self.nx);
        self.data[i * self.nx + j] = v;
    }

    /// Immutable view of the backing buffer (row-major).
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable view of the backing buffer (row-major).
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// One full row as a slice.
    pub fn row(&self, i: usize) -> &[T] {
        &self.data[i * self.nx..(i + 1) * self.nx]
    }

    /// Fill with a constant.
    pub fn fill(&mut self, v: T) {
        self.data.iter_mut().for_each(|x| *x = v);
    }

    /// Elementwise maximum absolute difference against a same-size field.
    pub fn max_abs_diff(&self, other: &Grid2<T>) -> f64 {
        assert_eq!(
            (self.ny, self.nx),
            (other.ny, other.nx),
            "grid size mismatch"
        );
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a.to_f64() - b.to_f64()).abs())
            .fold(0.0, f64::max)
    }

    /// L2 norm of the field, accumulated in f64.
    pub fn l2_norm(&self) -> f64 {
        self.data
            .iter()
            .map(|v| {
                let x = v.to_f64();
                x * x
            })
            .sum::<f64>()
            .sqrt()
    }

    /// Root-mean-square of the field (0 for empty fields).
    pub fn rms(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.l2_norm() / (self.data.len() as f64).sqrt()
        }
    }

    /// True if every cell is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Largest value in the field. Panics on empty fields.
    pub fn max_value(&self) -> T {
        assert!(!self.data.is_empty(), "max of empty grid");
        self.data
            .iter()
            .copied()
            .fold(self.data[0], |a, b| a.max(b))
    }

    /// Smallest value in the field. Panics on empty fields.
    pub fn min_value(&self) -> T {
        assert!(!self.data.is_empty(), "min of empty grid");
        self.data
            .iter()
            .copied()
            .fold(self.data[0], |a, b| a.min(b))
    }

    /// Bilinear sample at fractional index coordinates `(fi, fj)`, clamped
    /// to the field bounds. `fi`/`fj` are in cell-index units, not meters.
    pub fn sample_bilinear(&self, fi: f64, fj: f64) -> T {
        let fi = fi.clamp(0.0, (self.ny - 1) as f64);
        let fj = fj.clamp(0.0, (self.nx - 1) as f64);
        let i0 = fi.floor() as usize;
        let j0 = fj.floor() as usize;
        let i1 = (i0 + 1).min(self.ny - 1);
        let j1 = (j0 + 1).min(self.nx - 1);
        let di = T::from_f64(fi - i0 as f64);
        let dj = T::from_f64(fj - j0 as f64);
        let one = T::ONE;
        let v00 = self.get(i0, j0);
        let v01 = self.get(i0, j1);
        let v10 = self.get(i1, j0);
        let v11 = self.get(i1, j1);
        (one - di) * ((one - dj) * v00 + dj * v01) + di * ((one - dj) * v10 + dj * v11)
    }

    /// Restrict to half resolution by 2x2 cell averaging. Extents must be
    /// even.
    pub fn restrict_half(&self) -> Grid2<T> {
        assert!(
            self.ny.is_multiple_of(2) && self.nx.is_multiple_of(2),
            "restrict_half needs even extents, got {}x{}",
            self.ny,
            self.nx
        );
        let quarter = T::from_f64(0.25);
        Grid2::from_fn(self.ny / 2, self.nx / 2, |i, j| {
            (self.get(2 * i, 2 * j)
                + self.get(2 * i, 2 * j + 1)
                + self.get(2 * i + 1, 2 * j)
                + self.get(2 * i + 1, 2 * j + 1))
                * quarter
        })
    }

    /// Prolong to double resolution by piecewise-bilinear interpolation at
    /// the new cell centers.
    pub fn prolong_double(&self) -> Grid2<T> {
        let (ny2, nx2) = (self.ny * 2, self.nx * 2);
        Grid2::from_fn(ny2, nx2, |i, j| {
            // Fine cell center in coarse index coordinates.
            let fi = (i as f64 + 0.5) / 2.0 - 0.5;
            let fj = (j as f64 + 0.5) / 2.0 - 0.5;
            self.sample_bilinear(fi, fj)
        })
    }
}

impl<T: Element> std::fmt::Debug for Grid2<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Grid2({}x{})", self.ny, self.nx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let mut g = Grid2::<f64>::zeros(3, 4);
        g.set(2, 3, 7.0);
        assert_eq!(g.get(2, 3), 7.0);
        assert_eq!(g.row(2)[3], 7.0);
    }

    #[test]
    fn from_fn_layout() {
        let g = Grid2::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(g.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn bilinear_exact_at_nodes_and_midpoints() {
        let g = Grid2::from_fn(2, 2, |i, j| (i * 2 + j) as f64); // 0 1 / 2 3
        assert_eq!(g.sample_bilinear(0.0, 0.0), 0.0);
        assert_eq!(g.sample_bilinear(1.0, 1.0), 3.0);
        assert_eq!(g.sample_bilinear(0.5, 0.5), 1.5);
        // Clamped outside the domain.
        assert_eq!(g.sample_bilinear(-5.0, -5.0), 0.0);
        assert_eq!(g.sample_bilinear(9.0, 9.0), 3.0);
    }

    #[test]
    fn restrict_preserves_mean() {
        let g = Grid2::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let r = g.restrict_half();
        assert_eq!(r.ny(), 2);
        let mean_fine: f64 = g.as_slice().iter().sum::<f64>() / 16.0;
        let mean_coarse: f64 = r.as_slice().iter().sum::<f64>() / 4.0;
        assert!((mean_fine - mean_coarse).abs() < 1e-12);
    }

    #[test]
    fn prolong_restrict_roundtrip_on_linear_field() {
        // Bilinear prolongation reproduces linear fields exactly away from
        // the clamped boundary; restriction then recovers them.
        let g = Grid2::from_fn(8, 8, |i, j| i as f64 + 2.0 * j as f64);
        let fine = g.prolong_double();
        let back = fine.restrict_half();
        for i in 1..7 {
            for j in 1..7 {
                assert!(
                    (back.get(i, j) - g.get(i, j)).abs() < 1e-12,
                    "mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn norms() {
        let g = Grid2::from_vec(1, 2, vec![3.0f64, 4.0]);
        assert_eq!(g.l2_norm(), 5.0);
        assert!((g.rms() - 5.0 / 2.0f64.sqrt()).abs() < 1e-12);
        assert_eq!(g.max_value(), 4.0);
        assert_eq!(g.min_value(), 3.0);
    }

    #[test]
    fn finite_check() {
        let mut g = Grid2::<f32>::zeros(2, 2);
        assert!(g.all_finite());
        g.set(0, 1, f32::INFINITY);
        assert!(!g.all_finite());
    }

    #[test]
    #[should_panic(expected = "even extents")]
    fn restrict_rejects_odd() {
        let _ = Grid2::<f64>::zeros(3, 4).restrict_half();
    }
}
