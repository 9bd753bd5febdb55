//! Shape bookkeeping for dynamically-ranked tensors.

use serde::{Deserialize, Serialize};

/// The extents of a tensor along each axis, row-major (last axis fastest).
///
/// Rank is dynamic but in practice the workspace uses rank 1 (vectors),
/// rank 2 (fields / matrices), rank 3 (CHW images), and rank 4 (NCHW
/// batches).
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape(pub Vec<usize>);

impl Shape {
    /// Shape of a rank-1 tensor.
    pub fn d1(n: usize) -> Self {
        Shape(vec![n])
    }
    /// Shape of a rank-2 tensor (rows, cols).
    pub fn d2(h: usize, w: usize) -> Self {
        Shape(vec![h, w])
    }
    /// Shape of a rank-3 tensor (channels, rows, cols).
    pub fn d3(c: usize, h: usize, w: usize) -> Self {
        Shape(vec![c, h, w])
    }
    /// Shape of a rank-4 tensor (batch, channels, rows, cols).
    pub fn d4(n: usize, c: usize, h: usize, w: usize) -> Self {
        Shape(vec![n, c, h, w])
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements (product of extents; 1 for rank 0).
    pub fn numel(&self) -> usize {
        self.0.iter().product()
    }

    /// Extent along axis `i`. Panics if out of range.
    pub fn dim(&self, i: usize) -> usize {
        self.0[i]
    }

    /// Flat row-major offset of a multi-index. Panics (debug) on rank or
    /// bounds mismatch.
    #[inline]
    pub fn offset(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.0.len(), "index rank mismatch");
        let mut off = 0usize;
        let mut stride = 1usize;
        for ax in (0..self.0.len()).rev() {
            debug_assert!(idx[ax] < self.0[ax], "index out of bounds on axis {ax}");
            off += idx[ax] * stride;
            stride *= self.0[ax];
        }
        off
    }

    /// True if both shapes have the same extents.
    pub fn same(&self, other: &Shape) -> bool {
        self.0 == other.0
    }
}

impl std::fmt::Debug for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<usize>> for Shape {
    fn from(v: Vec<usize>) -> Self {
        Shape(v)
    }
}

impl From<&[usize]> for Shape {
    fn from(v: &[usize]) -> Self {
        Shape(v.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_and_rank() {
        let s = Shape::d4(2, 4, 16, 16);
        assert_eq!(s.rank(), 4);
        assert_eq!(s.numel(), 2 * 4 * 16 * 16);
    }

    #[test]
    fn offset_is_row_major() {
        let s = Shape::d3(3, 4, 5);
        let st = [20, 5, 1];
        for c in 0..3 {
            for y in 0..4 {
                for x in 0..5 {
                    assert_eq!(s.offset(&[c, y, x]), c * st[0] + y * st[1] + x * st[2]);
                }
            }
        }
    }

    #[test]
    fn empty_axis_numel_zero() {
        let s = Shape::d2(0, 7);
        assert_eq!(s.numel(), 0);
    }

    #[test]
    fn debug_format() {
        assert_eq!(format!("{:?}", Shape::d3(4, 64, 256)), "[4x64x256]");
    }
}
