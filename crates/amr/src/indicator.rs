//! Refinement indicators and marking strategies.
//!
//! The baseline AMR solver in the paper is *feature-based* (§4.3): it
//! refines cells where the gradient of the eddy viscosity is highest, up to
//! refinement level 4. [`gradient_indicator`] computes the per-patch maximum
//! gradient magnitude of a [`CompositeField`]; [`mark_threshold`]
//! converts indicator values into refinement marks.

use crate::{CompositeField, Side};

/// Per-patch maximum gradient magnitude `max |∇f|` of a composite field.
///
/// `dx0`, `dy0` are the level-0 cell sizes; a patch at level `n` uses
/// `dx0 / 2^n`. Gradients are central in the patch interior, one-sided at
/// patch borders using ghost values where a neighbor exists.
pub fn gradient_indicator(field: &CompositeField, dy0: f64, dx0: f64) -> Vec<f64> {
    let layout = *field.map().layout();
    let mut out = Vec::with_capacity(layout.num_patches());
    for py in 0..layout.npy {
        for px in 0..layout.npx {
            let idx = layout.idx(py, px);
            let level = field.map().level_at(idx);
            let p = field.patch(py, px);
            let dy = dy0 / (1u64 << level) as f64;
            let dx = dx0 / (1u64 << level) as f64;
            let (ny, nx) = (p.ny(), p.nx());

            let ghost_n = field.ghost_line(py, px, Side::ILo);
            let ghost_s = field.ghost_line(py, px, Side::IHi);
            let ghost_e = field.ghost_line(py, px, Side::JHi);
            let ghost_w = field.ghost_line(py, px, Side::JLo);

            // Value lookup with ghost fallback; at true domain boundaries we
            // mirror the interior cell (zero-gradient), which never creates a
            // spurious maximum.
            let at = |i: i64, j: i64| -> f64 {
                if i < 0 {
                    match &ghost_n {
                        Some(g) => g[j.clamp(0, nx as i64 - 1) as usize],
                        None => p.get(0, j.clamp(0, nx as i64 - 1) as usize),
                    }
                } else if i >= ny as i64 {
                    match &ghost_s {
                        Some(g) => g[j.clamp(0, nx as i64 - 1) as usize],
                        None => p.get(ny - 1, j.clamp(0, nx as i64 - 1) as usize),
                    }
                } else if j < 0 {
                    match &ghost_w {
                        Some(g) => g[i as usize],
                        None => p.get(i as usize, 0),
                    }
                } else if j >= nx as i64 {
                    match &ghost_e {
                        Some(g) => g[i as usize],
                        None => p.get(i as usize, nx - 1),
                    }
                } else {
                    p.get(i as usize, j as usize)
                }
            };

            let mut best = 0.0f64;
            for i in 0..ny as i64 {
                for j in 0..nx as i64 {
                    let gy = (at(i + 1, j) - at(i - 1, j)) / (2.0 * dy);
                    let gx = (at(i, j + 1) - at(i, j - 1)) / (2.0 * dx);
                    let mag = (gx * gx + gy * gy).sqrt();
                    if mag > best {
                        best = mag;
                    }
                }
            }
            out.push(best);
        }
    }
    out
}

/// Mark every patch whose indicator exceeds `theta * max(indicator)`.
/// `theta` in `(0, 1)`; returns flat patch indices.
pub fn mark_threshold(indicator: &[f64], theta: f64) -> Vec<usize> {
    assert!((0.0..=1.0).contains(&theta), "theta must be in [0, 1]");
    let max = indicator.iter().copied().fold(0.0f64, f64::max);
    if max <= 0.0 {
        return Vec::new();
    }
    let cut = theta * max;
    indicator
        .iter()
        .enumerate()
        .filter(|(_, &v)| v > cut)
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompositeField, PatchLayout, RefinementMap};

    #[test]
    fn flat_field_has_zero_indicator() {
        let map = RefinementMap::uniform(PatchLayout::new(2, 2, 4, 4), 0, 3);
        let f = CompositeField::constant(&map, 3.0);
        let ind = gradient_indicator(&f, 1.0, 1.0);
        assert!(ind.iter().all(|&v| v.abs() < 1e-12), "{ind:?}");
    }

    #[test]
    fn step_in_one_patch_dominates() {
        let map = RefinementMap::uniform(PatchLayout::new(2, 2, 4, 4), 0, 3);
        let mut f = CompositeField::zeros(&map);
        // Steep variation in patch (1,1) only.
        for i in 0..4 {
            for j in 0..4 {
                f.patch_mut(1, 1).set(i, j, if j >= 2 { 10.0 } else { 0.0 });
            }
        }
        let ind = gradient_indicator(&f, 1.0, 1.0);
        let idx = map.layout().idx(1, 1);
        let best = ind
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(best, idx, "{ind:?}");
    }

    #[test]
    fn linear_ramp_gradient_value() {
        // f = 2x on a single patch: |grad| = 2/dx... with dx=0.5, df/dx per
        // cell = 1.0 value/cell / 0.5 = 2.0.
        let map = RefinementMap::uniform(PatchLayout::new(1, 1, 8, 8), 0, 3);
        let mut f = CompositeField::zeros(&map);
        for i in 0..8 {
            for j in 0..8 {
                f.patch_mut(0, 0).set(i, j, j as f64);
            }
        }
        let ind = gradient_indicator(&f, 0.5, 0.5);
        assert!((ind[0] - 2.0).abs() < 1e-9, "{ind:?}");
    }

    #[test]
    fn finer_patch_uses_smaller_spacing() {
        // The same physical linear ramp on a finer patch must give the same
        // physical gradient (value per cell halves, dx halves).
        let layout = PatchLayout::new(1, 2, 4, 4);
        let map = RefinementMap::from_levels(layout, vec![0, 1], 3);
        let mut f = CompositeField::zeros(&map);
        // Cell-centered samples of f(x) = x: coarse cell j center x=j+0.5,
        // fine cell j center x = 4 + (j+0.5)/2.
        for i in 0..4 {
            for j in 0..4 {
                f.patch_mut(0, 0).set(i, j, j as f64 + 0.5);
            }
        }
        for i in 0..8 {
            for j in 0..8 {
                f.patch_mut(0, 1).set(i, j, 4.0 + (j as f64 + 0.5) / 2.0);
            }
        }
        let ind = gradient_indicator(&f, 1.0, 1.0);
        // Both patches see |grad| = 1 in their interiors; the level-jump
        // interface ghost adds a bounded first-order error.
        assert!((ind[0] - 1.0).abs() < 0.3, "{ind:?}");
        assert!((ind[1] - 1.0).abs() < 0.3, "{ind:?}");
    }

    #[test]
    fn threshold_marking() {
        let ind = vec![0.1, 0.5, 1.0, 0.05];
        assert_eq!(mark_threshold(&ind, 0.4), vec![1, 2]);
        assert_eq!(mark_threshold(&ind, 0.99), vec![2]);
        assert!(mark_threshold(&[0.0, 0.0], 0.5).is_empty());
    }
}
