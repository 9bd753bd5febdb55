//! Bicubic resampling (Catmull-Rom, a = -0.5) and its exact adjoint.
//!
//! ADARNet uses bicubic interpolation in two places: to refine each binned
//! patch to its target resolution before the decoder (§3.1), and to
//! downsample HR patches back to LR for the PDE-residual loss matching
//! (§3.2). Both directions are linear operators; the adjoint here is the
//! exact transpose of the forward gather, so the loss gradients that flow
//! through resampling are exact (verified by the inner-product test below).

use adarnet_tensor::{Shape, Tensor};

use crate::F;

/// Catmull-Rom cubic kernel weight at offset `t` (a = -0.5).
#[inline]
fn cubic_weight(t: f64) -> f64 {
    const A: f64 = -0.5;
    let t = t.abs();
    if t <= 1.0 {
        ((A + 2.0) * t - (A + 3.0)) * t * t + 1.0
    } else if t < 2.0 {
        ((A * t - 5.0 * A) * t + 8.0 * A) * t - 4.0 * A
    } else {
        0.0
    }
}

/// The 4 source taps and weights for one output coordinate.
///
/// Half-pixel-center mapping: `src = (dst + 0.5) * scale - 0.5`. Taps are
/// clamped to the valid range, which reproduces edge pixels (standard
/// image-resize behavior).
#[inline]
fn taps(dst: usize, scale: f64, src_len: usize) -> ([usize; 4], [f64; 4]) {
    let src = (dst as f64 + 0.5) * scale - 0.5;
    let base = src.floor();
    let frac = src - base;
    let mut idx = [0usize; 4];
    let mut wgt = [0f64; 4];
    for k in 0..4 {
        let p = base as i64 + k as i64 - 1;
        idx[k] = p.clamp(0, src_len as i64 - 1) as usize;
        wgt[k] = cubic_weight(frac - (k as f64 - 1.0));
    }
    // Catmull-Rom weights sum to 1 exactly in exact arithmetic; renormalize
    // to kill rounding drift so constants resize to constants.
    let s: f64 = wgt.iter().sum();
    for w in &mut wgt {
        *w /= s;
    }
    (idx, wgt)
}

/// Bicubic-resize a rank-3 `(C, H, W)` tensor to `(C, out_h, out_w)`.
///
/// Two separable passes per channel. The horizontal pass resamples each
/// source row some output row reads to `out_w` f64 values; the vertical
/// pass folds four of those rows into one output row over contiguous
/// slices. Each sum runs in the fused 16-tap gather's order (`kx`, then
/// `ky`, both from `0.0`), so the result is the gather's bit for bit —
/// the `separable_matches_16_tap_gather_bitwise` table below holds it
/// there, and with it patch-cache keys and the trainer's loss.
pub fn bicubic_resize3(x: &Tensor<F>, out_h: usize, out_w: usize) -> Tensor<F> {
    assert_eq!(
        x.shape().rank(),
        3,
        "bicubic_resize3 expects rank-3 (C,H,W)"
    );
    assert!(out_h > 0 && out_w > 0, "target extents must be positive");
    let (c, h, w) = (x.dim(0), x.dim(1), x.dim(2));
    let scale_y = h as f64 / out_h as f64;
    let scale_x = w as f64 / out_w as f64;

    let ytaps: Vec<_> = (0..out_h).map(|oy| taps(oy, scale_y, h)).collect();
    let xtaps: Vec<_> = (0..out_w).map(|ox| taps(ox, scale_x, w)).collect();
    // Downsampling skips source rows; resample only the ones read.
    let mut row_read = vec![false; h];
    for (yi, _) in &ytaps {
        for &r in yi {
            row_read[r] = true;
        }
    }

    // Every output element is written below, so unspecified pooled
    // contents are fine — this runs once per refined patch per inference.
    let mut out = Tensor::<F>::pooled_scratch(Shape::d3(c, out_h, out_w));
    let mut rows = vec![0.0f64; h * out_w];
    for (src, dst) in x
        .as_slice()
        .chunks_exact(h * w)
        .zip(out.as_mut_slice().chunks_exact_mut(out_h * out_w))
    {
        for (r, row) in rows.chunks_exact_mut(out_w).enumerate() {
            if !row_read[r] {
                continue;
            }
            let src_row = &src[r * w..(r + 1) * w];
            for (racc, (xi, xw)) in row.iter_mut().zip(&xtaps) {
                let mut acc = 0.0f64;
                for kx in 0..4 {
                    acc += xw[kx] * src_row[xi[kx]] as f64;
                }
                *racc = acc;
            }
        }
        for (dst_row, (yi, yw)) in dst.chunks_exact_mut(out_w).zip(&ytaps) {
            let [r0, r1, r2, r3] = yi.map(|r| &rows[r * out_w..(r + 1) * out_w]);
            for ((((o, p0), p1), p2), p3) in dst_row.iter_mut().zip(r0).zip(r1).zip(r2).zip(r3) {
                let mut acc = 0.0f64;
                acc += yw[0] * p0;
                acc += yw[1] * p1;
                acc += yw[2] * p2;
                acc += yw[3] * p3;
                *o = acc as F;
            }
        }
    }
    out
}

/// Exact adjoint of [`bicubic_resize3`]: scatter `dy` `(C, OH, OW)` back to
/// the source shape `(C, in_h, in_w)`.
pub fn bicubic_resize3_adjoint(dy: &Tensor<F>, in_h: usize, in_w: usize) -> Tensor<F> {
    assert_eq!(dy.shape().rank(), 3, "bicubic adjoint expects rank-3");
    let (c, oh, ow) = (dy.dim(0), dy.dim(1), dy.dim(2));
    let scale_y = in_h as f64 / oh as f64;
    let scale_x = in_w as f64 / ow as f64;
    let ytaps: Vec<_> = (0..oh).map(|oy| taps(oy, scale_y, in_h)).collect();
    let xtaps: Vec<_> = (0..ow).map(|ox| taps(ox, scale_x, in_w)).collect();

    let mut dx = Tensor::<F>::pooled_zeroed(Shape::d3(c, in_h, in_w));
    let dys = dy.as_slice();
    let dxs = dx.as_mut_slice();
    for ci in 0..c {
        let obase = ci * oh * ow;
        let ibase = ci * in_h * in_w;
        for (oy, (yi, yw)) in ytaps.iter().enumerate() {
            for (ox, (xi, xw)) in xtaps.iter().enumerate() {
                let g = dys[obase + oy * ow + ox] as f64;
                for ky in 0..4 {
                    let row = ibase + yi[ky] * in_w;
                    let gy = g * yw[ky];
                    for kx in 0..4 {
                        dxs[row + xi[kx]] += (gy * xw[kx]) as F;
                    }
                }
            }
        }
    }
    dx
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fused 16-tap gather `bicubic_resize3` was before it went
    /// separable, kept as the bitwise reference. `yw_order` permutes the
    /// vertical weights; anything but `[0, 1, 2, 3]` is a seeded bug.
    fn gather16(x: &Tensor<F>, out_h: usize, out_w: usize, yw_order: [usize; 4]) -> Tensor<F> {
        let (c, h, w) = (x.dim(0), x.dim(1), x.dim(2));
        let ytaps: Vec<_> = (0..out_h)
            .map(|oy| taps(oy, h as f64 / out_h as f64, h))
            .collect();
        let xtaps: Vec<_> = (0..out_w)
            .map(|ox| taps(ox, w as f64 / out_w as f64, w))
            .collect();
        let mut out = Tensor::<F>::zeros(Shape::d3(c, out_h, out_w));
        let xs = x.as_slice();
        let os = out.as_mut_slice();
        for ci in 0..c {
            let xbase = ci * h * w;
            let obase = ci * out_h * out_w;
            for (oy, (yi, yw)) in ytaps.iter().enumerate() {
                for (ox, (xi, xw)) in xtaps.iter().enumerate() {
                    let mut acc = 0.0f64;
                    for ky in 0..4 {
                        let row = xbase + yi[ky] * w;
                        let mut racc = 0.0f64;
                        for kx in 0..4 {
                            racc += xw[kx] * xs[row + xi[kx]] as f64;
                        }
                        acc += yw[yw_order[ky]] * racc;
                    }
                    os[obase + oy * out_w + ox] = acc as F;
                }
            }
        }
        out
    }

    /// Seeded, sign-mixed, non-smooth values with a few exact zeros of
    /// both signs, so a dropped `0.0 +` or a reordered sum shows.
    fn seeded(c: usize, h: usize, w: usize) -> Tensor<F> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ ((c * 31 + h) * 31 + w) as u64;
        let data = (0..c * h * w)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                match i % 17 {
                    5 => 0.0,
                    11 => -0.0,
                    _ => ((state >> 40) as F / (1u64 << 23) as F - 1.0) * 3.0,
                }
            })
            .collect();
        Tensor::from_vec(Shape::d3(c, h, w), data)
    }

    fn bits(t: &Tensor<F>) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn separable_matches_16_tap_gather_bitwise() {
        // (source h, w) -> (target h, w): the decoder's refinements, the
        // identity, a non-square non-integer ratio, the loss's
        // downsampling direction, and sources with every tap clamped.
        let table = [
            ((16, 16), (32, 32)),
            ((16, 16), (64, 64)),
            ((16, 16), (128, 128)),
            ((8, 8), (16, 16)),
            ((8, 8), (64, 64)),
            ((16, 16), (16, 16)),
            ((7, 9), (21, 30)),
            ((128, 128), (16, 16)),
            ((64, 64), (8, 8)),
            ((1, 1), (4, 5)),
            ((2, 3), (8, 6)),
        ];
        for ((h, w), (oh, ow)) in table {
            for c in 1..=5 {
                let x = seeded(c, h, w);
                let got = bicubic_resize3(&x, oh, ow);
                let want = gather16(&x, oh, ow, [0, 1, 2, 3]);
                assert_eq!(got.shape(), want.shape());
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{c}x{h}x{w} -> {oh}x{ow}: separable differs from the gather"
                );
            }
        }
    }

    #[test]
    fn bitwise_table_catches_swapped_vertical_weights() {
        let x = seeded(3, 16, 16);
        let got = bicubic_resize3(&x, 64, 64);
        let bugged = gather16(&x, 64, 64, [1, 0, 2, 3]);
        assert_ne!(bits(&got), bits(&bugged), "a swapped yw pair must show");
    }

    #[test]
    fn kernel_partition_of_unity_at_integers() {
        // For any fractional offset f, the 4 tap weights sum to 1.
        for i in 0..=10 {
            let f = i as f64 / 10.0;
            let s: f64 = (0..4).map(|k| cubic_weight(f - (k as f64 - 1.0))).sum();
            assert!((s - 1.0).abs() < 1e-12, "f={f}: sum={s}");
        }
    }

    #[test]
    fn constant_field_resizes_to_constant() {
        let x = Tensor::<F>::full(Shape::d3(2, 4, 4), 3.5);
        let y = bicubic_resize3(&x, 16, 16);
        for &v in y.as_slice() {
            assert!((v - 3.5).abs() < 1e-5, "{v}");
        }
    }

    #[test]
    fn upscale_2x_shape() {
        let x = Tensor::<F>::zeros(Shape::d3(4, 16, 16));
        let y = bicubic_resize3(&x, 32, 32);
        assert_eq!(y.shape(), &Shape::d3(4, 32, 32));
    }

    #[test]
    fn linear_ramp_preserved_in_interior() {
        // Bicubic interpolation reproduces linear functions exactly away
        // from clamped edges.
        let x = Tensor::from_fn_2d(8, 8, |_, j| j as F).reshape(Shape::d3(1, 8, 8));
        let y = bicubic_resize3(&x, 16, 16);
        // Fine column ox maps to source coord (ox + 0.5)/2 - 0.5.
        for ox in 4..12 {
            let expect = (ox as f64 + 0.5) / 2.0 - 0.5;
            let got = y.get3(0, 8, ox) as f64;
            assert!((got - expect).abs() < 1e-4, "ox={ox}: {got} vs {expect}");
        }
    }

    #[test]
    fn adjoint_inner_product_identity() {
        // <A x, y> == <x, A^T y> for random-ish x, y.
        let x = Tensor::from_vec(
            Shape::d3(2, 5, 6),
            (0..60).map(|i| ((i * 37 % 11) as F - 5.0) * 0.3).collect(),
        );
        let ax = bicubic_resize3(&x, 12, 9);
        let y = Tensor::from_vec(
            ax.shape().clone(),
            (0..ax.len())
                .map(|i| ((i * 13 % 7) as F - 3.0) * 0.5)
                .collect(),
        );
        let aty = bicubic_resize3_adjoint(&y, 5, 6);
        let lhs = ax.dot(&y);
        let rhs = x.dot(&aty);
        assert!(
            (lhs - rhs).abs() < 1e-4 * (1.0 + lhs.abs()),
            "adjoint mismatch: {lhs} vs {rhs}"
        );
    }

    #[test]
    fn downsample_then_upsample_approximates_identity_on_smooth_fields() {
        let x = Tensor::from_fn_2d(16, 16, |i, j| {
            ((i as F) * 0.2).sin() + ((j as F) * 0.15).cos()
        })
        .reshape(Shape::d3(1, 16, 16));
        let down = bicubic_resize3(&x, 8, 8);
        let up = bicubic_resize3(&down, 16, 16);
        assert!(up.mse(&x) < 1e-3, "mse={}", up.mse(&x));
    }
}
