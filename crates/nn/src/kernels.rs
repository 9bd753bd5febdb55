//! Backend-independent convolution plumbing, shared by [`crate::Conv2d`],
//! [`crate::ConvTranspose2d`] and the frozen layers.
//!
//! Layouts: activations `(N, C, H, W)`, weights `(OC, IC, KH, KW)`, bias
//! `(OC)`. Stride is 1 with symmetric zero padding `pad` (the paper's DNN
//! uses stride 1 and "same" 3x3 convolutions everywhere). Output spatial
//! size is `H + 2*pad - KH + 1`.
//!
//! The kernel *bodies* and their entry points live in [`crate::device`]:
//! the backend-generic GEMM driver in [`crate::device::driver`], the
//! scalar micro-kernel and the reference loop nest in
//! [`crate::device::cpu_scalar`], and the AVX2+FMA and AVX-512
//! micro-kernels in [`crate::device::cpu_simd`]. This module keeps what
//! is backend-independent — tiling constants, the im2col fill, weight
//! packing, the deconv flip-transpose.
//!
//! One conv path, at every extent: im2col + register-tiled,
//! cache-blocked micro-kernel (see [`MR`]/[`NR`]/[`NC`]) over weight
//! A-panels packed into the k-major, [`MR`]-row layout the micro-kernel
//! consumes (see [`pack_weight_panels`]), entered through
//! [`Device::conv2d_forward_packed`]. Frozen models
//! (`crate::packed::PackedConvWeights`) pack at construction and serve
//! every call from the shared panels; the mutable layers pack into
//! pooled scratch once per call ([`Device::conv2d_forward_percall`]).
//! Either way the driver reads the same panels, so training `forward`
//! and frozen `infer` agree bitwise on a backend. The direct loop nest
//! ([`conv2d_forward_direct`]) is the numerical reference the driver is
//! held to within float tolerance (proptest-verified in
//! `tests/kernel_equivalence.rs`); no layer runs it.
//!
//! Memory discipline: every scratch buffer (im2col panels, per-call
//! weight panels) and every output tensor comes from
//! the size-classed pool in [`adarnet_tensor::workspace`] — after
//! warmup the hot path performs no heap allocation (enforced by the
//! `no-alloc-in-hot-path` repo lint rule and asserted end-to-end by
//! `crates/core/tests/zero_alloc.rs`).
//!
//! [`Device::conv2d_forward_packed`]: crate::device::Device::conv2d_forward_packed
//! [`Device::conv2d_forward_percall`]: crate::device::Device::conv2d_forward_percall
//! [`conv2d_forward_direct`]: crate::device::cpu_scalar::conv2d_forward_direct

use adarnet_tensor::{Shape, Tensor};

use crate::F;

/// Output spatial extent for stride-1 convolution.
#[inline]
pub fn conv_out_extent(in_extent: usize, k: usize, pad: usize) -> usize {
    in_extent + 2 * pad + 1 - k
}

/// Register-tile rows: output channels accumulated simultaneously, and
/// the row-block height of the packed weight panels. Every backend's
/// tile is `MR` rows by its own width (16 columns scalar and AVX2, 64
/// AVX-512: sixteen zmm accumulators), and an `MR × k_len` weight slab
/// (≤ 9 KiB at the decoder's widest 64-ch 3×3 layer) stays L1-resident
/// per tile sweep.
pub const MR: usize = 4;
/// Narrowest register-tile width in output pixels (two 256-bit vectors
/// of f32) and the granule of the remainder rule: a column panel's
/// first `cn - cn % NR` columns run register tiles (64-wide ones first
/// where the backend has them), the rest the ragged body
/// (`device::driver::ragged_rows_body`). Every model extent has `o_len`
/// divisible by 16, so ragged *columns* only occur on irregular test
/// shapes; ragged *rows* do occur in the model — the scorer's last conv
/// has `oc = 1 < MR` — and `device::tile_tests` lists the path of each
/// of the ten model convs.
pub const NR: usize = 16;
/// Column-panel width (output pixels) processed per im2col fill. Bounds
/// the im2col scratch to `k_len × NC` floats (≈ 576 KiB at the widest
/// decoder layer — L2-resident while `oc/MR` row sweeps reuse it); a
/// single bin-3 patch (16384 px) is 64 panels of four 64-wide tiles.
pub const NC: usize = 256;

/// Fill one im2col row segment for column range `[c0, c0 + cn)`.
///
/// Row `r = (ici, ky, kx)` of the im2col matrix holds, at column
/// `c = oy*ow + ox`, the input sample `x[ici, oy+ky-pad, ox+kx-pad]`
/// (zero outside the input). The fill is segment-wise: per output row,
/// a zero prefix, one contiguous `copy_from_slice` for the valid span,
/// and a zero suffix — no per-element branching. Shared by every
/// backend's drivers (the fill is a memory transform, not arithmetic).
#[allow(clippy::too_many_arguments)]
pub(crate) fn im2col_row_segment(
    dst: &mut [f32],
    xplane: &[f32],
    ky: usize,
    kx: usize,
    h: usize,
    wd: usize,
    ow: usize,
    pad: usize,
    c0: usize,
    cn: usize,
) {
    debug_assert_eq!(dst.len(), cn);
    debug_assert_eq!(xplane.len(), h * wd);
    // Valid ox range for this kx: 0 <= ox + kx - pad < wd.
    let ox_hi = (wd + pad).saturating_sub(kx).min(ow);
    let ox_lo = pad.saturating_sub(kx).min(ox_hi);
    let mut c = c0;
    let mut off = 0usize;
    while off < cn {
        let oy = c / ow;
        let ox = c % ow;
        let row_take = (ow - ox).min(cn - off);
        let seg = &mut dst[off..off + row_take];
        let iy = oy + ky;
        if iy < pad || iy >= h + pad {
            seg.fill(0.0);
        } else {
            let xrow = (iy - pad) * wd;
            // Clamp the valid span to this segment's [ox, ox+row_take).
            let lo = ox_lo.max(ox).min(ox + row_take);
            let hi = ox_hi.max(ox).min(ox + row_take);
            seg[..lo - ox].fill(0.0);
            if hi > lo {
                let src = xrow + lo + kx - pad;
                seg[lo - ox..hi - ox].copy_from_slice(&xplane[src..src + (hi - lo)]);
            }
            seg[hi - ox..].fill(0.0);
        }
        off += row_take;
        c += row_take;
    }
}

/// Length in floats of the packed A-panel buffer for an `oc × k_len`
/// weight matrix: `oc.div_ceil(MR)` row blocks of `k_len × MR` floats,
/// edge rows zero-padded.
#[inline]
pub fn packed_panels_len(oc: usize, k_len: usize) -> usize {
    oc.div_ceil(MR) * k_len * MR
}

/// Pack the weight matrix `ws` (`oc × k_len`, row-major — a conv weight
/// tensor viewed as `(OC, IC*KH*KW)`) into the k-major, [`MR`]-blocked
/// A-panel layout the packed micro-kernel reads:
///
/// `dst[((blk * k_len) + k) * MR + m] = ws[(blk*MR + m) * k_len + k]`
///
/// with rows past `oc` zero-filled. Each reduction step `k` of a row
/// block then reads one contiguous `MR`-float slab instead of `MR`
/// strided rows. `dst` must be exactly [`packed_panels_len`] long; the
/// caller owns the (one-time) allocation so this file stays hot-path
/// allocation-free. The layout is backend-independent: both the scalar
/// and the SIMD micro-kernels consume the same panels.
pub fn pack_weight_panels(ws: &[F], oc: usize, k_len: usize, dst: &mut [F]) {
    assert_eq!(ws.len(), oc * k_len, "pack: weight matrix size mismatch");
    assert_eq!(
        dst.len(),
        packed_panels_len(oc, k_len),
        "pack: destination size mismatch"
    );
    for (blk, dblock) in dst.chunks_exact_mut(k_len * MR).enumerate() {
        let oc0 = blk * MR;
        for (k, dk) in dblock.chunks_exact_mut(MR).enumerate() {
            for (m, slot) in dk.iter_mut().enumerate() {
                *slot = if oc0 + m < oc {
                    ws[(oc0 + m) * k_len + k]
                } else {
                    0.0
                };
            }
        }
    }
}

/// Borrowed view of a pre-packed conv weight: the packed A-panels plus
/// the shape metadata the forward pass needs. Constructed by
/// `crate::packed::PackedConvWeights`; plain conv layout `(OC, IC, KH,
/// KW)` semantics.
#[derive(Clone, Copy)]
pub struct PackedPanels<'a> {
    /// Packed panel data, [`packed_panels_len`]`(oc, ic*kh*kw)` floats.
    pub data: &'a [F],
    /// Output channels.
    pub oc: usize,
    /// Input channels.
    pub ic: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
}

/// Flip a weight tensor spatially and transpose its channel axes:
/// `(A, B, KH, KW)` -> `(B, A, KH, KW)` with both kernel axes reversed.
///
/// This is the exact transform under which stride-1 transposed convolution
/// equals ordinary convolution, which is how [`crate::ConvTranspose2d`] is
/// implemented. The result is pool-backed; recycle it after use on hot
/// paths.
pub fn flip_transpose_weights(w: &Tensor<F>) -> Tensor<F> {
    let (a, b, kh, kw) = (w.dim(0), w.dim(1), w.dim(2), w.dim(3));
    let mut out = Tensor::<F>::pooled_scratch(Shape::d4(b, a, kh, kw));
    for ai in 0..a {
        for bi in 0..b {
            for ky in 0..kh {
                for kx in 0..kw {
                    let v = w.get4(ai, bi, ky, kx);
                    out.set4(bi, ai, kh - 1 - ky, kw - 1 - kx, v);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::cpu_scalar::conv2d_forward_direct as reference;
    use crate::device::Device;

    fn seq_tensor(shape: Shape) -> Tensor<F> {
        let n = shape.numel();
        Tensor::from_vec(shape, (0..n).map(|i| (i as F * 0.1).sin()).collect())
    }

    /// The packed GEMM on the scalar backend, packing `w` per call.
    fn packed(x: &Tensor<F>, w: &Tensor<F>, bias: &Tensor<F>, pad: usize) -> Tensor<F> {
        Device::CpuScalar.conv2d_forward_percall(x, w, bias, pad)
    }

    #[test]
    fn identity_kernel_passes_through() {
        // 1x1 kernel with weight 1 and zero pad is the identity.
        let x = seq_tensor(Shape::d4(2, 3, 5, 7));
        let mut w = Tensor::<F>::zeros(Shape::d4(3, 3, 1, 1));
        for c in 0..3 {
            w.set4(c, c, 0, 0, 1.0);
        }
        let y = reference(&x, &w, &Tensor::zeros(Shape::d1(0)), 0);
        assert_eq!(y, x);
        let yp = packed(&x, &w, &Tensor::zeros(Shape::d1(0)), 0);
        assert_eq!(yp, x);
    }

    #[test]
    fn same_padding_preserves_extent() {
        let x = seq_tensor(Shape::d4(1, 4, 16, 16));
        let w = seq_tensor(Shape::d4(8, 4, 3, 3));
        let y = reference(&x, &w, &Tensor::zeros(Shape::d1(8)), 1);
        assert_eq!(y.shape(), &Shape::d4(1, 8, 16, 16));
    }

    #[test]
    fn known_3x3_convolution_value() {
        // Single channel, all-ones 3x3 kernel: interior output = 3x3 window sum.
        let x = Tensor::from_fn_2d(4, 4, |y, x| (y * 4 + x) as F).reshape(Shape::d4(1, 1, 4, 4));
        let w = Tensor::full(Shape::d4(1, 1, 3, 3), 1.0f32);
        let none = Tensor::zeros(Shape::d1(0));
        for y in [reference(&x, &w, &none, 1), packed(&x, &w, &none, 1)] {
            // Interior point (1,1): sum of x[0..3, 0..3] = 0+1+2+4+5+6+8+9+10 = 45.
            assert_eq!(y.get4(0, 0, 1, 1), 45.0);
            // Corner (0,0): sum of x[0..2, 0..2] = 0+1+4+5 = 10 (zero padding).
            assert_eq!(y.get4(0, 0, 0, 0), 10.0);
        }
    }

    #[test]
    fn bias_is_added() {
        let x = Tensor::<F>::zeros(Shape::d4(1, 1, 2, 2));
        let w = Tensor::<F>::zeros(Shape::d4(2, 1, 3, 3));
        let b = Tensor::from_vec(Shape::d1(2), vec![1.5, -2.0]);
        for y in [reference(&x, &w, &b, 1), packed(&x, &w, &b, 1)] {
            assert_eq!(y.get4(0, 0, 1, 1), 1.5);
            assert_eq!(y.get4(0, 1, 0, 0), -2.0);
        }
    }

    /// The adjoint test: for linear op A, <A x, y> == <x, A^T y> for all
    /// x, y. A is the reference forward; A^T is what the layers' backward
    /// runs, the packed GEMM over the flip-transposed weights (the
    /// deconvolution identity), on a sub-tile field and a ragged one.
    #[test]
    fn backward_input_is_adjoint_of_forward() {
        for (n, h, wd) in [(1usize, 3usize, 3usize), (2, 6, 5)] {
            let x = seq_tensor(Shape::d4(n, 3, h, wd));
            let w = seq_tensor(Shape::d4(4, 3, 3, 3));
            let none = Tensor::zeros(Shape::d1(0));
            let y = reference(&x, &w, &none, 1);
            let dy = seq_tensor(y.shape().clone());
            let dx = packed(&dy, &flip_transpose_weights(&w), &none, 1);
            assert_eq!(dx.shape(), x.shape());
            let lhs = y.dot(&dy);
            let rhs = x.dot(&dx);
            assert!(
                (lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()),
                "adjoint mismatch at {h}x{wd}: {lhs} vs {rhs}"
            );
        }
    }

    #[test]
    fn weight_gradient_matches_finite_difference() {
        let x = seq_tensor(Shape::d4(1, 2, 4, 4));
        let mut w = seq_tensor(Shape::d4(2, 2, 3, 3));
        let b = Tensor::<F>::zeros(Shape::d1(2));
        let pad = 1;
        // Loss = sum(y); so dy = ones.
        let y = reference(&x, &w, &b, pad);
        let dy = Tensor::full(y.shape().clone(), 1.0f32);
        let mut dw = Tensor::zeros(w.shape().clone());
        let mut db = Tensor::zeros(Shape::d1(2));
        Device::CpuScalar.conv2d_backward_params(&dy, &x, pad, &mut dw, &mut db);

        let eps = 1e-2f32;
        for idx in [0usize, 7, 17, 35] {
            let orig = w.as_slice()[idx];
            w.as_mut_slice()[idx] = orig + eps;
            let lp = reference(&x, &w, &b, pad).sum();
            w.as_mut_slice()[idx] = orig - eps;
            let lm = reference(&x, &w, &b, pad).sum();
            w.as_mut_slice()[idx] = orig;
            let num = ((lp - lm) / (2.0 * eps as f64)) as f32;
            let ana = dw.as_slice()[idx];
            assert!(
                (num - ana).abs() < 1e-2 * (1.0 + ana.abs()),
                "dw[{idx}]: numeric {num} vs analytic {ana}"
            );
        }
        // Bias gradient = number of output pixels per channel.
        assert_eq!(db.as_slice()[0], (4 * 4) as f32);
    }

    #[test]
    fn packed_path_matches_direct_path() {
        // Shapes chosen to exercise full MR x NR tiles, ragged row blocks
        // (oc % MR != 0), ragged column tiles (o_len % NR != 0), and
        // multi-panel widths (o_len > NC, the decoder-scale last row,
        // whose k_len = 72 reduction earns the wider tolerance).
        for (n, ic, oc, h, wd, k, pad, tol) in [
            (
                1usize, 3usize, 4usize, 7usize, 9usize, 3usize, 1usize, 1e-4f32,
            ),
            (2, 1, 2, 5, 5, 3, 1, 1e-4),
            (1, 2, 3, 8, 6, 1, 0, 1e-4),
            (1, 4, 8, 16, 16, 3, 1, 1e-4),
            (3, 2, 5, 13, 4, 3, 1, 1e-4),
            (2, 8, 16, 40, 40, 3, 1, 1e-3),
        ] {
            let x = seq_tensor(Shape::d4(n, ic, h, wd));
            let w = seq_tensor(Shape::d4(oc, ic, k, k));
            let b = seq_tensor(Shape::d1(oc));
            let direct = reference(&x, &w, &b, pad);
            let gemm = packed(&x, &w, &b, pad);
            assert_eq!(direct.shape(), gemm.shape());
            for (a, g) in direct.as_slice().iter().zip(gemm.as_slice()) {
                assert!(
                    (a - g).abs() < tol * (1.0 + a.abs()),
                    "packed mismatch: {a} vs {g} (cfg {n},{ic},{oc},{h},{wd},{k},{pad})"
                );
            }
        }
    }

    #[test]
    fn pack_zero_fills_ragged_row_block() {
        // oc = 5 -> second block has 3 dead rows that must read as 0.
        let w = seq_tensor(Shape::d4(5, 2, 3, 3));
        let k_len = 2 * 3 * 3;
        let mut packed = vec![1.0f32; packed_panels_len(5, k_len)];
        pack_weight_panels(w.as_slice(), 5, k_len, &mut packed);
        for k in 0..k_len {
            for m in 1..MR {
                assert_eq!(packed[(k_len + k) * MR + m], 0.0);
            }
        }
    }

    #[test]
    fn flip_transpose_is_involution() {
        let w = seq_tensor(Shape::d4(3, 5, 3, 3));
        let back = flip_transpose_weights(&flip_transpose_weights(&w));
        assert_eq!(back, w);
    }
}
