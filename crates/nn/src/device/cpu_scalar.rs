//! The reference CPU backend: plain scalar loops.
//!
//! [`ScalarMicro`] accumulates each output element in `k`-ascending
//! order with one rounding per multiply and per add. It is the semantic
//! baseline the SIMD backend is proptest-bounded against
//! (`tests/device_equivalence.rs`).
//!
//! Two more kinds of code live here, and neither is a [`crate::Device`]
//! method:
//!
//! * [`conv2d_forward_direct`], the direct loop nest: the numerical
//!   reference the GEMM driver is tested against. No layer calls it.
//! * The pool and softmax bodies, called as free functions by
//!   [`crate::MaxPool2d`] and [`crate::SpatialSoftmax`] and their
//!   frozen twins. Their cost is loads and stores, not arithmetic, so a
//!   vector plane buys nothing; one body serves every backend. They stay in this file so the
//!   `no-alloc-in-hot-path` lint covers them.

use adarnet_tensor::{Shape, Tensor};

use crate::device::driver::{ragged_rows_body, MicroGemm, RowBlock};
use crate::kernels::{conv_out_extent, MR, NR};
use crate::F;

/// Zero-sized handle for the scalar micro-kernels.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScalarMicro;

impl MicroGemm for ScalarMicro {
    const TILE: &'static str = "scalar_4x16";
    const TILE_COLS: usize = NR;

    #[inline]
    fn full_rows(&self, blk: &mut RowBlock<'_>, cols: usize) {
        for j0 in (0..cols).step_by(NR) {
            let mut acc = [[0.0f32; NR]; MR];
            // Indexed, not zipped, on purpose: this spelling compiles to
            // packed SSE2 multiplies and adds, the zip-of-zips one to
            // sixty-four scalar ones at a third of the speed.
            for (k, crow) in blk.colp.chunks_exact(blk.cn).enumerate() {
                let ctile = &crow[j0..j0 + NR];
                let wk = &blk.wp[k * MR..(k + 1) * MR];
                for (m, am) in acc.iter_mut().enumerate() {
                    let wv = wk[m];
                    for (a, &c) in am.iter_mut().zip(ctile) {
                        *a += wv * c;
                    }
                }
            }
            for (m, am) in acc.iter().enumerate() {
                let orow = &mut blk.out[m * blk.ld + blk.c0 + j0..][..NR];
                for (o, a) in orow.iter_mut().zip(am) {
                    *o = a + blk.bias[m];
                }
            }
        }
    }

    #[inline]
    fn ragged_rows(&self, blk: &mut RowBlock<'_>, rows: usize, j0: usize, jn: usize) {
        ragged_rows_body(blk, rows, j0, jn);
    }

    #[inline]
    fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        let mut acc = 0.0f32;
        for (dv, cv) in a.iter().zip(b) {
            acc += dv * cv;
        }
        acc
    }
}

/// Direct 7-loop stride-1 convolution, one pass over `(batch,
/// out-channel)` planes: the numerical reference for
/// [`crate::Device::conv2d_forward_packed`] in tests. No layer calls it.
pub fn conv2d_forward_direct(
    x: &Tensor<F>,
    w: &Tensor<F>,
    bias: &Tensor<F>,
    pad: usize,
) -> Tensor<F> {
    let (n, ic, h, wd) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
    let (oc, wic, kh, kw) = (w.dim(0), w.dim(1), w.dim(2), w.dim(3));
    assert_eq!(
        ic, wic,
        "conv2d: input channels {ic} != weight channels {wic}"
    );
    assert!(
        bias.is_empty() || bias.len() == oc,
        "conv2d: bias length {} != out channels {oc}",
        bias.len()
    );
    let oh = conv_out_extent(h, kh, pad);
    let ow = conv_out_extent(wd, kw, pad);
    assert!(
        oh > 0 && ow > 0,
        "conv2d: kernel {kh}x{kw} larger than padded input"
    );

    // Every output element is written below, so scratch (not zeroed)
    // pooled memory is safe.
    let mut y = Tensor::<F>::pooled_scratch(Shape::d4(n, oc, oh, ow));
    let xs = x.as_slice();
    let ws = w.as_slice();
    let bs = bias.as_slice();
    let plane = oh * ow;

    y.as_mut_slice()
        .chunks_mut(plane)
        .enumerate()
        .for_each(|(p, yplane)| {
            let ni = p / oc;
            let oci = p % oc;
            let b = if bs.is_empty() { 0.0 } else { bs[oci] };
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = b;
                    for ici in 0..ic {
                        let wbase = ((oci * ic + ici) * kh) * kw;
                        let xbase = (ni * ic + ici) * h * wd;
                        for ky in 0..kh {
                            let iy = oy + ky;
                            if iy < pad || iy >= h + pad {
                                continue;
                            }
                            let iy = iy - pad;
                            let wrow = wbase + ky * kw;
                            let xrow = xbase + iy * wd;
                            for kx in 0..kw {
                                let ix = ox + kx;
                                if ix < pad || ix >= wd + pad {
                                    continue;
                                }
                                acc += xs[xrow + (ix - pad)] * ws[wrow + kx];
                            }
                        }
                    }
                    yplane[oy * ow + ox] = acc;
                }
            }
        });
    y
}

/// Non-overlapping max pool (pool size == stride); `record` is called
/// with `(output index, flat input argmax)` for each output element (a
/// no-op closure on the inference path).
pub(crate) fn max_pool2d_forward(
    x: &Tensor<F>,
    pool_h: usize,
    pool_w: usize,
    mut record: impl FnMut(usize, usize),
) -> Tensor<F> {
    assert_eq!(x.shape().rank(), 4, "MaxPool2d expects NCHW input");
    let (n, c, h, w) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
    assert!(
        h % pool_h == 0 && w % pool_w == 0,
        "pool {pool_h}x{pool_w} does not tile {h}x{w}"
    );
    let (oh, ow) = (h / pool_h, w / pool_w);
    let mut y = Tensor::<F>::pooled_scratch(Shape::d4(n, c, oh, ow));
    let xs = x.as_slice();
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = F::NEG_INFINITY;
                    let mut best_idx = 0usize;
                    for py in 0..pool_h {
                        let row = base + (oy * pool_h + py) * w + ox * pool_w;
                        for px in 0..pool_w {
                            let v = xs[row + px];
                            if v > best {
                                best = v;
                                best_idx = row + px;
                            }
                        }
                    }
                    let oidx = ((ni * c + ci) * oh + oy) * ow + ox;
                    y.as_mut_slice()[oidx] = best;
                    record(oidx, best_idx);
                }
            }
        }
    }
    y
}

/// Softmax across everything but the batch axis, max-shifted with an
/// f64 partition sum. The caller keeps the finite guard.
pub(crate) fn spatial_softmax_forward(x: &Tensor<F>) -> Tensor<F> {
    assert!(x.shape().rank() >= 1, "softmax needs at least rank 1");
    let n = x.dim(0);
    let per = x.len() / n.max(1);
    let mut y = x.pooled_copy();
    for b in 0..n {
        let sl = &mut y.as_mut_slice()[b * per..(b + 1) * per];
        // Standard max-shift for numerical stability.
        let m = sl.iter().copied().fold(F::NEG_INFINITY, F::max);
        let mut z = 0.0f64;
        for v in sl.iter_mut() {
            *v = (*v - m).exp();
            z += *v as f64;
        }
        let inv = (1.0 / z) as F;
        for v in sl.iter_mut() {
            *v *= inv;
        }
    }
    y
}

/// Softmax backward: `dx_i = y_i * (g_i - sum_j g_j y_j)` per batch
/// item with an f64 inner product, `y` being the cached forward output.
pub(crate) fn spatial_softmax_backward(y: &Tensor<F>, grad_out: &Tensor<F>) -> Tensor<F> {
    assert!(
        y.shape().same(grad_out.shape()),
        "softmax grad shape mismatch"
    );
    let n = y.dim(0);
    let per = y.len() / n.max(1);
    let mut dx = grad_out.pooled_copy();
    for b in 0..n {
        let ys = &y.as_slice()[b * per..(b + 1) * per];
        let gs = &mut dx.as_mut_slice()[b * per..(b + 1) * per];
        // dx_i = y_i * (g_i - sum_j g_j y_j)
        let dot: f64 = ys
            .iter()
            .zip(gs.iter())
            .map(|(&yi, &gi)| (yi * gi) as f64)
            .sum();
        let dot = dot as F;
        for (g, &yi) in gs.iter_mut().zip(ys) {
            *g = yi * (*g - dot);
        }
    }
    dx
}
