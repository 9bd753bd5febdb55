//! The backend-generic GEMM driver: the panel decomposition, im2col
//! fills and row-block sweep that every CPU backend shares, with the
//! register tiles abstracted behind [`MicroGemm`].
//!
//! There is one forward driver, over **packed** weight panels
//! ([`crate::kernels::pack_weight_panels`]), generic over the
//! micro-kernel. Frozen layers hand it panels packed at freeze time;
//! mutable layers pack into pooled scratch once per call
//! ([`crate::device::Device::conv2d_forward_percall`]). The driver owns
//! panel blocking, the split of a row block into full tiles and ragged
//! edges, pooled-scratch discipline and obs counters; a backend owns
//! how a row block accumulates and writes its outputs, bias included,
//! straight into the output tensor. The two per-element arithmetic
//! chains ([`MicroGemm::full_rows`], [`MicroGemm::ragged_rows`]) are
//! fixed here, so a layer computes the same bits whether its panels
//! were packed a moment or a month ago, and whichever tile width the
//! backend's registers allow.
//!
//! Monomorphization, not dynamic dispatch: the driver is generic over
//! `M: MicroGemm` and the [`crate::device::Device`] enum selects the
//! instantiation, so the micro-kernel inlines into the panel loop.

use adarnet_tensor::{workspace, Shape, Tensor};

use crate::kernels::{conv_out_extent, im2col_row_segment, packed_panels_len, PackedPanels};
use crate::kernels::{MR, NC, NR};
use crate::F;

/// One row block's view of one column panel: up to [`MR`] output
/// channels by `cn` output pixels, with everything a backend needs to
/// compute them and the place to put them.
pub struct RowBlock<'a> {
    /// The output item's rows from this block's first channel on: row
    /// `m` of the block, panel column `j`, is `out[m * ld + c0 + j]`.
    pub out: &'a mut [f32],
    /// Output row stride (`o_len`, the output pixels per channel).
    pub ld: usize,
    /// The panel's first column within an output row.
    pub c0: usize,
    /// Packed k-major weight block, `k_len × MR` floats (see
    /// [`crate::kernels::pack_weight_panels`]).
    pub wp: &'a [f32],
    /// The `k_len × cn` im2col panel.
    pub colp: &'a [f32],
    /// Panel width in output pixels (at most [`NC`]).
    pub cn: usize,
    /// Bias per block row; 0.0 without a bias and on rows past `oc`.
    pub bias: [f32; MR],
}

/// The register tiles of the GEMM, the only code that differs between
/// CPU backends.
///
/// Implementations must be `Copy` zero-sized handles. The tile width is
/// theirs to choose ([`MicroGemm::TILE_COLS`]); the arithmetic chain of
/// each output element is not: vectorized backends may fuse
/// `full_rows`' multiply-add (one rounding instead of two, the ULP
/// envelope pinned by `tests/device_equivalence.rs`) and nothing else.
pub trait MicroGemm: Copy + Send + Sync {
    /// Name of the widest register tile, as `adarnet-bench --bin
    /// kernels` records it per row.
    const TILE: &'static str;
    /// Columns of the widest register tile.
    const TILE_COLS: usize;

    /// All [`MR`] rows of the block over panel columns `[0, cols)`,
    /// `cols` a multiple of [`NR`]. Per output element:
    /// `acc = 0.0; acc += wp[k*MR + m] * colp[k*cn + j]` for `k`
    /// ascending (fused on FMA backends), then `out = acc + bias[m]`.
    fn full_rows(&self, blk: &mut RowBlock<'_>, cols: usize);

    /// The first `rows` rows of the block over panel columns
    /// `[j0, j0 + jn)`: what is left of a panel after its full tiles,
    /// and every column of a row block with `rows < MR`. Per output
    /// element: `acc = bias[m]; acc += wp[k*MR + m] * colp[k*cn + j]`
    /// for `k` ascending, multiply and add rounded separately on every
    /// backend (`ragged_rows_body`).
    fn ragged_rows(&self, blk: &mut RowBlock<'_>, rows: usize, j0: usize, jn: usize);

    /// Dot product of two equal-length slices (weight-gradient GEMM).
    fn dot(&self, a: &[f32], b: &[f32]) -> f32;
}

/// The body of every backend's [`MicroGemm::ragged_rows`]: bias first,
/// multiply then add, with the pixel loop innermost so it vectorizes
/// across pixels (lanes are independent output elements, so the vector
/// width cannot reach the bits). `#[inline(always)]` so each backend
/// compiles it under its own `target_feature`; Rust never contracts
/// `a + w * c` into an FMA, with or without the feature.
#[inline(always)]
pub(crate) fn ragged_rows_body(blk: &mut RowBlock<'_>, rows: usize, j0: usize, jn: usize) {
    for m in 0..rows {
        let orow = &mut blk.out[m * blk.ld + blk.c0 + j0..][..jn];
        orow.fill(blk.bias[m]);
        for (crow, wk) in blk.colp.chunks_exact(blk.cn).zip(blk.wp.chunks_exact(MR)) {
            let wv = wk[m];
            for (a, &cv) in orow.iter_mut().zip(&crow[j0..j0 + jn]) {
                *a += wv * cv;
            }
        }
    }
}

/// Blocked im2col + GEMM convolution over packed f32 weight panels (see
/// [`crate::Device::conv2d_forward_packed`] for the public contract
/// and DESIGN.md §10 for the blocking argument). The im2col panel comes
/// 64-byte-aligned from the workspace pool so vector loads never split
/// a cache line; every finished tile goes straight into `y`, bias
/// added, with no staging copy. Batch items and column panels run in
/// order on the calling thread (callers parallelize across requests,
/// not inside a conv).
pub fn conv2d_forward_packed<M: MicroGemm>(
    micro: M,
    x: &Tensor<F>,
    w: PackedPanels<'_>,
    bias: &Tensor<F>,
    pad: usize,
) -> Tensor<F> {
    let PackedPanels {
        data: wp,
        oc,
        ic: wic,
        kh,
        kw,
    } = w;
    let (n, ic, h, wd) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
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
    assert!(oh > 0 && ow > 0, "conv2d: kernel larger than padded input");

    let k_len = ic * kh * kw;
    assert_eq!(
        wp.len(),
        packed_panels_len(oc, k_len),
        "conv2d: packed panel size mismatch"
    );
    let o_len = oh * ow;
    let bs = bias.as_slice();
    let xs = x.as_slice();
    let mut y = Tensor::<F>::pooled_scratch(Shape::d4(n, oc, oh, ow));

    // One im2col panel buffer per call, refilled per column panel.
    let mut colbuf = workspace::take_aligned(k_len * o_len.min(NC));
    for (ni, ybatch) in y.as_mut_slice().chunks_exact_mut(oc * o_len).enumerate() {
        let xitem = &xs[ni * ic * h * wd..(ni + 1) * ic * h * wd];
        for c0 in (0..o_len).step_by(NC) {
            let cn = (o_len - c0).min(NC);
            for (r, dst) in colbuf[..k_len * cn].chunks_exact_mut(cn).enumerate() {
                let ici = r / (kh * kw);
                let ky = (r / kw) % kh;
                let kx = r % kw;
                let xplane = &xitem[ici * h * wd..(ici + 1) * h * wd];
                im2col_row_segment(dst, xplane, ky, kx, h, wd, ow, pad, c0, cn);
            }
            let colp = &colbuf[..k_len * cn];
            let full = cn - cn % NR;
            for (b, wblock) in wp.chunks_exact(k_len * MR).enumerate() {
                let oc0 = b * MR;
                let rows = (oc - oc0).min(MR);
                let mut blk = RowBlock {
                    out: &mut ybatch[oc0 * o_len..],
                    ld: o_len,
                    c0,
                    wp: wblock,
                    colp,
                    cn,
                    bias: std::array::from_fn(|m| {
                        if m < rows && !bs.is_empty() {
                            bs[oc0 + m]
                        } else {
                            0.0
                        }
                    }),
                };
                if rows < MR {
                    micro.ragged_rows(&mut blk, rows, 0, cn);
                } else {
                    micro.full_rows(&mut blk, full);
                    if full < cn {
                        micro.ragged_rows(&mut blk, MR, full, cn - full);
                    }
                }
            }
            adarnet_obs::counter!("nn_gemm_panels_total").inc();
        }
    }
    workspace::put_aligned(colbuf);
    y
}

/// GEMM-based weight-gradient accumulation (see
/// [`crate::Device::conv2d_backward_params_gemm`]), generic over the
/// reduction dot product.
pub fn conv2d_backward_params_gemm<M: MicroGemm>(
    micro: M,
    dy: &Tensor<F>,
    x: &Tensor<F>,
    pad: usize,
    dw: &mut Tensor<F>,
    db: &mut Tensor<F>,
) {
    let (n, oc, oh, ow) = (dy.dim(0), dy.dim(1), dy.dim(2), dy.dim(3));
    let (xn, ic, h, wd) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
    assert_eq!(n, xn, "conv2d params: batch mismatch");
    let (dwoc, dwic, kh, kw) = (dw.dim(0), dw.dim(1), dw.dim(2), dw.dim(3));
    assert_eq!((dwoc, dwic), (oc, ic), "conv2d params: dw shape mismatch");
    assert_eq!(oh, conv_out_extent(h, kh, pad), "oh mismatch");
    assert_eq!(ow, conv_out_extent(wd, kw, pad), "ow mismatch");

    let k_len = ic * kh * kw;
    let o_len = oh * ow;
    let dys = dy.as_slice();
    let xs = x.as_slice();
    let mut col = workspace::take_scratch(k_len * o_len);
    for ni in 0..n {
        // Same im2col fill as the forward driver, one row at a time.
        let xitem = &xs[ni * ic * h * wd..(ni + 1) * ic * h * wd];
        col.chunks_mut(o_len).enumerate().for_each(|(r, dst)| {
            let ici = r / (kh * kw);
            let ky = (r / kw) % kh;
            let kx = r % kw;
            let xplane = &xitem[ici * h * wd..(ici + 1) * h * wd];
            im2col_row_segment(dst, xplane, ky, kx, h, wd, ow, pad, 0, o_len);
        });
        // dw[oc_i, :] += dy_row(oc_i) . col^T.
        let dws = dw.as_mut_slice();
        dws.chunks_mut(k_len).enumerate().for_each(|(oci, dwrow)| {
            let dyrow = &dys[(ni * oc + oci) * o_len..(ni * oc + oci + 1) * o_len];
            for (k, dwv) in dwrow.iter_mut().enumerate() {
                let crow = &col[k * o_len..(k + 1) * o_len];
                *dwv += micro.dot(dyrow, crow);
            }
        });
    }
    workspace::put(col);

    if !db.is_empty() {
        assert_eq!(db.len(), oc, "db length mismatch");
        let dbs = db.as_mut_slice();
        for ni in 0..n {
            for (oci, slot) in dbs.iter_mut().enumerate() {
                let base = (ni * oc + oci) * o_len;
                *slot += dys[base..base + o_len].iter().sum::<f32>();
            }
        }
    }
}
