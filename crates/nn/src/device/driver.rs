//! The backend-generic GEMM driver: the panel decomposition, im2col
//! fills, edge handling, and write-back that every CPU backend shares,
//! with the innermost register tile abstracted behind [`MicroGemm`].
//!
//! There is one forward driver, over **packed** weight panels
//! ([`crate::kernels::pack_weight_panels`]), generic over the
//! micro-kernel and the panel element type ([`PanelElem`]: f32 or
//! bf16). Frozen layers hand it panels packed at freeze time; mutable
//! layers pack into pooled scratch once per call
//! ([`crate::device::Device::conv2d_forward_percall`]). Everything
//! *outside* the full `MR × NR` tile — panel blocking, ragged
//! row/column edges, bias write-back, pooled-scratch discipline, obs
//! counters — is shared scalar code, so two backends differ only in
//! how a full tile accumulates, and a layer computes the same bits
//! whether its panels were packed a moment or a month ago.
//!
//! Monomorphization, not dynamic dispatch: the driver is generic over
//! `M: MicroGemm` and the [`crate::device::Device`] enum selects the
//! instantiation, so the micro-kernel inlines into the panel loop.

use adarnet_tensor::{workspace, AlignedBuf, Shape, Tensor};
use rayon::prelude::*;

use crate::kernels::{conv_out_extent, im2col_row_segment, packed_panels_len, PackedPanels};
use crate::kernels::{MR, NC, NR};
use crate::quantize::{bf16_to_f32, PackedPanelsBf16};
use crate::F;

/// The innermost register tile of the GEMM, the only code that differs
/// between CPU backends.
///
/// Implementations must be `Copy` zero-sized handles (they are captured
/// by rayon parallel closures) and must compute, for each method, the
/// same real-arithmetic sum as the scalar reference; vectorized
/// backends may reassociate the reduction (FMA, multiple accumulators)
/// within the ULP envelope pinned by `tests/device_equivalence.rs`.
pub trait MicroGemm: Copy + Send + Sync {
    /// Accumulate a full `MR × NR` tile from a packed k-major weight
    /// block (`k_len × MR` floats, see
    /// [`crate::kernels::pack_weight_panels`]):
    /// `acc[m][j] += wp_block[k*MR + m] * colp[k][j0+j]` over all `k`,
    /// `colp` being the `k_len × cn` im2col panel.
    fn tile_packed(
        &self,
        acc: &mut [[f32; NR]; MR],
        wp_block: &[f32],
        colp: &[f32],
        cn: usize,
        j0: usize,
    );

    /// Dot product of two equal-length slices (weight-gradient GEMM).
    fn dot(&self, a: &[f32], b: &[f32]) -> f32;
}

/// Write a finished `MR × NR` accumulator tile back into the `oc × cn`
/// panel with bias added.
#[inline]
fn writeback_tile(
    out: &mut [f32],
    bs: &[f32],
    acc: &[[f32; NR]; MR],
    oc0: usize,
    cn: usize,
    j0: usize,
) {
    for (m, am) in acc.iter().enumerate() {
        let b = if bs.is_empty() { 0.0 } else { bs[oc0 + m] };
        let orow = &mut out[(oc0 + m) * cn + j0..(oc0 + m) * cn + j0 + NR];
        for (o, a) in orow.iter_mut().zip(am) {
            *o = a + b;
        }
    }
}

/// Element type of a packed A-panel: f32 panels run the historical
/// kernels unchanged; bf16 panels are widened **once per forward
/// call** — an exact 16-bit shift per weight, `1/o_len` of the GEMM
/// flops — into a pooled f32 stage shared read-only by every column
/// panel, after which both precisions execute the *identical* f32 FMA
/// tile. That keeps the widening entirely out of the FMA-bound inner
/// loop (an earlier per-tile inline-widening micro-kernel cost the
/// vector plane 15–25%) and makes the quantized-twin contract hold by
/// construction: the bf16 path *is* the f32 path run on RNE-quantized
/// weights.
pub trait PanelElem: Copy + Send + Sync {
    /// Whether panels of this element type need the widening stage
    /// (bf16) or can be borrowed by the tiles directly (f32).
    const WIDENS: bool;

    /// Resolve a packed panel slice to f32 for the register tiles:
    /// f32 borrows `block` and never touches `stage`; bf16 widens into
    /// `stage` (sized by the caller to at least `block.len()`).
    fn widened<'a>(block: &'a [Self], stage: &'a mut [f32]) -> &'a [f32];
}

impl PanelElem for f32 {
    const WIDENS: bool = false;

    #[inline(always)]
    fn widened<'a>(block: &'a [f32], _stage: &'a mut [f32]) -> &'a [f32] {
        block
    }
}

impl PanelElem for u16 {
    const WIDENS: bool = true;

    #[inline]
    fn widened<'a>(block: &'a [u16], stage: &'a mut [f32]) -> &'a [f32] {
        let stage = &mut stage[..block.len()];
        for (d, &s) in stage.iter_mut().zip(block) {
            *d = bf16_to_f32(s);
        }
        stage
    }
}

/// The register-tiled micro-kernel: `rows × jn` output tile at row
/// offset `oc0`, column offset `j0` of an `oc × cn` panel, weights read
/// from the packed (and, for bf16, widened) `k_len × MR` f32 block.
/// Full `MR × NR` tiles dispatch to the backend tile; irregular edges
/// run a shared scalar loop (all paper shapes are edge-free, see
/// [`crate::kernels::NR`]).
#[allow(clippy::too_many_arguments)]
fn micro_kernel<M: MicroGemm>(
    micro: M,
    out: &mut [f32],
    wp_block: &[f32],
    bs: &[f32],
    colp: &[f32],
    oc0: usize,
    rows: usize,
    k_len: usize,
    cn: usize,
    j0: usize,
    jn: usize,
) {
    debug_assert_eq!(wp_block.len(), k_len * MR);
    if rows == MR && jn == NR {
        let mut acc = [[0.0f32; NR]; MR];
        micro.tile_packed(&mut acc, wp_block, colp, cn, j0);
        writeback_tile(out, bs, &acc, oc0, cn, j0);
    } else {
        for m in 0..rows {
            let b = if bs.is_empty() { 0.0 } else { bs[oc0 + m] };
            for j in j0..j0 + jn {
                let mut acc = b;
                for k in 0..k_len {
                    acc += wp_block[k * MR + m] * colp[k * cn + j];
                }
                out[(oc0 + m) * cn + j] = acc;
            }
        }
    }
}

/// Blocked im2col + GEMM convolution over packed f32 weight panels (see
/// [`crate::kernels::conv2d_forward_packed`] for the public contract
/// and DESIGN.md §10 for the blocking argument).
pub fn conv2d_forward_packed<M: MicroGemm>(
    micro: M,
    x: &Tensor<F>,
    w: PackedPanels<'_>,
    bias: &Tensor<F>,
    pad: usize,
) -> Tensor<F> {
    conv2d_forward_packed_any(micro, x, w.data, w.oc, w.ic, w.kh, w.kw, bias, pad)
}

/// [`conv2d_forward_packed`] over **bf16** panels: same driver body via
/// [`PanelElem`] — identical panel decomposition, im2col fills, and
/// write-back; the panels widen once per forward call into a pooled
/// stage ([`PanelElem::widened`]) and then run the same f32 tiles.
pub fn conv2d_forward_packed_bf16<M: MicroGemm>(
    micro: M,
    x: &Tensor<F>,
    w: PackedPanelsBf16<'_>,
    bias: &Tensor<F>,
    pad: usize,
) -> Tensor<F> {
    conv2d_forward_packed_any(micro, x, w.data, w.oc, w.ic, w.kh, w.kw, bias, pad)
}

/// The driver body, generic over micro-kernel and panel element type.
/// Scratch panels come 64-byte-aligned from the workspace pool so
/// vector loads never split a cache line.
#[allow(clippy::too_many_arguments)]
fn conv2d_forward_packed_any<M: MicroGemm, E: PanelElem>(
    micro: M,
    x: &Tensor<F>,
    wp: &[E],
    oc: usize,
    wic: usize,
    kh: usize,
    kw: usize,
    bias: &Tensor<F>,
    pad: usize,
) -> Tensor<F> {
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

    // bf16 panels widen once per forward call into a pooled f32 stage
    // shared read-only by every batch item and column panel; resident
    // weight bytes stay bf16, only this transient scratch is f32. The
    // f32 instantiation takes no stage and the tiles borrow the packed
    // panels directly.
    let mut stage = if E::WIDENS {
        Some(workspace::take_aligned(wp.len()))
    } else {
        None
    };
    let wide_all: &[f32] = E::widened(wp, stage.as_deref_mut().unwrap_or(&mut []));

    y.as_mut_slice()
        .par_chunks_mut(oc * o_len)
        .enumerate()
        .for_each(|(ni, ybatch)| {
            let xitem = &xs[ni * ic * h * wd..(ni + 1) * ic * h * wd];
            let panels: Vec<(usize, AlignedBuf)> = (0..o_len)
                .step_by(NC)
                .collect::<Vec<_>>()
                .par_iter()
                .map(|&c0| {
                    let cn = (o_len - c0).min(NC);
                    let mut colp = workspace::take_aligned(k_len * cn);
                    for (r, dst) in colp.chunks_exact_mut(cn).enumerate() {
                        let ici = r / (kh * kw);
                        let ky = (r / kw) % kh;
                        let kx = r % kw;
                        let xplane = &xitem[ici * h * wd..(ici + 1) * h * wd];
                        im2col_row_segment(dst, xplane, ky, kx, h, wd, ow, pad, c0, cn);
                    }
                    let mut out = workspace::take_aligned(oc * cn);
                    let mut oc0 = 0;
                    while oc0 < oc {
                        let rows = (oc - oc0).min(MR);
                        let wide = &wide_all[(oc0 / MR) * k_len * MR..(oc0 / MR + 1) * k_len * MR];
                        let mut j0 = 0;
                        while j0 < cn {
                            let jn = (cn - j0).min(NR);
                            micro_kernel(
                                micro, &mut out, wide, bs, &colp, oc0, rows, k_len, cn, j0, jn,
                            );
                            j0 += NR;
                        }
                        oc0 += MR;
                    }
                    workspace::put_aligned(colp);
                    adarnet_obs::counter!("nn_gemm_panels_total").inc();
                    (c0, out)
                })
                .collect();
            for (c0, out) in panels {
                let cn = (o_len - c0).min(NC);
                for (oci, orow) in out.chunks_exact(cn).enumerate() {
                    ybatch[oci * o_len + c0..oci * o_len + c0 + cn].copy_from_slice(orow);
                }
                workspace::put_aligned(out);
            }
        });
    if let Some(stage) = stage {
        workspace::put_aligned(stage);
    }
    y
}

/// GEMM-based weight-gradient accumulation (see
/// [`crate::kernels::conv2d_backward_params_gemm`]), generic over the
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
        col.par_chunks_mut(o_len).enumerate().for_each(|(r, dst)| {
            let ici = r / (kh * kw);
            let ky = (r / kw) % kh;
            let kx = r % kw;
            let xplane = &xitem[ici * h * wd..(ici + 1) * h * wd];
            im2col_row_segment(dst, xplane, ky, kx, h, wd, ow, pad, 0, o_len);
        });
        // dw[oc_i, :] += dy_row(oc_i) . col^T.
        let dws = dw.as_mut_slice();
        dws.par_chunks_mut(k_len)
            .enumerate()
            .for_each(|(oci, dwrow)| {
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
