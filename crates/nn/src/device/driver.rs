//! The backend-generic GEMM driver: the panel decomposition, im2col
//! fills and row-block sweep that every CPU backend shares, with the
//! register tiles abstracted behind [`MicroGemm`].
//!
//! The weight gradient ([`conv2d_backward_params`]) is the one GEMM
//! whose per-element chain is not a tile's: each `dw` element is the
//! backend's [`MicroGemm::dot`] of a `dy` row and an im2col row. The
//! vector backends still run it on their forward tiles
//! (`weight_grad_lanes`): a 32-lane dot is 32 partial sums over
//! strided pixel sets, and a tile over one such set computes a lane of
//! `MR × 64` dots at once.
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
//! This code runs on the thread that calls it. Parallelism sits one
//! level up: [`crate::FrozenSequential::infer`] splits a batch over the
//! idle cores, once per stack call, so every lane drives this code on
//! its own items. Splitting inside a conv instead (a spawn and a join
//! per layer) measured slower.
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

    /// Dot product of two equal-length slices: the per-element chain
    /// of the weight gradient (docs/NUMERICS.md §2).
    fn dot(&self, a: &[f32], b: &[f32]) -> f32;

    /// One batch item's weight gradient, added into `dw` (`oc × k_len`
    /// row-major): `dw[o * k_len + k] += dot(dy row o, im2col row k)`,
    /// every element by [`MicroGemm::dot`]'s chain. Provided: one
    /// im2col row live at a time, dotted with every `dy` row. The
    /// vector backends override it with `weight_grad_lanes`, the
    /// same chains on their register tiles.
    fn weight_grad(&self, item: &GradItem<'_>, dw: &mut [f32]) {
        let (k_len, o_len) = (item.k_len(), item.o_len());
        let mut row = workspace::take_scratch(o_len);
        for k in 0..k_len {
            item.im2col_row(k, &mut row);
            for (dyrow, dwrow) in item.dy.chunks_exact(o_len).zip(dw.chunks_exact_mut(k_len)) {
                dwrow[k] += self.dot(dyrow, &row);
            }
        }
        workspace::put(row);
    }
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
/// order on the calling thread. A conv does not split itself: a frozen
/// stack splits its batch over idle cores once per call
/// ([`crate::FrozenSequential::infer`]), and each lane's convs run here
/// on that lane's items.
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

/// Weight and bias gradient accumulation (see
/// [`crate::Device::conv2d_backward_params`]): each batch item, in
/// ascending order, goes to [`MicroGemm::weight_grad`], which adds its
/// `dy · col(x)^T` into `dw` without ever holding its whole im2col
/// matrix.
pub fn conv2d_backward_params<M: MicroGemm>(
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

    let o_len = oh * ow;
    let dys = dy.as_slice();
    let dws = dw.as_mut_slice();
    for (dyi, xi) in dys
        .chunks_exact(oc * o_len)
        .zip(x.as_slice().chunks_exact(ic * h * wd))
    {
        let item = GradItem {
            dy: dyi,
            x: xi,
            oc,
            ic,
            h,
            wd,
            kh,
            kw,
            pad,
            oh,
            ow,
        };
        micro.weight_grad(&item, dws);
    }

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

/// One batch item of the weight-gradient GEMM `dw += dy · col(x)^T`,
/// as [`conv2d_backward_params`] hands it to [`MicroGemm::weight_grad`].
#[derive(Clone, Copy)]
pub struct GradItem<'a> {
    /// The item's output gradient, `oc × (oh · ow)` row-major.
    pub dy: &'a [f32],
    /// The item's input, `ic × h × wd` row-major.
    pub x: &'a [f32],
    /// Output channels.
    pub oc: usize,
    /// Input channels.
    pub ic: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub wd: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Zero padding on every side.
    pub pad: usize,
    /// Output height.
    pub oh: usize,
    /// Output width.
    pub ow: usize,
}

impl GradItem<'_> {
    /// Rows of the im2col matrix (`ic · kh · kw`), and the row length
    /// of `dw`.
    fn k_len(&self) -> usize {
        self.ic * self.kh * self.kw
    }

    /// Output pixels per channel (`oh · ow`), the reduction length.
    fn o_len(&self) -> usize {
        self.oh * self.ow
    }

    /// Fill `dst` (`o_len` floats) with im2col row `k = (ici, ky, kx)`:
    /// the same fill the forward driver makes, whole rows at a time.
    fn im2col_row(&self, k: usize, dst: &mut [f32]) {
        let plane = self.h * self.wd;
        let xplane = &self.x[k / (self.kh * self.kw) * plane..][..plane];
        let (ky, kx) = ((k / self.kw) % self.kh, k % self.kw);
        let (h, wd, ow, pad) = (self.h, self.wd, self.ow, self.pad);
        im2col_row_segment(dst, xplane, ky, kx, h, wd, ow, pad, 0, self.o_len());
    }
}

/// `dst.copy_from_slice(src)` in 16-float moves the compiler inlines,
/// not a `memcpy` call per panel row: whole chunks, then the last 16
/// floats again, overlapping, for a ragged end.
#[inline(always)]
fn copy_run(dst: &mut [f32], src: &[f32]) {
    let len = dst.len();
    if len < NR {
        dst.copy_from_slice(src);
        return;
    }
    for (a, b) in dst.chunks_exact_mut(NR).zip(src.chunks_exact(NR)) {
        a.copy_from_slice(b);
    }
    dst[len - NR..].copy_from_slice(&src[len - NR..len]);
}

/// Partial-sum lanes of the vector backends' [`MicroGemm::dot`]: lane
/// `l` accumulates elements `l, l + 32, l + 64, ...` of the whole
/// 32-element chunks, the rest is a scalar tail.
pub(crate) const DOT_LANES: usize = 32;

/// Columns of `dw` one k-panel of [`weight_grad_lanes`] covers: one
/// 64-wide AVX-512 tile, four 16-wide AVX2 ones.
const GRAD_KC: usize = 64;

/// The vector backends' [`MicroGemm::weight_grad`]: every `dw` element
/// gets the bits [`MicroGemm::dot`]'s chain gives it (32 fused lanes, a
/// fused tail, then the tail plus lanes 0..31 in order; docs/NUMERICS.md
/// §2), but the dots run on the forward's register tiles
/// ([`MicroGemm::full_rows`]), 256 of them per 4×64 tile, their final
/// reductions one vector add per 16.
///
/// The GEMM is turned outer-product-wise. A lane is a set of pixels,
/// and a full tile over one lane's pixels is that lane's partial sum
/// for `MR × 64` `(oc, k)` pairs at once: `dy` is the broadcast operand
/// (packed `MR` channels per row, rows in lane order), a pixel-major
/// k-panel of the im2col matrix the loaded one. Per k-panel the tail's
/// tile and then lane 0..31's are summed into one `MR × 64` block per
/// channel block, in that order, and the block is added to `dw`.
///
/// Memory: the input padded and transposed to pixel-major (one
/// `ic`-float run per pixel, so a panel row is a few contiguous
/// copies), `dy` packed once per item, and one lane's rows of one
/// k-panel (`o_len / 32 × 64` floats, 32 KiB at 64×64) live at a
/// time, reused by every channel block.
///
/// `#[inline(always)]` so each vector backend compiles it, packing and
/// lane sums included, under its own `target_feature`.
#[inline(always)]
pub(crate) fn weight_grad_lanes<M: MicroGemm>(micro: M, item: &GradItem<'_>, dw: &mut [f32]) {
    let GradItem {
        dy,
        x,
        oc,
        ic,
        h,
        wd,
        kh,
        kw,
        pad,
        oh: _,
        ow,
    } = *item;
    let (k_len, o_len) = (item.k_len(), item.o_len());
    let q = o_len / DOT_LANES;
    // Each lane as `(first row in the lane order, rows, first pixel,
    // pixel step)`: the tail first, as the dot sums it, then lanes
    // 0..31. An empty lane adds nothing and is skipped.
    let tail = (DOT_LANES * q, o_len - DOT_LANES * q, DOT_LANES * q, 1);
    let lanes = std::iter::once(tail)
        .chain((0..DOT_LANES).map(|l| (l * q, q, l, DOT_LANES)))
        .filter(|&(_, rows, ..)| rows > 0);

    // Input, zero-padded and pixel-major: tap (ky, kx) of output pixel
    // (oy, ox) is run `(oy + ky) * pw + ox + kx`, `ic` floats long.
    let pw = wd + 2 * pad;
    let mut xt = workspace::take_zeroed((h + 2 * pad) * pw * ic);
    // Row by row, so one padded row of `xt` stays in L1 while every
    // channel is scattered into it.
    for (iy, xtrow) in xt.chunks_exact_mut(pw * ic).skip(pad).take(h).enumerate() {
        for (ici, plane) in x.chunks_exact(h * wd).enumerate() {
            let xrow = &plane[iy * wd..(iy + 1) * wd];
            for (px, &v) in xtrow.chunks_exact_mut(ic).skip(pad).zip(xrow) {
                px[ici] = v;
            }
        }
    }
    // dy as MR-channel blocks of `o_len` rows in lane order, the
    // channels past `oc` zero: pixel `32 j + l` of the whole chunks is
    // row `l q + j`, the tail keeps its order. Sixteen chunks at a
    // time, so the rows read stay in L1 and every lane's run of
    // written rows is whole cache lines.
    let nb = oc.div_ceil(MR);
    let mut dyp = workspace::take_scratch(nb * o_len * MR);
    for (b, block) in dyp.chunks_exact_mut(o_len * MR).enumerate() {
        for (m, o) in (b * MR..(b + 1) * MR).enumerate() {
            let Some(row) = dy.get(o * o_len..(o + 1) * o_len) else {
                block.chunks_exact_mut(MR).for_each(|g| g[m] = 0.0);
                continue;
            };
            let mut put = |r0: usize, p0: usize, step: usize, rows: usize| {
                let groups = block[r0 * MR..(r0 + rows) * MR].chunks_exact_mut(MR);
                for (g, &v) in groups.zip(row[p0..].iter().step_by(step)) {
                    g[m] = v;
                }
            };
            for j0 in (0..q).step_by(16) {
                let jn = (q - j0).min(16);
                for l in 0..DOT_LANES {
                    put(l * q + j0, DOT_LANES * j0 + l, DOT_LANES, jn);
                }
            }
            put(tail.0, tail.0, 1, tail.1);
        }
    }

    // The k-panel columns run tap-major, `c = (ky * kw + kx) * ic +
    // ici`, so a panel row is one copy per tap from `xt`; `dw`'s own
    // order is `ici * kh * kw + ky * kw + kx`.
    let mut panel = workspace::take_aligned(q.max(tail.1) * GRAD_KC);
    let mut tile = workspace::take_scratch(MR * GRAD_KC);
    let mut sums = workspace::take_scratch(nb * MR * GRAD_KC);
    for c0 in (0..k_len).step_by(GRAD_KC) {
        let cn = (k_len - c0).min(GRAD_KC);
        let cw = cn.next_multiple_of(NR);
        // The panel row's copies from `xt`, `(panel column, offset from
        // the pixel's run, length)`: one per tap it touches, merged where
        // consecutive taps are neighbouring pixels (kx, kx + 1) and so
        // one run in `xt` too.
        let mut runs = [(0usize, 0usize, 0usize); GRAD_KC];
        let mut nruns = 0usize;
        for t in c0 / ic..(c0 + cn).div_ceil(ic) {
            let lo = (t * ic).max(c0);
            let hi = ((t + 1) * ic).min(c0 + cn);
            let off = ((t / kw) * pw + t % kw) * ic + lo - t * ic;
            if nruns > 0 && runs[nruns - 1].1 + runs[nruns - 1].2 == off {
                runs[nruns - 1].2 += hi - lo;
            } else {
                runs[nruns] = (lo - c0, off, hi - lo);
                nruns += 1;
            }
        }
        let runs = &runs[..nruns];
        // Each panel column's `dw` column.
        let dwcol: [usize; GRAD_KC] = std::array::from_fn(|j| {
            let c = c0 + j;
            (c % ic) * kh * kw + c / ic
        });
        let sums = &mut sums[..nb * MR * cw];
        sums.fill(0.0);
        for (r0, rows, p0, step) in lanes.clone() {
            let colp = &mut panel[..rows * cw];
            let (mut oy, mut ox) = (p0 / ow, p0 % ow);
            for dst in colp.chunks_exact_mut(cw) {
                let base = (oy * pw + ox) * ic;
                for &(d, off, len) in runs {
                    copy_run(&mut dst[d..d + len], &xt[base + off..][..len]);
                }
                if cn < cw {
                    dst[cn..].fill(0.0);
                }
                ox += step;
                while ox >= ow {
                    ox -= ow;
                    oy += 1;
                }
            }
            for (b, sum) in sums.chunks_exact_mut(MR * cw).enumerate() {
                let mut blk = RowBlock {
                    out: &mut tile[..MR * cw],
                    ld: cw,
                    c0: 0,
                    wp: &dyp[(b * o_len + r0) * MR..][..rows * MR],
                    colp,
                    cn: cw,
                    bias: [0.0; MR],
                };
                micro.full_rows(&mut blk, cw);
                for (s, &v) in sum.iter_mut().zip(blk.out.iter()) {
                    *s += v;
                }
            }
        }
        for (o, srow) in sums.chunks_exact(cw).take(oc).enumerate() {
            let dwrow = &mut dw[o * k_len..(o + 1) * k_len];
            for (&k, &s) in dwcol.iter().zip(&srow[..cn]) {
                dwrow[k] += s;
            }
        }
    }
    workspace::put(sums);
    workspace::put(tile);
    workspace::put_aligned(panel);
    workspace::put(dyp);
    workspace::put(xt);
}
