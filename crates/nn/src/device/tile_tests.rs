//! Bitwise tests of the register tiles against the micro-kernel they
//! replaced, which stays here as the reference (as PR 19 kept
//! `gather16`): the 4×16 `tile_packed` and the scalar edge loop, run by
//! the staging-buffer panel sweep that used to surround them. The
//! golden hashes in `tests/golden_conv.rs` pin the same claim against
//! the parent *commit* on ten shapes; these pin it against the parent
//! *code* on arbitrary ones, and instantiate the AVX2 and AVX-512
//! tokens directly, so a host that auto-selects the wide tile still
//! tests the narrow one.

use std::sync::atomic::{AtomicUsize, Ordering};

use adarnet_tensor::{Shape, Tensor};
use proptest::prelude::*;

use super::cpu_scalar::ScalarMicro;
use super::cpu_simd::{self, Avx512Micro};
use super::driver::{conv2d_forward_packed, GradItem, MicroGemm, RowBlock};
use crate::kernels::{
    conv_out_extent, im2col_row_segment, pack_weight_panels, packed_panels_len, PackedPanels,
};
use crate::kernels::{MR, NC, NR};
use crate::F;

mod reference {
    use super::*;

    /// `ScalarMicro::tile_packed` as it stood; `fused` swaps the two
    /// roundings of `a + w * c` for FMA's one, which is all the AVX2
    /// tile differed by.
    fn tile_packed(
        fused: bool,
        acc: &mut [[f32; NR]; MR],
        wp_block: &[f32],
        colp: &[f32],
        cn: usize,
        j0: usize,
    ) {
        for (k, ctile) in colp.chunks_exact(cn).enumerate() {
            let ctile = &ctile[j0..j0 + NR];
            let wk = &wp_block[k * MR..(k + 1) * MR];
            for (m, am) in acc.iter_mut().enumerate() {
                let wv = wk[m];
                for (a, &c) in am.iter_mut().zip(ctile) {
                    *a = if fused {
                        wv.mul_add(c, *a)
                    } else {
                        *a + wv * c
                    };
                }
            }
        }
    }

    /// `driver::micro_kernel` as it stood: the backend tile on a full
    /// `MR × NR` block (bias last), the scalar loop on every edge (bias
    /// first, multiply then add).
    #[allow(clippy::too_many_arguments)]
    fn micro_kernel(
        fused: bool,
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
        if rows == MR && jn == NR {
            let mut acc = [[0.0f32; NR]; MR];
            tile_packed(fused, &mut acc, wp_block, colp, cn, j0);
            for (m, am) in acc.iter().enumerate() {
                let b = if bs.is_empty() { 0.0 } else { bs[oc0 + m] };
                let orow = &mut out[(oc0 + m) * cn + j0..(oc0 + m) * cn + j0 + NR];
                for (o, a) in orow.iter_mut().zip(am) {
                    *o = a + b;
                }
            }
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

    /// The panel sweep as it stood, 3×3 same-padded: im2col per
    /// `NC`-wide panel, every tile into a staging panel, the panel
    /// copied into `y`.
    pub fn conv(fused: bool, x: &Tensor<F>, w: &Tensor<F>, bias: &Tensor<F>) -> Tensor<F> {
        let (n, ic, h, wd) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
        let (oc, kh, kw, pad) = (w.dim(0), 3, 3, 1);
        let (oh, ow) = (conv_out_extent(h, kh, pad), conv_out_extent(wd, kw, pad));
        let (k_len, o_len) = (ic * kh * kw, oh * ow);
        let mut wp = vec![0.0f32; packed_panels_len(oc, k_len)];
        pack_weight_panels(w.as_slice(), oc, k_len, &mut wp);
        let mut y = Tensor::<F>::zeros(Shape::d4(n, oc, oh, ow));
        for (ni, ybatch) in y.as_mut_slice().chunks_exact_mut(oc * o_len).enumerate() {
            let xitem = &x.as_slice()[ni * ic * h * wd..(ni + 1) * ic * h * wd];
            for c0 in (0..o_len).step_by(NC) {
                let cn = (o_len - c0).min(NC);
                let mut colp = vec![0.0f32; k_len * cn];
                for (r, dst) in colp.chunks_exact_mut(cn).enumerate() {
                    let xplane = &xitem[r / (kh * kw) * h * wd..][..h * wd];
                    im2col_row_segment(dst, xplane, (r / kw) % kh, r % kw, h, wd, ow, pad, c0, cn);
                }
                let mut out = vec![0.0f32; oc * cn];
                for oc0 in (0..oc).step_by(MR) {
                    let rows = (oc - oc0).min(MR);
                    let wide = &wp[(oc0 / MR) * k_len * MR..(oc0 / MR + 1) * k_len * MR];
                    for j0 in (0..cn).step_by(NR) {
                        let jn = (cn - j0).min(NR);
                        micro_kernel(
                            fused,
                            &mut out,
                            wide,
                            bias.as_slice(),
                            &colp,
                            oc0,
                            rows,
                            k_len,
                            cn,
                            j0,
                            jn,
                        );
                    }
                }
                for (oci, orow) in out.chunks_exact(cn).enumerate() {
                    ybatch[oci * o_len + c0..oci * o_len + c0 + cn].copy_from_slice(orow);
                }
            }
        }
        y
    }
}

/// The new driver on `micro`, 3×3 same-padded, packing `w` per call.
fn conv<M: MicroGemm>(micro: M, x: &Tensor<F>, w: &Tensor<F>, bias: &Tensor<F>) -> Tensor<F> {
    let (oc, ic) = (w.dim(0), w.dim(1));
    let mut panels = vec![0.0f32; packed_panels_len(oc, ic * 9)];
    pack_weight_panels(w.as_slice(), oc, ic * 9, &mut panels);
    let view = PackedPanels {
        data: &panels,
        oc,
        ic,
        kh: 3,
        kw: 3,
    };
    conv2d_forward_packed(micro, x, view, bias, 1)
}

/// Index and bit patterns of the first element two outputs disagree
/// on, bit for bit.
fn first_mismatch(a: &Tensor<F>, b: &Tensor<F>) -> Option<(usize, u32, u32)> {
    assert_eq!(a.shape(), b.shape());
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .position(|(x, y)| x.to_bits() != y.to_bits())
        .map(|i| (i, a.as_slice()[i].to_bits(), b.as_slice()[i].to_bits()))
}

/// What the driver does with a conv's row blocks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Path {
    /// Every row block is `MR` channels: register tiles only.
    FullTiles,
    /// `oc < MR`: every output goes through `ragged_rows`.
    RaggedRows,
}

/// The ten convs of the model, `(in channels, out channels, path)`:
/// the decoder's six (Fig. 5; the last three are deconvs, run as convs
/// on flipped weights) and the scorer's four (Fig. 4).
const MODEL_SHAPES: [(usize, usize, Path); 10] = [
    (7, 8, Path::FullTiles),
    (8, 16, Path::FullTiles),
    (16, 64, Path::FullTiles),
    (64, 64, Path::FullTiles),
    (64, 16, Path::FullTiles),
    (16, 4, Path::FullTiles),
    (4, 8, Path::FullTiles),
    (8, 16, Path::FullTiles),
    (16, 16, Path::FullTiles),
    (16, 1, Path::RaggedRows),
];

/// Shapes off the model's grid: `oc % MR != 0` above and below one row
/// block, single channels.
const RAGGED_SHAPES: [(usize, usize); 6] = [(3, 5), (2, 3), (5, 2), (4, 6), (1, 1), (3, 7)];

fn shape(pick: usize) -> (usize, usize) {
    match MODEL_SHAPES.get(pick) {
        Some(&(ic, oc, _)) => (ic, oc),
        None => RAGGED_SHAPES[pick - MODEL_SHAPES.len()],
    }
}

/// `x`, `w` and `b` for shape `pick` on an `h × w` field (batch of one),
/// cut from one drawn vector. Extents up to 17×39 = 663 px put outputs
/// below one 16-wide tile, below one 64-wide tile, and across three
/// column panels with a ragged last one.
fn operands(pick: usize, h: usize, wd: usize, data: &[f32]) -> (Tensor<F>, Tensor<F>, Tensor<F>) {
    let (ic, oc) = shape(pick);
    let (nx, nw) = (ic * h * wd, oc * ic * 9);
    (
        Tensor::from_vec(Shape::d4(1, ic, h, wd), data[..nx].to_vec()),
        Tensor::from_vec(Shape::d4(oc, ic, 3, 3), data[nx..nx + nw].to_vec()),
        Tensor::from_vec(Shape::d1(oc), data[nx + nw..nx + nw + oc].to_vec()),
    )
}

const PICKS: usize = MODEL_SHAPES.len() + RAGGED_SHAPES.len();
const MAX_DATA: usize = 64 * 17 * 39 + 64 * 64 * 9 + 64;

/// The scalar-vs-SIMD envelope of `tests/device_equivalence.rs`.
const TOL: f32 = 1e-4;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (a) The two vector tiles agree bit for bit, whatever the split
    /// into 64-wide tiles, 16-wide tiles and ragged edges.
    #[test]
    fn avx512_tile_matches_avx2_tile_bitwise(
        pick in 0usize..PICKS,
        h in 1usize..18,
        wd in 1usize..40,
        data in prop::collection::vec(-2.0f32..2.0, MAX_DATA),
    ) {
        let (Some(wide), Some(narrow)) = (cpu_simd::micro_avx512(), cpu_simd::micro()) else {
            return Ok(());
        };
        let (x, w, b) = operands(pick, h, wd, &data);
        let diff = first_mismatch(&conv(wide, &x, &w, &b), &conv(narrow, &x, &w, &b));
        prop_assert_eq!(diff, None, "{:?} on {}x{}", shape(pick), h, wd);
    }

    /// (b) Every backend is the parent's micro-kernel bit for bit: the
    /// register tiles on full blocks, the pixel-innermost ragged body
    /// on everything the scalar edge loop used to take.
    #[test]
    fn every_backend_matches_the_parent_micro_kernel_bitwise(
        pick in 0usize..PICKS,
        h in 1usize..18,
        wd in 1usize..40,
        data in prop::collection::vec(-2.0f32..2.0, MAX_DATA),
    ) {
        let (x, w, b) = operands(pick, h, wd, &data);
        let unfused = reference::conv(false, &x, &w, &b);
        let diff = first_mismatch(&conv(ScalarMicro, &x, &w, &b), &unfused);
        prop_assert_eq!(diff, None, "scalar, {:?} on {}x{}", shape(pick), h, wd);
        let fused = reference::conv(true, &x, &w, &b);
        if let Some(m) = cpu_simd::micro() {
            let diff = first_mismatch(&conv(m, &x, &w, &b), &fused);
            prop_assert_eq!(diff, None, "avx2, {:?} on {}x{}", shape(pick), h, wd);
        }
        if let Some(m) = cpu_simd::micro_avx512() {
            let diff = first_mismatch(&conv(m, &x, &w, &b), &fused);
            prop_assert_eq!(diff, None, "avx512, {:?} on {}x{}", shape(pick), h, wd);
        }
    }

    /// (c) Each vector tile stays inside the scalar-vs-SIMD envelope
    /// `tests/device_equivalence.rs` holds the selected one to.
    #[test]
    fn each_vector_tile_stays_in_the_scalar_envelope(
        pick in 0usize..PICKS,
        h in 1usize..18,
        wd in 1usize..40,
        data in prop::collection::vec(-2.0f32..2.0, MAX_DATA),
    ) {
        let (x, w, b) = operands(pick, h, wd, &data);
        let scalar = conv(ScalarMicro, &x, &w, &b);
        let tiles = [
            cpu_simd::micro().map(|m| conv(m, &x, &w, &b)),
            cpu_simd::micro_avx512().map(|m| conv(m, &x, &w, &b)),
        ];
        for simd in tiles.iter().flatten() {
            for (s, v) in scalar.as_slice().iter().zip(simd.as_slice()) {
                prop_assert!(
                    (s - v).abs() <= TOL * (1.0 + s.abs()),
                    "{:?} on {}x{}: scalar {} vs simd {}", shape(pick), h, wd, s, v
                );
            }
        }
    }
}

/// The AVX-512 tile with a seeded bug: zmm column groups 1 and 2 of
/// every 64-wide tile land in each other's place.
#[derive(Clone, Copy)]
struct SwappedZmmGroups(Avx512Micro);

impl MicroGemm for SwappedZmmGroups {
    const TILE: &'static str = "avx512_4x64_swapped";
    const TILE_COLS: usize = 64;

    fn full_rows(&self, blk: &mut RowBlock<'_>, cols: usize) {
        self.0.full_rows(blk, cols);
        for m in 0..MR {
            for j0 in (0..cols - cols % 64).step_by(64) {
                let tile = &mut blk.out[m * blk.ld + blk.c0 + j0..][..64];
                let (lo, hi) = tile[16..48].split_at_mut(16);
                lo.swap_with_slice(hi);
            }
        }
    }

    fn ragged_rows(&self, blk: &mut RowBlock<'_>, rows: usize, j0: usize, jn: usize) {
        self.0.ragged_rows(blk, rows, j0, jn);
    }

    fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        self.0.dot(a, b)
    }
}

#[test]
fn bitwise_comparison_catches_swapped_zmm_column_groups() {
    let (Some(wide), Some(narrow)) = (cpu_simd::micro_avx512(), cpu_simd::micro()) else {
        return;
    };
    let data: Vec<f32> = (0..MAX_DATA).map(|i| (i as f32 * 0.1307).sin()).collect();
    // 8→16 on 8×10 = 80 px: one 64-wide tile and one 16-wide tile.
    let (x, w, b) = operands(1, 8, 10, &data);
    let good = conv(narrow, &x, &w, &b);
    assert_eq!(first_mismatch(&conv(wide, &x, &w, &b), &good), None);
    let (at, ..) = first_mismatch(&conv(SwappedZmmGroups(wide), &x, &w, &b), &good)
        .expect("a swapped pair of column groups must show");
    assert_eq!(at, 16, "the first moved column of the first row");
}

/// Counts what the driver asks of a backend, and computes nothing.
#[derive(Clone, Copy)]
struct Counting<'a> {
    tiled: &'a AtomicUsize,
    ragged: &'a AtomicUsize,
}

impl MicroGemm for Counting<'_> {
    const TILE: &'static str = "counting";
    const TILE_COLS: usize = NR;

    fn full_rows(&self, _: &mut RowBlock<'_>, cols: usize) {
        self.tiled.fetch_add(MR * cols, Ordering::SeqCst);
    }

    fn ragged_rows(&self, _: &mut RowBlock<'_>, rows: usize, _: usize, jn: usize) {
        self.ragged.fetch_add(rows * jn, Ordering::SeqCst);
    }

    fn dot(&self, _: &[f32], _: &[f32]) -> f32 {
        0.0
    }
}

/// The path each model conv takes at the extents the model feeds it
/// (a 16×16 patch at bins 0 and 3 for the decoder, the 64×256 LR field
/// for the scorer). A new model shape that leaves the register tiles
/// has to be added here with its path, where a reviewer sees it, not
/// found in a benchmark.
#[test]
fn model_convs_take_the_paths_the_table_says() {
    for (i, &(ic, oc, path)) in MODEL_SHAPES.iter().enumerate() {
        let extents: &[(usize, usize)] = if i < 6 {
            &[(16, 16), (128, 128)]
        } else {
            &[(64, 256)]
        };
        for &(h, wd) in extents {
            let (tiled, ragged) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let counting = Counting {
                tiled: &tiled,
                ragged: &ragged,
            };
            let x = Tensor::<F>::zeros(Shape::d4(1, ic, h, wd));
            let w = Tensor::<F>::zeros(Shape::d4(oc, ic, 3, 3));
            conv(counting, &x, &w, &Tensor::zeros(Shape::d1(oc))).recycle();
            let outputs = oc * h * wd;
            let want = match path {
                Path::FullTiles => (outputs, 0),
                Path::RaggedRows => (0, outputs),
            };
            assert_eq!(
                (tiled.into_inner(), ragged.into_inner()),
                want,
                "{ic}→{oc} on {h}x{wd}: (tiled, ragged) outputs"
            );
        }
    }
}

/// `micro` with [`MicroGemm::weight_grad`] left at its provided body:
/// one im2col row at a time and one [`MicroGemm::dot`] per element, the
/// reference the vector backends' lane-tiled override must match.
#[derive(Clone, Copy)]
struct DotOnly<M>(M);

impl<M: MicroGemm> MicroGemm for DotOnly<M> {
    const TILE: &'static str = "dot_only";
    const TILE_COLS: usize = M::TILE_COLS;

    fn full_rows(&self, blk: &mut RowBlock<'_>, cols: usize) {
        self.0.full_rows(blk, cols);
    }

    fn ragged_rows(&self, blk: &mut RowBlock<'_>, rows: usize, j0: usize, jn: usize) {
        self.0.ragged_rows(blk, rows, j0, jn);
    }

    fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        self.0.dot(a, b)
    }
}

/// `dw` (`oc × ic × 3 × 3`, starting from the first `oc · ic · 9`
/// floats of `data`) after two items of [`MicroGemm::weight_grad`] on
/// `micro`, same-padded, on `h × wd`; the items' `dy` and `x` follow.
fn weight_grad<M: MicroGemm>(
    micro: M,
    oc: usize,
    ic: usize,
    h: usize,
    wd: usize,
    data: &[f32],
) -> Tensor<F> {
    let (nx, ny, nw) = (ic * h * wd, oc * h * wd, oc * ic * 9);
    let mut dw = Tensor::from_vec(Shape::d4(oc, ic, 3, 3), data[..nw].to_vec());
    for item in 0..2 {
        let at = nw + item * (nx + ny);
        let grad = GradItem {
            dy: &data[at..at + ny],
            x: &data[at + ny..at + ny + nx],
            oc,
            ic,
            h,
            wd,
            kh: 3,
            kw: 3,
            pad: 1,
            oh: h,
            ow: wd,
        };
        micro.weight_grad(&grad, dw.as_mut_slice());
    }
    dw
}

/// Room for the largest draw below: 64 × 64 weights, two items of
/// 64 + 64 channels on 12 × 17.
const GRAD_DATA: usize = 64 * 64 * 9 + 2 * 128 * 12 * 17;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (d) The weight gradient's two lane-tiled overrides agree bit for
    /// bit with each other and with the provided one-`dot`-per-element
    /// body, whatever the channel counts (`oc` off a multiple of four,
    /// `k_len` off a multiple of 16 and past one 64-column panel) and
    /// however the pixels split into 32-lane chunks and a tail.
    #[test]
    fn weight_grad_overrides_match_the_dot_chain_bitwise(
        oc in 1usize..65,
        ic in 1usize..65,
        h in 1usize..13,
        wd in 1usize..18,
        data in prop::collection::vec(-2.0f32..2.0, GRAD_DATA),
    ) {
        let (Some(wide), Some(narrow)) = (cpu_simd::micro_avx512(), cpu_simd::micro()) else {
            return Ok(());
        };
        let reference = weight_grad(DotOnly(narrow), oc, ic, h, wd, &data);
        for (name, got) in [
            ("avx2", weight_grad(narrow, oc, ic, h, wd, &data)),
            ("avx512", weight_grad(wide, oc, ic, h, wd, &data)),
        ] {
            let diff = first_mismatch(&got, &reference);
            prop_assert_eq!(diff, None, "{} on {}→{} at {}x{}", name, ic, oc, h, wd);
        }
    }
}
