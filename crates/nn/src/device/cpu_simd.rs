//! The vectorized CPU backend: AVX2+FMA and AVX-512 micro-kernels.
//!
//! Strategy (DESIGN.md §10.4): the register tiles are written against the
//! intrinsics directly, under `#[target_feature]`, so the accumulators
//! provably live in vector registers for the whole `k` reduction. Two
//! tiles sit behind [`crate::device::Device::CpuSimd`], the widest one
//! the CPU has being picked at run time:
//!
//! * [`Avx512Micro`], `MR × 64`: sixteen zmm accumulators; per `k` step
//!   four 512-bit column loads, four weight broadcasts, sixteen
//!   `vfmadd231ps`. Columns left after a panel's last 64-wide tile run
//!   the 4×16 tile below.
//! * [`SimdMicro`], `MR × 16`: eight ymm accumulators; per `k` step two
//!   256-bit column loads, four broadcasts, eight FMAs. With two loads
//!   per eight FMAs it is bound by its register tile, not the FMA pipes
//!   (EXPERIMENTS.md); it is what a CPU without `avx512f` runs.
//!
//! Either way each output lane is one `k`-ascending FMA chain from 0.0
//! with the bias added last, so the two tiles agree bitwise and differ
//! from the scalar plane only by the fused rounding (the scalar build
//! must round after every multiply and add, and cannot be auto-FMA'd
//! without `-ffast-math`-style license). Ragged edges run the shared
//! `driver::ragged_rows_body` compiled under each tile's features, and the
//! dot-product kernel splits its reduction across 32 independent lanes
//! to break the serial FMA dependency chain. The weight gradient keeps
//! that dot's chain per element but runs it on the tiles above, one
//! lane of pixels at a time (`driver::weight_grad_lanes`, compiled under
//! each tile's features).
//!
//! ## Safety / the `unsafe_code` waiver
//!
//! `#[target_feature]` functions are safe to *define* but unsafe to
//! *call* from a non-feature context: the caller must guarantee the
//! CPU actually has the features, otherwise the call is UB (illegal
//! instruction at best). That guarantee is structural here:
//! [`SimdMicro`] and [`Avx512Micro`] have private constructors
//! reachable only through [`micro`] and [`micro_avx512`], which gate on
//! `is_x86_feature_detected!` for `avx2` + `fma` (and `avx512f` for the
//! wide tile) at runtime. Every `unsafe` block in a `MicroGemm` impl is
//! one of those calls, holding a token as proof of detection. The only
//! other `unsafe` is the tiles' vector loads and stores, each over a
//! slice that was just bounds-checked to the vector's length — there is
//! no other pointer arithmetic. The `expect` on the x86_64-only `x86`
//! module, where every `unsafe` lives, overrides the workspace-wide
//! `unsafe_code = "deny"` and carries this rationale as its reason (on
//! other targets there is no module and so no expectation to go
//! unfulfilled); the workspace's `clippy::undocumented_unsafe_blocks`
//! deny makes every block argue its own case in a `// SAFETY:` comment.
//!
//! On non-x86_64 targets (or x86_64 without AVX2/FMA) [`micro`]
//! returns `None` and [`crate::device::Device::CpuSimd`] falls back to
//! the scalar micro-kernels, so the enum is always safe to select.

#[cfg(target_arch = "x86_64")]
pub use x86::{Avx512Micro, SimdMicro};

/// Off x86_64 there are no vector tiles: the token names alias the
/// scalar handle and [`micro`] / [`micro_avx512`] never hand one out.
#[cfg(not(target_arch = "x86_64"))]
pub use crate::device::cpu_scalar::{ScalarMicro as Avx512Micro, ScalarMicro as SimdMicro};

/// Whether the vectorized micro-kernels can run on this machine.
pub fn available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The AVX2+FMA micro-kernel handle, or `None` if the CPU lacks
/// AVX2/FMA (the device layer then falls back to
/// [`crate::device::cpu_scalar::ScalarMicro`]).
pub fn micro() -> Option<SimdMicro> {
    #[cfg(target_arch = "x86_64")]
    if available() {
        return Some(SimdMicro(()));
    }
    None
}

/// The AVX-512 micro-kernel handle, or `None` if the CPU lacks
/// `avx512f` (the device layer then tries [`micro`]).
pub fn micro_avx512() -> Option<Avx512Micro> {
    #[cfg(target_arch = "x86_64")]
    if available() && std::arch::is_x86_feature_detected!("avx512f") {
        return Some(Avx512Micro(()));
    }
    None
}

#[cfg(target_arch = "x86_64")]
#[expect(
    unsafe_code,
    reason = "the AVX2+FMA and AVX-512 micro-kernel plane: every unsafe block outside the vector loads and stores calls a #[target_feature] fn, reachable only through a SimdMicro or Avx512Micro token constructed after is_x86_feature_detected! confirms the features at runtime; every vector load and store is over a slice just bounds-checked to the vector's length"
)]
mod x86 {
    //! The feature-gated kernel bodies. Under Rust ≥ 1.89 the
    //! arithmetic intrinsics (`set1`, `fmadd`, `add`), 512-bit ones
    //! included, are *safe* inside a matching `#[target_feature]` fn,
    //! and one such fn may call another whose features it has; only the
    //! pointer loads/stores need `unsafe`, each over a slice whose
    //! bounds were just checked (see the per-site SAFETY notes).

    use core::arch::x86_64::{
        _mm256_add_ps, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_set1_ps, _mm256_setzero_ps,
        _mm256_storeu_ps, _mm512_add_ps, _mm512_fmadd_ps, _mm512_loadu_ps, _mm512_set1_ps,
        _mm512_setzero_ps, _mm512_storeu_ps,
    };

    use crate::device::driver::{
        ragged_rows_body, weight_grad_lanes, GradItem, MicroGemm, RowBlock, DOT_LANES,
    };
    use crate::kernels::{MR, NR};

    /// Zero-sized proof token for the AVX2+FMA 4×16 tile: constructible
    /// only via [`super::micro`], which verifies AVX2 + FMA support, so
    /// holding one licenses the `target_feature` calls below.
    #[derive(Clone, Copy, Debug)]
    pub struct SimdMicro(pub(super) ());

    /// Zero-sized proof token for the AVX-512 4×64 tile: constructible
    /// only via [`super::micro_avx512`], which verifies `avx512f` on top
    /// of AVX2 + FMA.
    #[derive(Clone, Copy, Debug)]
    pub struct Avx512Micro(pub(super) ());

    /// Columns of the AVX-512 tile: four zmm groups of 16.
    const WIDE: usize = 64;

    /// One `MR × 16` tile at panel column `j0`: per `k` step two 256-bit
    /// column loads, four broadcasts from one contiguous `MR`-float
    /// group of the k-major packed panel, eight FMAs — each lane a
    /// `k`-ascending FMA chain from 0.0 — then bias added and stored.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    fn tile_4x16(blk: &mut RowBlock<'_>, j0: usize) {
        let mut a = [[_mm256_setzero_ps(); 2]; MR];
        for (crow, wk) in blk.colp.chunks_exact(blk.cn).zip(blk.wp.chunks_exact(MR)) {
            let ctile = &crow[j0..j0 + NR];
            // SAFETY: `ctile` was just sliced to NR == 16 elements.
            let c0 = unsafe { _mm256_loadu_ps(ctile.as_ptr()) };
            // SAFETY: as above; elements 8..16 are in bounds.
            let c1 = unsafe { _mm256_loadu_ps(ctile.as_ptr().add(8)) };
            for (am, &wv) in a.iter_mut().zip(wk) {
                let wv = _mm256_set1_ps(wv);
                am[0] = _mm256_fmadd_ps(wv, c0, am[0]);
                am[1] = _mm256_fmadd_ps(wv, c1, am[1]);
            }
        }
        for (m, am) in a.iter().enumerate() {
            let b = _mm256_set1_ps(blk.bias[m]);
            let orow = &mut blk.out[m * blk.ld + blk.c0 + j0..][..NR];
            // SAFETY: `orow` was just sliced to NR == 16 elements.
            unsafe {
                _mm256_storeu_ps(orow.as_mut_ptr(), _mm256_add_ps(am[0], b));
                _mm256_storeu_ps(orow.as_mut_ptr().add(8), _mm256_add_ps(am[1], b));
            }
        }
    }

    /// One `MR × 64` tile at panel column `j0`: the same per-lane chain
    /// as [`tile_4x16`] over four zmm column groups per row.
    #[inline]
    #[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
    fn tile_4x64(blk: &mut RowBlock<'_>, j0: usize) {
        let mut a = [[_mm512_setzero_ps(); WIDE / 16]; MR];
        for (crow, wk) in blk.colp.chunks_exact(blk.cn).zip(blk.wp.chunks_exact(MR)) {
            let ctile = &crow[j0..j0 + WIDE];
            // SAFETY: `ctile` was just sliced to WIDE == 64 elements,
            // four groups of 16.
            let c: [_; WIDE / 16] =
                std::array::from_fn(|g| unsafe { _mm512_loadu_ps(ctile.as_ptr().add(16 * g)) });
            for (am, &wv) in a.iter_mut().zip(wk) {
                let wv = _mm512_set1_ps(wv);
                for (acc, &cg) in am.iter_mut().zip(&c) {
                    *acc = _mm512_fmadd_ps(wv, cg, *acc);
                }
            }
        }
        for (m, am) in a.iter().enumerate() {
            let b = _mm512_set1_ps(blk.bias[m]);
            let orow = &mut blk.out[m * blk.ld + blk.c0 + j0..][..WIDE];
            for (g, &acc) in am.iter().enumerate() {
                // SAFETY: `orow` was just sliced to WIDE == 64 elements
                // and `g < 4`.
                unsafe { _mm512_storeu_ps(orow.as_mut_ptr().add(16 * g), _mm512_add_ps(acc, b)) };
            }
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) fn full_rows_avx2(blk: &mut RowBlock<'_>, cols: usize) {
        for j0 in (0..cols).step_by(NR) {
            tile_4x16(blk, j0);
        }
    }

    /// The remainder rule: 64-wide tiles while they fit, then 16-wide
    /// ones — `cols` is a multiple of 16, so nothing is left over.
    #[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
    pub(super) fn full_rows_avx512(blk: &mut RowBlock<'_>, cols: usize) {
        let wide = cols - cols % WIDE;
        for j0 in (0..wide).step_by(WIDE) {
            tile_4x64(blk, j0);
        }
        for j0 in (wide..cols).step_by(NR) {
            tile_4x16(blk, j0);
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) fn ragged_rows_avx2(blk: &mut RowBlock<'_>, rows: usize, j0: usize, jn: usize) {
        ragged_rows_body(blk, rows, j0, jn);
    }

    #[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
    pub(super) fn ragged_rows_avx512(blk: &mut RowBlock<'_>, rows: usize, j0: usize, jn: usize) {
        ragged_rows_body(blk, rows, j0, jn);
    }

    /// The lane-tiled weight gradient compiled under the 4×16 tile's
    /// features, so its packing and lane sums vectorize as widely as
    /// the tile itself and the tile inlines into it.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) fn weight_grad_avx2(m: SimdMicro, item: &GradItem<'_>, dw: &mut [f32]) {
        weight_grad_lanes(m, item, dw);
    }

    /// As [`weight_grad_avx2`], on the 4×64 tile.
    #[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
    pub(super) fn weight_grad_avx512(m: Avx512Micro, item: &GradItem<'_>, dw: &mut [f32]) {
        weight_grad_lanes(m, item, dw);
    }

    /// FMA dot product over 32 independent partial-sum lanes (4 ymm
    /// accumulators), so consecutive FMAs don't serialize on one
    /// register; scalar FMA tail for the remainder, then the tail plus
    /// lanes 0..31 in order. The weight gradient's per-element chain;
    /// [`weight_grad_lanes`] computes it on the register tiles.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) fn dot(a: &[f32], b: &[f32]) -> f32 {
        let mut acc = [0.0f32; DOT_LANES];
        let mut ia = a.chunks_exact(DOT_LANES);
        let mut ib = b.chunks_exact(DOT_LANES);
        for (ca, cb) in (&mut ia).zip(&mut ib) {
            for (l, slot) in acc.iter_mut().enumerate() {
                *slot = ca[l].mul_add(cb[l], *slot);
            }
        }
        let mut sum = 0.0f32;
        for (&x, &y) in ia.remainder().iter().zip(ib.remainder()) {
            sum = x.mul_add(y, sum);
        }
        for v in acc {
            sum += v;
        }
        sum
    }

    impl MicroGemm for SimdMicro {
        const TILE: &'static str = "avx2_4x16";
        const TILE_COLS: usize = NR;

        #[inline]
        fn full_rows(&self, blk: &mut RowBlock<'_>, cols: usize) {
            // SAFETY: `self` proves `micro()` observed avx2+fma at runtime.
            unsafe { full_rows_avx2(blk, cols) }
        }

        #[inline]
        fn ragged_rows(&self, blk: &mut RowBlock<'_>, rows: usize, j0: usize, jn: usize) {
            // SAFETY: `self` proves `micro()` observed avx2+fma at runtime.
            unsafe { ragged_rows_avx2(blk, rows, j0, jn) }
        }

        #[inline]
        fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
            // SAFETY: `self` proves `micro()` observed avx2+fma at runtime.
            unsafe { dot(a, b) }
        }

        #[inline]
        fn weight_grad(&self, item: &GradItem<'_>, dw: &mut [f32]) {
            // SAFETY: `self` proves `micro()` observed avx2+fma at runtime.
            unsafe { weight_grad_avx2(*self, item, dw) }
        }
    }

    impl MicroGemm for Avx512Micro {
        const TILE: &'static str = "avx512_4x64";
        const TILE_COLS: usize = WIDE;

        #[inline]
        fn full_rows(&self, blk: &mut RowBlock<'_>, cols: usize) {
            // SAFETY: `self` proves `micro_avx512()` observed
            // avx512f+avx2+fma at runtime.
            unsafe { full_rows_avx512(blk, cols) }
        }

        #[inline]
        fn ragged_rows(&self, blk: &mut RowBlock<'_>, rows: usize, j0: usize, jn: usize) {
            // SAFETY: `self` proves `micro_avx512()` observed
            // avx512f+avx2+fma at runtime.
            unsafe { ragged_rows_avx512(blk, rows, j0, jn) }
        }

        /// The 4×16 backend's reduction, so weight gradients keep their
        /// bits whichever tile the forward pass runs.
        #[inline]
        fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
            // SAFETY: `self` proves `micro_avx512()` observed avx2+fma
            // (with avx512f) at runtime.
            unsafe { dot(a, b) }
        }

        /// The same chains as the 4×16 backend's, on the 4×64 tile.
        #[inline]
        fn weight_grad(&self, item: &GradItem<'_>, dw: &mut [f32]) {
            // SAFETY: `self` proves `micro_avx512()` observed
            // avx512f+avx2+fma at runtime.
            unsafe { weight_grad_avx512(*self, item, dw) }
        }
    }
}
