//! The vectorized CPU backend: AVX2 + FMA micro-kernels.
//!
//! Strategy (DESIGN.md §15): the tile micro-kernels are written
//! against the AVX2/FMA intrinsics directly, under
//! `#[target_feature(enable = "avx2", enable = "fma")]`. Each `MR × NR`
//! = 4×16 accumulator tile is hoisted into eight ymm registers for the
//! whole `k` reduction — per `k` step: two 256-bit column loads, four
//! weight broadcasts, eight `vfmadd231ps` — which keeps both FMA pipes
//! fed and is where the ≥2× GFLOP/s over the scalar plane comes from
//! (the scalar build must round after every multiply and add, and
//! cannot be auto-FMA'd without `-ffast-math`-style license; it also
//! re-loads the accumulator block from the stack under baseline SSE2).
//! The dot-product kernel splits its reduction across 32 independent
//! lanes (4 ymm accumulators) to break the serial FMA dependency chain.
//!
//! ## Safety / the `unsafe_code` waiver
//!
//! `#[target_feature]` functions are safe to *define* but unsafe to
//! *call* from a non-feature context: the caller must guarantee the
//! CPU actually has the features, otherwise the call is UB (illegal
//! instruction at best). That guarantee is structural here:
//! [`SimdMicro`] has a private constructor reachable only through
//! [`micro`], which gates on `is_x86_feature_detected!("avx2")` &&
//! `("fma")` at runtime. Every `unsafe` block in this file is one of
//! those calls, holding a `SimdMicro` as proof of detection. The
//! kernels themselves contain no pointer arithmetic — all slice
//! accesses stay bounds-checked — so the only obligation discharged is
//! feature presence. The module-level `allow` below overrides the
//! workspace-wide `unsafe_code = "deny"`; the repo lint's
//! `unsafe-code` rule requires the matching waiver in
//! `check/allow.toml` to carry this rationale.
//!
//! On non-x86_64 targets (or x86_64 without AVX2/FMA) [`micro`]
//! returns `None` and [`crate::device::Device::CpuSimd`] falls back to
//! the scalar micro-kernels, so the enum is always safe to select.
#![allow(unsafe_code)]

#[cfg(not(target_arch = "x86_64"))]
use crate::device::cpu_scalar::ScalarMicro;
use crate::device::driver::MicroGemm;
use crate::kernels::{MR, NR};

/// Zero-sized proof token: constructible only via [`micro`], which
/// verifies AVX2 + FMA support, so holding one licenses the
/// `target_feature` calls below.
#[derive(Clone, Copy, Debug)]
pub struct SimdMicro(());

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

/// The vectorized micro-kernel handle, or `None` if the CPU lacks
/// AVX2/FMA (the device layer then falls back to [`ScalarMicro`]).
pub fn micro() -> Option<SimdMicro> {
    if available() {
        Some(SimdMicro(()))
    } else {
        None
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The feature-gated kernel bodies, written against the AVX2/FMA
    //! intrinsics directly so the `MR × NR` accumulator tile provably
    //! lives in eight ymm registers for the whole reduction. Under
    //! Rust ≥ 1.87 the arithmetic intrinsics (`set1`, `fmadd`) are
    //! *safe* inside a matching `#[target_feature]` fn; only the
    //! pointer loads/stores need `unsafe`, each over a slice whose
    //! bounds were just checked (see the per-site SAFETY notes).

    use core::arch::x86_64::{_mm256_fmadd_ps, _mm256_loadu_ps, _mm256_set1_ps, _mm256_storeu_ps};

    use crate::kernels::{MR, NR};

    /// Load one `NR = 16`-lane accumulator row as two ymm vectors.
    ///
    /// # Safety
    /// `row` has `NR == 16` elements by its type, so both 8-lane loads
    /// are in bounds; caller must hold AVX2 (enforced by the enclosing
    /// `target_feature` fns only being reachable through [`super::SimdMicro`]).
    #[target_feature(enable = "avx2", enable = "fma")]
    fn load_row(row: &[f32; NR]) -> [core::arch::x86_64::__m256; 2] {
        // SAFETY: [f32; 16] covers lanes 0..8 and 8..16.
        unsafe {
            [
                _mm256_loadu_ps(row.as_ptr()),
                _mm256_loadu_ps(row.as_ptr().add(8)),
            ]
        }
    }

    /// Store two ymm vectors back into an `NR = 16`-lane row.
    #[target_feature(enable = "avx2", enable = "fma")]
    fn store_row(row: &mut [f32; NR], v: [core::arch::x86_64::__m256; 2]) {
        // SAFETY: [f32; 16] covers lanes 0..8 and 8..16.
        unsafe {
            _mm256_storeu_ps(row.as_mut_ptr(), v[0]);
            _mm256_storeu_ps(row.as_mut_ptr().add(8), v[1]);
        }
    }

    /// Packed-weight `MR × NR` tile accumulation with FMA: per `k` step
    /// two 256-bit column loads, four broadcasts from one contiguous
    /// `MR`-float group of the k-major packed panel, eight FMAs — each
    /// lane a `k`-ascending FMA chain.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) fn tile_packed(
        acc: &mut [[f32; NR]; MR],
        wp_block: &[f32],
        colp: &[f32],
        cn: usize,
        j0: usize,
    ) {
        let mut a = [
            load_row(&acc[0]),
            load_row(&acc[1]),
            load_row(&acc[2]),
            load_row(&acc[3]),
        ];
        for (ctile, wk) in colp.chunks_exact(cn).zip(wp_block.chunks_exact(MR)) {
            let ctile = &ctile[j0..j0 + NR];
            // SAFETY: `ctile` was just sliced to NR == 16 elements.
            let c0 = unsafe { _mm256_loadu_ps(ctile.as_ptr()) };
            let c1 = unsafe { _mm256_loadu_ps(ctile.as_ptr().add(8)) };
            for (am, &wv) in a.iter_mut().zip(wk) {
                let wv = _mm256_set1_ps(wv);
                am[0] = _mm256_fmadd_ps(wv, c0, am[0]);
                am[1] = _mm256_fmadd_ps(wv, c1, am[1]);
            }
        }
        for (row, av) in acc.iter_mut().zip(a) {
            store_row(row, av);
        }
    }

    /// FMA dot product over 32 independent partial-sum lanes (4 ymm
    /// accumulators), so consecutive FMAs don't serialize on one
    /// register; scalar FMA tail for the remainder.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) fn dot(a: &[f32], b: &[f32]) -> f32 {
        const LANES: usize = 32;
        let mut acc = [0.0f32; LANES];
        let mut ia = a.chunks_exact(LANES);
        let mut ib = b.chunks_exact(LANES);
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
}

impl MicroGemm for SimdMicro {
    #[inline]
    fn tile_packed(
        &self,
        acc: &mut [[f32; NR]; MR],
        wp_block: &[f32],
        colp: &[f32],
        cn: usize,
        j0: usize,
    ) {
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: `self` proves `micro()` observed avx2+fma at runtime.
            unsafe { x86::tile_packed(acc, wp_block, colp, cn, j0) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        ScalarMicro.tile_packed(acc, wp_block, colp, cn, j0)
    }

    #[inline]
    fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: `self` proves `micro()` observed avx2+fma at runtime.
            unsafe { x86::dot(a, b) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            ScalarMicro.dot(a, b)
        }
    }
}
