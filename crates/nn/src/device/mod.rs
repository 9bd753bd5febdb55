//! Pluggable compute backends for the nn kernel plane.
//!
//! [`Device`] is the GEMM and nothing else: the packed conv forward
//! behind [`crate::Conv2d`] and [`crate::ConvTranspose2d`] (both
//! backward halves included: `dx` is a forward over the flip-transposed
//! weights) and the weight-gradient reduction, at every extent. Ops
//! whose cost is loads and stores, not arithmetic — pooling, softmax —
//! gain nothing from a vector plane and are free functions in
//! [`cpu_scalar`], called by their layers directly. Two backends exist
//! today:
//!
//! * [`Device::CpuScalar`] — the reference plane
//!   ([`cpu_scalar::ScalarMicro`]): plain scalar loops. The train ==
//!   serve contract (a mutable layer's `forward` and its frozen twin's
//!   `infer` agree bitwise) is stated *per backend*.
//! * [`Device::CpuSimd`] — the vectorized plane: the AVX-512 4×64
//!   tile ([`cpu_simd::Avx512Micro`]) where the CPU has `avx512f`, else
//!   the AVX2+FMA 4×16 tile ([`cpu_simd::SimdMicro`]); the two agree
//!   bitwise. Falls back to the scalar micro-kernels at runtime when
//!   the CPU lacks AVX2/FMA (or off x86_64), so selecting it is always
//!   safe. GEMM outputs differ from scalar only by FMA reassociation
//!   (ULP-bounded, pinned by `tests/device_equivalence.rs`).
//!
//! Dispatch is enum + monomorphization: each method matches on the
//! backend once per *kernel call* and runs a driver instantiated with
//! that backend's zero-sized micro-kernel handle
//! ([`driver::MicroGemm`]), so there is no per-tile virtual call.
//!
//! ## Selection
//!
//! [`Device::detect`] is the process-wide default used by every conv
//! layer constructor: SIMD wherever it can run, else scalar, probed once per
//! process. There is no override. Tests and tools that need a specific
//! backend construct [`Device::CpuScalar`] or [`Device::CpuSimd`]
//! directly or use the conv layers' `set_device` hooks
//! ([`crate::Layer::set_device`]) — there is deliberately no mutable
//! global, so a process's default backend never changes underneath a
//! running engine.

pub mod cpu_scalar;
pub mod cpu_simd;
pub mod driver;
#[cfg(test)]
mod tile_tests;

use std::sync::OnceLock;

use adarnet_tensor::{workspace, Tensor};

use crate::kernels::{pack_weight_panels, packed_panels_len, PackedPanels};
use crate::F;

/// A compute backend for the nn kernel plane. See the module docs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Device {
    /// Reference scalar CPU plane (bitwise-stable baseline).
    CpuScalar,
    /// Vectorized AVX2+FMA CPU plane (runtime-detected, scalar
    /// fallback when unavailable).
    CpuSimd,
}

/// Instantiate `$body` with `$m` bound to the selected backend's
/// micro-kernel handle. `CpuSimd` takes the widest register tile the
/// CPU has — the AVX-512 4×64 tile, else the AVX2 4×16 tile — and
/// without runtime AVX2/FMA support degrades to the scalar handle.
macro_rules! with_micro {
    ($dev:expr, $m:ident => $body:expr) => {
        match $dev {
            Device::CpuScalar => {
                let $m = cpu_scalar::ScalarMicro;
                $body
            }
            Device::CpuSimd => {
                if let Some($m) = cpu_simd::micro_avx512() {
                    $body
                } else if let Some($m) = cpu_simd::micro() {
                    $body
                } else {
                    let $m = cpu_scalar::ScalarMicro;
                    $body
                }
            }
        }
    };
}

fn tile_of<M: driver::MicroGemm>(_: M) -> (&'static str, usize) {
    (M::TILE, M::TILE_COLS)
}

impl Device {
    /// The process-wide default backend, and the best this machine can
    /// run: [`Device::CpuSimd`] when AVX2+FMA are present, else
    /// [`Device::CpuScalar`]. Probed once and cached for the life of
    /// the process.
    pub fn detect() -> Device {
        static DETECTED: OnceLock<Device> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            if cpu_simd::available() {
                Device::CpuSimd
            } else {
                Device::CpuScalar
            }
        })
    }

    /// Canonical backend name (`cpu_scalar` / `cpu_simd`).
    pub fn name(self) -> &'static str {
        match self {
            Device::CpuScalar => "cpu_scalar",
            Device::CpuSimd => "cpu_simd",
        }
    }

    /// Whether this selection actually runs the vectorized
    /// micro-kernels on this machine (false for `CpuSimd` on hardware
    /// without AVX2/FMA, where it degrades to scalar).
    pub fn is_simd_active(self) -> bool {
        self == Device::CpuSimd && cpu_simd::available()
    }

    /// The widest register tile this selection's GEMM runs on this
    /// machine, by name (`scalar_4x16` | `avx2_4x16` | `avx512_4x64`)
    /// and by columns (16 | 64).
    pub fn gemm_tile(self) -> (&'static str, usize) {
        with_micro!(self, m => tile_of(m))
    }

    /// Blocked im2col + GEMM over packed weight panels on this
    /// backend's register tile: the semantics of the reference
    /// [`cpu_scalar::conv2d_forward_direct`], and the one conv path
    /// every layer runs, at every extent. Packing happens
    /// outside ([`crate::kernels::pack_weight_panels`]): once at freeze
    /// time for a frozen model, once per call for a mutable layer
    /// ([`Device::conv2d_forward_percall`]). See [`driver`] for the
    /// blocking structure (DESIGN.md §10).
    pub fn conv2d_forward_packed(
        self,
        x: &Tensor<F>,
        w: PackedPanels<'_>,
        bias: &Tensor<F>,
        pad: usize,
    ) -> Tensor<F> {
        with_micro!(self, m => driver::conv2d_forward_packed(m, x, w, bias, pad))
    }

    /// [`Device::conv2d_forward_packed`] on an unpacked conv-layout
    /// weight `(OC, IC, KH, KW)`: packs it into pooled aligned scratch
    /// (`1/o_len` of the GEMM work), runs the driver, and returns the
    /// scratch. The mutable layers' entry point — their weights change
    /// every optimizer step, so there is nothing to keep; frozen layers
    /// pack once at freeze time instead. Same panels, same driver, so
    /// bitwise the frozen result.
    pub fn conv2d_forward_percall(
        self,
        x: &Tensor<F>,
        w: &Tensor<F>,
        bias: &Tensor<F>,
        pad: usize,
    ) -> Tensor<F> {
        let (oc, ic, kh, kw) = (w.dim(0), w.dim(1), w.dim(2), w.dim(3));
        let k_len = ic * kh * kw;
        let mut panels = workspace::take_aligned(packed_panels_len(oc, k_len));
        pack_weight_panels(w.as_slice(), oc, k_len, &mut panels);
        let view = PackedPanels {
            data: &panels,
            oc,
            ic,
            kh,
            kw,
        };
        let y = self.conv2d_forward_packed(x, view, bias, pad);
        workspace::put_aligned(panels);
        y
    }

    /// Weight/bias gradient accumulation: adds `dy_mat · col(x)^T` per
    /// batch item, in order, into `dw` `(OC, IC, KH, KW)`, every element
    /// by this backend's dot-product chain (docs/NUMERICS.md §2), and
    /// the per-channel sums of `dy` into `db` `(OC)`, which may be empty
    /// to skip the bias. No item's whole im2col matrix is ever built:
    /// the scalar backend fills one row at a time, the vector backends
    /// run their register tiles over one lane's rows of a 64-column
    /// panel ([`driver::MicroGemm::weight_grad`]).
    pub fn conv2d_backward_params(
        self,
        dy: &Tensor<F>,
        x: &Tensor<F>,
        pad: usize,
        dw: &mut Tensor<F>,
        db: &mut Tensor<F>,
    ) {
        with_micro!(self, m => driver::conv2d_backward_params(m, dy, x, pad, dw, db))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_matches_feature_probe() {
        let d = Device::detect();
        if cpu_simd::available() {
            assert_eq!(d, Device::CpuSimd);
            assert!(d.is_simd_active());
        } else {
            assert_eq!(d, Device::CpuScalar);
        }
        // Scalar never claims the vector plane.
        assert!(!Device::CpuScalar.is_simd_active());
    }

    #[test]
    fn simd_selection_is_total() {
        // CpuSimd must be selectable on any machine: without AVX2/FMA
        // it degrades to the scalar micro-kernels instead of failing.
        use adarnet_tensor::Shape;
        let x = Tensor::<F>::from_vec(
            Shape::d4(1, 2, 6, 6),
            (0..72).map(|i| (i as F * 0.1).sin()).collect(),
        );
        let w = Tensor::<F>::from_vec(
            Shape::d4(3, 2, 3, 3),
            (0..54).map(|i| (i as F * 0.05).cos()).collect(),
        );
        let b = Tensor::<F>::zeros(Shape::d1(3));
        let y = Device::CpuSimd.conv2d_forward_percall(&x, &w, &b, 1);
        assert_eq!(y.shape(), &Shape::d4(1, 3, 6, 6));
        assert!(y.all_finite());
    }
}
