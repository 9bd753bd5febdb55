//! Pre-packed, frozen convolution weights for `&self` inference.
//!
//! [`PackedConvWeights`] owns a frozen conv weight plane at one of two
//! precisions ([`Precision`]):
//!
//! * **f32** — the conv-layout tensor (kept for the direct
//!   small-shape path) plus its GEMM A-panels packed once (see
//!   [`crate::kernels::pack_weight_panels`]) into the k-major,
//!   `MR`-blocked layout the micro-kernel consumes. Bitwise-identical
//!   to the source layer's training `forward`, which packs the same
//!   panels per call.
//! * **bf16** — *only* the A-panels, narrowed to bf16
//!   ([`crate::quantize::pack_weight_panels_bf16`]) plus the f32 bias.
//!   The unpacked weight copy is dropped entirely — every forward runs
//!   the packed bf16 GEMM driver regardless of output size (the
//!   dispatch threshold is a perf heuristic, not a correctness
//!   boundary, and keeping an f32 fallback copy would forfeit the
//!   resident-byte cut that is this plane's whole point). Resident
//!   bytes land near 0.25× the f32 plane's (2-byte panels, no 4-byte
//!   unpacked copy).
//!
//! Freezing a [`crate::Conv2d`] packs its weight directly; freezing a
//! [`crate::ConvTranspose2d`] applies [`flip_transpose_weights`]
//! **once** here instead of on every forward call — the deconv layers
//! are where per-call weight preparation hurt most. [`FrozenConv2d`]
//! wraps the packed weights as an [`InferLayer`].

use adarnet_tensor::{AlignedBuf, Tensor};

use crate::device::Device;
use crate::kernels::{
    flip_transpose_weights, pack_weight_panels, packed_panels_len, runs_gemm, PackedPanels,
};
use crate::quantize::{pack_weight_panels_bf16, PackedPanelsBf16, Precision};
use crate::{InferLayer, F};

/// The precision-variant weight storage behind [`PackedConvWeights`].
enum WeightPlane {
    /// Full-precision plane: unpacked conv-layout weight (for the
    /// direct path) plus 64-byte-aligned f32 A-panels.
    F32 {
        /// Conv layout `(OC, IC, KH, KW)`.
        weight: Tensor<F>,
        /// Pre-packed A-panels, `packed_panels_len(oc, ic*kh*kw)`
        /// floats, aligned for the SIMD micro-kernel's panel reads.
        packed: AlignedBuf,
    },
    /// Reduced-precision plane: bf16 A-panels only; the shape metadata
    /// the f32 plane reads off its weight tensor is carried explicitly.
    Bf16 {
        panels: Vec<u16>,
        oc: usize,
        ic: usize,
        kh: usize,
        kw: usize,
    },
}

/// A conv weight frozen for inference at a chosen [`Precision`].
pub struct PackedConvWeights {
    plane: WeightPlane,
    bias: Tensor<F>,
    pad: usize,
    /// Compute backend the frozen forward runs on, captured at freeze
    /// time from the source layer.
    device: Device,
}

impl PackedConvWeights {
    /// Pack a conv-layout weight `(OC, IC, KH, KW)` for `device` at
    /// `precision` (the frozen layer inherits the source layer's
    /// device). The one-time pack cost is timed under the caller's
    /// `prepack_ns` span.
    pub fn from_conv_weight(
        device: Device,
        precision: Precision,
        weight: &Tensor<F>,
        bias: &Tensor<F>,
        pad: usize,
    ) -> Self {
        let (oc, ic, kh, kw) = (weight.dim(0), weight.dim(1), weight.dim(2), weight.dim(3));
        let k_len = ic * kh * kw;
        let plane = match precision {
            Precision::F32 => {
                let mut packed = AlignedBuf::new();
                packed.resize(packed_panels_len(oc, k_len));
                pack_weight_panels(weight.as_slice(), oc, k_len, packed.as_mut_slice());
                WeightPlane::F32 {
                    weight: weight.clone(),
                    packed,
                }
            }
            Precision::Bf16 => {
                let mut panels = vec![0u16; packed_panels_len(oc, k_len)];
                pack_weight_panels_bf16(weight.as_slice(), oc, k_len, &mut panels);
                WeightPlane::Bf16 {
                    panels,
                    oc,
                    ic,
                    kh,
                    kw,
                }
            }
        };
        PackedConvWeights {
            plane,
            bias: bias.clone(),
            pad,
            device,
        }
    }

    /// Pack a deconv-layout weight `(IC, OC, KH, KW)`: flip-transpose to
    /// the equivalent conv kernel once, then pack. Every subsequent
    /// forward skips both the flip and the pack.
    pub fn from_deconv_weight(
        device: Device,
        precision: Precision,
        weight: &Tensor<F>,
        bias: &Tensor<F>,
        pad: usize,
    ) -> Self {
        let w_conv = flip_transpose_weights(weight);
        let out = Self::from_conv_weight(device, precision, &w_conv, bias, pad);
        w_conv.recycle();
        out
    }

    /// The backend this frozen weight's forward runs on.
    pub fn device(&self) -> Device {
        self.device
    }

    /// The weight-plane storage precision chosen at freeze time.
    pub fn precision(&self) -> Precision {
        match self.plane {
            WeightPlane::F32 { .. } => Precision::F32,
            WeightPlane::Bf16 { .. } => Precision::Bf16,
        }
    }

    /// Input channel count (conv-layout axis 1).
    pub fn in_channels(&self) -> usize {
        match &self.plane {
            WeightPlane::F32 { weight, .. } => weight.dim(1),
            WeightPlane::Bf16 { ic, .. } => *ic,
        }
    }

    /// Output channel count (conv-layout axis 0).
    pub fn out_channels(&self) -> usize {
        match &self.plane {
            WeightPlane::F32 { weight, .. } => weight.dim(0),
            WeightPlane::Bf16 { oc, .. } => *oc,
        }
    }

    /// Actual resident bytes of this plane's weight storage — *stored*
    /// element sizes, not an assumed 4 bytes/element: the f32 plane
    /// counts the unpacked copy plus 4-byte panels, the bf16 plane only
    /// its 2-byte panels. The f32 bias is counted for both.
    pub fn weight_bytes(&self) -> usize {
        let bias_bytes = self.bias.len() * std::mem::size_of::<F>();
        match &self.plane {
            WeightPlane::F32 { weight, packed } => {
                (weight.len() + packed.len()) * std::mem::size_of::<F>() + bias_bytes
            }
            WeightPlane::Bf16 { panels, .. } => {
                panels.len() * std::mem::size_of::<u16>() + bias_bytes
            }
        }
    }

    /// Forward pass. The f32 plane keeps the exact dispatch of
    /// [`crate::Conv2d`]'s training forward: the packed GEMM driver at
    /// or above [`crate::kernels::GEMM_THRESHOLD`] output pixels, the direct loop nest
    /// below it — bitwise-identical to the mutable layer on the same
    /// backend. The bf16 plane has only packed panels, so every output
    /// size runs the packed bf16 driver (its ragged-edge paths cover
    /// the small shapes the threshold exists to route around).
    pub fn forward(&self, x: &Tensor<F>) -> Tensor<F> {
        match &self.plane {
            WeightPlane::F32 { weight, packed } => {
                let (kh, kw) = (weight.dim(2), weight.dim(3));
                if runs_gemm(x, kh, kw, self.pad) {
                    let view = PackedPanels {
                        data: packed,
                        oc: weight.dim(0),
                        ic: weight.dim(1),
                        kh,
                        kw,
                    };
                    self.device
                        .conv2d_forward_packed(x, view, &self.bias, self.pad)
                } else {
                    self.device.conv2d_forward(x, weight, &self.bias, self.pad)
                }
            }
            WeightPlane::Bf16 {
                panels,
                oc,
                ic,
                kh,
                kw,
            } => {
                let view = PackedPanelsBf16 {
                    data: panels,
                    oc: *oc,
                    ic: *ic,
                    kh: *kh,
                    kw: *kw,
                };
                self.device
                    .conv2d_forward_packed_bf16(x, view, &self.bias, self.pad)
            }
        }
    }
}

/// Frozen conv / transposed-conv layer: [`PackedConvWeights`] behind the
/// [`InferLayer`] interface. Both layer kinds freeze to this type — a
/// stride-1 deconv *is* a conv after the one-time flip-transpose.
pub struct FrozenConv2d {
    name: &'static str,
    packed: PackedConvWeights,
}

impl FrozenConv2d {
    /// Wrap packed weights; `name` tags diagnostics (finite guards,
    /// channel-mismatch panics) with the source layer kind.
    pub fn new(name: &'static str, packed: PackedConvWeights) -> Self {
        FrozenConv2d { name, packed }
    }

    /// Resident bytes of the frozen weights.
    pub fn weight_bytes(&self) -> usize {
        self.packed.weight_bytes()
    }

    /// The weight-plane precision chosen at freeze time.
    pub fn precision(&self) -> Precision {
        self.packed.precision()
    }
}

impl InferLayer for FrozenConv2d {
    fn name(&self) -> String {
        format!(
            "{}({}->{})",
            self.name,
            self.packed.in_channels(),
            self.packed.out_channels()
        )
    }

    fn infer(&self, x: &Tensor<F>) -> Tensor<F> {
        assert_eq!(
            x.dim(1),
            self.packed.in_channels(),
            "{}: input has {} channels",
            self.name(),
            x.dim(1)
        );
        let y = self.packed.forward(x);
        crate::finite::debug_guard_finite(self.name, x, &y);
        y
    }

    fn weight_bytes(&self) -> usize {
        self.packed.weight_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adarnet_tensor::Shape;

    fn seq_tensor(shape: Shape) -> Tensor<F> {
        let n = shape.numel();
        Tensor::from_vec(shape, (0..n).map(|i| (i as F * 0.1).sin()).collect())
    }

    #[test]
    fn weight_bytes_counts_both_copies() {
        let w = seq_tensor(Shape::d4(8, 4, 3, 3));
        let b = seq_tensor(Shape::d1(8));
        let p = PackedConvWeights::from_conv_weight(Device::active(), Precision::F32, &w, &b, 1);
        let expect = (8 * 4 * 9 + 8 + packed_panels_len(8, 36)) * 4;
        assert_eq!(p.weight_bytes(), expect);
        assert_eq!(p.precision(), Precision::F32);
    }

    #[test]
    fn bf16_weight_bytes_drop_the_unpacked_copy() {
        let w = seq_tensor(Shape::d4(8, 4, 3, 3));
        let b = seq_tensor(Shape::d1(8));
        let q = PackedConvWeights::from_conv_weight(Device::active(), Precision::Bf16, &w, &b, 1);
        // 2-byte panels plus the f32 bias, no unpacked weight copy.
        assert_eq!(q.weight_bytes(), packed_panels_len(8, 36) * 2 + 8 * 4);
        assert_eq!(q.precision(), Precision::Bf16);
        let f = PackedConvWeights::from_conv_weight(Device::active(), Precision::F32, &w, &b, 1);
        assert!(
            (q.weight_bytes() as f64) < 0.3 * f.weight_bytes() as f64,
            "bf16 plane {} B vs f32 plane {} B",
            q.weight_bytes(),
            f.weight_bytes()
        );
        assert_eq!(q.in_channels(), f.in_channels());
        assert_eq!(q.out_channels(), f.out_channels());
    }

    #[test]
    fn packed_forward_dispatches_on_the_gemm_threshold() {
        // Compare against the same backend the frozen weights captured:
        // the dispatch contract is bitwise equality per backend.
        let dev = Device::active();
        let w = seq_tensor(Shape::d4(3, 2, 3, 3));
        let b = seq_tensor(Shape::d1(3));
        let p = PackedConvWeights::from_conv_weight(dev, Precision::F32, &w, &b, 1);
        // 3x3 input -> 9 px: below GEMM_THRESHOLD, direct path.
        let small = seq_tensor(Shape::d4(1, 2, 3, 3));
        assert_eq!(
            p.forward(&small),
            dev.conv2d_forward(&small, &w, &b, 1),
            "direct dispatch"
        );
        // 4x4 input -> 16 px: the first GEMM extent.
        let edge = seq_tensor(Shape::d4(1, 2, 4, 4));
        assert_eq!(
            p.forward(&edge),
            dev.conv2d_forward_percall(&edge, &w, &b, 1),
            "packed dispatch"
        );
    }

    #[test]
    fn bf16_forward_tracks_f32_within_quantization_error() {
        // Direct-band, ragged and paper-size outputs all run the one
        // packed bf16 path and must stay within the weight-quantization error envelope of
        // the f32 plane: ~2^-8 relative per weight, k_len = 18 terms.
        let w = seq_tensor(Shape::d4(3, 2, 3, 3));
        let b = seq_tensor(Shape::d1(3));
        let p = PackedConvWeights::from_conv_weight(Device::active(), Precision::F32, &w, &b, 1);
        let q = PackedConvWeights::from_conv_weight(Device::active(), Precision::Bf16, &w, &b, 1);
        for hw in [3usize, 6, 16] {
            let x = seq_tensor(Shape::d4(1, 2, hw, hw));
            let yf = p.forward(&x);
            let yq = q.forward(&x);
            assert_eq!(yf.shape(), yq.shape());
            for (a, c) in yf.as_slice().iter().zip(yq.as_slice()) {
                assert!(
                    (a - c).abs() <= 2e-2 * (1.0 + a.abs()),
                    "bf16 drift at {hw}x{hw}: {a} vs {c}"
                );
            }
        }
    }
}
