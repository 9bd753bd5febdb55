//! Pre-packed, frozen convolution weights for `&self` inference.
//!
//! [`PackedConvWeights`] owns a frozen conv weight: its GEMM A-panels
//! packed once (see [`crate::kernels::pack_weight_panels`]) into the
//! k-major, `MR`-blocked layout the micro-kernel consumes, the bias,
//! and the conv-layout dims. No unpacked copy is kept: the one conv
//! path reads panels only.
//! Bitwise-identical to the source layer's training `forward`, which
//! packs the same panels per call.
//!
//! Freezing a [`crate::Conv2d`] packs its weight directly; freezing a
//! [`crate::ConvTranspose2d`] applies [`flip_transpose_weights`]
//! **once** here instead of on every forward call — the deconv layers
//! are where per-call weight preparation hurt most. [`FrozenConv2d`]
//! wraps the packed weights as an [`InferLayer`].

use adarnet_tensor::{AlignedBuf, Tensor};

use crate::device::Device;
use crate::kernels::{flip_transpose_weights, pack_weight_panels, packed_panels_len, PackedPanels};
use crate::{InferLayer, F};

/// A conv weight frozen for inference.
pub struct PackedConvWeights {
    /// Pre-packed A-panels, `packed_panels_len(oc, ic*kh*kw)` floats,
    /// aligned for the SIMD micro-kernel's panel reads.
    packed: AlignedBuf,
    bias: Tensor<F>,
    pad: usize,
    /// Conv-layout dims `(OC, IC, KH, KW)` of the packed weight.
    dims: [usize; 4],
    /// Compute backend the frozen forward runs on, captured at freeze
    /// time from the source layer.
    device: Device,
}

impl PackedConvWeights {
    /// Pack a conv-layout weight `(OC, IC, KH, KW)` for `device` (the
    /// frozen layer inherits the source layer's device). The one-time
    /// pack cost is timed under the caller's `prepack_ns` span.
    pub fn from_conv_weight(
        device: Device,
        weight: &Tensor<F>,
        bias: &Tensor<F>,
        pad: usize,
    ) -> Self {
        let (oc, ic, kh, kw) = (weight.dim(0), weight.dim(1), weight.dim(2), weight.dim(3));
        let k_len = ic * kh * kw;
        let mut packed = AlignedBuf::new();
        packed.resize(packed_panels_len(oc, k_len));
        pack_weight_panels(weight.as_slice(), oc, k_len, packed.as_mut_slice());
        PackedConvWeights {
            packed,
            bias: bias.clone(),
            pad,
            dims: [oc, ic, kh, kw],
            device,
        }
    }

    /// Pack a deconv-layout weight `(IC, OC, KH, KW)`: flip-transpose to
    /// the equivalent conv kernel once, then pack. Every subsequent
    /// forward skips both the flip and the pack.
    pub fn from_deconv_weight(
        device: Device,
        weight: &Tensor<F>,
        bias: &Tensor<F>,
        pad: usize,
    ) -> Self {
        let w_conv = flip_transpose_weights(weight);
        let out = Self::from_conv_weight(device, &w_conv, bias, pad);
        w_conv.recycle();
        out
    }

    /// The backend this frozen weight's forward runs on.
    pub fn device(&self) -> Device {
        self.device
    }

    /// Input channel count (conv-layout axis 1).
    pub fn in_channels(&self) -> usize {
        self.dims[1]
    }

    /// Output channel count (conv-layout axis 0).
    pub fn out_channels(&self) -> usize {
        self.dims[0]
    }

    /// Resident bytes of the weight storage: the packed panels and the
    /// bias.
    pub fn weight_bytes(&self) -> usize {
        (self.packed.len() + self.bias.len()) * std::mem::size_of::<F>()
    }

    /// Forward pass: the packed GEMM driver over the frozen panels,
    /// bitwise-identical to [`crate::Conv2d`]'s training forward on the
    /// same backend, which packs the same panels per call.
    pub fn forward(&self, x: &Tensor<F>) -> Tensor<F> {
        let [oc, ic, kh, kw] = self.dims;
        let view = PackedPanels {
            data: &self.packed,
            oc,
            ic,
            kh,
            kw,
        };
        self.device
            .conv2d_forward_packed(x, view, &self.bias, self.pad)
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
    fn weight_bytes_counts_panels_and_bias() {
        // 8 output channels fill two MR-row blocks exactly, so the panels
        // are as long as the weight.
        let w = seq_tensor(Shape::d4(8, 4, 3, 3));
        let b = seq_tensor(Shape::d1(8));
        let p = PackedConvWeights::from_conv_weight(Device::detect(), &w, &b, 1);
        assert_eq!(p.weight_bytes(), (8 * 4 * 9 + 8) * 4);
        // One output channel (the scorer's last conv) pads to a 4-row block.
        let w = seq_tensor(Shape::d4(1, 16, 3, 3));
        let b = seq_tensor(Shape::d1(1));
        let p = PackedConvWeights::from_conv_weight(Device::detect(), &w, &b, 1);
        assert_eq!(p.weight_bytes(), (4 * 16 * 9 + 1) * 4);
    }
}
