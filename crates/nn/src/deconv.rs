//! Stride-1 transposed convolution ("deconvolution") layer.
//!
//! With stride 1 and symmetric padding, transposed convolution is exactly
//! ordinary convolution with the kernel flipped spatially and the channel
//! axes swapped. We exploit that identity: the layer stores weights in the
//! conventional deconv layout `(IC, OC, KH, KW)` and delegates to the conv
//! kernels through [`flip_transpose_weights`], which keeps one set of
//! verified kernels for both layer types.

use adarnet_tensor::{Shape, Tensor};

use crate::conv::forward_conv_layout;
use crate::device::Device;
use crate::kernels::{flip_transpose_weights, GEMM_THRESHOLD};
use crate::packed::{FrozenConv2d, PackedConvWeights};
use crate::{InferLayer, Initializer, Layer, F};

/// 2-D transposed convolution, stride 1, "same" padding.
///
/// The paper's decoder (Figure 5) uses three of these after three [`crate::Conv2d`]
/// layers, all 3x3 stride 1.
pub struct ConvTranspose2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    pad: usize,
    /// Deconv layout: `(IC, OC, KH, KW)`.
    weight: Tensor<F>,
    bias: Tensor<F>,
    dweight: Tensor<F>,
    dbias: Tensor<F>,
    cached_input: Option<Tensor<F>>,
    /// Compute backend for this layer's kernels. [`Device::detect`] by
    /// default; see [`Layer::set_device`].
    device: Device,
}

impl ConvTranspose2d {
    /// Create a transposed-conv layer with odd `kernel` and "same" padding.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        init: Initializer,
        seed: u64,
    ) -> Self {
        assert!(kernel % 2 == 1, "ConvTranspose2d requires an odd kernel");
        let fan_in = in_channels * kernel * kernel;
        let fan_out = out_channels * kernel * kernel;
        let wshape = Shape::d4(in_channels, out_channels, kernel, kernel);
        ConvTranspose2d {
            in_channels,
            out_channels,
            kernel,
            pad: (kernel - 1) / 2,
            weight: init.init(wshape.clone(), fan_in, fan_out, seed),
            bias: Tensor::zeros(Shape::d1(out_channels)),
            dweight: Tensor::zeros(wshape),
            dbias: Tensor::zeros(Shape::d1(out_channels)),
            cached_input: None,
            device: Device::detect(),
        }
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }
}

impl Layer for ConvTranspose2d {
    fn name(&self) -> String {
        format!(
            "ConvTranspose2d({}->{}, k={}, pad={})",
            self.in_channels, self.out_channels, self.kernel, self.pad
        )
    }

    fn forward(&mut self, x: &Tensor<F>) -> Tensor<F> {
        assert_eq!(
            x.dim(1),
            self.in_channels,
            "{}: input has {} channels",
            self.name(),
            x.dim(1)
        );
        if let Some(old) = self.cached_input.take() {
            old.recycle();
        }
        self.cached_input = Some(x.pooled_copy());
        // The equivalent conv kernel, flipped per call into a pooled
        // copy (the frozen twin flips once, at freeze time).
        let w_conv = flip_transpose_weights(&self.weight);
        let y = forward_conv_layout(self.device, x, &w_conv, &self.bias, self.pad);
        w_conv.recycle();
        crate::finite::debug_guard_finite("ConvTranspose2d", x, &y);
        y
    }

    #[expect(
        clippy::expect_used,
        reason = "backward-before-forward is an API-contract violation by the caller (programmer error), not a data error"
    )]
    fn backward(&mut self, grad_out: &Tensor<F>) -> Tensor<F> {
        let x = self
            .cached_input
            .as_ref()
            .expect("ConvTranspose2d::backward called before forward");
        // Gradients computed in the equivalent conv layout, then mapped back.
        let mut dw_conv = Tensor::pooled_zeroed(Shape::d4(
            self.out_channels,
            self.in_channels,
            self.kernel,
            self.kernel,
        ));
        let big = grad_out.dim(2) * grad_out.dim(3) >= GEMM_THRESHOLD;
        if big {
            self.device.conv2d_backward_params_gemm(
                grad_out,
                x,
                self.pad,
                &mut dw_conv,
                &mut self.dbias,
            );
        } else {
            self.device.conv2d_backward_params(
                grad_out,
                x,
                self.pad,
                &mut dw_conv,
                &mut self.dbias,
            );
        }
        // flip_transpose is linear and an involution, so the deconv-layout
        // gradient is the same transform applied to the conv-layout gradient.
        let dw_deconv = flip_transpose_weights(&dw_conv);
        self.dweight.axpy_inplace(1.0, &dw_deconv);
        dw_deconv.recycle();
        dw_conv.recycle();
        if big {
            // dx of a same-padded stride-1 conv is the conv with the
            // flip-transposed weights (the deconvolution identity), and
            // the flip-transpose of the equivalent conv kernel is the
            // stored deconv-layout weight itself.
            self.device.conv2d_forward_percall(
                grad_out,
                &self.weight,
                &Tensor::zeros(Shape::d1(0)),
                self.pad,
            )
        } else {
            let w_conv = flip_transpose_weights(&self.weight);
            let dx =
                self.device
                    .conv2d_backward_input(grad_out, &w_conv, x.dim(2), x.dim(3), self.pad);
            w_conv.recycle();
            dx
        }
    }

    fn freeze(&self) -> Box<dyn InferLayer> {
        Box::new(FrozenConv2d::new(
            "ConvTranspose2d",
            PackedConvWeights::from_deconv_weight(self.device, &self.weight, &self.bias, self.pad),
        ))
    }

    fn set_device(&mut self, device: Device) {
        self.device = device;
    }

    fn params(&self) -> Vec<&Tensor<F>> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor<F>> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn grads(&self) -> Vec<&Tensor<F>> {
        vec![&self.dweight, &self.dbias]
    }

    fn zero_grads(&mut self) {
        self.dweight.map_inplace(|_| 0.0);
        self.dbias.map_inplace(|_| 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;

    #[test]
    fn shape_preserving() {
        let mut l = ConvTranspose2d::new(64, 16, 3, Initializer::HeNormal, 5);
        let x = Tensor::<F>::full(Shape::d4(1, 64, 8, 8), 0.1);
        let y = l.forward(&x);
        assert_eq!(y.shape(), &Shape::d4(1, 16, 8, 8));
    }

    #[test]
    fn gradcheck_small_deconv() {
        let mut l = ConvTranspose2d::new(3, 2, 3, Initializer::XavierUniform, 17);
        let report = check_layer_gradients(&mut l, Shape::d4(1, 3, 4, 5), 23, 1e-2);
        assert!(report.max_rel_err < 2e-2, "gradcheck failed: {report:?}");
    }

    #[test]
    fn stride1_deconv_equals_flipped_conv() {
        // Validate the core identity directly: deconv(x, w) == conv(x, flipT(w)).
        use crate::conv::Conv2d;
        let mut dec = ConvTranspose2d::new(2, 3, 3, Initializer::XavierUniform, 9);
        let mut conv = Conv2d::new(2, 3, 3, Initializer::Zeros, 0);
        let w_conv = flip_transpose_weights(&dec.weight);
        conv.weight_mut()
            .as_mut_slice()
            .copy_from_slice(w_conv.as_slice());
        let x = Tensor::from_vec(
            Shape::d4(1, 2, 4, 4),
            (0..32).map(|i| (i as F * 0.3).cos()).collect(),
        );
        assert_eq!(dec.forward(&x), conv.forward(&x));
    }
}
