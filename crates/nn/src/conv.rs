//! Stride-1 2-D convolution layer with "same" padding.

use adarnet_tensor::{Shape, Tensor};

use crate::device::Device;
use crate::kernels::{flip_transpose_weights, runs_gemm, GEMM_THRESHOLD};
use crate::packed::{FrozenConv2d, PackedConvWeights};
use crate::{InferLayer, Initializer, Layer, F};

/// Training-side forward of a conv-layout weight `(OC, IC, KH, KW)`,
/// shared by [`Conv2d`] and [`crate::ConvTranspose2d`]: the packed GEMM
/// (weight packed into pooled scratch for this call) at or above
/// [`GEMM_THRESHOLD`] output pixels, the direct loop nest below. The
/// same split on the same kernels as the frozen
/// [`PackedConvWeights::forward`], so training and serving agree
/// bitwise per backend.
pub(crate) fn forward_conv_layout(
    device: Device,
    x: &Tensor<F>,
    w: &Tensor<F>,
    bias: &Tensor<F>,
    pad: usize,
) -> Tensor<F> {
    if runs_gemm(x, w.dim(2), w.dim(3), pad) {
        device.conv2d_forward_percall(x, w, bias, pad)
    } else {
        device.conv2d_forward(x, w, bias, pad)
    }
}

/// 2-D convolution, stride 1, symmetric zero padding.
///
/// Matches the paper's DNN building block: 3x3 kernels, stride 1, padding
/// chosen so the spatial extent is preserved (`pad = (k - 1) / 2`).
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    pad: usize,
    weight: Tensor<F>,
    bias: Tensor<F>,
    dweight: Tensor<F>,
    dbias: Tensor<F>,
    cached_input: Option<Tensor<F>>,
    /// Compute backend for this layer's kernels. [`Device::detect`] by
    /// default; see [`Layer::set_device`].
    device: Device,
}

impl Conv2d {
    /// Create a conv layer with odd `kernel` size and "same" padding.
    ///
    /// Weights are initialized per `init` (He-normal fan-in =
    /// `in_channels * k * k` by default in callers); bias starts at zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        init: Initializer,
        seed: u64,
    ) -> Self {
        assert!(
            kernel % 2 == 1,
            "Conv2d requires an odd kernel for same padding"
        );
        let fan_in = in_channels * kernel * kernel;
        let fan_out = out_channels * kernel * kernel;
        let wshape = Shape::d4(out_channels, in_channels, kernel, kernel);
        Conv2d {
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

    /// Direct access to the weight tensor (e.g. for checkpointing).
    pub fn weight(&self) -> &Tensor<F> {
        &self.weight
    }

    /// Direct mutable access to the weight tensor.
    pub fn weight_mut(&mut self) -> &mut Tensor<F> {
        &mut self.weight
    }

    /// Direct access to the bias vector.
    pub fn bias(&self) -> &Tensor<F> {
        &self.bias
    }
}

impl Layer for Conv2d {
    fn name(&self) -> String {
        format!(
            "Conv2d({}->{}, k={}, pad={})",
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
        // Pool-backed input cache: recycle the previous epoch's buffer so
        // steady-state training does not allocate here.
        if let Some(old) = self.cached_input.take() {
            old.recycle();
        }
        self.cached_input = Some(x.pooled_copy());
        let y = forward_conv_layout(self.device, x, &self.weight, &self.bias, self.pad);
        crate::finite::debug_guard_finite("Conv2d", x, &y);
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
            .expect("Conv2d::backward called before forward");
        // For "same"-padded stride-1 convs at large extents, both backward
        // passes have GEMM forms: dw = dy . col(x)^T and
        // dx = conv(dy, flip_transpose(w)) (the deconvolution identity).
        let big = grad_out.dim(2) * grad_out.dim(3) >= GEMM_THRESHOLD;
        if big {
            self.device.conv2d_backward_params_gemm(
                grad_out,
                x,
                self.pad,
                &mut self.dweight,
                &mut self.dbias,
            );
            let w_flip = flip_transpose_weights(&self.weight);
            let dx = self.device.conv2d_forward_percall(
                grad_out,
                &w_flip,
                &Tensor::zeros(Shape::d1(0)),
                self.pad,
            );
            w_flip.recycle();
            dx
        } else {
            self.device.conv2d_backward_params(
                grad_out,
                x,
                self.pad,
                &mut self.dweight,
                &mut self.dbias,
            );
            self.device
                .conv2d_backward_input(grad_out, &self.weight, x.dim(2), x.dim(3), self.pad)
        }
    }

    fn freeze(&self) -> Box<dyn InferLayer> {
        Box::new(FrozenConv2d::new(
            "Conv2d",
            PackedConvWeights::from_conv_weight(self.device, &self.weight, &self.bias, self.pad),
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
    fn shape_preserving_same_conv() {
        let mut l = Conv2d::new(4, 8, 3, Initializer::HeNormal, 0);
        let x = Tensor::<F>::full(Shape::d4(2, 4, 16, 16), 0.5);
        let y = l.forward(&x);
        assert_eq!(y.shape(), &Shape::d4(2, 8, 16, 16));
    }

    #[test]
    fn gradcheck_small_conv() {
        let mut l = Conv2d::new(2, 3, 3, Initializer::XavierUniform, 11);
        let report = check_layer_gradients(&mut l, Shape::d4(1, 2, 5, 4), 13, 1e-2);
        assert!(report.max_rel_err < 2e-2, "gradcheck failed: {report:?}");
    }

    #[test]
    fn grads_accumulate_until_zeroed() {
        let mut l = Conv2d::new(1, 1, 3, Initializer::XavierUniform, 3);
        let x = Tensor::<F>::full(Shape::d4(1, 1, 4, 4), 1.0);
        let y = l.forward(&x);
        let dy = Tensor::full(y.shape().clone(), 1.0f32);
        l.backward(&dy);
        let g1 = l.grads()[0].clone();
        let _ = l.forward(&x);
        l.backward(&dy);
        let g2 = l.grads()[0].clone();
        for (a, b) in g1.as_slice().iter().zip(g2.as_slice()) {
            assert!((2.0 * a - b).abs() < 1e-4, "gradient did not accumulate");
        }
        l.zero_grads();
        assert_eq!(l.grads()[0].abs_max(), 0.0);
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_without_forward_panics() {
        let mut l = Conv2d::new(1, 1, 3, Initializer::Zeros, 0);
        let _ = l.backward(&Tensor::zeros(Shape::d4(1, 1, 4, 4)));
    }

    #[test]
    fn num_params_counts_weight_and_bias() {
        let l = Conv2d::new(4, 8, 3, Initializer::Zeros, 0);
        assert_eq!(l.num_params(), 8 * 4 * 3 * 3 + 8);
    }
}
