//! The shared decoder network (Figure 5): a 6-layer
//! convolution–deconvolution stack that reconstructs each refined patch.
//!
//! Filters 8, 16, 64 (conv) then 64, 16, 4 (deconv), all 3x3 stride 1 with
//! constant spatial extent (no U-net downsampling — the decoder operates
//! per patch and "reducing the number of features that represent the patch
//! is not desired", §3.1). One decoder instance is **shared across all
//! target resolutions** (the paper's weight-sharing design choice): every
//! bin's batch, including the LR bin, passes through the same weights.
//!
//! The decoder is a plain [`Sequential`] built by [`decoder`]: training
//! runs its `forward`/`backward`, serving its `freeze().infer`.

use adarnet_nn::{Activation, Conv2d, ConvTranspose2d, FrozenSequential, Initializer, Sequential};
use adarnet_tensor::Tensor;

/// Build the paper's decoder for `in_channels` input channels (patch
/// channels + 2 coordinate channels): input `(N, in_channels, h, w)` ->
/// `(N, 4, h, w)`. Spatial extent is preserved; the batch may differ per
/// bin (the paper's dynamic batch size).
pub fn decoder(in_channels: usize, seed: u64) -> Sequential {
    Sequential::new()
        .push(Conv2d::new(in_channels, 8, 3, Initializer::HeNormal, seed))
        .push(Activation::relu())
        .push(Conv2d::new(8, 16, 3, Initializer::HeNormal, seed + 1))
        .push(Activation::relu())
        .push(Conv2d::new(16, 64, 3, Initializer::HeNormal, seed + 2))
        .push(Activation::relu())
        .push(ConvTranspose2d::new(
            64,
            64,
            3,
            Initializer::HeNormal,
            seed + 3,
        ))
        .push(Activation::relu())
        .push(ConvTranspose2d::new(
            64,
            16,
            3,
            Initializer::HeNormal,
            seed + 4,
        ))
        .push(Activation::relu())
        .push(ConvTranspose2d::new(
            16,
            4,
            3,
            Initializer::XavierUniform,
            seed + 5,
        ))
}

/// The frozen decoder of a [`crate::network::FrozenAdarNet`]: one weight
/// copy, any number of threads, every bin's batch through the same
/// shared weights (the paper's weight-sharing design).
/// [`crate::network::FrozenAdarNet::decode_bins`] runs all of a call's
/// bins through it at once, in one split over the idle cores.
pub struct FrozenDecoder(pub(crate) FrozenSequential);

impl FrozenDecoder {
    /// Inference forward of one per-bin batch on its own, split over
    /// the idle cores like any frozen-stack call; pool-backed output.
    pub fn forward(&self, x: &Tensor<f32>) -> Tensor<f32> {
        self.0.infer(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adarnet_tensor::Shape;

    #[test]
    fn preserves_spatial_extent_across_resolutions() {
        let mut d = decoder(7, 0);
        for (h, w) in [(16, 16), (32, 32), (64, 64)] {
            let x = Tensor::<f32>::full(Shape::d4(2, 7, h, w), 0.1);
            let y = d.forward(&x);
            assert_eq!(y.shape(), &Shape::d4(2, 4, h, w));
        }
    }

    #[test]
    fn dynamic_batch_sizes_share_weights() {
        // The same decoder must process bins of different batch sizes and
        // give identical results for identical items.
        let mut d = decoder(7, 1);
        let one = Tensor::from_vec(
            Shape::d4(1, 7, 8, 8),
            (0..7 * 64).map(|i| (i as f32 * 0.03).cos()).collect(),
        );
        let y1 = d.forward(&one);
        let three = Tensor::stack(&[one.image(0), one.image(0), one.image(0)]);
        let y3 = d.forward(&three);
        for k in 0..y1.len() {
            assert!((y1.as_slice()[k] - y3.as_slice()[k]).abs() < 1e-6);
        }
    }

    #[test]
    fn backward_accumulates_gradients() {
        let mut d = decoder(7, 2);
        let x = Tensor::<f32>::full(Shape::d4(1, 7, 8, 8), 0.2);
        let y = d.forward(&x);
        let dx = d.backward(&Tensor::full(y.shape().clone(), 1.0f32));
        assert_eq!(dx.shape(), x.shape());
        assert!(d.grads().iter().map(|g| g.abs_max()).sum::<f64>() > 0.0);
        d.zero_grads();
        assert_eq!(d.grads().iter().map(|g| g.abs_max()).sum::<f64>(), 0.0);
    }

    #[test]
    fn layer_count_and_params() {
        let d = decoder(7, 3);
        // 6 trainable layers, each weight+bias.
        assert_eq!(d.grads().len(), 12);
        let expect = (8 * 7 * 9 + 8)
            + (16 * 8 * 9 + 16)
            + (64 * 16 * 9 + 64)
            + (64 * 64 * 9 + 64)
            + (64 * 16 * 9 + 16)
            + (16 * 4 * 9 + 4);
        assert_eq!(d.num_params(), expect);
    }
}
