//! SURFNet-class baseline: **uniform** super-resolution (Obiols-Sales et
//! al., PACT 2021), rebuilt as the comparison target for Table 2 and
//! Figure 1.
//!
//! The baseline upsamples the entire LR field to the target resolution
//! (bicubic), appends global coordinates, and runs a full-resolution
//! convolutional decode — every pixel of the domain pays HR inference
//! cost, which is exactly the inefficiency ADARNet removes. The conv stack
//! reuses the verified [`decoder`] architecture so the comparison isolates
//! *uniform vs non-uniform* rather than architecture differences.

use adarnet_nn::{bicubic_resize3, FrozenSequential, Sequential};
use adarnet_tensor::{Shape, Tensor};

use crate::decoder::decoder;

/// The uniform-SR baseline network.
pub struct SurfNet {
    decoder: Sequential,
    /// `decoder` frozen for inference, as ADARNet's is: weight
    /// preparation happens at construction (and in
    /// [`SurfNet::restore`]), never inside a timed `predict`.
    frozen: FrozenSequential,
    /// Per-side upscale factor (8 for the paper's 64x SR).
    pub scale: usize,
}

impl SurfNet {
    /// Build a SURFNet for `scale`x per-side SR (64x cells at `scale = 8`).
    pub fn new(scale: usize, seed: u64) -> SurfNet {
        assert!(scale >= 1, "scale must be positive");
        // 4 flow channels + 2 coordinate channels.
        let decoder = decoder(6, seed);
        let frozen = decoder.freeze();
        SurfNet {
            decoder,
            frozen,
            scale,
        }
    }

    /// The decoder batch for a `(4, H, W)` LR field: bicubic upsample to
    /// `(H*scale, W*scale)` plus the two global-coordinate channels.
    fn decoder_input(&self, lr: &Tensor<f32>) -> Tensor<f32> {
        assert_eq!(lr.shape().rank(), 3, "expected (C, H, W)");
        assert_eq!(lr.dim(0), 4, "expected 4 channels");
        let (h, w) = (lr.dim(1), lr.dim(2));
        let (th, tw) = (h * self.scale, w * self.scale);
        let up = bicubic_resize3(lr, th, tw);
        let mut with_coords = Tensor::<f32>::zeros(Shape::d3(6, th, tw));
        with_coords.as_mut_slice()[..4 * th * tw].copy_from_slice(up.as_slice());
        for i in 0..th {
            let yc = (i as f32 + 0.5) / th as f32;
            for j in 0..tw {
                let xc = (j as f32 + 0.5) / tw as f32;
                with_coords.set3(4, i, j, xc);
                with_coords.set3(5, i, j, yc);
            }
        }
        with_coords.reshape(Shape::d4(1, 6, th, tw))
    }

    /// Uniform SR of a `(4, H, W)` LR field to `(4, H*scale, W*scale)`.
    pub fn predict(&self, lr: &Tensor<f32>) -> Tensor<f32> {
        self.frozen.infer(&self.decoder_input(lr)).image(0)
    }

    /// Load trained decoder weights ([`Sequential::snapshot`] order) and
    /// re-freeze, so `predict` never serves stale panels.
    pub fn restore(&mut self, tensors: &[Tensor<f32>]) {
        self.decoder.restore(tensors);
        self.frozen = self.decoder.freeze();
    }

    /// Trainable scalar count.
    pub fn num_params(&self) -> usize {
        self.decoder.num_params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lr_field(h: usize, w: usize) -> Tensor<f32> {
        Tensor::from_vec(
            Shape::d3(4, h, w),
            (0..4 * h * w).map(|i| (i as f32 * 0.05).sin()).collect(),
        )
    }

    #[test]
    fn uniform_output_shape() {
        let s = SurfNet::new(4, 0);
        let hr = s.predict(&lr_field(8, 16));
        assert_eq!(hr.shape(), &Shape::d3(4, 32, 64));
    }

    #[test]
    fn output_finite() {
        assert!(SurfNet::new(2, 2).predict(&lr_field(8, 8)).all_finite());
    }

    #[test]
    fn predict_is_the_decoders_training_forward_bitwise() {
        // The frozen plane `predict` runs must compute what the trained
        // decoder computes — also after new weights are loaded.
        let mut s = SurfNet::new(2, 3);
        let lr = lr_field(8, 8);
        let input = s.decoder_input(&lr);
        let before = s.predict(&lr);
        assert_eq!(before, s.decoder.forward(&input).image(0));

        s.restore(&decoder(6, 99).snapshot());
        let after = s.predict(&lr);
        assert_ne!(after, before, "restore must re-freeze");
        assert_eq!(after, s.decoder.forward(&input).image(0));
    }
}
