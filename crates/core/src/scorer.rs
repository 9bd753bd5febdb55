//! The scorer network (Figure 4): a shallow CNN that produces a
//! single-channel 2-D latent representation of the LR field plus one
//! normalized score per patch.
//!
//! Architecture per the paper: three 3x3 stride-1 convolutions (8, 16, 16
//! filters) extracting an abstract representation, a single-filter 3x3
//! convolution collapsing it to the 2-D latent image, a maxpool with pool
//! size = stride = patch extent, and a softmax over patches.
//!
//! The network is two [`Sequential`] stacks: the `body` (the four convs
//! and their ReLUs) ends at the latent image, and the weightless `head`
//! (pool, softmax) turns the latent into scores.
//!
//! Training signal: the softmax scores feed the (discrete) ranker, so no
//! gradient flows through them; the scorer learns through the latent
//! channel, which is concatenated to every patch before the decoder
//! (Figure 3) — gradient arrives via [`Scorer::backward`].

use adarnet_nn::{
    Activation, Conv2d, Device, FrozenSequential, Initializer, MaxPool2d, Sequential,
    SpatialSoftmax,
};
use adarnet_tensor::Tensor;

/// The scorer: 4 convs -> (latent, pool+softmax scores).
pub struct Scorer {
    /// conv1, ReLU, conv2, ReLU, conv3, ReLU, conv4: field -> latent.
    body: Sequential,
    /// Max pool, softmax: latent -> patch scores.
    head: Sequential,
}

/// Scorer forward output: per-patch scores and the 2-D latent image.
pub struct ScorerOutput {
    /// `(N, 1, NPy, NPx)` softmax-normalized patch scores.
    pub scores: Tensor<f32>,
    /// `(N, 1, H, W)` single-channel latent representation.
    pub latent: Tensor<f32>,
}

impl Scorer {
    /// Build a scorer for `in_channels`-channel inputs and `ph x pw`
    /// patches, with the paper's max pooling.
    pub fn new(in_channels: usize, ph: usize, pw: usize, seed: u64) -> Scorer {
        Scorer {
            body: Sequential::new()
                .push(Conv2d::new(in_channels, 8, 3, Initializer::HeNormal, seed))
                .push(Activation::relu())
                .push(Conv2d::new(8, 16, 3, Initializer::HeNormal, seed + 1))
                .push(Activation::relu())
                .push(Conv2d::new(16, 16, 3, Initializer::HeNormal, seed + 2))
                .push(Activation::relu())
                .push(Conv2d::new(16, 1, 3, Initializer::XavierUniform, seed + 3)),
            head: Sequential::new()
                .push(MaxPool2d::new(ph, pw))
                .push(SpatialSoftmax::new()),
        }
    }

    /// Route the four convs to `device` (see
    /// [`adarnet_nn::Layer::set_device`]); the pool and the softmax have
    /// no backend. Freezing afterwards yields a frozen scorer pinned to
    /// the same backend.
    pub fn set_device(&mut self, device: Device) {
        self.body.set_device(device);
    }

    /// Forward pass on an `(N, C, H, W)` LR field.
    pub fn forward(&mut self, x: &Tensor<f32>) -> ScorerOutput {
        let latent = self.body.forward(x);
        let scores = self.head.forward(&latent);
        ScorerOutput { scores, latent }
    }

    /// Freeze the scorer into an immutable, `Sync` [`FrozenScorer`]
    /// whose forward pass is bitwise-identical to [`Scorer::forward`]:
    /// conv weights pre-packed for the GEMM, no backprop caches, `&self`
    /// end to end.
    pub fn freeze(&self) -> FrozenScorer {
        FrozenScorer {
            body: self.body.freeze(),
            head: self.head.freeze(),
        }
    }

    /// Backward pass for the gradient arriving at the latent output (the
    /// differentiable path through the decoder) plus, optionally, a
    /// gradient on the softmax scores — used by the trainer's
    /// physics-based score supervision, which routes dL/dscores back
    /// through the softmax and maxpool into the same latent image.
    /// Accumulates parameter gradients, returns dL/dinput.
    pub fn backward(
        &mut self,
        grad_latent: &Tensor<f32>,
        grad_scores: Option<&Tensor<f32>>,
    ) -> Tensor<f32> {
        let Some(ds) = grad_scores else {
            return self.body.backward(grad_latent);
        };
        let mut g = self.head.backward(ds);
        g.axpy_inplace(1.0, grad_latent);
        let dx = self.body.backward(&g);
        g.recycle();
        dx
    }

    /// All trainable parameters (4 convs x weight+bias).
    pub fn params_mut(&mut self) -> Vec<&mut Tensor<f32>> {
        self.body.params_mut()
    }

    /// Accumulated gradients, aligned with [`Scorer::params_mut`].
    pub fn grads(&self) -> Vec<&Tensor<f32>> {
        self.body.grads()
    }

    /// Zero all accumulated gradients.
    pub fn zero_grads(&mut self) {
        self.body.zero_grads();
    }

    /// Trainable scalar count.
    pub fn num_params(&self) -> usize {
        self.body.num_params()
    }

    /// Snapshot weights for checkpointing.
    pub fn snapshot(&self) -> Vec<Tensor<f32>> {
        self.body.snapshot()
    }

    /// Restore weights from [`Scorer::snapshot`] output.
    pub fn restore(&mut self, tensors: &[Tensor<f32>]) {
        self.body.restore(tensors);
    }
}

/// The scorer's frozen, share-everything twin: the same two stacks,
/// frozen, with a `&self` forward. Produced by [`Scorer::freeze`].
pub struct FrozenScorer {
    body: FrozenSequential,
    head: FrozenSequential,
}

impl FrozenScorer {
    /// Inference forward: [`Scorer::forward`] over frozen weights, with
    /// no backprop caches. Both returned tensors are pool-backed —
    /// recycle them (or let [`crate::network::Prediction::recycle`] do
    /// it) when done.
    pub fn forward(&self, x: &Tensor<f32>) -> ScorerOutput {
        let latent = self.body.infer(x);
        let scores = self.head.infer(&latent);
        ScorerOutput { scores, latent }
    }

    /// Resident frozen-weight bytes (the four convs' tensors + packed
    /// panels; pool/softmax/activations are weightless).
    pub fn weight_bytes(&self) -> usize {
        self.body.weight_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adarnet_tensor::Shape;

    fn input(n: usize, h: usize, w: usize) -> Tensor<f32> {
        Tensor::from_vec(
            Shape::d4(n, 4, h, w),
            (0..n * 4 * h * w)
                .map(|i| ((i as f32) * 0.01).sin())
                .collect(),
        )
    }

    #[test]
    fn output_shapes_paper_layout() {
        // 64x256 LR field, 16x16 patches -> 4x16 scores (§4.2).
        let mut s = Scorer::new(4, 16, 16, 0);
        let out = s.forward(&input(1, 64, 256));
        assert_eq!(out.scores.shape(), &Shape::d4(1, 1, 4, 16));
        assert_eq!(out.latent.shape(), &Shape::d4(1, 1, 64, 256));
    }

    #[test]
    fn scores_are_a_probability_distribution() {
        let mut s = Scorer::new(4, 8, 8, 1);
        let out = s.forward(&input(2, 16, 32));
        for b in 0..2 {
            let sum: f64 = (0..out.scores.len() / 2)
                .map(|k| out.scores.as_slice()[b * 8 + k] as f64)
                .sum();
            assert!((sum - 1.0).abs() < 1e-5, "batch {b}: {sum}");
        }
    }

    #[test]
    fn latent_backward_shapes_and_nonzero_grads() {
        let mut s = Scorer::new(4, 8, 8, 2);
        let x = input(1, 16, 16);
        let out = s.forward(&x);
        let dx = s.backward(&Tensor::full(out.latent.shape().clone(), 1.0f32), None);
        assert_eq!(dx.shape(), x.shape());
        let total_grad: f64 = s.grads().iter().map(|g| g.abs_max()).sum();
        assert!(total_grad > 0.0, "no gradient reached the scorer convs");
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut a = Scorer::new(4, 8, 8, 3);
        let mut b = Scorer::new(4, 8, 8, 99);
        let x = input(1, 16, 16);
        let ya = a.forward(&x).latent;
        b.restore(&a.snapshot());
        let yb = b.forward(&x).latent;
        assert_eq!(ya, yb);
    }

    #[test]
    fn param_count_matches_architecture() {
        let s = Scorer::new(4, 16, 16, 0);
        // conv1: 8*4*9+8, conv2: 16*8*9+16, conv3: 16*16*9+16, conv4: 1*16*9+1.
        let expect = (8 * 4 * 9 + 8) + (16 * 8 * 9 + 16) + (16 * 16 * 9 + 16) + (16 * 9 + 1);
        assert_eq!(s.num_params(), expect);
    }
}

#[cfg(test)]
mod supervision_tests {
    use super::*;
    use adarnet_nn::{Optimizer, Sgd};
    use adarnet_tensor::Shape;

    /// Pure score-supervision descent: with only dL/dscores fed back, a
    /// few SGD steps must reduce the score-target MSE.
    #[test]
    fn score_gradient_descends_score_mse() {
        let mut s = Scorer::new(4, 8, 8, 77);
        let x = Tensor::from_vec(
            Shape::d4(1, 4, 16, 16),
            (0..4 * 256).map(|i| ((i as f32) * 0.031).sin()).collect(),
        );
        let targets = [0.7f32, 0.1, 0.1, 0.1];
        let mse = |scores: &Tensor<f32>| -> f64 {
            scores
                .as_slice()
                .iter()
                .zip(&targets)
                .map(|(&a, &b)| ((a - b) as f64).powi(2))
                .sum::<f64>()
                / 4.0
        };
        let mut opt = Sgd::new(5e-3);
        let first = {
            let out = s.forward(&x);
            mse(&out.scores)
        };
        let mut last = first;
        for _ in 0..40 {
            s.zero_grads();
            let out = s.forward(&x);
            last = mse(&out.scores);
            let mut ds = out.scores.clone();
            for (g, &t) in ds.as_mut_slice().iter_mut().zip(&targets) {
                *g = 2.0 * (*g - t) / 4.0;
            }
            let zero_latent = Tensor::zeros(out.latent.shape().clone());
            let _ = s.backward(&zero_latent, Some(&ds));
            let grads: Vec<Tensor<f32>> = s.grads().into_iter().cloned().collect();
            let mut params = s.params_mut();
            let refs: Vec<&Tensor<f32>> = grads.iter().collect();
            opt.step(&mut params, &refs);
        }
        assert!(
            last < first,
            "score supervision failed to descend: {first} -> {last}"
        );
    }
}
