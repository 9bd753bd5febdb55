//! The scorer network (Figure 4): a shallow CNN that produces a
//! single-channel 2-D latent representation of the LR field plus one
//! normalized score per patch.
//!
//! Architecture per the paper: three 3x3 stride-1 convolutions (8, 16, 16
//! filters) extracting an abstract representation, a single-filter 3x3
//! convolution collapsing it to the 2-D latent image, a maxpool with pool
//! size = stride = patch extent, and a softmax over patches.
//!
//! Training signal: the softmax scores feed the (discrete) ranker, so no
//! gradient flows through them; the scorer learns through the latent
//! channel, which is concatenated to every patch before the decoder
//! (Figure 3) — gradient arrives via [`Scorer::backward_latent`].

use adarnet_nn::{
    Activation, Conv2d, Device, InferLayer, Initializer, Layer, MaxPool2d, SpatialSoftmax,
};
use adarnet_tensor::Tensor;

/// The scorer: 4 convs -> (latent, pool+softmax scores).
pub struct Scorer {
    conv1: Conv2d,
    act1: Activation,
    conv2: Conv2d,
    act2: Activation,
    conv3: Conv2d,
    act3: Activation,
    conv4: Conv2d,
    pool: MaxPool2d,
    softmax: SpatialSoftmax,
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
            conv1: Conv2d::new(in_channels, 8, 3, Initializer::HeNormal, seed),
            act1: Activation::relu(),
            conv2: Conv2d::new(8, 16, 3, Initializer::HeNormal, seed + 1),
            act2: Activation::relu(),
            conv3: Conv2d::new(16, 16, 3, Initializer::HeNormal, seed + 2),
            act3: Activation::relu(),
            conv4: Conv2d::new(16, 1, 3, Initializer::XavierUniform, seed + 3),
            pool: MaxPool2d::new(ph, pw),
            softmax: SpatialSoftmax::new(),
        }
    }

    /// Route the four convs to `device` (see [`Layer::set_device`]);
    /// the pool and the softmax have no backend. Freezing afterwards
    /// yields a frozen scorer pinned to the same backend.
    pub fn set_device(&mut self, device: Device) {
        self.conv1.set_device(device);
        self.conv2.set_device(device);
        self.conv3.set_device(device);
        self.conv4.set_device(device);
    }

    /// Forward pass on an `(N, C, H, W)` LR field.
    pub fn forward(&mut self, x: &Tensor<f32>) -> ScorerOutput {
        // Intermediates are recycled into the workspace pool as soon as
        // the next layer has consumed (and internally cached) them, so
        // steady-state training epochs reuse the same buffers.
        let c1 = self.conv1.forward(x);
        let h1 = self.act1.forward(&c1);
        c1.recycle();
        let c2 = self.conv2.forward(&h1);
        h1.recycle();
        let h2 = self.act2.forward(&c2);
        c2.recycle();
        let c3 = self.conv3.forward(&h2);
        h2.recycle();
        let h3 = self.act3.forward(&c3);
        c3.recycle();
        let latent = self.conv4.forward(&h3);
        h3.recycle();
        let pooled = self.pool.forward(&latent);
        let scores = self.softmax.forward(&pooled);
        pooled.recycle();
        ScorerOutput { scores, latent }
    }

    /// Freeze the scorer into an immutable, `Sync` [`FrozenScorer`]
    /// whose forward pass is bitwise-identical to [`Scorer::forward`]:
    /// conv weights pre-packed for the GEMM, no backprop caches, `&self`
    /// end to end.
    pub fn freeze(&self) -> FrozenScorer {
        FrozenScorer {
            conv1: self.conv1.freeze(),
            act1: self.act1.freeze(),
            conv2: self.conv2.freeze(),
            act2: self.act2.freeze(),
            conv3: self.conv3.freeze(),
            act3: self.act3.freeze(),
            conv4: self.conv4.freeze(),
            pool: self.pool.freeze(),
            softmax: self.softmax.freeze(),
        }
    }

    /// Backward pass for the gradient arriving at the **latent** output
    /// (the differentiable path through the decoder; gradients on the
    /// binning decision itself are cut by the discrete ranker).
    /// Accumulates parameter gradients, returns dL/dinput.
    pub fn backward_latent(&mut self, grad_latent: &Tensor<f32>) -> Tensor<f32> {
        let g4 = self.conv4.backward(grad_latent);
        let a3 = self.act3.backward(&g4);
        g4.recycle();
        let g3 = self.conv3.backward(&a3);
        a3.recycle();
        let a2 = self.act2.backward(&g3);
        g3.recycle();
        let g2 = self.conv2.backward(&a2);
        a2.recycle();
        let a1 = self.act1.backward(&g2);
        g2.recycle();
        let dx = self.conv1.backward(&a1);
        a1.recycle();
        dx
    }

    /// Combined backward: gradient on the latent output plus (optionally)
    /// a gradient on the softmax scores — used by the trainer's
    /// physics-based score supervision, which routes dL/dscores back
    /// through the softmax and maxpool into the same latent image.
    pub fn backward(
        &mut self,
        grad_latent: &Tensor<f32>,
        grad_scores: Option<&Tensor<f32>>,
    ) -> Tensor<f32> {
        let mut g = grad_latent.pooled_copy();
        if let Some(ds) = grad_scores {
            let d_pooled = self.softmax.backward(ds);
            let d_latent2 = self.pool.backward(&d_pooled);
            d_pooled.recycle();
            g.axpy_inplace(1.0, &d_latent2);
            d_latent2.recycle();
        }
        let dx = self.backward_latent(&g);
        g.recycle();
        dx
    }

    /// All trainable parameters (4 convs x weight+bias).
    pub fn params_mut(&mut self) -> Vec<&mut Tensor<f32>> {
        let mut v = self.conv1.params_mut();
        v.extend(self.conv2.params_mut());
        v.extend(self.conv3.params_mut());
        v.extend(self.conv4.params_mut());
        v
    }

    /// Accumulated gradients, aligned with [`Scorer::params_mut`].
    pub fn grads(&self) -> Vec<&Tensor<f32>> {
        let mut v = self.conv1.grads();
        v.extend(self.conv2.grads());
        v.extend(self.conv3.grads());
        v.extend(self.conv4.grads());
        v
    }

    /// Zero all accumulated gradients.
    pub fn zero_grads(&mut self) {
        self.conv1.zero_grads();
        self.conv2.zero_grads();
        self.conv3.zero_grads();
        self.conv4.zero_grads();
    }

    /// Trainable scalar count.
    pub fn num_params(&self) -> usize {
        self.conv1.num_params()
            + self.conv2.num_params()
            + self.conv3.num_params()
            + self.conv4.num_params()
    }

    /// Snapshot weights for checkpointing.
    pub fn snapshot(&self) -> Vec<Tensor<f32>> {
        let mut v: Vec<Tensor<f32>> = Vec::new();
        for l in [&self.conv1, &self.conv2, &self.conv3, &self.conv4] {
            v.extend(l.params().into_iter().cloned());
        }
        v
    }

    /// Restore weights from [`Scorer::snapshot`] output.
    pub fn restore(&mut self, tensors: &[Tensor<f32>]) {
        let mut params = self.params_mut();
        assert_eq!(params.len(), tensors.len(), "snapshot length mismatch");
        for (p, t) in params.iter_mut().zip(tensors) {
            assert!(p.shape().same(t.shape()), "snapshot shape mismatch");
            p.as_mut_slice().copy_from_slice(t.as_slice());
        }
    }
}

/// The scorer's frozen, share-everything twin: same layer chain over
/// [`InferLayer`]s, `&self` forward, `Sync`. Produced by
/// [`Scorer::freeze`].
pub struct FrozenScorer {
    conv1: Box<dyn InferLayer>,
    act1: Box<dyn InferLayer>,
    conv2: Box<dyn InferLayer>,
    act2: Box<dyn InferLayer>,
    conv3: Box<dyn InferLayer>,
    act3: Box<dyn InferLayer>,
    conv4: Box<dyn InferLayer>,
    pool: Box<dyn InferLayer>,
    softmax: Box<dyn InferLayer>,
}

impl FrozenScorer {
    /// Inference forward: the op/recycle chain of [`Scorer::forward`]
    /// over frozen weights, with no backprop caches. Both returned
    /// tensors are pool-backed — recycle them (or let
    /// [`crate::network::Prediction::recycle`] do it) when done.
    pub fn forward(&self, x: &Tensor<f32>) -> ScorerOutput {
        let c1 = self.conv1.infer(x);
        let h1 = self.act1.infer(&c1);
        c1.recycle();
        let c2 = self.conv2.infer(&h1);
        h1.recycle();
        let h2 = self.act2.infer(&c2);
        c2.recycle();
        let c3 = self.conv3.infer(&h2);
        h2.recycle();
        let h3 = self.act3.infer(&c3);
        c3.recycle();
        let latent = self.conv4.infer(&h3);
        h3.recycle();
        let pooled = self.pool.infer(&latent);
        let scores = self.softmax.infer(&pooled);
        pooled.recycle();
        ScorerOutput { scores, latent }
    }

    /// Resident frozen-weight bytes (the four convs' tensors + packed
    /// panels; pool/softmax/activations are weightless).
    pub fn weight_bytes(&self) -> usize {
        [&self.conv1, &self.conv2, &self.conv3, &self.conv4]
            .iter()
            .map(|l| l.weight_bytes())
            .sum()
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
        let dx = s.backward_latent(&Tensor::full(out.latent.shape().clone(), 1.0f32));
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
