//! Spatial softmax over all positions of each batch item.
//!
//! The scorer's final layer (§3.1): normalizes the per-patch scores of one
//! sample into a 0-1 probability distribution across all patches. Channels
//! and spatial positions are flattened together per batch item.
//!
//! Softmax is latency-bound on `exp`, not arithmetic-bound, so it is not
//! a [`crate::Device`] op: the layer and its frozen twin call one scalar
//! body in [`crate::device::cpu_scalar`] whatever the backend.

use adarnet_tensor::Tensor;

use crate::device::cpu_scalar::{spatial_softmax_backward, spatial_softmax_forward};
use crate::{InferLayer, Layer, F};

/// Softmax across everything but the batch axis.
pub struct SpatialSoftmax {
    cached_output: Option<Tensor<F>>,
}

impl SpatialSoftmax {
    /// Create a softmax layer.
    pub fn new() -> Self {
        SpatialSoftmax {
            cached_output: None,
        }
    }
}

/// Shared forward compute into a pool-backed output, finite-guarded.
fn run_forward(x: &Tensor<F>) -> Tensor<F> {
    let y = spatial_softmax_forward(x);
    crate::finite::debug_guard_finite("SpatialSoftmax", x, &y);
    y
}

impl Default for SpatialSoftmax {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for SpatialSoftmax {
    fn name(&self) -> String {
        "SpatialSoftmax".to_string()
    }

    fn forward(&mut self, x: &Tensor<F>) -> Tensor<F> {
        let y = run_forward(x);
        if let Some(old) = self.cached_output.take() {
            old.recycle();
        }
        self.cached_output = Some(y.pooled_copy());
        y
    }

    fn freeze(&self) -> Box<dyn InferLayer> {
        Box::new(FrozenSpatialSoftmax)
    }

    #[expect(
        clippy::expect_used,
        reason = "backward-before-forward is an API-contract violation by the caller (programmer error), not a data error"
    )]
    fn backward(&mut self, grad_out: &Tensor<F>) -> Tensor<F> {
        let y = self
            .cached_output
            .as_ref()
            .expect("SpatialSoftmax::backward called before forward");
        spatial_softmax_backward(y, grad_out)
    }
}

/// Frozen spatial softmax: stateless, over the shared compute.
pub struct FrozenSpatialSoftmax;

impl InferLayer for FrozenSpatialSoftmax {
    fn name(&self) -> String {
        "FrozenSpatialSoftmax".to_string()
    }

    fn infer(&self, x: &Tensor<F>) -> Tensor<F> {
        run_forward(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adarnet_tensor::Shape;

    #[test]
    fn sums_to_one_per_batch_item() {
        let x = Tensor::from_vec(
            Shape::d4(2, 1, 2, 2),
            vec![1.0, 2.0, 3.0, 4.0, -1.0, 0.0, 1.0, 2.0],
        );
        let mut l = SpatialSoftmax::new();
        let y = l.forward(&x);
        let s0: f64 = y.as_slice()[..4].iter().map(|&v| v as f64).sum();
        let s1: f64 = y.as_slice()[4..].iter().map(|&v| v as f64).sum();
        assert!((s0 - 1.0).abs() < 1e-6);
        assert!((s1 - 1.0).abs() < 1e-6);
    }

    #[test]
    fn monotone_in_input() {
        let x = Tensor::from_vec(Shape::d2(1, 3), vec![1.0, 2.0, 3.0]);
        let mut l = SpatialSoftmax::new();
        let y = l.forward(&x);
        assert!(y.as_slice()[0] < y.as_slice()[1]);
        assert!(y.as_slice()[1] < y.as_slice()[2]);
    }

    #[test]
    fn stable_for_large_inputs() {
        let x = Tensor::from_vec(Shape::d2(1, 2), vec![1000.0, 1001.0]);
        let mut l = SpatialSoftmax::new();
        let y = l.forward(&x);
        assert!(y.all_finite());
        assert!((y.as_slice()[0] as f64 + y.as_slice()[1] as f64 - 1.0).abs() < 1e-6);
    }

    #[test]
    fn gradcheck_softmax() {
        let mut l = SpatialSoftmax::new();
        let r = crate::gradcheck::check_layer_gradients(&mut l, Shape::d2(2, 6), 59, 1e-3);
        assert!(r.max_rel_err < 1e-2, "{r:?}");
    }
}
