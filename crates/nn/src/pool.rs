//! Max pooling with pool size == stride (non-overlapping windows).
//!
//! ADARNet's scorer ends in a maxpool whose pool size and stride are both
//! the patch extent `(ph, pw)` (§3.1), collapsing the single-channel latent
//! image into one non-normalized score per patch. The paper motivates max
//! over average pooling as the conservative choice: an entire patch shares
//! one resolution, so the highest required score in the patch should win.
//!
//! Pooling is memory-bound, so it is not a [`crate::Device`] op: the
//! layer calls one scalar body in [`crate::device::cpu_scalar`] whatever
//! the backend, and the frozen twin holds only the pool extents.

use adarnet_tensor::{Shape, Tensor};

use crate::device::cpu_scalar::max_pool2d_forward;
use crate::{InferLayer, Layer, F};

/// Non-overlapping 2-D max pooling.
pub struct MaxPool2d {
    pool_h: usize,
    pool_w: usize,
    /// Flat argmax index into the input buffer per output element.
    cached_argmax: Option<Vec<usize>>,
    cached_in_shape: Option<Shape>,
}

impl MaxPool2d {
    /// Create a pool layer with window (and stride) `(pool_h, pool_w)`.
    pub fn new(pool_h: usize, pool_w: usize) -> Self {
        assert!(pool_h > 0 && pool_w > 0, "pool extents must be positive");
        MaxPool2d {
            pool_h,
            pool_w,
            cached_argmax: None,
            cached_in_shape: None,
        }
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> String {
        format!("MaxPool2d({}x{})", self.pool_h, self.pool_w)
    }

    fn forward(&mut self, x: &Tensor<F>) -> Tensor<F> {
        let (n, c) = (x.dim(0), x.dim(1));
        let out_len = n * c * (x.dim(2) / self.pool_h) * (x.dim(3) / self.pool_w);
        // Reuse last call's argmax buffer: steady-state training epochs
        // don't allocate here (usize scratch has no f32 pool to draw on).
        let mut argmax = self.cached_argmax.take().unwrap_or_default();
        argmax.clear();
        argmax.resize(out_len, 0);
        let y = max_pool2d_forward(x, self.pool_h, self.pool_w, |oidx, best_idx| {
            argmax[oidx] = best_idx
        });
        self.cached_argmax = Some(argmax);
        self.cached_in_shape = Some(x.shape().clone());
        y
    }

    fn freeze(&self) -> Box<dyn InferLayer> {
        Box::new(FrozenMaxPool2d {
            pool_h: self.pool_h,
            pool_w: self.pool_w,
        })
    }

    #[expect(
        clippy::expect_used,
        reason = "backward-before-forward is an API-contract violation by the caller (programmer error), not a data error"
    )]
    fn backward(&mut self, grad_out: &Tensor<F>) -> Tensor<F> {
        let argmax = self
            .cached_argmax
            .as_ref()
            .expect("MaxPool2d::backward called before forward");
        let in_shape = self
            .cached_in_shape
            .as_ref()
            .expect("MaxPool2d::backward called before forward")
            .clone();
        assert_eq!(grad_out.len(), argmax.len(), "grad_out size mismatch");
        let mut dx = Tensor::<F>::pooled_zeroed(in_shape);
        let dxs = dx.as_mut_slice();
        for (g, &idx) in grad_out.as_slice().iter().zip(argmax) {
            dxs[idx] += g;
        }
        dx
    }
}

/// Frozen max pool: the pool extents over the shared compute, with a
/// no-op argmax recorder.
pub struct FrozenMaxPool2d {
    pool_h: usize,
    pool_w: usize,
}

impl InferLayer for FrozenMaxPool2d {
    fn name(&self) -> String {
        format!("FrozenMaxPool2d({}x{})", self.pool_h, self.pool_w)
    }

    fn infer(&self, x: &Tensor<F>) -> Tensor<F> {
        max_pool2d_forward(x, self.pool_h, self.pool_w, |_, _| {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_max_per_window() {
        let x = Tensor::from_vec(
            Shape::d4(1, 1, 2, 4),
            vec![1.0, 5.0, 2.0, 0.0, 3.0, 4.0, 7.0, 6.0],
        );
        let mut l = MaxPool2d::new(2, 2);
        let y = l.forward(&x);
        assert_eq!(y.shape(), &Shape::d4(1, 1, 1, 2));
        assert_eq!(y.as_slice(), &[5.0, 7.0]);
    }

    #[test]
    fn backward_routes_to_argmax_only() {
        let x = Tensor::from_vec(Shape::d4(1, 1, 2, 2), vec![1.0, 9.0, 3.0, 2.0]);
        let mut l = MaxPool2d::new(2, 2);
        let _ = l.forward(&x);
        let dx = l.backward(&Tensor::full(Shape::d4(1, 1, 1, 1), 2.5f32));
        assert_eq!(dx.as_slice(), &[0.0, 2.5, 0.0, 0.0]);
    }

    #[test]
    fn scorer_shape_64x256_to_4x16() {
        // The paper's LR field 64x256 pooled by 16x16 gives the 4x16 = 64
        // per-patch score layout.
        let x = Tensor::<F>::full(Shape::d4(1, 1, 64, 256), 1.0);
        let mut l = MaxPool2d::new(16, 16);
        let y = l.forward(&x);
        assert_eq!(y.shape(), &Shape::d4(1, 1, 4, 16));
    }

    #[test]
    fn gradcheck_maxpool() {
        // Use distinct values so the argmax is stable under the FD probe.
        let mut l = MaxPool2d::new(2, 2);
        let r = crate::gradcheck::check_layer_gradients(&mut l, Shape::d4(1, 2, 4, 4), 41, 1e-3);
        assert!(r.max_rel_err < 1e-2, "{r:?}");
    }

    #[test]
    #[should_panic(expected = "does not tile")]
    fn rejects_nondividing_pool() {
        let mut l = MaxPool2d::new(3, 3);
        let _ = l.forward(&Tensor::<F>::zeros(Shape::d4(1, 1, 4, 4)));
    }
}
