//! Max pooling with pool size == stride (non-overlapping windows).
//!
//! ADARNet's scorer ends in a maxpool whose pool size and stride are both
//! the patch extent `(ph, pw)` (§3.1), collapsing the single-channel latent
//! image into one non-normalized score per patch. The paper motivates max
//! over average pooling as the conservative choice: an entire patch shares
//! one resolution, so the highest required score in the patch should win.

use adarnet_tensor::{Shape, Tensor};

use crate::device::Device;
use crate::{InferLayer, Layer, F};

/// Non-overlapping 2-D max pooling.
pub struct MaxPool2d {
    pool_h: usize,
    pool_w: usize,
    /// Flat argmax index into the input buffer per output element.
    cached_argmax: Option<Vec<usize>>,
    cached_in_shape: Option<Shape>,
    /// Compute backend. Pooling is memory-bound and shared across
    /// backends ([`Device::max_pool2d_forward`]), so this only selects
    /// where the call routes — outputs are bitwise identical.
    device: Device,
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
            device: Device::detect(),
        }
    }

    /// Shared max-pool compute into a pool-backed output; `record` is
    /// called with `(output index, flat input argmax)` for each output
    /// element (a no-op closure on the inference path).
    fn run_forward(&self, x: &Tensor<F>, record: impl FnMut(usize, usize)) -> Tensor<F> {
        self.device
            .max_pool2d_forward(x, self.pool_h, self.pool_w, record)
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
        let y = self.run_forward(x, |oidx, best_idx| argmax[oidx] = best_idx);
        self.cached_argmax = Some(argmax);
        self.cached_in_shape = Some(x.shape().clone());
        y
    }

    fn freeze(&self) -> Box<dyn InferLayer> {
        let mut inner = MaxPool2d::new(self.pool_h, self.pool_w);
        inner.device = self.device;
        Box::new(FrozenMaxPool2d { inner })
    }

    fn set_device(&mut self, device: Device) {
        self.device = device;
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

/// Frozen max pool: stateless wrapper over the shared compute with a
/// no-op argmax recorder.
pub struct FrozenMaxPool2d {
    inner: MaxPool2d,
}

impl InferLayer for FrozenMaxPool2d {
    fn name(&self) -> String {
        format!(
            "FrozenMaxPool2d({}x{})",
            self.inner.pool_h, self.inner.pool_w
        )
    }

    fn infer(&self, x: &Tensor<F>) -> Tensor<F> {
        self.inner.run_forward(x, |_, _| {})
    }
}

/// Non-overlapping 2-D average pooling.
///
/// The paper deliberately prefers max pooling in the scorer (§5.1) — the
/// whole patch shares one resolution, so the *most* demanding cell should
/// decide. Average pooling is kept for the corresponding ablation
/// (`ablation_scorer_pooling`).
pub struct AvgPool2d {
    pool_h: usize,
    pool_w: usize,
    cached_in_shape: Option<Shape>,
    /// Compute backend; same routing-only role as `MaxPool2d`'s.
    device: Device,
}

impl AvgPool2d {
    /// Create an average-pool layer with window (and stride)
    /// `(pool_h, pool_w)`.
    pub fn new(pool_h: usize, pool_w: usize) -> Self {
        assert!(pool_h > 0 && pool_w > 0, "pool extents must be positive");
        AvgPool2d {
            pool_h,
            pool_w,
            cached_in_shape: None,
            device: Device::detect(),
        }
    }
}

impl AvgPool2d {
    /// Shared average-pool compute into a pool-backed output.
    fn run_forward(&self, x: &Tensor<F>) -> Tensor<F> {
        self.device.avg_pool2d_forward(x, self.pool_h, self.pool_w)
    }
}

impl Layer for AvgPool2d {
    fn name(&self) -> String {
        format!("AvgPool2d({}x{})", self.pool_h, self.pool_w)
    }

    fn forward(&mut self, x: &Tensor<F>) -> Tensor<F> {
        let y = self.run_forward(x);
        self.cached_in_shape = Some(x.shape().clone());
        y
    }

    fn freeze(&self) -> Box<dyn InferLayer> {
        let mut inner = AvgPool2d::new(self.pool_h, self.pool_w);
        inner.device = self.device;
        Box::new(FrozenAvgPool2d { inner })
    }

    fn set_device(&mut self, device: Device) {
        self.device = device;
    }

    #[expect(
        clippy::expect_used,
        reason = "backward-before-forward is an API-contract violation by the caller (programmer error), not a data error"
    )]
    fn backward(&mut self, grad_out: &Tensor<F>) -> Tensor<F> {
        let in_shape = self
            .cached_in_shape
            .as_ref()
            .expect("AvgPool2d::backward called before forward")
            .clone();
        let (n, c, h, w) = (
            in_shape.dim(0),
            in_shape.dim(1),
            in_shape.dim(2),
            in_shape.dim(3),
        );
        let (oh, ow) = (h / self.pool_h, w / self.pool_w);
        let inv = 1.0 / (self.pool_h * self.pool_w) as F;
        let mut dx = Tensor::<F>::pooled_zeroed(in_shape);
        let dxs = dx.as_mut_slice();
        let gs = grad_out.as_slice();
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * h * w;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = gs[((ni * c + ci) * oh + oy) * ow + ox] * inv;
                        for py in 0..self.pool_h {
                            let row = base + (oy * self.pool_h + py) * w + ox * self.pool_w;
                            for px in 0..self.pool_w {
                                dxs[row + px] += g;
                            }
                        }
                    }
                }
            }
        }
        dx
    }
}

/// Frozen average pool: stateless wrapper over the shared compute.
pub struct FrozenAvgPool2d {
    inner: AvgPool2d,
}

impl InferLayer for FrozenAvgPool2d {
    fn name(&self) -> String {
        format!(
            "FrozenAvgPool2d({}x{})",
            self.inner.pool_h, self.inner.pool_w
        )
    }

    fn infer(&self, x: &Tensor<F>) -> Tensor<F> {
        self.inner.run_forward(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avg_pools_mean_per_window() {
        let x = Tensor::from_vec(
            Shape::d4(1, 1, 2, 4),
            vec![1.0, 5.0, 2.0, 0.0, 3.0, 4.0, 7.0, 6.0],
        );
        let mut l = AvgPool2d::new(2, 2);
        let y = l.forward(&x);
        assert_eq!(y.as_slice(), &[3.25, 3.75]);
    }

    #[test]
    fn avg_backward_spreads_uniformly() {
        let x = Tensor::<F>::full(Shape::d4(1, 1, 2, 2), 1.0);
        let mut l = AvgPool2d::new(2, 2);
        let _ = l.forward(&x);
        let dx = l.backward(&Tensor::full(Shape::d4(1, 1, 1, 1), 4.0f32));
        assert_eq!(dx.as_slice(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn gradcheck_avgpool() {
        let mut l = AvgPool2d::new(2, 2);
        let r = crate::gradcheck::check_layer_gradients(&mut l, Shape::d4(1, 2, 4, 4), 47, 1e-3);
        assert!(r.max_rel_err < 1e-2, "{r:?}");
    }

    #[test]
    fn avg_is_upper_bounded_by_max() {
        let x = Tensor::from_vec(
            Shape::d4(1, 1, 4, 4),
            (0..16).map(|i| ((i * 7) % 13) as F).collect(),
        );
        let mut avg = AvgPool2d::new(2, 2);
        let mut max = MaxPool2d::new(2, 2);
        let ya = avg.forward(&x);
        let ym = max.forward(&x);
        for (a, m) in ya.as_slice().iter().zip(ym.as_slice()) {
            assert!(a <= m, "avg {a} > max {m}");
        }
    }

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
