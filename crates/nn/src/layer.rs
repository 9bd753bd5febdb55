//! The [`Layer`] trait: explicit forward/backward with cached activations.
//! Training runs `forward`/`backward` on mutable layers; inference is
//! `freeze()` then `infer` — there is no third path.
//!
//! [`InferLayer`] is the frozen, inference-only counterpart: `&self`
//! end to end, `Sync`, no backprop caches — the shape shared weights
//! must take so one model instance can serve many threads (DESIGN.md
//! §12). Every [`Layer`] can produce one via [`Layer::freeze`].

use adarnet_tensor::Tensor;

use crate::device::Device;
use crate::F;

/// An immutable, share-everything inference layer.
///
/// Contract:
/// * [`InferLayer::infer`] computes exactly the same values as the
///   source layer's [`Layer::forward`] — bitwise, not just within
///   tolerance ("what you train is what you serve", pinned by
///   `crates/core/tests/train_serve.rs`) — with the output drawn from
///   the workspace pool.
/// * The layer holds no per-call state: `infer` takes `&self` and the
///   type is `Sync`, so one frozen model behind an `Arc` serves any
///   number of threads concurrently with zero locking.
/// * Weight-derived data (e.g. pre-packed GEMM panels, the flipped
///   deconv kernels) is computed once at [`Layer::freeze`] time, never
///   per call.
pub trait InferLayer: Send + Sync {
    /// Human-readable layer name for diagnostics.
    fn name(&self) -> String;

    /// Run the layer on `x`. Pool-backed output; recycle it when done.
    fn infer(&self, x: &Tensor<F>) -> Tensor<F>;

    /// Resident bytes of frozen weight data (including packed panels).
    /// Zero for weightless layers; feeds the `engine_weight_bytes`
    /// gauge, which `serve stats` prints.
    fn weight_bytes(&self) -> usize {
        0
    }
}

/// A differentiable network layer.
///
/// Contract:
/// * [`Layer::forward`] caches whatever it needs (typically its input) for
///   the next [`Layer::backward`] call.
/// * [`Layer::backward`] consumes the loss gradient with respect to the
///   layer output and returns the gradient with respect to the layer input,
///   **accumulating** parameter gradients internally (so multiple
///   micro-batches sum their gradients until [`Layer::zero_grads`]).
/// * Calling `backward` before `forward` panics.
pub trait Layer: Send {
    /// Human-readable layer name for diagnostics.
    fn name(&self) -> String;

    /// Run the layer on `x`, caching state for backprop.
    fn forward(&mut self, x: &Tensor<F>) -> Tensor<F>;

    /// Propagate `grad_out` (dL/dy) back to dL/dx, accumulating parameter
    /// gradients.
    fn backward(&mut self, grad_out: &Tensor<F>) -> Tensor<F>;

    /// Snapshot the layer's weights into an immutable [`InferLayer`]
    /// whose [`InferLayer::infer`] is bitwise-identical to
    /// [`Layer::forward`]. Weight-derived inference state (packed
    /// GEMM panels, flipped deconv kernels) is built here, once.
    fn freeze(&self) -> Box<dyn InferLayer>;

    /// Select the compute backend this layer's kernels run on. Layers
    /// default to [`Device::detect`] at construction; this override
    /// exists for tests and tools that must pin a backend regardless of
    /// environment (e.g. the backend-equivalence suite, the kernels
    /// bench). Weightless layers ignore it.
    fn set_device(&mut self, device: Device) {
        let _ = device;
    }

    /// Immutable views of trainable parameters (possibly empty).
    fn params(&self) -> Vec<&Tensor<F>> {
        Vec::new()
    }

    /// Mutable views of trainable parameters, in the same order as
    /// [`Layer::params`].
    fn params_mut(&mut self) -> Vec<&mut Tensor<F>> {
        Vec::new()
    }

    /// Immutable views of accumulated gradients, aligned with
    /// [`Layer::params`].
    fn grads(&self) -> Vec<&Tensor<F>> {
        Vec::new()
    }

    /// Reset accumulated parameter gradients to zero.
    fn zero_grads(&mut self) {}

    /// Total number of trainable scalars.
    fn num_params(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }
}
