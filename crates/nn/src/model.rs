//! Sequential container over boxed layers, with weight snapshot/restore.

use adarnet_tensor::Tensor;

use crate::device::Device;
use crate::{InferLayer, Layer, F};

/// A stack of layers applied in order.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// An empty network.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Append a layer (builder style).
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True if the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Forward through every layer. The first layer reads `x` itself
    /// (a layer that needs its input for backprop caches its own copy);
    /// intermediate activations are recycled into the workspace pool as
    /// soon as the next layer has consumed them. An empty stack returns
    /// a pooled copy of `x`.
    pub fn forward(&mut self, x: &Tensor<F>) -> Tensor<F> {
        chain(x, self.layers.iter_mut(), |l, t| l.forward(t))
    }

    /// Backward through every layer in reverse; returns dL/dinput.
    /// Gradients flow like forward activations: the last layer reads
    /// `grad_out` itself, intermediates are recycled.
    pub fn backward(&mut self, grad_out: &Tensor<F>) -> Tensor<F> {
        chain(grad_out, self.layers.iter_mut().rev(), |l, t| l.backward(t))
    }

    /// All trainable parameters across layers.
    pub fn params(&self) -> Vec<&Tensor<F>> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    /// All trainable parameters, mutably.
    pub fn params_mut(&mut self) -> Vec<&mut Tensor<F>> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// All accumulated gradients, aligned with [`Sequential::params`].
    pub fn grads(&self) -> Vec<&Tensor<F>> {
        self.layers.iter().flat_map(|l| l.grads()).collect()
    }

    /// Route every layer's kernels to `device` (see
    /// [`Layer::set_device`]). Freezing after this call produces a
    /// frozen stack pinned to the same backend.
    pub fn set_device(&mut self, device: Device) {
        for layer in &mut self.layers {
            layer.set_device(device);
        }
    }

    /// Zero every accumulated gradient.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    /// Total trainable scalar count.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(|l| l.num_params()).sum()
    }

    /// Snapshot all weights, in [`Sequential::params`] order.
    pub fn snapshot(&self) -> Vec<Tensor<F>> {
        self.params().into_iter().cloned().collect()
    }

    /// Freeze every layer into an immutable [`FrozenSequential`] whose
    /// inference is bitwise-identical to [`Sequential::forward`] but
    /// `&self`, cache-free and `Sync` — the weight plane one copy of which all
    /// serving threads share.
    pub fn freeze(&self) -> FrozenSequential {
        FrozenSequential {
            layers: self.layers.iter().map(|l| l.freeze()).collect(),
        }
    }

    /// Restore weights from [`Sequential::snapshot`] output (shapes must
    /// match exactly).
    pub fn restore(&mut self, tensors: &[Tensor<F>]) {
        let mut params = self.params_mut();
        assert_eq!(
            params.len(),
            tensors.len(),
            "checkpoint has {} tensors, model has {}",
            tensors.len(),
            params.len()
        );
        for (p, t) in params.iter_mut().zip(tensors) {
            assert!(
                p.shape().same(t.shape()),
                "checkpoint tensor shape {:?} != model {:?}",
                t.shape(),
                p.shape()
            );
            p.as_mut_slice().copy_from_slice(t.as_slice());
        }
    }
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

/// An immutable stack of frozen layers: the inference-only twin of
/// [`Sequential`], produced by [`Sequential::freeze`].
pub struct FrozenSequential {
    layers: Vec<Box<dyn InferLayer>>,
}

impl FrozenSequential {
    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True if the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Inference forward through every frozen layer, recycling
    /// intermediates — same values as [`Sequential::forward`], without
    /// `&mut` or backprop caches. The returned tensor is pool-backed;
    /// recycle it when done to keep serving loops allocation-free.
    pub fn infer(&self, x: &Tensor<F>) -> Tensor<F> {
        chain(x, self.layers.iter(), |l, t| l.infer(t))
    }

    /// Total resident frozen-weight bytes across layers.
    pub fn weight_bytes(&self) -> usize {
        self.layers.iter().map(|l| l.weight_bytes()).sum()
    }
}

/// Run `step` through `layers` in order, starting from `x` without
/// copying it and recycling each intermediate once the next layer has
/// consumed it — the one loop behind [`Sequential::forward`],
/// [`Sequential::backward`] and [`FrozenSequential::infer`].
fn chain<L>(
    x: &Tensor<F>,
    mut layers: impl Iterator<Item = L>,
    mut step: impl FnMut(L, &Tensor<F>) -> Tensor<F>,
) -> Tensor<F> {
    let Some(first) = layers.next() else {
        return x.pooled_copy();
    };
    let mut cur = step(first, x);
    for layer in layers {
        let next = step(layer, &cur);
        cur.recycle();
        cur = next;
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activation, Conv2d, Initializer};
    use adarnet_tensor::Shape;

    fn tiny_net(seed: u64) -> Sequential {
        Sequential::new()
            .push(Conv2d::new(1, 2, 3, Initializer::XavierUniform, seed))
            .push(Activation::relu())
            .push(Conv2d::new(2, 1, 3, Initializer::XavierUniform, seed + 1))
    }

    #[test]
    fn forward_backward_shapes() {
        let mut net = tiny_net(0);
        let x = Tensor::<F>::full(Shape::d4(2, 1, 6, 6), 0.3);
        let y = net.forward(&x);
        assert_eq!(y.shape(), &Shape::d4(2, 1, 6, 6));
        let dx = net.backward(&Tensor::full(y.shape().clone(), 1.0f32));
        assert_eq!(dx.shape(), x.shape());
    }

    #[test]
    fn param_and_grad_alignment() {
        let net = tiny_net(1);
        assert_eq!(net.params().len(), 4); // 2 convs x (weight, bias)
        assert_eq!(net.grads().len(), 4);
        assert_eq!(net.num_params(), 2 * 9 + 2 + 2 * 9 + 1);
    }

    #[test]
    fn empty_stack_returns_a_copy_of_its_input() {
        let x = Tensor::<F>::full(Shape::d4(1, 1, 3, 3), 0.5);
        assert_eq!(Sequential::new().forward(&x), x);
        assert_eq!(Sequential::new().backward(&x), x);
        assert_eq!(Sequential::new().freeze().infer(&x), x);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut a = tiny_net(7);
        let mut b = tiny_net(99);
        let x = Tensor::<F>::full(Shape::d4(1, 1, 5, 5), 0.7);
        let ya = a.forward(&x);
        let yb = b.forward(&x);
        assert_ne!(ya, yb, "different seeds should differ");
        let ckpt = a.snapshot();
        b.restore(&ckpt);
        assert_eq!(b.forward(&x), ya);
    }
}
