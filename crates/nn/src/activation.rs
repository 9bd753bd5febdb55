//! Pointwise activation layers.

use adarnet_tensor::Tensor;

use crate::{InferLayer, Layer, F};

/// Which nonlinearity an [`Activation`] layer applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActivationKind {
    /// `max(0, x)`.
    Relu,
    /// `x` for `x > 0`, `alpha * x` otherwise, with fixed `alpha = 0.01`.
    LeakyRelu,
    /// Hyperbolic tangent.
    Tanh,
    /// Identity (useful to disable a nonlinearity in ablations).
    Identity,
}

impl ActivationKind {
    #[inline]
    fn apply(self, x: F) -> F {
        match self {
            ActivationKind::Relu => x.max(0.0),
            ActivationKind::LeakyRelu => {
                if x > 0.0 {
                    x
                } else {
                    0.01 * x
                }
            }
            ActivationKind::Tanh => x.tanh(),
            ActivationKind::Identity => x,
        }
    }

    /// Derivative expressed in terms of input `x` and output `y`.
    #[inline]
    fn derivative(self, x: F, y: F) -> F {
        match self {
            ActivationKind::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            ActivationKind::LeakyRelu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.01
                }
            }
            ActivationKind::Tanh => 1.0 - y * y,
            ActivationKind::Identity => 1.0,
        }
    }
}

/// A pointwise activation layer (no parameters).
pub struct Activation {
    kind: ActivationKind,
    cached_input: Option<Tensor<F>>,
    cached_output: Option<Tensor<F>>,
}

impl Activation {
    /// Create an activation layer of the given kind.
    pub fn new(kind: ActivationKind) -> Self {
        Activation {
            kind,
            cached_input: None,
            cached_output: None,
        }
    }

    /// Convenience constructor for ReLU.
    pub fn relu() -> Self {
        Self::new(ActivationKind::Relu)
    }

    /// Convenience constructor for LeakyReLU(0.01).
    pub fn leaky_relu() -> Self {
        Self::new(ActivationKind::LeakyRelu)
    }

    /// Convenience constructor for tanh.
    pub fn tanh() -> Self {
        Self::new(ActivationKind::Tanh)
    }
}

impl Layer for Activation {
    fn name(&self) -> String {
        format!("Activation({:?})", self.kind)
    }

    fn forward(&mut self, x: &Tensor<F>) -> Tensor<F> {
        let kind = self.kind;
        let mut y = x.pooled_copy();
        y.map_inplace(move |v| kind.apply(v));
        // Pool-backed caches: recycle last call's buffers for reuse.
        if let Some(old) = self.cached_input.take() {
            old.recycle();
        }
        if let Some(old) = self.cached_output.take() {
            old.recycle();
        }
        self.cached_input = Some(x.pooled_copy());
        self.cached_output = Some(y.pooled_copy());
        y
    }

    fn freeze(&self) -> Box<dyn InferLayer> {
        Box::new(FrozenActivation { kind: self.kind })
    }

    #[expect(
        clippy::expect_used,
        reason = "backward-before-forward is an API-contract violation by the caller (programmer error), not a data error"
    )]
    fn backward(&mut self, grad_out: &Tensor<F>) -> Tensor<F> {
        let x = self
            .cached_input
            .as_ref()
            .expect("Activation::backward called before forward");
        let y = self
            .cached_output
            .as_ref()
            .expect("Activation::backward called before forward");
        let kind = self.kind;
        let mut dx = grad_out.pooled_copy();
        dx.as_mut_slice()
            .iter_mut()
            .zip(x.as_slice().iter().zip(y.as_slice()))
            .for_each(|(g, (&xi, &yi))| *g *= kind.derivative(xi, yi));
        dx
    }
}

/// Frozen activation: just the [`ActivationKind`].
pub struct FrozenActivation {
    kind: ActivationKind,
}

impl InferLayer for FrozenActivation {
    fn name(&self) -> String {
        format!("FrozenActivation({:?})", self.kind)
    }

    fn infer(&self, x: &Tensor<F>) -> Tensor<F> {
        let kind = self.kind;
        let mut y = x.pooled_copy();
        y.map_inplace(move |v| kind.apply(v));
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adarnet_tensor::Shape;

    fn input() -> Tensor<F> {
        Tensor::from_vec(Shape::d1(5), vec![-2.0, -0.5, 0.0, 0.5, 2.0])
    }

    #[test]
    fn relu_values() {
        let mut l = Activation::relu();
        let y = l.forward(&input());
        assert_eq!(y.as_slice(), &[0.0, 0.0, 0.0, 0.5, 2.0]);
    }

    #[test]
    fn leaky_relu_values() {
        let mut l = Activation::leaky_relu();
        let y = l.forward(&input());
        assert_eq!(y.as_slice(), &[-0.02, -0.005, 0.0, 0.5, 2.0]);
    }

    #[test]
    fn tanh_gradcheck() {
        let mut l = Activation::tanh();
        let r = crate::gradcheck::check_layer_gradients(&mut l, Shape::d2(3, 4), 31, 1e-3);
        assert!(r.max_rel_err < 1e-2, "{r:?}");
    }

    #[test]
    fn relu_backward_masks() {
        let mut l = Activation::relu();
        let _ = l.forward(&input());
        let dx = l.backward(&Tensor::full(Shape::d1(5), 1.0f32));
        assert_eq!(dx.as_slice(), &[0.0, 0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn identity_passes_through() {
        let mut l = Activation::new(ActivationKind::Identity);
        let x = input();
        assert_eq!(l.forward(&x), x);
        let g = Tensor::full(Shape::d1(5), 3.0f32);
        assert_eq!(l.backward(&g), g);
    }
}
