//! First-order optimizers: plain SGD and Adam.
//!
//! The paper trains with Adam at learning rate 1e-4 (§4.2); SGD is kept for
//! tests.

use adarnet_tensor::Tensor;

use crate::F;

/// An optimizer that updates a flat list of `(param, grad)` pairs.
///
/// State (Adam's moments) is keyed by position in the list, so callers
/// must pass parameters in a stable order — [`crate::Sequential::params_mut`]
/// guarantees that.
pub trait Optimizer {
    /// Apply one update step. `params` and `grads` are aligned.
    fn step(&mut self, params: &mut [&mut Tensor<F>], grads: &[&Tensor<F>]);

    /// Learning rate currently in effect.
    fn learning_rate(&self) -> f64;

    /// Change the learning rate (e.g. for decay schedules).
    fn set_learning_rate(&mut self, lr: f64);
}

/// Plain stochastic gradient descent: `p -= lr·g`.
pub struct Sgd {
    lr: f64,
}

impl Sgd {
    /// SGD at learning rate `lr`.
    pub fn new(lr: f64) -> Self {
        Sgd { lr }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [&mut Tensor<F>], grads: &[&Tensor<F>]) {
        assert_eq!(params.len(), grads.len(), "params/grads length mismatch");
        let lr = self.lr as F;
        for (p, g) in params.iter_mut().zip(grads) {
            assert_eq!(p.len(), g.len(), "param/grad shape mismatch");
            for (pi, &gi) in p.as_mut_slice().iter_mut().zip(g.as_slice()) {
                *pi -= lr * gi;
            }
        }
    }

    fn learning_rate(&self) -> f64 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f64) {
        self.lr = lr;
    }
}

/// Adam (Kingma & Ba 2014), the optimizer the paper uses.
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    m: Vec<Vec<F>>,
    v: Vec<Vec<F>>,
}

impl Adam {
    /// Adam with standard betas (0.9, 0.999) and eps 1e-8.
    pub fn new(lr: f64) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [&mut Tensor<F>], grads: &[&Tensor<F>]) {
        assert_eq!(params.len(), grads.len(), "params/grads length mismatch");
        if self.m.is_empty() {
            self.m = params.iter().map(|p| vec![0.0; p.len()]).collect();
            self.v = params.iter().map(|p| vec![0.0; p.len()]).collect();
        }
        assert_eq!(self.m.len(), params.len(), "optimizer state mismatch");
        self.t += 1;
        let b1 = self.beta1 as F;
        let b2 = self.beta2 as F;
        let eps = self.eps as F;
        // Bias-corrected step size.
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let alpha = (self.lr * bc2.sqrt() / bc1) as F;
        for (((p, g), m), v) in params
            .iter_mut()
            .zip(grads)
            .zip(&mut self.m)
            .zip(&mut self.v)
        {
            assert_eq!(p.len(), g.len(), "param/grad shape mismatch");
            for (((pi, &gi), mi), vi) in p
                .as_mut_slice()
                .iter_mut()
                .zip(g.as_slice())
                .zip(m.iter_mut())
                .zip(v.iter_mut())
            {
                *mi = b1 * *mi + (1.0 - b1) * gi;
                *vi = b2 * *vi + (1.0 - b2) * gi * gi;
                *pi -= alpha * *mi / (vi.sqrt() + eps);
            }
        }
    }

    fn learning_rate(&self) -> f64 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f64) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adarnet_tensor::Shape;

    /// Minimize f(x) = sum(x^2) from x = 1: gradient is 2x.
    fn quadratic_descent(opt: &mut dyn Optimizer, steps: usize) -> f64 {
        let mut x = Tensor::<F>::full(Shape::d1(4), 1.0);
        for _ in 0..steps {
            let g = x.scale(2.0);
            let mut params = [&mut x];
            opt.step(&mut params, &[&g]);
        }
        x.l2_norm()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1);
        assert!(quadratic_descent(&mut opt, 100) < 1e-6);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.05);
        assert!(quadratic_descent(&mut opt, 500) < 1e-3);
    }

    #[test]
    fn adam_first_step_size_is_lr() {
        // With bias correction, the first Adam step moves by ~lr regardless
        // of gradient magnitude.
        let mut opt = Adam::new(0.01);
        let mut x = Tensor::<F>::full(Shape::d1(1), 5.0);
        let g = Tensor::full(Shape::d1(1), 123.0f32);
        let mut params = [&mut x];
        opt.step(&mut params, &[&g]);
        assert!((x.as_slice()[0] - (5.0 - 0.01)).abs() < 1e-4);
    }

    #[test]
    fn learning_rate_is_settable() {
        let mut opt = Adam::new(1e-4);
        assert_eq!(opt.learning_rate(), 1e-4);
        opt.set_learning_rate(5e-5);
        assert_eq!(opt.learning_rate(), 5e-5);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lists_panic() {
        let mut opt = Sgd::new(0.1);
        let mut x = Tensor::<F>::zeros(Shape::d1(2));
        let mut params = [&mut x];
        opt.step(&mut params, &[]);
    }
}
