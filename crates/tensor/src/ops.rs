//! Elementwise operations and reductions over [`Tensor`].
//!
//! Every kernel is one sequential pass on the calling thread;
//! reductions accumulate in `f64` in element order.

use crate::{Element, Tensor};

impl<T: Element> Tensor<T> {
    /// Apply `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(T) -> T + Sync + Send) -> Tensor<T> {
        let mut out = self.clone();
        out.map_inplace(f);
        out
    }

    /// Apply `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(T) -> T + Sync + Send) {
        self.as_mut_slice().iter_mut().for_each(|v| *v = f(*v));
    }

    /// Combine two same-shape tensors elementwise.
    pub fn zip_with(&self, other: &Tensor<T>, f: impl Fn(T, T) -> T + Sync + Send) -> Tensor<T> {
        assert!(
            self.shape().same(other.shape()),
            "zip_with shape mismatch: {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        let mut out = self.clone();
        out.as_mut_slice()
            .iter_mut()
            .zip(other.as_slice().iter())
            .for_each(|(a, &b)| *a = f(*a, b));
        out
    }

    /// Elementwise sum.
    pub fn add(&self, other: &Tensor<T>) -> Tensor<T> {
        self.zip_with(other, |a, b| a + b)
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Tensor<T>) -> Tensor<T> {
        self.zip_with(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, other: &Tensor<T>) -> Tensor<T> {
        self.zip_with(other, |a, b| a * b)
    }

    /// Multiply every element by a scalar.
    pub fn scale(&self, s: T) -> Tensor<T> {
        self.map(move |v| v * s)
    }

    /// `self += alpha * other`, in place (the BLAS `axpy` shape).
    pub fn axpy_inplace(&mut self, alpha: T, other: &Tensor<T>) {
        assert!(
            self.shape().same(other.shape()),
            "axpy shape mismatch: {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        self.as_mut_slice()
            .iter_mut()
            .zip(other.as_slice().iter())
            .for_each(|(a, &b)| *a += alpha * b);
    }

    /// Sum of all elements, accumulated in `f64` for stability.
    pub fn sum(&self) -> f64 {
        self.as_slice().iter().map(|v| v.to_f64()).sum()
    }

    /// Arithmetic mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f64
        }
    }

    /// Largest element. Panics on empty tensors.
    pub fn max_value(&self) -> T {
        assert!(!self.is_empty(), "max of empty tensor");
        self.as_slice()
            .iter()
            .copied()
            .fold(self.as_slice()[0], |a, b| a.max(b))
    }

    /// Smallest element. Panics on empty tensors.
    pub fn min_value(&self) -> T {
        assert!(!self.is_empty(), "min of empty tensor");
        self.as_slice()
            .iter()
            .copied()
            .fold(self.as_slice()[0], |a, b| a.min(b))
    }

    /// Largest absolute value (0 for empty tensors).
    pub fn abs_max(&self) -> f64 {
        self.as_slice()
            .iter()
            .map(|v| v.to_f64().abs())
            .fold(0.0, f64::max)
    }

    /// Euclidean (L2) norm, accumulated in `f64`.
    pub fn l2_norm(&self) -> f64 {
        let ss: f64 = self
            .as_slice()
            .iter()
            .map(|v| {
                let x = v.to_f64();
                x * x
            })
            .sum();
        ss.sqrt()
    }

    /// Mean squared error against a same-shape tensor.
    pub fn mse(&self, other: &Tensor<T>) -> f64 {
        assert!(
            self.shape().same(other.shape()),
            "mse shape mismatch: {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        if self.is_empty() {
            return 0.0;
        }
        let ss: f64 = self
            .as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(a, b)| {
                let d = a.to_f64() - b.to_f64();
                d * d
            })
            .sum();
        ss / self.len() as f64
    }

    /// Dot product with a same-shape tensor, accumulated in `f64`.
    pub fn dot(&self, other: &Tensor<T>) -> f64 {
        assert!(
            self.shape().same(other.shape()),
            "dot shape mismatch: {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        self.as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(a, b)| a.to_f64() * b.to_f64())
            .sum()
    }

    /// Min-max normalize into `[0, 1]`. Constant tensors map to all zeros.
    ///
    /// The paper scales flow variables to `[0, 1]` during training "for
    /// learning stability purposes" (§5.1); this is that transform.
    pub fn minmax_normalized(&self) -> (Tensor<T>, T, T) {
        let lo = self.min_value();
        let hi = self.max_value();
        let span = hi - lo;
        if span == T::ZERO {
            return (Tensor::zeros(self.shape().clone()), lo, hi);
        }
        (self.map(move |v| (v - lo) / span), lo, hi)
    }

    /// Invert [`Tensor::minmax_normalized`] given the recorded bounds.
    pub fn minmax_denormalized(&self, lo: T, hi: T) -> Tensor<T> {
        let span = hi - lo;
        self.map(move |v| v * span + lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Shape;

    fn t(v: Vec<f64>) -> Tensor<f64> {
        let n = v.len();
        Tensor::from_vec(Shape::d1(n), v)
    }

    #[test]
    fn add_sub_mul_scale() {
        let a = t(vec![1.0, 2.0, 3.0]);
        let b = t(vec![4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).as_slice(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn axpy_matches_manual() {
        let mut a = t(vec![1.0, 2.0]);
        a.axpy_inplace(0.5, &t(vec![4.0, 8.0]));
        assert_eq!(a.as_slice(), &[3.0, 6.0]);
    }

    #[test]
    fn reductions() {
        let a = t(vec![3.0, -4.0, 0.0]);
        assert_eq!(a.sum(), -1.0);
        assert!((a.mean() + 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(a.max_value(), 3.0);
        assert_eq!(a.min_value(), -4.0);
        assert_eq!(a.abs_max(), 4.0);
        assert_eq!(a.l2_norm(), 5.0);
    }

    #[test]
    fn mse_and_dot() {
        let a = t(vec![1.0, 2.0]);
        let b = t(vec![3.0, 4.0]);
        assert_eq!(a.mse(&b), 4.0);
        assert_eq!(a.dot(&b), 11.0);
    }

    #[test]
    fn minmax_roundtrip() {
        let a = t(vec![2.0, 4.0, 6.0]);
        let (norm, lo, hi) = a.minmax_normalized();
        assert_eq!(norm.as_slice(), &[0.0, 0.5, 1.0]);
        let back = norm.minmax_denormalized(lo, hi);
        assert_eq!(back.as_slice(), a.as_slice());
    }

    #[test]
    fn minmax_constant_is_zeros() {
        let a = t(vec![5.0, 5.0]);
        let (norm, lo, hi) = a.minmax_normalized();
        assert_eq!(norm.as_slice(), &[0.0, 0.0]);
        assert_eq!((lo, hi), (5.0, 5.0));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn zip_rejects_mismatch() {
        let _ = t(vec![1.0]).add(&t(vec![1.0, 2.0]));
    }
}
