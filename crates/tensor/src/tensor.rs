//! The dense row-major tensor type.

use std::ops::Range;

use serde::{field, object, DeError, Deserialize, Serialize, Value};

use crate::{workspace, Element, Shape};

/// A dense, row-major, dynamically-shaped tensor.
///
/// Layout is contiguous; 4-D tensors follow NCHW (batch, channel, row,
/// column). Cloning is a deep copy. All construction validates that the
/// data length matches the shape.
///
/// ```
/// use adarnet_tensor::{Shape, Tensor};
///
/// let lr = Tensor::<f32>::zeros(Shape::d3(4, 64, 256)); // U, V, p, nuTilda
/// let patches = lr.split_patches(16, 16);
/// assert_eq!(patches.len(), 64); // the paper's patch count
/// ```
#[derive(PartialEq)]
pub struct Tensor<T: Element> {
    shape: Shape,
    data: Vec<T>,
}

/// `Clone` is implemented by hand (not derived) so every deep copy of a
/// tensor's backing buffer reports through the data-plane allocation
/// counter in [`crate::workspace`]. Zero-alloc tests rely on this: a
/// stray `.clone()` on the inference hot path shows up as a counter
/// bump, not a silent slowdown.
impl<T: Element> Clone for Tensor<T> {
    fn clone(&self) -> Self {
        if !self.data.is_empty() {
            workspace::note_data_alloc();
        }
        Tensor {
            shape: self.shape.clone(),
            data: self.data.clone(),
        }
    }
}

/// A tensor persists as `{"shape":[..],"data":[..]}`.
impl<T: Element + Serialize> Serialize for Tensor<T> {
    fn to_value(&self) -> Value {
        object([
            ("shape", self.shape.to_value()),
            ("data", self.data.to_value()),
        ])
    }
}

/// Decoding keeps the construction invariant: data whose length does not
/// match the shape is a [`DeError`], not a tensor.
impl<T: Element + Deserialize> Deserialize for Tensor<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let shape: Shape = field(value, "shape", "Tensor")?;
        let data: Vec<T> = field(value, "data", "Tensor")?;
        if data.len() != shape.numel() {
            return Err(DeError::new(format!(
                "Tensor data has {} elements, shape {shape:?} needs {}",
                data.len(),
                shape.numel()
            )));
        }
        Ok(Tensor { shape, data })
    }
}

impl<T: Element> Tensor<T> {
    /// A tensor of zeros with the given shape.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        if n > 0 {
            workspace::note_data_alloc();
        }
        Tensor {
            shape,
            data: vec![T::ZERO; n],
        }
    }

    /// A tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: T) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        if n > 0 {
            workspace::note_data_alloc();
        }
        Tensor {
            shape,
            data: vec![value; n],
        }
    }

    /// Wrap an existing buffer. Panics if `data.len() != shape.numel()`.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<T>) -> Self {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.numel(),
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Tensor { shape, data }
    }

    /// Build a rank-2 tensor from a closure over `(row, col)`.
    pub fn from_fn_2d(h: usize, w: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        workspace::note_data_alloc();
        let mut data = Vec::with_capacity(h * w);
        for y in 0..h {
            for x in 0..w {
                data.push(f(y, x));
            }
        }
        Tensor::from_vec(Shape::d2(h, w), data)
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Extent along axis `i`.
    pub fn dim(&self, i: usize) -> usize {
        self.shape.dim(i)
    }

    /// Immutable view of the backing buffer (row-major).
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable view of the backing buffer (row-major).
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Element at a multi-index.
    #[inline]
    pub fn at(&self, idx: &[usize]) -> T {
        self.data[self.shape.offset(idx)]
    }

    /// Set the element at a multi-index.
    #[inline]
    pub fn set(&mut self, idx: &[usize], v: T) {
        let off = self.shape.offset(idx);
        self.data[off] = v;
    }

    /// Rank-3 accessor `(channel, row, col)`.
    #[inline]
    pub fn get3(&self, c: usize, y: usize, x: usize) -> T {
        debug_assert_eq!(self.shape.rank(), 3);
        let (h, w) = (self.shape.dim(1), self.shape.dim(2));
        self.data[(c * h + y) * w + x]
    }

    /// Rank-3 setter `(channel, row, col)`.
    #[inline]
    pub fn set3(&mut self, c: usize, y: usize, x: usize, v: T) {
        debug_assert_eq!(self.shape.rank(), 3);
        let (h, w) = (self.shape.dim(1), self.shape.dim(2));
        self.data[(c * h + y) * w + x] = v;
    }

    /// Rank-4 accessor `(batch, channel, row, col)`.
    #[inline]
    pub fn get4(&self, n: usize, c: usize, y: usize, x: usize) -> T {
        debug_assert_eq!(self.shape.rank(), 4);
        let (ch, h, w) = (self.shape.dim(1), self.shape.dim(2), self.shape.dim(3));
        self.data[((n * ch + c) * h + y) * w + x]
    }

    /// Rank-4 setter `(batch, channel, row, col)`.
    #[inline]
    pub fn set4(&mut self, n: usize, c: usize, y: usize, x: usize, v: T) {
        debug_assert_eq!(self.shape.rank(), 4);
        let (ch, h, w) = (self.shape.dim(1), self.shape.dim(2), self.shape.dim(3));
        self.data[((n * ch + c) * h + y) * w + x] = v;
    }

    /// Reinterpret with a new shape of identical element count.
    pub fn reshape(mut self, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert_eq!(
            shape.numel(),
            self.data.len(),
            "reshape to {:?} changes element count",
            shape
        );
        self.shape = shape;
        self
    }

    /// Borrow one image (channel plane set) of a rank-4 tensor as a rank-3
    /// tensor copy.
    pub fn image(&self, n: usize) -> Tensor<T> {
        assert_eq!(self.shape.rank(), 4);
        let (ch, h, w) = (self.shape.dim(1), self.shape.dim(2), self.shape.dim(3));
        let plane = ch * h * w;
        workspace::note_data_alloc();
        Tensor::from_vec(
            Shape::d3(ch, h, w),
            self.data[n * plane..(n + 1) * plane].to_vec(),
        )
    }

    /// Borrow one channel plane of a rank-3 tensor as a rank-2 tensor copy.
    pub fn channel(&self, c: usize) -> Tensor<T> {
        assert_eq!(self.shape.rank(), 3);
        let (h, w) = (self.shape.dim(1), self.shape.dim(2));
        let plane = h * w;
        workspace::note_data_alloc();
        Tensor::from_vec(
            Shape::d2(h, w),
            self.data[c * plane..(c + 1) * plane].to_vec(),
        )
    }

    /// Stack rank-3 tensors of identical shape into a rank-4 batch.
    pub fn stack(images: &[Tensor<T>]) -> Tensor<T> {
        assert!(!images.is_empty(), "cannot stack an empty list");
        let s0 = images[0].shape().clone();
        assert_eq!(s0.rank(), 3, "stack expects rank-3 inputs");
        workspace::note_data_alloc();
        let mut data = Vec::with_capacity(images.len() * s0.numel());
        for im in images {
            assert!(im.shape().same(&s0), "stack shape mismatch");
            data.extend_from_slice(im.as_slice());
        }
        Tensor::from_vec(
            Shape::d4(images.len(), s0.dim(0), s0.dim(1), s0.dim(2)),
            data,
        )
    }

    /// True if every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

/// Workspace-pooled construction for the `f32` hot path.
///
/// These are the allocation-free counterparts of [`Tensor::zeros`],
/// [`Tensor::stack`], [`Tensor::image`] and `clone`: the backing buffer
/// comes from the process-wide size-classed pool in
/// [`crate::workspace`] and goes back via [`Tensor::recycle`]. After a
/// short warmup the pool is populated and steady-state use performs no
/// heap allocation (asserted by the zero-alloc tests in
/// `adarnet-core`).
impl Tensor<f32> {
    /// A pooled tensor of zeros.
    pub fn pooled_zeroed(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let data = workspace::take_zeroed(shape.numel());
        Tensor { shape, data }
    }

    /// A pooled tensor with *unspecified* contents (stale pool data on
    /// a hit). Use only when every element will be overwritten.
    pub fn pooled_scratch(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let data = workspace::take_scratch(shape.numel());
        Tensor { shape, data }
    }

    /// A pooled deep copy (the zero-alloc `clone`).
    pub fn pooled_copy(&self) -> Self {
        let mut data = workspace::take_scratch(self.data.len());
        data.copy_from_slice(&self.data);
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// Pooled [`Tensor::stack`]: rank-3 tensors of identical shape into
    /// a rank-4 batch, buffer drawn from the workspace.
    pub fn pooled_stack(images: &[Tensor<f32>]) -> Tensor<f32> {
        assert!(!images.is_empty(), "cannot stack an empty list");
        let s0 = images[0].shape().clone();
        assert_eq!(s0.rank(), 3, "stack expects rank-3 inputs");
        let plane = s0.numel();
        let mut data = workspace::take_scratch(images.len() * plane);
        for (im, dst) in images.iter().zip(data.chunks_exact_mut(plane)) {
            assert!(im.shape().same(&s0), "stack shape mismatch");
            dst.copy_from_slice(im.as_slice());
        }
        Tensor {
            shape: Shape::d4(images.len(), s0.dim(0), s0.dim(1), s0.dim(2)),
            data,
        }
    }

    /// Pooled [`Tensor::image`]: copy batch item `n` of a rank-4 tensor
    /// into a pooled rank-3 tensor.
    pub fn pooled_image(&self, n: usize) -> Tensor<f32> {
        assert_eq!(self.shape.rank(), 4);
        let (ch, h, w) = (self.shape.dim(1), self.shape.dim(2), self.shape.dim(3));
        let plane = ch * h * w;
        let mut data = workspace::take_scratch(plane);
        data.copy_from_slice(&self.data[n * plane..(n + 1) * plane]);
        Tensor {
            shape: Shape::d3(ch, h, w),
            data,
        }
    }

    /// Copy items `range` of the outermost axis (the batch of a rank-4
    /// tensor) into a pooled tensor of the same trailing shape.
    pub fn pooled_items(&self, range: Range<usize>) -> Tensor<f32> {
        let mut dims = self.shape.0.clone();
        assert!(
            !dims.is_empty() && range.start <= range.end && range.end <= dims[0],
            "items {range:?} out of {:?}",
            self.shape
        );
        let item = self.data.len() / dims[0].max(1);
        dims[0] = range.len();
        let mut data = workspace::take_scratch(range.len() * item);
        data.copy_from_slice(&self.data[range.start * item..range.end * item]);
        Tensor {
            shape: Shape(dims),
            data,
        }
    }

    /// Return this tensor's backing buffer to the workspace pool.
    ///
    /// Safe to call on any `f32` tensor, pooled or not — recycling a
    /// conventionally-allocated tensor simply donates its buffer.
    pub fn recycle(self) {
        workspace::put(self.data);
    }
}

impl<T: Element> std::fmt::Debug for Tensor<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{:?}(n={})", self.shape, self.data.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_full() {
        let t = Tensor::<f32>::zeros(Shape::d2(3, 4));
        assert_eq!(t.len(), 12);
        assert!(t.as_slice().iter().all(|&v| v == 0.0));
        let u = Tensor::<f64>::full(Shape::d1(5), 2.5);
        assert!(u.as_slice().iter().all(|&v| v == 2.5));
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_length_checked() {
        let _ = Tensor::<f32>::from_vec(Shape::d2(2, 2), vec![1.0; 3]);
    }

    #[test]
    fn decoding_keeps_the_length_invariant() {
        let t = Tensor::<f32>::from_vec(Shape::d2(2, 2), vec![1.0, -2.5, 0.0, 3.0]);
        assert_eq!(Tensor::from_value(&t.to_value()), Ok(t));
        // `{"shape":[2,2],"data":[1.0]}`
        let short = object([
            ("shape", Shape::d2(2, 2).to_value()),
            ("data", vec![1.0f32].to_value()),
        ]);
        let err = Tensor::<f32>::from_value(&short).unwrap_err();
        assert_eq!(
            err.message(),
            "Tensor data has 1 elements, shape [2x2] needs 4"
        );
    }

    #[test]
    fn indexing_roundtrip_rank4() {
        let mut t = Tensor::<f32>::zeros(Shape::d4(2, 3, 4, 5));
        t.set4(1, 2, 3, 4, 7.0);
        assert_eq!(t.get4(1, 2, 3, 4), 7.0);
        assert_eq!(t.at(&[1, 2, 3, 4]), 7.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(Shape::d2(2, 3), vec![1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let r = t.clone().reshape(Shape::d1(6));
        assert_eq!(r.as_slice(), t.as_slice());
    }

    #[test]
    #[should_panic(expected = "changes element count")]
    fn reshape_rejects_bad_count() {
        let _ = Tensor::<f32>::zeros(Shape::d2(2, 3)).reshape(Shape::d1(5));
    }

    #[test]
    fn stack_and_image_roundtrip() {
        let a = Tensor::from_fn_2d(2, 2, |y, x| (y * 2 + x) as f32).reshape(Shape::d3(1, 2, 2));
        let b =
            Tensor::from_fn_2d(2, 2, |y, x| (10 + y * 2 + x) as f32).reshape(Shape::d3(1, 2, 2));
        let s = Tensor::stack(&[a.clone(), b.clone()]);
        assert_eq!(s.shape(), &Shape::d4(2, 1, 2, 2));
        assert_eq!(s.image(0), a);
        assert_eq!(s.image(1), b);
    }

    #[test]
    fn channel_extraction() {
        let mut t = Tensor::<f64>::zeros(Shape::d3(2, 2, 2));
        t.set3(1, 0, 1, 9.0);
        let c1 = t.channel(1);
        assert_eq!(c1.as_slice()[1], 9.0); // (row 0, col 1)
        assert_eq!(c1.shape(), &Shape::d2(2, 2));
    }

    #[test]
    fn pooled_constructors_roundtrip() {
        let _g = crate::workspace::TEST_POOL_LOCK
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let z = Tensor::<f32>::pooled_zeroed(Shape::d2(4, 4));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let c = z.pooled_copy();
        assert_eq!(c, z);
        z.recycle();
        c.recycle();
        // A fresh pooled tensor of the same class reuses the buffer and
        // must not read back stale data when zeroed.
        let mut s = Tensor::<f32>::pooled_scratch(Shape::d2(4, 4));
        s.as_mut_slice().fill(7.0);
        s.recycle();
        let z2 = Tensor::<f32>::pooled_zeroed(Shape::d2(4, 4));
        assert!(z2.as_slice().iter().all(|&v| v == 0.0));
        z2.recycle();
    }

    #[test]
    fn pooled_stack_and_image_match_plain() {
        let _g = crate::workspace::TEST_POOL_LOCK
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let a = Tensor::from_fn_2d(2, 3, |y, x| (y * 3 + x) as f32).reshape(Shape::d3(1, 2, 3));
        let b = Tensor::from_fn_2d(2, 3, |y, x| -((y * 3 + x) as f32)).reshape(Shape::d3(1, 2, 3));
        let plain = Tensor::stack(&[a.clone(), b.clone()]);
        let pooled = Tensor::pooled_stack(&[a, b]);
        assert_eq!(plain, pooled);
        assert_eq!(plain.image(1), pooled.pooled_image(1));
        pooled.recycle();
    }

    #[test]
    fn pooled_items_copies_a_contiguous_item_range() {
        let _g = crate::workspace::TEST_POOL_LOCK
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let images: Vec<Tensor<f32>> = (0..5)
            .map(|n| Tensor::full(Shape::d3(2, 1, 3), n as f32))
            .collect();
        let batch = Tensor::stack(&images);
        let mid = batch.pooled_items(1..4);
        assert_eq!(mid, Tensor::stack(&images[1..4]));
        assert_eq!(batch.pooled_items(2..2).shape(), &Shape::d4(0, 2, 1, 3));
        mid.recycle();
    }

    #[test]
    fn clone_reports_data_alloc() {
        let t = Tensor::<f32>::zeros(Shape::d2(8, 8));
        let before = crate::workspace::data_allocs();
        let u = t.clone();
        assert!(
            crate::workspace::data_allocs() > before,
            "deep clone must bump the data-plane counter"
        );
        assert_eq!(u, t);
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut t = Tensor::<f32>::zeros(Shape::d1(4));
        assert!(t.all_finite());
        t.as_mut_slice()[2] = f32::NAN;
        assert!(!t.all_finite());
    }
}
