//! Sequential container over boxed layers, with weight snapshot/restore.

use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;

use adarnet_tensor::{workspace, Shape, Tensor};

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
    ///
    /// A rank-4 batch of two or more items is split over the idle
    /// cores: the cores no other frozen-stack call holds at this moment,
    /// counted across the process. Every frozen layer treats batch items
    /// independently, so the output bits do not depend on the split. A
    /// batch of one, or a call made while every core is held (say, by
    /// as many serving workers as cores), runs on the calling thread
    /// alone.
    pub fn infer(&self, x: &Tensor<F>) -> Tensor<F> {
        let lanes = Lanes::claim(items(x));
        self.infer_on(x, lanes.0)
    }

    /// [`Self::infer`] on at most `lanes` lanes.
    ///
    /// The items are split into contiguous ranges of equal size, one per
    /// lane. The calling thread runs the first range and a scoped thread
    /// each other one; each lane copies its items out, runs the chain
    /// under [`workspace::hold`] (so the pool's high-water mark does not
    /// depend on how the lanes interleave), and the calling thread copies
    /// the lanes' outputs into one pooled tensor once all have joined. A
    /// lane's panic reaches the caller with its own message.
    fn infer_on(&self, x: &Tensor<F>, lanes: usize) -> Tensor<F> {
        let run = |x: &Tensor<F>| chain(x, self.layers.iter(), |l, t| l.infer(t));
        let ranges = item_ranges(items(x), lanes);
        if ranges.len() < 2 {
            return run(x);
        }
        adarnet_obs::counter!("nn_infer_split_total").inc();
        let lane = |range: Range<usize>| {
            workspace::hold(|| {
                let part = x.pooled_items(range);
                let y = run(&part);
                part.recycle();
                y
            })
        };
        let (parts, held): (Vec<_>, Vec<_>) = thread::scope(|s| {
            let others: Vec<_> = ranges[1..]
                .iter()
                .map(|range| s.spawn(|| lane(range.clone())))
                .collect();
            let first = lane(ranges[0].clone());
            let others = others
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|panic| resume_unwind(panic)));
            std::iter::once(first).chain(others).unzip()
        });
        held.into_iter().for_each(workspace::Held::release);
        let mut dims = parts[0].shape().0.clone();
        dims[0] = x.dim(0);
        let mut out = Tensor::pooled_scratch(Shape(dims));
        let mut rest = out.as_mut_slice();
        for y in parts {
            let (head, tail) = rest.split_at_mut(y.len());
            head.copy_from_slice(y.as_slice());
            rest = tail;
            y.recycle();
        }
        out
    }

    /// Total resident frozen-weight bytes across layers.
    pub fn weight_bytes(&self) -> usize {
        self.layers.iter().map(|l| l.weight_bytes()).sum()
    }
}

/// The batch items of `x`: its outer extent if rank 4, else one.
fn items(x: &Tensor<F>) -> usize {
    if x.shape().rank() == 4 {
        x.dim(0)
    } else {
        1
    }
}

/// Contiguous item ranges of equal size (the first `items % lanes` one
/// longer), one per lane: `lanes` of them, capped at the item count,
/// none empty.
fn item_ranges(items: usize, lanes: usize) -> Vec<Range<usize>> {
    let lanes = lanes.clamp(1, items.max(1));
    let (size, longer) = (items / lanes, items % lanes);
    let mut start = 0;
    (0..lanes)
        .map(|lane| {
            let end = start + size + usize::from(lane < longer);
            let range = start..end;
            start = end;
            range
        })
        .collect()
}

/// Lanes that frozen-stack calls hold across the process right now.
static BUSY: AtomicUsize = AtomicUsize::new(0);

/// The cores this process may run on, read once: on Linux,
/// `available_parallelism` reads the cgroup quota files on every call,
/// and `infer` asks on every call.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// A frozen-stack call's hold on lanes: up to `want` of the cores no
/// other call holds, and never fewer than one, the calling thread's
/// own. Released on drop, also when the call panics.
struct Lanes(usize);

impl Lanes {
    fn claim(want: usize) -> Lanes {
        let mut got = 1;
        // The closure never returns `None`, so the update always lands.
        let _ = BUSY.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |busy| {
            got = want.min(cores().saturating_sub(busy)).max(1);
            Some(busy + got)
        });
        Lanes(got)
    }
}

impl Drop for Lanes {
    fn drop(&mut self) {
        BUSY.fetch_sub(self.0, Ordering::SeqCst);
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
    use crate::{Activation, Conv2d, ConvTranspose2d, Initializer, MaxPool2d, SpatialSoftmax};

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

    /// ADARNet's decoder (`adarnet_core::decoder`) with output widths
    /// `widths`: three convs, then three deconvs, ReLU between.
    fn decoder(in_channels: usize, widths: [usize; 6]) -> Sequential {
        let he = Initializer::HeNormal;
        let [c1, c2, c3, d1, d2, d3] = widths;
        Sequential::new()
            .push(Conv2d::new(in_channels, c1, 3, he, 0))
            .push(Activation::relu())
            .push(Conv2d::new(c1, c2, 3, he, 1))
            .push(Activation::relu())
            .push(Conv2d::new(c2, c3, 3, he, 2))
            .push(Activation::relu())
            .push(ConvTranspose2d::new(c3, d1, 3, he, 3))
            .push(Activation::relu())
            .push(ConvTranspose2d::new(d1, d2, 3, he, 4))
            .push(Activation::relu())
            .push(ConvTranspose2d::new(
                d2,
                d3,
                3,
                Initializer::XavierUniform,
                5,
            ))
    }

    /// The paper's decoder widths.
    const PAPER: [usize; 6] = [8, 16, 64, 64, 16, 4];

    /// ADARNet's scorer (`adarnet_core::scorer`), body and head in one
    /// stack, for 16x16 patches.
    fn scorer() -> Sequential {
        let he = Initializer::HeNormal;
        Sequential::new()
            .push(Conv2d::new(4, 8, 3, he, 0))
            .push(Activation::relu())
            .push(Conv2d::new(8, 16, 3, he, 1))
            .push(Activation::relu())
            .push(Conv2d::new(16, 16, 3, he, 2))
            .push(Activation::relu())
            .push(Conv2d::new(16, 1, 3, Initializer::XavierUniform, 3))
            .push(MaxPool2d::new(16, 16))
            .push(SpatialSoftmax::new())
    }

    /// A batch of `n` distinct `(c, h, w)` items.
    fn batch(n: usize, c: usize, h: usize, w: usize) -> Tensor<F> {
        let len = n * c * h * w;
        let data = (0..len).map(|i| (i as f32 * 0.37).sin()).collect();
        Tensor::from_vec(Shape::d4(n, c, h, w), data)
    }

    fn bits(t: &Tensor<F>) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn lane_count_does_not_move_a_bit() {
        // (stack, item shape): the decoder at the bin-0 and bin-3
        // extents of 16x16 patches (7 channels: 4 flow, the latent and
        // two coordinates), the scorer on a two-by-two-patch field, and
        // SURFNet's decoder (4 flow + 2 coordinate channels) on an
        // upsampled field. At bin 3's extent the decoder runs at width
        // 4, which keeps its many column panels and this test fast in
        // the debug profile (a paper-width item takes seconds there).
        let cases = [
            ("decoder bin 0", decoder(7, PAPER), (7, 16, 16)),
            ("decoder bin 3", decoder(7, [4; 6]), (7, 128, 128)),
            ("scorer", scorer(), (4, 32, 32)),
            ("surfnet", decoder(6, PAPER), (6, 16, 24)),
        ];
        for (name, mut net, (c, h, w)) in cases {
            for device in [Device::CpuScalar, Device::CpuSimd] {
                net.set_device(device);
                let frozen = net.freeze();
                for n in [1, 2, 3, 5] {
                    let x = batch(n, c, h, w);
                    let one = frozen.infer_on(&x, 1);
                    for lanes in [2, 3] {
                        let y = frozen.infer_on(&x, lanes);
                        assert!(y.shape().same(one.shape()), "{name}: {:?}", y.shape());
                        assert!(
                            bits(&y) == bits(&one),
                            "{name} on {device:?}, {n} items: {lanes} lanes moved a bit"
                        );
                        y.recycle();
                    }
                    one.recycle();
                }
            }
        }
    }

    #[test]
    fn item_ranges_split_evenly_and_cover_every_item_once() {
        assert_eq!(item_ranges(5, 2), vec![0..3, 3..5]);
        assert_eq!(item_ranges(5, 3), vec![0..2, 2..4, 4..5]);
        assert_eq!(item_ranges(2, 3), vec![0..1, 1..2]);
        assert_eq!(item_ranges(1, 2), vec![0..1]);
        assert_eq!(item_ranges(4, 0), vec![0..4]);
        assert_eq!(item_ranges(0, 2), vec![0..0]);
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
