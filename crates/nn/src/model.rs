//! Sequential container over boxed layers, with weight snapshot/restore.

use std::cmp::Reverse;
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
    /// The one-batch case of [`Self::infer_all`]: a rank-4 batch of two
    /// or more items is split over the idle cores.
    pub fn infer(&self, x: &Tensor<F>) -> Tensor<F> {
        self.infer_all(&[x]).swap_remove(0)
    }

    /// [`Self::infer`] of every batch in `xs`, in one split over the
    /// idle cores: the cores no other frozen-stack call holds at this
    /// moment, counted across the process. Returns one pool-backed
    /// output per batch, in order.
    ///
    /// The items of all the batches share the lanes: ordered heaviest
    /// first (cost `(h + 2)(w + 2)` per item), they are cut into
    /// contiguous per-lane runs of near-equal cost, so one large item
    /// gets a lane while the small ones fill the others. Every frozen
    /// layer treats batch items independently, so the output bits do
    /// not depend on the split. A call with one item, or one made while
    /// every core is held (say, by as many serving workers as cores),
    /// runs on the calling thread alone.
    pub fn infer_all(&self, xs: &[&Tensor<F>]) -> Vec<Tensor<F>> {
        let lanes = Lanes::claim(xs.iter().map(|x| units(x)).sum());
        self.infer_lanes(xs, lanes.0)
    }

    /// [`Self::infer_all`] on at most `lanes` lanes.
    ///
    /// The calling thread runs the first run of items and a scoped
    /// thread each other one. Each lane walks its run under one
    /// [`workspace::hold`] (so the pool's high-water mark does not
    /// depend on how the lanes interleave), in chunks of at most
    /// [`CHUNK_PIXELS`] pixels: a held lane keeps every buffer it put
    /// back until the split joins, and the bound keeps those buffers to
    /// a chunk's size classes. Once all lanes have joined, a batch cut
    /// into several chunks is copied into one pooled tensor; a batch run
    /// whole keeps its output as it is. A lane's panic reaches the
    /// caller with its own message.
    fn infer_lanes(&self, xs: &[&Tensor<F>], lanes: usize) -> Vec<Tensor<F>> {
        let work: Vec<_> = xs.iter().map(|x| (units(x), cost(x))).collect();
        let runs = partition(&work, lanes);
        if runs.len() > 1 {
            adarnet_obs::counter!("nn_infer_split_total").inc();
        }
        let lane = |run: &[Segment]| {
            workspace::hold(|| {
                let chunks = run.iter().flat_map(|(batch, items)| {
                    let (h, w) = extent(xs[*batch]);
                    let per_chunk = (CHUNK_PIXELS / (h * w).max(1)).max(1);
                    items
                        .clone()
                        .step_by(per_chunk)
                        .map(move |start| (*batch, start..items.end.min(start + per_chunk)))
                });
                chunks
                    .map(|(batch, items)| {
                        let x = xs[batch];
                        let y = if items.len() == units(x) {
                            self.run(x)
                        } else {
                            let part = x.pooled_items(items.clone());
                            let y = self.run(&part);
                            part.recycle();
                            y
                        };
                        (batch, items, y)
                    })
                    .collect::<Vec<_>>()
            })
        };
        let (parts, held): (Vec<_>, Vec<_>) = thread::scope(|s| {
            let others: Vec<_> = runs[1..].iter().map(|run| s.spawn(|| lane(run))).collect();
            let first = lane(&runs[0]);
            let others = others
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|panic| resume_unwind(panic)));
            std::iter::once(first).chain(others).unzip()
        });
        held.into_iter().for_each(workspace::Held::release);
        let mut outs: Vec<Option<Tensor<F>>> = xs.iter().map(|_| None).collect();
        for (batch, items, y) in parts.into_iter().flatten() {
            let x = xs[batch];
            if items.len() == units(x) {
                outs[batch] = Some(y);
                continue;
            }
            let out = outs[batch].get_or_insert_with(|| {
                let mut dims = y.shape().0.clone();
                dims[0] = x.dim(0);
                Tensor::pooled_scratch(Shape(dims))
            });
            let item = y.len() / items.len();
            out.as_mut_slice()[items.start * item..items.end * item].copy_from_slice(y.as_slice());
            y.recycle();
        }
        // Every batch has at least one unit, so every slot is filled.
        outs.into_iter().flatten().collect()
    }

    /// The layers' chain on one tensor, on the calling thread.
    fn run(&self, x: &Tensor<F>) -> Tensor<F> {
        chain(x, self.layers.iter(), |l, t| l.infer(t))
    }

    /// Total resident frozen-weight bytes across layers.
    pub fn weight_bytes(&self) -> usize {
        self.layers.iter().map(|l| l.weight_bytes()).sum()
    }
}

/// The most pixels a lane runs through the stack at once; a chunk holds
/// at least one item, whatever its extent. At 64 channels, one
/// activation of a full chunk is 1 MiB.
const CHUNK_PIXELS: usize = 4096;

/// The units a split cuts `x` into: its batch items if rank 4, else the
/// whole tensor. A batch of no items is one unit, run whole.
fn units(x: &Tensor<F>) -> usize {
    if x.shape().rank() == 4 {
        x.dim(0).max(1)
    } else {
        1
    }
}

/// The spatial extent of one unit of `x`: `(h, w)` if rank 4, else the
/// whole tensor as one row.
fn extent(x: &Tensor<F>) -> (usize, usize) {
    if x.shape().rank() == 4 {
        (x.dim(2), x.dim(3))
    } else {
        (1, x.len())
    }
}

/// The cost of one unit of `x`: its extent with a one-pixel border, so
/// the per-item overhead of small items counts.
fn cost(x: &Tensor<F>) -> usize {
    let (h, w) = extent(x);
    (h + 2) * (w + 2)
}

/// A stretch of one batch's items: `(batch, items)`.
type Segment = (usize, Range<usize>);

/// Cut the units of `batches`, given as `(units, cost per unit)`, into
/// at most `lanes` runs, one per lane, none empty (one empty run if
/// there are no units). The units are walked heaviest batch first (ties
/// in batch order), each batch's items in order, and each run is a
/// contiguous stretch of that walk. A run ends at the unit boundary
/// whose running cost lies nearest its share of the total, so each
/// run's cost is within one unit of the ideal, and a unit costing more
/// than a share runs alone.
fn partition(batches: &[(usize, usize)], lanes: usize) -> Vec<Vec<Segment>> {
    let mut order: Vec<usize> = (0..batches.len()).collect();
    order.sort_by_key(|&b| Reverse(batches[b].1));
    let units: usize = batches.iter().map(|&(n, _)| n).sum();
    let total: usize = batches.iter().map(|&(n, c)| n * c).sum();
    let lanes = lanes.clamp(1, units.max(1));
    let (mut runs, mut run): (Vec<_>, Vec<Segment>) = (Vec::new(), Vec::new());
    let (mut spent, mut left) = (0, units);
    for b in order {
        let (n, c) = batches[b];
        for item in 0..n {
            // Close the run before this item if that leaves its end
            // nearer its share, or if every later lane needs one of the
            // units left. Distances are scaled by `lanes`, so the
            // comparison stays in integers.
            let lane = runs.len();
            let target = (lane + 1) * total;
            let here = (spent * lanes).abs_diff(target);
            let next = ((spent + c) * lanes).abs_diff(target);
            let must = left < lanes - lane;
            if lane + 1 < lanes && !run.is_empty() && (here <= next || must) {
                runs.push(std::mem::take(&mut run));
            }
            match run.last_mut() {
                Some((last, items)) if *last == b => items.end = item + 1,
                _ => run.push((b, item..item + 1)),
            }
            spent += c;
            left -= 1;
        }
    }
    runs.push(run);
    runs
}

/// Lanes that frozen-stack calls hold across the process right now.
static BUSY: AtomicUsize = AtomicUsize::new(0);

/// The cores this process may run on, read once: on Linux,
/// `available_parallelism` reads the cgroup quota files on every call,
/// and `infer_all` asks on every call.
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

    /// `x` alone through [`FrozenSequential::infer_lanes`] on `lanes` lanes.
    fn one_batch(frozen: &FrozenSequential, x: &Tensor<F>, lanes: usize) -> Tensor<F> {
        frozen.infer_lanes(&[x], lanes).swap_remove(0)
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
                    let one = one_batch(&frozen, &x, 1);
                    for lanes in [2, 3] {
                        let y = one_batch(&frozen, &x, lanes);
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

        // The decoder's four bin extents of 16x16 patches in one call,
        // at width 4 (see above), each batch against its own one-lane
        // chain. Bins 0 and 1 cross a chunk boundary (a chunk holds 16
        // items of 16x16, 4 of 32x32).
        let mut net = decoder(7, [4; 6]);
        let xs = [
            batch(18, 7, 16, 16),
            batch(5, 7, 32, 32),
            batch(2, 7, 64, 64),
            batch(1, 7, 128, 128),
        ];
        let refs: Vec<&Tensor<F>> = xs.iter().collect();
        for device in [Device::CpuScalar, Device::CpuSimd] {
            net.set_device(device);
            let frozen = net.freeze();
            let chains: Vec<_> = xs.iter().map(|x| frozen.run(x)).collect();
            for lanes in [1, 2, 3] {
                let ys = frozen.infer_lanes(&refs, lanes);
                assert_eq!(ys.len(), xs.len());
                for (bin, (y, one)) in ys.into_iter().zip(&chains).enumerate() {
                    assert!(y.shape().same(one.shape()), "bin {bin}: {:?}", y.shape());
                    assert!(
                        bits(&y) == bits(one),
                        "bin {bin} on {device:?}: {lanes} lanes moved a bit"
                    );
                    y.recycle();
                }
            }
            chains.into_iter().for_each(Tensor::recycle);
        }
    }

    /// The walk `partition` cuts: every `(batch, item)`, heaviest batch
    /// first, ties in batch order.
    fn walk(batches: &[(usize, usize)]) -> Vec<(usize, usize)> {
        let mut order: Vec<usize> = (0..batches.len()).collect();
        order.sort_by_key(|&b| Reverse(batches[b].1));
        order
            .into_iter()
            .flat_map(|b| (0..batches[b].0).map(move |i| (b, i)))
            .collect()
    }

    /// Check `partition(batches, lanes)`: runs non-empty and no more
    /// than lanes or units, each run a contiguous stretch of the walk
    /// and together the whole walk once, each run's cost within the
    /// heaviest unit of the ideal share.
    fn check_partition(batches: &[(usize, usize)], lanes: usize) -> Vec<Vec<Segment>> {
        let runs = partition(batches, lanes);
        let units: usize = batches.iter().map(|b| b.0).sum();
        assert_eq!(runs.len(), lanes.clamp(1, units.max(1)), "{batches:?}");
        let flat: Vec<(usize, usize)> = runs
            .iter()
            .flatten()
            .flat_map(|(b, items)| items.clone().map(move |i| (*b, i)))
            .collect();
        assert_eq!(flat, walk(batches), "{batches:?} on {lanes} lanes");
        let total: usize = batches.iter().map(|&(n, c)| n * c).sum();
        let heaviest = batches.iter().filter(|b| b.0 > 0).map(|b| b.1).max();
        for run in &runs {
            assert!(units == 0 || !run.is_empty(), "{batches:?}: empty run");
            let cost: usize = run
                .iter()
                .map(|(b, items)| items.len() * batches[*b].1)
                .sum();
            let off = (cost * runs.len()).abs_diff(total);
            assert!(
                off <= heaviest.unwrap_or(0) * runs.len(),
                "{batches:?} on {lanes} lanes: a run costs {cost} of {total}"
            );
        }
        runs
    }

    #[test]
    fn partition_covers_every_item_once_in_balanced_contiguous_runs() {
        // A field's bin mix in bin order: bin 3's 128x128 patch leads,
        // and bin 2's patches fill its lane up to half the cost.
        let mix = [(48, 18 * 18), (5, 34 * 34), (10, 66 * 66), (1, 130 * 130)];
        assert_eq!(check_partition(&mix, 2)[0], vec![(3, 0..1), (2, 0..6)]);
        assert_eq!(
            check_partition(&mix, 1),
            vec![vec![(3, 0..1), (2, 0..10), (1, 0..5), (0, 0..48)]]
        );
        check_partition(&mix, 3);
        // A lone patch costing more than a lane's share runs alone.
        let lone = [(8, 18 * 18), (2, 34 * 34), (1, 130 * 130)];
        for lanes in [2, 3] {
            assert_eq!(
                check_partition(&lone, lanes)[0],
                vec![(2, 0..1)],
                "{lanes} lanes"
            );
        }
        // Equal items split evenly, a tie ending the run early; a run
        // may end inside a batch.
        assert_eq!(
            check_partition(&[(5, 1)], 2),
            vec![vec![(0, 0..2)], vec![(0, 2..5)]]
        );
        assert_eq!(
            check_partition(&[(2, 1), (2, 1)], 2),
            vec![vec![(0, 0..2)], vec![(1, 0..2)]]
        );
        // More lanes than units: one unit each.
        assert_eq!(
            check_partition(&[(2, 7)], 3),
            vec![vec![(0, 0..1)], vec![(0, 1..2)]]
        );
        assert_eq!(check_partition(&[], 2), vec![vec![]]);
        assert_eq!(check_partition(&[(3, 4)], 0).len(), 1);
        // Heavy units first leave the last lanes one light unit each.
        assert_eq!(
            check_partition(&[(2, 1), (1, 10)], 3),
            vec![vec![(1, 0..1)], vec![(0, 0..1)], vec![(0, 1..2)]]
        );
        // Seeded mixes of up to five batches.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % m) as usize
        };
        for _ in 0..500 {
            let batches: Vec<_> = (0..next(6)).map(|_| (next(20), 1 + next(400))).collect();
            check_partition(&batches, 1 + next(4));
        }
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
