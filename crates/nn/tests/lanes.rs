//! How `FrozenSequential::infer` and `infer_all` share the cores: the
//! items of a call's batches split over the cores no other frozen-stack
//! call holds at that moment, a call releases its lanes when it ends,
//! panics included, and a split call's panic reads as the one-lane
//! path's.
//!
//! The lanes a call ran on are observed directly: a probe layer records
//! the thread of every call it serves, so a one-lane call shows one
//! record, from the calling thread. The busy count is process-wide, so
//! the tests here take one lock, and this file is its own test process.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Barrier, Mutex, MutexGuard, PoisonError};
use std::thread::{self, ThreadId};

use adarnet_nn::{Conv2d, FrozenSequential, InferLayer, Initializer, Layer, Sequential, F};
use adarnet_tensor::{Shape, Tensor};

/// An identity layer that records the thread of every call and, with a
/// gate, parks each call between two waits on it.
#[derive(Clone, Default)]
struct Probe {
    seen: Arc<Mutex<Vec<ThreadId>>>,
    gate: Option<Arc<Barrier>>,
}

impl Probe {
    fn stack(&self) -> FrozenSequential {
        Sequential::new().push(self.clone()).freeze()
    }

    fn take_seen(&self) -> Vec<ThreadId> {
        std::mem::take(&mut *self.seen.lock().unwrap())
    }
}

impl InferLayer for Probe {
    fn name(&self) -> String {
        "Probe".into()
    }

    fn infer(&self, x: &Tensor<F>) -> Tensor<F> {
        self.seen.lock().unwrap().push(thread::current().id());
        if let Some(gate) = &self.gate {
            gate.wait();
            gate.wait();
        }
        x.pooled_copy()
    }
}

impl Layer for Probe {
    fn name(&self) -> String {
        "Probe".into()
    }

    fn forward(&mut self, x: &Tensor<F>) -> Tensor<F> {
        InferLayer::infer(self, x)
    }

    fn backward(&mut self, grad_out: &Tensor<F>) -> Tensor<F> {
        grad_out.pooled_copy()
    }

    fn freeze(&self) -> Box<dyn InferLayer> {
        Box::new(self.clone())
    }
}

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn cores() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

fn splits() -> u64 {
    adarnet_obs::counter!("nn_infer_split_total").value()
}

fn batch(n: usize, c: usize) -> Tensor<F> {
    Tensor::full(Shape::d4(n, c, 4, 4), 0.5)
}

/// The lanes `probe`'s stack ran a batch of two on: one record per lane.
fn lanes_for_two(probe: &Probe) -> Vec<ThreadId> {
    probe.stack().infer(&batch(2, 1)).recycle();
    probe.take_seen()
}

/// The lanes `probe`'s stack ran two batches of two in one call on: one
/// record per lane and batch, as each lane's run holds whole batches.
fn lanes_for_two_batches(probe: &Probe) -> Vec<ThreadId> {
    let (a, b) = (batch(2, 1), batch(2, 1));
    for y in probe.stack().infer_all(&[&a, &b]) {
        y.recycle();
    }
    probe.take_seen()
}

#[test]
fn a_batch_splits_only_over_idle_cores() {
    let _g = serial();
    let probe = Probe::default();
    let me = thread::current().id();

    // Hold every core: one parked one-item call per core.
    let gate = Arc::new(Barrier::new(cores() + 1));
    let parked = Probe {
        gate: Some(gate.clone()),
        ..Probe::default()
    };
    let holders: Vec<_> = (0..cores())
        .map(|_| {
            let parked = parked.stack();
            thread::spawn(move || parked.infer(&batch(1, 1)).recycle())
        })
        .collect();
    gate.wait();
    let before = splits();
    assert_eq!(lanes_for_two(&probe), vec![me], "every core is held");
    assert_eq!(splits(), before, "a one-lane call is not a split");
    let seen = lanes_for_two_batches(&probe);
    assert_eq!(seen, vec![me, me], "every core is held");
    assert_eq!(splits(), before, "a one-lane call is not a split");
    gate.wait();
    for holder in holders {
        holder.join().unwrap();
    }

    // Released, the batch takes two lanes: this thread and one more.
    let seen = lanes_for_two(&probe);
    assert_eq!(seen.len(), cores().min(2), "{seen:?}");
    assert!(seen.contains(&me));
    if seen.len() == 2 {
        assert_ne!(seen[0], seen[1]);
        assert_eq!(splits(), before + 1);
    }

    // Two batches in one call take two lanes and count one split.
    let mut seen = lanes_for_two_batches(&probe);
    assert!(seen.contains(&me));
    seen.dedup();
    assert_eq!(seen.len(), cores().min(2), "{seen:?}");
    if seen.len() == 2 {
        assert_ne!(seen[0], seen[1]);
        assert_eq!(splits(), before + 2, "one split per call, not per batch");
    }
}

#[test]
fn a_split_panics_as_one_lane_does_and_releases_its_lanes() {
    let _g = serial();
    let conv = Sequential::new()
        .push(Conv2d::new(3, 2, 3, Initializer::XavierUniform, 0))
        .freeze();
    // The message of the panic `xs` raise in one call.
    let message = |xs: &[&Tensor<F>]| {
        let panic = catch_unwind(AssertUnwindSafe(|| conv.infer_all(xs)))
            .expect_err("a channel mismatch must panic");
        match panic.downcast::<String>() {
            Ok(s) => *s,
            Err(panic) => panic.downcast::<&str>().map(|s| s.to_string()).unwrap(),
        }
    };
    let one_lane = message(&[&batch(1, 5)]);
    assert!(one_lane.contains("input has 5 channels"), "{one_lane}");
    assert_eq!(message(&[&batch(2, 5)]), one_lane);
    // A call over two batches, the second one bad, panics alike.
    assert_eq!(message(&[&batch(2, 3), &batch(2, 5)]), one_lane);

    // The panicked split released its lanes: the next call splits.
    let seen = lanes_for_two(&Probe::default());
    assert_eq!(seen.len(), cores().min(2), "{seen:?}");
}
