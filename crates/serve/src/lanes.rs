//! Multi-lane priority queue with weighted-deficit pickup — the front
//! of the serving pipeline: a latency-sensitive small field never waits
//! behind a bulk refinement job, while bulk still makes guaranteed
//! progress.
//!
//! Semantics (the `PriorityQueueModel` oracle in `crates/check`
//! re-states these as a sequential shadow model):
//!
//! * **three lanes** ([`Priority`]): interactive / standard / bulk,
//!   each an independent bounded FIFO with its own capacity; a push
//!   against a full lane saturates ([`PushOutcome::Saturated`]) without
//!   touching the other lanes;
//! * **weighted deficit pickup**: every pop selects a lane by the rule
//!   in [`select_lane_spec`] — scan lanes in priority order and serve
//!   the first *non-empty* lane with positive credit; when no non-empty
//!   lane has credit, refill every lane's credit by its weight (capped
//!   at one cycle's worth for empty lanes, accumulated as debt
//!   repayment otherwise) and rescan. Within any backlogged window,
//!   lane `i` therefore receives `weight[i] / Σ weights` of the pops,
//!   interactive drains its share first (lowest latency), and bulk can
//!   never starve (its weight is ≥ 1 credit per cycle);
//! * **batched popping**: [`LaneQueue::pop_batch`] picks a lane, then
//!   lingers fusing more arrivals *from the same lane* (a micro-batch
//!   never mixes lanes — queue-wait accounting and deadline handling
//!   stay per-lane); the whole batch is charged against the lane's
//!   credit, which may go negative and is repaid over later cycles
//!   (classic deficit round-robin);
//! * **shutdown**: pushes are rejected, queued items drain, poppers
//!   return `None` once every lane is empty.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use adarnet_core::sync;

/// What happened to a pushed item.
#[derive(Debug, PartialEq, Eq)]
pub enum PushOutcome<T> {
    /// The item was queued and will be served.
    Enqueued,
    /// The lane was at capacity; the item comes back to the caller.
    Saturated(T),
    /// The queue is shut down; the item comes back to the caller.
    Rejected(T),
}

impl<T> PushOutcome<T> {
    /// Whether the item was accepted.
    pub fn is_enqueued(&self) -> bool {
        matches!(self, PushOutcome::Enqueued)
    }
}

/// Number of priority lanes.
pub const NUM_LANES: usize = 3;

/// Priority class of a request, highest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Latency-sensitive small fields (a user waiting on a viewport).
    Interactive,
    /// The default class.
    Standard,
    /// Throughput-oriented refinement jobs (multi-bin sweeps, batch
    /// re-meshing) that tolerate queueing.
    Bulk,
}

impl Priority {
    /// All lanes in priority order (the pickup scan order).
    pub const ALL: [Priority; NUM_LANES] =
        [Priority::Interactive, Priority::Standard, Priority::Bulk];

    /// Lane index, 0 = highest priority.
    pub fn index(self) -> usize {
        match self {
            Priority::Interactive => 0,
            Priority::Standard => 1,
            Priority::Bulk => 2,
        }
    }

    /// Inverse of [`Priority::index`] / the wire-protocol class byte.
    pub fn from_index(i: usize) -> Option<Priority> {
        match i {
            0 => Some(Priority::Interactive),
            1 => Some(Priority::Standard),
            2 => Some(Priority::Bulk),
            _ => None,
        }
    }

    /// Lowercase lane name for metrics and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Standard => "standard",
            Priority::Bulk => "bulk",
        }
    }
}

/// The lane-selection rule, shared verbatim by the real queue and the
/// `crates/check` shadow oracle so divergence is detectable: scan lanes
/// in priority order for a non-empty lane with positive credit; if none
/// exists, refill every lane (`credit = min(credit + weight, weight)`)
/// and rescan. Returns `None` when every lane is empty. Terminates
/// because every refill strictly increases any non-positive credit
/// (weights are clamped ≥ 1).
pub fn select_lane_spec(
    lens: [usize; NUM_LANES],
    credits: &mut [i64; NUM_LANES],
    weights: [u64; NUM_LANES],
) -> Option<usize> {
    if lens.iter().all(|&l| l == 0) {
        return None;
    }
    loop {
        for i in 0..NUM_LANES {
            if lens[i] > 0 && credits[i] > 0 {
                return Some(i);
            }
        }
        for i in 0..NUM_LANES {
            let w = weights[i].max(1) as i64;
            credits[i] = (credits[i] + w).min(w);
        }
    }
}

struct Inner<T> {
    lanes: [VecDeque<T>; NUM_LANES],
    credits: [i64; NUM_LANES],
    shutdown: bool,
}

impl<T> Inner<T> {
    fn lens(&self) -> [usize; NUM_LANES] {
        [
            self.lanes[0].len(),
            self.lanes[1].len(),
            self.lanes[2].len(),
        ]
    }
}

/// A bounded three-lane MPMC priority queue with weighted-deficit
/// batched popping.
pub struct LaneQueue<T> {
    /// Per-lane capacity (minimum 1).
    capacity: usize,
    weights: [u64; NUM_LANES],
    inner: Mutex<Inner<T>>,
    notify: Condvar,
}

impl<T> LaneQueue<T> {
    /// Create a queue whose every lane holds at most `capacity` items
    /// (minimum 1), with `weights` credits per refill cycle in priority
    /// order (each clamped to ≥ 1 so no lane can be configured into
    /// starvation).
    pub fn new(capacity: usize, weights: [u64; NUM_LANES]) -> LaneQueue<T> {
        LaneQueue {
            capacity: capacity.max(1),
            weights: [weights[0].max(1), weights[1].max(1), weights[2].max(1)],
            inner: Mutex::new(Inner {
                lanes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                credits: [0; NUM_LANES],
                shutdown: false,
            }),
            notify: Condvar::new(),
        }
    }

    /// Per-lane capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Configured per-cycle credits, in priority order.
    pub fn weights(&self) -> [u64; NUM_LANES] {
        self.weights
    }

    /// Offer one item to `priority`'s lane. Never blocks: a full lane
    /// saturates and a shut-down queue rejects, both returning the item.
    pub fn push(&self, priority: Priority, item: T) -> PushOutcome<T> {
        {
            let mut inner = sync::lock(&self.inner);
            if inner.shutdown {
                return PushOutcome::Rejected(item);
            }
            let lane = &mut inner.lanes[priority.index()];
            if lane.len() >= self.capacity {
                return PushOutcome::Saturated(item);
            }
            lane.push_back(item);
        }
        self.notify.notify_one();
        PushOutcome::Enqueued
    }

    /// Pop one item per the weighted-deficit rule, if any lane is
    /// non-empty (model-checker entry point; the server uses
    /// [`LaneQueue::pop_batch`]).
    pub fn try_pop(&self) -> Option<(Priority, T)> {
        let mut inner = sync::lock(&self.inner);
        let lane = select_lane_spec(inner.lens(), &mut inner.credits, self.weights)?;
        inner.credits[lane] -= 1;
        let item = inner.lanes[lane].pop_front()?;
        Priority::from_index(lane).map(|p| (p, item))
    }

    /// Pop up to `max` immediately-available items from the lane the
    /// weighted-deficit rule selects, charging the whole batch against
    /// that lane's credit. Non-blocking.
    pub fn try_pop_batch(&self, max: usize) -> Option<(Priority, Vec<T>)> {
        let max = max.max(1);
        let mut inner = sync::lock(&self.inner);
        let lane = select_lane_spec(inner.lens(), &mut inner.credits, self.weights)?;
        let take = inner.lanes[lane].len().min(max);
        let batch: Vec<T> = inner.lanes[lane].drain(..take).collect();
        inner.credits[lane] -= batch.len() as i64;
        Priority::from_index(lane).map(|p| (p, batch))
    }

    /// Block until any lane has an item, select a lane, then linger up
    /// to `linger` fusing more arrivals *from that lane* into one batch
    /// of 1..=`max` items. Returns `None` only when the queue is shut
    /// down *and* fully drained.
    pub fn pop_batch(&self, max: usize, linger: Duration) -> Option<(Priority, Vec<T>)> {
        let max = max.max(1);
        let mut inner = sync::lock(&self.inner);
        let lane = loop {
            if let Some(lane) = select_lane_spec(inner.lens(), &mut inner.credits, self.weights) {
                break lane;
            }
            if inner.shutdown {
                return None;
            }
            inner = sync::wait(&self.notify, inner);
        };
        let mut batch = Vec::with_capacity(max.min(inner.lanes[lane].len()));
        if let Some(first) = inner.lanes[lane].pop_front() {
            batch.push(first);
        }
        let deadline = Instant::now() + linger;
        while batch.len() < max {
            if let Some(item) = inner.lanes[lane].pop_front() {
                batch.push(item);
                continue;
            }
            let now = Instant::now();
            if now >= deadline || inner.shutdown {
                break;
            }
            inner = sync::wait_timeout(&self.notify, inner, deadline - now);
        }
        inner.credits[lane] -= batch.len() as i64;
        // Other lanes may still hold work for sibling workers.
        if inner.lens().iter().any(|&l| l > 0) {
            self.notify.notify_one();
        }
        drop(inner);
        Priority::from_index(lane).map(|p| (p, batch))
    }

    /// Stop accepting new items and wake every blocked popper. Queued
    /// items still drain.
    pub fn shutdown(&self) {
        {
            let mut inner = sync::lock(&self.inner);
            inner.shutdown = true;
        }
        self.notify.notify_all();
    }

    /// Whether [`LaneQueue::shutdown`] has been called.
    pub fn is_shutdown(&self) -> bool {
        sync::lock(&self.inner).shutdown
    }

    /// Items queued in `priority`'s lane.
    pub fn lane_len(&self, priority: Priority) -> usize {
        sync::lock(&self.inner).lanes[priority.index()].len()
    }

    /// Items queued across all lanes.
    pub fn len(&self) -> usize {
        sync::lock(&self.inner).lens().iter().sum()
    }

    /// Whether every lane is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: [u64; NUM_LANES] = [4, 2, 1];

    #[test]
    fn priority_order_within_a_refill_cycle() {
        let q = LaneQueue::new(16, W);
        for v in 0..3 {
            assert!(q.push(Priority::Bulk, 300 + v).is_enqueued());
            assert!(q.push(Priority::Standard, 200 + v).is_enqueued());
            assert!(q.push(Priority::Interactive, 100 + v).is_enqueued());
        }
        // One refill cycle: 3 interactive (all queued), then 2 standard
        // (its weight), then... interactive empty, standard out of
        // credit, bulk gets its 1, refill, standard's last, bulk rest.
        let order: Vec<i32> = std::iter::from_fn(|| q.try_pop().map(|(_, v)| v)).collect();
        assert_eq!(order, vec![100, 101, 102, 200, 201, 300, 202, 301, 302]);
    }

    #[test]
    fn bulk_cannot_starve_under_backlog() {
        let q = LaneQueue::new(64, W);
        for v in 0..28 {
            let lane = Priority::ALL[(v % 3) as usize];
            assert!(q.push(lane, v).is_enqueued());
        }
        // Keep all lanes topped up while popping: bulk must still get
        // ~1/7 of the service.
        let mut served = [0usize; NUM_LANES];
        for i in 0..21 {
            let (p, _) = q.try_pop().expect("queue is backlogged");
            served[p.index()] += 1;
            let _ = q.push(p, 1000 + i);
        }
        assert!(served[2] >= 2, "bulk starved: {served:?}");
        assert!(
            served[0] > served[2],
            "priority weighting inverted: {served:?}"
        );
    }

    #[test]
    fn per_lane_capacity_is_independent() {
        let q = LaneQueue::new(1, W);
        assert!(q.push(Priority::Interactive, 1).is_enqueued());
        assert_eq!(q.push(Priority::Interactive, 2), PushOutcome::Saturated(2));
        // A full interactive lane does not block bulk.
        assert!(q.push(Priority::Bulk, 3).is_enqueued());
        assert_eq!(q.lane_len(Priority::Interactive), 1);
        assert_eq!(q.lane_len(Priority::Bulk), 1);
    }

    #[test]
    fn batches_never_mix_lanes() {
        let q = LaneQueue::new(8, W);
        assert!(q.push(Priority::Interactive, 1).is_enqueued());
        assert!(q.push(Priority::Bulk, 2).is_enqueued());
        assert!(q.push(Priority::Interactive, 3).is_enqueued());
        let (p, batch) = q.pop_batch(8, Duration::ZERO).unwrap();
        assert_eq!(p, Priority::Interactive);
        assert_eq!(batch, vec![1, 3]);
        let (p, batch) = q.pop_batch(8, Duration::ZERO).unwrap();
        assert_eq!(p, Priority::Bulk);
        assert_eq!(batch, vec![2]);
    }

    #[test]
    fn shutdown_rejects_new_but_drains_old() {
        let q = LaneQueue::new(4, W);
        assert!(q.push(Priority::Standard, 10).is_enqueued());
        q.shutdown();
        assert_eq!(q.push(Priority::Standard, 11), PushOutcome::Rejected(11));
        assert_eq!(
            q.pop_batch(8, Duration::ZERO),
            Some((Priority::Standard, vec![10]))
        );
        assert_eq!(q.pop_batch(8, Duration::ZERO), None);
    }

    #[test]
    fn pop_batch_wakes_on_cross_thread_push() {
        let q = std::sync::Arc::new(LaneQueue::new(4, W));
        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.pop_batch(4, Duration::from_millis(1)));
        std::thread::sleep(Duration::from_millis(10));
        assert!(q.push(Priority::Bulk, 42).is_enqueued());
        assert_eq!(h.join().expect("popper"), Some((Priority::Bulk, vec![42])));
    }

    #[test]
    fn zero_weights_clamp_to_one() {
        let q: LaneQueue<u32> = LaneQueue::new(4, [0, 0, 0]);
        assert_eq!(q.weights(), [1, 1, 1]);
        assert!(q.push(Priority::Bulk, 7).is_enqueued());
        assert_eq!(q.try_pop(), Some((Priority::Bulk, 7)));
    }
}
