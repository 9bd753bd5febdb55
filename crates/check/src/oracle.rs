//! Sequential shadow models for the serve primitives.
//!
//! Each oracle is a deliberately naive, obviously-correct restatement
//! of one structure's contract. The model-checker suites run every
//! operation against the real structure *and* its oracle in the same
//! linearized order and fail on any divergence — so the oracles are the
//! specification, and the concurrent implementations are checked
//! against it under every explored interleaving.

use std::collections::VecDeque;

/// Shadow outcome of a queue push (mirrors
/// [`adarnet_serve::PushOutcome`] without carrying the item).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelPush {
    /// Accepted into the queue.
    Enqueued,
    /// Full; the caller keeps the item.
    Saturated,
    /// Shut down; the caller keeps the item.
    Rejected,
}

/// Number of priority lanes, mirrored from `adarnet_serve::NUM_LANES`
/// (restated here so the oracle stays a dependency-free spec).
pub const LANES: usize = 3;

/// Naive three-lane weighted-deficit priority queue — the
/// [`adarnet_serve::LaneQueue`] contract, restated independently of
/// `select_lane_spec` so a bug in either the selection rule or the
/// queue's locking shows up as a divergence.
pub struct PriorityQueueModel {
    capacity: usize,
    weights: [i64; LANES],
    lanes: [VecDeque<u64>; LANES],
    credits: [i64; LANES],
    shutdown: bool,
    /// Per-lane accepted values, in acceptance order.
    pub accepted: [Vec<u64>; LANES],
    /// Per-lane popped values, in pop order.
    pub popped: [Vec<u64>; LANES],
}

impl PriorityQueueModel {
    /// Model of a queue whose every lane holds `capacity` items
    /// (clamped to 1) with per-cycle `weights` (each clamped to ≥ 1),
    /// like the real queue.
    pub fn new(capacity: usize, weights: [u64; LANES]) -> PriorityQueueModel {
        PriorityQueueModel {
            capacity: capacity.max(1),
            weights: [
                weights[0].max(1) as i64,
                weights[1].max(1) as i64,
                weights[2].max(1) as i64,
            ],
            lanes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            credits: [0; LANES],
            shutdown: false,
            accepted: [Vec::new(), Vec::new(), Vec::new()],
            popped: [Vec::new(), Vec::new(), Vec::new()],
        }
    }

    /// Spec: reject after shutdown, saturate when *that lane* is at
    /// capacity (lanes are independent), else append to the lane.
    pub fn push(&mut self, lane: usize, value: u64) -> ModelPush {
        if self.shutdown {
            ModelPush::Rejected
        } else if self.lanes[lane].len() >= self.capacity {
            ModelPush::Saturated
        } else {
            self.lanes[lane].push_back(value);
            self.accepted[lane].push(value);
            ModelPush::Enqueued
        }
    }

    /// Spec: the weighted-deficit pickup rule, naively — scan lanes in
    /// priority order for a non-empty lane with positive credit; if no
    /// lane qualifies, refill every credit by its weight (capped at one
    /// cycle's worth) and rescan. `None` iff every lane is empty.
    fn select(&mut self) -> Option<usize> {
        if self.lanes.iter().all(VecDeque::is_empty) {
            return None;
        }
        loop {
            for i in 0..LANES {
                if !self.lanes[i].is_empty() && self.credits[i] > 0 {
                    return Some(i);
                }
            }
            for i in 0..LANES {
                self.credits[i] = (self.credits[i] + self.weights[i]).min(self.weights[i]);
            }
        }
    }

    /// Spec: select a lane, pop its head, charge one credit.
    pub fn try_pop(&mut self) -> Option<(usize, u64)> {
        let lane = self.select()?;
        let value = self.lanes[lane].pop_front()?;
        self.credits[lane] -= 1;
        self.popped[lane].push(value);
        Some((lane, value))
    }

    /// Spec: select a lane, pop min(len, max.max(1)) items *from that
    /// lane only*, charge the whole batch against its credit.
    pub fn try_pop_batch(&mut self, max: usize) -> Option<(usize, Vec<u64>)> {
        let lane = self.select()?;
        let take = self.lanes[lane].len().min(max.max(1));
        let batch: Vec<u64> = self.lanes[lane].drain(..take).collect();
        self.credits[lane] -= batch.len() as i64;
        self.popped[lane].extend_from_slice(&batch);
        Some((lane, batch))
    }

    /// Spec: stop accepting, keep draining.
    pub fn shutdown(&mut self) {
        self.shutdown = true;
    }

    /// Whether shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown
    }

    /// Items queued in one lane.
    pub fn lane_len(&self, lane: usize) -> usize {
        self.lanes[lane].len()
    }

    /// Items queued across all lanes.
    pub fn len(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum()
    }

    /// Whether every lane is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Conservation, per lane: every accepted item popped exactly once,
    /// in FIFO order within its lane, nothing left behind. Call after a
    /// full drain. A lane with accepted items and zero pops would fail
    /// here — starvation is a conservation violation at drain time.
    pub fn check_conservation(&self) -> Result<(), String> {
        for lane in 0..LANES {
            if !self.lanes[lane].is_empty() {
                return Err(format!(
                    "lane {lane}: {} items never drained",
                    self.lanes[lane].len()
                ));
            }
            if self.accepted[lane] != self.popped[lane] {
                return Err(format!(
                    "lane {lane}: accepted {:?} but popped {:?} \
                     (lost, duplicated, or reordered entries)",
                    self.accepted[lane], self.popped[lane]
                ));
            }
        }
        Ok(())
    }
}

/// Nano-tokens per token, mirrored from `adarnet_serve::quota`.
const NANO: u64 = 1_000_000_000;

/// Naive token bucket over a logical clock — the
/// [`adarnet_serve::TokenBucket`] contract, restated with u128
/// arithmetic throughout (no saturation subtleties to share with the
/// real code), plus the conservation ledger.
pub struct QuotaModel {
    rate_per_sec: u64,
    burst: u64,
    /// Current fill, nano-tokens.
    tokens_nano: u128,
    /// Highest clock value seen.
    last_ns: u64,
    /// Clock value at creation (the conservation window's start).
    start_ns: u64,
    /// Tokens granted so far.
    pub granted: u64,
    /// Takes denied so far.
    pub denied: u64,
}

impl QuotaModel {
    /// A bucket that starts full, like the real one (clamps mirror the
    /// real constructor).
    pub fn new(rate_per_sec: u64, burst: u64, now_ns: u64) -> QuotaModel {
        let burst = burst.max(1);
        QuotaModel {
            rate_per_sec: rate_per_sec.max(1),
            burst,
            tokens_nano: burst as u128 * NANO as u128,
            last_ns: now_ns,
            start_ns: now_ns,
            granted: 0,
            denied: 0,
        }
    }

    /// Spec: refill `elapsed × rate` nano-tokens capped at `burst`
    /// (a backwards clock refills nothing), then take one token if a
    /// whole one is available.
    pub fn try_take(&mut self, now_ns: u64) -> bool {
        let elapsed = now_ns.saturating_sub(self.last_ns) as u128;
        self.last_ns = self.last_ns.max(now_ns);
        let cap = self.burst as u128 * NANO as u128;
        self.tokens_nano = (self.tokens_nano + elapsed * self.rate_per_sec as u128).min(cap);
        if self.tokens_nano >= NANO as u128 {
            self.tokens_nano -= NANO as u128;
            self.granted += 1;
            true
        } else {
            self.denied += 1;
            false
        }
    }

    /// Token-bucket conservation: over the bucket's whole life,
    /// `granted ≤ burst + elapsed × rate / 1e9` (+1 for the fractional
    /// token in flight). A bucket violating this is over-admitting.
    pub fn check_conservation(&self) -> Result<(), String> {
        let elapsed = self.last_ns.saturating_sub(self.start_ns) as u128;
        let bound = self.burst as u128 + elapsed * self.rate_per_sec as u128 / NANO as u128 + 1;
        if self.granted as u128 > bound {
            return Err(format!(
                "token bucket over-admitted: granted {} > bound {bound} \
                 (burst {}, rate {}/s, window {elapsed} ns)",
                self.granted, self.burst, self.rate_per_sec
            ));
        }
        Ok(())
    }
}

/// Naive exact-LRU map with hit/miss counters — the
/// [`adarnet_serve::PatchCache`] contract, over small integer keys.
pub struct LruModel {
    capacity: usize,
    /// `(key, value)` in recency order, least recent first.
    entries: Vec<(u64, u64)>,
    /// Lifetime hits.
    pub hits: u64,
    /// Lifetime misses.
    pub misses: u64,
}

impl LruModel {
    /// Model of a cache holding `capacity` entries (0 disables).
    pub fn new(capacity: usize) -> LruModel {
        LruModel {
            capacity,
            entries: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Spec: hit refreshes recency and bumps `hits`; otherwise `misses`.
    pub fn get(&mut self, key: u64) -> Option<u64> {
        if self.capacity == 0 {
            self.misses += 1;
            return None;
        }
        if let Some(pos) = self.entries.iter().position(|&(k, _)| k == key) {
            let entry = self.entries.remove(pos);
            let value = entry.1;
            self.entries.push(entry);
            self.hits += 1;
            Some(value)
        } else {
            self.misses += 1;
            None
        }
    }

    /// Spec: insert/overwrite refreshes recency; evict least-recent
    /// past capacity; no counter changes.
    pub fn insert(&mut self, key: u64, value: u64) {
        if self.capacity == 0 {
            return;
        }
        if let Some(pos) = self.entries.iter().position(|&(k, _)| k == key) {
            self.entries.remove(pos);
        }
        self.entries.push((key, value));
        while self.entries.len() > self.capacity {
            self.entries.remove(0);
        }
    }

    /// Spec: drop everything; counters keep their lifetime values.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the model holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Naive activation history — the [`adarnet_serve::ModelRegistry`]
/// generation contract.
pub struct RegistryModel {
    /// `(generation, name)` of the current active model.
    pub active: Option<(u64, String)>,
    /// Monotone activation counter.
    pub generation: u64,
}

impl RegistryModel {
    /// Model of a registry before any activation.
    pub fn new() -> RegistryModel {
        RegistryModel {
            active: None,
            generation: 0,
        }
    }

    /// Spec: each activation takes the next generation and publishes
    /// atomically.
    pub fn activate(&mut self, name: &str) -> u64 {
        self.generation += 1;
        self.active = Some((self.generation, name.to_string()));
        self.generation
    }
}

impl Default for RegistryModel {
    fn default() -> Self {
        RegistryModel::new()
    }
}

/// Naive tail-sampling history — the
/// [`adarnet_obs::trace::TailSampler`] retention contract, restated as
/// a pure function of the full offer history instead of an incremental
/// displacement loop.
///
/// The spec: after any offer sequence, the sampler retains
///
/// * the last `error_cap` errored offers (oldest first), and
/// * per window of `window` offers, the `slow_cap` largest-`e2e`
///   offers with ties broken toward the *earliest* offer, counting only
///   the largest (again earliest on ties) of the window's offers from
///   each batch — for the current window and the one before it (the
///   shelf), ordered by offer sequence. An offer with no batch is a
///   batch of its own.
///
/// Any order-dependence in the real displacement loop (or a torn
/// window roll) diverges from this fixed point.
pub struct SamplerModel {
    slow_cap: usize,
    error_cap: usize,
    window: u64,
    /// Every offer, in sequence order: `(e2e_ns, error, batch)`.
    pub offered: Vec<(u64, bool, Option<u64>)>,
}

impl SamplerModel {
    /// Model of a sampler with the given caps and window (clamped to
    /// 1, like the real sampler).
    pub fn new(slow_cap: usize, error_cap: usize, window: u64) -> SamplerModel {
        SamplerModel {
            slow_cap: slow_cap.max(1),
            error_cap: error_cap.max(1),
            window: window.max(1),
            offered: Vec::new(),
        }
    }

    /// Spec: remember an offer outside any batch (retention is
    /// derived, not tracked).
    pub fn offer(&mut self, e2e_ns: u64, error: bool) {
        self.offer_in(e2e_ns, error, None);
    }

    /// Spec: remember an offer of micro-batch `batch`.
    pub fn offer_in(&mut self, e2e_ns: u64, error: bool, batch: Option<u64>) {
        self.offered.push((e2e_ns, error, batch));
    }

    /// The offer sequence numbers of one window's expected slow set:
    /// the `slow_cap` largest by `(e2e desc, seq asc)`, in seq order.
    fn slow_of_window(&self, window_id: u64) -> Vec<u64> {
        let lo = window_id * self.window;
        let hi = lo + self.window;
        let in_window: Vec<(u64, u64, Option<u64>)> = self
            .offered
            .iter()
            .enumerate()
            .map(|(i, &(e2e, _, batch))| (i as u64, e2e, batch))
            .filter(|&(seq, _, _)| seq >= lo && seq < hi)
            .collect();
        let rank = |seq: u64, e2e: u64| (std::cmp::Reverse(e2e), seq);
        // Each batch's largest offer of the window, earliest on ties.
        let mut in_window: Vec<(u64, u64)> = in_window
            .iter()
            .filter(|&&(seq, e2e, batch)| {
                batch.is_none()
                    || !in_window
                        .iter()
                        .any(|&(s, e, b)| b == batch && rank(s, e) < rank(seq, e2e))
            })
            .map(|&(seq, e2e, _)| (seq, e2e))
            .collect();
        in_window.sort_by_key(|&(seq, e2e)| (std::cmp::Reverse(e2e), seq));
        let mut kept: Vec<u64> = in_window
            .into_iter()
            .take(self.slow_cap)
            .map(|(seq, _)| seq)
            .collect();
        kept.sort_unstable();
        kept
    }

    /// Expected snapshot as offer sequence numbers: the error ring
    /// (oldest first) followed by the shelf and current windows' slow
    /// sets in offer order.
    pub fn expected(&self) -> Vec<u64> {
        let mut errors: Vec<u64> = self
            .offered
            .iter()
            .enumerate()
            .filter(|(_, &(_, error, _))| error)
            .map(|(i, _)| i as u64)
            .collect();
        if errors.len() > self.error_cap {
            errors.drain(..errors.len() - self.error_cap);
        }
        let mut out = errors;
        if !self.offered.is_empty() {
            let current = (self.offered.len() as u64 - 1) / self.window;
            let mut slow = Vec::new();
            if current > 0 {
                slow.extend(self.slow_of_window(current - 1));
            }
            slow.extend(self.slow_of_window(current));
            slow.sort_unstable();
            out.extend(slow);
        }
        out
    }

    /// Offers made so far.
    pub fn offers(&self) -> u64 {
        self.offered.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_model_evicts_least_recent() {
        let mut c = LruModel::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.get(1), Some(10));
        c.insert(3, 30);
        assert_eq!(c.get(2), None, "2 was least-recent");
        assert_eq!(c.get(3), Some(30));
        assert_eq!((c.hits, c.misses), (2, 1));
    }

    #[test]
    fn lru_model_zero_capacity_disables() {
        let mut c = LruModel::new(0);
        c.insert(1, 10);
        assert_eq!(c.get(1), None);
        assert!(c.is_empty());
        assert_eq!((c.hits, c.misses), (0, 1));
    }

    #[test]
    fn priority_model_matches_the_documented_pop_order() {
        // Same script as the real LaneQueue's unit test: the two
        // restatements of the WRR rule must agree on the exact order.
        let mut q = PriorityQueueModel::new(16, [4, 2, 1]);
        for v in 0..3 {
            assert_eq!(q.push(2, 300 + v), ModelPush::Enqueued);
            assert_eq!(q.push(1, 200 + v), ModelPush::Enqueued);
            assert_eq!(q.push(0, 100 + v), ModelPush::Enqueued);
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.try_pop().map(|(_, v)| v)).collect();
        assert_eq!(order, vec![100, 101, 102, 200, 201, 300, 202, 301, 302]);
        assert!(q.check_conservation().is_ok());
    }

    #[test]
    fn priority_model_never_starves_bulk() {
        let mut q = PriorityQueueModel::new(64, [4, 2, 1]);
        for v in 0..27 {
            q.push((v % 3) as usize, v);
        }
        // Top every lane back up while popping a full backlog window.
        for i in 0..21 {
            let (lane, _) = q.try_pop().expect("backlogged");
            q.push(lane, 1000 + i);
        }
        let served = q.popped.each_ref().map(Vec::len);
        assert!(served[2] >= 2, "bulk starved: {served:?}");
        assert!(served[0] > served[2], "weighting inverted: {served:?}");
    }

    #[test]
    fn priority_model_saturates_per_lane_and_batches_stay_pure() {
        let mut q = PriorityQueueModel::new(1, [4, 2, 1]);
        assert_eq!(q.push(0, 1), ModelPush::Enqueued);
        assert_eq!(q.push(0, 2), ModelPush::Saturated, "lane 0 full");
        assert_eq!(q.push(2, 3), ModelPush::Enqueued, "lanes independent");
        let (lane, batch) = q.try_pop_batch(8).unwrap();
        assert_eq!((lane, batch), (0, vec![1]), "one lane per batch");
        q.shutdown();
        assert_eq!(q.push(1, 4), ModelPush::Rejected);
        let (lane, batch) = q.try_pop_batch(8).unwrap();
        assert_eq!((lane, batch), (2, vec![3]), "shutdown still drains");
        assert!(q.check_conservation().is_ok());
    }

    #[test]
    fn priority_conservation_catches_starvation() {
        let mut q = PriorityQueueModel::new(4, [4, 2, 1]);
        q.push(2, 7);
        assert!(q.check_conservation().is_err(), "undrained lane caught");
    }

    #[test]
    fn quota_model_burst_deny_refill_and_conservation() {
        let mut b = QuotaModel::new(10, 3, 0);
        for _ in 0..3 {
            assert!(b.try_take(0));
        }
        assert!(!b.try_take(0), "burst exhausted");
        assert!(!b.try_take(50_000_000), "half a token is not a token");
        assert!(b.try_take(100_000_000), "one token refilled at 10/s");
        // Backwards clock: tolerated, no refill.
        assert!(!b.try_take(0));
        assert_eq!((b.granted, b.denied), (4, 3));
        assert!(b.check_conservation().is_ok());
    }

    #[test]
    fn quota_conservation_catches_over_admission() {
        let mut b = QuotaModel::new(1, 1, 0);
        // Forge a broken ledger: more grants than the window allows.
        b.granted = 50;
        b.last_ns = NANO; // 1 s window at 1/s: bound is 1 + 1 + 1.
        assert!(b.check_conservation().is_err());
    }

    #[test]
    fn registry_model_generations_are_monotone() {
        let mut r = RegistryModel::new();
        assert_eq!(r.activate("a"), 1);
        assert_eq!(r.activate("b"), 2);
        assert_eq!(r.active, Some((2, "b".to_string())));
    }

    #[test]
    fn sampler_model_keeps_slowest_per_window_and_error_tail() {
        let mut m = SamplerModel::new(2, 2, 100);
        for e2e in [10, 30, 20, 40, 5] {
            m.offer(e2e, false);
        }
        assert_eq!(m.expected(), vec![1, 3], "slowest two, offer order");
        for seq_err in 0..3 {
            m.offer(seq_err, true);
        }
        // Last two errors (seqs 6, 7) + the slow set.
        assert_eq!(m.expected(), vec![6, 7, 1, 3]);
        assert_eq!(m.offers(), 8);
    }

    #[test]
    fn sampler_model_ties_prefer_the_earliest_offer() {
        // Mirrors the real displacement loop's tie-break: a newcomer
        // with equal e2e does not displace an incumbent.
        let mut m = SamplerModel::new(2, 1, 100);
        for e2e in [5, 5, 6, 5] {
            m.offer(e2e, false);
        }
        assert_eq!(m.expected(), vec![0, 2]);
    }

    #[test]
    fn sampler_model_keeps_one_offer_per_batch() {
        let mut m = SamplerModel::new(3, 1, 100);
        for e2e in [190, 193, 191, 193] {
            m.offer_in(e2e, false, Some(7));
        }
        m.offer(40, false);
        m.offer(50, false);
        assert_eq!(m.expected(), vec![1, 4, 5], "batch 7's earliest 193");
    }

    #[test]
    fn sampler_model_window_roll_keeps_the_shelf() {
        let mut m = SamplerModel::new(1, 1, 2);
        m.offer(100, false);
        m.offer(50, false);
        m.offer(7, false); // window 1 begins
        assert_eq!(m.expected(), vec![0, 2], "previous tail + current");
        m.offer(8, false);
        m.offer(9, false); // window 2: window 0 ages out entirely
        assert_eq!(m.expected(), vec![3, 4]);
    }
}
