//! Model-checking suites: the serve primitives driven against their
//! [`crate::oracle`] shadow models under explored interleavings.
//!
//! Each suite builds a handful of scenarios (small enough for
//! bounded-exhaustive enumeration, larger ones for seeded-random
//! sampling) and reports the merged result. The invariants, per
//! structure:
//!
//! * **cache** — lookups, LRU eviction order, and the hit/miss
//!   counters match an exact sequential LRU at every step;
//! * **registry** — activation generations are exactly the linearized
//!   activation count, the published active model is always a
//!   `(generation, name)` pair the model predicts, and the active
//!   checkpoint's weights are always *uniform* — a mixed-constant
//!   tensor would mean a torn (half-swapped) checkpoint; the shared
//!   frozen engine additionally satisfies one-`Arc`-per-generation
//!   identity, and an engine held across a hot swap (an in-flight
//!   batch) keeps the *old* generation's weights bit-for-bit;
//! * **lanes** — the three-lane weighted-deficit queue's push outcomes
//!   (per-lane saturation, shutdown rejection), the lane every pop
//!   selects, per-lane FIFO order, batch lane-purity, and drain-time
//!   conservation (every accepted entry comes out exactly once —
//!   patch-count conservation starts here — so a starved lane is a
//!   conservation violation) all match the naive `PriorityQueueModel`
//!   restatement of the pickup rule at every step;
//! * **quota** — per-tenant token buckets match the `QuotaModel`
//!   admit/deny decisions under a logical clock (including
//!   non-monotonic interleavings), and every tenant's grants respect
//!   the conservation bound `granted ≤ burst + elapsed × rate`;
//! * **trace** — the trace arena's start/begin/commit/finish lifecycle
//!   matches the flat `TraceModel` restatement (admission iff below
//!   capacity with a fresh id, dense span ids, budget drops, laggard
//!   commits after finish never landing in a successor trace, finished
//!   trees containing only committed spans), and the tail sampler's
//!   retained set sits at the `SamplerModel` fixed point (slowest-N
//!   per window with earliest-wins ties, newest-wins error ring) after
//!   every offer.

use std::sync::Arc;
use std::time::Duration;

use adarnet_core::checkpoint::{ModelCheckpoint, CHECKPOINT_VERSION};
use adarnet_core::engine::InferenceEngine;
use adarnet_core::loss::NormStats;
use adarnet_core::network::{AdarNet, AdarNetConfig};
use adarnet_serve::{
    LaneQueue, ModelRegistry, PatchCache, PatchKey, Precision, Priority, PushOutcome, QuotaConfig,
    QuotaTable,
};
use adarnet_tensor::{Shape, Tensor};

use adarnet_obs::trace::{PendingSpan, TailSampler, TraceArena, TraceCtx};

use crate::dpor::Footprint;
use crate::oracle::{
    LruModel, ModelPush, ModelSpan, PriorityQueueModel, QuotaModel, RegistryModel, SamplerModel,
    TraceModel,
};
use crate::sched::{Explorer, Mode, Scenario, SuiteStats};

/// Exploration effort: `Full` is the CI gate (≥ 10k interleavings),
/// `Small` the SKIP_SLOW smoke budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    /// Full bounded-exhaustive + random budget.
    Full,
    /// Reduced smoke budget for fast iteration.
    Small,
}

// ---------------------------------------------------------------------
// Lane suite
// ---------------------------------------------------------------------

/// One scripted lane-queue operation.
#[derive(Debug, Clone, Copy)]
pub enum LaneOp {
    /// `push(lane, value)` (lane 0 = interactive .. 2 = bulk).
    Push(usize, u64),
    /// `try_pop()`.
    TryPop,
    /// `try_pop_batch(max)`.
    TryPopBatch(usize),
    /// `pop_batch(max, 0)` — skipped when it would block (all lanes
    /// empty, not shut down) since the checker owns the only thread.
    PopBatch(usize),
    /// `shutdown()`.
    Shutdown,
}

/// Threads of lane ops over one shared [`LaneQueue`].
pub struct LaneScenario {
    /// Per-lane capacity under test.
    pub capacity: usize,
    /// Per-cycle lane credits under test.
    pub weights: [u64; 3],
    /// Per-thread op scripts.
    pub scripts: Vec<Vec<LaneOp>>,
}

/// Real lane queue + shadow model for one interleaving.
pub struct LaneState {
    real: LaneQueue<u64>,
    model: PriorityQueueModel,
}

impl LaneState {
    fn lens_diverged(&self) -> Option<String> {
        for lane in 0..3 {
            let p = Priority::from_index(lane)?;
            if self.real.lane_len(p) != self.model.lane_len(lane) {
                return Some(format!(
                    "lane {lane} len diverged: real {} vs spec {}",
                    self.real.lane_len(p),
                    self.model.lane_len(lane)
                ));
            }
        }
        None
    }
}

impl Scenario for LaneScenario {
    type State = LaneState;

    fn name(&self) -> &'static str {
        "serve::lanes"
    }

    fn thread_ops(&self) -> Vec<usize> {
        self.scripts.iter().map(Vec::len).collect()
    }

    fn init(&self) -> LaneState {
        LaneState {
            real: LaneQueue::new(self.capacity, self.weights),
            model: PriorityQueueModel::new(self.capacity, self.weights),
        }
    }

    fn step(&self, state: &mut LaneState, thread: usize, op: usize) -> Result<(), String> {
        let Some(op) = self.scripts.get(thread).and_then(|s| s.get(op)).copied() else {
            return Err(format!("no op {op} for thread {thread} (bad script)"));
        };
        match op {
            LaneOp::Push(lane, value) => {
                let Some(p) = Priority::from_index(lane) else {
                    return Err(format!("script lane {lane} out of range"));
                };
                let real = state.real.push(p, value);
                let model = state.model.push(lane, value);
                let real_kind = match real {
                    PushOutcome::Enqueued => ModelPush::Enqueued,
                    PushOutcome::Saturated(v) if v == value => ModelPush::Saturated,
                    PushOutcome::Rejected(v) if v == value => ModelPush::Rejected,
                    PushOutcome::Saturated(v) | PushOutcome::Rejected(v) => {
                        return Err(format!("push({lane}, {value}) handed back wrong item {v}"))
                    }
                };
                if real_kind != model {
                    return Err(format!(
                        "push({lane}, {value}): real {real_kind:?} but spec says {model:?}"
                    ));
                }
            }
            LaneOp::TryPop => {
                let real = state.real.try_pop().map(|(p, v)| (p.index(), v));
                let model = state.model.try_pop();
                if real != model {
                    return Err(format!(
                        "try_pop: real {real:?} but spec says {model:?} \
                         (wrong lane selected or wrong item)"
                    ));
                }
            }
            LaneOp::TryPopBatch(max) => {
                let real = state.real.try_pop_batch(max).map(|(p, b)| (p.index(), b));
                let model = state.model.try_pop_batch(max);
                if real != model {
                    return Err(format!(
                        "try_pop_batch({max}): real {real:?} but spec says {model:?}"
                    ));
                }
            }
            LaneOp::PopBatch(max) => {
                if state.model.is_empty() && !state.model.is_shutdown() {
                    // Would block with no co-runner to wake it; the
                    // blocking path is exercised by the queue's own
                    // cross-thread unit test.
                    return Ok(());
                }
                let real = state
                    .real
                    .pop_batch(max, Duration::ZERO)
                    .map(|(p, b)| (p.index(), b));
                let model = state.model.try_pop_batch(max);
                match (real, model) {
                    (None, None) if state.model.is_shutdown() => {}
                    (Some((lane, batch)), Some((mlane, mbatch))) => {
                        if lane != mlane || batch != mbatch {
                            return Err(format!(
                                "pop_batch({max}): real lane {lane} {batch:?} but spec \
                                 says lane {mlane} {mbatch:?}"
                            ));
                        }
                        if batch.is_empty() {
                            return Err("pop_batch returned an empty batch".into());
                        }
                    }
                    (real, model) => {
                        return Err(format!(
                            "pop_batch({max}): real {real:?} but spec says {model:?}"
                        ));
                    }
                }
            }
            LaneOp::Shutdown => {
                state.real.shutdown();
                state.model.shutdown();
            }
        }
        if let Some(msg) = state.lens_diverged() {
            return Err(format!("after {op:?}: {msg}"));
        }
        Ok(())
    }

    fn finish(&self, state: &mut LaneState) -> Result<(), String> {
        // Drain both sides completely, still in lock-step — so a lane
        // the real queue never serves (starvation) diverges here or in
        // the conservation check.
        loop {
            let real = state.real.try_pop().map(|(p, v)| (p.index(), v));
            let model = state.model.try_pop();
            if real != model {
                return Err(format!("drain diverged: real {real:?} vs spec {model:?}"));
            }
            if real.is_none() {
                break;
            }
        }
        state.model.check_conservation()
    }

    /// Lane-queue commutativity, as objects: `0` = control plane
    /// (shutdown flag, read by every op), `1 + lane` = one lane's
    /// FIFO, `4` = the weighted-deficit scheduler state (credits +
    /// pickup cursor, consumed by every pop). Pushes to *different*
    /// lanes commute: each appends to its own FIFO and neither moves
    /// the scheduler; everything else conflicts.
    fn footprint(&self, thread: usize, op: usize) -> Footprint {
        match self.scripts[thread][op] {
            LaneOp::Push(lane, _) => Footprint::new(vec![0], vec![1 + lane as u64]),
            LaneOp::TryPop | LaneOp::TryPopBatch(_) | LaneOp::PopBatch(_) => {
                Footprint::new(vec![0], vec![1, 2, 3, 4])
            }
            LaneOp::Shutdown => Footprint::exclusive(0),
        }
    }
}

/// Run the lane suite at the given budget.
pub fn lane_suite(budget: Budget, ex: &mut Explorer) {
    use LaneOp::*;

    // Three producers (one per lane) racing one popper through the
    // default [8, 4, 1] weighting — every interleaving of 9 ops
    // (1680 exhaustively). Every pop's lane choice is cross-checked.
    let contended = LaneScenario {
        capacity: 4,
        weights: [8, 4, 1],
        scripts: vec![
            vec![Push(0, 100), Push(0, 101), Push(0, 102)],
            vec![Push(2, 300), Push(2, 301), Push(2, 302)],
            vec![TryPop, TryPop, TryPop],
        ],
    };
    // Per-lane saturation + shutdown against batched popping,
    // capacity 1 per lane (560 interleavings).
    let saturating = LaneScenario {
        capacity: 1,
        weights: [4, 2, 1],
        scripts: vec![
            vec![Push(0, 1), Push(0, 2), Push(1, 3)],
            vec![Push(2, 10), Push(2, 11), Shutdown],
            vec![TryPopBatch(2), TryPopBatch(2)],
        ],
    };
    // Blocking pop_batch vs producers + shutdown (560 interleavings):
    // batches must stay lane-pure under every arrival order.
    let blocking = LaneScenario {
        capacity: 4,
        weights: [2, 2, 2],
        scripts: vec![
            vec![Push(1, 7), Push(2, 8), Shutdown],
            vec![Push(0, 9), Push(0, 10)],
            vec![PopBatch(3), PopBatch(3)],
        ],
    };
    // DPOR dividend: a deep two-producer burst (4 interactive + 4 bulk
    // pushes) against a 3-pop consumer — 11550 interleavings, which
    // plain DFS could not afford at this budget, but cross-lane pushes
    // commute so DPOR runs ~1.2k representative schedules. This is the
    // burst-arrival shape the PR 6 lanes scenarios could only sample.
    let deep = LaneScenario {
        capacity: 4,
        weights: [8, 4, 1],
        scripts: vec![
            vec![Push(0, 1), Push(0, 2), Push(0, 3), Push(0, 4)],
            vec![Push(2, 21), Push(2, 22), Push(2, 23), Push(2, 24)],
            vec![TryPop, TryPopBatch(2), TryPop],
        ],
    };
    match budget {
        Budget::Full => {
            ex.exhaustive(&contended);
            ex.exhaustive(&saturating);
            ex.exhaustive(&blocking);
            ex.exhaustive(&deep);
        }
        Budget::Small => {
            ex.random(&contended, 60, 41);
            ex.random(&saturating, 60, 42);
            ex.exhaustive(&blocking);
            ex.random(&deep, 150, 43);
        }
    }

    // A larger mixed workload, randomly scheduled: pushers on every
    // lane, mixed poppers, a late shutdown. Too many interleavings to
    // enumerate, so sample a seeded stream.
    let mixed = LaneScenario {
        capacity: 3,
        weights: [4, 2, 1],
        scripts: vec![
            vec![Push(0, 1), Push(1, 2), Push(0, 3), Push(2, 4), Push(0, 5)],
            vec![Push(2, 21), Push(2, 22), Push(1, 23), Push(2, 24)],
            vec![TryPop, TryPopBatch(2), TryPop, TryPopBatch(3), TryPop],
            vec![PopBatch(2), TryPop, PopBatch(2)],
            vec![Push(1, 31), Push(0, 32), Shutdown],
        ],
    };
    let trials = match budget {
        Budget::Full => 4000,
        Budget::Small => 200,
    };
    ex.random(&mixed, trials, 0x1A4E5);
}

// ---------------------------------------------------------------------
// Quota suite
// ---------------------------------------------------------------------

/// One scripted quota operation: `try_take_at(tenant, now_ns)`. Clock
/// values are per-op, so interleavings drive the buckets with
/// non-monotonic clocks — exactly the hostile schedule the bucket must
/// tolerate.
#[derive(Debug, Clone, Copy)]
pub struct QuotaOp {
    /// Tenant id taking a token.
    pub tenant: u64,
    /// Logical clock for this take, nanoseconds.
    pub now_ns: u64,
}

/// Threads of quota takes over one shared [`QuotaTable`].
pub struct QuotaScenario {
    /// Limits enforced for every tenant.
    pub cfg: QuotaConfig,
    /// Per-thread op scripts.
    pub scripts: Vec<Vec<QuotaOp>>,
}

/// Real table + per-tenant shadow buckets for one interleaving.
pub struct QuotaState {
    real: QuotaTable,
    model: std::collections::HashMap<u64, QuotaModel>,
}

impl Scenario for QuotaScenario {
    type State = QuotaState;

    fn name(&self) -> &'static str {
        "serve::quota"
    }

    fn thread_ops(&self) -> Vec<usize> {
        self.scripts.iter().map(Vec::len).collect()
    }

    fn init(&self) -> QuotaState {
        QuotaState {
            real: QuotaTable::new(self.cfg),
            model: std::collections::HashMap::new(),
        }
    }

    fn step(&self, state: &mut QuotaState, thread: usize, op: usize) -> Result<(), String> {
        let Some(op) = self.scripts.get(thread).and_then(|s| s.get(op)).copied() else {
            return Err(format!("no op {op} for thread {thread} (bad script)"));
        };
        let real = state.real.try_take_at(op.tenant, op.now_ns);
        let bucket = state
            .model
            .entry(op.tenant)
            .or_insert_with(|| QuotaModel::new(self.cfg.rate_per_sec, self.cfg.burst, op.now_ns));
        let model = bucket.try_take(op.now_ns);
        if real != model {
            return Err(format!(
                "try_take_at(tenant {}, {} ns): real {real} but spec says {model}",
                op.tenant, op.now_ns
            ));
        }
        Ok(())
    }

    fn finish(&self, state: &mut QuotaState) -> Result<(), String> {
        if state.real.tenants() != state.model.len() {
            return Err(format!(
                "tenant count diverged: real {} vs spec {}",
                state.real.tenants(),
                state.model.len()
            ));
        }
        for (tenant, bucket) in &state.model {
            bucket
                .check_conservation()
                .map_err(|e| format!("tenant {tenant}: {e}"))?;
        }
        Ok(())
    }

    /// Each take touches exactly one tenant's bucket; takes on
    /// *different* tenants commute (the table's one lock serializes
    /// them, but their admit/deny results, per-bucket conservation
    /// bounds, and the final tenant count are all order-independent).
    fn footprint(&self, thread: usize, op: usize) -> Footprint {
        Footprint::exclusive(self.scripts[thread][op].tenant)
    }
}

/// Run the quota suite at the given budget.
pub fn quota_suite(budget: Budget, ex: &mut Explorer) {
    let take = |tenant, now_ns| QuotaOp { tenant, now_ns };
    let ms = 1_000_000u64;

    // Two tenants, three threads with overlapping clock ranges: every
    // interleaving delivers a different (often non-monotonic) clock
    // sequence to each bucket (1680 exhaustively). rate 100/s, burst 2:
    // refills land mid-script (one token per 10 ms).
    let cfg = QuotaConfig {
        rate_per_sec: 100,
        burst: 2,
    };
    let racing = QuotaScenario {
        cfg,
        scripts: vec![
            vec![take(1, 0), take(1, 5 * ms), take(1, 30 * ms)],
            vec![take(1, 10 * ms), take(2, 0), take(2, ms)],
            vec![take(2, 20 * ms), take(1, 15 * ms), take(2, 2 * ms)],
        ],
    };
    // DPOR dividend: two single-tenant burst threads against one
    // cross-tenant prober — 34650 interleavings of (4, 4, 4), far past
    // the per-scenario DFS budget, but only the prober's two overlap
    // takes conflict across threads, so DPOR runs a few dozen
    // representative schedules. The prober's clocks land *inside* the
    // bursts' refill windows, so every representative ordering yields a
    // different admit/deny history for tenants 1 and 2.
    let deep = QuotaScenario {
        cfg,
        scripts: vec![
            vec![
                take(1, 0),
                take(1, 4 * ms),
                take(1, 25 * ms),
                take(1, 12 * ms),
            ],
            vec![
                take(2, 10 * ms),
                take(2, 0),
                take(2, 18 * ms),
                take(2, 40 * ms),
            ],
            vec![
                take(1, 8 * ms),
                take(3, 0),
                take(3, 15 * ms),
                take(2, 22 * ms),
            ],
        ],
    };
    match budget {
        Budget::Full => {
            ex.exhaustive(&racing);
            ex.exhaustive(&deep);
        }
        Budget::Small => {
            ex.random(&racing, 80, 51);
            ex.random(&deep, 150, 53);
        }
    }

    // Heavier churn: four tenants, dense takes, clocks that jump both
    // ways — randomly scheduled.
    let churn = QuotaScenario {
        cfg: QuotaConfig {
            rate_per_sec: 1000,
            burst: 3,
        },
        scripts: (0..4)
            .map(|t| {
                (0..6)
                    .map(|k| take(1 + (t as u64 + k) % 4, (k * 7 + t as u64 * 3) * ms))
                    .collect()
            })
            .collect(),
    };
    let trials = match budget {
        Budget::Full => 4000,
        Budget::Small => 200,
    };
    ex.random(&churn, trials, 0x900A);
}

// ---------------------------------------------------------------------
// Cache suite
// ---------------------------------------------------------------------

/// One scripted cache operation over small integer keys.
#[derive(Debug, Clone, Copy)]
pub enum CacheOp {
    /// `get(key(k))`.
    Get(u64),
    /// `insert(key(k), value(k))`.
    Insert(u64),
    /// `clear()`.
    Clear,
}

/// Threads of cache ops over one shared [`PatchCache`].
pub struct CacheScenario {
    /// Cache capacity under test.
    pub capacity: usize,
    /// Per-thread op scripts.
    pub scripts: Vec<Vec<CacheOp>>,
    /// Pre-built keys, indexed by the small-key id (so per-interleaving
    /// init does no hashing work).
    keys: Vec<PatchKey>,
}

impl CacheScenario {
    /// Build a scenario; `max_key` bounds the key ids used in scripts.
    pub fn new(capacity: usize, scripts: Vec<Vec<CacheOp>>, max_key: u64) -> CacheScenario {
        let keys = (0..=max_key)
            .map(|k| PatchKey::new(0, 0, &Tensor::from_vec(Shape::d1(1), vec![k as f32])))
            .collect();
        CacheScenario {
            capacity,
            scripts,
            keys,
        }
    }

    fn key(&self, k: u64) -> Result<&PatchKey, String> {
        self.keys
            .get(k as usize)
            .ok_or_else(|| format!("script key {k} out of range (bad script)"))
    }
}

/// The cached value for key `k` — deterministic so hits are checkable.
fn cache_value(k: u64) -> Tensor<f32> {
    Tensor::from_vec(Shape::d1(1), vec![(k * 10 + 7) as f32])
}

/// Real cache + shadow model for one interleaving.
pub struct CacheState {
    real: PatchCache,
    model: LruModel,
}

impl Scenario for CacheScenario {
    type State = CacheState;

    fn name(&self) -> &'static str {
        "serve::cache"
    }

    fn thread_ops(&self) -> Vec<usize> {
        self.scripts.iter().map(Vec::len).collect()
    }

    fn init(&self) -> CacheState {
        CacheState {
            real: PatchCache::new(self.capacity),
            model: LruModel::new(self.capacity),
        }
    }

    fn step(&self, state: &mut CacheState, thread: usize, op: usize) -> Result<(), String> {
        let Some(op) = self.scripts.get(thread).and_then(|s| s.get(op)).copied() else {
            return Err(format!("no op {op} for thread {thread} (bad script)"));
        };
        match op {
            CacheOp::Get(k) => {
                let real = state.real.get(self.key(k)?);
                let model = state.model.get(k);
                match (real, model) {
                    (None, None) => {}
                    (Some(t), Some(v)) => {
                        if t != cache_value(v) {
                            return Err(format!(
                                "get({k}): hit returned wrong tensor (spec value {v})"
                            ));
                        }
                    }
                    (real, model) => {
                        return Err(format!(
                            "get({k}): real {} but spec says {}",
                            if real.is_some() { "hit" } else { "miss" },
                            if model.is_some() { "hit" } else { "miss" }
                        ));
                    }
                }
            }
            CacheOp::Insert(k) => {
                state.real.insert(self.key(k)?, cache_value(k));
                state.model.insert(k, k);
            }
            CacheOp::Clear => {
                state.real.clear();
                state.model.clear();
            }
        }
        if state.real.len() != state.model.len() {
            return Err(format!(
                "len diverged after {op:?}: real {} vs spec {}",
                state.real.len(),
                state.model.len()
            ));
        }
        if state.real.hits() != state.model.hits || state.real.misses() != state.model.misses {
            return Err(format!(
                "counters diverged after {op:?}: real {}h/{}m vs spec {}h/{}m",
                state.real.hits(),
                state.real.misses(),
                state.model.hits,
                state.model.misses
            ));
        }
        Ok(())
    }

    fn finish(&self, state: &mut CacheState) -> Result<(), String> {
        // Final sweep: every key agrees on hit/miss and value.
        for k in 0..self.keys.len() as u64 {
            let real = state.real.get(self.key(k)?);
            let model = state.model.get(k);
            if real.is_some() != model.is_some() {
                return Err(format!(
                    "final sweep: key {k} real {} vs spec {}",
                    if real.is_some() { "hit" } else { "miss" },
                    if model.is_some() { "hit" } else { "miss" }
                ));
            }
        }
        Ok(())
    }
}

/// Run the cache suite at the given budget.
///
/// Every cache op moves the one shared LRU recency list (even a `get`
/// reorders it), so the default (fully-dependent) footprint is the
/// honest one: DPOR explores this suite like plain DFS.
pub fn cache_suite(budget: Budget, ex: &mut Explorer) {
    use CacheOp::*;

    // Capacity-2 cache, three threads contending on four keys with an
    // eviction-heavy mix (1680 interleavings exhaustively).
    let evicting = CacheScenario::new(
        2,
        vec![
            vec![Insert(0), Get(0), Insert(1)],
            vec![Insert(2), Get(1), Get(2)],
            vec![Get(0), Insert(3), Get(3)],
        ],
        4,
    );
    match budget {
        Budget::Full => ex.exhaustive(&evicting),
        Budget::Small => ex.random(&evicting, 80, 21),
    }

    // Bigger key space + clears, randomly scheduled.
    let churning = CacheScenario::new(
        3,
        vec![
            vec![Insert(0), Insert(1), Insert(2), Get(0), Get(1)],
            vec![Get(2), Insert(3), Get(3), Insert(4), Get(4)],
            vec![Insert(1), Get(1), Clear, Insert(0), Get(0)],
            vec![Get(4), Get(0), Insert(2), Get(2)],
        ],
        4,
    );
    let trials = match budget {
        Budget::Full => 4000,
        Budget::Small => 200,
    };
    ex.random(&churning, trials, 0xCAC4E);
}

// ---------------------------------------------------------------------
// Registry suite
// ---------------------------------------------------------------------

/// One scripted registry operation.
#[derive(Debug, Clone, Copy)]
pub enum RegistryOp {
    /// `activate(names[i])`.
    Activate(usize),
    /// `active()` + generation/name/torn-checkpoint assertions.
    ReadActive,
    /// `shared_with(..)` — the fetched engine's generation must be the spec's
    /// current one, its weights untorn, and repeated fetches at one
    /// generation must return the *same* `Arc` (one resident engine per
    /// generation). The thread retains the `Arc` as its in-flight
    /// engine.
    Shared,
    /// Re-check the thread's retained shared engine: its weights must
    /// still be the untorn weights of the generation it was fetched at,
    /// even after later activations — an in-flight batch completes on
    /// the old generation. No-op if the thread holds nothing yet.
    UseHeld,
}

/// One name's constant-filled `(scorer, decoder)` weight set.
type WeightSet = (Vec<Tensor<f32>>, Vec<Tensor<f32>>);

/// Threads of registry ops over one shared [`ModelRegistry`] holding
/// constant-weight checkpoints (one constant per name — the torn-swap
/// detector).
pub struct RegistryScenario {
    /// Per-thread op scripts.
    pub scripts: Vec<Vec<RegistryOp>>,
    names: Vec<String>,
    /// Per-name constant-filled weights.
    weights: Vec<WeightSet>,
    cfg: AdarNetConfig,
}

/// The uniform weight constant assigned to name index `i`.
fn name_constant(i: usize) -> f32 {
    (i + 1) as f32
}

impl RegistryScenario {
    /// Build a scenario over `names.len()` constant-weight checkpoints.
    pub fn new(names: &[&str], scripts: Vec<Vec<RegistryOp>>) -> RegistryScenario {
        let cfg = AdarNetConfig {
            ph: 8,
            pw: 8,
            seed: 1,
            ..AdarNetConfig::default()
        };
        let model = AdarNet::new(cfg);
        let base = adarnet_core::checkpoint::snapshot(&model, &NormStats::identity());
        let weights = (0..names.len())
            .map(|i| {
                let fill = |ts: &[Tensor<f32>]| {
                    ts.iter()
                        .map(|t| {
                            let mut t = t.clone();
                            t.as_mut_slice().fill(name_constant(i));
                            t
                        })
                        .collect::<Vec<_>>()
                };
                (fill(&base.scorer), fill(&base.decoder))
            })
            .collect();
        RegistryScenario {
            scripts,
            names: names.iter().map(|s| s.to_string()).collect(),
            weights,
            cfg,
        }
    }

    fn checkpoint(&self, i: usize) -> ModelCheckpoint {
        let (scorer, decoder) = &self.weights[i.min(self.weights.len() - 1)];
        ModelCheckpoint {
            version: CHECKPOINT_VERSION,
            in_channels: self.cfg.in_channels,
            ph: self.cfg.ph,
            pw: self.cfg.pw,
            bins: self.cfg.bins,
            norm: NormStats::identity(),
            scorer: scorer.clone(),
            decoder: decoder.clone(),
        }
    }

    fn constant_of(&self, name: &str) -> Option<f32> {
        self.names.iter().position(|n| n == name).map(name_constant)
    }
}

/// Real registry + shadow model for one interleaving.
pub struct RegistryState {
    real: ModelRegistry,
    model: RegistryModel,
    /// Per-thread in-flight shared engine: `(generation, active name at
    /// fetch time, engine)`.
    held: Vec<Option<(u64, String, Arc<InferenceEngine>)>>,
    /// The most recent `shared_with()` result, for one-Arc-per-generation
    /// identity checks.
    last_shared: Option<(u64, Arc<InferenceEngine>)>,
}

/// All weights uniformly equal to `c` — anything else is a torn swap.
fn is_uniform(ckpt: &ModelCheckpoint, c: f32) -> bool {
    ckpt.scorer
        .iter()
        .chain(ckpt.decoder.iter())
        .all(|t| t.as_slice().iter().all(|&v| (v - c).abs() < f32::EPSILON))
}

impl Scenario for RegistryScenario {
    type State = RegistryState;

    fn name(&self) -> &'static str {
        "serve::registry"
    }

    fn thread_ops(&self) -> Vec<usize> {
        self.scripts.iter().map(Vec::len).collect()
    }

    fn init(&self) -> RegistryState {
        let real = ModelRegistry::new();
        for (i, name) in self.names.iter().enumerate() {
            real.register(name.clone(), self.checkpoint(i));
        }
        RegistryState {
            real,
            model: RegistryModel::new(),
            held: vec![None; self.scripts.len()],
            last_shared: None,
        }
    }

    fn step(&self, state: &mut RegistryState, thread: usize, op: usize) -> Result<(), String> {
        let Some(op) = self.scripts.get(thread).and_then(|s| s.get(op)).copied() else {
            return Err(format!("no op {op} for thread {thread} (bad script)"));
        };
        match op {
            RegistryOp::Activate(i) => {
                let Some(name) = self.names.get(i) else {
                    return Err(format!("script name index {i} out of range"));
                };
                let real = state
                    .real
                    .activate(name)
                    .map_err(|e| format!("activate({name}) failed: {e}"))?;
                let model = state.model.activate(name);
                if real != model {
                    return Err(format!(
                        "activate({name}): real generation {real} but spec says {model}"
                    ));
                }
            }
            RegistryOp::ReadActive => {
                let real = state.real.active();
                match (&real, &state.model.active) {
                    (None, None) => {}
                    (Some(a), Some((generation, name))) => {
                        if a.generation != *generation || &a.name != name {
                            return Err(format!(
                                "active: real ({}, {:?}) but spec says ({generation}, {name:?})",
                                a.generation, a.name
                            ));
                        }
                        let Some(c) = self.constant_of(&a.name) else {
                            return Err(format!("active name {:?} never registered", a.name));
                        };
                        if !is_uniform(&a.checkpoint, c) {
                            return Err(format!(
                                "torn checkpoint: active {:?} has non-uniform weights \
                                 (expected all {c})",
                                a.name
                            ));
                        }
                    }
                    (real, model) => {
                        return Err(format!(
                            "active: real {} but spec says {}",
                            if real.is_some() { "Some" } else { "None" },
                            if model.is_some() { "Some" } else { "None" }
                        ));
                    }
                }
            }
            RegistryOp::Shared => {
                if state.model.active.is_none() {
                    if state.real.shared_with(Precision::F32).is_ok() {
                        return Err("shared succeeded with no active model".into());
                    }
                    return Ok(());
                }
                let (generation, engine) = state
                    .real
                    .shared_with(Precision::F32)
                    .map_err(|e| format!("shared failed with an active model: {e}"))?;
                let Some((model_generation, model_name)) = state.model.active.clone() else {
                    return Err("spec lost its active model".into());
                };
                if generation != model_generation {
                    return Err(format!(
                        "shared generation {generation} but spec says {model_generation}"
                    ));
                }
                let Some(c) = self.constant_of(&model_name) else {
                    return Err(format!("active name {model_name:?} never registered"));
                };
                if !is_uniform(&engine.checkpoint(), c) {
                    return Err(format!(
                        "torn shared engine: generation {generation} ({model_name:?}) has \
                         non-uniform weights (expected all {c})"
                    ));
                }
                if let Some((last_generation, last_engine)) = &state.last_shared {
                    if *last_generation == generation && !Arc::ptr_eq(last_engine, &engine) {
                        return Err(format!(
                            "two shared_with() calls at generation {generation} returned distinct \
                             engines (weights must be resident once per generation)"
                        ));
                    }
                }
                state.last_shared = Some((generation, engine.clone()));
                state.held[thread] = Some((generation, model_name, engine));
            }
            RegistryOp::UseHeld => {
                let Some((generation, name, engine)) = &state.held[thread] else {
                    return Ok(());
                };
                let Some(c) = self.constant_of(name) else {
                    return Err(format!("held name {name:?} never registered"));
                };
                if !is_uniform(&engine.checkpoint(), c) {
                    return Err(format!(
                        "in-flight engine from generation {generation} lost its weights \
                         after a hot swap (expected all {c})"
                    ));
                }
            }
        }
        if state.real.generation() != state.model.generation {
            return Err(format!(
                "generation diverged after {op:?}: real {} vs spec {}",
                state.real.generation(),
                state.model.generation
            ));
        }
        Ok(())
    }

    fn finish(&self, state: &mut RegistryState) -> Result<(), String> {
        // The final published model must be the last linearized
        // activation, with intact (untorn) weights.
        let real = state.real.active();
        match (&real, &state.model.active) {
            (None, None) => Ok(()),
            (Some(a), Some((generation, name)))
                if a.generation == *generation && &a.name == name =>
            {
                Ok(())
            }
            _ => Err("final active model diverged from the spec".into()),
        }
    }

    /// Object `0` is the published active slot (generation + name +
    /// checkpoint); object `1` the one-resident-engine cell behind
    /// `shared_with()`. Reads of the active slot commute with each other but
    /// not with activations; two `shared_with()` calls conflict (both may
    /// instantiate the resident engine). `UseHeld` only reads the
    /// thread's retained `Arc`, but is declared a reader of `0` anyway
    /// so DPOR still explores it on *both* sides of every activation —
    /// the in-flight-engine-survives-a-hot-swap orderings are the whole
    /// point of those scenarios.
    fn footprint(&self, thread: usize, op: usize) -> Footprint {
        match self.scripts[thread][op] {
            RegistryOp::Activate(_) => Footprint::new(vec![], vec![0, 1]),
            RegistryOp::ReadActive | RegistryOp::UseHeld => Footprint::reads(&[0]),
            RegistryOp::Shared => Footprint::new(vec![0], vec![1]),
        }
    }
}

/// Run the registry suite at the given budget.
pub fn registry_suite(budget: Budget, ex: &mut Explorer) {
    use RegistryOp::*;

    // Two activators racing a reader (210 interleavings exhaustively) —
    // this is the scenario that catches the generation-outside-lock
    // race the fix in `ModelRegistry::activate` addresses.
    let racing = RegistryScenario::new(
        &["a", "b", "c"],
        vec![
            vec![Activate(0), Activate(2)],
            vec![Activate(1), ReadActive],
            vec![ReadActive, Shared, UseHeld],
        ],
    );
    ex.exhaustive(&racing);

    // Longer random-schedule churn with a shared-engine fetch in the mix.
    let churn = RegistryScenario::new(
        &["a", "b"],
        vec![
            vec![Activate(0), Activate(1), Activate(0), ReadActive],
            vec![ReadActive, Activate(1), ReadActive, Activate(0)],
            vec![ReadActive, Shared, UseHeld, ReadActive],
        ],
    );
    let trials = match budget {
        Budget::Full => 2000,
        Budget::Small => 100,
    };
    ex.random(&churn, trials, 0x9E6);

    // Hot swap under shared engines: a swapper races two "workers" that
    // fetch the shared engine and then keep using it — every
    // interleaving of fetch vs. activate vs. in-flight use (210
    // exhaustively). The `UseHeld` steps after an `Activate` are the
    // in-flight-batch-completes-on-old-generation guarantee.
    let hot_swap = RegistryScenario::new(
        &["a", "b"],
        vec![
            vec![Activate(0), Activate(1)],
            vec![Shared, UseHeld, Shared],
            vec![Shared, UseHeld],
        ],
    );
    ex.exhaustive(&hot_swap);

    // Longer random-schedule churn mixing swaps, shared fetches, and
    // in-flight re-use across three worker threads.
    let shared_churn = RegistryScenario::new(
        &["a", "b", "c"],
        vec![
            vec![Activate(0), Activate(1), Activate(2), Activate(0)],
            vec![Shared, UseHeld, Shared, UseHeld],
            vec![Shared, UseHeld, UseHeld, Shared],
            vec![ReadActive, Shared, UseHeld, ReadActive],
        ],
    );
    let shared_trials = match budget {
        Budget::Full => 1500,
        Budget::Small => 80,
    };
    ex.random(&shared_churn, shared_trials, 0x5A4ED);
}

// ---------------------------------------------------------------------
// Trace arena + tail sampler suite
// ---------------------------------------------------------------------

/// One scripted trace operation. Trace identity is per *owner thread*
/// and incarnation (`trace_id_for`), so cross-thread ops — a worker
/// recording spans into a requester's trace, a laggard committing
/// after the requester finished — are expressible by naming the owner.
#[derive(Debug, Clone, Copy)]
pub enum TraceOp {
    /// `start()` the acting thread's own trace (current incarnation).
    Start,
    /// `begin(owner's trace, name)`; the pending span is held by the
    /// *acting* thread (the laggard shape).
    Begin(usize),
    /// `commit(acting thread's k-th pending span)`.
    Commit(usize),
    /// `record(owner's trace, name, dur)` — begin + commit in one call.
    Record(usize),
    /// `finish(own trace, e2e, error)` and offer it to the sampler;
    /// the thread's next `Start` uses a fresh trace id.
    Finish(bool),
}

/// Threads of trace ops over one shared [`TraceArena`] + [`TailSampler`].
pub struct TraceScenario {
    /// Arena trace-slot capacity under test.
    pub capacity: usize,
    /// Per-trace span budget under test.
    pub spans_per_trace: usize,
    /// Tail sampler `(slow_cap, error_cap, window)`.
    pub sampler: (usize, usize, u64),
    /// Per-thread op scripts.
    pub scripts: Vec<Vec<TraceOp>>,
}

/// Real arena + sampler and their shadow models for one interleaving.
pub struct TraceState {
    real: TraceArena,
    sampler: TailSampler,
    model: TraceModel,
    smodel: SamplerModel,
    /// Current incarnation per owner thread (bumped at `Finish`).
    incarnation: Vec<u64>,
    /// Pending spans held by each acting thread:
    /// `(real pending, trace_id, model idx, span_id)`.
    pendings: Vec<Vec<(PendingSpan, u64, usize, u64)>>,
}

/// Deterministic nonzero trace id for thread `t`'s `k`-th trace. All
/// ids are odd, so with an even slot count every trace probes from the
/// same home slot — maximal probe collision.
fn trace_id_for(thread: usize, incarnation: u64) -> u64 {
    1 + 2 * (thread as u64 + 16 * incarnation)
}

/// Deterministic e2e latency for thread `t`'s `k`-th trace: a small
/// set of repeating values, so sampler tie-breaks and displacements
/// both occur under exploration.
fn trace_e2e_for(thread: usize, incarnation: u64) -> u64 {
    ((thread as u64 * 7 + incarnation * 3) % 5 + 1) * 10
}

impl TraceScenario {
    fn owner_ctx(&self, state: &TraceState, owner: usize) -> TraceCtx {
        TraceCtx {
            trace_id: trace_id_for(owner, state.incarnation[owner]),
            span_id: 0,
        }
    }
}

impl Scenario for TraceScenario {
    type State = TraceState;

    fn name(&self) -> &'static str {
        "obs::trace"
    }

    fn thread_ops(&self) -> Vec<usize> {
        self.scripts.iter().map(Vec::len).collect()
    }

    fn init(&self) -> TraceState {
        // The arena's admission gate reads the global obs enable flag;
        // the suite asserts the enabled contract.
        adarnet_obs::set_enabled(true);
        let (slow, err, window) = self.sampler;
        TraceState {
            real: TraceArena::with_capacity(self.capacity, self.spans_per_trace),
            sampler: TailSampler::new(slow, err, window),
            model: TraceModel::new(self.capacity, self.spans_per_trace),
            smodel: SamplerModel::new(slow, err, window),
            incarnation: vec![0; self.scripts.len()],
            pendings: vec![Vec::new(); self.scripts.len()],
        }
    }

    fn step(&self, state: &mut TraceState, thread: usize, op: usize) -> Result<(), String> {
        let Some(op) = self.scripts.get(thread).and_then(|s| s.get(op)).copied() else {
            return Err(format!("no op {op} for thread {thread} (bad script)"));
        };
        match op {
            TraceOp::Start => {
                let ctx = self.owner_ctx(state, thread);
                let real = state.real.start(ctx);
                let model = state.model.start(ctx.trace_id);
                if real != model {
                    return Err(format!(
                        "start({:#x}): real {real} but spec says {model}",
                        ctx.trace_id
                    ));
                }
            }
            TraceOp::Begin(owner) => {
                let ctx = self.owner_ctx(state, owner);
                let real = state.real.begin(ctx, "mc_begin");
                let model = state.model.begin(ctx.trace_id, 0, "mc_begin");
                match (real, model) {
                    (Some(p), Some((span_id, idx))) => {
                        if p.span_id != span_id {
                            return Err(format!(
                                "begin on {:#x}: real span id {} but spec says {span_id}",
                                ctx.trace_id, p.span_id
                            ));
                        }
                        state.pendings[thread].push((p, ctx.trace_id, idx, span_id));
                    }
                    (None, None) => {}
                    (real, model) => {
                        return Err(format!(
                            "begin on {:#x}: real {} but spec says {}",
                            ctx.trace_id,
                            real.is_some(),
                            model.is_some()
                        ));
                    }
                }
            }
            TraceOp::Commit(k) => {
                let Some(&(p, trace_id, idx, span_id)) = state.pendings[thread].get(k) else {
                    // The matching Begin hit a budget/not-in-flight
                    // branch in this interleaving; nothing to commit.
                    return Ok(());
                };
                let dur = 100 + k as u64;
                let real = state.real.commit(p, dur, "k", k as u64);
                let model = state
                    .model
                    .commit(trace_id, idx, span_id, dur, "k", k as u64);
                if real != model {
                    return Err(format!(
                        "commit span {span_id} of {trace_id:#x}: real {real} but spec says {model}"
                    ));
                }
            }
            TraceOp::Record(owner) => {
                let ctx = self.owner_ctx(state, owner);
                let dur = 7 * (owner as u64 + 1);
                let real = state
                    .real
                    .record(ctx, "mc_record", dur, "owner", owner as u64);
                let model =
                    state
                        .model
                        .record(ctx.trace_id, 0, "mc_record", dur, "owner", owner as u64);
                if real != model {
                    return Err(format!(
                        "record on {:#x}: real {real:?} but spec says {model:?}",
                        ctx.trace_id
                    ));
                }
            }
            TraceOp::Finish(error) => {
                let ctx = self.owner_ctx(state, thread);
                let e2e = trace_e2e_for(thread, state.incarnation[thread]);
                let real = state.real.finish(ctx, e2e, error);
                let model = state.model.finish(ctx.trace_id);
                match (real, model) {
                    (Some(fin), Some((spans, dropped))) => {
                        let got: Vec<ModelSpan> = fin
                            .spans
                            .iter()
                            .map(|s| ModelSpan {
                                span_id: s.span_id,
                                parent: s.parent,
                                name: s.name,
                                dur_ns: s.dur_ns,
                                field: s.field,
                                value: s.value,
                            })
                            .collect();
                        if got != spans {
                            return Err(format!(
                                "finish {:#x}: spans {got:?} but spec says {spans:?} \
                                 (torn or lost span)",
                                ctx.trace_id
                            ));
                        }
                        if fin.dropped_spans != dropped {
                            return Err(format!(
                                "finish {:#x}: dropped {} but spec says {dropped}",
                                ctx.trace_id, fin.dropped_spans
                            ));
                        }
                        state.sampler.offer(fin);
                        state.smodel.offer(e2e, error);
                        let got: Vec<u64> = state
                            .sampler
                            .snapshot()
                            .iter()
                            .map(|r| r.offer_seq)
                            .collect();
                        let want = state.smodel.expected();
                        if got != want {
                            return Err(format!("sampler snapshot {got:?} but spec says {want:?}"));
                        }
                    }
                    (None, None) => {}
                    (real, model) => {
                        return Err(format!(
                            "finish {:#x}: real {} but spec says {}",
                            ctx.trace_id,
                            real.is_some(),
                            model.is_some()
                        ));
                    }
                }
                state.incarnation[thread] += 1;
            }
        }
        // Slot bookkeeping must agree after every step — a leaked slot
        // here is a slow arena-exhaustion leak in production.
        if state.real.in_flight() != state.model.in_flight() {
            return Err(format!(
                "in_flight {} after {op:?} but spec says {}",
                state.real.in_flight(),
                state.model.in_flight()
            ));
        }
        Ok(())
    }

    fn finish(&self, state: &mut TraceState) -> Result<(), String> {
        // Drain: every still-live trace must finish exactly once, with
        // real and spec agreeing on liveness; afterwards the arena must
        // be empty and the sampler must sit at the model's fixed point.
        for thread in 0..self.scripts.len() {
            for inc in 0..=state.incarnation[thread] {
                let id = trace_id_for(thread, inc);
                let ctx = TraceCtx {
                    trace_id: id,
                    span_id: 0,
                };
                let real = state.real.finish(ctx, 1, false);
                let model = state.model.finish(id);
                if real.is_some() != model.is_some() {
                    return Err(format!(
                        "drain finish {id:#x}: real {} but spec says {}",
                        real.is_some(),
                        model.is_some()
                    ));
                }
            }
        }
        if state.real.in_flight() != 0 {
            return Err(format!(
                "{} trace slot(s) leaked after drain",
                state.real.in_flight()
            ));
        }
        if state.sampler.offers() != state.smodel.offers() {
            return Err(format!(
                "sampler offers {} but spec says {}",
                state.sampler.offers(),
                state.smodel.offers()
            ));
        }
        Ok(())
    }
}

/// Run the trace arena + tail sampler suite at the given budget.
///
/// Every op hits the one shared arena (and the per-step checks read
/// all of it), so the default fully-dependent footprint is honest and
/// DPOR degenerates to DFS here.
pub fn trace_suite(budget: Budget, ex: &mut Explorer) {
    use TraceOp::*;

    // Three requests over a 2-slot arena with colliding home slots:
    // admission races, span-budget drops (thread 2 begins three spans
    // against a budget of 2), and an errored finish all interleave
    // (90090 interleavings for (4,4,5) exhaustively).
    let contention = TraceScenario {
        capacity: 2,
        spans_per_trace: 2,
        sampler: (2, 2, 4),
        scripts: vec![
            vec![Start, Begin(0), Commit(0), Finish(false)],
            vec![Start, Record(1), Record(1), Finish(true)],
            vec![Start, Record(2), Record(2), Record(2), Finish(false)],
        ],
    };
    // The laggard shape on a 1-slot arena: thread 1 begins a span on
    // thread 0's trace; depending on the schedule, thread 0 finishes
    // first and thread 1's own trace re-claims the slot — the laggard
    // commit must never land in the successor trace.
    let laggard = TraceScenario {
        capacity: 1,
        spans_per_trace: 2,
        sampler: (1, 1, 2),
        scripts: vec![
            vec![Start, Finish(false)],
            vec![Begin(0), Start, Commit(0), Finish(true)],
        ],
    };
    match budget {
        Budget::Full => {
            ex.exhaustive(&contention);
            ex.exhaustive(&laggard);
        }
        Budget::Small => {
            ex.random(&contention, 150, 47);
            ex.exhaustive(&laggard);
        }
    }

    // Incarnation churn, randomly scheduled: three threads each running
    // two traced requests back-to-back, recording into each other's
    // traces, with enough finishes to roll the sampler window.
    let churn = TraceScenario {
        capacity: 2,
        spans_per_trace: 2,
        sampler: (2, 2, 4),
        scripts: (0..3)
            .map(|t| {
                vec![
                    Start,
                    Record(t),
                    Finish(t == 1),
                    Start,
                    Record((t + 1) % 3),
                    Finish(t == 2),
                ]
            })
            .collect(),
    };
    let trials = match budget {
        Budget::Full => 4000,
        Budget::Small => 250,
    };
    ex.random(&churn, trials, 0x17ACE);
}

/// Run every suite under `mode`, returning `(suite name, stats)` per
/// suite.
pub fn run_all(budget: Budget, mode: Mode) -> Vec<(&'static str, SuiteStats)> {
    fn run(
        name: &'static str,
        budget: Budget,
        mode: Mode,
        suite: fn(Budget, &mut Explorer),
    ) -> (&'static str, SuiteStats) {
        let mut ex = Explorer::new(mode);
        suite(budget, &mut ex);
        (name, ex.stats)
    }
    vec![
        run("lanes", budget, mode, lane_suite),
        run("quota", budget, mode, quota_suite),
        run("cache", budget, mode, cache_suite),
        run("registry", budget, mode, registry_suite),
        run("trace", budget, mode, trace_suite),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpor::explore_dpor;
    use crate::sched::{explore_exhaustive, interleaving_count};
    use adarnet_core::sync;
    use std::sync::Mutex;

    #[test]
    fn small_budget_suites_pass() {
        for (name, stats) in run_all(Budget::Small, Mode::Dpor) {
            assert!(
                stats.violations.is_empty(),
                "{name}: {:?}",
                stats.violations
            );
            assert!(
                stats.mismatches.is_empty(),
                "{name}: {:?}",
                stats.mismatches
            );
            assert!(stats.explored() > 0, "{name} explored nothing");
            assert!(
                stats.covered() >= stats.explored(),
                "{name} covered < explored"
            );
        }
    }

    #[test]
    fn dfs_and_dpor_agree_on_the_quota_footprints() {
        // A small exhaustive space where the per-tenant footprints do
        // real commuting: Compare cross-checks the DPOR reduction
        // against full DFS — verdicts and covered counts must match.
        let take = |tenant, now_ns| QuotaOp { tenant, now_ns };
        let ms = 1_000_000u64;
        let racing = QuotaScenario {
            cfg: QuotaConfig {
                rate_per_sec: 100,
                burst: 1,
            },
            scripts: vec![
                vec![take(1, 0), take(1, 5 * ms), take(2, 10 * ms)],
                vec![take(2, 0), take(1, 3 * ms), take(2, 7 * ms)],
            ],
        };
        let mut ex = Explorer::new(Mode::Compare);
        ex.exhaustive(&racing);
        assert!(ex.stats.mismatches.is_empty(), "{:?}", ex.stats.mismatches);
        assert!(ex.stats.violations.is_empty(), "{:?}", ex.stats.violations);
        assert!(
            ex.stats.exh_explored < ex.stats.exh_covered,
            "tenant footprints should commute somewhere ({} of {})",
            ex.stats.exh_explored,
            ex.stats.exh_covered
        );
    }

    #[test]
    fn dfs_and_dpor_agree_on_the_registry_footprints() {
        use RegistryOp::*;
        let hot_swap = RegistryScenario::new(
            &["a", "b"],
            vec![
                vec![Activate(0), Activate(1)],
                vec![Shared, UseHeld, Shared],
                vec![Shared, UseHeld],
            ],
        );
        let mut ex = Explorer::new(Mode::Compare);
        ex.exhaustive(&hot_swap);
        assert!(ex.stats.mismatches.is_empty(), "{:?}", ex.stats.mismatches);
        assert!(ex.stats.violations.is_empty(), "{:?}", ex.stats.violations);
    }

    #[test]
    fn dpor_reduces_the_deep_lane_burst_at_least_five_fold() {
        use LaneOp::*;
        // Same shape as lane_suite's `deep` scenario: two commuting
        // burst producers against one popper.
        let deep = LaneScenario {
            capacity: 4,
            weights: [8, 4, 1],
            scripts: vec![
                vec![Push(0, 1), Push(0, 2), Push(0, 3), Push(0, 4)],
                vec![Push(2, 21), Push(2, 22), Push(2, 23), Push(2, 24)],
                vec![TryPop, TryPopBatch(2), TryPop],
            ],
        };
        let d = explore_dpor(&deep);
        assert!(d.result.violations.is_empty(), "{:?}", d.result.violations);
        assert_eq!(d.covered, interleaving_count(&[4, 4, 3]));
        assert!(
            d.result.interleavings * 5 <= d.covered,
            "DPOR explored {} of {} — reduction under 5x",
            d.result.interleavings,
            d.covered
        );
    }

    /// Deliberately racy: both threads write shared location `1`, but
    /// thread 1 guards its write with the *wrong* lock, so the two
    /// writes are unordered by happens-before in every schedule.
    struct RacyPair;
    impl Scenario for RacyPair {
        type State = (Mutex<u64>, Mutex<u64>);
        fn name(&self) -> &'static str {
            "seeded-racy-pair"
        }
        fn thread_ops(&self) -> Vec<usize> {
            vec![1, 1]
        }
        fn init(&self) -> Self::State {
            (Mutex::new(0), Mutex::new(0))
        }
        fn step(&self, state: &mut Self::State, thread: usize, _op: usize) -> Result<(), String> {
            if thread == 0 {
                let mut g = sync::lock(&state.0);
                sync::trace::write(1);
                *g += 1;
            } else {
                // Bug under test: location 1 is supposed to be guarded
                // by the first mutex.
                let mut g = sync::lock(&state.1);
                sync::trace::write(1);
                *g += 1;
            }
            Ok(())
        }
        fn finish(&self, _: &mut Self::State) -> Result<(), String> {
            Ok(())
        }
    }

    #[test]
    fn race_detector_flags_a_seeded_two_lock_race() {
        let r = explore_exhaustive(&RacyPair);
        assert!(!r.violations.is_empty(), "seeded race must be caught");
        let v = &r.violations[0];
        assert!(v.message.contains("data race"), "{}", v.message);
        assert!(!v.trace.is_empty(), "violation must carry a schedule");
        let d = explore_dpor(&RacyPair);
        assert!(
            d.result
                .violations
                .iter()
                .any(|v| v.message.contains("data race")),
            "DPOR must catch the same race: {:?}",
            d.result.violations
        );
    }

    /// Deliberate lock-order inversion: thread 0 nests `a` then `b`,
    /// thread 1 nests `b` then `a`. The mini-loom serializes steps so
    /// no schedule actually deadlocks — the acquisition-graph cycle
    /// check must flag the hazard anyway.
    struct InvertedLocks;
    impl Scenario for InvertedLocks {
        type State = (Mutex<u64>, Mutex<u64>);
        fn name(&self) -> &'static str {
            "seeded-inverted-locks"
        }
        fn thread_ops(&self) -> Vec<usize> {
            vec![1, 1]
        }
        fn init(&self) -> Self::State {
            (Mutex::new(0), Mutex::new(0))
        }
        fn step(&self, state: &mut Self::State, thread: usize, _op: usize) -> Result<(), String> {
            if thread == 0 {
                let _a = sync::lock(&state.0);
                let mut b = sync::lock(&state.1);
                *b += 1;
            } else {
                let _b = sync::lock(&state.1);
                let mut a = sync::lock(&state.0);
                *a += 1;
            }
            Ok(())
        }
        fn finish(&self, _: &mut Self::State) -> Result<(), String> {
            Ok(())
        }
    }

    #[test]
    fn cycle_detector_flags_a_seeded_lock_inversion() {
        let r = explore_exhaustive(&InvertedLocks);
        assert!(!r.violations.is_empty(), "seeded inversion must be caught");
        let v = &r.violations[0];
        assert!(v.message.contains("lock-order inversion"), "{}", v.message);
        assert!(!v.trace.is_empty(), "violation must carry a schedule");
        let d = explore_dpor(&InvertedLocks);
        assert!(
            d.result
                .violations
                .iter()
                .any(|v| v.message.contains("lock-order inversion")),
            "DPOR must catch the same inversion: {:?}",
            d.result.violations
        );
    }

    #[test]
    fn oracle_catches_a_seeded_trace_arena_size_bug() {
        // A real arena one slot smaller than the spec believes must
        // diverge on some start's admission decision.
        struct Buggy(TraceScenario);
        impl Scenario for Buggy {
            type State = TraceState;
            fn name(&self) -> &'static str {
                "buggy-trace"
            }
            fn thread_ops(&self) -> Vec<usize> {
                self.0.thread_ops()
            }
            fn init(&self) -> TraceState {
                let mut s = self.0.init();
                s.real = TraceArena::with_capacity(1, self.0.spans_per_trace);
                s
            }
            fn step(&self, s: &mut TraceState, t: usize, o: usize) -> Result<(), String> {
                self.0.step(s, t, o)
            }
            fn finish(&self, s: &mut TraceState) -> Result<(), String> {
                self.0.finish(s)
            }
        }
        use TraceOp::*;
        let buggy = Buggy(TraceScenario {
            capacity: 2,
            spans_per_trace: 2,
            sampler: (2, 2, 4),
            scripts: vec![
                vec![Start, Record(0), Finish(false)],
                vec![Start, Record(1), Finish(false)],
            ],
        });
        let r = explore_exhaustive(&buggy);
        assert!(
            !r.violations.is_empty(),
            "seeded undersized arena must be caught"
        );
    }

    #[test]
    fn oracle_catches_a_seeded_lane_weight_bug() {
        // A real queue configured with different weights than the spec
        // believes must diverge on some pop's lane choice.
        struct Buggy(LaneScenario);
        impl Scenario for Buggy {
            type State = LaneState;
            fn name(&self) -> &'static str {
                "buggy-lanes"
            }
            fn thread_ops(&self) -> Vec<usize> {
                self.0.thread_ops()
            }
            fn init(&self) -> LaneState {
                LaneState {
                    // Real weights favor bulk; the spec expects [4,2,1].
                    real: LaneQueue::new(self.0.capacity, [1, 1, 4]),
                    model: PriorityQueueModel::new(self.0.capacity, [4, 2, 1]),
                }
            }
            fn step(&self, s: &mut LaneState, t: usize, o: usize) -> Result<(), String> {
                self.0.step(s, t, o)
            }
            fn finish(&self, s: &mut LaneState) -> Result<(), String> {
                self.0.finish(s)
            }
        }
        use LaneOp::*;
        let buggy = Buggy(LaneScenario {
            capacity: 8,
            weights: [4, 2, 1],
            scripts: vec![
                vec![Push(0, 1), Push(0, 2), Push(0, 3)],
                vec![Push(2, 10), Push(2, 11), Push(2, 12)],
            ],
        });
        let r = explore_exhaustive(&buggy);
        assert!(
            !r.violations.is_empty(),
            "seeded weight mismatch must be caught at drain time"
        );
    }

    #[test]
    fn oracle_catches_a_seeded_quota_bug() {
        // A real table admitting at double the spec's rate must diverge.
        struct Buggy(QuotaScenario);
        impl Scenario for Buggy {
            type State = QuotaState;
            fn name(&self) -> &'static str {
                "buggy-quota"
            }
            fn thread_ops(&self) -> Vec<usize> {
                self.0.thread_ops()
            }
            fn init(&self) -> QuotaState {
                QuotaState {
                    real: QuotaTable::new(QuotaConfig {
                        rate_per_sec: self.0.cfg.rate_per_sec * 2,
                        burst: self.0.cfg.burst,
                    }),
                    model: std::collections::HashMap::new(),
                }
            }
            fn step(&self, s: &mut QuotaState, t: usize, o: usize) -> Result<(), String> {
                self.0.step(s, t, o)
            }
            fn finish(&self, s: &mut QuotaState) -> Result<(), String> {
                self.0.finish(s)
            }
        }
        let take = |tenant, now_ns| QuotaOp { tenant, now_ns };
        let buggy = Buggy(QuotaScenario {
            cfg: QuotaConfig {
                rate_per_sec: 100,
                burst: 1,
            },
            scripts: vec![
                // 100/s = one token per 10 ms; at 2× rate the 5 ms take
                // after exhaustion is wrongly admitted.
                vec![take(1, 0), take(1, 5_000_000), take(1, 10_000_000)],
            ],
        });
        let r = explore_exhaustive(&buggy);
        assert!(
            !r.violations.is_empty(),
            "seeded double-rate table must be caught"
        );
    }

    #[test]
    fn oracle_catches_a_seeded_queue_bug() {
        // Sanity that the harness *can* fail: a wrong-capacity shadow
        // model must diverge from the real lane queue.
        struct Buggy(LaneScenario);
        impl Scenario for Buggy {
            type State = LaneState;
            fn name(&self) -> &'static str {
                "buggy"
            }
            fn thread_ops(&self) -> Vec<usize> {
                self.0.thread_ops()
            }
            fn init(&self) -> LaneState {
                // Real lanes one slot smaller than the model believes.
                LaneState {
                    real: LaneQueue::new(1, self.0.weights),
                    model: PriorityQueueModel::new(2, self.0.weights),
                }
            }
            fn step(&self, s: &mut LaneState, t: usize, o: usize) -> Result<(), String> {
                self.0.step(s, t, o)
            }
            fn finish(&self, s: &mut LaneState) -> Result<(), String> {
                self.0.finish(s)
            }
        }
        let buggy = Buggy(LaneScenario {
            capacity: 1,
            weights: [8, 4, 1],
            scripts: vec![
                vec![LaneOp::Push(0, 1), LaneOp::Push(0, 2)],
                vec![LaneOp::TryPop],
            ],
        });
        let r = explore_exhaustive(&buggy);
        assert!(
            !r.violations.is_empty(),
            "seeded capacity bug must be caught"
        );
    }
}
