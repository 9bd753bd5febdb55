//! Model-checking suites: the serve primitives driven against their
//! [`crate::oracle`] shadow models under explored interleavings.
//!
//! Each primitive is one [`Subject`]; a [`Script`] runs threads of its
//! ops as a [`Scenario`], and each suite is a table of [`Row`]s pairing
//! a script with its [`Plan`] at the full and the small [`Budget`]. The
//! invariants each subject checks at every step and at quiescence are
//! listed in DESIGN.md §9.2.

use std::collections::HashMap;
use std::fmt::{Debug, Display};
use std::sync::Arc;
use std::time::Duration;

use adarnet_core::checkpoint::ModelCheckpoint;
use adarnet_core::engine::InferenceEngine;
use adarnet_core::loss::NormStats;
use adarnet_core::network::{AdarNet, AdarNetConfig};
use adarnet_serve::{
    LaneQueue, ModelRegistry, PatchCache, PatchKey, Precision, Priority, PushOutcome, QuotaConfig,
    QuotaTable,
};
use adarnet_tensor::{Shape, Tensor};

use adarnet_obs::trace::{FinishedTrace, TailSampler};

use crate::oracle::{
    LruModel, ModelPush, PriorityQueueModel, QuotaModel, RegistryModel, SamplerModel,
};
use crate::sched::{Plan, Scenario, SuiteStats};

/// Exploration effort: `Full` is the CI gate (every row's full plan,
/// ≥ 10,000 interleavings), `Small` the SKIP_SLOW smoke budget (every
/// row's small plan, no floor).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    /// Full exhaustive + random budget.
    Full,
    /// Reduced smoke budget for fast iteration.
    Small,
}

// ---------------------------------------------------------------------
// The scripted-scenario driver
// ---------------------------------------------------------------------

/// A primitive under test, as a configuration value: the real structure
/// is built from one value and its shadow oracle from another, so a
/// script can seed a bug by configuring the two differently.
pub trait Subject {
    /// One scripted operation.
    type Op: Copy + Debug;
    /// Per-interleaving state: the real structure plus its oracle.
    type State;
    /// Scenario name for reports.
    const NAME: &'static str;

    /// Fresh state for one interleaving of `threads` logical threads:
    /// the real primitive configured by `real`, the oracle by `spec`.
    fn init(real: &Self, spec: &Self, threads: usize) -> Self::State;

    /// Run `op` on `thread` against both sides (`self` is the spec).
    /// `Err` is an invariant violation saying what diverged.
    fn step(&self, state: &mut Self::State, thread: usize, op: Self::Op) -> Result<(), String>;

    /// End-of-interleaving invariants.
    fn finish(&self, state: &mut Self::State) -> Result<(), String>;
}

/// Threads of scripted ops over one [`Subject`]: the one [`Scenario`]
/// implementation every suite shares.
pub struct Script<S: Subject> {
    /// Configuration of the real primitive.
    pub real: S,
    /// Configuration of the oracle and of every check.
    pub spec: S,
    /// Per-thread op scripts.
    pub threads: Vec<Vec<S::Op>>,
}

impl<S: Subject> Scenario for Script<S> {
    type State = S::State;

    fn name(&self) -> &'static str {
        S::NAME
    }

    fn thread_ops(&self) -> Vec<usize> {
        self.threads.iter().map(Vec::len).collect()
    }

    fn init(&self) -> S::State {
        S::init(&self.real, &self.spec, self.threads.len())
    }

    fn step(&self, state: &mut S::State, thread: usize, op: usize) -> Result<(), String> {
        let Some(&o) = self.threads.get(thread).and_then(|t| t.get(op)) else {
            return Err(format!("no op {op} for thread {thread} (bad script)"));
        };
        self.spec.step(state, thread, o)
    }

    fn finish(&self, state: &mut S::State) -> Result<(), String> {
        self.spec.finish(state)
    }
}

/// One suite row: a script, then its plan at the full and the small
/// budget.
pub type Row<S> = (Script<S>, Plan, Plan);

/// A row whose real primitive is configured like its spec.
fn row<S: Subject + Clone>(spec: S, full: Plan, small: Plan, threads: Vec<Vec<S::Op>>) -> Row<S> {
    let real = spec.clone();
    (
        Script {
            real,
            spec,
            threads,
        },
        full,
        small,
    )
}

/// Every interleaving.
const EXH: Plan = Plan::Exhaustive;

/// `trials` seeded-random schedules.
const fn random(trials: u64, seed: u64) -> Plan {
    Plan::Random { trials, seed }
}

/// Explore every row at `budget`.
fn run<S: Subject>(rows: &[Row<S>], budget: Budget) -> SuiteStats {
    let mut stats = SuiteStats::default();
    for (script, full, small) in rows {
        let plan = match budget {
            Budget::Full => *full,
            Budget::Small => *small,
        };
        stats.explore(script, plan);
    }
    stats
}

/// Run every suite, returning `(suite name, stats)` per suite.
pub fn run_all(budget: Budget) -> Vec<(&'static str, SuiteStats)> {
    vec![
        ("lanes", run(&lane_rows(), budget)),
        ("quota", run(&quota_rows(), budget)),
        ("cache", run(&cache_rows(), budget)),
        ("registry", run(&registry_rows(), budget)),
        ("sampler", run(&sampler_rows(), budget)),
    ]
}

/// `Ok` if the real structure and the spec agree on `what`, else the
/// divergence as a violation message.
fn agree<T: PartialEq + Debug>(what: impl Display, real: T, spec: T) -> Result<(), String> {
    if real == spec {
        Ok(())
    } else {
        Err(format!("{what}: real {real:?} but spec says {spec:?}"))
    }
}

// ---------------------------------------------------------------------
// Lanes
// ---------------------------------------------------------------------

/// A [`LaneQueue`] configuration.
#[derive(Debug, Clone, Copy)]
pub struct Lanes {
    /// Per-lane capacity.
    pub capacity: usize,
    /// Per-cycle lane credits.
    pub weights: [u64; 3],
}

/// A [`Lanes`] configuration.
fn lanes(capacity: usize, weights: [u64; 3]) -> Lanes {
    Lanes { capacity, weights }
}

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

/// Real lane queue + shadow model for one interleaving.
pub struct LaneState {
    real: LaneQueue<u64>,
    model: PriorityQueueModel,
}

impl Subject for Lanes {
    type Op = LaneOp;
    type State = LaneState;
    const NAME: &'static str = "serve::lanes";

    fn init(real: &Lanes, spec: &Lanes, _threads: usize) -> LaneState {
        LaneState {
            real: LaneQueue::new(real.capacity, real.weights),
            model: PriorityQueueModel::new(spec.capacity, spec.weights),
        }
    }

    fn step(&self, state: &mut LaneState, _thread: usize, op: LaneOp) -> Result<(), String> {
        match op {
            LaneOp::Push(lane, value) => {
                let Some(p) = Priority::from_index(lane) else {
                    return Err(format!("script lane {lane} out of range"));
                };
                let real = match state.real.push(p, value) {
                    PushOutcome::Enqueued => ModelPush::Enqueued,
                    PushOutcome::Saturated(v) if v == value => ModelPush::Saturated,
                    PushOutcome::Rejected(v) if v == value => ModelPush::Rejected,
                    PushOutcome::Saturated(v) | PushOutcome::Rejected(v) => {
                        return Err(format!("push({lane}, {value}) handed back wrong item {v}"))
                    }
                };
                let model = state.model.push(lane, value);
                agree(format_args!("push({lane}, {value})"), real, model)?;
            }
            LaneOp::TryPop => agree(
                "try_pop (lane, item)",
                state.real.try_pop().map(|(p, v)| (p.index(), v)),
                state.model.try_pop(),
            )?,
            LaneOp::TryPopBatch(max) => agree(
                format_args!("try_pop_batch({max})"),
                state.real.try_pop_batch(max).map(|(p, b)| (p.index(), b)),
                state.model.try_pop_batch(max),
            )?,
            LaneOp::PopBatch(max) => {
                if state.model.is_empty() && !state.model.is_shutdown() {
                    // Would block with no co-runner to wake it; the
                    // blocking path is exercised by the queue's own
                    // cross-thread unit test. The spec never hands out
                    // an empty batch, so agreeing with it rules one out.
                    return Ok(());
                }
                agree(
                    format_args!("pop_batch({max})"),
                    state
                        .real
                        .pop_batch(max, Duration::ZERO)
                        .map(|(p, b)| (p.index(), b)),
                    state.model.try_pop_batch(max),
                )?;
            }
            LaneOp::Shutdown => {
                state.real.shutdown();
                state.model.shutdown();
            }
        }
        for p in Priority::ALL {
            let (real, model) = (state.real.lane_len(p), state.model.lane_len(p.index()));
            agree(format_args!("lane {p:?} len after {op:?}"), real, model)?;
        }
        Ok(())
    }

    fn finish(&self, state: &mut LaneState) -> Result<(), String> {
        // Drain both sides completely, still in lock-step — so a lane
        // the real queue never serves (starvation) diverges here or in
        // the conservation check.
        loop {
            let real = state.real.try_pop().map(|(p, v)| (p.index(), v));
            let drained = real.is_none();
            agree("drain", real, state.model.try_pop())?;
            if drained {
                return state.model.check_conservation();
            }
        }
    }
}

/// The lane suite.
pub fn lane_rows() -> Vec<Row<Lanes>> {
    use LaneOp::*;
    vec![
        // Three producers (one per lane) racing one popper through the
        // default [8, 4, 1] weighting — every interleaving of 9 ops
        // (1680). Every pop's lane choice is cross-checked.
        row(
            lanes(4, [8, 4, 1]),
            EXH,
            random(60, 41),
            vec![
                vec![Push(0, 100), Push(0, 101), Push(0, 102)],
                vec![Push(2, 300), Push(2, 301), Push(2, 302)],
                vec![TryPop, TryPop, TryPop],
            ],
        ),
        // Per-lane saturation + shutdown against batched popping,
        // capacity 1 per lane (560 interleavings).
        row(
            lanes(1, [4, 2, 1]),
            EXH,
            random(60, 42),
            vec![
                vec![Push(0, 1), Push(0, 2), Push(1, 3)],
                vec![Push(2, 10), Push(2, 11), Shutdown],
                vec![TryPopBatch(2), TryPopBatch(2)],
            ],
        ),
        // Blocking pop_batch vs producers + shutdown (210 interleavings):
        // batches must stay lane-pure under every arrival order.
        row(
            lanes(4, [2, 2, 2]),
            EXH,
            EXH,
            vec![
                vec![Push(1, 7), Push(2, 8), Shutdown],
                vec![Push(0, 9), Push(0, 10)],
                vec![PopBatch(3), PopBatch(3)],
            ],
        ),
        // A deep two-producer burst (4 interactive + 4 bulk pushes)
        // against a 3-pop consumer (11550 interleavings): every arrival
        // order of the two bursts meets every pop.
        row(
            lanes(4, [8, 4, 1]),
            EXH,
            random(150, 43),
            vec![
                vec![Push(0, 1), Push(0, 2), Push(0, 3), Push(0, 4)],
                vec![Push(2, 21), Push(2, 22), Push(2, 23), Push(2, 24)],
                vec![TryPop, TryPopBatch(2), TryPop],
            ],
        ),
        // A larger mixed workload: pushers on every lane, mixed poppers,
        // a late shutdown. Too many interleavings to enumerate.
        row(
            lanes(3, [4, 2, 1]),
            random(4000, 0x1A4E5),
            random(200, 0x1A4E5),
            vec![
                vec![Push(0, 1), Push(1, 2), Push(0, 3), Push(2, 4), Push(0, 5)],
                vec![Push(2, 21), Push(2, 22), Push(1, 23), Push(2, 24)],
                vec![TryPop, TryPopBatch(2), TryPop, TryPopBatch(3), TryPop],
                vec![PopBatch(2), TryPop, PopBatch(2)],
                vec![Push(1, 31), Push(0, 32), Shutdown],
            ],
        ),
    ]
}

// ---------------------------------------------------------------------
// Quota
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

/// Real table + per-tenant shadow buckets for one interleaving.
pub struct QuotaState {
    real: QuotaTable,
    model: HashMap<u64, QuotaModel>,
}

impl Subject for QuotaConfig {
    type Op = QuotaOp;
    type State = QuotaState;
    const NAME: &'static str = "serve::quota";

    fn init(real: &QuotaConfig, _spec: &QuotaConfig, _threads: usize) -> QuotaState {
        QuotaState {
            real: QuotaTable::new(*real),
            model: HashMap::new(),
        }
    }

    fn step(&self, state: &mut QuotaState, _thread: usize, op: QuotaOp) -> Result<(), String> {
        let real = state.real.try_take_at(op.tenant, op.now_ns);
        let bucket = state
            .model
            .entry(op.tenant)
            .or_insert_with(|| QuotaModel::new(self.rate_per_sec, self.burst, op.now_ns));
        let what = format_args!("try_take_at(tenant {}, {} ns)", op.tenant, op.now_ns);
        agree(what, real, bucket.try_take(op.now_ns))
    }

    fn finish(&self, state: &mut QuotaState) -> Result<(), String> {
        agree("tenant count", state.real.tenants(), state.model.len())?;
        for (tenant, bucket) in &state.model {
            bucket
                .check_conservation()
                .map_err(|e| format!("tenant {tenant}: {e}"))?;
        }
        Ok(())
    }
}

/// `try_take_at(tenant, now_ns)` as a script op.
fn take(tenant: u64, now_ns: u64) -> QuotaOp {
    QuotaOp { tenant, now_ns }
}

/// A [`QuotaConfig`].
fn quota(rate_per_sec: u64, burst: u64) -> QuotaConfig {
    QuotaConfig {
        rate_per_sec,
        burst,
    }
}

/// One millisecond of logical clock.
const MS: u64 = 1_000_000;

/// The quota suite.
pub fn quota_rows() -> Vec<Row<QuotaConfig>> {
    vec![
        // Two tenants, three threads with overlapping clock ranges:
        // every interleaving delivers a different (often non-monotonic)
        // clock sequence to each bucket (1680). Rate 100/s, burst 2:
        // refills land mid-script (one token per 10 ms).
        row(
            quota(100, 2),
            EXH,
            random(80, 51),
            vec![
                vec![take(1, 0), take(1, 5 * MS), take(1, 30 * MS)],
                vec![take(1, 10 * MS), take(2, 0), take(2, MS)],
                vec![take(2, 20 * MS), take(1, 15 * MS), take(2, 2 * MS)],
            ],
        ),
        // Two single-tenant burst threads against one cross-tenant
        // prober (34650 interleavings of (4, 4, 4)). The prober's clocks
        // land *inside* the bursts' refill windows, so where its takes
        // fall among the bursts changes the admit/deny history.
        row(
            quota(100, 2),
            EXH,
            random(150, 53),
            vec![
                vec![
                    take(1, 0),
                    take(1, 4 * MS),
                    take(1, 25 * MS),
                    take(1, 12 * MS),
                ],
                vec![
                    take(2, 10 * MS),
                    take(2, 0),
                    take(2, 18 * MS),
                    take(2, 40 * MS),
                ],
                vec![
                    take(1, 8 * MS),
                    take(3, 0),
                    take(3, 15 * MS),
                    take(2, 22 * MS),
                ],
            ],
        ),
        // Heavier churn: four tenants, dense takes, clocks that jump
        // both ways.
        row(
            quota(1000, 3),
            random(4000, 0x900A),
            random(200, 0x900A),
            (0..4u64)
                .map(|t| {
                    (0..6)
                        .map(|k| take(1 + (t + k) % 4, (k * 7 + t * 3) * MS))
                        .collect()
                })
                .collect(),
        ),
    ]
}

// ---------------------------------------------------------------------
// Cache
// ---------------------------------------------------------------------

/// A [`PatchCache`] configuration over small integer keys.
#[derive(Debug, Clone)]
pub struct Cache {
    /// Cache capacity.
    pub capacity: usize,
    /// Pre-built keys, indexed by the small-key id (so per-interleaving
    /// init does no hashing work).
    keys: Vec<PatchKey>,
}

impl Cache {
    /// A cache of `capacity` entries over key ids `0..=max_key`.
    pub fn new(capacity: usize, max_key: u64) -> Cache {
        let keys = (0..=max_key)
            .map(|k| PatchKey::new(0, 0, &Tensor::from_vec(Shape::d1(1), vec![k as f32])))
            .collect();
        Cache { capacity, keys }
    }

    fn key(&self, k: u64) -> Result<&PatchKey, String> {
        self.keys
            .get(k as usize)
            .ok_or_else(|| format!("script key {k} out of range (bad script)"))
    }
}

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

/// The cached value for key `k` — deterministic so hits are checkable.
fn cache_value(k: u64) -> Tensor<f32> {
    Tensor::from_vec(Shape::d1(1), vec![(k * 10 + 7) as f32])
}

/// Real cache + shadow model for one interleaving.
pub struct CacheState {
    real: PatchCache,
    model: LruModel,
}

impl Subject for Cache {
    type Op = CacheOp;
    type State = CacheState;
    const NAME: &'static str = "serve::cache";

    fn init(real: &Cache, spec: &Cache, _threads: usize) -> CacheState {
        CacheState {
            real: PatchCache::new(real.capacity),
            model: LruModel::new(spec.capacity),
        }
    }

    fn step(&self, state: &mut CacheState, _thread: usize, op: CacheOp) -> Result<(), String> {
        match op {
            CacheOp::Get(k) => {
                let real = state.real.get(self.key(k)?);
                let model = state.model.get(k);
                agree(
                    format_args!("get({k}) hit"),
                    real.is_some(),
                    model.is_some(),
                )?;
                if let (Some(t), Some(v)) = (real, model) {
                    agree(format_args!("get({k}) value"), t, cache_value(v))?;
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
        agree(
            format_args!("(len, hits, misses) after {op:?}"),
            (state.real.len(), state.real.hits(), state.real.misses()),
            (state.model.len(), state.model.hits, state.model.misses),
        )
    }

    fn finish(&self, state: &mut CacheState) -> Result<(), String> {
        // Final sweep: every key agrees on hit/miss.
        for k in 0..self.keys.len() as u64 {
            let real = state.real.get(self.key(k)?).is_some();
            agree(
                format_args!("final sweep: key {k} hit"),
                real,
                state.model.get(k).is_some(),
            )?;
        }
        Ok(())
    }
}

/// The cache suite.
pub fn cache_rows() -> Vec<Row<Cache>> {
    use CacheOp::*;
    vec![
        // Capacity-2 cache, three threads contending on four keys with
        // an eviction-heavy mix (1680 interleavings).
        row(
            Cache::new(2, 4),
            EXH,
            random(80, 21),
            vec![
                vec![Insert(0), Get(0), Insert(1)],
                vec![Insert(2), Get(1), Get(2)],
                vec![Get(0), Insert(3), Get(3)],
            ],
        ),
        // Bigger key space + clears.
        row(
            Cache::new(3, 4),
            random(4000, 0xCAC4E),
            random(200, 0xCAC4E),
            vec![
                vec![Insert(0), Insert(1), Insert(2), Get(0), Get(1)],
                vec![Get(2), Insert(3), Get(3), Insert(4), Get(4)],
                vec![Insert(1), Get(1), Clear, Insert(0), Get(0)],
                vec![Get(4), Get(0), Insert(2), Get(2)],
            ],
        ),
    ]
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

/// A [`ModelRegistry`] holding constant-weight checkpoints, one
/// constant per name — the torn-swap detector.
#[derive(Clone)]
pub struct Registry {
    names: Vec<String>,
    /// Per-name checkpoint, every weight filled with the name's constant.
    checkpoints: Vec<ModelCheckpoint>,
}

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

impl Registry {
    /// A registry over `names.len()` constant-weight checkpoints; name
    /// `i`'s weights are all `i + 1`.
    pub fn new(names: &[&str]) -> Registry {
        let cfg = AdarNetConfig {
            ph: 8,
            pw: 8,
            seed: 1,
            ..AdarNetConfig::default()
        };
        let base = adarnet_core::checkpoint::snapshot(&AdarNet::new(cfg), &NormStats::identity());
        let checkpoints = (1..=names.len())
            .map(|c| {
                let mut ckpt = base.clone();
                for t in ckpt.scorer.iter_mut().chain(ckpt.decoder.iter_mut()) {
                    t.as_mut_slice().fill(c as f32);
                }
                ckpt
            })
            .collect();
        Registry {
            names: names.iter().map(|s| s.to_string()).collect(),
            checkpoints,
        }
    }

    /// `Ok` if every weight of `ckpt` is `name`'s constant; anything
    /// else is a torn (half-swapped) checkpoint.
    fn untorn(&self, ckpt: &ModelCheckpoint, name: &str) -> Result<(), String> {
        let Some(i) = self.names.iter().position(|n| n == name) else {
            return Err(format!("{name:?} was never registered"));
        };
        let c = (i + 1) as f32;
        let uniform = (ckpt.scorer.iter().chain(&ckpt.decoder))
            .all(|t| t.as_slice().iter().all(|&v| (v - c).abs() < f32::EPSILON));
        if uniform {
            Ok(())
        } else {
            Err(format!("torn weights: {name:?} is not uniformly {c}"))
        }
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

impl Subject for Registry {
    type Op = RegistryOp;
    type State = RegistryState;
    const NAME: &'static str = "serve::registry";

    fn init(real: &Registry, _spec: &Registry, threads: usize) -> RegistryState {
        let registry = ModelRegistry::new();
        for (name, ckpt) in real.names.iter().zip(&real.checkpoints) {
            registry.register(name.clone(), ckpt.clone());
        }
        RegistryState {
            real: registry,
            model: RegistryModel::new(),
            held: vec![None; threads],
            last_shared: None,
        }
    }

    fn step(&self, state: &mut RegistryState, thread: usize, op: RegistryOp) -> Result<(), String> {
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
                agree(format_args!("activate({name}) generation"), real, model)?;
            }
            RegistryOp::ReadActive => {
                let real = state.real.active();
                let active = real.as_ref().map(|a| (a.generation, a.name.clone()));
                agree(
                    "active (generation, name)",
                    active,
                    state.model.active.clone(),
                )?;
                if let Some(a) = real {
                    self.untorn(&a.checkpoint, &a.name)
                        .map_err(|e| format!("active checkpoint: {e}"))?;
                }
            }
            RegistryOp::Shared => {
                let shared = state.real.shared_with(Precision::F32);
                let Some((model_generation, model_name)) = state.model.active.clone() else {
                    return match shared {
                        Ok(_) => Err("shared succeeded with no active model".into()),
                        Err(_) => Ok(()),
                    };
                };
                let (generation, engine) =
                    shared.map_err(|e| format!("shared failed with an active model: {e}"))?;
                agree("shared generation", generation, model_generation)?;
                self.untorn(&engine.checkpoint(), &model_name)
                    .map_err(|e| format!("shared engine at generation {generation}: {e}"))?;
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
                self.untorn(&engine.checkpoint(), name).map_err(|e| {
                    format!("in-flight engine from generation {generation} after a hot swap: {e}")
                })?;
            }
        }
        let (real, model) = (state.real.generation(), state.model.generation);
        agree(format_args!("generation after {op:?}"), real, model)
    }

    fn finish(&self, state: &mut RegistryState) -> Result<(), String> {
        // The final published model must be the last linearized
        // activation.
        let real = state.real.active().map(|a| (a.generation, a.name.clone()));
        agree("final active model", real, state.model.active.clone())
    }
}

/// The registry suite.
pub fn registry_rows() -> Vec<Row<Registry>> {
    use RegistryOp::*;
    vec![
        // Two activators racing a reader (210 interleavings) — the
        // scenario that catches the generation-outside-lock race the fix
        // in `ModelRegistry::activate` addresses.
        row(
            Registry::new(&["a", "b", "c"]),
            EXH,
            EXH,
            vec![
                vec![Activate(0), Activate(2)],
                vec![Activate(1), ReadActive],
                vec![ReadActive, Shared, UseHeld],
            ],
        ),
        // Longer churn with a shared-engine fetch in the mix.
        row(
            Registry::new(&["a", "b"]),
            random(2000, 0x9E6),
            random(100, 0x9E6),
            vec![
                vec![Activate(0), Activate(1), Activate(0), ReadActive],
                vec![ReadActive, Activate(1), ReadActive, Activate(0)],
                vec![ReadActive, Shared, UseHeld, ReadActive],
            ],
        ),
        // Hot swap under shared engines: a swapper races two "workers"
        // that fetch the shared engine and then keep using it — every
        // interleaving of fetch vs. activate vs. in-flight use (210). The
        // `UseHeld` steps after an `Activate` are the
        // in-flight-batch-completes-on-old-generation guarantee.
        row(
            Registry::new(&["a", "b"]),
            EXH,
            EXH,
            vec![
                vec![Activate(0), Activate(1)],
                vec![Shared, UseHeld, Shared],
                vec![Shared, UseHeld],
            ],
        ),
        // Churn mixing swaps, shared fetches, and in-flight re-use across
        // three worker threads.
        row(
            Registry::new(&["a", "b", "c"]),
            random(1500, 0x5A4ED),
            random(80, 0x5A4ED),
            vec![
                vec![Activate(0), Activate(1), Activate(2), Activate(0)],
                vec![Shared, UseHeld, Shared, UseHeld],
                vec![Shared, UseHeld, UseHeld, Shared],
                vec![ReadActive, Shared, UseHeld, ReadActive],
            ],
        ),
    ]
}

// ---------------------------------------------------------------------
// Tail sampler
// ---------------------------------------------------------------------

/// A [`TailSampler`] configuration.
#[derive(Debug, Clone, Copy)]
pub struct Sampler {
    /// Slowest traces retained per window.
    pub slow_cap: usize,
    /// Errored traces retained (newest-wins ring).
    pub error_cap: usize,
    /// Offers per sampling window.
    pub window: u64,
}

/// A [`Sampler`] configuration.
fn sampler(slow_cap: usize, error_cap: usize, window: u64) -> Sampler {
    Sampler {
        slow_cap,
        error_cap,
        window,
    }
}

/// One scripted sampler operation: offer a finished trace with this
/// end-to-end latency, error flag and batch key.
#[derive(Debug, Clone, Copy)]
pub struct Offer {
    /// End-to-end latency of the offered trace.
    pub e2e_ns: u64,
    /// Whether the offered trace errored.
    pub error: bool,
    /// The micro-batch of the offered trace, if any.
    pub batch: Option<u64>,
}

/// An offer outside any batch as a script op.
fn offer(e2e_ns: u64, error: bool) -> Offer {
    Offer {
        e2e_ns,
        error,
        batch: None,
    }
}

/// An offer of micro-batch `batch` as a script op.
fn batched(e2e_ns: u64, error: bool, batch: u64) -> Offer {
    Offer {
        batch: Some(batch),
        ..offer(e2e_ns, error)
    }
}

/// Real sampler + shadow history for one interleaving.
pub struct SamplerState {
    real: TailSampler,
    model: SamplerModel,
}

impl Subject for Sampler {
    type Op = Offer;
    type State = SamplerState;
    const NAME: &'static str = "obs::sampler";

    fn init(real: &Sampler, spec: &Sampler, _threads: usize) -> SamplerState {
        SamplerState {
            real: TailSampler::new(real.slow_cap, real.error_cap, real.window),
            model: SamplerModel::new(spec.slow_cap, spec.error_cap, spec.window),
        }
    }

    fn step(&self, state: &mut SamplerState, _thread: usize, op: Offer) -> Result<(), String> {
        let seq = state.model.offers();
        let retained = state.real.offer(FinishedTrace {
            trace_id: seq + 1,
            batch: op.batch,
            started_unix_us: 0,
            e2e_ns: op.e2e_ns,
            error: op.error,
            dropped_spans: 0,
            spans: Vec::new(),
        });
        state.model.offer_in(op.e2e_ns, op.error, op.batch);
        let expected = state.model.expected();
        agree(
            format_args!("offer {seq} {op:?} retained"),
            retained,
            expected.contains(&seq),
        )?;
        let kept: Vec<u64> = state.real.snapshot().iter().map(|r| r.offer_seq).collect();
        agree(format_args!("snapshot after offer {seq}"), kept, expected)
    }

    fn finish(&self, state: &mut SamplerState) -> Result<(), String> {
        agree("sampler offers", state.real.offers(), state.model.offers())
    }
}

/// The tail sampler suite.
pub fn sampler_rows() -> Vec<Row<Sampler>> {
    vec![
        // Three requesters finishing four traces each into one sampler
        // of two slow slots per four-offer window: every window rolls
        // with a shelf behind it, equal latencies across threads tie
        // (the earliest offer must keep its slot), the requests of one
        // batch share a slot whichever thread finishes them, and five
        // errors overrun a two-entry ring (34650 interleavings for
        // (4,4,4)).
        row(
            sampler(2, 2, 4),
            EXH,
            random(150, 0x5A3B1E),
            vec![
                vec![
                    offer(30, false),
                    offer(10, true),
                    batched(50, false, 1),
                    offer(20, false),
                ],
                vec![
                    batched(30, false, 2),
                    batched(40, false, 1),
                    offer(10, true),
                    offer(50, true),
                ],
                vec![
                    offer(20, true),
                    batched(50, false, 1),
                    batched(30, false, 2),
                    offer(10, true),
                ],
            ],
        ),
        // One slow slot rolling every second offer: the shelf turns
        // over on nearly every step.
        row(
            sampler(1, 1, 2),
            EXH,
            EXH,
            vec![
                vec![offer(5, false), offer(9, true), offer(5, false)],
                vec![offer(7, false), offer(5, false), offer(9, false)],
            ],
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::lint_source;
    use crate::sched::explore_exhaustive;
    use adarnet_core::sync;
    use std::path::Path;
    use std::sync::Mutex;

    #[test]
    fn small_budget_suites_pass() {
        // Every small-budget exhaustive row (lanes' blocking pops, both
        // registry hot-swap shapes, the rolling sampler shelf) runs in
        // full here too.
        for (name, stats) in run_all(Budget::Small) {
            assert!(
                stats.violations.is_empty(),
                "{name}: {:?}",
                stats.violations
            );
            assert!(stats.interleavings() > 0, "{name} explored nothing");
        }
    }

    /// A script exhaustively explored.
    fn explore<S: Subject>(real: S, spec: S, threads: Vec<Vec<S::Op>>) -> SuiteStats {
        let mut stats = SuiteStats::default();
        let script = Script {
            real,
            spec,
            threads,
        };
        stats.explore(&script, Plan::Exhaustive);
        stats
    }

    #[test]
    fn oracles_catch_the_seeded_bugs() {
        use LaneOp::*;
        // Each script runs a real primitive configured unlike its spec;
        // DFS must catch it.
        let caught = |stats: SuiteStats, bug: &str| {
            assert!(!stats.violations.is_empty(), "seeded {bug} must be caught");
        };
        // Real weights favor bulk; the spec expects [4, 2, 1]. Some pop's
        // lane choice diverges, at the latest at drain time.
        let pushes = vec![
            vec![Push(0, 1), Push(0, 2), Push(0, 3)],
            vec![Push(2, 10), Push(2, 11), Push(2, 12)],
        ];
        caught(
            explore(lanes(8, [1, 1, 4]), lanes(8, [4, 2, 1]), pushes),
            "lane weights",
        );
        // Real lanes one slot smaller than the spec believes.
        let script = vec![vec![Push(0, 1), Push(0, 2)], vec![TryPop]];
        caught(
            explore(lanes(1, [8, 4, 1]), lanes(2, [8, 4, 1]), script),
            "lane capacity",
        );
        // A real table admitting at double the spec's rate: 100/s is one
        // token per 10 ms, so at 2× the 5 ms take after exhaustion is
        // wrongly admitted.
        let takes = vec![vec![take(1, 0), take(1, 5 * MS), take(1, 10 * MS)]];
        caught(
            explore(quota(200, 1), quota(100, 1), takes),
            "double-rate quota",
        );
        // A real sampler keeping one slow trace per window where the
        // spec keeps two: the second offer is dropped, not retained.
        let offers = vec![vec![offer(10, false)], vec![offer(20, false)]];
        caught(
            explore(sampler(1, 1, 4), sampler(2, 1, 4), offers),
            "undersized slow shelf",
        );
    }

    /// Deliberate lock-order inversion: thread 0 nests `a` then `b`,
    /// thread 1 nests `b` then `a`. The mini-loom serializes steps so
    /// no schedule actually deadlocks; the inner acquisitions are
    /// nested, and that is what must be flagged.
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

    /// The violation every schedule of `scenario` must report: a nested
    /// acquisition named by its call site in this file.
    fn assert_nested_caught(scenario: &impl Scenario) {
        let r = explore_exhaustive(scenario);
        assert_eq!(
            r.violations.len() as u64,
            r.interleavings,
            "every schedule nests"
        );
        let v = &r.violations[0];
        assert!(
            v.message.contains("nested sync acquisition"),
            "{}",
            v.message
        );
        assert!(v.message.contains(file!()), "names the site: {}", v.message);
        assert!(!v.trace.is_empty(), "violation must carry a schedule");
    }

    #[test]
    fn nested_acquisition_flags_a_seeded_lock_inversion() {
        assert_nested_caught(&InvertedLocks);
    }

    /// Items compiled as written and also kept as text, so a test can
    /// lint the very code a scenario runs.
    macro_rules! with_source {
        ($($item:item)*) => {
            $($item)*
            const CROSS_FUNCTION_SOURCE: &str = stringify!($($item)*);
        };
    }

    with_source! {
        fn bump(counter: &Mutex<u64>) {
            *sync::lock(counter) += 1;
        }

        fn bump_under_guard(state: &(Mutex<u64>, Mutex<u64>)) {
            let _outer = sync::lock(&state.0);
            bump(&state.1);
        }
    }

    /// A step that calls a helper which locks while the caller holds a
    /// guard: no one function nests two acquisitions.
    struct CrossFunctionNesting;
    impl Scenario for CrossFunctionNesting {
        type State = (Mutex<u64>, Mutex<u64>);
        fn name(&self) -> &'static str {
            "seeded-cross-function-nesting"
        }
        fn thread_ops(&self) -> Vec<usize> {
            vec![1, 1]
        }
        fn init(&self) -> Self::State {
            (Mutex::new(0), Mutex::new(0))
        }
        fn step(&self, state: &mut Self::State, thread: usize, _op: usize) -> Result<(), String> {
            if thread == 0 {
                bump_under_guard(state);
            } else {
                bump(&state.1);
            }
            Ok(())
        }
        fn finish(&self, _: &mut Self::State) -> Result<(), String> {
            Ok(())
        }
    }

    #[test]
    fn nested_acquisition_across_a_call_is_caught_where_the_lint_is_blind() {
        let lexical = lint_source(Path::new("x.rs"), CROSS_FUNCTION_SOURCE, |_| true);
        assert!(lexical.is_empty(), "the lint cannot see it: {lexical:?}");
        assert_nested_caught(&CrossFunctionNesting);
    }
}
