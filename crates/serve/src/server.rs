//! The inference server: priority lanes → quota-gated admission →
//! micro-batcher → decoder workers, with typed load shedding, deadline
//! brownouts, and hot-swap awareness.
//!
//! Requests enter a three-lane [`LaneQueue`] (interactive / standard /
//! bulk, weighted deficit pickup — see `lanes.rs` for the scheduling
//! spec). Admission runs a small state machine *before* anything is
//! queued:
//!
//! 1. **deadline** — a request already past its deadline is answered
//!    immediately with the degraded bin-0 brownout response
//!    ([`RejectReason::DeadlineExceeded`]) instead of wasting a lane
//!    slot;
//! 2. **quota** — each tenant draws one token from its bucket
//!    ([`crate::quota::QuotaTable`]); an empty bucket sheds the request
//!    ([`RejectReason::QuotaExceeded`]) so one tenant cannot consume
//!    another's queue capacity;
//! 3. **lane push** — a full lane sheds ([`RejectReason::QueueFull`]),
//!    a shut-down server sheds ([`RejectReason::Shutdown`]). Every
//!    reject path is *typed* and increments its own obs counter — no
//!    reason is ever lumped with another.
//!
//! Every worker thread shares **one** frozen engine
//! (`Arc<InferenceEngine>` from [`ModelRegistry::shared_with`]) — one
//! resident weight copy regardless of worker count; a worker pops one
//! lane-pure batch, lingers up to `max_linger` for more arrivals from
//! the same lane, drops any request whose deadline expired while
//! queued (answered with the brownout, not silently shed), and runs the
//! survivors through [`crate::batch::infer_cached`] so same-bin patches
//! from concurrent requests share decoder batches. A hot swap is an
//! `Arc` swap: workers re-fetch the shared engine at the next batch
//! boundary, and a batch in flight during the swap completes on the old
//! generation's weights (its `Arc` keeps them alive). Inference errors
//! (e.g. NaN scores from a bad checkpoint) degrade the affected
//! requests instead of killing the worker — no path in this module
//! panics (the in-repo lint enforces it; the model checker in
//! `crates/check` exercises the lane/quota/cache/registry
//! interleavings).

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use adarnet_core::loss::NormStats;
use adarnet_core::network::{AdarNetConfig, Prediction};
use adarnet_core::sync;
use adarnet_obs::trace::{self, TraceCtx};
use adarnet_tensor::Tensor;

use crate::batch::{degraded_prediction, infer_cached};
use crate::cache::PatchCache;
use crate::config::ServeConfig;
use crate::lanes::{LaneQueue, Priority, PushOutcome};
use crate::quota::TenantMap;
use crate::registry::{ModelRegistry, RegistryError};

/// Why a request was not served in full. Carried in the response (and
/// on the wire by `crates/net`) so clients can distinguish "slow down"
/// from "shrink your deadline" from "the server is going away".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The request's lane was at capacity.
    QueueFull,
    /// The tenant's token bucket was empty at admission.
    QuotaExceeded,
    /// The deadline had passed — at admission or while queued.
    DeadlineExceeded,
    /// The server is shutting down.
    Shutdown,
    /// Inference failed for the batch carrying this request.
    InferenceError,
}

impl RejectReason {
    /// Stable wire/report tag.
    pub fn as_str(self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue_full",
            RejectReason::QuotaExceeded => "quota_exceeded",
            RejectReason::DeadlineExceeded => "deadline_exceeded",
            RejectReason::Shutdown => "shutdown",
            RejectReason::InferenceError => "inference_error",
        }
    }
}

/// Why a response is what it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseKind {
    /// Full ADARNet inference.
    Full,
    /// Bin-0 fallback because the request's lane was saturated.
    ShedQueueFull,
    /// Bin-0 fallback because inference failed for this batch.
    ShedInferenceError,
    /// Bin-0 fallback because the tenant exceeded its quota.
    ShedQuota,
    /// Bin-0 fallback because the server is shutting down.
    ShedShutdown,
    /// Bin-0 brownout because the deadline passed before inference
    /// could start — answered, never silently dropped.
    BrownoutDeadline,
}

impl ResponseKind {
    /// Whether this response was degraded rather than fully inferred.
    pub fn is_degraded(&self) -> bool {
        !matches!(self, ResponseKind::Full)
    }

    /// The typed reject reason, `None` for a full response.
    pub fn reject_reason(&self) -> Option<RejectReason> {
        match self {
            ResponseKind::Full => None,
            ResponseKind::ShedQueueFull => Some(RejectReason::QueueFull),
            ResponseKind::ShedInferenceError => Some(RejectReason::InferenceError),
            ResponseKind::ShedQuota => Some(RejectReason::QuotaExceeded),
            ResponseKind::ShedShutdown => Some(RejectReason::Shutdown),
            ResponseKind::BrownoutDeadline => Some(RejectReason::DeadlineExceeded),
        }
    }
}

/// Per-request admission options. [`Default`] is the pre-lane behavior:
/// standard lane, tenant 0, no deadline.
#[derive(Debug, Clone, Copy)]
pub struct SubmitOptions {
    /// Which lane the request rides (ignored under
    /// [`ServeConfig::fifo_only`], which maps everything to standard).
    pub priority: Priority,
    /// Tenant id for quota accounting and per-tenant counters.
    pub tenant: u64,
    /// Absolute deadline; past it, the request is answered with the
    /// degraded brownout instead of being inferred.
    pub deadline: Option<Instant>,
    /// Trace context for per-request attribution (DESIGN.md §16).
    /// `None` = untraced: the request pays one branch per span site
    /// and nothing else.
    pub trace: Option<TraceCtx>,
}

impl Default for SubmitOptions {
    fn default() -> Self {
        SubmitOptions {
            priority: Priority::Standard,
            tenant: 0,
            deadline: None,
            trace: None,
        }
    }
}

/// One answered request.
pub struct ServeResponse {
    /// The (possibly degraded) prediction, in normalized units.
    pub prediction: Prediction,
    /// Full or degraded, and why.
    pub kind: ResponseKind,
    /// Server-side latency from submission to completion.
    pub latency: Duration,
    /// Model generation that served the request (0 for shed responses
    /// answered without touching the model).
    pub generation: u64,
    /// Lane the request was admitted to.
    pub priority: Priority,
    /// Trace id the request carried (0 = untraced). The span tree, if
    /// the tail sampler retained it, is served on the admin endpoint's
    /// `/traces` under this id.
    pub trace_id: u64,
}

struct Job {
    field: Tensor<f32>,
    submitted: Instant,
    deadline: Option<Instant>,
    tenant: u64,
    priority: Priority,
    trace: Option<TraceCtx>,
    reply: Sender<ServeResponse>,
}

/// Point-in-time view of the server's monotone counters, taken by
/// [`Server::stats`] behind an acquire fence. The per-server cells are
/// the exact source of truth (the process-global obs registry mirrors
/// them for fleet dashboards, but multiple servers in one process — the
/// test suite, notably — share that registry).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Fully served requests.
    pub completed: u64,
    /// Requests shed at submission (lane full).
    pub shed_queue_full: u64,
    /// Requests degraded because inference errored.
    pub shed_inference_error: u64,
    /// Requests shed at admission because the tenant's bucket was empty.
    pub shed_quota: u64,
    /// Requests shed because the server was shutting down.
    pub shed_shutdown: u64,
    /// Requests answered with the deadline brownout (at admission or
    /// after queueing).
    pub brownout_deadline: u64,
    /// Decoder micro-batches dispatched.
    pub batches: u64,
    /// Requests carried by those batches (batches ≤ this; the ratio is
    /// the achieved batching factor).
    pub batched_requests: u64,
    /// Shared-engine swaps observed by workers after hot swaps.
    pub engine_swaps: u64,
    /// Fully served requests per lane (interactive/standard/bulk).
    pub completed_per_lane: [u64; 3],
}

impl ServeStats {
    /// Total degraded responses.
    pub fn shed_total(&self) -> u64 {
        self.shed_queue_full
            + self.shed_inference_error
            + self.shed_quota
            + self.shed_shutdown
            + self.brownout_deadline
    }
}

/// One server counter: a cell of [`StatsCells`] and, for all but the
/// per-lane completions, the process-global counter mirroring it.
#[derive(Clone, Copy)]
enum Stat {
    Completed,
    ShedQueueFull,
    ShedInferenceError,
    ShedQuota,
    ShedShutdown,
    BrownoutDeadline,
    Batches,
    BatchedRequests,
    EngineSwaps,
    CompletedInteractive,
    CompletedStandard,
    CompletedBulk,
}

/// Number of [`Stat`]s (the last variant's index, plus one).
const STATS: usize = Stat::CompletedBulk as usize + 1;

impl Stat {
    /// The obs counter this stat mirrors into.
    fn mirror(self) -> Option<&'static str> {
        Some(match self {
            Stat::Completed => "serve_completed_total",
            Stat::ShedQueueFull => "serve_shed_queue_full_total",
            Stat::ShedInferenceError => "serve_shed_inference_error_total",
            Stat::ShedQuota => "serve_shed_quota_total",
            Stat::ShedShutdown => "serve_shed_shutdown_total",
            Stat::BrownoutDeadline => "serve_brownout_deadline_total",
            Stat::Batches => "serve_batches_total",
            Stat::BatchedRequests => "serve_batched_requests_total",
            Stat::EngineSwaps => "serve_engine_swaps_total",
            Stat::CompletedInteractive | Stat::CompletedStandard | Stat::CompletedBulk => {
                return None
            }
        })
    }

    /// Requests fully served on `lane`.
    fn completed_on(lane: Priority) -> Stat {
        match lane {
            Priority::Interactive => Stat::CompletedInteractive,
            Priority::Standard => Stat::CompletedStandard,
            Priority::Bulk => Stat::CompletedBulk,
        }
    }
}

/// Internal counter cells, indexed by [`Stat`]. Increments use
/// `Release` so that a reader who synchronized with the incrementing
/// thread (e.g. joined it in `shutdown()`, or received its reply on a
/// channel) observes the count under the acquire fence in
/// [`StatsCells::snapshot`] — plain `Relaxed` loads right after
/// shutdown-drain could legally read stale values.
#[derive(Default)]
struct StatsCells([AtomicU64; STATS]);

impl StatsCells {
    /// Count `n` into `stat` and its mirror: the one writer of both.
    fn add(&self, stat: Stat, n: u64) {
        static MIRRORS: [OnceLock<Arc<adarnet_obs::Counter>>; STATS] =
            [const { OnceLock::new() }; STATS];
        self.0[stat as usize].fetch_add(n, Ordering::Release);
        if let Some(name) = stat.mirror() {
            MIRRORS[stat as usize]
                .get_or_init(|| adarnet_obs::registry().counter(name))
                .add(n);
        }
    }

    fn snapshot(&self) -> ServeStats {
        fence(Ordering::Acquire);
        let get = |stat: Stat| self.0[stat as usize].load(Ordering::Relaxed);
        ServeStats {
            completed: get(Stat::Completed),
            shed_queue_full: get(Stat::ShedQueueFull),
            shed_inference_error: get(Stat::ShedInferenceError),
            shed_quota: get(Stat::ShedQuota),
            shed_shutdown: get(Stat::ShedShutdown),
            brownout_deadline: get(Stat::BrownoutDeadline),
            batches: get(Stat::Batches),
            batched_requests: get(Stat::BatchedRequests),
            engine_swaps: get(Stat::EngineSwaps),
            completed_per_lane: [
                get(Stat::CompletedInteractive),
                get(Stat::CompletedStandard),
                get(Stat::CompletedBulk),
            ],
        }
    }
}

struct Shared {
    cfg: ServeConfig,
    queue: LaneQueue<Job>,
    quota: Option<crate::quota::QuotaTable>,
    registry: Arc<ModelRegistry>,
    cache: PatchCache,
    stats: StatsCells,
    /// Normalization and model config captured at startup, so shed
    /// paths can still answer if the registry is ever unreadable.
    startup_norm: NormStats,
    startup_cfg: AdarNetConfig,
}

impl Shared {
    /// Parameters for building a degraded response: the active model's
    /// if available, the startup snapshot otherwise.
    fn shed_params(&self) -> (NormStats, AdarNetConfig) {
        match self.registry.active() {
            Some(a) => (a.checkpoint.norm, model_cfg(&a.checkpoint)),
            None => (self.startup_norm, self.startup_cfg),
        }
    }

    /// Build, record, and send the degraded response for a rejected or
    /// browned-out job. Single funnel: every non-Full reply goes
    /// through here, so the typed counter bookkeeping cannot be
    /// skipped on any path.
    fn reject(&self, job: Job, kind: ResponseKind, norm: &NormStats, cfg: AdarNetConfig) {
        self.stats.add(
            match kind {
                ResponseKind::ShedQueueFull => Stat::ShedQueueFull,
                ResponseKind::ShedInferenceError => Stat::ShedInferenceError,
                ResponseKind::ShedQuota => Stat::ShedQuota,
                ResponseKind::ShedShutdown => Stat::ShedShutdown,
                ResponseKind::BrownoutDeadline | ResponseKind::Full => Stat::BrownoutDeadline,
            },
            1,
        );
        count_tenant(job.tenant, TenantEvent::Reject);
        let response = ServeResponse {
            prediction: degraded_prediction(norm, cfg, &job.field),
            kind,
            latency: job.submitted.elapsed(),
            generation: 0,
            priority: job.priority,
            trace_id: job.trace.map_or(0, |t| t.trace_id),
        };
        record_e2e(&response);
        // A rejected trace is always interesting: say why in one span
        // (reason tag, queue depth) and finish it errored so the tail
        // sampler retains it unconditionally.
        if let Some(ctx) = job.trace {
            if let Some(reason) = kind.reject_reason() {
                let depth = self.queue.len() as u64;
                trace::arena().record(ctx, reason.as_str(), 0, "queue_depth", depth);
            }
            trace::finish(ctx, response.latency.as_nanos() as u64, true);
        }
        // Overload and model failure warrant crash-forensics dumps
        // (rate-limited inside obs, and after the finish above so the
        // dump holds the trace that triggered it); policy rejections
        // (quota, deadline, shutdown) are normal operation.
        if matches!(
            kind,
            ResponseKind::ShedQueueFull | ResponseKind::ShedInferenceError
        ) {
            let _ = adarnet_obs::dump("load_shed", false);
        }
        let _ = job.reply.send(response);
    }
}

#[derive(Clone, Copy)]
enum TenantEvent {
    Admit,
    Reject,
    Brownout,
}

/// One tenant's `serve_tenant_{id}_{admit,reject,brownout}_total`
/// counters, indexed by [`TenantEvent`].
type TenantCounters = [Arc<adarnet_obs::Counter>; 3];

/// Count `event` for `tenant`. Tenant ids come off the wire, so only
/// the first [`crate::quota::MAX_TRACKED_TENANTS`] distinct ids get
/// counters of their own (named once, on first sight); every later id
/// counts into the one `serve_tenant_overflow_*` set, which bounds the
/// metrics registry whatever ids a peer cycles through.
fn count_tenant(tenant: u64, event: TenantEvent) {
    static TENANTS: OnceLock<Mutex<TenantMap<TenantCounters>>> = OnceLock::new();
    let mut tenants = sync::lock(TENANTS.get_or_init(Default::default));
    let counters = tenants.slot(tenant, |tracked| {
        let id = tracked.map_or_else(|| String::from("overflow"), |t| t.to_string());
        ["admit", "reject", "brownout"].map(|event| {
            adarnet_obs::registry().counter(&format!("serve_tenant_{id}_{event}_total"))
        })
    });
    counters[event as usize].inc();
}

/// Handle to a running inference service.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Start the service on the registry's active model. Fails if no
    /// model has been activated or its checkpoint cannot restore.
    pub fn start(cfg: ServeConfig, registry: Arc<ModelRegistry>) -> Result<Server, RegistryError> {
        // The panic-hook dump lives for the process's lifetime;
        // installing here means any embedding binary gets crash
        // forensics without its own obs::init() call.
        adarnet_obs::init();
        // Build the shared engine up front: a missing or corrupt active
        // model fails start() instead of panicking workers. Every worker
        // clones this one Arc — one resident weight copy.
        let (generation, engine) = registry.shared_with(cfg.default_precision)?;
        let (startup_norm, startup_cfg) = (*engine.norm(), engine.config());
        let shared = Arc::new(Shared {
            cache: PatchCache::new(cfg.cache_capacity),
            queue: LaneQueue::new(cfg.queue_capacity, cfg.lane_weights),
            quota: cfg.quota.map(crate::quota::QuotaTable::new),
            cfg,
            registry,
            stats: StatsCells::default(),
            startup_norm,
            startup_cfg,
        });
        let workers = (0..shared.cfg.workers.max(1))
            .map(|_| {
                let shared = shared.clone();
                let engine = engine.clone();
                std::thread::spawn(move || worker_loop(shared, generation, engine))
            })
            .collect();
        Ok(Server { shared, workers })
    }

    /// Submit one raw `(C, H, W)` LR field on the standard lane, tenant
    /// 0, no deadline — the pre-lane API, kept for in-process callers.
    pub fn submit(&self, field: Tensor<f32>) -> Receiver<ServeResponse> {
        self.submit_with(field, SubmitOptions::default())
    }

    /// Submit with explicit priority / tenant / deadline. Never blocks:
    /// every reject path answers immediately with a degraded bin-0
    /// response carrying a typed [`RejectReason`].
    pub fn submit_with(&self, field: Tensor<f32>, opts: SubmitOptions) -> Receiver<ServeResponse> {
        let (reply, rx) = mpsc::channel();
        let submitted = Instant::now();
        let priority = if self.shared.cfg.fifo_only {
            Priority::Standard
        } else {
            opts.priority
        };
        // Claim an arena slot before admission so rejected traces are
        // captured too. A saturated arena downgrades the request to
        // untraced rather than failing it.
        let traced = opts.trace.filter(|&ctx| trace::arena().start(ctx));
        let job = Job {
            field,
            submitted,
            deadline: opts.deadline,
            tenant: opts.tenant,
            priority,
            trace: traced,
            reply,
        };

        // Admission stage 1: already past deadline → brownout now, don't
        // waste a lane slot.
        if job.deadline.is_some_and(|d| submitted >= d) {
            let (norm, cfg) = self.shared.shed_params();
            self.shared
                .reject(job, ResponseKind::BrownoutDeadline, &norm, cfg);
            return rx;
        }

        // Admission stage 2: tenant token bucket.
        if let Some(quota) = &self.shared.quota {
            if !quota.try_take(job.tenant) {
                let (norm, cfg) = self.shared.shed_params();
                self.shared.reject(job, ResponseKind::ShedQuota, &norm, cfg);
                return rx;
            }
        }

        // Admission stage 3: the lane itself.
        count_tenant(job.tenant, TenantEvent::Admit);
        let (job, kind) = match self.shared.queue.push(priority, job) {
            PushOutcome::Enqueued => return rx,
            PushOutcome::Saturated(job) => (job, ResponseKind::ShedQueueFull),
            PushOutcome::Rejected(job) => (job, ResponseKind::ShedShutdown),
        };
        let (norm, cfg) = self.shared.shed_params();
        self.shared.reject(job, kind, &norm, cfg);
        rx
    }

    /// Submit and wait for the response (closed-loop clients). If a
    /// worker dies mid-batch and drops the reply channel, the caller
    /// gets a degraded response instead of a panic.
    pub fn submit_wait(&self, field: Tensor<f32>) -> ServeResponse {
        self.submit_wait_with(field, SubmitOptions::default())
    }

    /// [`Server::submit_wait`] with explicit admission options.
    pub fn submit_wait_with(&self, field: Tensor<f32>, opts: SubmitOptions) -> ServeResponse {
        let fallback = field.clone();
        let submitted = Instant::now();
        match self.submit_with(field, opts).recv() {
            Ok(response) => response,
            Err(_) => {
                self.shared.stats.add(Stat::ShedInferenceError, 1);
                let (norm, cfg) = self.shared.shed_params();
                let response = ServeResponse {
                    prediction: degraded_prediction(&norm, cfg, &fallback),
                    kind: ResponseKind::ShedInferenceError,
                    latency: submitted.elapsed(),
                    generation: 0,
                    priority: opts.priority,
                    trace_id: opts.trace.map_or(0, |t| t.trace_id),
                };
                record_e2e(&response);
                if let Some(ctx) = opts.trace {
                    trace::finish(ctx, response.latency.as_nanos() as u64, true);
                }
                response
            }
        }
    }

    /// Acquire-fenced snapshot of the server counters. Reading after
    /// [`Server::shutdown`] (which joins the workers) is guaranteed to
    /// observe every increment the workers made.
    pub fn stats(&self) -> ServeStats {
        self.shared.stats.snapshot()
    }

    /// Decoded-patch cache (for hit/miss reporting).
    pub fn cache(&self) -> &PatchCache {
        &self.shared.cache
    }

    /// Whether `field` matches the active model's input contract: a
    /// rank-3 `(C, H, W)` tensor with the configured channel count,
    /// extents the patch grid tiles, and only finite values. Callers
    /// handing the server externally-sourced fields (the wire front
    /// end) must check this before submitting — a mismatched field
    /// cannot even be answered degraded, because the bin-0 fallback
    /// extracts patches at the model's own geometry, and a non-finite
    /// one would come back as a well-formed prediction (ReLU and
    /// max-pool drop NaN; the layers' finite guards are debug-only).
    pub fn field_matches_model(&self, field: &Tensor<f32>) -> bool {
        let (_, cfg) = self.shared.shed_params();
        field.shape().rank() == 3
            && field.dim(0) == cfg.in_channels
            && field.dim(1) > 0
            && field.dim(2) > 0
            && field.dim(1).is_multiple_of(cfg.ph)
            && field.dim(2).is_multiple_of(cfg.pw)
            && field.all_finite()
    }

    /// Stop accepting work, drain the queue, and join the workers.
    /// Returns the final counter snapshot, which is exact: the joins
    /// synchronize with every worker's `Release` increments, so the
    /// acquire-fenced read cannot miss a count.
    pub fn shutdown(mut self) -> ServeStats {
        self.shared.queue.shutdown();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.shared.stats.snapshot()
    }
}

fn model_cfg(ckpt: &adarnet_core::checkpoint::ModelCheckpoint) -> AdarNetConfig {
    AdarNetConfig {
        in_channels: ckpt.in_channels,
        ph: ckpt.ph,
        pw: ckpt.pw,
        bins: ckpt.bins,
        seed: 0,
    }
}

/// Record a response's end-to-end latency (submission → reply) into
/// the aggregate `serve_e2e_ns` histogram every reply path shares, plus
/// the per-lane histogram (macro names must be literals, hence the
/// match). Traced responses also update the histogram's exemplar: the
/// trace id of the max-latency sample in the trace sampler's current
/// window, linking `/metrics` to `/traces`.
fn record_e2e(response: &ServeResponse) {
    let ns = response.latency.as_nanos() as u64;
    let trace_id = response.trace_id;
    adarnet_obs::histogram!("serve_e2e_ns").record_traced(ns, trace_id);
    match response.priority {
        Priority::Interactive => {
            adarnet_obs::histogram!("serve_e2e_interactive_ns").record_traced(ns, trace_id)
        }
        Priority::Standard => {
            adarnet_obs::histogram!("serve_e2e_standard_ns").record_traced(ns, trace_id)
        }
        Priority::Bulk => adarnet_obs::histogram!("serve_e2e_bulk_ns").record_traced(ns, trace_id),
    }
}

/// Per-lane queue-wait histogram (admission → batch pickup).
fn record_queue_wait(priority: Priority, ns: u64) {
    adarnet_obs::histogram!("serve_queue_wait_ns").record(ns);
    match priority {
        Priority::Interactive => {
            adarnet_obs::histogram!("serve_queue_wait_interactive_ns").record(ns)
        }
        Priority::Standard => adarnet_obs::histogram!("serve_queue_wait_standard_ns").record(ns),
        Priority::Bulk => adarnet_obs::histogram!("serve_queue_wait_bulk_ns").record(ns),
    }
}

fn worker_loop(
    shared: Arc<Shared>,
    mut generation: u64,
    mut engine: Arc<adarnet_core::engine::InferenceEngine>,
) {
    loop {
        // Batch assembly = blocking pop + linger window on the lane the
        // deficit scheduler picked. The span includes idle waiting by
        // design: under light load it reads as the arrival gap, under
        // heavy load it collapses toward zero.
        let assembly_start = Instant::now();
        let (lane, batch) = {
            let _span = adarnet_obs::span!("serve_batch_assembly");
            match shared
                .queue
                .pop_batch(shared.cfg.max_batch, shared.cfg.max_linger)
            {
                Some(picked) => picked,
                None => return, // shutdown and drained
            }
        };
        let assembly_ns = assembly_start.elapsed().as_nanos() as u64;
        let now = Instant::now();
        for job in &batch {
            let wait_ns = now.duration_since(job.submitted).as_nanos() as u64;
            record_queue_wait(lane, wait_ns);
            // Per-request attribution: the wait this job actually saw
            // and the assembly window that picked it up (shared by the
            // whole batch, recorded under each participating trace).
            if let Some(ctx) = job.trace {
                trace::arena().record(
                    ctx,
                    "serve_queue_wait",
                    wait_ns,
                    "lane",
                    lane.index() as u64,
                );
                // Capped at the job's own wait: the histogram keeps
                // the full window (idle-gap semantics), but a trace
                // must not be charged for idle time before its request
                // existed — uncapped, a first-after-idle trace shows an
                // assembly span longer than its entire e2e.
                trace::arena().record(
                    ctx,
                    "serve_batch_assembly",
                    assembly_ns.min(wait_ns),
                    "batch",
                    batch.len() as u64,
                );
            }
        }

        // Deadline sweep: anything that expired while queued gets the
        // brownout response now — answered, counted, never inferred.
        let (live, expired): (Vec<Job>, Vec<Job>) = batch
            .into_iter()
            .partition(|j| j.deadline.is_none_or(|d| now < d));
        if !expired.is_empty() {
            let (norm, cfg) = shared.shed_params();
            for job in expired {
                count_tenant(job.tenant, TenantEvent::Brownout);
                shared.reject(job, ResponseKind::BrownoutDeadline, &norm, cfg);
            }
        }
        if live.is_empty() {
            continue;
        }
        let batch = live;

        // Hot swap: re-fetch the shared engine when the registry moved
        // on. The old Arc drops here (or when the last in-flight batch
        // on it finishes elsewhere); no weights are copied per worker.
        let current = shared.registry.generation();
        if current != generation {
            if let Ok((gen, fresh)) = shared.registry.shared_with(shared.cfg.default_precision) {
                if gen != generation {
                    let _ = adarnet_obs::dump("hot_swap", false);
                    generation = gen;
                    engine = fresh;
                    shared.stats.add(Stat::EngineSwaps, 1);
                }
            }
        }

        let fields: Vec<Tensor<f32>> = batch.iter().map(|j| j.field.clone()).collect();
        shared.stats.add(Stat::Batches, 1);
        shared.stats.add(Stat::BatchedRequests, batch.len() as u64);

        // Two-phase infer spans: allocate the span id up front so the
        // per-bin decode spans inside `infer_cached` can parent under
        // it, commit the duration once the batch returns.
        let infer_start = Instant::now();
        let pending_infer: Vec<Option<trace::PendingSpan>> = batch
            .iter()
            .map(|j| {
                j.trace
                    .and_then(|ctx| trace::arena().begin(ctx, "serve_infer"))
            })
            .collect();
        let traces: Vec<Option<TraceCtx>> = batch
            .iter()
            .zip(&pending_infer)
            .map(|(j, p)| match (j.trace, p) {
                (Some(ctx), Some(p)) => Some(ctx.child(p.span_id)),
                (ctx, _) => ctx,
            })
            .collect();
        let inferred = {
            let _span = adarnet_obs::span!("serve_infer", batch = batch.len());
            infer_cached(&engine, generation, &fields, &traces, &shared.cache)
        };
        let infer_ns = infer_start.elapsed().as_nanos() as u64;
        for p in pending_infer.into_iter().flatten() {
            trace::arena().commit(p, infer_ns, "batch", fields.len() as u64);
        }
        match inferred {
            Ok(predictions) => {
                shared.stats.add(Stat::Completed, batch.len() as u64);
                shared
                    .stats
                    .add(Stat::completed_on(lane), batch.len() as u64);
                for (job, prediction) in batch.into_iter().zip(predictions) {
                    let response = ServeResponse {
                        prediction,
                        kind: ResponseKind::Full,
                        latency: job.submitted.elapsed(),
                        generation,
                        priority: job.priority,
                        trace_id: job.trace.map_or(0, |t| t.trace_id),
                    };
                    record_e2e(&response);
                    if let Some(ctx) = job.trace {
                        trace::finish(ctx, response.latency.as_nanos() as u64, false);
                    }
                    let _ = job.reply.send(response);
                }
            }
            Err(_) => {
                // Degrade the whole batch rather than killing the worker.
                let norm = *engine.norm();
                let cfg = engine.config();
                for job in batch {
                    shared.reject(job, ResponseKind::ShedInferenceError, &norm, cfg);
                }
            }
        }
    }
}
