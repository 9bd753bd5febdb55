//! Per-request distributed tracing: trace contexts, a bounded span
//! arena, and a tail sampler (DESIGN.md §16).
//!
//! The aggregate layers ([`metrics`](crate::metrics), [`span`](mod@crate::span))
//! answer "how slow is the fleet"; this module answers "*which*
//! request was slow and *where* its time went". Four pieces:
//!
//! 1. [`TraceCtx`] — a 64-bit trace id plus the current parent span
//!    id, carried *by value* through the request path (submit options,
//!    queue jobs, the wire protocol's optional trace-id field).
//! 2. [`TraceArena`] — a bounded arena of in-flight traces. A slot is
//!    claimed per trace (atomic id probe, per-slot lock for the span
//!    list), spans are appended two-phase ([`TraceArena::begin`] allocates a
//!    span id so children can parent under it before the duration is
//!    known, [`TraceArena::commit`] fills it in), and
//!    [`TraceArena::finish`] extracts the tree. Laggard commits from a
//!    request that already finished hit a trace-id mismatch and drop —
//!    the model checker's trace suite proves a snapshot never contains
//!    a torn (uncommitted or cross-trace) span.
//! 3. [`TailSampler`] — keeps only the interesting finished traces:
//!    the N slowest per window of offers plus every errored/rejected
//!    trace in a newest-wins ring.
//! 4. [`dump`] — the forensics file: the sampler's retained traces and
//!    a metrics snapshot (the admin endpoint's `/traces` and `/metrics`
//!    documents) written to disk on panic, load shed and hot swap.
//!
//! Cost contract: a request with no trace context pays **one branch**
//! per span site (a thread-local load that reads `None`); this is what
//! keeps the `obs_overhead` gate under its 3% budget with tracing
//! compiled in and the sampler live. Traced requests pay one
//! uncontended per-slot lock per span.

use std::cell::Cell;
use std::collections::VecDeque;
use std::io::Write as _;
use std::marker::PhantomData;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Spans retained per trace; later spans are counted as dropped.
pub const MAX_SPANS_PER_TRACE: usize = 32;
/// In-flight trace slots in the global arena (must comfortably exceed
/// the serve queue depth so queued-but-traced requests keep their
/// slots).
pub const ARENA_TRACES: usize = 256;
/// Slowest traces retained per sampling window.
pub const SLOW_RETAIN: usize = 8;
/// Errored/rejected traces retained (newest-wins ring).
pub const ERROR_RETAIN: usize = 32;
/// Offers per tail-sampling window.
pub const SAMPLE_WINDOW: u64 = 512;

/// A trace identity carried by value through the request path: the
/// 64-bit trace id (nonzero; 0 means "untraced" on the wire) and the
/// span id acting as parent for spans recorded under this context
/// (0 = the trace root).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// Nonzero trace identity, stable across the wire.
    pub trace_id: u64,
    /// Parent span id for spans recorded under this context.
    pub span_id: u64,
}

/// splitmix64 — the standard 64-bit bit-mixer, used to spread minted
/// trace ids so `trace_id % slots` probes the arena uniformly.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl TraceCtx {
    /// Mint a fresh root context with a process-unique nonzero trace
    /// id (a counter mixed with the process start time, so ids differ
    /// across restarts).
    pub fn mint() -> TraceCtx {
        static SALT: OnceLock<u64> = OnceLock::new();
        static NEXT: AtomicU64 = AtomicU64::new(1);
        let salt = *SALT.get_or_init(|| {
            SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0x5eed)
        });
        loop {
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let id = splitmix64(n ^ salt);
            if id != 0 {
                return TraceCtx {
                    trace_id: id,
                    span_id: 0,
                };
            }
        }
    }

    /// Adopt a trace id received on the wire (`0` = untraced).
    pub fn from_wire(trace_id: u64) -> Option<TraceCtx> {
        (trace_id != 0).then_some(TraceCtx {
            trace_id,
            span_id: 0,
        })
    }

    /// Re-parent: the same trace with spans now attaching under
    /// `span_id`.
    pub fn child(self, span_id: u64) -> TraceCtx {
        TraceCtx {
            trace_id: self.trace_id,
            span_id,
        }
    }
}

/// One completed span inside a finished trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Dense per-trace span id (1-based; 0 is the trace root).
    pub span_id: u64,
    /// Parent span id (0 = direct child of the trace root).
    pub parent: u64,
    /// Span site name (the `span!` literal).
    pub name: &'static str,
    /// Start offset from trace start.
    pub start_rel_ns: u64,
    /// Span duration.
    pub dur_ns: u64,
    /// Optional structured field name (`""` = none).
    pub field: &'static str,
    /// Structured field value.
    pub value: u64,
}

/// A span that has been [`begun`](TraceArena::begin) but not yet
/// committed: carries the allocated span id so children can parent
/// under it before the duration is known.
#[derive(Debug, Clone, Copy)]
pub struct PendingSpan {
    trace_id: u64,
    slot: usize,
    idx: usize,
    /// The allocated span id, for deriving child contexts.
    pub span_id: u64,
}

/// In-flight state behind one arena slot's lock.
struct ActiveTrace {
    trace_id: u64,
    started: Instant,
    started_unix_us: u64,
    next_span_id: u64,
    /// `(record, committed)` in begin order; uncommitted records never
    /// leave the slot.
    spans: Vec<(SpanRec, bool)>,
    dropped: u64,
}

struct Slot {
    /// Owning trace id, 0 = free. A lock-free probe key only; the
    /// lock below is the arbiter.
    id: AtomicU64,
    inner: Mutex<Option<ActiveTrace>>,
}

/// Bounded arena of in-flight traces (see module docs).
pub struct TraceArena {
    slots: Vec<Slot>,
    spans_per_trace: usize,
}

impl TraceArena {
    /// Arena with `traces` slots of up to `spans_per_trace` spans each
    /// (both clamped to at least 1).
    pub fn with_capacity(traces: usize, spans_per_trace: usize) -> TraceArena {
        TraceArena {
            slots: (0..traces.max(1))
                .map(|_| Slot {
                    id: AtomicU64::new(0),
                    inner: Mutex::new(None),
                })
                .collect(),
            spans_per_trace: spans_per_trace.max(1),
        }
    }

    fn home(&self, trace_id: u64) -> usize {
        (trace_id % self.slots.len() as u64) as usize
    }

    fn lock(&self, slot: usize) -> MutexGuard<'_, Option<ActiveTrace>> {
        self.slots[slot]
            .inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// Claim a slot for `ctx`'s trace. Returns `false` when the arena
    /// is saturated or the id is already in flight — the request then
    /// proceeds untraced (its spans drop on the id probe).
    pub fn start(&self, ctx: TraceCtx) -> bool {
        if !crate::enabled() || ctx.trace_id == 0 {
            return false;
        }
        let n = self.slots.len();
        let h = self.home(ctx.trace_id);
        let mut free = None;
        for off in 0..n {
            let i = (h + off) % n;
            match self.slots[i].id.load(Ordering::Relaxed) {
                0 if free.is_none() => free = Some(i),
                id if id == ctx.trace_id => return false,
                _ => {}
            }
        }
        // Probe chose a candidate; the slot lock arbitrates racing
        // claims (a loser re-probes nothing — it just fails and the
        // request runs untraced, which the saturation counter records).
        if let Some(i) = free {
            let mut g = self.lock(i);
            if g.is_none() {
                *g = Some(ActiveTrace {
                    trace_id: ctx.trace_id,
                    started: Instant::now(),
                    started_unix_us: SystemTime::now()
                        .duration_since(UNIX_EPOCH)
                        .map(|d| d.as_micros() as u64)
                        .unwrap_or(0),
                    next_span_id: 1,
                    spans: Vec::with_capacity(self.spans_per_trace),
                    dropped: 0,
                });
                self.slots[i].id.store(ctx.trace_id, Ordering::Release);
                return true;
            }
        }
        crate::counter!("trace_arena_full_total").inc();
        false
    }

    /// Find the slot owning `trace_id` (probe from its home slot).
    fn find(&self, trace_id: u64) -> Option<usize> {
        if trace_id == 0 {
            return None;
        }
        let n = self.slots.len();
        let h = self.home(trace_id);
        (0..n)
            .map(|off| (h + off) % n)
            .find(|&i| self.slots[i].id.load(Ordering::Acquire) == trace_id)
    }

    /// Phase one of recording a span: allocate its span id and a
    /// record slot (parented under `ctx.span_id`). Returns `None` when
    /// the trace is not in flight or its span budget is spent.
    pub fn begin(&self, ctx: TraceCtx, name: &'static str) -> Option<PendingSpan> {
        let slot = self.find(ctx.trace_id)?;
        let mut g = self.lock(slot);
        let t = g.as_mut().filter(|t| t.trace_id == ctx.trace_id)?;
        if t.spans.len() >= self.spans_per_trace {
            t.dropped += 1;
            drop(g);
            crate::counter!("trace_spans_dropped_total").inc();
            return None;
        }
        let span_id = t.next_span_id;
        t.next_span_id += 1;
        let idx = t.spans.len();
        let start_rel_ns = t.started.elapsed().as_nanos() as u64;
        t.spans.push((
            SpanRec {
                span_id,
                parent: ctx.span_id,
                name,
                start_rel_ns,
                dur_ns: 0,
                field: "",
                value: 0,
            },
            false,
        ));
        Some(PendingSpan {
            trace_id: ctx.trace_id,
            slot,
            idx,
            span_id,
        })
    }

    /// Phase two: fill in the duration and structured field, making
    /// the span visible to [`TraceArena::finish`]. A laggard commit
    /// (its trace already finished, the slot possibly re-claimed) is
    /// dropped on the trace-id / span-id check; returns whether the
    /// span landed.
    pub fn commit(&self, p: PendingSpan, dur_ns: u64, field: &'static str, value: u64) -> bool {
        if self.slots[p.slot].id.load(Ordering::Acquire) != p.trace_id {
            return false;
        }
        let mut g = self.lock(p.slot);
        let Some(t) = g.as_mut().filter(|t| t.trace_id == p.trace_id) else {
            return false;
        };
        match t.spans.get_mut(p.idx) {
            Some((rec, committed)) if rec.span_id == p.span_id => {
                rec.dur_ns = dur_ns;
                rec.field = field;
                rec.value = value;
                *committed = true;
                true
            }
            _ => false,
        }
    }

    /// Record a span whose duration is already known (begin + commit,
    /// with the start back-dated by `dur_ns`). Returns the span id.
    pub fn record(
        &self,
        ctx: TraceCtx,
        name: &'static str,
        dur_ns: u64,
        field: &'static str,
        value: u64,
    ) -> Option<u64> {
        let p = self.begin(ctx, name)?;
        {
            let mut g = self.lock(p.slot);
            if let Some(t) = g.as_mut().filter(|t| t.trace_id == p.trace_id) {
                if let Some((rec, _)) = t.spans.get_mut(p.idx) {
                    rec.start_rel_ns = rec.start_rel_ns.saturating_sub(dur_ns);
                }
            }
        }
        self.commit(p, dur_ns, field, value).then_some(p.span_id)
    }

    /// Close the trace: extract the committed spans, free the slot.
    /// `None` when the trace was never started (or already finished).
    pub fn finish(&self, ctx: TraceCtx, e2e_ns: u64, error: bool) -> Option<FinishedTrace> {
        let slot = self.find(ctx.trace_id)?;
        let mut g = self.lock(slot);
        if g.as_ref().is_none_or(|t| t.trace_id != ctx.trace_id) {
            return None;
        }
        let t = g.take()?;
        self.slots[slot].id.store(0, Ordering::Release);
        drop(g);
        Some(FinishedTrace {
            trace_id: t.trace_id,
            started_unix_us: t.started_unix_us,
            e2e_ns,
            error,
            dropped_spans: t.dropped,
            spans: t
                .spans
                .into_iter()
                .filter_map(|(rec, committed)| committed.then_some(rec))
                .collect(),
        })
    }

    /// Number of traces currently holding slots.
    pub fn in_flight(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.id.load(Ordering::Relaxed) != 0)
            .count()
    }
}

/// A completed trace: its identity, end-to-end latency, error flag,
/// and the committed span records (begin order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FinishedTrace {
    /// Trace identity (matches the wire field).
    pub trace_id: u64,
    /// Wall-clock start (microseconds since the Unix epoch).
    pub started_unix_us: u64,
    /// End-to-end latency as recorded by the closer.
    pub e2e_ns: u64,
    /// Whether the request errored or was rejected.
    pub error: bool,
    /// Spans that were begun but did not fit the per-trace budget.
    pub dropped_spans: u64,
    /// Committed spans, in begin order.
    pub spans: Vec<SpanRec>,
}

impl FinishedTrace {
    /// A complete span tree: every parent id is 0 or a span in the
    /// set, and nothing was dropped.
    pub fn is_complete(&self) -> bool {
        self.dropped_spans == 0
            && self
                .spans
                .iter()
                .all(|s| s.parent == 0 || self.spans.iter().any(|p| p.span_id == s.parent))
    }

    /// One JSON object (span names come from `span!` literals, so no
    /// escaping is needed).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"trace_id\":\"{:016x}\",\"started_unix_us\":{},\"e2e_ns\":{},\"error\":{},\
             \"complete\":{},\"dropped_spans\":{},\"spans\":[",
            self.trace_id,
            self.started_unix_us,
            self.e2e_ns,
            self.error,
            self.is_complete(),
            self.dropped_spans
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"span_id\":{},\"parent\":{},\"name\":\"{}\",\"start_rel_ns\":{},\
                 \"dur_ns\":{},\"field\":\"{}\",\"value\":{}}}",
                s.span_id, s.parent, s.name, s.start_rel_ns, s.dur_ns, s.field, s.value
            ));
        }
        out.push_str("]}");
        out
    }

    /// Indented tree rendering for `net-serve trace-dump`.
    pub fn render_tree(&self) -> String {
        fn walk(trace: &FinishedTrace, parent: u64, depth: usize, out: &mut String) {
            for s in trace.spans.iter().filter(|s| s.parent == parent) {
                out.push_str(&"  ".repeat(depth + 1));
                out.push_str(&format!(
                    "{} {:.3}ms (+{:.3}ms)",
                    s.name,
                    s.dur_ns as f64 / 1e6,
                    s.start_rel_ns as f64 / 1e6
                ));
                if !s.field.is_empty() {
                    out.push_str(&format!(" {}={}", s.field, s.value));
                }
                out.push('\n');
                if depth < MAX_SPANS_PER_TRACE {
                    walk(trace, s.span_id, depth + 1, out);
                }
            }
        }
        let mut out = format!(
            "trace {:016x}: e2e {:.3}ms{}{}\n",
            self.trace_id,
            self.e2e_ns as f64 / 1e6,
            if self.error { " ERROR" } else { "" },
            if self.is_complete() {
                ""
            } else {
                " (incomplete)"
            }
        );
        walk(self, 0, 0, &mut out);
        out
    }
}

/// A finished trace held by the sampler, tagged with the window and
/// offer sequence that admitted it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetainedTrace {
    /// Which sampling window admitted the trace.
    pub window: u64,
    /// Global offer sequence number (dense from 0).
    pub offer_seq: u64,
    /// The trace itself.
    pub trace: FinishedTrace,
}

struct SamplerState {
    offers: u64,
    window_id: u64,
    slow: Vec<RetainedTrace>,
    slow_prev: Vec<RetainedTrace>,
    errors: VecDeque<RetainedTrace>,
}

/// Tail sampler: admit every finished trace, retain only the
/// interesting ones (see module docs). One short lock per request
/// completion — off the per-span path entirely.
pub struct TailSampler {
    state: Mutex<SamplerState>,
    slow_cap: usize,
    error_cap: usize,
    window: u64,
    /// Set on the process-wide sampler only: a window roll also resets
    /// the global registry's histogram exemplars, so `/metrics` never
    /// names a trace that `/traces` has already dropped.
    resets_exemplars: bool,
}

impl TailSampler {
    /// Sampler retaining the `slow_cap` slowest per `window` offers
    /// and the last `error_cap` errored traces.
    pub fn new(slow_cap: usize, error_cap: usize, window: u64) -> TailSampler {
        TailSampler {
            state: Mutex::new(SamplerState {
                offers: 0,
                window_id: 0,
                slow: Vec::new(),
                slow_prev: Vec::new(),
                errors: VecDeque::new(),
            }),
            slow_cap: slow_cap.max(1),
            error_cap: error_cap.max(1),
            window: window.max(1),
            resets_exemplars: false,
        }
    }

    fn locked(&self) -> MutexGuard<'_, SamplerState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Offer a finished trace; returns whether it was retained.
    ///
    /// Retention: errored traces always land in the error ring (oldest
    /// evicted — newest wins); any trace strictly slower than the
    /// current window's fastest retained slow-trace displaces it. A
    /// full window rolls the slow set into the "previous window" shelf
    /// so a scrape right after a roll still sees the tail.
    pub fn offer(&self, t: FinishedTrace) -> bool {
        let mut s = self.locked();
        let seq = s.offers;
        s.offers += 1;
        let window_id = seq / self.window;
        if window_id != s.window_id {
            s.window_id = window_id;
            s.slow_prev = std::mem::take(&mut s.slow);
            if self.resets_exemplars {
                // Still under the sampler lock: no offer can land in the
                // new window before its exemplar window opens.
                crate::metrics::registry().reset_exemplars();
            }
        }
        let mut retained = false;
        if t.error {
            if s.errors.len() >= self.error_cap {
                s.errors.pop_front();
            }
            s.errors.push_back(RetainedTrace {
                window: window_id,
                offer_seq: seq,
                trace: t.clone(),
            });
            retained = true;
        }
        if s.slow.len() < self.slow_cap {
            s.slow.push(RetainedTrace {
                window: window_id,
                offer_seq: seq,
                trace: t,
            });
            retained = true;
        } else if let Some(min_idx) = (0..s.slow.len()).min_by_key(|&i| {
            (
                s.slow[i].trace.e2e_ns,
                std::cmp::Reverse(s.slow[i].offer_seq),
            )
        }) {
            if t.e2e_ns > s.slow[min_idx].trace.e2e_ns {
                s.slow[min_idx] = RetainedTrace {
                    window: window_id,
                    offer_seq: seq,
                    trace: t,
                };
                retained = true;
            }
        }
        if retained {
            drop(s);
            crate::counter!("trace_retained_total").inc();
        }
        retained
    }

    /// Everything currently retained: error ring (oldest first), then
    /// the previous window's slow set, then the current window's,
    /// each by offer order.
    pub fn snapshot(&self) -> Vec<RetainedTrace> {
        let s = self.locked();
        let mut out: Vec<RetainedTrace> = s.errors.iter().cloned().collect();
        let mut slow: Vec<RetainedTrace> =
            s.slow_prev.iter().chain(s.slow.iter()).cloned().collect();
        slow.sort_by_key(|r| r.offer_seq);
        out.extend(slow);
        out
    }

    /// Total traces offered so far.
    pub fn offers(&self) -> u64 {
        self.locked().offers
    }

    /// The retained traces as a JSON document (served on `/traces`).
    pub fn to_json(&self) -> String {
        let snap = self.snapshot();
        let mut out = format!(
            "{{\"offers\":{},\"retained\":{},\"traces\":[",
            self.offers(),
            snap.len()
        );
        for (i, r) in snap.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"window\":{},\"offer_seq\":{},\"trace\":{}}}",
                r.window,
                r.offer_seq,
                r.trace.to_json()
            ));
        }
        out.push_str("]}");
        out
    }
}

/// The process-wide trace arena.
pub fn arena() -> &'static TraceArena {
    static ARENA: OnceLock<TraceArena> = OnceLock::new();
    ARENA.get_or_init(|| TraceArena::with_capacity(ARENA_TRACES, MAX_SPANS_PER_TRACE))
}

/// The process-wide tail sampler.
pub fn sampler() -> &'static TailSampler {
    static SAMPLER: OnceLock<TailSampler> = OnceLock::new();
    SAMPLER.get_or_init(|| TailSampler {
        resets_exemplars: true,
        ..TailSampler::new(SLOW_RETAIN, ERROR_RETAIN, SAMPLE_WINDOW)
    })
}

/// Finish `ctx` in the global arena and offer it to the global
/// sampler. Returns whether the trace was retained.
pub fn finish(ctx: TraceCtx, e2e_ns: u64, error: bool) -> bool {
    match arena().finish(ctx, e2e_ns, error) {
        Some(t) => sampler().offer(t),
        None => false,
    }
}

/// Write `{"reason", "traces", "metrics"}` — the sampler's retained
/// traces and a metrics snapshot, the documents the admin endpoint
/// serves as `/traces` and `/metrics` — to `$ADARNET_OBS_DUMP` (default
/// `target/obs-dump.json`: under the build directory, so a dump fired
/// from a checkout never dirties the work tree), with one summary line
/// on stderr. Unforced dumps are rate-limited to one per
/// second so a shed storm cannot grind the server into disk I/O;
/// `force` (panic path) always writes. Returns the path written.
pub fn dump(reason: &str, force: bool) -> Option<PathBuf> {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    // One past the second (since `EPOCH`) of the last dump; 0 = none yet.
    static LAST_DUMP: AtomicU64 = AtomicU64::new(0);
    let now_s = EPOCH.get_or_init(Instant::now).elapsed().as_secs();
    if LAST_DUMP.fetch_max(now_s + 1, Ordering::AcqRel) > now_s && !force {
        return None; // someone already dumped this second
    }
    let json = format!(
        "{{\"reason\":\"{}\",\"traces\":{},\"metrics\":{}}}",
        crate::text::sanitize(reason),
        sampler().to_json(),
        crate::metrics::registry().snapshot().to_json()
    );
    let path = std::env::var_os("ADARNET_OBS_DUMP")
        .map_or_else(|| PathBuf::from("target/obs-dump.json"), PathBuf::from);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        let _ = std::fs::create_dir_all(dir);
    }
    let _ = std::fs::write(&path, &json);
    let _ = writeln!(
        std::io::stderr().lock(),
        "[obs] dump (reason: {reason}) -> {}",
        path.display()
    );
    Some(path)
}

thread_local! {
    static ACTIVE: Cell<Option<TraceCtx>> = const { Cell::new(None) };
}

/// The thread's active trace context, if a [`scope`] is open. This is
/// the one branch an untraced request pays per span site.
#[inline]
pub fn active() -> Option<TraceCtx> {
    ACTIVE.with(|c| c.get())
}

/// RAII guard restoring the previous thread-local context on drop.
pub struct TraceScope {
    prev: Option<TraceCtx>,
    /// `!Send`: the guard must drop on the thread that opened it.
    _pin: PhantomData<*const ()>,
}

/// Make `ctx` the thread's active trace until the guard drops: every
/// `span!` site entered on this thread attaches its record to the
/// trace (parented under `ctx.span_id`) in addition to its histogram.
pub fn scope(ctx: TraceCtx) -> TraceScope {
    let prev = ACTIVE.with(|c| c.replace(Some(ctx)));
    TraceScope {
        prev,
        _pin: PhantomData,
    }
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        ACTIVE.with(|c| c.set(self.prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(e2e: u64, error: bool) -> FinishedTrace {
        FinishedTrace {
            trace_id: e2e.max(1),
            started_unix_us: 0,
            e2e_ns: e2e,
            error,
            dropped_spans: 0,
            spans: Vec::new(),
        }
    }

    #[test]
    fn mint_is_unique_and_nonzero() {
        let a = TraceCtx::mint();
        let b = TraceCtx::mint();
        assert_ne!(a.trace_id, 0);
        assert_ne!(a.trace_id, b.trace_id);
        assert_eq!(a.span_id, 0);
    }

    #[test]
    fn from_wire_rejects_zero() {
        assert!(TraceCtx::from_wire(0).is_none());
        assert_eq!(TraceCtx::from_wire(7).unwrap().trace_id, 7);
    }

    #[test]
    fn arena_roundtrip_builds_a_tree() {
        let _g = crate::testutil::shared();
        let arena = TraceArena::with_capacity(4, 8);
        let ctx = TraceCtx::mint();
        assert!(arena.start(ctx));
        assert_eq!(arena.in_flight(), 1);
        let infer = arena.begin(ctx, "serve_infer").unwrap();
        let child = ctx.child(infer.span_id);
        let decode = arena.record(child, "stage_decoder", 50, "bin", 2).unwrap();
        assert!(arena.commit(infer, 120, "batch", 1));
        let fin = arena.finish(ctx, 200, false).unwrap();
        assert_eq!(arena.in_flight(), 0);
        assert_eq!(fin.spans.len(), 2);
        assert!(fin.is_complete());
        let d = fin.spans.iter().find(|s| s.span_id == decode).unwrap();
        assert_eq!(d.parent, infer.span_id);
        assert_eq!(
            (d.name, d.field, d.value, d.dur_ns),
            ("stage_decoder", "bin", 2, 50)
        );
        let json = fin.to_json();
        assert!(json.contains("\"name\":\"stage_decoder\""));
        assert!(json.contains("\"complete\":true"));
        assert!(fin.render_tree().contains("stage_decoder"));
    }

    #[test]
    fn uncommitted_spans_never_leak() {
        let _g = crate::testutil::shared();
        let arena = TraceArena::with_capacity(2, 4);
        let ctx = TraceCtx::mint();
        assert!(arena.start(ctx));
        let _pending = arena.begin(ctx, "serve_infer").unwrap();
        let fin = arena.finish(ctx, 10, false).unwrap();
        assert!(fin.spans.is_empty(), "torn span leaked: {:?}", fin.spans);
    }

    #[test]
    fn laggard_commit_after_finish_is_dropped() {
        let _g = crate::testutil::shared();
        let arena = TraceArena::with_capacity(1, 4);
        let a = TraceCtx::mint();
        assert!(arena.start(a));
        let pending = arena.begin(a, "serve_infer").unwrap();
        arena.finish(a, 10, false).unwrap();
        // Slot re-claimed by another trace; the laggard must not land.
        let b = TraceCtx::mint();
        assert!(arena.start(b));
        assert!(!arena.commit(pending, 99, "", 0));
        let fin = arena.finish(b, 20, false).unwrap();
        assert!(fin.spans.is_empty());
    }

    #[test]
    fn arena_saturation_and_duplicate_ids_fail_start() {
        let _g = crate::testutil::shared();
        let arena = TraceArena::with_capacity(1, 4);
        let a = TraceCtx::mint();
        assert!(arena.start(a));
        assert!(!arena.start(a), "duplicate id must not double-claim");
        assert!(!arena.start(TraceCtx::mint()), "arena is full");
        arena.finish(a, 1, false).unwrap();
        assert!(arena.start(TraceCtx::mint()));
    }

    #[test]
    fn span_budget_is_enforced() {
        let _g = crate::testutil::shared();
        let arena = TraceArena::with_capacity(1, 2);
        let ctx = TraceCtx::mint();
        assert!(arena.start(ctx));
        assert!(arena.record(ctx, "stage_decoder", 1, "", 0).is_some());
        assert!(arena.record(ctx, "stage_decoder", 1, "", 0).is_some());
        assert!(arena.record(ctx, "stage_decoder", 1, "", 0).is_none());
        let fin = arena.finish(ctx, 5, false).unwrap();
        assert_eq!(fin.spans.len(), 2);
        assert_eq!(fin.dropped_spans, 1);
        assert!(!fin.is_complete());
    }

    #[test]
    fn sampler_keeps_slowest_n_and_all_errors() {
        let s = TailSampler::new(2, 2, 100);
        for e2e in [10, 30, 20, 40, 5] {
            s.offer(trace(e2e, false));
        }
        let kept: Vec<u64> = s.snapshot().iter().map(|r| r.trace.e2e_ns).collect();
        assert_eq!(kept, vec![30, 40], "slowest 2 of the window, offer order");
        assert!(s.offer(trace(1, true)), "errored always retained");
        assert!(s.offer(trace(2, true)));
        assert!(s.offer(trace(3, true)));
        let errs: Vec<u64> = s
            .snapshot()
            .iter()
            .filter(|r| r.trace.error)
            .map(|r| r.trace.e2e_ns)
            .collect();
        assert_eq!(errs, vec![2, 3], "newest-wins error ring");
        assert_eq!(s.offers(), 8);
    }

    #[test]
    fn sampler_window_roll_shelves_previous_tail() {
        let s = TailSampler::new(1, 1, 2);
        s.offer(trace(100, false));
        s.offer(trace(50, false)); // window 0 closes after this offer
        s.offer(trace(7, false)); // window 1 begins
        let kept: Vec<u64> = s.snapshot().iter().map(|r| r.trace.e2e_ns).collect();
        assert_eq!(kept, vec![100, 7], "previous window's tail + current");
        let json = s.to_json();
        assert!(json.contains("\"offers\":3"));
        assert!(json.contains("\"traces\":["));
    }

    #[test]
    fn scope_sets_and_restores_active() {
        assert!(active().is_none());
        let ctx = TraceCtx::mint();
        {
            let _g = scope(ctx);
            assert_eq!(active(), Some(ctx));
            {
                let inner = ctx.child(3);
                let _g2 = scope(inner);
                assert_eq!(active(), Some(inner));
            }
            assert_eq!(active(), Some(ctx));
        }
        assert!(active().is_none());
    }

    #[test]
    fn global_finish_offers_to_sampler() {
        let _g = crate::testutil::shared();
        let ctx = TraceCtx::mint();
        assert!(arena().start(ctx));
        arena().record(ctx, "serve_infer", 10, "", 0);
        // An errored trace is always retained, so this asserts true
        // regardless of what other tests offered.
        assert!(finish(ctx, 1, true));
        assert!(!finish(ctx, 1, true), "double finish is a no-op");
    }
}
