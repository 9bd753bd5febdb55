//! Per-request distributed tracing: trace handles that own their span
//! buffers, and a tail sampler (DESIGN.md §16).
//!
//! The aggregate layers ([`metrics`](crate::metrics), [`span`](mod@crate::span))
//! answer "how slow is the fleet"; this module answers "*which*
//! request was slow and *where* its time went". Three pieces:
//!
//! 1. [`TraceCtx`] — a trace handle: the 64-bit trace id, the span id
//!    acting as parent for spans recorded through the handle, and the
//!    trace's own span buffer, shared by every clone. Minting or
//!    adopting a trace builds the buffer; the handle travels with the
//!    request (submit options, queue jobs) and the id on the wire.
//!    Spans land two-phase ([`TraceCtx::begin`] allocates a span id and
//!    returns a child handle, so spans can parent under it before the
//!    duration is known; [`TraceCtx::commit`] fills it in) or in one
//!    call ([`TraceCtx::record`]). [`TraceCtx::finish`] takes the
//!    committed spans out and closes the buffer, so a late commit, or a
//!    second finish, finds it closed and drops.
//! 2. [`TailSampler`] — keeps only the interesting finished traces:
//!    the N slowest per window of offers, at most one per batch, plus
//!    every errored/rejected trace in a newest-wins ring.
//! 3. [`dump`] — the forensics file: the sampler's retained traces and
//!    a metrics snapshot (the admin endpoint's `/traces` and `/metrics`
//!    documents) written to disk on panic, load shed and hot swap.
//!
//! Cost contract: a span site with no trace in scope pays **one
//! branch** (a thread-local read that finds `None`); this is what keeps
//! the `obs_overhead` gate under its 3% budget with tracing compiled in
//! and the sampler live. A traced span pays one uncontended lock of its
//! own trace's buffer.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::Write as _;
use std::marker::PhantomData;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Spans retained per trace; later spans are counted as dropped.
pub const MAX_SPANS_PER_TRACE: usize = 32;
/// Slowest traces retained per sampling window.
pub const SLOW_RETAIN: usize = 8;
/// Errored/rejected traces retained (newest-wins ring).
pub const ERROR_RETAIN: usize = 32;
/// Offers per tail-sampling window.
pub const SAMPLE_WINDOW: u64 = 512;

/// Traces built and not yet finished (or dropped), for `/health`.
static IN_FLIGHT: AtomicU64 = AtomicU64::new(0);

/// splitmix64 — the standard 64-bit bit-mixer, used to spread minted
/// trace ids.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A process-unique nonzero trace id: a counter mixed with the process
/// start time, so ids differ across restarts. Builds no trace — a
/// client stamping an id on the wire calls this.
pub fn mint_id() -> u64 {
    static SALT: OnceLock<u64> = OnceLock::new();
    static NEXT: AtomicU64 = AtomicU64::new(1);
    let salt = *SALT.get_or_init(|| {
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x5eed)
    });
    loop {
        let id = splitmix64(NEXT.fetch_add(1, Ordering::Relaxed) ^ salt);
        if id != 0 {
            return id;
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

/// An open trace's spans.
#[derive(Debug)]
struct OpenTrace {
    started: Instant,
    started_unix_us: u64,
    /// `(record, committed)` in begin order; span id = index + 1.
    /// Uncommitted records never leave the buffer.
    spans: Vec<(SpanRec, bool)>,
    dropped: u64,
    /// See [`FinishedTrace::batch`].
    batch: Option<u64>,
}

/// The span buffer every clone of one [`TraceCtx`] shares: `None` once
/// the trace is finished.
#[derive(Debug)]
struct Buffer(Mutex<Option<OpenTrace>>);

impl Drop for Buffer {
    fn drop(&mut self) {
        // A trace dropped unfinished is no longer in flight either.
        let open = self.0.get_mut().unwrap_or_else(|e| e.into_inner());
        if open.is_some() {
            IN_FLIGHT.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// A trace handle carried through the request path: the nonzero trace
/// id (0 means "untraced" on the wire), the span id acting as parent
/// for spans recorded through this handle (0 = the trace root), and
/// the trace's span buffer. Cloning shares the buffer.
#[derive(Debug, Clone)]
pub struct TraceCtx {
    trace_id: u64,
    span_id: u64,
    buf: Arc<Buffer>,
}

impl TraceCtx {
    /// Nonzero trace identity, stable across the wire.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// Build a trace with an empty span buffer; `None` while the obs
    /// layer is disabled, so the request runs untraced.
    fn open(trace_id: u64) -> Option<TraceCtx> {
        if !crate::enabled() {
            return None;
        }
        IN_FLIGHT.fetch_add(1, Ordering::Relaxed);
        Some(TraceCtx {
            trace_id,
            span_id: 0,
            buf: Arc::new(Buffer(Mutex::new(Some(OpenTrace {
                started: Instant::now(),
                started_unix_us: SystemTime::now()
                    .duration_since(UNIX_EPOCH)
                    .map(|d| d.as_micros() as u64)
                    .unwrap_or(0),
                spans: Vec::new(),
                dropped: 0,
                batch: None,
            })))),
        })
    }

    /// A fresh trace under a [`mint_id`] id (`None` with obs disabled).
    pub fn mint() -> Option<TraceCtx> {
        TraceCtx::open(mint_id())
    }

    /// Adopt a trace id received on the wire (`None` for `0` =
    /// untraced, or with obs disabled).
    pub fn from_wire(trace_id: u64) -> Option<TraceCtx> {
        if trace_id == 0 {
            return None;
        }
        TraceCtx::open(trace_id)
    }

    fn lock(&self) -> MutexGuard<'_, Option<OpenTrace>> {
        self.buf.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Append a span under this handle's parent; its start is
    /// back-dated by `dur_ns`. `None` when the trace is finished or its
    /// span budget is spent (the drop is counted).
    fn push(
        &self,
        name: &'static str,
        dur_ns: u64,
        field: &'static str,
        value: u64,
        committed: bool,
    ) -> Option<u64> {
        let mut g = self.lock();
        let t = g.as_mut()?;
        if t.spans.len() >= MAX_SPANS_PER_TRACE {
            t.dropped += 1;
            drop(g);
            crate::counter!("trace_spans_dropped_total").inc();
            return None;
        }
        let span_id = t.spans.len() as u64 + 1;
        let start_rel_ns = (t.started.elapsed().as_nanos() as u64).saturating_sub(dur_ns);
        t.spans.push((
            SpanRec {
                span_id,
                parent: self.span_id,
                name,
                start_rel_ns,
                dur_ns,
                field,
                value,
            },
            committed,
        ));
        Some(span_id)
    }

    /// Phase one of recording a span: allocate its span id and return
    /// the child handle spans parent under. `None` when the trace is
    /// finished or its span budget is spent.
    pub fn begin(&self, name: &'static str) -> Option<TraceCtx> {
        let span_id = self.push(name, 0, "", 0, false)?;
        Some(TraceCtx {
            span_id,
            ..self.clone()
        })
    }

    /// Phase two, on the handle [`TraceCtx::begin`] returned: fill in
    /// the duration and structured field, making the span visible to
    /// [`TraceCtx::finish`]. Returns whether the span landed — a commit
    /// after finish (or on a root handle) does not.
    pub fn commit(&self, dur_ns: u64, field: &'static str, value: u64) -> bool {
        let mut g = self.lock();
        let span = self
            .span_id
            .checked_sub(1)
            .and_then(|i| g.as_mut()?.spans.get_mut(i as usize));
        let Some((rec, committed)) = span else {
            return false;
        };
        rec.dur_ns = dur_ns;
        rec.field = field;
        rec.value = value;
        *committed = true;
        true
    }

    /// Record a span whose duration is already known (begin + commit
    /// in one lock). Returns the span id.
    pub fn record(
        &self,
        name: &'static str,
        dur_ns: u64,
        field: &'static str,
        value: u64,
    ) -> Option<u64> {
        self.push(name, dur_ns, field, value, true)
    }

    /// Tag the trace with the micro-batch its request is inferred in
    /// (see [`FinishedTrace::batch`]). A no-op once finished.
    pub fn set_batch(&self, batch: u64) {
        if let Some(t) = self.lock().as_mut() {
            t.batch = Some(batch);
        }
    }

    /// Close the trace: take the committed spans out of the buffer.
    /// `None` when the trace was already finished.
    pub fn finish(&self, e2e_ns: u64, error: bool) -> Option<FinishedTrace> {
        let t = self.lock().take()?;
        IN_FLIGHT.fetch_sub(1, Ordering::Relaxed);
        Some(FinishedTrace {
            trace_id: self.trace_id,
            batch: t.batch,
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
}

/// A completed trace: its identity, end-to-end latency, error flag,
/// and the committed span records (begin order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FinishedTrace {
    /// Trace identity (matches the wire field).
    pub trace_id: u64,
    /// The micro-batch the request was inferred in, `None` outside a
    /// batch. The sampler keeps at most one slow trace per batch key;
    /// a trace with `None` is a batch of its own.
    pub batch: Option<u64>,
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
    /// evicted — newest wins). The current window keeps at most one slow
    /// trace per batch key: a trace of a batch already held replaces it
    /// only if strictly slower, and any other trace strictly slower than
    /// the window's fastest retained slow-trace displaces it, so eight
    /// requests of one slow batch hold one slot, not eight. A full
    /// window rolls the slow set into the "previous window" shelf so a
    /// scrape right after a roll still sees the tail.
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
        // The slot the trace competes for, `None` for a free one. A batch
        // that holds a slot already competes only with itself.
        let held = t
            .batch
            .and_then(|key| s.slow.iter().position(|r| r.trace.batch == Some(key)));
        let slot = match held {
            Some(i) => Some(i),
            None if s.slow.len() < self.slow_cap => None,
            None => (0..s.slow.len()).min_by_key(|&i| {
                (
                    s.slow[i].trace.e2e_ns,
                    std::cmp::Reverse(s.slow[i].offer_seq),
                )
            }),
        };
        let admitted = RetainedTrace {
            window: window_id,
            offer_seq: seq,
            trace: t,
        };
        match slot {
            None => {
                s.slow.push(admitted);
                retained = true;
            }
            Some(i) if admitted.trace.e2e_ns > s.slow[i].trace.e2e_ns => {
                s.slow[i] = admitted;
                retained = true;
            }
            Some(_) => {}
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

/// The process-wide tail sampler.
pub fn sampler() -> &'static TailSampler {
    static SAMPLER: OnceLock<TailSampler> = OnceLock::new();
    SAMPLER.get_or_init(|| TailSampler {
        resets_exemplars: true,
        ..TailSampler::new(SLOW_RETAIN, ERROR_RETAIN, SAMPLE_WINDOW)
    })
}

/// Finish `ctx` and offer it to the global sampler. Returns whether
/// the trace was retained.
pub fn finish(ctx: &TraceCtx, e2e_ns: u64, error: bool) -> bool {
    ctx.finish(e2e_ns, error)
        .is_some_and(|t| sampler().offer(t))
}

/// Traces built and not yet finished (served on `/health`).
pub fn in_flight() -> u64 {
    IN_FLIGHT.load(Ordering::Relaxed)
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
    static ACTIVE: RefCell<Option<TraceCtx>> = const { RefCell::new(None) };
}

/// The thread's active trace, if a [`scope`] is open. This is the one
/// branch an untraced span site pays.
#[inline]
pub fn active() -> Option<TraceCtx> {
    ACTIVE.with(|c| c.borrow().clone())
}

/// RAII guard restoring the previous thread-local trace on drop.
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
        let prev = self.prev.take();
        ACTIVE.with(|c| c.replace(prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(e2e: u64, error: bool) -> FinishedTrace {
        FinishedTrace {
            trace_id: e2e.max(1),
            batch: None,
            started_unix_us: 0,
            e2e_ns: e2e,
            error,
            dropped_spans: 0,
            spans: Vec::new(),
        }
    }

    fn mint() -> TraceCtx {
        TraceCtx::mint().expect("obs enabled")
    }

    #[test]
    fn mint_is_unique_and_nonzero() {
        let _g = crate::testutil::shared();
        let (a, b) = (mint(), mint());
        assert_ne!(a.trace_id, 0);
        assert_ne!(a.trace_id, b.trace_id);
        assert_eq!(a.span_id, 0);
        assert_ne!(mint_id(), 0);
    }

    #[test]
    fn from_wire_rejects_zero() {
        let _g = crate::testutil::shared();
        assert!(TraceCtx::from_wire(0).is_none());
        assert_eq!(TraceCtx::from_wire(7).unwrap().trace_id, 7);
    }

    #[test]
    fn disabled_obs_builds_no_trace() {
        let _g = crate::testutil::exclusive();
        crate::set_enabled(false);
        let (minted, adopted) = (TraceCtx::mint(), TraceCtx::from_wire(7));
        crate::set_enabled(true);
        assert!(minted.is_none() && adopted.is_none());
    }

    #[test]
    fn spans_build_a_tree() {
        let _g = crate::testutil::shared();
        let ctx = mint();
        let infer = ctx.begin("serve_infer").unwrap();
        let decode = infer.record("stage_decoder", 50, "bin", 2).unwrap();
        assert!(infer.commit(120, "batch", 1));
        let fin = ctx.finish(200, false).unwrap();
        assert_eq!(fin.trace_id, ctx.trace_id);
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
    }

    #[test]
    fn uncommitted_spans_never_leak() {
        let _g = crate::testutil::shared();
        let ctx = mint();
        let _pending = ctx.begin("serve_infer").unwrap();
        let fin = ctx.finish(10, false).unwrap();
        assert!(fin.spans.is_empty(), "torn span leaked: {:?}", fin.spans);
    }

    #[test]
    fn commit_after_finish_never_lands() {
        let _g = crate::testutil::shared();
        let a = mint();
        let pending = a.begin("serve_infer").unwrap();
        assert!(a.finish(10, false).unwrap().spans.is_empty());
        // The laggard finds the buffer closed: no finished trace, of
        // this id or any other, can hold it.
        let b = mint();
        assert!(!pending.commit(99, "", 0));
        assert!(pending.record("stage_decoder", 99, "", 0).is_none());
        assert!(a.finish(10, false).is_none(), "second finish");
        b.record("serve_queue_wait", 5, "", 0).unwrap();
        let fin = b.finish(20, false).unwrap();
        assert_eq!(fin.spans.len(), 1);
        assert!(fin.spans.iter().all(|s| s.dur_ns != 99));
    }

    #[test]
    fn three_hundred_traces_stay_in_flight_at_once() {
        let _g = crate::testutil::shared();
        let traces: Vec<TraceCtx> = (0..300).map(|_| mint()).collect();
        for (i, ctx) in traces.iter().enumerate() {
            ctx.record("stage_decoder", 1, "bin", i as u64).unwrap();
        }
        // Other tests' traces only add to the count.
        assert!(in_flight() >= 300);
        for (i, ctx) in traces.iter().enumerate() {
            let fin = ctx.finish(1, false).unwrap();
            assert_eq!(fin.trace_id, ctx.trace_id);
            let values: Vec<u64> = fin.spans.iter().map(|s| s.value).collect();
            assert_eq!(values, vec![i as u64], "trace {i} holds its own span");
        }
    }

    #[test]
    fn dropped_trace_leaves_the_in_flight_count() {
        let _g = crate::testutil::exclusive();
        let before = in_flight();
        let ctx = mint();
        let child = ctx.begin("serve_infer").unwrap();
        assert_eq!(in_flight(), before + 1);
        drop(ctx);
        assert_eq!(in_flight(), before + 1, "a clone keeps the trace open");
        drop(child);
        assert_eq!(in_flight(), before);
    }

    #[test]
    fn span_budget_is_enforced() {
        let _g = crate::testutil::shared();
        let ctx = mint();
        for _ in 0..MAX_SPANS_PER_TRACE {
            assert!(ctx.record("stage_decoder", 1, "", 0).is_some());
        }
        assert!(ctx.record("stage_decoder", 1, "", 0).is_none());
        assert!(ctx.begin("serve_infer").is_none());
        let fin = ctx.finish(5, false).unwrap();
        assert_eq!(fin.spans.len(), MAX_SPANS_PER_TRACE);
        assert_eq!(fin.dropped_spans, 2);
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
    fn sampler_keeps_one_slow_trace_per_batch() {
        let s = TailSampler::new(SLOW_RETAIN, 2, 100);
        let batched = |e2e: u64| FinishedTrace {
            batch: Some(7),
            ..trace(e2e, false)
        };
        // Eight requests of one slow batch, then two faster lone ones.
        for e2e in [190, 192, 191, 193, 192, 190, 191, 192] {
            s.offer(batched(e2e));
        }
        s.offer(trace(40, false));
        s.offer(trace(50, false));
        let kept: Vec<(Option<u64>, u64)> = s
            .snapshot()
            .iter()
            .map(|r| (r.trace.batch, r.trace.e2e_ns))
            .collect();
        assert_eq!(kept, vec![(Some(7), 193), (None, 40), (None, 50)]);
        // A faster request of the held batch is not retained; a slower
        // one replaces the batch's trace in its slot.
        assert!(!s.offer(batched(100)));
        assert!(s.offer(batched(200)));
        assert_eq!(s.snapshot().len(), 3);
        // The tag travels from the handle to the finished trace.
        let _g = crate::testutil::shared();
        let ctx = mint();
        ctx.set_batch(7);
        assert_eq!(ctx.finish(1, false).unwrap().batch, Some(7));
        assert_eq!(mint().finish(1, false).unwrap().batch, None);
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
        let _g = crate::testutil::shared();
        let id = |ctx: Option<TraceCtx>| ctx.map(|c| (c.trace_id, c.span_id));
        assert!(active().is_none());
        let ctx = mint();
        {
            let _g = scope(ctx.clone());
            assert_eq!(id(active()), Some((ctx.trace_id, 0)));
            {
                let inner = ctx.begin("serve_infer").unwrap();
                let _g2 = scope(inner.clone());
                assert_eq!(id(active()), Some((ctx.trace_id, inner.span_id)));
            }
            assert_eq!(id(active()), Some((ctx.trace_id, 0)));
        }
        assert!(active().is_none());
    }

    #[test]
    fn global_finish_offers_to_sampler() {
        let _g = crate::testutil::shared();
        let ctx = mint();
        ctx.record("serve_infer", 10, "", 0);
        // An errored trace is always retained, so this asserts true
        // regardless of what other tests offered.
        assert!(finish(&ctx, 1, true));
        assert!(!finish(&ctx, 1, true), "double finish is a no-op");
    }
}
