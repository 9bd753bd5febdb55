//! The metrics substrate: counters, gauges, and log-scale histograms
//! behind a process-wide [`MetricsRegistry`].
//!
//! Record-path contract (the whole point of this module):
//!
//! * **lock-free** — recording touches only atomics; the registry's
//!   mutex guards *registration* (cold, once per metric name), never
//!   the data path;
//! * **allocation-free** — counters, gauges, and histograms are
//!   fixed-size atomic arrays allocated at registration; a steady-state
//!   record loop performs zero heap allocations (the zero-alloc
//!   acceptance test in `crates/core` runs with instrumentation on);
//! * **striped** — counters and histogram sums spread writers over
//!   [`STRIPES`] cache-line-padded cells indexed by a per-thread slot,
//!   so concurrent recorders do not serialize on one cache line.
//!   Histogram *buckets* are naturally striped by value.
//!
//! Reads (`value()`, `snapshot()`) issue an `Acquire` fence and sum the
//! stripes; record-side increments use `Release` RMWs, so a snapshot
//! taken after a synchronizing event (thread join, channel recv)
//! observes every increment that happened-before it — this is the fix
//! for the stale post-shutdown `stats()` reads the serve crate used to
//! allow with pure `Relaxed` loads.

use std::collections::BTreeMap;
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Number of per-metric write stripes. Eight covers the worker-thread
/// counts this workspace runs (serve workers + connection threads) without
/// bloating every counter.
pub const STRIPES: usize = 8;

/// One cache line per stripe so two stripes never share a line.
#[repr(align(64))]
#[derive(Default)]
struct Padded(AtomicU64);

static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

/// This thread's stripe slot (assigned round-robin on first use).
#[inline]
fn stripe() -> usize {
    thread_local! {
        static STRIPE: usize = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
    }
    STRIPE.with(|s| *s)
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------

/// Monotone counter striped over [`STRIPES`] atomic cells.
pub struct Counter {
    name: String,
    cells: [Padded; STRIPES],
}

impl Counter {
    fn new(name: String) -> Counter {
        Counter {
            name,
            cells: Default::default(),
        }
    }

    /// Metric name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Add `n`. Lock- and allocation-free; no-op while the obs layer is
    /// disabled (see [`crate::set_enabled`]).
    #[inline]
    pub fn add(&self, n: u64) {
        if !crate::enabled() {
            return;
        }
        self.cells[stripe()].0.fetch_add(n, Ordering::Release);
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total: acquire-fenced sum over the stripes.
    pub fn value(&self) -> u64 {
        fence(Ordering::Acquire);
        self.cells.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }
}

// ---------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------

/// Last-write-wins `f64` gauge (stored as bits in one atomic).
pub struct Gauge {
    name: String,
    bits: AtomicU64,
}

impl Gauge {
    fn new(name: String) -> Gauge {
        Gauge {
            name,
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Metric name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Set the gauge. No-op while the obs layer is disabled.
    #[inline]
    pub fn set(&self, v: f64) {
        if !crate::enabled() {
            return;
        }
        self.bits.store(v.to_bits(), Ordering::Release);
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Acquire))
    }
}

// ---------------------------------------------------------------------
// Histogram bucketing
// ---------------------------------------------------------------------

/// Values below this get their own exact unit-width bucket.
const EXACT: u64 = 32;
/// Sub-buckets per power-of-two octave above the exact range (3
/// significant bits -> relative quantization error <= 1/8).
const SUB: usize = 8;
/// First octave covered by sub-bucketed ranges (2^5 == [`EXACT`]).
const FIRST_OCTAVE: u32 = 5;
/// Total fixed bucket count: 32 exact + 59 octaves x 8 sub-buckets.
pub const NUM_BUCKETS: usize = EXACT as usize + (64 - FIRST_OCTAVE as usize) * SUB;

/// Bucket index of a recorded value. Log-scale with 3 significant
/// bits: exact below [`EXACT`], then `[2^o + s*2^(o-3), 2^o + (s+1)*2^(o-3))`
/// for octave `o` and sub-bucket `s`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < EXACT {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros();
    let sub = ((v >> (octave - 3)) & 7) as usize;
    EXACT as usize + (octave - FIRST_OCTAVE) as usize * SUB + sub
}

/// `[lo, hi)` value range of bucket `i` (the last bucket's `hi`
/// saturates at `u64::MAX`).
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    debug_assert!(i < NUM_BUCKETS);
    if i < EXACT as usize {
        return (i as u64, i as u64 + 1);
    }
    let rel = i - EXACT as usize;
    let octave = FIRST_OCTAVE + (rel / SUB) as u32;
    let sub = (rel % SUB) as u64;
    let width = 1u64 << (octave - 3);
    let lo = (1u64 << octave).saturating_add(sub * width);
    (lo, lo.saturating_add(width).max(lo.saturating_add(1)))
}

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

/// Fixed-bucket log-scale histogram of `u64` samples (nanoseconds for
/// span durations, plain counts elsewhere).
///
/// Buckets are single atomics — distinct values stripe across the
/// bucket array by construction; the running sum is striped explicitly.
/// Quantization error of any quantile estimate is bounded by the
/// sub-bucket width: <= 12.5% relative above [`EXACT`], exact below.
pub struct Histogram {
    name: String,
    buckets: Box<[AtomicU64]>,
    sums: [Padded; STRIPES],
    max: AtomicU64,
    /// Exemplar seqlock: even = stable, odd = a writer owns the pair
    /// below. Writers claim with one CAS (losers skip — an exemplar is
    /// advisory), readers retry on a torn read.
    ex_seq: AtomicU64,
    /// Value of the exemplar sample (the max-latency traced sample
    /// since the last [`Histogram::reset_exemplar`]).
    ex_value: AtomicU64,
    /// Trace id of that sample, linking `/metrics` to `/traces`.
    ex_trace: AtomicU64,
}

impl Histogram {
    fn new(name: String) -> Histogram {
        Histogram {
            name,
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sums: Default::default(),
            max: AtomicU64::new(0),
            ex_seq: AtomicU64::new(0),
            ex_value: AtomicU64::new(0),
            ex_trace: AtomicU64::new(0),
        }
    }

    /// Metric name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Record one sample. Lock- and allocation-free; no-op while the
    /// obs layer is disabled.
    #[inline]
    pub fn record(&self, v: u64) {
        if !crate::enabled() {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Release);
        self.sums[stripe()].0.fetch_add(v, Ordering::Release);
        self.max.fetch_max(v, Ordering::AcqRel);
    }

    /// Record one sample carrying its request's trace id (0 =
    /// untraced, identical to [`Histogram::record`]). When the sample
    /// is the slowest this exemplar window, the `(value, trace_id)`
    /// exemplar pair is updated — one relaxed load on the not-slowest
    /// path, a short seqlock write when a new max lands.
    #[inline]
    pub fn record_traced(&self, v: u64, trace_id: u64) {
        self.record(v);
        if trace_id == 0 || !crate::enabled() || v <= self.ex_value.load(Ordering::Relaxed) {
            return;
        }
        let seq = self.ex_seq.load(Ordering::Relaxed);
        if !seq.is_multiple_of(2)
            || self
                .ex_seq
                .compare_exchange(seq, seq + 1, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            return; // another writer is installing its (larger or racing) sample
        }
        if v > self.ex_value.load(Ordering::Relaxed) {
            self.ex_value.store(v, Ordering::Relaxed);
            self.ex_trace.store(trace_id, Ordering::Relaxed);
        }
        self.ex_seq.store(seq + 2, Ordering::Release);
    }

    /// The `(value, trace_id)` exemplar pair, if a traced sample has
    /// landed since the last reset. `None` is also returned on a
    /// persistently torn read (a writer mid-install).
    pub fn exemplar(&self) -> Option<(u64, u64)> {
        for _ in 0..64 {
            let s1 = self.ex_seq.load(Ordering::Acquire);
            if !s1.is_multiple_of(2) {
                continue;
            }
            let v = self.ex_value.load(Ordering::Relaxed);
            let t = self.ex_trace.load(Ordering::Relaxed);
            if self.ex_seq.load(Ordering::Acquire) == s1 {
                return (t != 0).then_some((v, t));
            }
        }
        None
    }

    /// Open a new exemplar window: the next traced sample becomes the
    /// exemplar regardless of past maxima.
    pub fn reset_exemplar(&self) {
        let seq = self.ex_seq.load(Ordering::Relaxed);
        if seq.is_multiple_of(2)
            && self
                .ex_seq
                .compare_exchange(seq, seq + 1, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
        {
            self.ex_value.store(0, Ordering::Relaxed);
            self.ex_trace.store(0, Ordering::Relaxed);
            self.ex_seq.store(seq + 2, Ordering::Release);
        }
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        fence(Ordering::Acquire);
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Acquire-fenced point-in-time view.
    pub fn snapshot(&self) -> HistogramSnapshot {
        fence(Ordering::Acquire);
        let mut buckets = Vec::new();
        let mut count = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((i, n));
                count += n;
            }
        }
        HistogramSnapshot {
            name: self.name.clone(),
            count,
            sum: self.sums.iter().map(|s| s.0.load(Ordering::Relaxed)).sum(),
            max: self.max.load(Ordering::Relaxed),
            buckets,
            exemplar: self.exemplar(),
        }
    }
}

/// Serializable view of one histogram: sparse `(bucket index, count)`
/// pairs plus count/sum/max.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample seen (exact, not quantized).
    pub max: u64,
    /// Non-empty buckets, ascending by index.
    pub buckets: Vec<(usize, u64)>,
    /// `(value, trace_id)` of the max-latency traced sample this
    /// exemplar window (see [`Histogram::record_traced`]).
    pub exemplar: Option<(u64, u64)>,
}

impl HistogramSnapshot {
    /// An empty snapshot (zero traffic) under `name`.
    pub fn empty(name: impl Into<String>) -> HistogramSnapshot {
        HistogramSnapshot {
            name: name.into(),
            count: 0,
            sum: 0,
            max: 0,
            buckets: Vec::new(),
            exemplar: None,
        }
    }

    /// Mean sample value (0 with no traffic).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank quantile (`q` in `[0, 1]`) with linear interpolation
    /// inside the landing bucket, clamped to the recorded max. Exact for
    /// values below 32, <= 12.5% relative quantization error above.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for &(i, n) in &self.buckets {
            if cum + n >= target {
                let (lo, hi) = bucket_bounds(i);
                let into = (target - cum) as f64 - 0.5;
                let frac = (into / n as f64).clamp(0.0, 1.0);
                let est = lo as f64 + frac * (hi - lo) as f64;
                return est.min(self.max as f64).max(lo as f64);
            }
            cum += n;
        }
        self.max as f64
    }

    /// Percentile helper (`p` in `[0, 100]`).
    pub fn percentile(&self, p: f64) -> f64 {
        self.quantile(p / 100.0)
    }

    /// The window between `earlier` and `self` (both cumulative
    /// snapshots of the same histogram): per-bucket count deltas.
    /// The window max is exact when the cumulative max moved during the
    /// window, otherwise estimated from the highest non-empty delta
    /// bucket (quantized, and never above the cumulative max).
    pub fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut before: BTreeMap<usize, u64> = earlier.buckets.iter().copied().collect();
        let mut buckets = Vec::new();
        let mut count = 0u64;
        for &(i, n) in &self.buckets {
            let d = n.saturating_sub(before.remove(&i).unwrap_or(0));
            if d > 0 {
                buckets.push((i, d));
                count += d;
            }
        }
        let max = if self.max != earlier.max {
            self.max
        } else {
            buckets
                .last()
                .map(|&(i, _)| (bucket_bounds(i).1 - 1).min(self.max))
                .unwrap_or(0)
        };
        HistogramSnapshot {
            name: self.name.clone(),
            count,
            sum: self.sum.saturating_sub(earlier.sum),
            max,
            buckets,
            // The cumulative exemplar belongs to this window only if
            // the max moved during it (same reasoning as `max` above).
            exemplar: if self.max != earlier.max {
                self.exemplar
            } else {
                None
            },
        }
    }
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

/// Serializable view of every registered metric, sorted by name.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// `(name, total)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, f64)>,
    /// One [`HistogramSnapshot`] per histogram.
    pub histograms: Vec<HistogramSnapshot>,
}

impl Snapshot {
    /// Counter total by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Histogram view by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Prometheus-style exposition text (see [`crate::text`]).
    pub fn render_text(&self) -> String {
        crate::text::render(self)
    }

    /// Hand-rolled JSON (the crate has no serde dependency).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (k, (name, v)) in self.counters.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{v}", crate::text::sanitize(name)));
        }
        out.push_str("},\"gauges\":{");
        for (k, (name, v)) in self.gauges.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{}",
                crate::text::sanitize(name),
                json_f64(*v)
            ));
        }
        out.push_str("},\"histograms\":{");
        for (k, h) in self.histograms.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            let exemplar = match h.exemplar {
                Some((v, t)) => format!(",\"exemplar_value\":{v},\"exemplar_trace\":\"{t:016x}\""),
                None => String::new(),
            };
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{}{}}}",
                crate::text::sanitize(&h.name),
                h.count,
                h.sum,
                h.max,
                json_f64(h.percentile(50.0)),
                json_f64(h.percentile(95.0)),
                json_f64(h.percentile(99.0)),
                exemplar,
            ));
        }
        out.push_str("}}");
        out
    }
}

/// JSON has no NaN/inf literal; clamp them to null.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Process-wide registry of named metrics. Registration interns by
/// name (get-or-create) behind a mutex; the returned `Arc` handles are
/// the lock-free record path.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// A fresh, empty registry (tests; production code uses
    /// [`registry`]).
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let name = crate::text::sanitize(name);
        lock(&self.counters)
            .entry(name.clone())
            .or_insert_with(|| Arc::new(Counter::new(name)))
            .clone()
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let name = crate::text::sanitize(name);
        lock(&self.gauges)
            .entry(name.clone())
            .or_insert_with(|| Arc::new(Gauge::new(name)))
            .clone()
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let name = crate::text::sanitize(name);
        lock(&self.histograms)
            .entry(name.clone())
            .or_insert_with(|| Arc::new(Histogram::new(name)))
            .clone()
    }

    /// Acquire-fenced view of every metric, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        fence(Ordering::Acquire);
        Snapshot {
            counters: lock(&self.counters)
                .iter()
                .map(|(n, c)| (n.clone(), c.value()))
                .collect(),
            gauges: lock(&self.gauges)
                .iter()
                .map(|(n, g)| (n.clone(), g.value()))
                .collect(),
            histograms: lock(&self.histograms)
                .values()
                .map(|h| h.snapshot())
                .collect(),
        }
    }

    /// Prometheus-style exposition text of a fresh snapshot.
    pub fn render_text(&self) -> String {
        self.snapshot().render_text()
    }
}

/// The process-wide registry.
pub fn registry() -> &'static MetricsRegistry {
    static REGISTRY: OnceLock<MetricsRegistry> = OnceLock::new();
    REGISTRY.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_matches_bounds_everywhere() {
        // Every bucket's own bounds map back to its index, adjacent
        // buckets tile the axis with no gaps or overlaps.
        let mut prev_hi = 0u64;
        for i in 0..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, prev_hi, "bucket {i} must start where {} ended", i - 1);
            assert!(hi > lo, "bucket {i} is empty");
            assert_eq!(bucket_index(lo), i, "lo of bucket {i}");
            assert_eq!(bucket_index(hi - 1), i, "hi-1 of bucket {i}");
            prev_hi = hi;
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn exact_buckets_below_32() {
        for v in 0..32u64 {
            assert_eq!(bucket_bounds(bucket_index(v)), (v, v + 1));
        }
    }

    #[test]
    fn relative_quantization_error_is_bounded() {
        for v in [33u64, 100, 1_000, 123_456, 10_000_000_000] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(lo <= v && v < hi);
            assert!(
                (hi - lo) as f64 / lo as f64 <= 0.125 + 1e-9,
                "bucket [{lo}, {hi}) too wide at {v}"
            );
        }
    }

    #[test]
    fn counter_stripes_sum_to_total() {
        let _g = crate::testutil::shared();
        let reg = MetricsRegistry::new();
        let c = reg.counter("t_total");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = &c;
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.value(), 40_000);
    }

    #[test]
    fn histogram_concurrent_count_and_sum_consistent() {
        let _g = crate::testutil::shared();
        let reg = MetricsRegistry::new();
        let h = reg.histogram("t_ns");
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..5_000u64 {
                        h.record(t * 5_000 + i);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count, 20_000);
        assert_eq!(snap.sum, (0..20_000u64).sum::<u64>());
        assert_eq!(snap.max, 19_999);
    }

    #[test]
    fn percentiles_track_exact_quantiles_on_uniform() {
        let _g = crate::testutil::shared();
        let reg = MetricsRegistry::new();
        let h = reg.histogram("u");
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        for p in [10.0, 50.0, 90.0, 95.0, 99.0, 99.9] {
            let exact = p / 100.0 * 10_000.0;
            let est = snap.percentile(p);
            let rel = (est - exact).abs() / exact;
            assert!(rel <= 0.13, "p{p}: est {est} vs exact {exact} (rel {rel})");
        }
        assert_eq!(snap.quantile(1.0), 10_000.0);
    }

    #[test]
    fn percentiles_exact_on_small_values() {
        let _g = crate::testutil::shared();
        let reg = MetricsRegistry::new();
        let h = reg.histogram("s");
        for v in [1u64, 2, 3, 4, 5, 6, 7, 8, 9, 10] {
            h.record(v);
        }
        let snap = h.snapshot();
        // Unit-width buckets: the interpolated estimate lands inside
        // [v, v+1) of the exact nearest-rank value.
        let p50 = snap.percentile(50.0);
        assert!((5.0..6.0).contains(&p50), "p50 = {p50}");
        let p90 = snap.percentile(90.0);
        assert!((9.0..10.0).contains(&p90), "p90 = {p90}");
    }

    #[test]
    fn empty_histogram_is_all_zeroes() {
        let reg = MetricsRegistry::new();
        let snap = reg.histogram("never").snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.percentile(99.0), 0.0);
        assert_eq!(snap.mean(), 0.0);
    }

    #[test]
    fn delta_window_isolates_new_samples() {
        let _g = crate::testutil::shared();
        let reg = MetricsRegistry::new();
        let h = reg.histogram("w");
        for _ in 0..100 {
            h.record(10);
        }
        let before = h.snapshot();
        for _ in 0..50 {
            h.record(1_000);
        }
        let window = h.snapshot().since(&before);
        assert_eq!(window.count, 50);
        assert_eq!(window.sum, 50_000);
        assert_eq!(window.max, 1_000, "cumulative max moved -> exact");
        assert!(window.percentile(50.0) >= 900.0);
        // A second, empty window reports nothing.
        let after = h.snapshot();
        let empty = after.since(&after);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.max, 0);
    }

    #[test]
    fn exemplar_tracks_slowest_traced_sample() {
        let _g = crate::testutil::shared();
        let reg = MetricsRegistry::new();
        let h = reg.histogram("ex_ns");
        h.record_traced(100, 0xAAAA);
        h.record_traced(50, 0xBBBB); // not slower: exemplar unchanged
        h.record(500); // untraced: exemplar unchanged
        assert_eq!(h.exemplar(), Some((100, 0xAAAA)));
        h.record_traced(700, 0xCCCC);
        assert_eq!(h.exemplar(), Some((700, 0xCCCC)));
        assert_eq!(h.snapshot().exemplar, Some((700, 0xCCCC)));
        h.reset_exemplar();
        assert_eq!(h.exemplar(), None, "reset opens a fresh window");
        h.record_traced(1, 0xDDDD);
        assert_eq!(h.exemplar(), Some((1, 0xDDDD)));
    }

    #[test]
    fn exemplar_concurrent_writers_keep_the_max() {
        let _g = crate::testutil::shared();
        let reg = MetricsRegistry::new();
        let h = reg.histogram("ex_race_ns");
        std::thread::scope(|s| {
            for t in 1..=4u64 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..2_000u64 {
                        h.record_traced(t * 2_000 + i, t);
                    }
                });
            }
        });
        // A racing loser may skip an update, but the pair can never be
        // torn and never exceeds the true max.
        let (v, t) = h.exemplar().expect("exemplar recorded");
        assert!(v <= 4 * 2_000 + 1_999);
        assert!((1..=4).contains(&t));
        assert_eq!(v / 2_000, t, "value always pairs with its writer's id");
    }

    #[test]
    fn registry_interns_by_name() {
        let _g = crate::testutil::shared();
        let reg = MetricsRegistry::new();
        let a = reg.counter("same");
        let b = reg.counter("same");
        a.add(3);
        assert_eq!(b.value(), 3);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn gauge_round_trips_f64() {
        let _g = crate::testutil::shared();
        let reg = MetricsRegistry::new();
        let g = reg.gauge("g");
        g.set(0.1234567890123);
        assert_eq!(g.value(), 0.1234567890123);
        g.set(-4.0);
        assert_eq!(g.value(), -4.0);
    }

    #[test]
    fn snapshot_sorted_and_queryable() {
        let _g = crate::testutil::shared();
        let reg = MetricsRegistry::new();
        reg.counter("zzz_total").add(1);
        reg.counter("aaa_total").add(2);
        reg.gauge("mid").set(1.5);
        reg.histogram("h_ns").record(7);
        let snap = reg.snapshot();
        assert_eq!(snap.counters[0].0, "aaa_total");
        assert_eq!(snap.counter("zzz_total"), Some(1));
        assert_eq!(snap.gauge("mid"), Some(1.5));
        assert_eq!(snap.histogram("h_ns").map(|h| h.count), Some(1));
    }
}
