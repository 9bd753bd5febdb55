//! adarnet-obs: zero-dependency observability for the ADARNet stack.
//!
//! Three layers, designed so every crate in the workspace (down to the
//! tensor substrate) can instrument itself without new dependencies:
//!
//! 1. **Metrics** ([`metrics`]) — a process-wide [`MetricsRegistry`]
//!    of named counters, gauges, and fixed-bucket log-scale
//!    histograms. The record path is lock-free (striped atomics) and
//!    allocation-free; [`MetricsRegistry::snapshot`] returns a
//!    serializable view and [`Snapshot::render_text`] emits
//!    Prometheus-style exposition text.
//! 2. **Spans** ([`span`](mod@span)) — `obs::span!("stage_decoder", bins = n)`
//!    RAII guards that time a scope into the `{name}_ns` histogram.
//! 3. **Tracing** ([`trace`]) — per-request span trees: a [`TraceCtx`]
//!    handle carried through the request path that owns its trace's
//!    span buffer, and a tail sampler retaining the slowest and
//!    errored traces per window. A `span!` site entered under
//!    [`trace::scope`] attaches its record to the active trace.
//!    [`dump`] writes the sampler's retained traces plus a metrics
//!    snapshot to `target/obs-dump.json` on panic (via the hook
//!    installed by [`init`]), load-shed, and hot-swap.
//!
//! The whole layer sits behind one global switch ([`set_enabled`]):
//! disabled, every record path is a single relaxed load and an early
//! return, which is what the `obs_overhead` CI gate measures.
//!
//! Overhead budget (enforced by `scripts/ci.sh` stage `obs`): an
//! instrumented pass of `InferenceEngine::infer` over a batch of fields
//! must stay within 3% of the uninstrumented run.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::unimplemented,
        clippy::print_stdout,
        clippy::print_stderr
    )
)]

pub mod metrics;
pub mod names;
pub mod span;
pub mod text;
pub mod trace;

pub use metrics::{
    registry, Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, Snapshot,
};
pub use span::{SpanGuard, SpanSite};
pub use trace::{dump, FinishedTrace, SpanRec, TailSampler, TraceCtx};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Once;

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether record paths are live (default: yes).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Flip the global record switch. Used by the overhead bench to
/// measure instrumented vs. bare runs, and available to operators who
/// want a truly quiet process.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Install the obs panic hook (idempotent): on panic, the retained
/// traces and a metrics snapshot are force-dumped to
/// `target/obs-dump.json` *before* the previous hook (normally the default
/// backtrace printer) runs. Call once at process start; servers call
/// it from `Server::start`.
pub fn init() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let _ = trace::dump("panic", true);
            prev(info);
        }));
    });
}

/// Get (or lazily register) a process-wide counter by literal name.
///
/// The handle is resolved once per call site and cached in a `static`,
/// so steady-state use is one relaxed load + one striped `fetch_add`.
#[macro_export]
macro_rules! counter {
    ($name:literal) => {{
        static CELL: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Counter>> =
            ::std::sync::OnceLock::new();
        &**CELL.get_or_init(|| $crate::metrics::registry().counter($name))
    }};
}

/// Get (or lazily register) a process-wide gauge by literal name.
#[macro_export]
macro_rules! gauge {
    ($name:literal) => {{
        static CELL: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Gauge>> =
            ::std::sync::OnceLock::new();
        &**CELL.get_or_init(|| $crate::metrics::registry().gauge($name))
    }};
}

/// Get (or lazily register) a process-wide histogram by literal name.
#[macro_export]
macro_rules! histogram {
    ($name:literal) => {{
        static CELL: ::std::sync::OnceLock<::std::sync::Arc<$crate::metrics::Histogram>> =
            ::std::sync::OnceLock::new();
        &**CELL.get_or_init(|| $crate::metrics::registry().histogram($name))
    }};
}

#[cfg(test)]
pub(crate) mod testutil {
    //! The enable switch is process-global; tests that *toggle* it take
    //! the exclusive side of this gate, tests that *depend* on it being
    //! on take the shared side, so the parallel test harness cannot
    //! interleave a disabled window into a recording assertion.
    use std::sync::{OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

    fn gate() -> &'static RwLock<()> {
        static GATE: OnceLock<RwLock<()>> = OnceLock::new();
        GATE.get_or_init(|| RwLock::new(()))
    }

    pub fn shared() -> RwLockReadGuard<'static, ()> {
        gate().read().unwrap_or_else(|e| e.into_inner())
    }

    pub fn exclusive() -> RwLockWriteGuard<'static, ()> {
        gate().write().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn macros_intern_per_name() {
        let _g = crate::testutil::shared();
        counter!("lib_macro_total").add(2);
        counter!("lib_macro_total").inc();
        assert_eq!(counter!("lib_macro_total").value(), 3);
        gauge!("lib_macro_gauge").set(2.5);
        assert_eq!(gauge!("lib_macro_gauge").value(), 2.5);
        histogram!("lib_macro_ns").record(9);
        assert_eq!(histogram!("lib_macro_ns").count(), 1);
    }

    #[test]
    fn init_is_idempotent() {
        crate::init();
        crate::init();
    }
}
