//! RAII tracing spans: `obs::span!("decode", bin = n)` times a scope,
//! records the duration (nanoseconds) into the histogram
//! `{name}_ns` and, when a trace is active on the thread, appends a
//! span record to it.
//!
//! Each `span!` call site owns a `static` [`SpanSite`] whose histogram
//! handle is resolved once (one registry lookup + one allocation on
//! first use); after that, entering and dropping an untraced span
//! touches only atomics — no allocation, in keeping with the
//! zero-alloc hot-path contract.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use crate::metrics::{registry, Histogram};

/// Per-call-site state for a `span!` invocation: the span name and the
/// lazily resolved duration histogram (`{name}_ns`).
pub struct SpanSite {
    name: &'static str,
    hist: OnceLock<Arc<Histogram>>,
}

impl SpanSite {
    /// Const constructor so `span!` can place sites in `static`s.
    pub const fn new(name: &'static str) -> SpanSite {
        SpanSite {
            name,
            hist: OnceLock::new(),
        }
    }

    /// Span name (also the trace-record name).
    pub fn name(&self) -> &'static str {
        self.name
    }

    fn histogram(&self) -> &Arc<Histogram> {
        self.hist
            .get_or_init(|| registry().histogram(&format!("{}_ns", self.name)))
    }

    /// Enter the span with no structured field.
    pub fn enter(&'static self) -> SpanGuard {
        self.enter_with("", 0)
    }

    /// Enter the span carrying one structured `field = value` pair
    /// (recorded on the trace span, not the histogram).
    pub fn enter_with(&'static self, field: &'static str, value: u64) -> SpanGuard {
        SpanGuard {
            site: self,
            field,
            value,
            start: crate::enabled().then(Instant::now),
        }
    }
}

/// Guard returned by [`SpanSite::enter`]; records on drop.
pub struct SpanGuard {
    site: &'static SpanSite,
    field: &'static str,
    value: u64,
    /// `None` when the obs layer was disabled at entry — the drop then
    /// records nothing, so disabled spans cost two branches total.
    start: Option<Instant>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else {
            return;
        };
        let ns = start.elapsed().as_nanos() as u64;
        self.site.histogram().record(ns);
        // Attach to the active trace, if one is scoped to this thread
        // — for untraced work this is the single `None` branch the
        // overhead budget allows.
        if let Some(ctx) = crate::trace::active() {
            ctx.record(self.site.name, ns, self.field, self.value);
        }
    }
}

/// Time a scope into the histogram `{name}_ns` and the active trace.
///
/// ```
/// {
///     let _g = adarnet_obs::span!("stage_decoder", bins = 4u64);
///     // ... work ...
/// } // duration recorded here
/// ```
#[macro_export]
macro_rules! span {
    ($name:literal) => {{
        static SITE: $crate::span::SpanSite = $crate::span::SpanSite::new($name);
        SITE.enter()
    }};
    ($name:literal, $field:ident = $value:expr) => {{
        static SITE: $crate::span::SpanSite = $crate::span::SpanSite::new($name);
        SITE.enter_with(stringify!($field), ($value) as u64)
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_duration_and_active_trace_span() {
        let _g = crate::testutil::shared();
        let ctx = crate::TraceCtx::mint().expect("obs enabled");
        {
            let _scope = crate::trace::scope(ctx.clone());
            let _g = crate::span!("obs_test_span", bin = 2u64);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let snap = registry().snapshot();
        let h = snap.histogram("obs_test_span_ns").expect("histogram");
        assert!(h.count >= 1);
        assert!(h.max >= 1_000_000, "slept 1ms, recorded {}ns", h.max);
        let fin = ctx.finish(0, false).expect("trace");
        let rec = fin
            .spans
            .iter()
            .find(|s| s.name == "obs_test_span")
            .expect("trace span");
        assert_eq!((rec.field, rec.value), ("bin", 2));
        assert!(rec.dur_ns >= 1_000_000);
    }

    #[test]
    fn disabled_span_records_nothing() {
        let _g = crate::testutil::exclusive();
        let before = registry().histogram("obs_gated_span_ns").count();
        crate::set_enabled(false);
        {
            let _g = crate::span!("obs_gated_span");
        }
        crate::set_enabled(true);
        assert_eq!(registry().histogram("obs_gated_span_ns").count(), before);
    }
}
