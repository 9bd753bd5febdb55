//! The `/metrics` exemplar must name a trace `/traces` still holds.
//!
//! A histogram exemplar is the slowest traced sample of its window, and
//! the tail sampler keeps only the current and previous window's
//! slowest traces. So after one slow request and `2 × SAMPLE_WINDOW`
//! faster ones, the slow trace is gone from the sampler, and the
//! exemplar must have moved off it.
//!
//! Runs in its own test binary so the global arena, sampler and
//! registry hold only this test's traffic.

use adarnet_obs::trace::{self, TraceCtx, SAMPLE_WINDOW};
use adarnet_obs::{registry, Histogram};

/// One traced request through the global path: claim an arena slot,
/// record its latency into `h` with its trace id, finish and offer it.
fn request(h: &Histogram, e2e_ns: u64) -> u64 {
    let ctx = TraceCtx::mint();
    assert!(trace::arena().start(ctx));
    h.record_traced(e2e_ns, ctx.trace_id);
    trace::finish(ctx, e2e_ns, false);
    ctx.trace_id
}

/// Every exemplar in the global registry names a retained trace.
fn exemplars_are_retained() -> Vec<u64> {
    let retained: Vec<u64> = trace::sampler()
        .snapshot()
        .iter()
        .map(|r| r.trace.trace_id)
        .collect();
    let exemplars: Vec<u64> = registry()
        .snapshot()
        .histograms
        .iter()
        .filter_map(|h| h.exemplar.map(|(_, id)| id))
        .collect();
    for id in &exemplars {
        assert!(
            retained.contains(id),
            "exemplar trace {id:016x} is not among the {} retained traces",
            retained.len()
        );
    }
    exemplars
}

#[test]
fn exemplar_follows_the_sampler_window() {
    let h = registry().histogram("exemplar_window_e2e_ns");
    let slow = request(&h, 1_000_000);
    for i in 0..2 * SAMPLE_WINDOW {
        request(&h, 1_000 + i % 7);
    }
    assert!(
        !trace::sampler()
            .snapshot()
            .iter()
            .any(|r| r.trace.trace_id == slow),
        "two windows later the sampler has dropped the slow trace"
    );
    exemplars_are_retained();

    // The next traced request opens the exemplar again.
    let next = request(&h, 2_000);
    assert_eq!(exemplars_are_retained(), vec![next]);
}
