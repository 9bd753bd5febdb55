//! The registry of observable names: every `span!` site name, every
//! `counter!` name and every reject-reason tag in the workspace, in one
//! place.
//!
//! Dashboards, the admin endpoint's `/traces` consumers, and the
//! loadgen reject-breakdown all key on these strings. Scattering them
//! as ad-hoc literals is how a renamed stage silently orphans a graph,
//! so `crates/check`'s `span-registry` lint cross-references the source
//! tree against these tables: a `span!("name")`, `counter!("name")` or
//! `RejectReason::X => "tag"` that is not listed here fails lint, and
//! so does a duplicate entry in the tables themselves (enforced by the
//! tests below).

/// Every `span!` site name (and direct trace-record name) in the
/// workspace, sorted. A span name is also the prefix of its duration
/// histogram (`{name}_ns`), so renames are operationally visible —
/// register them here deliberately.
pub const SPAN_SITES: &[&str] = &[
    "prepack_ns",
    "serve_batch_assembly",
    "serve_infer",
    "serve_queue_wait",
    "stage_decoder",
    "stage_ranker",
    "stage_scorer",
    "stage_solver",
    "stage_train_backward",
    "stage_train_forward",
    "stage_train_loss",
    "stage_train_optimizer",
    "stage_train_scatter",
    "stage_train_scorer_backward",
];

/// Every `counter!` name in the workspace's library code, sorted. The
/// admin endpoint and `serve stats` print them as they are written here.
pub const COUNTERS: &[&str] = &[
    "admin_requests_total",
    "cfd_barrier_parks_total",
    "core_decode_patches_total",
    "core_decode_tasks_total",
    "loadgen_transport_errors_total",
    "net_bad_requests_total",
    "net_connections_refused_total",
    "net_connections_total",
    "net_frame_errors_total",
    "net_frames_rx_total",
    "net_frames_tx_total",
    "nn_gemm_panels_total",
    "nn_infer_split_total",
    "serve_cache_hits_total",
    "serve_cache_misses_total",
    "tensor_pool_hits_total",
    "tensor_pool_misses_total",
    "trace_retained_total",
    "trace_spans_dropped_total",
    "train_epochs_total",
];

/// Every `RejectReason` wire tag, sorted. These appear in degraded
/// responses, per-reason reject counters, and the loadgen breakdown.
pub const REJECT_REASONS: &[&str] = &[
    "deadline_exceeded",
    "inference_error",
    "queue_full",
    "quota_exceeded",
    "shutdown",
];

/// True if `name` is a registered span site.
pub fn is_registered_span(name: &str) -> bool {
    SPAN_SITES.binary_search(&name).is_ok()
}

/// True if `name` is a registered counter.
pub fn is_registered_counter(name: &str) -> bool {
    COUNTERS.binary_search(&name).is_ok()
}

/// True if `tag` is a registered reject reason.
pub fn is_registered_reject(tag: &str) -> bool {
    REJECT_REASONS.binary_search(&tag).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_sorted_unique(table: &[&str], what: &str) {
        for w in table.windows(2) {
            assert!(
                w[0] < w[1],
                "{what} must be sorted and unique: `{}` then `{}`",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn tables_are_sorted_and_unique() {
        assert_sorted_unique(SPAN_SITES, "SPAN_SITES");
        assert_sorted_unique(COUNTERS, "COUNTERS");
        assert_sorted_unique(REJECT_REASONS, "REJECT_REASONS");
    }

    #[test]
    fn lookups_use_the_sort_order() {
        assert!(is_registered_span("stage_decoder"));
        assert!(!is_registered_span("stage_decoderx"));
        assert!(is_registered_counter("nn_infer_split_total"));
        assert!(!is_registered_counter("nn_infer_splits_total"));
        assert!(is_registered_reject("queue_full"));
        assert!(!is_registered_reject("rate_limited"));
    }
}
