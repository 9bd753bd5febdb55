//! Integration test for the panic-hook dump path: `obs::init()` must
//! produce a parseable `obs-dump.json` when a panic unwinds, holding
//! the retained traces and a metrics snapshot.
//!
//! Runs in its own test binary (hence its own process) so the panic
//! hook and the `ADARNET_OBS_DUMP` override cannot leak into other
//! tests.

use std::panic::{catch_unwind, AssertUnwindSafe};

use adarnet_obs::trace;

#[test]
fn panic_dump_produces_parseable_json() {
    let dir = std::env::temp_dir().join(format!("obs-dump-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("obs-dump.json");
    // Safety per std: set_var is unsafe-free pre-2024 edition; this
    // test binary is single-threaded at this point.
    std::env::set_var("ADARNET_OBS_DUMP", &path);

    adarnet_obs::init();
    adarnet_obs::counter!("dump_test_total").add(5);
    let ctx = trace::TraceCtx::mint().expect("obs enabled");
    {
        let _scope = trace::scope(ctx.clone());
        let _g = adarnet_obs::span!("doomed_stage");
    }
    assert!(trace::finish(&ctx, 1_000, true), "errored trace retained");
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        panic!("induced panic for dump test");
    }));
    assert!(unwound.is_err());

    let raw = std::fs::read_to_string(&path).expect("dump file written by panic hook");
    let doc = serde_json::parse_value(&raw).expect("dump is valid JSON");
    let obj = doc.as_object().expect("top-level object");
    let get = |k: &str| obj.iter().find(|(n, _)| n == k).map(|(_, v)| v);
    assert_eq!(get("reason").and_then(|v| v.as_str()), Some("panic"));
    assert!(get("traces").is_some(), "retained traces embedded");
    assert!(get("metrics").is_some(), "metrics snapshot embedded");
    // The trace that errored before the panic is in the dump, span and all.
    let id = format!("\"trace_id\":\"{:016x}\"", ctx.trace_id());
    let at = raw.find(&id).expect("pre-panic errored trace survives");
    assert!(raw[at..].contains("\"error\":true"));
    assert!(raw[at..].contains("\"name\":\"doomed_stage\""));

    let _ = std::fs::remove_dir_all(&dir);
}
