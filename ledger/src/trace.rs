//! The traced run: one replayed pass of a workload under the ledger's
//! span recorder, the counts read from the obs registry at the same
//! boundaries, the attribution checks, and the fixed layer probes.
//! End-to-end metrics never come from here.

use std::collections::BTreeMap;

use adarnet_obs::Snapshot;

use crate::gen::Class;
use crate::probes;
use crate::run::RunResult;
use crate::spans::{Layer, Recorder, Span};
use crate::spec::{per_layer_name, share_metric, Workload, PER_LAYER};
use crate::stats::{percentile, sorted};
use crate::workloads::net::{Mode, NetStack};
use crate::workloads::open_mix::OpenMix;
use crate::workloads::ttc::Ttc;
use crate::workloads::CacheWindow;

/// Largest share of a traced operation that may lie outside every
/// call into a crate.
const MAX_UNATTRIBUTED: f64 = 0.10;
/// Smallest `cfd` share of a `ttc_capped` operation.
const MIN_CFD_SHARE_TTC: f64 = 0.85;
/// Smallest decoder (`nn`) share of a `net_miss` operation.
const MIN_DECODER_SHARE_MISS: f64 = 0.80;
/// Largest decoder (`nn`) share of a `net_hit` operation.
const MAX_DECODER_SHARE_HIT: f64 = 0.02;
/// Longest traced open-loop schedule, seconds.
const OPEN_TRACE_SECONDS: f64 = 8.0;

/// What one workload's traced pass produced.
struct Pass {
    rec: Recorder,
    /// Trace-derived metrics beyond the layer shares.
    metrics: BTreeMap<&'static str, f64>,
    ops: u64,
    failed: u64,
    /// Attribution and conservation failures.
    violations: Vec<String>,
    notes: Vec<String>,
}

fn mean_ms(spans: &[&Span], ops: u64) -> f64 {
    spans.iter().map(|s| s.duration_ns()).sum::<u64>() as f64 / ops.max(1) as f64 / 1e6
}

fn overhead(on_s: f64, off_s: f64) -> f64 {
    (on_s - off_s) / off_s
}

fn ttc_pass(seed: u64) -> Pass {
    let ttc = Ttc::setup(seed);
    let mut rec = Recorder::on();
    let (on_s, off_s) = ttc.replay(&mut rec);
    let ops = ttc.ops_per_pass() as u64;
    let named =
        |name: &str| -> Vec<&Span> { rec.spans().iter().filter(|s| s.name == name).collect() };
    let mut metrics = BTreeMap::new();
    metrics.insert(
        "cfd.lr_solve_ms",
        mean_ms(&named("solve_to_convergence.lr"), ops),
    );
    metrics.insert(
        "cfd.warm_solve_ms",
        mean_ms(&named("solve_to_convergence.warm"), ops),
    );
    metrics.insert(
        "cfd.lr_iters",
        rec.count_sum("solve_to_convergence.lr", "iterations") as f64,
    );
    metrics.insert(
        "cfd.warm_iters",
        rec.count_sum("solve_to_convergence.warm", "iterations") as f64,
    );
    metrics.insert(
        "cfd.converged_share",
        rec.count_sum("solve_to_convergence.lr", "converged") as f64 / ops as f64,
    );
    metrics.insert(
        "amr.active_cells",
        rec.count_sum("solve_to_convergence.warm", "cells") as f64,
    );
    metrics.insert("obs.trace_overhead_share", overhead(on_s, off_s));
    let notes = vec![
        format!(
            "one pass of {ops} ops, each replayed untraced then traced: traced mean {:.3} ms, untraced {:.3} ms; set-up took {:.1} ms per training step, {:.1} ms for the dataset",
            on_s * 1e3,
            off_s * 1e3,
            ttc.train_step_s * 1e3,
            ttc.synthesize_s * 1e3
        ),
    ];
    Pass {
        rec,
        metrics,
        ops,
        failed: 0,
        violations: Vec::new(),
        notes,
    }
}

fn net_pass(mode: Mode, seed: u64) -> Pass {
    let mut stack = NetStack::setup(mode, seed);
    let live_s = stack.live_pass();
    let lookups = CacheWindow::open(stack.server().cache());
    let mut rec = Recorder::on();
    let (on_s, off_s) = stack.replay(&mut rec);
    let hit_share = lookups.hit_share(stack.server().cache());
    let ops = crate::workloads::net::POOL as u64;
    let mut metrics = BTreeMap::new();
    for bin in 0..4u64 {
        let spans: Vec<&Span> = rec
            .spans_where("FrozenDecoder::forward", "bin", bin)
            .collect();
        metrics.insert(
            per_layer_name(&format!("core.decode_bin{bin}_ms")),
            mean_ms(&spans, ops),
        );
        let patches: u64 = spans.iter().filter_map(|s| s.count("patches")).sum();
        metrics.insert(
            per_layer_name(&format!("core.patches_bin{bin}")),
            patches as f64,
        );
    }
    metrics.insert("serve.cache_hit_share", hit_share);
    metrics.insert("obs.trace_overhead_share", overhead(on_s, off_s));
    let notes = vec![format!(
        "one pass of {ops} ops: live over TCP mean {:.3} ms; replayed in process untraced then traced, {:.3} ms traced and {:.3} ms untraced; {}",
        live_s * 1e3,
        on_s * 1e3,
        off_s * 1e3,
        stack.backend()
    )];
    let violations = stack.finish();
    Pass {
        rec,
        metrics,
        ops,
        failed: 0,
        violations,
        notes,
    }
}

fn open_pass(seed: u64, seconds: f64) -> Pass {
    let mut mix = OpenMix::setup(seed);
    let server = mix.stack().server.clone();
    let stats_before = server.stats();
    let lookups = CacheWindow::open(server.cache());
    let waits_before = adarnet_obs::registry().snapshot();
    let records = mix.run_schedule(seconds.min(OPEN_TRACE_SECONDS));
    let waits_after = adarnet_obs::registry().snapshot();
    let stats = server.stats();
    let hit_share = lookups.hit_share(server.cache());
    drop(server);

    // Spans built from the generator's and collector's timestamps: the
    // request crosses three threads, so no one thread can hold it open.
    let mut rec = Recorder::on();
    let mut failed = 0;
    let mut by_class: BTreeMap<bool, Vec<f64>> = BTreeMap::new();
    for r in &records {
        let op = r.k as u64 + 1;
        let done_s = r.sent_s + r.service_s;
        let root = rec.record_raw("open_op", Layer::Ledger, r.due_s, done_s, None, op);
        rec.record_raw(
            "generator.lateness",
            Layer::Ledger,
            r.due_s,
            r.sent_s,
            Some(root),
            op,
        );
        rec.record_raw(
            "Server::submit_with",
            Layer::Serve,
            r.sent_s,
            r.submitted_s,
            Some(root),
            op,
        );
        rec.record_raw(
            "serve.queue_batch_infer",
            Layer::Serve,
            r.submitted_s,
            done_s,
            Some(root),
            op,
        );
        if !(r.full && mix.decision_matches(r)) {
            failed += 1;
        }
        by_class
            .entry(r.class == Class::Cold)
            .or_default()
            .push(r.latency_ms());
    }
    let lane_p99 = |cold: bool| {
        by_class
            .get(&cold)
            .map_or(0.0, |v| percentile(&sorted(v), 99.0))
    };
    let wait = histogram_delta(&waits_after, &waits_before, "serve_queue_wait_ns");
    let batches = stats.batches - stats_before.batches;
    let mut metrics = BTreeMap::new();
    metrics.insert("serve.queue_wait_p50_us", wait.0 / 1e3);
    metrics.insert("serve.queue_wait_p99_us", wait.1 / 1e3);
    metrics.insert(
        "serve.batch_size_mean",
        (stats.batched_requests - stats_before.batched_requests) as f64 / batches.max(1) as f64,
    );
    metrics.insert("serve.lane_interactive_p99_ms", lane_p99(false));
    metrics.insert("serve.lane_bulk_p99_ms", lane_p99(true));
    metrics.insert(
        "serve.shed_share",
        (stats.shed_total() - stats_before.shed_total()) as f64 / records.len() as f64,
    );
    metrics.insert("serve.cache_hit_share", hit_share);
    // The spans are written after the fact, so they cost the run nothing.
    metrics.insert("obs.trace_overhead_share", 0.0);
    let notes = vec![format!(
        "{} requests over {:.0} s, {batches} batches",
        records.len(),
        seconds.min(OPEN_TRACE_SECONDS)
    )];
    let violations = mix.finish();
    Pass {
        rec,
        metrics,
        ops: records.len() as u64,
        failed,
        violations,
        notes,
    }
}

/// Median and 99th percentile (ns) of a registry histogram over the
/// window between two snapshots.
fn histogram_delta(after: &Snapshot, before: &Snapshot, name: &str) -> (f64, f64) {
    let Some(after) = after.histogram(name) else {
        return (0.0, 0.0);
    };
    let window = match before.histogram(name) {
        Some(before) => after.since(before),
        None => after.clone(),
    };
    (window.quantile(0.5), window.quantile(0.99))
}

fn counter_delta(after: &Snapshot, before: &Snapshot, name: &str) -> u64 {
    after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)
}

/// Write the spans to `ledger/out/`, found from the working directory:
/// the checkout's root when the ledger is run through
/// `BENCHMARK.json`'s command, or the package's own directory.
fn write_trace(workload: Workload, seed: u64, rec: &Recorder) -> String {
    let package = std::path::Path::new("ledger");
    let dir = if package.is_dir() {
        package.join("out")
    } else {
        std::path::PathBuf::from("out")
    };
    let path = dir.join(format!("trace-{}.json", workload.name()));
    let body = format!(
        "{{\"workload\":\"{}\",\"seed\":{seed},\"spans\":{}}}\n",
        workload.name(),
        rec.to_json()
    );
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
        Ok(()) => format!("{} spans written to {}", rec.spans().len(), path.display()),
        Err(e) => format!("spans not written to {}: {e}", path.display()),
    }
}

/// The traced run: every per-layer metric of one workload.
pub fn traced(workload: Workload, seed: u64, seconds: f64) -> RunResult {
    let registry_before = adarnet_obs::registry().snapshot();
    let pass = match workload {
        Workload::TtcCapped => ttc_pass(seed),
        Workload::NetMiss => net_pass(Mode::Miss, seed),
        Workload::NetHit => net_pass(Mode::Hit, seed),
        Workload::ServeOpenMix => open_pass(seed, seconds),
    };
    let registry_after = adarnet_obs::registry().snapshot();
    let Pass {
        rec,
        metrics: traced_metrics,
        ops,
        failed,
        mut violations,
        notes,
    } = pass;

    let mut report = vec![format!("workload {} (traced)", workload.name())];
    report.extend(notes.into_iter().map(|n| format!("  {n}")));
    report.push(format!("  {}", write_trace(workload, seed, &rec)));

    // Stage table: self time per stage, largest first.
    let root_ns = rec.root_ns().max(1) as f64;
    let mut stages: Vec<(&str, (u64, u64))> = rec.self_by_name().into_iter().collect();
    stages.sort_by_key(|(_, (ns, _))| std::cmp::Reverse(*ns));
    report.push(format!(
        "  traced operation time {:.3} ms/op over {ops} ops; self time by stage:",
        root_ns / ops.max(1) as f64 / 1e6
    ));
    for (name, (ns, calls)) in stages.iter().take(12) {
        report.push(format!(
            "    {:<32} {:>7.2} %  {:>10.3} ms/op  {calls} calls",
            name,
            *ns as f64 / root_ns * 100.0,
            *ns as f64 / ops.max(1) as f64 / 1e6
        ));
    }

    let mut values: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
    let by_layer = rec.self_by_layer();
    let share = |layer: Layer| by_layer.get(&layer).copied().unwrap_or(0) as f64 / root_ns;
    let mut shares = Vec::new();
    for layer in Layer::CRATES.into_iter().chain([Layer::Ledger]) {
        values.insert(share_metric(layer), share(layer));
        if share(layer) > 0.0 {
            shares.push(format!("{} {:.4}", layer.name(), share(layer)));
        }
    }
    report.push(format!("  self-time share by layer: {}", shares.join(", ")));

    // The checks the issue fixes: attribution without gaps, and the
    // contrast between the workloads.
    let mut check = |ok: bool, what: String| {
        report.push(format!(
            "  check {}: {what}",
            if ok { "ok" } else { "FAILED" }
        ));
        if !ok {
            violations.push(what);
        }
    };
    let unattributed = share(Layer::Ledger);
    if workload != Workload::ServeOpenMix {
        check(
            unattributed <= MAX_UNATTRIBUTED,
            format!("stage self times cover the traced operation: unattributed share {unattributed:.4} <= {MAX_UNATTRIBUTED}"),
        );
    }
    match workload {
        Workload::TtcCapped => check(
            share(Layer::Cfd) >= MIN_CFD_SHARE_TTC,
            format!("cfd share {:.4} >= {MIN_CFD_SHARE_TTC}", share(Layer::Cfd)),
        ),
        Workload::NetMiss => check(
            share(Layer::Nn) >= MIN_DECODER_SHARE_MISS,
            format!(
                "decoder share {:.4} >= {MIN_DECODER_SHARE_MISS}",
                share(Layer::Nn)
            ),
        ),
        Workload::NetHit => check(
            share(Layer::Nn) <= MAX_DECODER_SHARE_HIT,
            format!(
                "decoder share {:.4} <= {MAX_DECODER_SHARE_HIT}",
                share(Layer::Nn)
            ),
        ),
        Workload::ServeOpenMix => {}
    }

    let pool_hits = counter_delta(&registry_after, &registry_before, "tensor_pool_hits_total");
    let pool_misses = counter_delta(
        &registry_after,
        &registry_before,
        "tensor_pool_misses_total",
    );
    values.insert(
        "tensor.pool_hit_share",
        pool_hits as f64 / (pool_hits + pool_misses).max(1) as f64,
    );
    values.extend(traced_metrics);
    values.extend(probes::run_all());

    let mut metrics = BTreeMap::new();
    report.push(String::from("  per-layer metrics:"));
    for spec in PER_LAYER {
        let value = values[spec.name];
        metrics.insert(spec.name.to_string(), (value, spec.unit));
        report.push(format!(
            "    {:<32} {:>14.4} {:<8} {}; should move {}",
            spec.name,
            value,
            spec.unit,
            if spec.probe { "probe" } else { "trace" },
            spec.moves
        ));
    }
    for v in &violations {
        report.push(format!("  CHECK FAILED: {v}"));
    }
    RunResult {
        correct: violations.is_empty(),
        attempted: ops,
        failed,
        metrics,
        report,
    }
}
