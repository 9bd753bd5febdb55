//! Observability overhead gate: instrumented vs. bare inference.
//!
//! The obs layer promises a near-free record path (striped atomic
//! adds, no locks, no allocation). This bench holds it to that: it
//! times `InferenceEngine::infer` over a batch of fields with the obs
//! layer enabled and disabled (`adarnet_obs::set_enabled`),
//! interleaving the two arms rep-for-rep so drift (thermal, cache,
//! scheduler) hits both equally, and takes the *minimum* per arm — the
//! standard estimator for the true cost floor under noise.
//!
//! The instrumented arm runs each rep as a *traced request*: a trace is
//! minted with its own span buffer, scoped to the thread (so every stage
//! `span!` attaches a span record), then finished and offered to the
//! tail sampler — the full per-request tracing cost, not just the
//! histogram path, must fit the budget.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p adarnet-bench --bin obs_overhead            # measure + report
//! cargo run --release -p adarnet-bench --bin obs_overhead -- --gate  # exit 1 if >3% slower
//! cargo run --release -p adarnet-bench --bin obs_overhead -- --smoke --gate
//! ```
//!
//! `--smoke` shrinks reps/batch for the SKIP_SLOW CI budget. The gate
//! threshold is a fixed 3%.

use std::hint::black_box;
use std::time::Instant;

use adarnet_core::engine::InferenceEngine;
use adarnet_core::loss::NormStats;
use adarnet_core::network::{AdarNet, AdarNetConfig};
use adarnet_tensor::{Shape, Tensor};

fn field(h: usize, w: usize, phase: f32) -> Tensor<f32> {
    Tensor::from_vec(
        Shape::d3(4, h, w),
        (0..4 * h * w)
            .map(|i| ((i as f32) * 0.017 + phase).sin())
            .collect(),
    )
}

/// Mean seconds per pass of `InferenceEngine::infer` over every field,
/// averaged across `inner` back-to-back passes (averaging inside the
/// sample shrinks scheduler/cache noise before the min-across-reps
/// estimator sees it). When `traced`, every pass runs as a full traced
/// request: trace mint, thread scope (so stage spans attach), finish,
/// tail-sampler offer — all inside the timed region.
fn time_once(engine: &InferenceEngine, fields: &[Tensor<f32>], inner: usize, traced: bool) -> f64 {
    let start = Instant::now();
    for _ in 0..inner {
        let req = Instant::now();
        let ctx = traced.then(adarnet_obs::TraceCtx::mint).flatten();
        let out = {
            let _scope = ctx.clone().map(adarnet_obs::trace::scope);
            black_box(fields)
                .iter()
                .map(|x| engine.infer(x).expect("inference"))
                .collect::<Vec<_>>()
        };
        if let Some(ctx) = &ctx {
            adarnet_obs::trace::finish(ctx, req.elapsed().as_nanos() as u64, false);
        }
        for p in out {
            p.recycle();
        }
    }
    start.elapsed().as_secs_f64() / inner as f64
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let gate = args.iter().any(|a| a == "--gate");
    let threshold_pct = 3.0;

    let (h, w, batch, reps, inner) = if smoke {
        (16, 32, 2, 5, 3)
    } else {
        (16, 64, 4, 7, 3)
    };
    let model = AdarNet::new(AdarNetConfig {
        ph: 8,
        pw: 8,
        seed: 42,
        ..AdarNetConfig::default()
    });
    let engine = InferenceEngine::new(model, NormStats::identity());
    let fields: Vec<Tensor<f32>> = (0..batch).map(|i| field(h, w, i as f32 * 0.3)).collect();

    eprintln!(
        "obs overhead ({}): infer of {batch} {h}x{w} fields, min of {reps} interleaved reps, gate {threshold_pct:.1}%",
        if smoke { "smoke" } else { "full" },
    );

    // Warm both arms once: pooled buffers, histogram interning, and the
    // decoder's activation caches all settle before anything is timed.
    adarnet_obs::set_enabled(true);
    time_once(&engine, &fields, 1, true);
    adarnet_obs::set_enabled(false);
    time_once(&engine, &fields, 1, false);

    let mut best_on = f64::INFINITY;
    let mut best_off = f64::INFINITY;
    for rep in 0..reps {
        // Alternate which arm goes first: any per-rep warm-up penalty
        // (scheduler migration, cache state left by the previous rep)
        // would otherwise land on one arm systematically.
        let (on, off) = if rep % 2 == 0 {
            adarnet_obs::set_enabled(true);
            let on = time_once(&engine, &fields, inner, true);
            adarnet_obs::set_enabled(false);
            let off = time_once(&engine, &fields, inner, false);
            (on, off)
        } else {
            adarnet_obs::set_enabled(false);
            let off = time_once(&engine, &fields, inner, false);
            adarnet_obs::set_enabled(true);
            let on = time_once(&engine, &fields, inner, true);
            (on, off)
        };
        best_on = best_on.min(on);
        best_off = best_off.min(off);
        eprintln!("  rep {rep}: on {on:.4}s, off {off:.4}s");
    }
    adarnet_obs::set_enabled(true);

    let overhead_pct = (best_on / best_off - 1.0) * 100.0;
    println!(
        "obs_overhead: instrumented {best_on:.4}s vs bare {best_off:.4}s -> {overhead_pct:+.2}% overhead"
    );

    if gate {
        if overhead_pct > threshold_pct {
            eprintln!(
                "obs_overhead: FAIL — instrumentation costs {overhead_pct:.2}% (> {threshold_pct:.1}% budget)"
            );
            std::process::exit(1);
        }
        println!("obs_overhead: OK (within {threshold_pct:.1}% budget)");
    }
}
