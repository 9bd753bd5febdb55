//! `cargo run -p check --bin model-check [-- --budget full|small]
//! [--min-interleavings N] [--dpor|--no-dpor|--compare]`
//!
//! Drives the serve primitives through explored interleavings against
//! their shadow oracles, with every schedule's sync-event stream
//! replayed through the vector-clock race detector (DESIGN.md §14).
//! Exhaustive spaces default to sleep-set DPOR (`--dpor`); `--no-dpor`
//! forces plain DFS and `--compare` runs both, cross-checking verdicts
//! and coverage and enforcing the ≥5× schedule-reduction floor on the
//! footprint-bearing suites. Exit codes: 0 = all invariants held and
//! the floors were met, 1 = violations, mismatches, or a short
//! exploration, 2 = bad arguments.

use check::suites::{run_all, Budget};
use check::Mode;

/// Suites with declared footprints, counted toward the DPOR reduction
/// floor under `--compare`. The trace suite is excluded: its ops are
/// fully dependent by design, so DPOR explores it like plain DFS.
const REDUCTION_SUITES: [&str; 4] = ["lanes", "quota", "cache", "registry"];

/// Minimum `covered / explored` ratio `--compare` must demonstrate
/// across [`REDUCTION_SUITES`].
const MIN_REDUCTION: u64 = 5;

fn main() {
    let mut budget = Budget::Full;
    let mut min_interleavings: u64 = 0;
    let mut mode = Mode::Dpor;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--budget" => match args.next().as_deref() {
                Some("full") => budget = Budget::Full,
                Some("small") => budget = Budget::Small,
                other => {
                    eprintln!("model-check: --budget expects full|small, got {other:?}");
                    std::process::exit(2);
                }
            },
            "--min-interleavings" => {
                let Some(n) = args.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("model-check: --min-interleavings expects a number");
                    std::process::exit(2);
                };
                min_interleavings = n;
            }
            "--dpor" => mode = Mode::Dpor,
            "--no-dpor" => mode = Mode::Dfs,
            "--compare" => mode = Mode::Compare,
            other => {
                eprintln!("model-check: unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }

    let mut covered: u64 = 0;
    let mut explored: u64 = 0;
    let mut reduction_covered: u64 = 0;
    let mut reduction_explored: u64 = 0;
    let mut failed = false;
    for (name, stats) in run_all(budget, mode) {
        covered += stats.covered();
        explored += stats.explored();
        if REDUCTION_SUITES.contains(&name) {
            reduction_covered += stats.exh_covered;
            reduction_explored += stats.exh_explored;
        }
        println!(
            "model-check: suite {name}: {} schedules explored ({} exhaustive + {} random), \
             {} skipped as trace-equivalent, {} interleavings covered, {} violation(s)",
            stats.explored(),
            stats.exh_explored,
            stats.random_explored,
            stats.exh_skipped,
            stats.covered(),
            stats.violations.len()
        );
        for v in &stats.violations {
            failed = true;
            println!("  VIOLATION {v}");
        }
        for m in &stats.mismatches {
            failed = true;
            println!("  MISMATCH {m}");
        }
    }
    println!(
        "model-check: explored {explored} schedules covering {covered} interleavings \
         ({budget:?} budget, {mode:?} mode)"
    );
    if mode == Mode::Compare {
        let ratio_x10 = reduction_covered
            .saturating_mul(10)
            .checked_div(reduction_explored)
            .unwrap_or(0);
        println!(
            "model-check: dpor explored {reduction_explored} vs {reduction_covered} exhaustive \
             on the footprint suites ({}.{}x reduction)",
            ratio_x10 / 10,
            ratio_x10 % 10
        );
        if ratio_x10 < MIN_REDUCTION * 10 {
            println!(
                "model-check: FAIL — DPOR reduction under {MIN_REDUCTION}x on \
                 {REDUCTION_SUITES:?}"
            );
            failed = true;
        }
    }
    if min_interleavings > 0 && covered < min_interleavings {
        println!(
            "model-check: FAIL — covered {covered} < required {min_interleavings} interleavings"
        );
        failed = true;
    }
    std::process::exit(if failed { 1 } else { 0 });
}
