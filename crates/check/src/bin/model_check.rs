//! `cargo run -p check --bin model-check [-- --budget full|small]`
//!
//! Drives the serve primitives through explored interleavings against
//! their shadow oracles, with every schedule's sync-event stream
//! replayed through the vector-clock race detector (DESIGN.md §14).
//! Every exhaustive space runs plain DFS as the reference and sleep-set
//! DPOR against it; any disagreement in verdict or covered count is a
//! mismatch. `--budget full` (the default) also enforces the floors:
//! at least [`MIN_COVERED`] interleavings and a ≥ [`MIN_REDUCTION`]×
//! DPOR reduction on the footprint-bearing suites. `small` is the quick
//! smoke and enforces neither. Exit codes: 0 = all invariants held and
//! the floors were met, 1 = violations, mismatches, or a missed floor,
//! 2 = bad arguments.

use check::suites::{run_all, Budget};

/// Suites with declared footprints, counted toward the DPOR reduction
/// floor. The trace suite is excluded: its ops are fully dependent by
/// design, so DPOR explores it like plain DFS.
const REDUCTION_SUITES: [&str; 4] = ["lanes", "quota", "cache", "registry"];

/// Minimum `covered / explored` ratio across [`REDUCTION_SUITES`] at
/// full budget.
const MIN_REDUCTION: u64 = 5;

/// Minimum interleavings covered at full budget.
const MIN_COVERED: u64 = 10_000;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let budget = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        [] | ["--budget", "full"] => Budget::Full,
        ["--budget", "small"] => Budget::Small,
        _ => {
            eprintln!("model-check: usage: model-check [--budget full|small], got {args:?}");
            std::process::exit(2);
        }
    };

    let mut covered: u64 = 0;
    let mut explored: u64 = 0;
    let mut reduction_covered: u64 = 0;
    let mut reduction_explored: u64 = 0;
    let mut failed = false;
    for (name, stats) in run_all(budget) {
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
         ({budget:?} budget)"
    );
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
    if budget == Budget::Full {
        if ratio_x10 < MIN_REDUCTION * 10 {
            println!(
                "model-check: FAIL — DPOR reduction under {MIN_REDUCTION}x on \
                 {REDUCTION_SUITES:?}"
            );
            failed = true;
        }
        if covered < MIN_COVERED {
            println!(
                "model-check: FAIL — covered {covered} < required {MIN_COVERED} interleavings"
            );
            failed = true;
        }
    }
    std::process::exit(if failed { 1 } else { 0 });
}
