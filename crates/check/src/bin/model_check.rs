//! `cargo run -p check --bin model-check [-- --budget full|small]`
//!
//! Drives the serve primitives and the obs tail sampler through explored
//! interleavings against their shadow oracles, and fails any schedule
//! whose steps took a `sync` guard while holding another (DESIGN.md
//! §9.3). Prints one line per suite and a total.
//! `--budget full` (the default) also requires at least [`MIN_COVERED`]
//! interleavings; `small` is the quick smoke and has no floor. Exit
//! codes: 0 = all invariants held and the floor was met, 1 = violations
//! or a missed floor, 2 = bad arguments.

use check::suites::{run_all, Budget};

/// Minimum interleavings executed at full budget.
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

    let mut total: u64 = 0;
    let mut failed = false;
    for (name, stats) in run_all(budget) {
        total += stats.interleavings();
        println!(
            "model-check: suite {name}: {} interleavings ({} exhaustive + {} random), \
             {} violation(s)",
            stats.interleavings(),
            stats.exhaustive,
            stats.random,
            stats.violations.len()
        );
        for v in &stats.violations {
            failed = true;
            println!("  VIOLATION {v}");
        }
    }
    println!("model-check: {total} interleavings ({budget:?} budget)");
    if budget == Budget::Full && total < MIN_COVERED {
        println!("model-check: FAIL — {total} < required {MIN_COVERED} interleavings");
        failed = true;
    }
    std::process::exit(if failed { 1 } else { 0 });
}
