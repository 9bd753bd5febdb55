//! Deterministic interleaving exploration (a miniature loom).
//!
//! A [`Scenario`] is a fixed set of logical threads, each a fixed
//! sequence of operations against a shared structure plus a sequential
//! shadow model. The explorer runs every operation *on the caller's
//! thread*, in an interleaving it controls, so every run is exactly
//! reproducible from its choice trace — no real parallelism, no timing
//! dependence.
//!
//! Why this is sound for the checked primitives: every public operation
//! on [`adarnet_serve::LaneQueue`], [`adarnet_serve::QuotaTable`],
//! [`adarnet_serve::PatchCache`], [`adarnet_serve::ModelRegistry`] and
//! the obs [`adarnet_obs::TailSampler`] is atomic under that
//! structure's internal lock, so any concurrent
//! execution is equivalent to *some* linearization of the operations —
//! and the explorer visits those linearizations exhaustively (or by
//! seeded random sampling for the larger spaces). What this cannot see
//! is a non-linearizable implementation (e.g. a torn multi-lock
//! update). Every schedule therefore also fails if one of its steps
//! took a `sync` guard while holding another
//! ([`adarnet_core::sync::take_nested`]), so no operation holds two
//! `sync` locks at once; the uniform-checkpoint torn-read oracle
//! covers an update torn across two locks taken one after the other.
//! See DESIGN.md §9 for the full argument and its limits.
//!
//! Two exploration plans ([`Plan`]):
//!
//! * exhaustive — [`explore_exhaustive`] goes depth-first over *all*
//!   interleavings (the count for thread op-lengths `(a, b, c)` is the
//!   multinomial `(a+b+c)! / (a! b! c!)`), executing each once;
//! * random — [`explore_random`] makes uniformly random scheduler
//!   choices from a seeded [`rand_chacha::ChaCha8Rng`], for spaces too
//!   large to enumerate.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use adarnet_core::sync;

/// A model-checking scenario: threads of operations over shared state.
pub trait Scenario {
    /// Per-interleaving state (the real structure plus its shadow
    /// model).
    type State;

    /// Scenario name for reports.
    fn name(&self) -> &'static str;

    /// Number of operations each logical thread performs.
    fn thread_ops(&self) -> Vec<usize>;

    /// Fresh state for one interleaving.
    fn init(&self) -> Self::State;

    /// Run operation `op` (0-based within the thread) of `thread`.
    /// `Err` is an invariant violation; the message should say what
    /// diverged between the real structure and the shadow model.
    fn step(&self, state: &mut Self::State, thread: usize, op: usize) -> Result<(), String>;

    /// End-of-interleaving invariants (e.g. conservation after a full
    /// drain).
    fn finish(&self, state: &mut Self::State) -> Result<(), String>;
}

/// One invariant violation with its reproducing schedule.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Scenario that failed.
    pub scenario: &'static str,
    /// Thread index chosen at each scheduling point — replaying these
    /// choices reproduces the failure exactly.
    pub trace: Vec<usize>,
    /// What diverged.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} [schedule: {:?}]",
            self.scenario, self.message, self.trace
        )
    }
}

/// Outcome of an exploration.
#[derive(Debug, Default)]
pub struct ExploreResult {
    /// Interleavings executed.
    pub interleavings: u64,
    /// Invariant violations found (empty = pass).
    pub violations: Vec<Violation>,
}

impl ExploreResult {
    /// Count one executed interleaving's `(trace, failure)` outcome
    /// (from [`run_one`]), keeping at most [`MAX_VIOLATIONS`] violations.
    fn record<S: Scenario>(&mut self, scenario: &S, outcome: (Vec<usize>, Option<String>)) {
        self.interleavings += 1;
        let (trace, failed) = outcome;
        if let (Some(message), true) = (failed, self.violations.len() < MAX_VIOLATIONS) {
            self.violations.push(Violation {
                scenario: scenario.name(),
                trace,
                message,
            });
        }
    }
}

/// Cap on recorded violations per exploration; past this the run is
/// thoroughly broken and more traces add nothing.
const MAX_VIOLATIONS: usize = 8;

/// Run one interleaving, with scheduling decided by `choose(runnable)`,
/// which must return an index into the runnable-thread list. Returns
/// the trace and the first violation (if any).
///
/// The steps are the check window for the lock rule: the thread's
/// nested-acquisition count is cleared before the first step, and a
/// count left after the last step is a violation naming the first
/// nested call site, even when every oracle check passed. `init` and
/// `finish` run outside the window: they are single-threaded prologue
/// / epilogue, not concurrent behavior.
fn run_one<S: Scenario>(
    scenario: &S,
    ops: &[usize],
    mut choose: impl FnMut(&[usize]) -> usize,
) -> (Vec<usize>, Option<String>) {
    let mut remaining = ops.to_vec();
    let mut cursor = vec![0usize; ops.len()];
    let mut state = scenario.init();
    let mut trace_out = Vec::new();
    let mut failed: Option<String> = None;
    sync::take_nested();
    loop {
        let runnable: Vec<usize> = (0..remaining.len()).filter(|&t| remaining[t] > 0).collect();
        if runnable.is_empty() {
            break;
        }
        let pick = choose(&runnable).min(runnable.len() - 1);
        let t = runnable[pick];
        trace_out.push(t);
        if failed.is_none() {
            if let Err(m) = scenario.step(&mut state, t, cursor[t]) {
                failed = Some(m);
            }
        }
        cursor[t] += 1;
        remaining[t] -= 1;
    }
    if let (None, Some(n)) = (&failed, sync::take_nested()) {
        failed = Some(format!(
            "nested sync acquisition: {} lock(s) taken while another guard was held, first at {}",
            n.count, n.first
        ));
    }
    if failed.is_none() {
        if let Err(m) = scenario.finish(&mut state) {
            failed = Some(m);
        }
    }
    (trace_out, failed)
}

/// Depth-first enumeration of every interleaving of the scenario's
/// threads (per-thread program order preserved).
pub fn explore_exhaustive<S: Scenario>(scenario: &S) -> ExploreResult {
    let ops = scenario.thread_ops();
    let mut result = ExploreResult::default();
    // DFS stack of (choice, option-count) at each scheduling depth. A
    // replay reuses the stack prefix, then extends with first-choice
    // (0) entries; `advance` rolls the stack like an odometer.
    let mut stack: Vec<(usize, usize)> = Vec::new();
    loop {
        let mut depth = 0usize;
        let outcome = run_one(scenario, &ops, |runnable| {
            let pick = if depth < stack.len() {
                stack[depth].0
            } else {
                stack.push((0, runnable.len()));
                0
            };
            depth += 1;
            pick
        });
        result.record(scenario, outcome);
        // Advance to the next interleaving: drop exhausted tail
        // entries, bump the deepest non-exhausted choice.
        let advanced = loop {
            match stack.pop() {
                None => break false,
                Some((choice, options)) if choice + 1 < options => {
                    stack.push((choice + 1, options));
                    break true;
                }
                Some(_) => {}
            }
        };
        if !advanced {
            return result;
        }
    }
}

/// `trials` interleavings with uniformly random scheduler choices from
/// a ChaCha8 stream seeded with `seed` — fully reproducible.
pub fn explore_random<S: Scenario>(scenario: &S, trials: u64, seed: u64) -> ExploreResult {
    let ops = scenario.thread_ops();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut result = ExploreResult::default();
    for _ in 0..trials {
        let outcome = run_one(scenario, &ops, |runnable| {
            if runnable.len() == 1 {
                0
            } else {
                rng.gen_range(0..runnable.len())
            }
        });
        result.record(scenario, outcome);
    }
    result
}

/// How one scenario is explored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plan {
    /// Every interleaving, by [`explore_exhaustive`].
    Exhaustive,
    /// `trials` seeded-random schedules.
    Random {
        /// Schedules to run.
        trials: u64,
        /// ChaCha8 seed.
        seed: u64,
    },
}

/// Accumulated counts and findings for one suite. Every interleaving
/// counted here was executed once.
#[derive(Debug, Default)]
pub struct SuiteStats {
    /// Interleavings executed on the exhaustive spaces.
    pub exhaustive: u64,
    /// Interleavings executed by seeded random sampling.
    pub random: u64,
    /// Violations found (empty = pass).
    pub violations: Vec<Violation>,
}

impl SuiteStats {
    /// Total interleavings executed.
    pub fn interleavings(&self) -> u64 {
        self.exhaustive + self.random
    }

    /// Explore `scenario` under `plan`, folding the outcome in.
    pub fn explore<S: Scenario>(&mut self, scenario: &S, plan: Plan) {
        let r = match plan {
            Plan::Exhaustive => {
                let r = explore_exhaustive(scenario);
                self.exhaustive += r.interleavings;
                r
            }
            Plan::Random { trials, seed } => {
                let r = explore_random(scenario, trials, seed);
                self.random += r.interleavings;
                r
            }
        };
        self.violations.extend(r.violations);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suites::{
        cache_rows, lane_rows, quota_rows, registry_rows, sampler_rows, Row, Subject,
    };
    use std::cell::RefCell;
    use std::collections::BTreeSet;

    /// Number of distinct interleavings for the given per-thread op
    /// counts (the multinomial coefficient), saturating at `u64::MAX`.
    fn interleaving_count(ops: &[usize]) -> u64 {
        // Multiply incrementally: result *= C(total, k) per thread.
        let mut result: u64 = 1;
        let mut total: u64 = 0;
        for &k in ops {
            for i in 1..=(k as u64) {
                total += 1;
                // result * total / i is always integral at this point.
                result = match result.checked_mul(total) {
                    Some(v) => v / i,
                    None => return u64::MAX,
                };
            }
        }
        result
    }

    /// Counts distinct traces and checks program order per thread.
    struct TraceCollector {
        ops: Vec<usize>,
        seen: RefCell<std::collections::BTreeSet<Vec<usize>>>,
    }

    impl Scenario for TraceCollector {
        type State = Vec<usize>;
        fn name(&self) -> &'static str {
            "trace-collector"
        }
        fn thread_ops(&self) -> Vec<usize> {
            self.ops.clone()
        }
        fn init(&self) -> Vec<usize> {
            Vec::new()
        }
        fn step(&self, state: &mut Vec<usize>, thread: usize, op: usize) -> Result<(), String> {
            // Program order: the op index must equal how many times this
            // thread has already run.
            let prior = state.iter().filter(|&&t| t == thread).count();
            if prior != op {
                return Err(format!("thread {thread} op {op} ran out of order"));
            }
            state.push(thread);
            Ok(())
        }
        fn finish(&self, state: &mut Vec<usize>) -> Result<(), String> {
            self.seen.borrow_mut().insert(state.clone());
            Ok(())
        }
    }

    /// The thread shapes of a suite's rows that the full budget
    /// enumerates.
    fn exhaustive_shapes<S: Subject>(rows: Vec<Row<S>>) -> impl Iterator<Item = Vec<usize>> {
        rows.into_iter()
            .filter(|row| row.1 == Plan::Exhaustive)
            .map(|row| row.0.thread_ops())
    }

    #[test]
    fn exhaustive_visits_every_interleaving_exactly_once() {
        // A hand-sized shape plus every shape the model check enumerates,
        // up to (4, 4, 4) = 34650 interleavings.
        let shapes: BTreeSet<Vec<usize>> = std::iter::once(vec![2, 2, 1])
            .chain(exhaustive_shapes(lane_rows()))
            .chain(exhaustive_shapes(quota_rows()))
            .chain(exhaustive_shapes(cache_rows()))
            .chain(exhaustive_shapes(registry_rows()))
            .chain(exhaustive_shapes(sampler_rows()))
            .collect();
        // 5!/(2!2!1!) = 30 distinct interleavings.
        assert_eq!(interleaving_count(&[2, 2, 1]), 30);
        for ops in shapes {
            let s = TraceCollector {
                ops: ops.clone(),
                seen: RefCell::new(Default::default()),
            };
            let r = explore_exhaustive(&s);
            assert!(r.violations.is_empty(), "{ops:?}: {:?}", r.violations);
            let want = interleaving_count(&ops);
            assert_eq!(r.interleavings, want, "{ops:?}");
            assert_eq!(
                s.seen.borrow().len() as u64,
                want,
                "{ops:?}: each visited exactly once"
            );
        }
    }

    #[test]
    fn random_respects_program_order_and_trial_count() {
        let s = TraceCollector {
            ops: vec![3, 3],
            seen: RefCell::new(Default::default()),
        };
        let r = explore_random(&s, 100, 42);
        assert_eq!(r.interleavings, 100);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn random_is_reproducible_for_a_seed() {
        struct Failing;
        impl Scenario for Failing {
            type State = ();
            fn name(&self) -> &'static str {
                "failing"
            }
            fn thread_ops(&self) -> Vec<usize> {
                vec![2, 2]
            }
            fn init(&self) {}
            fn step(&self, _: &mut (), thread: usize, op: usize) -> Result<(), String> {
                if thread == 1 && op == 1 {
                    Err("boom".into())
                } else {
                    Ok(())
                }
            }
            fn finish(&self, _: &mut ()) -> Result<(), String> {
                Ok(())
            }
        }
        let a = explore_random(&Failing, 10, 7);
        let b = explore_random(&Failing, 10, 7);
        let ta: Vec<_> = a.violations.iter().map(|v| v.trace.clone()).collect();
        let tb: Vec<_> = b.violations.iter().map(|v| v.trace.clone()).collect();
        assert_eq!(ta, tb);
        assert!(!ta.is_empty());
    }

    #[test]
    fn violation_carries_reproducing_trace() {
        struct FailOnce;
        impl Scenario for FailOnce {
            type State = ();
            fn name(&self) -> &'static str {
                "fail-once"
            }
            fn thread_ops(&self) -> Vec<usize> {
                vec![1, 1]
            }
            fn init(&self) {}
            fn step(&self, _: &mut (), thread: usize, _: usize) -> Result<(), String> {
                if thread == 1 {
                    Err("thread 1 ran".into())
                } else {
                    Ok(())
                }
            }
            fn finish(&self, _: &mut ()) -> Result<(), String> {
                Ok(())
            }
        }
        let r = explore_exhaustive(&FailOnce);
        assert_eq!(r.interleavings, 2);
        // Both interleavings run thread 1 somewhere, so both fail.
        assert_eq!(r.violations.len(), 2);
        for v in &r.violations {
            assert!(v.trace.contains(&1));
        }
    }

    #[test]
    fn interleaving_count_matches_known_values() {
        assert_eq!(interleaving_count(&[3, 3, 3]), 1680);
        assert_eq!(interleaving_count(&[1]), 1);
        assert_eq!(interleaving_count(&[]), 1);
        assert_eq!(interleaving_count(&[4, 4]), 70);
    }
}
