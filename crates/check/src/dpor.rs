//! Sleep-set dynamic partial-order reduction for the mini-loom.
//!
//! Exhaustive DFS explores every interleaving; most differ only by the
//! order of *independent* steps (operating on disjoint state) and are
//! equivalent up to Mazurkiewicz traces — they execute the same
//! happens-before partial order and can't disagree on any invariant.
//! Sleep sets prune those: after a node explores its child `t`, `t` is
//! put to sleep for the node's remaining children, and stays asleep
//! down a sibling subtree until some step *conflicts* with `t`'s
//! pending step (which would give a genuinely different trace). For
//! the fixed, always-enabled scripts our scenarios use, this explores
//! exactly one schedule per trace — no equivalence class is lost, none
//! is visited twice. See DESIGN.md §14 for the argument and its limits.
//!
//! Independence is *declared* by the scenario through
//! [`crate::sched::Scenario::footprint`]: each (thread, op) names the
//! logical objects it reads and writes, and two steps conflict iff one
//! writes something the other touches. The default footprint makes
//! every pair conflict, degenerating DPOR to plain DFS — sound by
//! construction; reduction is opt-in per scenario. A wrong declaration
//! (claiming independence for non-commuting ops) would prune real
//! coverage, which is why every exhaustive space runs DFS and DPOR
//! side-by-side and fails on any verdict divergence, and why the
//! seeded-bug scenarios are asserted to be caught under DPOR too.

use crate::sched::{interleaving_count, run_one, ExploreResult, Scenario};

/// The logical objects one scenario step reads and writes.
///
/// Object ids are scenario-chosen (lane indices, tenant ids, a
/// whole-structure id — whatever captures commutativity). Two steps
/// are *dependent* iff their footprints [`conflict`](Footprint::conflicts).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Objects read by the step.
    pub reads: Vec<u64>,
    /// Objects written by the step.
    pub writes: Vec<u64>,
}

impl Footprint {
    /// Reads and writes, spelled out.
    pub fn new(reads: Vec<u64>, writes: Vec<u64>) -> Footprint {
        Footprint { reads, writes }
    }

    /// A step that exclusively owns `obj` — conflicts with every other
    /// step touching it. `Footprint::exclusive(0)` is the safe default
    /// making all steps pairwise dependent.
    pub fn exclusive(obj: u64) -> Footprint {
        Footprint {
            reads: Vec::new(),
            writes: vec![obj],
        }
    }

    /// A read-only step over `objs`.
    pub fn reads(objs: &[u64]) -> Footprint {
        Footprint {
            reads: objs.to_vec(),
            writes: Vec::new(),
        }
    }

    /// Whether the two steps are dependent: one's writes intersect the
    /// other's reads or writes. Symmetric.
    pub fn conflicts(&self, other: &Footprint) -> bool {
        self.writes
            .iter()
            .any(|w| other.writes.contains(w) || other.reads.contains(w))
            || other.writes.iter().any(|w| self.reads.contains(w))
    }
}

/// Outcome of a DPOR exploration: the schedules actually run, plus the
/// interleaving count they stand in for.
#[derive(Debug, Default)]
pub struct DporResult {
    /// Violations and the number of schedules *executed*
    /// (`result.interleavings` = explored representatives).
    pub result: ExploreResult,
    /// Interleavings the exploration covers — the full multinomial
    /// count, every member of which is trace-equivalent to some
    /// explored representative.
    pub covered: u64,
    /// `covered - explored`: schedules skipped as equivalent.
    pub skipped: u64,
}

/// Explore one representative per Mazurkiewicz trace of the scenario,
/// using sleep sets over the scenario's declared footprints.
pub fn explore_dpor<S: Scenario>(scenario: &S) -> DporResult {
    let ops = scenario.thread_ops();
    let footprints: Vec<Vec<Footprint>> = (0..ops.len())
        .map(|t| (0..ops[t]).map(|o| scenario.footprint(t, o)).collect())
        .collect();
    let mut result = ExploreResult::default();
    let mut prefix: Vec<usize> = Vec::new();
    explore_node(scenario, &ops, &footprints, &mut prefix, &[], &mut result);
    let covered = interleaving_count(&ops);
    let skipped = covered.saturating_sub(result.interleavings);
    DporResult {
        result,
        covered,
        skipped,
    }
}

/// One node of the schedule tree: `prefix` already chosen, `sleep` =
/// threads whose pending step was fully explored by an elder sibling
/// and has not conflicted with anything since.
fn explore_node<S: Scenario>(
    scenario: &S,
    ops: &[usize],
    footprints: &[Vec<Footprint>],
    prefix: &mut Vec<usize>,
    sleep: &[usize],
    result: &mut ExploreResult,
) {
    let mut cursors = vec![0usize; ops.len()];
    for &t in prefix.iter() {
        cursors[t] += 1;
    }
    let enabled: Vec<usize> = (0..ops.len()).filter(|&t| cursors[t] < ops[t]).collect();
    if enabled.is_empty() {
        run_schedule(scenario, ops, prefix, result);
        return;
    }
    let mut sleeping: Vec<usize> = sleep.to_vec();
    for &t in &enabled {
        if sleeping.contains(&t) {
            continue;
        }
        let step = &footprints[t][cursors[t]];
        // A sleeper stays asleep below `t` only while independent of
        // `t`'s step: a conflict means orders now differ observably.
        let child_sleep: Vec<usize> = sleeping
            .iter()
            .copied()
            .filter(|&s| !footprints[s][cursors[s]].conflicts(step))
            .collect();
        prefix.push(t);
        explore_node(scenario, ops, footprints, prefix, &child_sleep, result);
        prefix.pop();
        sleeping.push(t);
    }
}

/// Execute one complete schedule (a leaf of the tree) for real.
fn run_schedule<S: Scenario>(
    scenario: &S,
    ops: &[usize],
    schedule: &[usize],
    result: &mut ExploreResult,
) {
    let mut next = 0usize;
    let outcome = run_one(scenario, ops, |runnable| {
        let want = schedule.get(next).copied().unwrap_or(usize::MAX);
        next += 1;
        runnable.iter().position(|&r| r == want).unwrap_or(0)
    });
    result.record(scenario, outcome);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{explore_exhaustive, Plan, SuiteStats};
    use std::cell::RefCell;
    use std::collections::BTreeSet;

    /// Scripted scenario: thread t's op k writes `state[objs[t][k]] = (t, k)`
    /// with a declared footprint, collecting final states across runs.
    struct Scripted {
        /// Per-thread, per-op: (footprint, object mutated for real).
        plan: Vec<Vec<Footprint>>,
        finals: RefCell<BTreeSet<Vec<(usize, usize)>>>,
    }

    impl Scripted {
        fn new(plan: Vec<Vec<Footprint>>) -> Scripted {
            Scripted {
                plan,
                finals: RefCell::new(BTreeSet::new()),
            }
        }
    }

    impl Scenario for Scripted {
        type State = Vec<(usize, usize)>; // per-object: last writer (thread, op)
        fn name(&self) -> &'static str {
            "scripted"
        }
        fn thread_ops(&self) -> Vec<usize> {
            self.plan.iter().map(|p| p.len()).collect()
        }
        fn init(&self) -> Self::State {
            vec![(usize::MAX, usize::MAX); 16]
        }
        fn step(&self, state: &mut Self::State, thread: usize, op: usize) -> Result<(), String> {
            // Mutate exactly the declared write set, so two schedules
            // are observably equal iff their traces are equivalent.
            for &w in &self.plan[thread][op].writes {
                state[w as usize] = (thread, op);
            }
            Ok(())
        }
        fn finish(&self, state: &mut Self::State) -> Result<(), String> {
            self.finals.borrow_mut().insert(state.clone());
            Ok(())
        }
        fn footprint(&self, thread: usize, op: usize) -> Footprint {
            self.plan[thread][op].clone()
        }
    }

    #[test]
    fn default_footprint_degenerates_to_dfs() {
        // Two threads, two fully-conflicting ops each (all write obj 0).
        let s = Scripted::new(vec![
            vec![Footprint::exclusive(0), Footprint::exclusive(0)],
            vec![Footprint::exclusive(0), Footprint::exclusive(0)],
        ]);
        let d = explore_dpor(&s);
        assert_eq!(d.covered, 6, "C(4,2)");
        assert_eq!(d.result.interleavings, 6, "no independence, no pruning");
        assert_eq!(d.skipped, 0);
    }

    #[test]
    fn fully_independent_threads_collapse_to_one_schedule() {
        let s = Scripted::new(vec![
            vec![Footprint::exclusive(1), Footprint::exclusive(1)],
            vec![Footprint::exclusive(2), Footprint::exclusive(2)],
        ]);
        let d = explore_dpor(&s);
        assert_eq!(d.covered, 6);
        assert_eq!(d.result.interleavings, 1, "one trace representative");
        assert_eq!(d.skipped, 5);
    }

    #[test]
    fn mixed_dependence_counts_traces_exactly() {
        // a ⊥ b, but both conflict with c: the 6 interleavings fall
        // into 4 traces ({abc,bac}, {acb}, {bca}, {cab,cba}).
        let s = Scripted::new(vec![
            vec![Footprint::exclusive(1)],
            vec![Footprint::exclusive(2)],
            vec![Footprint::new(vec![], vec![1, 2])],
        ]);
        let d = explore_dpor(&s);
        assert_eq!(d.covered, 6);
        assert_eq!(d.result.interleavings, 4);
    }

    #[test]
    fn dpor_reaches_every_distinct_final_state() {
        // Crossed writes: T0 = [w1, w2], T1 = [w2, w1]. Orders of the
        // two writes to obj 1 and to obj 2 both matter.
        let plan = vec![
            vec![Footprint::exclusive(1), Footprint::exclusive(2)],
            vec![Footprint::exclusive(2), Footprint::exclusive(1)],
        ];
        let dfs = Scripted::new(plan.clone());
        let r = explore_exhaustive(&dfs);
        let dpor = Scripted::new(plan);
        let d = explore_dpor(&dpor);
        assert!(d.result.interleavings < r.interleavings);
        assert_eq!(
            dfs.finals.borrow().clone(),
            dpor.finals.borrow().clone(),
            "every observably-distinct outcome must keep a representative"
        );
    }

    /// Fails only when thread 1 runs before thread 0, so the two steps
    /// conflict. `OrderBug(true)` declares them disjoint anyway.
    struct OrderBug(bool);
    impl Scenario for OrderBug {
        type State = bool; // thread 0 has run
        fn name(&self) -> &'static str {
            "order-bug"
        }
        fn thread_ops(&self) -> Vec<usize> {
            vec![1, 1]
        }
        fn init(&self) -> bool {
            false
        }
        fn step(&self, state: &mut bool, thread: usize, _: usize) -> Result<(), String> {
            if thread == 1 && !*state {
                return Err("thread 1 won the race".into());
            }
            *state |= thread == 0;
            Ok(())
        }
        fn finish(&self, _: &mut bool) -> Result<(), String> {
            Ok(())
        }
        fn footprint(&self, thread: usize, _: usize) -> Footprint {
            Footprint::exclusive(if self.0 { 1 + thread as u64 } else { 0 })
        }
    }

    #[test]
    fn order_dependent_bug_is_still_caught() {
        // A conflict, so DPOR must keep both orders.
        let d = explore_dpor(&OrderBug(false));
        assert_eq!(d.result.interleavings, 2);
        assert_eq!(d.result.violations.len(), 1);
        assert_eq!(d.result.violations[0].trace, vec![1, 0]);
    }

    #[test]
    fn cross_check_flags_a_misdeclared_footprint() {
        // DFS finds the failing order, DPOR prunes it as equivalent, and
        // the cross-check reports the wrong declaration.
        let bug = OrderBug(true);
        assert_eq!(explore_exhaustive(&bug).violations.len(), 1);
        assert!(explore_dpor(&bug).result.violations.is_empty());
        let mut stats = SuiteStats::default();
        stats.explore(&bug, Plan::Exhaustive);
        let wrong = |m: &String| m.contains("footprint declaration is wrong");
        assert!(stats.mismatches.iter().any(wrong), "{:?}", stats.mismatches);
        assert_eq!(stats.violations.len(), 1, "the DFS finding still surfaces");
    }

    #[test]
    fn conflicts_is_symmetric_and_read_aware() {
        let w1 = Footprint::exclusive(1);
        let r1 = Footprint::reads(&[1]);
        let w2 = Footprint::exclusive(2);
        assert!(w1.conflicts(&r1) && r1.conflicts(&w1), "write vs read");
        assert!(w1.conflicts(&w1.clone()), "write vs write");
        assert!(!r1.conflicts(&r1.clone()), "read vs read is independent");
        assert!(!w1.conflicts(&w2), "disjoint objects");
    }
}
