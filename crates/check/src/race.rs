//! Dynamic race and lock-order-inversion detection over sync traces.
//!
//! Input: the event stream captured by `adarnet_core::sync::trace`
//! during one scheduled interleaving (the scheduler runs every logical
//! thread on one OS thread, so the stream is a total order). Output:
//! every pair of conflicting annotated accesses *not* ordered by
//! happens-before, and every cycle in the lock-acquisition graph.
//!
//! # Happens-before rules (vector clocks)
//!
//! Each thread `t` owns a clock `C[t]`, ticked at every event. Each
//! lock `m` carries two release clocks: `W[m]` (joined at every
//! exclusive release, including condvar-wait entry) and `R[m]` (joined
//! at every shared release). An exclusive acquire joins `W[m] ⊔ R[m]`
//! into the acquirer (a writer is ordered after all prior readers); a
//! shared acquire joins only `W[m]` (readers are ordered after the
//! last writer but not after each other). Annotated accesses snapshot
//! the acting thread's clock; two conflicting accesses (same location,
//! at least one write, different threads) race iff neither snapshot
//! `≤` the other's current clock.
//!
//! Every schedule the scheduler explores, exhaustively or by seeded
//! sampling, is one the scenario can really run, so a race reported in
//! *any* of them is a real race of the scenario; the violation carries
//! that schedule for replay.
//!
//! # Lock-order inversion
//!
//! While replaying, each `Acquire` of `m` with locks `h…` still held
//! adds edges `h → m` to an acquisition graph (witnessed by the event
//! index). A cycle means two threads acquire the same locks in
//! opposite orders somewhere in the schedule — a latent deadlock even
//! if this particular schedule completed. Scenario scripts are fixed,
//! so both halves of an inversion appear in every schedule and
//! per-schedule detection is complete for the scripted behaviors.

use std::collections::HashMap;

use adarnet_core::sync::trace::{Event, EventKind};

use crate::clock::VectorClock;

/// Classification of a reported problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProblemKind {
    /// Two conflicting accesses unordered by happens-before.
    DataRace,
    /// A cycle in the lock-acquisition graph.
    LockInversion,
}

/// One analysis finding, with a human-readable witness.
#[derive(Debug, Clone)]
pub struct Problem {
    /// What kind of defect this is.
    pub kind: ProblemKind,
    /// Witness description (event indices refer to the replayed
    /// trace; lock numbers are first-seen order within the schedule).
    pub message: String,
}

/// Cap on reported problems per trace; a broken scenario repeats the
/// same race at every subsequent access.
const MAX_PROBLEMS: usize = 8;

/// A recorded access: who, where in the trace, and its clock snapshot.
#[derive(Debug, Clone)]
struct Access {
    thread: usize,
    event: usize,
    clock: VectorClock,
}

/// Replay one schedule's event stream; report races and inversions.
pub fn analyze(events: &[Event]) -> Vec<Problem> {
    let threads = events
        .iter()
        .map(|e| e.thread as usize + 1)
        .max()
        .unwrap_or(0);
    let mut clocks: Vec<VectorClock> = (0..threads).map(|_| VectorClock::new(threads)).collect();
    // Per-lock release clocks: (exclusive-release join, shared-release join).
    let mut lock_clocks: HashMap<usize, (VectorClock, VectorClock)> = HashMap::new();
    // Per-thread stack of (lock, shared) currently held.
    let mut held: Vec<Vec<(usize, bool)>> = vec![Vec::new(); threads];
    // Acquisition-graph edges with their first witness:
    // (held, acquired) -> (thread, event index).
    let mut edges: HashMap<(usize, usize), (usize, usize)> = HashMap::new();
    // Stable display numbering for lock addresses.
    let mut lock_names: HashMap<usize, usize> = HashMap::new();
    // Last write and per-thread latest reads per annotated location.
    let mut last_write: HashMap<u64, Access> = HashMap::new();
    let mut last_reads: HashMap<u64, Vec<Access>> = HashMap::new();

    let mut problems: Vec<Problem> = Vec::new();
    let race = |problems: &mut Vec<Problem>, message: String| {
        if problems.len() < MAX_PROBLEMS && !problems.iter().any(|p| p.message == message) {
            problems.push(Problem {
                kind: ProblemKind::DataRace,
                message,
            });
        }
    };

    for (i, ev) in events.iter().enumerate() {
        let t = ev.thread as usize;
        clocks[t].tick(t);
        match ev.kind {
            EventKind::Acquire { lock, shared } => {
                let next_name = lock_names.len();
                lock_names.entry(lock).or_insert(next_name);
                if let Some((w, r)) = lock_clocks.get(&lock) {
                    let (w, r) = (w.clone(), r.clone());
                    clocks[t].join(&w);
                    if !shared {
                        clocks[t].join(&r);
                    }
                }
                for &(h, _) in &held[t] {
                    if h != lock {
                        edges.entry((h, lock)).or_insert((t, i));
                    }
                }
                held[t].push((lock, shared));
            }
            EventKind::Release { lock } | EventKind::Wait { lock } => {
                let shared = match held[t].iter().rposition(|&(l, _)| l == lock) {
                    Some(pos) => held[t].remove(pos).1,
                    None => false, // unbalanced release: treat as exclusive
                };
                let entry = lock_clocks
                    .entry(lock)
                    .or_insert_with(|| (VectorClock::new(threads), VectorClock::new(threads)));
                if shared {
                    entry.1.join(&clocks[t]);
                } else {
                    entry.0.join(&clocks[t]);
                }
            }
            EventKind::Read { loc } => {
                if let Some(w) = last_write.get(&loc) {
                    if w.thread != t && !w.clock.le(&clocks[t]) {
                        race(
                            &mut problems,
                            format!(
                                "data race on loc {loc}: thread {t} read (event {i}) is \
                                 concurrent with thread {} write (event {})",
                                w.thread, w.event
                            ),
                        );
                    }
                }
                let reads = last_reads.entry(loc).or_default();
                reads.retain(|a| a.thread != t);
                reads.push(Access {
                    thread: t,
                    event: i,
                    clock: clocks[t].clone(),
                });
            }
            EventKind::Write { loc } => {
                if let Some(w) = last_write.get(&loc) {
                    if w.thread != t && !w.clock.le(&clocks[t]) {
                        race(
                            &mut problems,
                            format!(
                                "data race on loc {loc}: thread {t} write (event {i}) is \
                                 concurrent with thread {} write (event {})",
                                w.thread, w.event
                            ),
                        );
                    }
                }
                for r in last_reads.get(&loc).map(|v| v.as_slice()).unwrap_or(&[]) {
                    if r.thread != t && !r.clock.le(&clocks[t]) {
                        race(
                            &mut problems,
                            format!(
                                "data race on loc {loc}: thread {t} write (event {i}) is \
                                 concurrent with thread {} read (event {})",
                                r.thread, r.event
                            ),
                        );
                    }
                }
                last_reads.remove(&loc);
                last_write.insert(
                    loc,
                    Access {
                        thread: t,
                        event: i,
                        clock: clocks[t].clone(),
                    },
                );
            }
        }
    }

    if let Some(cycle) = find_cycle(&edges) {
        let name = |l: usize| lock_names.get(&l).copied().unwrap_or(usize::MAX);
        let mut path = String::new();
        for (a, b) in &cycle {
            let (wt, wi) = edges[&(*a, *b)];
            path.push_str(&format!(
                "lock#{} -> lock#{} (thread {wt}, event {wi}); ",
                name(*a),
                name(*b)
            ));
        }
        problems.push(Problem {
            kind: ProblemKind::LockInversion,
            message: format!("lock-order inversion: {}", path.trim_end_matches("; ")),
        });
    }

    problems
}

/// Find one cycle in the acquisition graph, as the list of edges along
/// it, or `None` if the graph is acyclic.
fn find_cycle(edges: &HashMap<(usize, usize), (usize, usize)>) -> Option<Vec<(usize, usize)>> {
    let mut adj: HashMap<usize, Vec<usize>> = HashMap::new();
    for &(a, b) in edges.keys() {
        adj.entry(a).or_default().push(b);
    }
    for v in adj.values_mut() {
        v.sort_unstable(); // deterministic traversal order
    }
    // DFS with an explicit path; a back edge to a node on the current
    // path closes a cycle.
    let mut visited: std::collections::HashSet<usize> = Default::default();
    let mut nodes: Vec<usize> = adj.keys().copied().collect();
    nodes.sort_unstable();
    for &start in &nodes {
        if visited.contains(&start) {
            continue;
        }
        let mut path: Vec<usize> = Vec::new();
        let mut on_path: std::collections::HashSet<usize> = Default::default();
        // Stack of (node, next-neighbor index).
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        path.push(start);
        on_path.insert(start);
        visited.insert(start);
        while let Some(top) = stack.last_mut() {
            let node = top.0;
            let idx = top.1;
            top.1 += 1;
            let neighbors = adj.get(&node).map(|v| v.as_slice()).unwrap_or(&[]);
            if idx >= neighbors.len() {
                stack.pop();
                path.pop();
                on_path.remove(&node);
                continue;
            }
            let m = neighbors[idx];
            if on_path.contains(&m) {
                // Close the cycle from m .. node -> m.
                let from = path.iter().position(|&p| p == m).unwrap_or(0);
                let mut cycle: Vec<(usize, usize)> = Vec::new();
                for w in path[from..].windows(2) {
                    cycle.push((w[0], w[1]));
                }
                cycle.push((node, m));
                return Some(cycle);
            }
            if !visited.contains(&m) {
                visited.insert(m);
                on_path.insert(m);
                path.push(m);
                stack.push((m, 0));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use adarnet_core::sync::trace::EventKind::{Acquire, Read, Release, Wait, Write};

    fn ev(thread: u32, kind: EventKind) -> Event {
        Event { thread, kind }
    }

    #[test]
    fn mutex_protected_accesses_do_not_race() {
        let events = vec![
            ev(
                0,
                Acquire {
                    lock: 1,
                    shared: false,
                },
            ),
            ev(0, Write { loc: 7 }),
            ev(0, Release { lock: 1 }),
            ev(
                1,
                Acquire {
                    lock: 1,
                    shared: false,
                },
            ),
            ev(1, Read { loc: 7 }),
            ev(1, Release { lock: 1 }),
        ];
        assert!(analyze(&events).is_empty());
    }

    #[test]
    fn unprotected_conflicting_writes_race() {
        let events = vec![ev(0, Write { loc: 7 }), ev(1, Write { loc: 7 })];
        let problems = analyze(&events);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert_eq!(problems[0].kind, ProblemKind::DataRace);
        assert!(problems[0].message.contains("loc 7"));
    }

    #[test]
    fn same_thread_accesses_never_race() {
        let events = vec![
            ev(0, Write { loc: 7 }),
            ev(0, Read { loc: 7 }),
            ev(0, Write { loc: 7 }),
        ];
        assert!(analyze(&events).is_empty());
    }

    #[test]
    fn one_lock_held_only_by_the_writer_still_races() {
        // The reader never takes the lock, so the writer's critical
        // section orders nothing.
        let events = vec![
            ev(
                0,
                Acquire {
                    lock: 1,
                    shared: false,
                },
            ),
            ev(0, Write { loc: 3 }),
            ev(0, Release { lock: 1 }),
            ev(1, Read { loc: 3 }),
        ];
        let problems = analyze(&events);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].message.contains("read (event 3)"));
    }

    #[test]
    fn rwlock_readers_are_ordered_with_writer_not_each_other() {
        let events = vec![
            ev(
                0,
                Acquire {
                    lock: 1,
                    shared: false,
                },
            ),
            ev(0, Write { loc: 9 }),
            ev(0, Release { lock: 1 }),
            ev(
                1,
                Acquire {
                    lock: 1,
                    shared: true,
                },
            ),
            ev(1, Read { loc: 9 }),
            ev(1, Release { lock: 1 }),
            ev(
                2,
                Acquire {
                    lock: 1,
                    shared: true,
                },
            ),
            ev(2, Read { loc: 9 }),
            ev(2, Release { lock: 1 }),
            // A second writer joins BOTH readers' release clocks.
            ev(
                0,
                Acquire {
                    lock: 1,
                    shared: false,
                },
            ),
            ev(0, Write { loc: 9 }),
            ev(0, Release { lock: 1 }),
        ];
        assert!(analyze(&events).is_empty());
    }

    #[test]
    fn write_under_read_lock_races_with_other_reader() {
        // Shared acquires do not order readers against each other, so
        // a write under a read lock is a race waiting to happen.
        let events = vec![
            ev(
                0,
                Acquire {
                    lock: 1,
                    shared: true,
                },
            ),
            ev(0, Write { loc: 2 }),
            ev(0, Release { lock: 1 }),
            ev(
                1,
                Acquire {
                    lock: 1,
                    shared: true,
                },
            ),
            ev(1, Read { loc: 2 }),
            ev(1, Release { lock: 1 }),
        ];
        let problems = analyze(&events);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert_eq!(problems[0].kind, ProblemKind::DataRace);
    }

    #[test]
    fn wait_acts_as_release_for_ordering() {
        let events = vec![
            ev(
                0,
                Acquire {
                    lock: 1,
                    shared: false,
                },
            ),
            ev(0, Write { loc: 5 }),
            ev(0, Wait { lock: 1 }), // releases the mutex, blocks
            ev(
                1,
                Acquire {
                    lock: 1,
                    shared: false,
                },
            ),
            ev(1, Read { loc: 5 }),
            ev(1, Release { lock: 1 }),
            ev(
                0,
                Acquire {
                    lock: 1,
                    shared: false,
                },
            ), // wake-up
            ev(0, Release { lock: 1 }),
        ];
        assert!(analyze(&events).is_empty());
    }

    #[test]
    fn opposite_acquisition_orders_form_a_cycle() {
        let events = vec![
            ev(
                0,
                Acquire {
                    lock: 10,
                    shared: false,
                },
            ),
            ev(
                0,
                Acquire {
                    lock: 20,
                    shared: false,
                },
            ),
            ev(0, Release { lock: 20 }),
            ev(0, Release { lock: 10 }),
            ev(
                1,
                Acquire {
                    lock: 20,
                    shared: false,
                },
            ),
            ev(
                1,
                Acquire {
                    lock: 10,
                    shared: false,
                },
            ),
            ev(1, Release { lock: 10 }),
            ev(1, Release { lock: 20 }),
        ];
        let problems = analyze(&events);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert_eq!(problems[0].kind, ProblemKind::LockInversion);
        assert!(
            problems[0].message.contains("lock#0 -> lock#1"),
            "{}",
            problems[0].message
        );
        assert!(problems[0].message.contains("lock#1 -> lock#0"));
    }

    #[test]
    fn nested_same_order_acquisition_is_fine() {
        let events = vec![
            ev(
                0,
                Acquire {
                    lock: 10,
                    shared: false,
                },
            ),
            ev(
                0,
                Acquire {
                    lock: 20,
                    shared: false,
                },
            ),
            ev(0, Release { lock: 20 }),
            ev(0, Release { lock: 10 }),
            ev(
                1,
                Acquire {
                    lock: 10,
                    shared: false,
                },
            ),
            ev(
                1,
                Acquire {
                    lock: 20,
                    shared: false,
                },
            ),
            ev(1, Release { lock: 20 }),
            ev(1, Release { lock: 10 }),
        ];
        assert!(analyze(&events).is_empty());
    }

    #[test]
    fn wait_does_not_leave_a_phantom_held_lock() {
        // After Wait, the mutex is no longer held: a later acquire of
        // another lock must not create an edge from it.
        let events = vec![
            ev(
                0,
                Acquire {
                    lock: 10,
                    shared: false,
                },
            ),
            ev(0, Wait { lock: 10 }),
            ev(
                0,
                Acquire {
                    lock: 20,
                    shared: false,
                },
            ),
            ev(0, Release { lock: 20 }),
            ev(
                0,
                Acquire {
                    lock: 10,
                    shared: false,
                },
            ), // wake-up
            ev(0, Release { lock: 10 }),
            // Opposite textual order on thread 1 — but 10 was not held
            // when 20 was acquired on thread 0, so no cycle.
            ev(
                1,
                Acquire {
                    lock: 20,
                    shared: false,
                },
            ),
            ev(
                1,
                Acquire {
                    lock: 10,
                    shared: false,
                },
            ),
            ev(1, Release { lock: 10 }),
            ev(1, Release { lock: 20 }),
        ];
        assert!(analyze(&events).is_empty());
    }
}
