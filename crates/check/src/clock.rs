//! Vector clocks for happens-before analysis.
//!
//! A [`VectorClock`] maps each logical thread to a count of the events
//! that thread had executed at some point in the trace. Clock `a`
//! happens-before clock `b` iff `a ≤ b` component-wise; two clocks
//! where neither dominates describe *concurrent* points. The race
//! detector in [`crate::race`] keeps one clock per thread (its own
//! history), joins in the release clocks of every lock it acquires, and
//! compares access snapshots for the ordering check. See DESIGN.md §9.4.

/// A per-thread event counter vector. Index = logical thread id.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VectorClock(Vec<u32>);

impl VectorClock {
    /// The zero clock for `threads` threads.
    pub fn new(threads: usize) -> VectorClock {
        VectorClock(vec![0; threads])
    }

    /// This thread executed one more event.
    pub fn tick(&mut self, thread: usize) {
        if thread >= self.0.len() {
            self.0.resize(thread + 1, 0);
        }
        self.0[thread] = self.0[thread].saturating_add(1);
    }

    /// Component-wise maximum: afterwards `self` dominates both inputs
    /// (the join models "learned everything the other point knew").
    pub fn join(&mut self, other: &VectorClock) {
        if other.0.len() > self.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (s, &o) in self.0.iter_mut().zip(&other.0) {
            *s = (*s).max(o);
        }
    }

    /// Component `thread` (0 if never ticked).
    pub fn get(&self, thread: usize) -> u32 {
        self.0.get(thread).copied().unwrap_or(0)
    }

    /// Happens-before-or-equal: every component of `self` is ≤ the
    /// matching component of `other`. `!a.le(b) && !b.le(a)` means the
    /// two points are concurrent.
    pub fn le(&self, other: &VectorClock) -> bool {
        let n = self.0.len().max(other.0.len());
        (0..n).all(|t| self.get(t) <= other.get(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_and_get() {
        let mut c = VectorClock::new(2);
        c.tick(0);
        c.tick(0);
        c.tick(1);
        assert_eq!(c.get(0), 2);
        assert_eq!(c.get(1), 1);
        assert_eq!(c.get(7), 0, "unseen threads read as zero");
    }

    #[test]
    fn join_is_component_max() {
        let mut a = VectorClock::new(2);
        a.tick(0);
        let mut b = VectorClock::new(2);
        b.tick(1);
        b.tick(1);
        a.join(&b);
        assert_eq!(a.get(0), 1);
        assert_eq!(a.get(1), 2);
    }

    #[test]
    fn ordering_and_concurrency() {
        let mut a = VectorClock::new(2);
        a.tick(0);
        let mut b = a.clone();
        b.tick(1);
        assert!(a.le(&b), "a is a prefix of b's history");
        assert!(!b.le(&a));
        // Concurrent: each ticked its own component past the other.
        let mut c = VectorClock::new(2);
        c.tick(0);
        let mut d = VectorClock::new(2);
        d.tick(1);
        assert!(!c.le(&d) && !d.le(&c), "concurrent points");
        // Equal clocks are ordered both ways (le is reflexive).
        assert!(a.le(&a));
    }

    #[test]
    fn join_grows_to_longer_clock() {
        let mut a = VectorClock::new(1);
        let mut b = VectorClock::new(4);
        b.tick(3);
        a.join(&b);
        assert_eq!(a.get(3), 1);
        assert!(b.le(&a));
    }
}
