//! Poison-tolerant locking helpers with an optional sync-event trace.
//!
//! The serving layers hold models, caches, and queues behind `Mutex`/
//! `RwLock`. The std guards return a `PoisonError` when another thread
//! panicked while holding the lock; `.unwrap()`-ing that result turns
//! one worker's panic into a cascade that wedges every other thread
//! touching the same structure. For a server that must keep answering
//! (even degraded) under partial failure, the right policy is the
//! opposite: recover the guard and keep going — the protected state is
//! plain data whose invariants are re-checked by the consumers (and, in
//! CI, by the `check` crate's model checker), not state that becomes
//! meaningless because a panic unwound through it.
//!
//! These helpers centralize that policy so library code never spells
//! `lock().unwrap()` (the in-repo lint forbids it; see `crates/check`).
//!
//! # Sync-event tracing
//!
//! The helpers now return thin wrapper guards ([`LockGuard`],
//! [`ReadGuard`], [`WriteGuard`]) that — when the thread-local recorder
//! in [`trace`] is armed — emit an acquire/release/wait event stream
//! attributed to a *logical* thread id. The model checker in
//! `crates/check` runs every logical thread on one OS thread, arms the
//! recorder around each schedule, and replays the captured trace
//! through a vector-clock happens-before analysis (data races) and an
//! acquisition-graph cycle check (lock-order inversions). See
//! DESIGN.md §9.3–9.4.
//!
//! When the recorder is *not* armed (every production thread), the only
//! cost per lock operation is one thread-local flag read; no events are
//! allocated and no shared state is touched, so the instrumentation is
//! contention-free by construction.

use std::sync::{
    Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::time::Duration;

/// Thread-local synchronization-event recorder.
///
/// Disarmed by default. The model checker arms it with [`trace::begin`]
/// on its own OS thread, labels each scheduler step with
/// [`trace::set_thread`], and collects the events with [`trace::end`].
/// Scenarios may additionally annotate shared-memory accesses that are
/// *not* mediated by these helpers via [`trace::read`] /
/// [`trace::write`]; those feed the race detector directly.
///
/// Lock identities are the lock's address for the duration of one
/// schedule (structures are rebuilt per interleaving, so ids are only
/// meaningful within a single recorded trace).
pub mod trace {
    use std::cell::{Cell, RefCell};

    /// What happened, against which lock or annotated location.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum EventKind {
        /// A lock was acquired (`shared` = rwlock read guard).
        Acquire {
            /// Lock identity (address, stable within one schedule).
            lock: usize,
            /// Shared (read) acquisition rather than exclusive.
            shared: bool,
        },
        /// A guard was dropped.
        Release {
            /// Lock identity.
            lock: usize,
        },
        /// A condvar wait *entered*: the mutex is released and the
        /// thread blocks. The matching wake-up re-acquisition is
        /// emitted as a fresh [`EventKind::Acquire`]. For
        /// happens-before purposes this event is exactly a release.
        Wait {
            /// Lock identity of the mutex handed to the condvar.
            lock: usize,
        },
        /// Annotated read of a logical shared location.
        Read {
            /// Scenario-chosen location id.
            loc: u64,
        },
        /// Annotated write of a logical shared location.
        Write {
            /// Scenario-chosen location id.
            loc: u64,
        },
    }

    /// One recorded event, attributed to a logical thread.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Event {
        /// Logical thread id (set by [`set_thread`]).
        pub thread: u32,
        /// The event.
        pub kind: EventKind,
    }

    thread_local! {
        static ACTIVE: Cell<bool> = const { Cell::new(false) };
        static CURRENT: Cell<u32> = const { Cell::new(0) };
        static EVENTS: RefCell<Vec<Event>> = const { RefCell::new(Vec::new()) };
    }

    /// Arm the recorder on this OS thread, clearing any prior events.
    pub fn begin() {
        EVENTS.with(|e| e.borrow_mut().clear());
        CURRENT.with(|c| c.set(0));
        ACTIVE.with(|a| a.set(true));
    }

    /// Disarm the recorder and take the captured events.
    pub fn end() -> Vec<Event> {
        ACTIVE.with(|a| a.set(false));
        EVENTS.with(|e| e.borrow_mut().drain(..).collect())
    }

    /// Whether the recorder is armed on this OS thread.
    pub fn is_active() -> bool {
        ACTIVE.with(|a| a.get())
    }

    /// Attribute subsequent events to logical thread `t`.
    pub fn set_thread(t: u32) {
        CURRENT.with(|c| c.set(t));
    }

    fn emit(kind: EventKind) {
        if !is_active() {
            return;
        }
        let thread = CURRENT.with(|c| c.get());
        EVENTS.with(|e| e.borrow_mut().push(Event { thread, kind }));
    }

    /// Record an annotated shared read of logical location `loc`.
    pub fn read(loc: u64) {
        emit(EventKind::Read { loc });
    }

    /// Record an annotated shared write of logical location `loc`.
    pub fn write(loc: u64) {
        emit(EventKind::Write { loc });
    }

    /// Record a lock acquisition (used by the guard wrappers; also
    /// available to scenarios modelling a lock the helpers don't
    /// cover).
    pub fn acquire(lock: usize, shared: bool) {
        emit(EventKind::Acquire { lock, shared });
    }

    /// Record a guard release.
    pub fn release(lock: usize) {
        emit(EventKind::Release { lock });
    }

    /// Record a condvar-wait entry (release half of the wait).
    pub fn wait(lock: usize) {
        emit(EventKind::Wait { lock });
    }
}

/// Mutex guard that reports its release to the [`trace`] recorder.
///
/// Derefs to the protected data exactly like [`MutexGuard`]. The inner
/// guard is vacated only by [`wait`] / [`wait_timeout`], which consume
/// the wrapper by value — after that the wrapper is never touched
/// again, so the `None` arms below are structurally unreachable.
pub struct LockGuard<'a, T> {
    inner: Option<MutexGuard<'a, T>>,
    id: usize,
}

/// The `None` arm of every access to a [`LockGuard`]'s inner guard.
#[expect(
    clippy::unreachable,
    reason = "the Option inside LockGuard is vacated only by wait()/wait_timeout(), which consume the guard by value and hand back a re-filled one; no caller can deref or drop-release a vacated guard"
)]
fn vacated() -> ! {
    unreachable!("lock guard vacated by wait")
}

impl<T> std::ops::Deref for LockGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        match &self.inner {
            Some(g) => g,
            None => vacated(),
        }
    }
}

impl<T> std::ops::DerefMut for LockGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match &mut self.inner {
            Some(g) => g,
            None => vacated(),
        }
    }
}

impl<T> Drop for LockGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.is_some() {
            trace::release(self.id);
        }
    }
}

/// RwLock read guard that reports its release to the [`trace`]
/// recorder.
pub struct ReadGuard<'a, T> {
    inner: RwLockReadGuard<'a, T>,
    id: usize,
}

impl<T> std::ops::Deref for ReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> Drop for ReadGuard<'_, T> {
    fn drop(&mut self) {
        trace::release(self.id);
    }
}

/// RwLock write guard that reports its release to the [`trace`]
/// recorder.
pub struct WriteGuard<'a, T> {
    inner: RwLockWriteGuard<'a, T>,
    id: usize,
}

impl<T> std::ops::Deref for WriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for WriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T> Drop for WriteGuard<'_, T> {
    fn drop(&mut self) {
        trace::release(self.id);
    }
}

fn addr_of<T>(p: &T) -> usize {
    std::ptr::from_ref(p) as *const () as usize
}

/// Lock a mutex, recovering the guard if a previous holder panicked.
pub fn lock<T>(m: &Mutex<T>) -> LockGuard<'_, T> {
    let id = addr_of(m);
    let inner = m.lock().unwrap_or_else(PoisonError::into_inner);
    trace::acquire(id, false);
    LockGuard {
        inner: Some(inner),
        id,
    }
}

/// Acquire a read guard, recovering from poisoning.
pub fn read<T>(l: &RwLock<T>) -> ReadGuard<'_, T> {
    let id = addr_of(l);
    let inner = l.read().unwrap_or_else(PoisonError::into_inner);
    trace::acquire(id, true);
    ReadGuard { inner, id }
}

/// Acquire a write guard, recovering from poisoning.
pub fn write<T>(l: &RwLock<T>) -> WriteGuard<'_, T> {
    let id = addr_of(l);
    let inner = l.write().unwrap_or_else(PoisonError::into_inner);
    trace::acquire(id, false);
    WriteGuard { inner, id }
}

/// Block on a condvar, recovering the guard from poisoning.
///
/// In the event stream this is a `Wait` (≡ release) at entry and a
/// fresh `Acquire` at wake-up, so happens-before edges through the
/// mutex are preserved across the block.
pub fn wait<'a, T>(cv: &Condvar, mut guard: LockGuard<'a, T>) -> LockGuard<'a, T> {
    let id = guard.id;
    let inner = match guard.inner.take() {
        Some(g) => g,
        None => vacated(),
    };
    drop(guard); // vacated: emits no Release
    trace::wait(id);
    let inner = cv.wait(inner).unwrap_or_else(PoisonError::into_inner);
    trace::acquire(id, false);
    LockGuard {
        inner: Some(inner),
        id,
    }
}

/// Block on a condvar with a timeout, recovering the guard from
/// poisoning. The timed-out flag is dropped: callers re-check their
/// predicate and deadline anyway. Event semantics match [`wait`].
pub fn wait_timeout<'a, T>(
    cv: &Condvar,
    mut guard: LockGuard<'a, T>,
    dur: Duration,
) -> LockGuard<'a, T> {
    let id = guard.id;
    let inner = match guard.inner.take() {
        Some(g) => g,
        None => vacated(),
    };
    drop(guard); // vacated: emits no Release
    trace::wait(id);
    let inner = match cv.wait_timeout(inner, dur) {
        Ok((g, _)) => g,
        Err(poisoned) => poisoned.into_inner().0,
    };
    trace::acquire(id, false);
    LockGuard {
        inner: Some(inner),
        id,
    }
}

#[cfg(test)]
mod tests {
    use super::trace::EventKind;
    use super::*;
    use std::sync::{Arc, Mutex, RwLock};

    #[test]
    fn lock_recovers_from_poison() {
        let m = Arc::new(Mutex::new(7u32));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        assert!(m.lock().is_err(), "lock should be poisoned");
        assert_eq!(*lock(&m), 7, "helper must still hand out the guard");
    }

    #[test]
    fn rwlock_helpers_recover_from_poison() {
        let l = Arc::new(RwLock::new(3u32));
        let l2 = l.clone();
        let _ = std::thread::spawn(move || {
            let _g = l2.write().unwrap();
            panic!("poison the rwlock");
        })
        .join();
        assert_eq!(*read(&l), 3);
        *write(&l) = 4;
        assert_eq!(*read(&l), 4);
    }

    #[test]
    fn wait_timeout_returns_after_deadline() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let g = lock(&m);
        let _g = wait_timeout(&cv, g, Duration::from_millis(1));
    }

    #[test]
    fn recorder_is_off_by_default() {
        let m = Mutex::new(0u32);
        *lock(&m) += 1;
        assert!(!trace::is_active());
        trace::begin();
        let events = trace::end();
        assert!(events.is_empty(), "nothing recorded while disarmed");
    }

    #[test]
    fn guards_emit_acquire_release_pairs() {
        let m = Mutex::new(0u32);
        let l = RwLock::new(0u32);
        trace::begin();
        trace::set_thread(3);
        *lock(&m) += 1;
        let _ = *read(&l);
        *write(&l) = 2;
        let events = trace::end();
        let kinds: Vec<EventKind> = events.iter().map(|e| e.kind).collect();
        assert!(events.iter().all(|e| e.thread == 3));
        assert_eq!(events.len(), 6, "three acquire/release pairs: {kinds:?}");
        assert!(matches!(kinds[0], EventKind::Acquire { shared: false, .. }));
        assert!(matches!(kinds[1], EventKind::Release { .. }));
        assert!(matches!(kinds[2], EventKind::Acquire { shared: true, .. }));
        // Mutex and rwlock ids differ; pairs match up.
        let (lock_id, rw_id) = match (kinds[0], kinds[2]) {
            (EventKind::Acquire { lock: a, .. }, EventKind::Acquire { lock: b, .. }) => (a, b),
            _ => (0, 0),
        };
        assert_ne!(lock_id, rw_id);
        assert_eq!(kinds[1], EventKind::Release { lock: lock_id });
        assert_eq!(kinds[5], EventKind::Release { lock: rw_id });
    }

    #[test]
    fn wait_emits_wait_then_reacquire() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        trace::begin();
        let g = lock(&m);
        let g = wait_timeout(&cv, g, Duration::from_millis(1));
        drop(g);
        let kinds: Vec<EventKind> = trace::end().iter().map(|e| e.kind).collect();
        assert!(matches!(kinds[0], EventKind::Acquire { .. }));
        assert!(matches!(kinds[1], EventKind::Wait { .. }), "{kinds:?}");
        assert!(matches!(kinds[2], EventKind::Acquire { .. }));
        assert!(matches!(kinds[3], EventKind::Release { .. }));
        assert_eq!(kinds.len(), 4, "wait itself must not emit a Release");
    }

    #[test]
    fn annotations_record_reads_and_writes() {
        trace::begin();
        trace::set_thread(1);
        trace::write(42);
        trace::set_thread(2);
        trace::read(42);
        let events = trace::end();
        assert_eq!(events[0].kind, EventKind::Write { loc: 42 }, "{events:?}");
        assert_eq!(events[0].thread, 1);
        assert_eq!(events[1].kind, EventKind::Read { loc: 42 });
        assert_eq!(events[1].thread, 2);
    }
}
