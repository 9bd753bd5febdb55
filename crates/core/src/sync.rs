//! Poison-tolerant locking helpers that count nested acquisitions.
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
//! `lock().unwrap()` (clippy's `unwrap_used`, denied at every library
//! root, forbids it).
//!
//! # One lock at a time
//!
//! The lock rule is that no guard is acquired while another guard is
//! held on the same thread. The `lock-order` lint checks it lexically,
//! within one function; the guards check it at run time, across calls.
//! Each guard ([`LockGuard`], [`ReadGuard`], [`WriteGuard`]) carries a
//! zero-sized token that raises a thread-local held-guard depth when
//! it is built and lowers it when it drops. An acquisition made while
//! the depth is non-zero is counted, together with the call site of
//! the first one, and [`take_nested`] hands over and clears that
//! count. The model checker in `crates/check` fails every schedule
//! whose steps leave a count behind (DESIGN.md §9.3).
//!
//! Guards are `!Send`, so a thread-local depth is exact. Nothing needs
//! arming: every lock operation pays one thread-local access and
//! touches no shared state.

use std::cell::Cell;
use std::panic::Location;
use std::sync::{
    Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::time::Duration;

/// Acquisitions this thread made while it already held a guard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Nested {
    /// How many acquisitions were nested.
    pub count: u32,
    /// Call site of the first nested acquisition.
    pub first: &'static Location<'static>,
}

#[derive(Clone, Copy)]
struct Held {
    depth: u32,
    nested: Option<Nested>,
}

thread_local! {
    static HELD: Cell<Held> = const {
        Cell::new(Held {
            depth: 0,
            nested: None,
        })
    };
}

/// Take this thread's nested-acquisition count (`None` when there was
/// none since the last call), and clear it.
pub fn take_nested() -> Option<Nested> {
    HELD.with(|h| {
        let mut held = h.get();
        let nested = held.nested.take();
        h.set(held);
        nested
    })
}

/// One held guard's share of the thread's depth: counted on
/// acquisition, given back on drop.
struct HeldToken;

impl HeldToken {
    #[track_caller]
    fn acquire() -> Self {
        let site = Location::caller();
        HELD.with(|h| {
            let mut held = h.get();
            if held.depth > 0 {
                held.nested = Some(match held.nested {
                    Some(n) => Nested {
                        count: n.count.saturating_add(1),
                        ..n
                    },
                    None => Nested {
                        count: 1,
                        first: site,
                    },
                });
            }
            held.depth = held.depth.saturating_add(1);
            h.set(held);
        });
        HeldToken
    }
}

impl Drop for HeldToken {
    fn drop(&mut self) {
        HELD.with(|h| {
            let mut held = h.get();
            held.depth = held.depth.saturating_sub(1);
            h.set(held);
        });
    }
}

/// Mutex guard that holds its share of the thread's guard depth.
///
/// Derefs to the protected data exactly like [`MutexGuard`].
pub struct LockGuard<'a, T> {
    inner: MutexGuard<'a, T>,
    _held: HeldToken,
}

impl<T> std::ops::Deref for LockGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for LockGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// RwLock read guard that holds its share of the thread's guard depth.
pub struct ReadGuard<'a, T> {
    inner: RwLockReadGuard<'a, T>,
    _held: HeldToken,
}

impl<T> std::ops::Deref for ReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

/// RwLock write guard that holds its share of the thread's guard depth.
pub struct WriteGuard<'a, T> {
    inner: RwLockWriteGuard<'a, T>,
    _held: HeldToken,
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

/// Lock a mutex, recovering the guard if a previous holder panicked.
#[track_caller]
pub fn lock<T>(m: &Mutex<T>) -> LockGuard<'_, T> {
    LockGuard {
        inner: m.lock().unwrap_or_else(PoisonError::into_inner),
        _held: HeldToken::acquire(),
    }
}

/// Acquire a read guard, recovering from poisoning.
#[track_caller]
pub fn read<T>(l: &RwLock<T>) -> ReadGuard<'_, T> {
    ReadGuard {
        inner: l.read().unwrap_or_else(PoisonError::into_inner),
        _held: HeldToken::acquire(),
    }
}

/// Acquire a write guard, recovering from poisoning.
#[track_caller]
pub fn write<T>(l: &RwLock<T>) -> WriteGuard<'_, T> {
    WriteGuard {
        inner: l.write().unwrap_or_else(PoisonError::into_inner),
        _held: HeldToken::acquire(),
    }
}

/// Block on a condvar, recovering the guard from poisoning.
///
/// The guard keeps its depth token through the wait, so the wake-up
/// re-acquisition is the same hold, never a nested one.
pub fn wait<'a, T>(cv: &Condvar, guard: LockGuard<'a, T>) -> LockGuard<'a, T> {
    let LockGuard { inner, _held } = guard;
    LockGuard {
        inner: cv.wait(inner).unwrap_or_else(PoisonError::into_inner),
        _held,
    }
}

/// Block on a condvar with a timeout, recovering the guard from
/// poisoning. The timed-out flag is dropped: callers re-check their
/// predicate and deadline anyway. Depth semantics match [`wait`].
pub fn wait_timeout<'a, T>(
    cv: &Condvar,
    guard: LockGuard<'a, T>,
    dur: Duration,
) -> LockGuard<'a, T> {
    let LockGuard { inner, _held } = guard;
    let inner = match cv.wait_timeout(inner, dur) {
        Ok((g, _)) => g,
        Err(poisoned) => poisoned.into_inner().0,
    };
    LockGuard { inner, _held }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex, RwLock};

    fn depth() -> u32 {
        HELD.with(|h| h.get().depth)
    }

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
    fn guards_give_their_depth_back() {
        let m = Mutex::new(0u32);
        let l = RwLock::new(0u32);
        let g = lock(&m);
        assert_eq!(depth(), 1);
        drop(g);
        assert_eq!(depth(), 0, "after lock");
        let _ = *read(&l);
        assert_eq!(depth(), 0, "after read");
        *write(&l) = 2;
        assert_eq!(depth(), 0, "after write");
        assert_eq!(take_nested(), None, "one guard at a time is not nesting");
    }

    #[test]
    fn wait_timeout_keeps_one_hold() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let g = lock(&m);
        let g = wait_timeout(&cv, g, Duration::from_millis(1));
        assert_eq!(depth(), 1, "the wake-up re-acquisition is the same hold");
        drop(g);
        assert_eq!(depth(), 0);
        assert_eq!(
            take_nested(),
            None,
            "re-acquiring after a wait is not nesting"
        );
    }

    #[test]
    fn nested_lock_is_counted_at_its_call_site() {
        let m = Mutex::new(0u32);
        let l = RwLock::new(0u32);
        let r = read(&l);
        let line = line!() + 1;
        *lock(&m) += *r;
        *lock(&m) += *r;
        drop(r);
        let n = take_nested().expect("the locks under the read guard are counted");
        assert_eq!(
            (n.count, n.first.file(), n.first.line()),
            (2, file!(), line)
        );
        assert_eq!(take_nested(), None, "taking the count clears it");
        assert_eq!(depth(), 0);
    }
}
