//! Offline stand-in for the `parking_lot` crate (see `shims/README.md`).
//!
//! Provides a [`Mutex`] and [`Condvar`] with `parking_lot`'s ergonomics —
//! `lock()` returns the guard directly instead of a poisoning `Result`,
//! `Condvar::wait`/`wait_for` take the guard by `&mut` — backed by
//! `std::sync`. A poisoned std primitive (a panic while holding the lock)
//! is treated as still-usable, matching `parking_lot`'s no-poisoning
//! semantics.
//!
//! On top of the crate-compatible surface, the [`park`] module adds the
//! thread park/unpark primitive behind the STM retry loop's progress
//! backstop and the `stm-core::wait` waiter registry (the real crate
//! keeps this in `parking_lot_core`): a [`park::Parker`]/
//! [`park::Unparker`] pair with token semantics, so a conflict loser or
//! a blocked `retry()` can *sleep* with a bounded timeout and a
//! committing writer wakes it early — an unpark that lands before the
//! park deposits a token the next park consumes immediately, which is
//! exactly the lost-wakeup guarantee `wait` builds on.

#![forbid(unsafe_code)]

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};
use std::sync::{LockResult, TryLockError};
use std::time::Duration;

fn unpoison<G>(r: LockResult<G>) -> G {
    match r {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A mutual-exclusion lock whose `lock()` never returns a poison error.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: StdMutex<T>,
}

/// RAII guard returned by [`Mutex::lock`].
///
/// Wraps the std guard (rather than aliasing it) so [`Condvar::wait`] can
/// take it by `&mut` — `parking_lot`'s signature — while std's wait
/// consumes and returns the guard. The `Option` is `Some` for the guard's
/// whole life outside of the wait call itself.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<StdMutexGuard<'a, T>>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present outside wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present outside wait")
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl<T> Mutex<T> {
    /// Create a mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Self {
            inner: StdMutex::new(value),
        }
    }

    /// Consume the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        unpoison(self.inner.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(unpoison(self.inner.lock())),
        }
    }

    /// Acquire the lock if it is free right now.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { inner: Some(g) }),
            Err(TryLockError::Poisoned(poisoned)) => Some(MutexGuard {
                inner: Some(poisoned.into_inner()),
            }),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        unpoison(self.inner.get_mut())
    }
}

/// Result of a timed [`Condvar`] wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// `true` if the wait ended because the timeout elapsed (rather than a
    /// notification).
    #[must_use]
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// A condition variable with `parking_lot`'s guard-by-`&mut` API.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: StdCondvar,
}

impl Condvar {
    /// Create a new condition variable.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            inner: StdCondvar::new(),
        }
    }

    /// Block until notified. The guard is atomically released for the wait
    /// and re-acquired before returning (std semantics; spurious wakeups
    /// possible — re-check the predicate).
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.inner.take().expect("guard present outside wait");
        guard.inner = Some(unpoison(self.inner.wait(inner)));
    }

    /// Block until notified or `timeout` elapses.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let inner = guard.inner.take().expect("guard present outside wait");
        let (inner, result) = match self.inner.wait_timeout(inner, timeout) {
            Ok((g, r)) => (g, r),
            Err(poisoned) => poisoned.into_inner(),
        };
        guard.inner = Some(inner);
        WaitTimeoutResult {
            timed_out: result.timed_out(),
        }
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

pub mod park {
    //! Thread parking with token semantics (the `parking_lot_core`-shaped
    //! extension; see the crate docs).
    //!
    //! An [`Unparker`] deposits a *token*; [`Parker::park`] consumes one,
    //! blocking until it is available. A token deposited while nobody is
    //! parked is kept, so an unpark that races ahead of the park is never
    //! lost — the next `park` returns immediately. Tokens do not
    //! accumulate beyond one.

    use super::{Condvar, Mutex};
    use std::sync::Arc;
    use std::time::Duration;

    #[derive(Debug, Default)]
    struct Inner {
        token: Mutex<bool>,
        wake: Condvar,
    }

    /// The parking side: owned by the thread that sleeps.
    #[derive(Debug)]
    pub struct Parker {
        inner: Arc<Inner>,
    }

    /// The waking side: clone freely, hand to other threads.
    #[derive(Debug, Clone)]
    pub struct Unparker {
        inner: Arc<Inner>,
    }

    impl Default for Parker {
        fn default() -> Self {
            Self::new()
        }
    }

    impl Parker {
        /// A fresh parker with no token deposited.
        #[must_use]
        pub fn new() -> Self {
            Self {
                inner: Arc::new(Inner::default()),
            }
        }

        /// A handle that can wake this parker from any thread.
        #[must_use]
        pub fn unparker(&self) -> Unparker {
            Unparker {
                inner: Arc::clone(&self.inner),
            }
        }

        /// Block until a token is available, then consume it.
        pub fn park(&self) {
            let mut token = self.inner.token.lock();
            while !*token {
                self.inner.wake.wait(&mut token);
            }
            *token = false;
        }

        /// Block until a token is available or `timeout` elapses. Returns
        /// `true` if a token was consumed (i.e. an unpark woke the wait).
        pub fn park_timeout(&self, timeout: Duration) -> bool {
            let mut token = self.inner.token.lock();
            let mut remaining = timeout;
            while !*token {
                let before = std::time::Instant::now();
                if self.inner.wake.wait_for(&mut token, remaining).timed_out() {
                    break;
                }
                // Spurious or stolen wakeup: shrink the budget and re-wait.
                remaining = remaining.saturating_sub(before.elapsed());
                if remaining.is_zero() {
                    break;
                }
            }
            let woke = *token;
            *token = false;
            woke
        }
    }

    impl Unparker {
        /// Deposit a token, waking the parker if it is currently parked.
        pub fn unpark(&self) {
            let mut token = self.inner.token.lock();
            *token = true;
            self.inner.wake.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn lock_round_trip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn try_lock_contended() {
        let m = Mutex::new(0);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = Mutex::new(false);
        let cv = Condvar::new();
        let mut g = m.lock();
        let r = cv.wait_for(&mut g, Duration::from_millis(10));
        assert!(r.timed_out());
        // The guard is usable again after the wait.
        *g = true;
        assert!(*g);
    }

    #[test]
    fn condvar_handoff_between_threads() {
        let shared = Arc::new((Mutex::new(false), Condvar::new()));
        let other = Arc::clone(&shared);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*other;
            let mut ready = m.lock();
            *ready = true;
            cv.notify_one();
        });
        let (m, cv) = &*shared;
        let mut ready = m.lock();
        while !*ready {
            cv.wait(&mut ready);
        }
        t.join().unwrap();
        assert!(*ready);
    }

    #[test]
    fn parker_timeout_expires_without_token() {
        let p = park::Parker::new();
        let started = Instant::now();
        assert!(!p.park_timeout(Duration::from_millis(10)));
        assert!(started.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn unpark_before_park_is_not_lost() {
        let p = park::Parker::new();
        p.unparker().unpark();
        // The pre-deposited token makes this return immediately.
        assert!(p.park_timeout(Duration::from_secs(60)));
        // …and it is consumed: the next timed park expires.
        assert!(!p.park_timeout(Duration::from_millis(5)));
    }

    #[test]
    fn unpark_wakes_a_parked_thread() {
        let p = Arc::new(park::Parker::new());
        let u = p.unparker();
        let parked = Arc::clone(&p);
        let t = std::thread::spawn(move || parked.park());
        // Token semantics end the park whichever side runs first; the
        // pause only makes "already parked" the likely order.
        std::thread::sleep(Duration::from_millis(20)); // lint:allow — pacing, not a rendezvous
        u.unpark();
        t.join().unwrap();
    }
}
