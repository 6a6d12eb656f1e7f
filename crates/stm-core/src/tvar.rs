// lint:hot-path
//! Transactional variables.
//!
//! A [`TVar<T>`] is one transactional memory location: a value word plus the
//! versioned lock ([`VLock`]) that serves as its *protection element* in the
//! sense of the paper. The untyped half, [`TVarCore`], is what read/write
//! sets reference — all `TVar<T>` share the same layout, so the transaction
//! machinery is fully monomorphization-free.
//!
//! The only read primitive is [`TVarCore::read_consistent`], which implements
//! the classic lock-version / value / lock-version re-check so a caller can
//! never observe a torn or in-flight value.

use crate::vlock::{LockState, VLock};
use crate::word::Word;
use core::marker::PhantomData;
use core::sync::atomic::{AtomicU64, Ordering};

/// Why a consistent read could not be performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadConflict {
    /// The location is write-locked by the transaction attempt with this
    /// ticket.
    Locked(u64),
    /// The location's version changed between the two lock loads (a commit
    /// raced with the read and we could not get a stable snapshot).
    Unstable,
}

/// The untyped core of a transactional variable: a versioned lock and a
/// value word. This is the unit that read sets and write sets reference.
#[derive(Debug, Default)]
pub struct TVarCore {
    lock: VLock,
    value: AtomicU64,
}

/// How many times `read_consistent` re-tries internally when a concurrent
/// commit changes the version between the two lock loads. Keeping this small
/// bounds read latency; the caller treats exhaustion as a conflict.
const READ_SNAPSHOT_RETRIES: usize = 8;

impl TVarCore {
    /// Create a core holding `word` at version 0.
    #[must_use]
    pub const fn new(word: u64) -> Self {
        Self {
            lock: VLock::new(0),
            value: AtomicU64::new(word),
        }
    }

    /// A stable identity for this location, used as the read/write-set key
    /// and as the object identifier when recording histories: its lock's
    /// address, the space [`Link`](crate::Link) ids share.
    #[inline]
    #[must_use]
    pub fn id(&self) -> usize {
        self.lock.id()
    }

    /// The location's versioned lock (its protection element).
    #[inline]
    #[must_use]
    pub fn lock(&self) -> &VLock {
        &self.lock
    }

    /// Read a `(value, version)` pair that is guaranteed to be a committed
    /// snapshot: the value was the committed value at `version` and the
    /// location was not locked at the moment of the read.
    #[inline]
    pub fn read_consistent(&self) -> Result<(u64, u64), ReadConflict> {
        for _ in 0..READ_SNAPSHOT_RETRIES {
            let before = self.lock.raw();
            match VLock::decode(before) {
                LockState::Locked { owner } => return Err(ReadConflict::Locked(owner)),
                LockState::Unlocked { version } => {
                    let value = self.value.load(Ordering::Acquire);
                    if self.lock.raw() == before {
                        return Ok((value, version));
                    }
                    // A commit slipped in between; retry with the new version.
                }
            }
        }
        Err(ReadConflict::Unstable)
    }

    /// Read the raw value word without any consistency protocol.
    ///
    /// Only meaningful while the caller holds the lock (reading its own
    /// eagerly written value), between the two lock loads of a
    /// lock–value–lock re-check (as [`read_consistent`](Self::read_consistent)
    /// and the driver's double collect do), or during single-threaded
    /// setup.
    #[inline]
    #[must_use]
    pub fn value_unsync(&self) -> u64 {
        self.value.load(Ordering::Acquire)
    }

    /// Store the raw value word.
    ///
    /// Correctness contract: the caller must hold the lock (a commit's
    /// write-back), or be in a single-threaded setup phase.
    #[inline]
    pub fn store_value(&self, word: u64) {
        self.value.store(word, Ordering::Release);
    }
}

/// A typed transactional variable.
///
/// `TVar` is deliberately *not* `Clone`: its address is its identity. Shared
/// structures embed `TVar`s and hand out references; the `cec` crate's
/// arenas show the intended pattern.
#[derive(Debug, Default)]
pub struct TVar<T: Word> {
    core: TVarCore,
    _marker: PhantomData<fn() -> T>,
}

impl<T: Word> TVar<T> {
    /// Create a variable holding `value` at version 0.
    #[must_use]
    pub fn new(value: T) -> Self {
        Self {
            core: TVarCore::new(value.into_word()),
            _marker: PhantomData,
        }
    }

    /// Access the untyped core (read/write sets operate on this).
    #[inline]
    #[must_use]
    pub fn core(&self) -> &TVarCore {
        &self.core
    }

    /// Read the value outside of any transaction.
    ///
    /// Spins while the location is locked by an in-flight commit. Intended
    /// for setup, teardown and assertions in quiescent states; inside a
    /// transaction use `Transaction::read` instead.
    #[must_use]
    pub fn load_atomic(&self) -> T {
        loop {
            match self.core.read_consistent() {
                Ok((w, _)) => return T::from_word(w),
                Err(_) => core::hint::spin_loop(),
            }
        }
    }

    /// Overwrite the value outside of any transaction, bumping the version
    /// using `new_version` (which must come from the STM's global clock so
    /// concurrent snapshots are correctly invalidated).
    ///
    /// Intended for setup in quiescent states.
    pub fn store_atomic(&self, value: T, new_version: u64) {
        loop {
            if let LockState::Unlocked { version } = self.core.lock.load() {
                if self.core.lock.try_lock_at(version, u64::MAX >> 1) {
                    self.core.store_value(value.into_word());
                    self.core.lock.unlock_to(new_version.max(version));
                    return;
                }
            }
            core::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_tvar_reads_back() {
        let v = TVar::new(42i64);
        assert_eq!(v.load_atomic(), 42);
        let (w, ver) = v.core().read_consistent().unwrap();
        assert_eq!(w, 42i64.into_word());
        assert_eq!(ver, 0);
    }

    #[test]
    fn read_conflict_when_locked() {
        let v = TVar::new(1u64);
        assert!(v.core().lock().try_lock_at(0, 99));
        assert_eq!(v.core().read_consistent(), Err(ReadConflict::Locked(99)));
        v.core().lock().unlock_to(0);
        assert!(v.core().read_consistent().is_ok());
    }

    #[test]
    fn store_atomic_bumps_version() {
        let v = TVar::new(1u64);
        v.store_atomic(2, 5);
        let (w, ver) = v.core().read_consistent().unwrap();
        assert_eq!(w, 2);
        assert_eq!(ver, 5);
        assert_eq!(v.load_atomic(), 2);
    }

    #[test]
    fn ids_are_distinct_per_location() {
        let a = TVar::new(0u64);
        let b = TVar::new(0u64);
        assert_ne!(a.core().id(), b.core().id());
    }

    #[test]
    fn concurrent_readers_never_see_torn_state() {
        // One writer repeatedly commits (value, version) pairs through the
        // lock protocol; readers must only ever observe pairs where the
        // value matches the version exactly.
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let v = Arc::new(TVar::new(0u64));
        let stop = Arc::new(AtomicBool::new(false));

        let mut readers = Vec::new();
        for _ in 0..crate::parallel::worker_threads(3) {
            let v = Arc::clone(&v);
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if let Ok((value, version)) = v.core().read_consistent() {
                        assert_eq!(
                            value, version,
                            "snapshot tearing: value {value} at version {version}"
                        );
                    }
                }
            }));
        }

        for i in 1..=20_000u64 {
            let lock = v.core().lock();
            loop {
                if let LockState::Unlocked { version } = lock.load() {
                    if lock.try_lock_at(version, 7) {
                        break;
                    }
                }
            }
            v.core().store_value(i);
            lock.unlock_to(i);
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
    }
}
