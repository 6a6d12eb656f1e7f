// lint:hot-path
//! Versioned write-locks — the concrete *protection elements* of the paper.
//!
//! Section II of the paper abstracts conflict detection behind "protection
//! elements" that transactions acquire and release. In all four STMs of this
//! workspace the protection element of a memory location is realised by a
//! [`VLock`]: a single 64-bit word that is either
//!
//! * **unlocked**, carrying the version (global-clock timestamp) of the last
//!   committed write to the location, or
//! * **locked**, carrying the *ticket* of the owning transaction attempt
//!   (see [`crate::ticket`]).
//!
//! An *invisible read* of the location acquires the protection element in
//! the paper's sense by recording the observed version and re-checking it
//! later (at commit, or earlier for elastic transactions); a write acquires
//! it physically by CAS-ing the lock bit.

use core::sync::atomic::{AtomicU64, Ordering};

/// Highest bit marks the word as locked.
const LOCKED_BIT: u64 = 1 << 63;

/// The decoded state of a [`VLock`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockState {
    /// Unlocked; the payload is the version of the last committed write.
    Unlocked {
        /// Global-clock timestamp of the last committed write.
        version: u64,
    },
    /// Locked; the payload is the owner's transaction ticket.
    Locked {
        /// Ticket of the transaction attempt holding the lock.
        owner: u64,
    },
}

/// A versioned lock word.
///
/// Versions and owner tickets must fit in 63 bits; the global clock and the
/// ticket counter cannot realistically overflow that in any program's
/// lifetime (2^63 increments at 1 ns each is ~292 years).
#[derive(Debug)]
pub struct VLock {
    word: AtomicU64,
}

impl Default for VLock {
    fn default() -> Self {
        Self::new(0)
    }
}

impl VLock {
    /// Create an unlocked lock at `version`.
    #[must_use]
    pub const fn new(version: u64) -> Self {
        debug_assert!(version & LOCKED_BIT == 0);
        Self {
            word: AtomicU64::new(version),
        }
    }

    /// Decode a raw word into a [`LockState`].
    #[inline]
    #[must_use]
    pub fn decode(raw: u64) -> LockState {
        if raw & LOCKED_BIT != 0 {
            LockState::Locked {
                owner: raw & !LOCKED_BIT,
            }
        } else {
            LockState::Unlocked { version: raw }
        }
    }

    /// A stable identity for the location this word protects (its
    /// address): read and write sets, waiters and commit hooks name a
    /// location by it.
    #[inline]
    #[must_use]
    pub fn id(&self) -> usize {
        core::ptr::from_ref(self) as usize
    }

    /// Load the raw word (used for the version re-check in consistent reads).
    #[inline]
    #[must_use]
    pub fn raw(&self) -> u64 {
        self.word.load(Ordering::Acquire)
    }

    /// Load and decode the current state.
    #[inline]
    #[must_use]
    pub fn load(&self) -> LockState {
        Self::decode(self.raw())
    }

    /// Attempt to lock the word for `owner`, expecting it to be unlocked at
    /// exactly `expected_version`. Returns `true` on success.
    ///
    /// Failing because the version moved on is a conflict: somebody committed
    /// a write to the location after we read it.
    #[inline]
    pub fn try_lock_at(&self, expected_version: u64, owner: u64) -> bool {
        debug_assert!(owner & LOCKED_BIT == 0);
        self.word
            .compare_exchange(
                expected_version,
                LOCKED_BIT | owner,
                Ordering::AcqRel,
                Ordering::Relaxed,
            )
            .is_ok()
    }

    /// Attempt to lock the word for `owner` regardless of its current
    /// version. On success returns the version the word held; on failure
    /// returns the observed (locked) state.
    ///
    /// Used by encounter-time-locking STMs (LSA) where the writer does not
    /// require having read the location first.
    #[inline]
    pub fn try_lock_any(&self, owner: u64) -> Result<u64, LockState> {
        debug_assert!(owner & LOCKED_BIT == 0);
        let cur = self.raw();
        match Self::decode(cur) {
            LockState::Unlocked { version } => {
                if self
                    .word
                    .compare_exchange(cur, LOCKED_BIT | owner, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
                {
                    Ok(version)
                } else {
                    Err(self.load())
                }
            }
            s @ LockState::Locked { .. } => Err(s),
        }
    }

    /// Release the lock, installing `new_version` as the committed version.
    ///
    /// Must only be called by the current owner: a commit re-versions what
    /// it wrote (`new_version` is its fresh global-clock timestamp), and an
    /// abort restores the pre-lock word. That is sound because no engine
    /// writes a value word outside its commit's write-back, and every
    /// lock–value–lock read ([`TVarCore::read_consistent`], the driver's
    /// double collect) takes an unchanged lock word for an unchanged value.
    ///
    /// [`TVarCore::read_consistent`]: crate::TVarCore::read_consistent
    #[inline]
    pub fn unlock_to(&self, new_version: u64) {
        debug_assert!(new_version & LOCKED_BIT == 0);
        debug_assert!(matches!(self.load(), LockState::Locked { .. }));
        self.word.store(new_version, Ordering::Release);
    }

    /// True if currently locked by `owner`.
    #[inline]
    #[must_use]
    pub fn is_locked_by(&self, owner: u64) -> bool {
        self.raw() == LOCKED_BIT | owner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_lock_is_unlocked_at_version() {
        let l = VLock::new(7);
        assert_eq!(l.load(), LockState::Unlocked { version: 7 });
    }

    #[test]
    fn lock_unlock_cycle() {
        let l = VLock::new(3);
        assert!(l.try_lock_at(3, 42));
        assert_eq!(l.load(), LockState::Locked { owner: 42 });
        assert!(l.is_locked_by(42));
        assert!(!l.is_locked_by(41));
        l.unlock_to(9);
        assert_eq!(l.load(), LockState::Unlocked { version: 9 });
    }

    #[test]
    fn try_lock_at_fails_on_version_mismatch() {
        let l = VLock::new(3);
        assert!(!l.try_lock_at(2, 42));
        assert_eq!(l.load(), LockState::Unlocked { version: 3 });
    }

    #[test]
    fn try_lock_at_fails_when_already_locked() {
        let l = VLock::new(3);
        assert!(l.try_lock_at(3, 1));
        assert!(!l.try_lock_at(3, 2));
        assert_eq!(l.load(), LockState::Locked { owner: 1 });
    }

    #[test]
    fn try_lock_any_returns_previous_version() {
        let l = VLock::new(11);
        assert_eq!(l.try_lock_any(5), Ok(11));
        assert_eq!(l.try_lock_any(6), Err(LockState::Locked { owner: 5 }));
        l.unlock_to(11); // abort path restores the old version
        assert_eq!(l.load(), LockState::Unlocked { version: 11 });
    }

    #[test]
    fn decode_roundtrip() {
        assert_eq!(VLock::decode(0), LockState::Unlocked { version: 0 });
        assert_eq!(VLock::decode(5), LockState::Unlocked { version: 5 });
        assert_eq!(
            VLock::decode(LOCKED_BIT | 9),
            LockState::Locked { owner: 9 }
        );
    }

    #[test]
    fn contended_locking_admits_one_owner() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let lock = Arc::new(VLock::new(0));
        let winners = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for t in 0..crate::parallel::worker_threads(8) as u64 {
            let lock = Arc::clone(&lock);
            let winners = Arc::clone(&winners);
            handles.push(std::thread::spawn(move || {
                if lock.try_lock_at(0, t + 1) {
                    winners.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(winners.load(Ordering::Relaxed), 1);
    }
}
