//! Abstract locks — boosting's protection elements.
//!
//! One logical lock per key: set operations on *different* keys commute,
//! so only same-key operations conflict (this is the commutativity-based
//! conflict abstraction the paper's Section II mentions as the natural
//! extension of its protection-element model). Locks are owner-tracked
//! and reentrant for their owner, and acquired two-phase: everything a
//! transaction (or composition, under outheritance) acquired is released
//! together at top-level commit or abort.

use parking_lot::Mutex;
use std::collections::HashMap;

/// Owner-tracked abstract locks keyed by `i64`.
#[derive(Debug, Default)]
pub struct AbstractLocks {
    /// key -> owner ticket.
    owners: Mutex<HashMap<i64, u64>>,
}

impl AbstractLocks {
    /// Fresh lock manager.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Try to acquire the lock of `key` for `owner`: `Some(true)` if this
    /// call acquired it, `Some(false)` if `owner` already held it
    /// (reentrant), `None` if another owner holds it.
    pub fn try_acquire(&self, key: i64, owner: u64) -> Option<bool> {
        let mut m = self.owners.lock();
        match m.get(&key) {
            Some(&o) => (o == owner).then_some(false),
            None => {
                m.insert(key, owner);
                Some(true)
            }
        }
    }

    /// Release `key` if held by `owner` (idempotent otherwise).
    pub fn release(&self, key: i64, owner: u64) {
        let mut m = self.owners.lock();
        if m.get(&key) == Some(&owner) {
            m.remove(&key);
        }
    }

    /// Current owner of `key` (diagnostics/tests).
    #[must_use]
    pub fn owner_of(&self, key: i64) -> Option<u64> {
        self.owners.lock().get(&key).copied()
    }

    /// Number of currently held locks (diagnostics/tests).
    #[must_use]
    pub fn held(&self) -> usize {
        self.owners.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_is_exclusive_and_reentrant() {
        let l = AbstractLocks::new();
        assert_eq!(l.try_acquire(7, 1), Some(true));
        assert_eq!(l.try_acquire(7, 1), Some(false), "reentrant for the owner");
        assert_eq!(l.try_acquire(7, 2), None, "exclusive across owners");
        assert_eq!(l.try_acquire(8, 2), Some(true), "keys are independent");
    }

    #[test]
    fn release_is_owner_checked() {
        let l = AbstractLocks::new();
        assert_eq!(l.try_acquire(7, 1), Some(true));
        l.release(7, 2); // not the owner: no-op
        assert_eq!(l.owner_of(7), Some(1));
        l.release(7, 1);
        assert_eq!(l.owner_of(7), None);
        assert_eq!(l.try_acquire(7, 2), Some(true));
    }
}
