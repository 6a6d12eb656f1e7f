// lint:hot-path
//! Read sets: the invisible-read half of a transaction's protected set.
//!
//! Each entry records a location and the version at which it was read.
//! Validation re-checks that every recorded location is still at its
//! recorded version (or is write-locked by the validating transaction
//! itself, in which case the pre-lock version — supplied by the write set —
//! is compared instead).
//!
//! In the paper's vocabulary, a read entry *is* an acquired protection
//! element: it stays in the transaction's protected set until it is either
//! dropped by an elastic cut (OE-STM's read-only prefix) or released after
//! commit. `outherit()` moves entries from a child's logical read set into
//! its parent's — in this representation both live in the same vector and
//! outheritance is the *absence* of the truncation that the non-composable
//! E-STM mode performs.

use crate::scratch::{SpareVec, READ_SPARE};
use crate::tvar::TVarCore;
use crate::vlock::LockState;

/// One read: a location and the version observed.
#[derive(Debug, Clone, Copy)]
pub struct ReadEntry<'env> {
    /// The location read.
    pub core: &'env TVarCore,
    /// Version of the location at read time.
    pub version: u64,
}

/// An append-only (except for elastic truncation) log of reads.
#[derive(Debug, Default)]
pub struct ReadSet<'env> {
    entries: Vec<ReadEntry<'env>>,
}

impl<'env> ReadSet<'env> {
    /// An empty read set.
    #[must_use]
    pub fn new() -> Self {
        Self {
            entries: Vec::new(),
        }
    }

    /// Extract the entry vector for pooling; `self` is left empty.
    pub(crate) fn take_entries(&mut self) -> Vec<ReadEntry<'env>> {
        core::mem::take(&mut self.entries)
    }

    /// Entries the set holds without growing.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// Record a read of `core` at `version`.
    #[inline]
    pub fn push(&mut self, core: &'env TVarCore, version: u64) {
        if self.entries.len() == self.entries.capacity() {
            self.grow();
        }
        self.entries.push(ReadEntry { core, version });
    }

    /// Record a read of `core` at `version` if the set has room for it
    /// without growing; `false` (nothing recorded) otherwise. For inlined
    /// read heads, which leave growth to their out-of-line tail.
    #[inline]
    pub fn try_push(&mut self, core: &'env TVarCore, version: u64) -> bool {
        if self.entries.len() == self.entries.capacity() {
            return false;
        }
        self.entries.push(ReadEntry { core, version });
        true
    }

    /// `push`'s cold path: make room for one more entry. A set that never
    /// grew first adopts the thread's spare allocation (see
    /// [`scratch`](crate::scratch)).
    #[cold]
    #[inline(never)]
    fn grow(&mut self) {
        if self.entries.capacity() == 0 {
            self.entries = READ_SPARE.with(SpareVec::take);
        }
        self.entries.reserve(1);
    }

    /// Number of recorded reads (duplicates included).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no reads are recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drop all entries past `len` (used by the *non*-outheriting E-STM
    /// child commit, and to roll a child's reads back on child abort).
    pub fn truncate(&mut self, len: usize) {
        self.entries.truncate(len);
    }

    /// Remove all entries.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Iterate over the entries in read order.
    pub fn iter(&self) -> impl Iterator<Item = &ReadEntry<'env>> {
        self.entries.iter()
    }

    /// The highest version recorded (0 when empty): a bound on the commit
    /// versions of everything this set observed.
    #[must_use]
    pub fn max_version(&self) -> u64 {
        self.entries.iter().map(|e| e.version).max().unwrap_or(0)
    }

    /// Validate every entry: each location must be unlocked at its recorded
    /// version, or locked by `self_owner` with a pre-lock version (looked up
    /// via `locked_version_of`, typically the write set) equal to the
    /// recorded one.
    ///
    /// Returns `true` if the whole read set is still consistent.
    pub fn validate(
        &self,
        self_owner: Option<u64>,
        mut locked_version_of: impl FnMut(&TVarCore) -> Option<u64>,
    ) -> bool {
        self.entries.iter().all(|e| match e.core.lock().load() {
            LockState::Unlocked { version } => version == e.version,
            LockState::Locked { owner } => {
                Some(owner) == self_owner && locked_version_of(e.core) == Some(e.version)
            }
        })
    }

    /// Validate only the entries starting at index `from` (child-commit
    /// fast-fail validation: the parent's prefix was already validated or
    /// will be at top-level commit).
    pub fn validate_suffix(
        &self,
        from: usize,
        self_owner: Option<u64>,
        mut locked_version_of: impl FnMut(&TVarCore) -> Option<u64>,
    ) -> bool {
        self.entries[from.min(self.entries.len())..]
            .iter()
            .all(|e| match e.core.lock().load() {
                LockState::Unlocked { version } => version == e.version,
                LockState::Locked { owner } => {
                    Some(owner) == self_owner && locked_version_of(e.core) == Some(e.version)
                }
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tvar::TVar;

    #[test]
    fn empty_set_validates() {
        let rs = ReadSet::new();
        assert!(rs.validate(None, |_| None));
        assert!(rs.is_empty());
    }

    #[test]
    fn unchanged_entries_validate() {
        let a = TVar::new(1u64);
        let b = TVar::new(2u64);
        let mut rs = ReadSet::new();
        rs.push(a.core(), 0);
        rs.push(b.core(), 0);
        assert!(rs.validate(None, |_| None));
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn version_bump_fails_validation() {
        let a = TVar::new(1u64);
        let mut rs = ReadSet::new();
        rs.push(a.core(), 0);
        a.store_atomic(9, 3); // committed write at version 3
        assert!(!rs.validate(None, |_| None));
    }

    #[test]
    fn foreign_lock_fails_validation() {
        let a = TVar::new(1u64);
        let mut rs = ReadSet::new();
        rs.push(a.core(), 0);
        assert!(a.core().lock().try_lock_at(0, 77));
        assert!(!rs.validate(Some(5), |_| None));
        a.core().lock().unlock_to(0);
    }

    #[test]
    fn self_lock_with_matching_preversion_validates() {
        let a = TVar::new(1u64);
        let mut rs = ReadSet::new();
        rs.push(a.core(), 0);
        assert!(a.core().lock().try_lock_at(0, 5));
        // We own the lock and locked it when the version was 0 == recorded.
        assert!(rs.validate(Some(5), |_| Some(0)));
        // A stale pre-lock version must fail.
        assert!(!rs.validate(Some(5), |_| Some(1)));
        a.core().lock().unlock_to(0);
    }

    #[test]
    fn truncate_drops_suffix() {
        let a = TVar::new(1u64);
        let b = TVar::new(2u64);
        let mut rs = ReadSet::new();
        rs.push(a.core(), 0);
        rs.push(b.core(), 0);
        rs.truncate(1);
        assert_eq!(rs.len(), 1);
        b.store_atomic(7, 9); // change the dropped entry
        assert!(
            rs.validate(None, |_| None),
            "dropped entries must not matter"
        );
    }

    #[test]
    fn validate_suffix_ignores_prefix() {
        let a = TVar::new(1u64);
        let b = TVar::new(2u64);
        let mut rs = ReadSet::new();
        rs.push(a.core(), 0);
        rs.push(b.core(), 0);
        a.store_atomic(3, 4); // invalidate the prefix entry only
        assert!(!rs.validate(None, |_| None));
        assert!(rs.validate_suffix(1, None, |_| None));
        assert!(
            rs.validate_suffix(99, None, |_| None),
            "out-of-range from is empty"
        );
    }
}
