// lint:hot-path
//! Read sets: the invisible-read half of a transaction's protected set.
//!
//! Each entry records the protection word a read was validated against (a
//! `TVar`'s [`VLock`] or a [`Link`](crate::Link) itself) and the raw word
//! seen there. Validation re-checks that every recorded word is unchanged
//! (or is write-locked by the validating transaction itself, in which case
//! the pre-lock word — supplied by the write set — is compared instead).
//! One comparison serves both kinds: an unlocked `VLock` word *is* its
//! version, and a link word is its version and value together.
//!
//! In the paper's vocabulary, a read entry *is* an acquired protection
//! element: it stays in the transaction's protected set until it is either
//! dropped by an elastic cut (OE-STM's read-only prefix) or released after
//! commit. `outherit()` moves entries from a child's logical read set into
//! its parent's — in this representation both live in the same vector and
//! outheritance is the *absence* of the truncation that the non-composable
//! E-STM mode performs.

use crate::link::Loc;
use crate::scratch::InlineLog;
use crate::vlock::{LockState, VLock};

/// One read: the protection word validated and the raw word seen there.
#[derive(Debug, Clone, Copy)]
pub struct ReadEntry<'env> {
    /// The location's protection element.
    pub lock: &'env VLock,
    /// The raw (unlocked) word the read was made under: a `TVar`'s
    /// version, or a link's packed version and payload.
    pub seen: u64,
}

impl ReadEntry<'_> {
    /// The location's identity.
    #[inline]
    #[must_use]
    pub fn id(&self) -> usize {
        self.lock.id()
    }

    /// Whether the protection word still holds exactly what was seen, or
    /// is locked by `self_owner` with `locked_at_of` the pre-lock word.
    #[inline]
    fn holds(
        &self,
        self_owner: Option<u64>,
        locked_at_of: impl FnOnce(&VLock) -> Option<u64>,
    ) -> bool {
        match self.lock.load() {
            LockState::Unlocked { version } => version == self.seen,
            LockState::Locked { owner } => {
                Some(owner) == self_owner && locked_at_of(self.lock) == Some(self.seen)
            }
        }
    }
}

/// An append-only (except for elastic truncation) log of reads, its
/// first [`HEAD`](crate::scratch::HEAD) entries in place (see
/// [`scratch`](crate::scratch)).
#[derive(Debug, Default)]
pub struct ReadSet<'env> {
    entries: InlineLog<ReadEntry<'env>>,
    /// Whether a link read was logged since the last clear: its entry's
    /// `seen` is not a version, and the attempt owes the link age check
    /// (see [`link`](crate::link)).
    linked: bool,
}

impl<'env> ReadSet<'env> {
    /// An empty read set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a read of `loc` made under the raw protection word `seen`.
    #[inline]
    pub fn push(&mut self, loc: Loc<'env>, seen: u64) {
        self.linked |= matches!(loc, Loc::Link(_));
        self.entries.push(ReadEntry {
            lock: loc.lock(),
            seen,
        });
    }

    /// Record a read of `loc` under `seen` if the set has room for it
    /// without growing; `false` (nothing recorded) otherwise. For inlined
    /// read heads, which leave growth to their out-of-line tail.
    #[inline]
    pub fn try_push(&mut self, loc: Loc<'env>, seen: u64) -> bool {
        let pushed = self.entries.try_push(ReadEntry {
            lock: loc.lock(),
            seen,
        });
        self.linked |= pushed && matches!(loc, Loc::Link(_));
        pushed
    }

    /// Re-log an entry taken from another log of the same attempt (an
    /// elastic window). It does not mark the set linked: the caller
    /// bounds what such entries observed by its snapshot.
    #[inline]
    pub fn push_entry(&mut self, entry: ReadEntry<'env>) {
        self.entries.push(entry);
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

    /// Whether a link read was logged since the last clear.
    #[inline]
    #[must_use]
    pub fn linked(&self) -> bool {
        self.linked
    }

    /// Drop all entries past `len` (used by the *non*-outheriting E-STM
    /// child commit, and to roll a child's reads back on child abort).
    pub fn truncate(&mut self, len: usize) {
        self.entries.truncate(len);
    }

    /// Remove all entries.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.linked = false;
    }

    /// Iterate over the entries in read order.
    pub fn iter(&self) -> impl Iterator<Item = &ReadEntry<'env>> {
        self.entries.iter()
    }

    /// A bound on the commit versions of everything this set observed: the
    /// highest version recorded (0 when empty), or `snapshot` once a link
    /// was read, whose recorded word is no version.
    #[must_use]
    pub fn observed_bound(&self, snapshot: u64) -> u64 {
        if self.linked {
            return snapshot;
        }
        self.entries.iter().map(|e| e.seen).max().unwrap_or(0)
    }

    /// Validate every entry: each protection word must be unlocked at the
    /// recorded word, or locked by `self_owner` with a pre-lock word
    /// (looked up via `locked_at_of`, typically the write set) equal to the
    /// recorded one.
    ///
    /// Returns `true` if the whole read set is still consistent.
    pub fn validate(
        &self,
        self_owner: Option<u64>,
        mut locked_at_of: impl FnMut(&VLock) -> Option<u64>,
    ) -> bool {
        self.entries
            .iter()
            .all(|e| e.holds(self_owner, &mut locked_at_of))
    }

    /// Validate only the entries starting at index `from` (child-commit
    /// fast-fail validation: the parent's prefix was already validated or
    /// will be at top-level commit).
    pub fn validate_suffix(
        &self,
        from: usize,
        self_owner: Option<u64>,
        mut locked_at_of: impl FnMut(&VLock) -> Option<u64>,
    ) -> bool {
        self.entries
            .iter()
            .skip(from)
            .all(|e| e.holds(self_owner, &mut locked_at_of))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Link;
    use crate::scratch::HEAD;
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
        rs.push(Loc::Var(a.core()), 0);
        rs.push(Loc::Var(b.core()), 0);
        assert!(rs.validate(None, |_| None));
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn version_bump_fails_validation() {
        let a = TVar::new(1u64);
        let mut rs = ReadSet::new();
        rs.push(Loc::Var(a.core()), 0);
        a.store_atomic(9, 3); // committed write at version 3
        assert!(!rs.validate(None, |_| None));
    }

    #[test]
    fn foreign_lock_fails_validation() {
        let a = TVar::new(1u64);
        let mut rs = ReadSet::new();
        rs.push(Loc::Var(a.core()), 0);
        assert!(a.core().lock().try_lock_at(0, 77));
        assert!(!rs.validate(Some(5), |_| None));
        a.core().lock().unlock_to(0);
    }

    #[test]
    fn self_lock_with_matching_preversion_validates() {
        let a = TVar::new(1u64);
        let mut rs = ReadSet::new();
        rs.push(Loc::Var(a.core()), 0);
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
        rs.push(Loc::Var(a.core()), 0);
        rs.push(Loc::Var(b.core()), 0);
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
        rs.push(Loc::Var(a.core()), 0);
        rs.push(Loc::Var(b.core()), 0);
        a.store_atomic(3, 4); // invalidate the prefix entry only
        assert!(!rs.validate(None, |_| None));
        assert!(rs.validate_suffix(1, None, |_| None));
        assert!(
            rs.validate_suffix(99, None, |_| None),
            "out-of-range from is empty"
        );
    }

    #[test]
    fn truncate_and_validate_suffix_across_the_head() {
        for len in [HEAD - 1, HEAD, HEAD + 1] {
            for mark in 0..=len {
                let vars: Vec<TVar<u64>> = (0..len as u64).map(TVar::new).collect();
                let mut rs = ReadSet::new();
                for v in &vars {
                    rs.push(Loc::Var(v.core()), 0);
                }
                if mark > 0 {
                    vars[mark - 1].store_atomic(9, 1); // the prefix only
                }
                assert!(rs.validate_suffix(mark, None, |_| None), "{len}/{mark}");
                if mark < len {
                    vars[mark].store_atomic(9, 1); // the suffix's first entry
                    assert!(!rs.validate_suffix(mark, None, |_| None), "{len}/{mark}");
                }
                rs.truncate(mark);
                let ids: Vec<usize> = rs.iter().map(ReadEntry::id).collect();
                let kept: Vec<usize> = vars[..mark].iter().map(|v| v.core().id()).collect();
                assert_eq!(ids, kept, "truncating {len} entries to {mark}");
                rs.push(Loc::Var(vars[0].core()), 1);
                assert_eq!(rs.len(), mark + 1, "the set grows on from the mark");
            }
        }
    }

    #[test]
    fn observed_bound_spans_head_and_spill() {
        for len in [HEAD - 1, HEAD, HEAD + 1] {
            let vars: Vec<TVar<u64>> = (0..len as u64).map(TVar::new).collect();
            for high in 0..len {
                let mut rs = ReadSet::new();
                for (i, v) in vars.iter().enumerate() {
                    rs.push(Loc::Var(v.core()), if i == high { 7 } else { 1 });
                }
                assert_eq!(rs.observed_bound(99), 7, "the highest at {high} of {len}");
            }
        }
    }

    #[test]
    fn link_entries_validate_by_their_whole_word() {
        let l = Link::new(3);
        let v = TVar::new(1u64);
        let mut rs = ReadSet::new();
        rs.push(Loc::Var(v.core()), 0);
        assert!(!rs.linked());
        assert_eq!(rs.observed_bound(9), 0, "the versions recorded");
        let (_, seen) = l.read().unwrap();
        rs.push(Loc::Link(&l), seen);
        assert!(rs.linked());
        assert_eq!(rs.observed_bound(9), 9, "a link's word is no version");
        assert!(rs.validate(None, |_| None));
        // Same version, new payload: still a change.
        assert!(l.lock().try_lock_at(seen, 5));
        l.publish(0, 4);
        assert!(!rs.validate(None, |_| None));
        rs.clear();
        assert!(!rs.linked(), "clear forgets the link");
    }
}
