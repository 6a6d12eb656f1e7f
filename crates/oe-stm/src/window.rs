// lint:hot-path
//! The elastic window: the two most recent reads an elastic transaction
//! keeps protected before its first write.
//!
//! Felber et al.'s elastic transactions ignore conflicts on their read-only
//! prefix by protecting only the *immediate past reads* during traversal:
//! when a new read arrives, the oldest windowed read is released — in the
//! paper's vocabulary, its protection element leaves the transaction's
//! protected set, so a concurrent writer to it no longer conflicts. The
//! window (the paper's pair: previous and current read) is what remains of
//! the prefix in the minimal protected set.
//!
//! The window sits on the hot path of every elastic read, so it is two
//! named inline slots — no heap allocation per transaction, no ring index —
//! and the per-read check is O(1): the `older` slot *is* the previous read.
//! Each slot records the protection word its read was validated against and
//! the raw word seen there, so a `TVar` read and a link read are checked
//! the same way: by one load compared with what was seen.

use stm_core::readset::{ReadEntry, ReadSet};
use stm_core::vlock::VLock;

/// The sliding window of an elastic transaction's two most recent reads.
/// `older` is only occupied while `newer` is.
#[derive(Debug, Default)]
pub struct Window<'env> {
    /// The previous read: the one the next push releases.
    older: Option<ReadEntry<'env>>,
    /// The most recent read.
    newer: Option<ReadEntry<'env>>,
}

/// Whether a windowed read's protection word still holds what was seen
/// (unlocked and unchanged).
#[inline]
fn entry_valid(e: &ReadEntry<'_>) -> bool {
    e.lock.raw() == e.seen
}

impl<'env> Window<'env> {
    /// An empty window.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a read made under the raw protection word `seen`, releasing
    /// (returning) the oldest entry if the window is full. A returned entry
    /// is a *relaxation event*: that read's protection element has left the
    /// protected set.
    #[inline]
    pub fn push(&mut self, lock: &'env VLock, seen: u64) -> Option<ReadEntry<'env>> {
        let evicted = self.older;
        self.older = self.newer;
        self.newer = Some(ReadEntry { lock, seen });
        evicted
    }

    /// Check that every windowed read is still at its recorded word (the
    /// "cut" check: the last reads form a consistent anchor even if
    /// earlier prefix reads changed).
    #[must_use]
    pub fn validate(&self) -> bool {
        self.iter().all(entry_valid)
    }

    /// Validate every windowed read *except* the most recently pushed one
    /// (which a consistent read just produced). This is E-STM's per-read
    /// check of the immediate past reads, one atomic load.
    #[inline]
    #[must_use]
    pub fn validate_previous(&self) -> bool {
        self.older.as_ref().is_none_or(entry_valid)
    }

    /// Move every windowed entry into `reads` (oldest first) and empty the
    /// window. Used when the transaction *hardens* (first write: the
    /// immediate past reads become permanently tracked, Section V), by
    /// `outherit()` (the child's last-read entries pass to the parent) and
    /// to fold an aborted attempt's windows into its wait footprint.
    pub fn drain_into(&mut self, reads: &mut ReadSet<'env>) {
        for e in [self.older.take(), self.newer.take()].into_iter().flatten() {
            reads.push_entry(e);
        }
    }

    /// Drop everything (E-STM child commit: the child's window is released
    /// instead of outherited; attempt restart).
    pub fn clear(&mut self) {
        self.older = None;
        self.newer = None;
    }

    /// Number of protected reads currently windowed.
    #[must_use]
    pub fn len(&self) -> usize {
        usize::from(self.older.is_some()) + usize::from(self.newer.is_some())
    }

    /// True if the window holds no reads.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.newer.is_none()
    }

    /// Iterate over the windowed entries (oldest first).
    pub fn iter(&self) -> impl Iterator<Item = &ReadEntry<'env>> {
        self.older.iter().chain(self.newer.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_core::TVar;

    /// The window holds two reads: the previous one and the current one.
    const CAP: usize = 2;

    #[test]
    fn push_drops_oldest_beyond_cap() {
        let a = TVar::new(1u64);
        let b = TVar::new(2u64);
        let c = TVar::new(3u64);
        let mut w = Window::new();
        assert!(w.push(a.core().lock(), 0).is_none());
        assert!(w.push(b.core().lock(), 0).is_none());
        let dropped = w.push(c.core().lock(), 0).expect("third push must evict");
        assert_eq!(dropped.id(), a.core().id());
        assert_eq!(w.len(), 2);
        let ids: Vec<usize> = w.iter().map(|e| e.id()).collect();
        assert_eq!(
            ids,
            vec![b.core().id(), c.core().id()],
            "oldest-first order"
        );
    }

    #[test]
    fn validate_detects_changed_entry() {
        let a = TVar::new(1u64);
        let b = TVar::new(2u64);
        let mut w = Window::new();
        w.push(a.core().lock(), 0);
        w.push(b.core().lock(), 0);
        assert!(w.validate());
        a.store_atomic(9, 5);
        assert!(!w.validate());
        // a is the previous entry relative to b: the per-read check sees it.
        assert!(!w.validate_previous());
    }

    #[test]
    fn validate_previous_skips_newest() {
        let a = TVar::new(1u64);
        let b = TVar::new(2u64);
        let mut w = Window::new();
        w.push(a.core().lock(), 0);
        w.push(b.core().lock(), 0);
        // Invalidate only the NEWEST entry: validate_previous ignores it.
        b.store_atomic(9, 5);
        assert!(w.validate_previous());
        assert!(!w.validate());
    }

    #[test]
    fn validate_ignores_evicted_entry() {
        // The essence of elasticity: changes to reads that slid out of the
        // window do not invalidate the transaction.
        let a = TVar::new(1u64);
        let b = TVar::new(2u64);
        let c = TVar::new(3u64);
        let mut w = Window::new();
        w.push(a.core().lock(), 0);
        w.push(b.core().lock(), 0);
        w.push(c.core().lock(), 0); // evicts a
        a.store_atomic(9, 5);
        assert!(w.validate(), "evicted reads must be relaxed");
    }

    #[test]
    fn drain_into_moves_entries_to_read_set() {
        let a = TVar::new(1u64);
        let b = TVar::new(2u64);
        let mut w = Window::new();
        w.push(a.core().lock(), 0);
        w.push(b.core().lock(), 0);
        let mut rs = ReadSet::new();
        w.drain_into(&mut rs);
        assert!(w.is_empty());
        assert_eq!(rs.len(), 2);
        assert!(rs.validate(None, |_| None));
    }

    #[test]
    fn moved_window_keeps_contents() {
        // Child frames park the parent's window by value (no allocation);
        // moving a window must preserve order and versions.
        let a = TVar::new(1u64);
        let b = TVar::new(2u64);
        let mut w = Window::new();
        w.push(a.core().lock(), 0);
        w.push(b.core().lock(), 3);
        let saved = w; // move, as Frame::saved_window does
        let mut w = Window::new();
        w.push(b.core().lock(), 9);
        w.clear();
        let w = saved;
        assert_eq!(w.len(), 2);
        let versions: Vec<u64> = w.iter().map(|e| e.seen).collect();
        assert_eq!(versions, vec![0, 3]);
    }

    #[test]
    fn locked_entry_fails_validation() {
        let a = TVar::new(1u64);
        let mut w = Window::new();
        w.push(a.core().lock(), 0);
        assert!(a.core().lock().try_lock_at(0, 3));
        assert!(!w.validate());
        a.core().lock().unlock_to(0);
        assert!(w.validate());
    }

    /// The window against a plain model — a queue of `(variable, version
    /// recorded)` holding at most two — driven by seeded sequences of
    /// pushes, out-of-band overwrites and lock/unlock of the variables.
    #[test]
    fn window_agrees_with_a_queue_model() {
        use std::collections::VecDeque;

        const VARS: usize = 6;
        const OWNER: u64 = 77;

        // xorshift64*: seeded, dependency-free.
        fn next(state: &mut u64) -> usize {
            *state ^= *state >> 12;
            *state ^= *state << 25;
            *state ^= *state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize
        }

        for seed in 1..=8u64 {
            let vars: Vec<TVar<u64>> = (0..VARS as u64).map(TVar::new).collect();
            // Ground truth per variable: committed version, locked?
            let mut version = [0u64; VARS];
            let mut locked = [false; VARS];
            let mut model: VecDeque<(usize, u64)> = VecDeque::new();
            let mut w = Window::new();
            let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            for step in 0..400 {
                let i = next(&mut rng) % VARS;
                match next(&mut rng) % 16 {
                    // A consistent read of an unlocked variable.
                    0..=8 if !locked[i] => {
                        let expect = (model.len() == CAP).then(|| model.pop_front().unwrap());
                        model.push_back((i, version[i]));
                        let evicted = w.push(vars[i].core().lock(), version[i]);
                        assert_eq!(
                            evicted.map(|e| (e.id(), e.seen)),
                            expect.map(|(v, ver)| (vars[v].core().id(), ver)),
                            "seed {seed} step {step}: oldest-first eviction"
                        );
                    }
                    9..=11 if !locked[i] => {
                        version[i] += 1;
                        vars[i].store_atomic(step, version[i]);
                    }
                    12..=13 if !locked[i] => {
                        assert!(vars[i].core().lock().try_lock_at(version[i], OWNER));
                        locked[i] = true;
                    }
                    12..=14 if locked[i] => {
                        vars[i].core().lock().unlock_to(version[i]);
                        locked[i] = false;
                    }
                    15 => {
                        let mut rs = ReadSet::new();
                        w.drain_into(&mut rs);
                        let drained: Vec<(usize, u64)> =
                            rs.iter().map(|e| (e.id(), e.seen)).collect();
                        let expect: Vec<(usize, u64)> = model
                            .drain(..)
                            .map(|(v, ver)| (vars[v].core().id(), ver))
                            .collect();
                        assert_eq!(drained, expect, "seed {seed} step {step}");
                    }
                    _ => {}
                }
                let current = |&(v, ver): &(usize, u64)| !locked[v] && version[v] == ver;
                let ctx = format!("seed {seed} step {step}");
                assert_eq!(w.len(), model.len(), "{ctx}");
                assert_eq!(w.is_empty(), model.is_empty(), "{ctx}");
                assert_eq!(
                    w.iter().map(|e| (e.id(), e.seen)).collect::<Vec<_>>(),
                    model
                        .iter()
                        .map(|&(v, ver)| (vars[v].core().id(), ver))
                        .collect::<Vec<_>>(),
                    "{ctx}: iter is oldest-first"
                );
                assert_eq!(w.validate(), model.iter().all(current), "{ctx}");
                assert_eq!(
                    w.validate_previous(),
                    model.iter().rev().skip(1).all(current),
                    "{ctx}: every windowed entry but the newest"
                );
            }
        }
    }
}
