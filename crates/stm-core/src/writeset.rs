// lint:hot-path
//! Write sets: deferred updates plus the bookkeeping needed to lock,
//! validate, write back and release at commit time.
//!
//! The write set deduplicates by location (a second write to the same
//! location overwrites the buffered value), keeps insertion order for
//! write-back, and answers read-after-write lookups through a one-word bloom
//! signature with a linear scan (small sets) or an open-addressed hash index
//! (large sets — see [`IndexTable`]).
//!
//! Hot-path invariants (see DESIGN.md, "The allocation-free hot path"):
//!
//! * the **lock order** (`lock_order`) is maintained *incrementally sorted*
//!   by location id at insert time, so [`lock_all`](WriteSet::lock_all)
//!   never allocates or sorts at commit;
//! * the spill **index** uses a multiplicative hash and generation-stamped
//!   slots, so [`clear`](WriteSet::clear) is O(1) and a cleared table keeps
//!   its capacity for the next attempt (and, via its
//!   [`scratch`](crate::scratch) spare, the next transaction);
//! * `clear` never frees: a warmed-up write set performs zero heap
//!   allocations per transaction attempt, and dropping it parks its
//!   spills and index for the thread's next one.

use crate::bloom::Bloom;
use crate::error::{Abort, AbortReason};
use crate::link::Loc;
use crate::scratch::{give_back_index, IndexTable, InlineLog};
use crate::vlock::{LockState, VLock};

/// Above this size, lookups go through the hash index instead of scanning.
const LINEAR_SCAN_MAX: usize = 16;

/// One buffered write.
#[derive(Debug, Clone, Copy)]
pub struct WriteEntry<'env> {
    /// The location to be written: a `TVar` or a link.
    pub loc: Loc<'env>,
    /// The value to install at commit (a link's payload).
    pub value: u64,
    /// If this transaction currently holds the location's lock, the raw
    /// word the lock carried when acquired (needed to validate reads of
    /// self-locked locations and to restore the word on abort).
    pub locked_at: Option<u64>,
}

/// The deferred-update write set.
///
/// Its entries and lock order are head-less `InlineLog`s, pooled
/// vectors (see [`scratch`](crate::scratch)): unlike the read set's, a
/// head of in-place writes measured slower end to end than spilling from
/// the first write, because every run, read-only ones included, pays for
/// filling it.
#[derive(Debug, Default)]
pub struct WriteSet<'env> {
    entries: InlineLog<WriteEntry<'env>, 0>,
    bloom: Bloom,
    /// Spill index, populated once the set outgrows the linear-scan
    /// threshold. Maps location id -> index in `entries`. Cleared in O(1)
    /// (generation bump), so its capacity survives across attempts.
    index: IndexTable,
    /// Entry indices sorted ascending by location id, maintained
    /// incrementally at insert time. Commit iterates this directly.
    lock_order: InlineLog<u32, 0>,
}

impl Drop for WriteSet<'_> {
    fn drop(&mut self) {
        give_back_index(&mut self.index);
    }
}

impl<'env> WriteSet<'env> {
    /// An empty write set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct locations to be written.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no writes are buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The bloom signature over written locations.
    #[must_use]
    pub fn bloom(&self) -> Bloom {
        self.bloom
    }

    fn position(&self, id: usize) -> Option<usize> {
        if self.entries.len() > LINEAR_SCAN_MAX {
            self.index.get(id).map(|p| p as usize)
        } else {
            self.entries.rposition(|e| e.loc.id() == id)
        }
    }

    /// Buffer a write of `value` to `loc`, overwriting any earlier buffered
    /// write to the same location. Returns the entry index.
    pub fn insert(&mut self, loc: Loc<'env>, value: u64) -> usize {
        let id = loc.id();
        if self.bloom.may_contain(id) {
            if let Some(i) = self.position(id) {
                self.entries[i].value = value;
                return i;
            }
        }
        self.bloom.insert(id);
        let i = self.entries.len();
        self.entries.push(WriteEntry {
            loc,
            value,
            locked_at: None,
        });
        // Keep the lock order sorted by id: binary search the insertion
        // point, then shift. The shift is a memmove of u32s — cheap for the
        // write-set sizes transactional workloads produce, and it makes
        // `lock_all` a straight iteration with no commit-time setup.
        let at = self
            .lock_order
            .partition_point(|&o| self.entries[o as usize].loc.id() < id);
        self.lock_order.insert(at, i as u32);
        if self.entries.len() > LINEAR_SCAN_MAX {
            if self.entries.len() == LINEAR_SCAN_MAX + 1 {
                // Just crossed the threshold: index everything so far.
                for (k, e) in self.entries.iter().enumerate() {
                    self.index.insert(e.loc.id(), k as u32);
                }
            } else {
                self.index.insert(id, i as u32);
            }
        }
        i
    }

    /// Index of the entry of the location `id`, if it has one. An empty
    /// set — every read of a read-only transaction, every validation of a
    /// read-only commit — answers before hashing; otherwise the bloom
    /// signature screens out most misses.
    #[inline]
    fn entry_of(&self, id: usize) -> Option<usize> {
        if self.entries.is_empty() {
            return None;
        }
        if !self.bloom.may_contain(id) {
            return None;
        }
        self.position(id)
    }

    /// Read-after-write lookup: the buffered value for `loc`, if any.
    #[inline]
    #[must_use]
    pub fn lookup(&self, loc: Loc<'_>) -> Option<u64> {
        self.entry_of(loc.id()).map(|i| self.entries[i].value)
    }

    /// The pre-lock word of the location `lock` protects if this write set
    /// holds its lock. Used by read-set validation for self-locked
    /// locations.
    #[inline]
    #[must_use]
    pub fn locked_version_of(&self, lock: &VLock) -> Option<u64> {
        self.entry_of(lock.id())
            .and_then(|i| self.entries[i].locked_at)
    }

    /// Iterate over entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &WriteEntry<'env>> {
        self.entries.iter()
    }

    /// Feed every buffered `(location id, value)` pair to `f`, in
    /// insertion order — the shape the commit tail
    /// ([`Attempt::publish`](crate::driver::Attempt::publish)) iterates.
    pub fn for_each_write(&self, f: &mut dyn FnMut(usize, u64)) {
        for e in self.entries.iter() {
            f(e.loc.id(), e.value);
        }
    }

    /// Acquire the lock of every entry for `owner`, in ascending location-id
    /// order so that concurrent committers cannot deadlock. On failure,
    /// releases everything acquired and reports a lock conflict.
    ///
    /// The acquisition order is the incrementally maintained `lock_order`,
    /// so this performs no allocation and no sorting.
    ///
    /// Entries already locked by `owner` (eager STMs, or a retryable commit)
    /// are skipped.
    pub fn lock_all(&mut self, owner: u64) -> Result<(), Abort> {
        for k in 0..self.lock_order.len() {
            let i = self.lock_order[k] as usize;
            let e = &mut self.entries[i];
            if e.locked_at.is_some() {
                continue;
            }
            let lock = e.loc.lock();
            match lock.load() {
                LockState::Unlocked { version } => {
                    if lock.try_lock_at(version, owner) {
                        e.locked_at = Some(version);
                        continue;
                    }
                }
                LockState::Locked { owner: o } if o == owner => {
                    // Locked by us through another alias; treat as held.
                    continue;
                }
                LockState::Locked { .. } => {}
            }
            // Conflict: roll back the locks acquired in this call.
            for k2 in 0..k {
                let j = self.lock_order[k2] as usize;
                let e = &mut self.entries[j];
                if let Some(v) = e.locked_at.take() {
                    e.loc.lock().unlock_to(v);
                }
            }
            return Err(Abort::new(AbortReason::LockConflict));
        }
        Ok(())
    }

    /// Write every buffered value back and release each lock at
    /// `commit_version` (a link publishes both in one store). Caller must
    /// have successfully called [`lock_all`](Self::lock_all) (or acquired
    /// the locks eagerly).
    pub fn write_back_and_release(&mut self, commit_version: u64) {
        for e in self.entries.iter_mut() {
            debug_assert!(e.locked_at.is_some(), "write-back without lock");
            e.loc.write_back(e.value, commit_version);
            e.locked_at = None;
        }
    }

    /// Release all locks *without* writing back, restoring pre-lock
    /// words. Used on abort after a partial or full lock acquisition.
    pub fn release_locks(&mut self) {
        for e in self.entries.iter_mut() {
            if let Some(v) = e.locked_at.take() {
                e.loc.lock().unlock_to(v);
            }
        }
    }

    /// Record that `loc`'s lock is held by this transaction, acquired when
    /// the lock carried the raw word `version` (eager/encounter-time
    /// locking STMs). A location with no buffered write gets its current
    /// value buffered.
    pub fn mark_locked(&mut self, loc: Loc<'env>, version: u64) {
        let i = match self.position(loc.id()) {
            Some(i) => i,
            None => self.insert(loc, loc.value_unsync()),
        };
        self.entries[i].locked_at = Some(version);
    }

    /// Forget everything (abort path, after `release_locks`). Keeps every
    /// buffer's capacity: clearing is O(len) for the entry vector and O(1)
    /// for the index, so a retry performs no fresh allocations.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.bloom.clear();
        self.index.clear();
        self.lock_order.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Link;
    use crate::tvar::TVar;

    #[test]
    fn insert_dedups_by_location() {
        let a = TVar::new(0u64);
        let mut ws = WriteSet::new();
        ws.insert(Loc::Var(a.core()), 1);
        ws.insert(Loc::Var(a.core()), 2);
        assert_eq!(ws.len(), 1);
        assert_eq!(ws.lookup(Loc::Var(a.core())), Some(2));
    }

    #[test]
    fn lookup_misses_unwritten() {
        let a = TVar::new(0u64);
        let b = TVar::new(0u64);
        let mut ws = WriteSet::new();
        ws.insert(Loc::Var(a.core()), 1);
        assert_eq!(ws.lookup(Loc::Var(b.core())), None);
    }

    #[test]
    fn empty_set_answers_none() {
        let a = TVar::new(0u64);
        let mut ws = WriteSet::new();
        assert_eq!(ws.lookup(Loc::Var(a.core())), None);
        assert_eq!(ws.locked_version_of(a.core().lock()), None);
        // Emptied, not just fresh: the shortcut keys on the entries.
        ws.insert(Loc::Var(a.core()), 1);
        ws.lock_all(5).unwrap();
        assert_eq!(ws.locked_version_of(a.core().lock()), Some(0));
        ws.release_locks();
        ws.clear();
        assert_eq!(ws.lookup(Loc::Var(a.core())), None);
        assert_eq!(ws.locked_version_of(a.core().lock()), None);
    }

    #[test]
    fn large_sets_switch_to_index_and_stay_correct() {
        let vars: Vec<TVar<u64>> = (0..100).map(TVar::new).collect();
        let mut ws = WriteSet::new();
        for (i, v) in vars.iter().enumerate() {
            ws.insert(Loc::Var(v.core()), i as u64);
        }
        assert_eq!(ws.len(), 100);
        for (i, v) in vars.iter().enumerate() {
            assert_eq!(ws.lookup(Loc::Var(v.core())), Some(i as u64));
        }
        // Overwrites after the index is built still dedup.
        ws.insert(Loc::Var(vars[7].core()), 999);
        assert_eq!(ws.len(), 100);
        assert_eq!(ws.lookup(Loc::Var(vars[7].core())), Some(999));
    }

    #[test]
    fn lock_order_is_sorted_by_id() {
        // Insert in (likely) unsorted address order — descending, and
        // alternately from either end so every insert lands mid-order —
        // and check the invariant the deadlock-freedom argument rests on.
        let vars: Vec<TVar<u64>> = (0..40).map(TVar::new).collect();
        let descending: Vec<usize> = (0..40).rev().collect();
        let zigzag: Vec<usize> = (0..40)
            .map(|k| if k % 2 == 0 { k / 2 } else { 39 - k / 2 })
            .collect();
        for order in [descending, zigzag] {
            let mut ws = WriteSet::new();
            for &k in &order {
                ws.insert(Loc::Var(vars[k].core()), 0);
            }
            let ids: Vec<usize> = ws
                .lock_order
                .iter()
                .map(|&o| ws.entries[o as usize].loc.id())
                .collect();
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            assert_eq!(ids, sorted, "lock order must be ascending by id");
            assert_eq!(ids.len(), 40);
        }
    }

    #[test]
    fn lock_all_then_write_back() {
        let a = TVar::new(0u64);
        let b = TVar::new(0u64);
        let mut ws = WriteSet::new();
        ws.insert(Loc::Var(a.core()), 10);
        ws.insert(Loc::Var(b.core()), 20);
        ws.lock_all(5).unwrap();
        assert!(a.core().lock().is_locked_by(5));
        ws.write_back_and_release(3);
        assert_eq!(a.load_atomic(), 10);
        assert_eq!(b.load_atomic(), 20);
        assert_eq!(a.core().read_consistent().unwrap().1, 3);
    }

    #[test]
    fn lock_all_conflict_rolls_back() {
        let a = TVar::new(0u64);
        let b = TVar::new(0u64);
        // Foreign lock on b.
        assert!(b.core().lock().try_lock_at(0, 99));
        let mut ws = WriteSet::new();
        ws.insert(Loc::Var(a.core()), 1);
        ws.insert(Loc::Var(b.core()), 2);
        let err = ws.lock_all(5).unwrap_err();
        assert_eq!(err.reason, AbortReason::LockConflict);
        // a must have been released back to version 0.
        assert_eq!(a.core().read_consistent().unwrap().1, 0);
        b.core().lock().unlock_to(0);
    }

    #[test]
    fn release_locks_restores_versions() {
        let a = TVar::new(0u64);
        a.store_atomic(5, 7);
        let mut ws = WriteSet::new();
        ws.insert(Loc::Var(a.core()), 1);
        ws.lock_all(5).unwrap();
        ws.release_locks();
        let (v, ver) = a.core().read_consistent().unwrap();
        assert_eq!((v, ver), (5, 7), "abort must not change value or version");
    }

    #[test]
    fn mark_locked_records_preversion() {
        let a = TVar::new(3u64);
        assert!(a.core().lock().try_lock_at(0, 8));
        let mut ws = WriteSet::new();
        ws.mark_locked(Loc::Var(a.core()), 0);
        assert_eq!(ws.locked_version_of(a.core().lock()), Some(0));
        ws.release_locks();
        assert_eq!(a.core().read_consistent().unwrap().1, 0);
    }

    #[test]
    fn clear_resets_everything() {
        let a = TVar::new(0u64);
        let mut ws = WriteSet::new();
        ws.insert(Loc::Var(a.core()), 1);
        ws.clear();
        assert!(ws.is_empty());
        assert_eq!(ws.lookup(Loc::Var(a.core())), None);
        assert!(ws.bloom().is_empty());
        assert!(ws.lock_order.is_empty());
    }

    #[test]
    fn clear_then_refill_crosses_threshold_again() {
        // The spill index is cleared by generation bump; a refill past the
        // threshold must rebuild it correctly with the recycled capacity.
        let vars: Vec<TVar<u64>> = (0..64).map(TVar::new).collect();
        let mut ws = WriteSet::new();
        for round in 0..3u64 {
            for (i, v) in vars.iter().enumerate() {
                ws.insert(Loc::Var(v.core()), round * 100 + i as u64);
            }
            for (i, v) in vars.iter().enumerate() {
                assert_eq!(ws.lookup(Loc::Var(v.core())), Some(round * 100 + i as u64));
            }
            ws.clear();
            assert_eq!(ws.lookup(Loc::Var(vars[0].core())), None);
        }
    }

    #[test]
    fn dropping_a_spilled_set_hands_its_buffers_to_the_next() {
        // On a thread of its own, so its spares start empty; the index's
        // hand-back is pinned in `scratch::tests`.
        std::thread::scope(|s| {
            s.spawn(|| {
                let vars: Vec<TVar<u64>> = (0..50).map(TVar::new).collect();
                let fill = || {
                    let mut ws = WriteSet::new();
                    for (i, v) in vars.iter().enumerate() {
                        ws.insert(Loc::Var(v.core()), i as u64);
                    }
                    ws
                };
                let last = |ws: &WriteSet<'_>| {
                    let order = &ws.lock_order[49] as *const u32 as usize;
                    let entry = &ws.entries[49] as *const WriteEntry<'_> as usize;
                    (entry, order)
                };
                let ws = fill();
                let spills = last(&ws);
                drop(ws);
                let ws = fill();
                assert_eq!(last(&ws), spills, "the spills came back");
                for (i, v) in vars.iter().enumerate() {
                    assert_eq!(ws.lookup(Loc::Var(v.core())), Some(i as u64));
                }
            })
            .join()
            .expect("test thread");
        });
    }

    #[test]
    fn links_lock_publish_and_restore_like_vars() {
        let (a, l) = (TVar::new(0u64), Link::new(3));
        let before = l.lock().raw();
        let mut ws = WriteSet::new();
        ws.insert(Loc::Var(a.core()), 1);
        ws.insert(Loc::Link(&l), 4);
        assert_eq!(ws.lookup(Loc::Link(&l)), Some(4));
        ws.lock_all(5).unwrap();
        assert!(l.lock().is_locked_by(5));
        assert_eq!(ws.locked_version_of(l.lock()), Some(before));
        // Abort: the link's whole word comes back.
        ws.release_locks();
        assert_eq!(l.lock().raw(), before);
        // Commit: payload and version land in one word.
        ws.lock_all(5).unwrap();
        let mut seen = Vec::new();
        ws.for_each_write(&mut |id, word| seen.push((id, word)));
        assert_eq!(seen, vec![(a.core().id(), 1), (l.id(), 4)]);
        ws.write_back_and_release(7);
        let (payload, raw) = l.read().unwrap();
        assert_eq!((payload, crate::link::version_bits(raw)), (4, 7));
        assert_eq!(a.core().read_consistent(), Ok((1, 7)));
    }
}
