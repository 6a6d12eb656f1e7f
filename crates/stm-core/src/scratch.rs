//! Reusable per-transaction scratch state — the allocation-free hot path.
//!
//! Every transaction attempt needs a read set, a write set and the write
//! set's commit bookkeeping (spill index, lock-acquisition order). Creating
//! these fresh per attempt puts a handful of heap allocations on the hot
//! path of every retry; TL2-style STMs instead *retain* the buffers and
//! clear them between attempts.
//!
//! Two layers of reuse:
//!
//! 1. **Across attempts** (same `Stm::run` call): the backend acquires one
//!    [`TxScratch`] per run and threads it through the retry loop; every
//!    buffer keeps its capacity, so a warmed-up retry performs zero heap
//!    allocations per attempt.
//! 2. **Across transactions** (same thread): every buffer returns to a
//!    thread-local pool when the scratch drops and is recycled by the next
//!    `run` call, so a warmed-up transaction never touches the allocator.
//!    The open-addressed [`IndexTable`] and the `u32` order/aux vectors
//!    are lifetime-free and pool as they are. The entry vectors hold
//!    `&'env TVarCore` borrows, so only their *allocations* are pooled:
//!    an emptied vector is re-typed to `'static` by [`recycle`] on the way
//!    in (no `unsafe`) and narrows to the next run's `'env` by plain
//!    covariance on the way out.
//!
//! The index replaces the old `std::collections::HashMap<usize, usize>`
//! spill index: open addressing with linear probing, a multiplicative hash
//! ([`bloom::hash_id`](crate::bloom::hash_id) — no SipHash), and
//! generation-stamped slots so clearing is O(1) and never frees.

use crate::bloom::hash_id;
use crate::readset::{ReadEntry, ReadSet};
use crate::writeset::{WriteEntry, WriteSet};
use std::cell::Cell;

/// One slot of the open-addressed index. `gen` stamps which clear-epoch the
/// slot was written in; a stale stamp means "empty".
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    gen: u64,
    id: usize,
    pos: u32,
}

/// An open-addressed `location id -> entry position` map for write-set
/// spill lookups. Insert-only between clears (write sets never remove
/// entries), linear probing, multiplicative hashing, O(1) clear.
#[derive(Debug)]
pub struct IndexTable {
    slots: Vec<Slot>,
    mask: usize,
    gen: u64,
    len: usize,
}

/// Initial slot count on first use (power of two).
const INDEX_MIN_SLOTS: usize = 64;

impl Default for IndexTable {
    fn default() -> Self {
        Self::new()
    }
}

impl IndexTable {
    /// An empty table. Allocates nothing until the first insert.
    #[must_use]
    pub fn new() -> Self {
        Self {
            slots: Vec::new(),
            mask: 0,
            gen: 1,
            len: 0,
        }
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entries are live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drop every entry in O(1) by bumping the generation stamp; capacity
    /// is retained.
    pub fn clear(&mut self) {
        self.gen += 1;
        self.len = 0;
    }

    /// Map `id` to `pos`, overwriting any previous mapping for `id`.
    pub fn insert(&mut self, id: usize, pos: u32) {
        if self.slots.is_empty() || (self.len + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let mut h = hash_id(id) as usize & self.mask;
        loop {
            let slot = &mut self.slots[h];
            if slot.gen != self.gen {
                *slot = Slot {
                    gen: self.gen,
                    id,
                    pos,
                };
                self.len += 1;
                return;
            }
            if slot.id == id {
                slot.pos = pos;
                return;
            }
            h = (h + 1) & self.mask;
        }
    }

    /// The position mapped to `id`, if any.
    #[inline]
    #[must_use]
    pub fn get(&self, id: usize) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let mut h = hash_id(id) as usize & self.mask;
        loop {
            let slot = &self.slots[h];
            if slot.gen != self.gen {
                return None;
            }
            if slot.id == id {
                return Some(slot.pos);
            }
            h = (h + 1) & self.mask;
        }
    }

    /// Double the slot array (or create it) and re-insert the live entries.
    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(INDEX_MIN_SLOTS);
        let old = core::mem::replace(&mut self.slots, vec![Slot::default(); new_cap]);
        let old_gen = self.gen;
        self.mask = new_cap - 1;
        // Fresh array: every slot has gen 0, so bump to a stamp that marks
        // them all empty and re-insert under it.
        self.gen += 1;
        self.len = 0;
        for s in old {
            if s.gen == old_gen {
                self.insert(s.id, s.pos);
            }
        }
    }
}

/// Re-type an emptied vector, keeping its allocation: how a vector of
/// `&'env` borrows outlives `'env` (as a `Vec<Entry<'static>>`) without
/// `unsafe`.
///
/// The hand-over is std's in-place `collect`: for a source and target of
/// identical size and alignment, `into_iter().map(..).collect()` reuses
/// the source allocation instead of making a new one. It is an
/// optimisation std documents but does not promise; without it this
/// returns a fresh empty vector — still correct, merely unpooled — and
/// `recycle_keeps_the_allocation` (here) and `tests/zero_alloc.rs` fail.
#[must_use]
pub fn recycle<T, U>(mut v: Vec<T>) -> Vec<U> {
    v.clear();
    v.into_iter()
        .map(|_| unreachable!("the vector was just cleared"))
        .collect()
}

/// Cap on the capacity of any pooled vector, bounding pooled memory (a
/// `WriteEntry` is 32 bytes, so 8192 entries = 256 KiB). A vector grown
/// past this by one outlier transaction is dropped instead of pinned in
/// thread-local storage forever.
const POOLED_CAP_MAX: usize = 8192;

/// Free `v`'s allocation if it outgrew [`POOLED_CAP_MAX`].
fn drop_outlier<T>(v: &mut Vec<T>) {
    if v.capacity() > POOLED_CAP_MAX {
        *v = Vec::new();
    }
}

/// A thread-local home for the allocation of one backend-specific
/// per-run vector (LSA's undo log, OE-STM's nesting frames), for
/// buffers the shared [`TxScratch`] does not carry. Declare it
/// lifetime-erased, [`take`](Self::take) the vector where a run first
/// needs it and [`put`](Self::put) it back when the run ends:
///
/// ```
/// use stm_core::scratch::SpareVec;
/// struct Entry<'env>(&'env u64);
/// thread_local! {
///     static SPARE: SpareVec<Entry<'static>> = const { SpareVec::new() };
/// }
/// let x = 7;
/// let mut log: Vec<Entry<'_>> = SPARE.with(SpareVec::take);
/// log.push(Entry(&x));
/// SPARE.with(|s| s.put(log));
/// ```
#[derive(Default)]
pub struct SpareVec<T>(Cell<Vec<T>>);

impl<T> SpareVec<T> {
    /// An empty home (for `thread_local!`'s `const` initialiser).
    #[must_use]
    pub const fn new() -> Self {
        Self(Cell::new(Vec::new()))
    }

    /// The parked vector — empty, with whatever capacity was last put
    /// back; a nested taker gets a fresh, unallocated one.
    #[must_use]
    pub fn take(&self) -> Vec<T> {
        self.0.take()
    }

    /// Park `v`'s allocation (its elements are dropped). `U` is `T` at
    /// another lifetime; see [`recycle`].
    pub fn put<U>(&self, mut v: Vec<U>) {
        drop_outlier(&mut v);
        self.0.set(recycle(v));
    }
}

/// The buffers recycled across transactions through the thread-local
/// pool. The entry vectors are always empty here; see [`recycle`].
#[derive(Debug, Default)]
struct ScratchParts {
    index: IndexTable,
    lock_order: Vec<u32>,
    aux: Vec<usize>,
    reads: Vec<ReadEntry<'static>>,
    writes: Vec<WriteEntry<'static>>,
}

/// Cap on the pooled index table's slot count (~24 bytes/slot, so 32 Ki
/// slots ≈ 768 KiB). A table grown past this by one outlier transaction is
/// dropped instead of pinned in thread-local storage forever.
const INDEX_SLOTS_MAX: usize = 1 << 15;

impl ScratchParts {
    /// Drop any buffer an outlier transaction grew past the pool bounds,
    /// so the thread-local slot stays a bounded cache rather than a
    /// high-water-mark pin.
    fn enforce_bounds(&mut self) {
        if self.index.slots.len() > INDEX_SLOTS_MAX {
            self.index = IndexTable::new();
        }
        drop_outlier(&mut self.lock_order);
        drop_outlier(&mut self.aux);
        drop_outlier(&mut self.reads);
        drop_outlier(&mut self.writes);
    }
}

thread_local! {
    /// Per-thread single-slot pool. `acquire`/`drop` sit on the hot path of
    /// *every* transaction, so the pool is a bare `Cell` holding one boxed
    /// parts bundle: taking and restoring it is pointer-sized TLS traffic
    /// with no `RefCell` bookkeeping and no re-boxing (the box itself is
    /// recycled). One slot suffices — a thread runs one transaction at a
    /// time; the rare nested `run` call simply starts cold.
    static POOL: Cell<Option<Box<ScratchParts>>> = const { Cell::new(None) };
}

/// The reusable per-run transaction scratch: a read set, a write set and a
/// general-purpose `usize` buffer (used e.g. for SwissTM's held write-lock
/// slots). Acquire once per `Stm::try_run`, [`reset`](TxScratch::reset)
/// between attempts; dropping it returns the lifetime-free buffers to the
/// thread-local pool.
#[derive(Debug)]
pub struct TxScratch<'env> {
    /// The attempt's read set.
    pub reads: ReadSet<'env>,
    /// The attempt's write set (owns the pooled index and lock order).
    pub writes: WriteSet<'env>,
    /// Backend-specific `usize` buffer (pooled).
    pub aux: Vec<usize>,
    /// The recycled pool box, kept so `drop` can refill it without
    /// allocating. `None` when this scratch started cold (nested run).
    pool_box: Option<Box<ScratchParts>>,
}

impl<'env> TxScratch<'env> {
    /// Take a scratch from the thread-local pool (or create a fresh one).
    #[must_use]
    pub fn acquire() -> Self {
        let mut pool_box = POOL.with(Cell::take);
        let parts = pool_box
            .as_mut()
            .map(|b| core::mem::take(&mut **b))
            .unwrap_or_default();
        let mut aux = parts.aux;
        aux.clear();
        Self {
            reads: ReadSet::from_entries(parts.reads),
            writes: WriteSet::from_parts(parts.index, parts.lock_order, parts.writes),
            aux,
            pool_box,
        }
    }

    /// Clear every buffer, retaining capacity. Call at attempt begin.
    pub fn reset(&mut self) {
        self.reads.clear();
        self.writes.clear();
        self.aux.clear();
    }
}

impl Drop for TxScratch<'_> {
    fn drop(&mut self) {
        let (index, lock_order, writes) = self.writes.take_parts();
        let mut parts = ScratchParts {
            index,
            lock_order,
            aux: core::mem::take(&mut self.aux),
            reads: recycle(self.reads.take_entries()),
            writes: recycle(writes),
        };
        parts.enforce_bounds();
        match self.pool_box.take() {
            Some(mut b) => {
                *b = parts;
                POOL.with(|pool| pool.set(Some(b)));
            }
            None => {
                // Cold (nested) scratch: only adopt the slot if it is
                // still empty, so an outer transaction's warmer parts are
                // not displaced.
                POOL.with(|pool| {
                    let current = pool.take();
                    pool.set(Some(current.unwrap_or_else(|| Box::new(parts))));
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tvar::TVar;

    #[test]
    fn index_roundtrips_many_ids() {
        let mut t = IndexTable::new();
        for i in 0..1000usize {
            t.insert(0x1000 + i * 16, i as u32);
        }
        assert_eq!(t.len(), 1000);
        for i in 0..1000usize {
            assert_eq!(t.get(0x1000 + i * 16), Some(i as u32));
        }
        assert_eq!(t.get(0x1000 + 1000 * 16), None);
    }

    #[test]
    fn index_insert_overwrites() {
        let mut t = IndexTable::new();
        t.insert(0x40, 1);
        t.insert(0x40, 2);
        assert_eq!(t.get(0x40), Some(2));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn index_clear_is_cheap_and_keeps_capacity() {
        let mut t = IndexTable::new();
        for i in 0..100usize {
            t.insert(i * 16, i as u32);
        }
        let slots = t.slots.len();
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.get(16), None);
        assert_eq!(t.slots.len(), slots, "clear must not free");
        // Reuse after clear works.
        t.insert(16, 9);
        assert_eq!(t.get(16), Some(9));
    }

    #[test]
    fn index_survives_many_generations() {
        let mut t = IndexTable::new();
        for round in 0..50u32 {
            for i in 0..40usize {
                t.insert(i * 16, round);
            }
            for i in 0..40usize {
                assert_eq!(t.get(i * 16), Some(round));
            }
            t.clear();
        }
    }

    #[test]
    fn scratch_reset_clears_state() {
        let a = TVar::new(1u64);
        let mut s = TxScratch::acquire();
        s.reads.push(a.core(), 0);
        s.writes.insert(a.core(), 5);
        s.aux.push(3);
        s.reset();
        assert!(s.reads.is_empty());
        assert!(s.writes.is_empty());
        assert!(s.aux.is_empty());
        assert_eq!(s.writes.lookup(a.core()), None);
    }

    #[test]
    fn pool_recycles_lock_order_capacity() {
        // Fill a scratch with a large write set, drop it, and check the
        // next acquire on this thread starts with the recycled capacity.
        let vars: Vec<TVar<u64>> = (0..200).map(TVar::new).collect();
        {
            let mut s = TxScratch::acquire();
            for (i, v) in vars.iter().enumerate() {
                s.writes.insert(v.core(), i as u64);
            }
        }
        let s = TxScratch::acquire();
        // The pooled index table has grown past the default minimum.
        assert!(s.writes.is_empty(), "recycled scratch must start out empty");
        drop(s);
    }

    #[test]
    fn pool_bounds_drop_outlier_buffers() {
        // Buffers grown past the pool bounds by one outlier transaction
        // must not be pinned in thread-local storage.
        let mut parts = ScratchParts::default();
        for i in 0..(INDEX_SLOTS_MAX + 1) {
            parts.index.insert(i * 16, 0);
        }
        parts.lock_order.reserve(POOLED_CAP_MAX + 1);
        parts.reads.reserve(POOLED_CAP_MAX + 1);
        parts.writes.reserve(POOLED_CAP_MAX + 1);
        parts.aux = Vec::with_capacity(4);
        parts.enforce_bounds();
        assert!(parts.index.is_empty() && parts.index.slots.is_empty());
        assert_eq!(parts.lock_order.capacity(), 0);
        assert_eq!(parts.reads.capacity(), 0);
        assert_eq!(parts.writes.capacity(), 0);
        assert!(parts.aux.capacity() >= 4, "in-bounds buffers survive");

        // The same through the pool: an outlier read set is gone at the
        // next acquire, an ordinary one is not.
        let var = TVar::new(0u64);
        for (reads, pooled) in [(POOLED_CAP_MAX + 1, false), (POOLED_CAP_MAX / 2, true)] {
            let mut s = TxScratch::acquire();
            for _ in 0..reads {
                s.reads.push(var.core(), 0);
            }
            drop(s);
            let cap = TxScratch::acquire().reads.capacity();
            assert_eq!(cap >= reads, pooled, "{reads} reads left capacity {cap}");
        }
    }

    #[test]
    fn recycle_keeps_the_allocation() {
        // The std in-place-collect dependency, pinned: the re-typed vector
        // is the same allocation.
        let var = TVar::new(0u64);
        let mut v: Vec<ReadEntry<'_>> = Vec::with_capacity(100);
        v.push(ReadEntry {
            core: var.core(),
            version: 0,
        });
        let (ptr, cap) = (v.as_ptr() as usize, v.capacity());
        let w: Vec<ReadEntry<'static>> = recycle(v);
        assert!(w.is_empty());
        assert_eq!((w.as_ptr() as usize, w.capacity()), (ptr, cap));
    }

    /// Where a filled scratch's two entry vectors live.
    fn first_entries(s: &TxScratch<'_>) -> (usize, usize) {
        let read = s.reads.iter().next().expect("filled") as *const ReadEntry<'_>;
        let write = s.writes.iter().next().expect("filled") as *const WriteEntry<'_>;
        (read as usize, write as usize)
    }

    #[test]
    fn pool_recycles_entry_vectors() {
        // The entry vectors' allocations survive the pool: the next
        // acquire on this thread — under another `'env` — gets the very
        // same buffers back, empty.
        let (reads_ptr, writes_ptr) = {
            let vars: Vec<TVar<u64>> = (0..300).map(TVar::new).collect();
            let mut s = TxScratch::acquire();
            for v in &vars {
                s.reads.push(v.core(), 0);
                s.writes.insert(v.core(), 1);
            }
            first_entries(&s)
        };
        let vars: Vec<TVar<u64>> = (0..300).map(TVar::new).collect();
        let mut s = TxScratch::acquire();
        assert!(s.reads.is_empty() && s.writes.is_empty());
        assert!(s.reads.capacity() >= 300);
        for v in &vars {
            s.reads.push(v.core(), 0);
            s.writes.insert(v.core(), 1);
        }
        assert_eq!(
            first_entries(&s),
            (reads_ptr, writes_ptr),
            "refilling to the same size must not have reallocated"
        );
    }

    #[test]
    fn spare_vec_parks_one_allocation() {
        thread_local! {
            static SPARE: SpareVec<ReadEntry<'static>> = const { SpareVec::new() };
        }
        let var = TVar::new(0u64);
        let mut v: Vec<ReadEntry<'_>> = SPARE.with(SpareVec::take);
        assert_eq!(v.capacity(), 0, "nothing parked yet");
        v.push(ReadEntry {
            core: var.core(),
            version: 0,
        });
        let ptr = v.as_ptr() as usize;
        let nested: Vec<ReadEntry<'_>> = SPARE.with(SpareVec::take);
        assert_eq!(nested.capacity(), 0, "a nested taker starts cold");
        SPARE.with(|s| s.put(v));
        let v: Vec<ReadEntry<'_>> = SPARE.with(SpareVec::take);
        assert!(v.is_empty());
        assert_eq!(v.as_ptr() as usize, ptr);
        SPARE.with(|s| s.put(Vec::<ReadEntry<'_>>::with_capacity(POOLED_CAP_MAX + 1)));
        assert_eq!(
            SPARE.with(SpareVec::take).capacity(),
            0,
            "outliers are freed"
        );
    }

    #[test]
    fn nested_acquires_are_independent() {
        let a = TVar::new(1u64);
        let mut outer = TxScratch::acquire();
        outer.writes.insert(a.core(), 1);
        {
            let mut inner = TxScratch::acquire();
            assert!(inner.writes.is_empty());
            inner.writes.insert(a.core(), 2);
            assert_eq!(inner.writes.lookup(a.core()), Some(2));
        }
        assert_eq!(outer.writes.lookup(a.core()), Some(1));
    }
}
