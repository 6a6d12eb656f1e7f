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
//! 1. **Across attempts** (same `Stm::run` call): the backend builds one
//!    [`TxScratch`] per run and threads it through the retry loop; every
//!    buffer keeps its capacity, so a warmed-up retry performs zero heap
//!    allocations per attempt.
//! 2. **Across transactions** (same thread): each buffer has its own
//!    thread-local spare allocation, a [`SpareVec`] (an [`IndexTable`]
//!    for the spill index). A buffer fetches its spare on its own cold
//!    grow path, the first time it grows from capacity 0, and
//!    [`TxScratch`]'s `drop` hands back each buffer that holds an
//!    allocation. So a run pays only for the buffers it touches: a
//!    read-only run moves the read-entry vector and nothing else, an empty
//!    run no buffer at all. The entry vectors hold `&'env TVarCore`
//!    borrows, so only their *allocations* are parked: an emptied vector
//!    is re-typed to `'static` by [`recycle`] on the way in (no `unsafe`)
//!    and narrows to the next run's `'env` by plain covariance on the way
//!    out.
//!
//! The index replaces the old `std::collections::HashMap<usize, usize>`
//! spill index: open addressing with linear probing, a multiplicative hash
//! ([`bloom::hash_id`](crate::bloom::hash_id) — no SipHash), and
//! generation-stamped slots so clearing is O(1) and never frees.

use crate::bloom::hash_id;
use crate::readset::{ReadEntry, ReadSet};
use crate::writeset::{WriteEntry, WriteSet};
use std::cell::Cell;
use std::thread::LocalKey;

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
    pub const fn new() -> Self {
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

    /// Double the slot array and re-insert the live entries. A table with
    /// no slots first adopts the thread's spare, cleared, if there is one.
    fn grow(&mut self) {
        if self.slots.is_empty() {
            let spare = INDEX_SPARE.with(Cell::take);
            if !spare.slots.is_empty() {
                *self = spare;
                self.clear();
                return;
            }
        }
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

/// Cap on the capacity of any parked vector, bounding parked memory (a
/// `WriteEntry` is 32 bytes, so 8192 entries = 256 KiB). A vector grown
/// past this by one outlier transaction is freed instead of pinned in
/// thread-local storage forever.
const POOLED_CAP_MAX: usize = 8192;

/// Cap on the parked index table's slot count (~24 bytes/slot, so 32 Ki
/// slots ≈ 768 KiB), for the same reason.
const INDEX_SLOTS_MAX: usize = 1 << 15;

/// A thread-local home for the allocation of one per-run vector. Declare
/// it lifetime-erased, [`take`](Self::take) the vector where a run first
/// grows it and hand it back with [`give_back`] when the run ends:
///
/// ```
/// use stm_core::scratch::{give_back, SpareVec};
/// struct Entry<'env>(&'env u64);
/// thread_local! {
///     static SPARE: SpareVec<Entry<'static>> = const { SpareVec::new() };
/// }
/// let x = 7;
/// let mut log: Vec<Entry<'_>> = SPARE.with(SpareVec::take);
/// log.push(Entry(&x));
/// give_back(&SPARE, log);
/// ```
///
/// Every buffer of [`TxScratch`], LSA's undo log and OE-STM's frame stack
/// are pooled this way.
#[derive(Default)]
pub struct SpareVec<T>(Cell<Vec<T>>);

impl<T> SpareVec<T> {
    /// An empty home (for `thread_local!`'s `const` initialiser).
    #[must_use]
    pub const fn new() -> Self {
        Self(Cell::new(Vec::new()))
    }

    /// The parked vector — empty, with whatever capacity was last handed
    /// back; a nested taker gets a fresh, unallocated one.
    #[must_use]
    pub fn take(&self) -> Vec<T> {
        self.0.take()
    }
}

/// Park `v`'s allocation in `spare` (its elements are dropped), replacing
/// whatever is parked there — unless it has none, so a buffer the run
/// never grew costs no thread-local access, or it outgrew the cap. The
/// last hand-back wins: after a nested run the outer run's buffers are
/// the parked ones. `U` is `T` at another lifetime; see [`recycle`].
pub fn give_back<T: 'static, U>(spare: &'static LocalKey<SpareVec<T>>, v: Vec<U>) {
    if v.capacity() != 0 && v.capacity() <= POOLED_CAP_MAX {
        spare.with(|s| s.0.set(recycle(v)));
    }
}

thread_local! {
    /// The read set's entry allocation between runs.
    pub(crate) static READ_SPARE: SpareVec<ReadEntry<'static>> = const { SpareVec::new() };
    /// The write set's entry allocation between runs.
    pub(crate) static WRITE_SPARE: SpareVec<WriteEntry<'static>> = const { SpareVec::new() };
    /// The write set's lock-order allocation between runs.
    pub(crate) static ORDER_SPARE: SpareVec<u32> = const { SpareVec::new() };
    /// [`TxScratch::aux`]'s allocation between runs.
    static AUX_SPARE: SpareVec<usize> = const { SpareVec::new() };
    /// The write set's spill index between runs.
    static INDEX_SPARE: Cell<IndexTable> = const { Cell::new(IndexTable::new()) };
}

/// The reusable per-run transaction scratch: a read set, a write set and a
/// general-purpose `usize` buffer (used e.g. for SwissTM's held write-lock
/// slots). Build once per `Stm::try_run`, [`reset`](TxScratch::reset)
/// between attempts; each buffer fetches its thread-local spare when it
/// first grows, and dropping the scratch hands back every buffer that
/// holds an allocation.
#[derive(Debug, Default)]
pub struct TxScratch<'env> {
    /// The attempt's read set.
    pub reads: ReadSet<'env>,
    /// The attempt's write set (owns the spill index and lock order).
    pub writes: WriteSet<'env>,
    /// Backend-specific `usize` buffer; grow it through
    /// [`push_aux`](Self::push_aux).
    pub aux: Vec<usize>,
}

impl TxScratch<'_> {
    /// An empty scratch. Allocates nothing and touches no thread-local.
    #[must_use]
    pub fn acquire() -> Self {
        Self::default()
    }

    /// Clear every buffer, retaining capacity. Call at attempt begin.
    pub fn reset(&mut self) {
        self.reads.clear();
        self.writes.clear();
        self.aux.clear();
    }

    /// Append `x` to [`aux`](Self::aux), fetching the thread's spare
    /// allocation at the run's first push.
    #[inline]
    pub fn push_aux(&mut self, x: usize) {
        if self.aux.capacity() == 0 {
            self.aux = AUX_SPARE.with(SpareVec::take);
        }
        self.aux.push(x);
    }
}

impl Drop for TxScratch<'_> {
    fn drop(&mut self) {
        give_back(&READ_SPARE, self.reads.take_entries());
        let (index, lock_order, writes) = self.writes.take_parts();
        give_back(&WRITE_SPARE, writes);
        give_back(&ORDER_SPARE, lock_order);
        give_back(&AUX_SPARE, core::mem::take(&mut self.aux));
        give_back_index(index);
    }
}

/// [`give_back`] for the spill index: park `index` unless it has no slots
/// or outgrew the cap.
fn give_back_index(index: IndexTable) {
    if !index.slots.is_empty() && index.slots.len() <= INDEX_SLOTS_MAX {
        INDEX_SPARE.with(|s| s.set(index));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Loc;
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
        s.reads.push(Loc::Var(a.core()), 0);
        s.writes.insert(Loc::Var(a.core()), 5);
        s.push_aux(3);
        s.reset();
        assert!(s.reads.is_empty());
        assert!(s.writes.is_empty());
        assert!(s.aux.is_empty());
        assert_eq!(s.writes.lookup(Loc::Var(a.core())), None);
    }

    #[test]
    fn recycle_keeps_the_allocation() {
        // The std in-place-collect dependency, pinned: the re-typed vector
        // is the same allocation.
        let var = TVar::new(0u64);
        let mut v: Vec<ReadEntry<'_>> = Vec::with_capacity(100);
        v.push(ReadEntry {
            lock: var.core().lock(),
            seen: 0,
        });
        let (ptr, cap) = (v.as_ptr() as usize, v.capacity());
        let w: Vec<ReadEntry<'static>> = recycle(v);
        assert!(w.is_empty());
        assert_eq!((w.as_ptr() as usize, w.capacity()), (ptr, cap));
    }

    /// Run `f` on a thread of its own, so it starts with empty spares
    /// whatever the test harness ran before on the calling thread.
    fn on_fresh_thread(f: impl FnOnce() + Send) {
        std::thread::scope(|s| {
            s.spawn(f).join().expect("test thread");
        });
    }

    /// What each spare holds, as the address of its allocation (0: none),
    /// in the order reads, writes, lock order, aux, index.
    fn parked() -> [usize; 5] {
        fn addr<T: 'static>(spare: &'static LocalKey<SpareVec<T>>) -> usize {
            spare.with(|s| {
                let v = s.take();
                let a = if v.capacity() == 0 {
                    0
                } else {
                    v.as_ptr() as usize
                };
                s.0.set(v);
                a
            })
        }
        let index = INDEX_SPARE.with(|s| {
            let t = s.take();
            let a = if t.slots.is_empty() {
                0
            } else {
                t.slots.as_ptr() as usize
            };
            s.set(t);
            a
        });
        [
            addr(&READ_SPARE),
            addr(&WRITE_SPARE),
            addr(&ORDER_SPARE),
            addr(&AUX_SPARE),
            index,
        ]
    }

    /// Fill every spare: one run that touches every buffer, the write set
    /// past its linear-scan threshold so the index engages.
    fn warm_every_spare() -> [usize; 5] {
        let vars: Vec<TVar<u64>> = (0..40).map(TVar::new).collect();
        let mut s = TxScratch::acquire();
        for v in &vars {
            s.reads.push(Loc::Var(v.core()), 0);
            s.writes.insert(Loc::Var(v.core()), 1);
        }
        s.push_aux(1);
        drop(s);
        let warm = parked();
        assert!(warm.iter().all(|&a| a != 0), "every spare filled: {warm:?}");
        warm
    }

    #[test]
    fn a_read_only_run_moves_only_the_read_entry_spare() {
        on_fresh_thread(|| {
            let warm = warm_every_spare();
            let var = TVar::new(0u64);
            let mut s = TxScratch::acquire();
            assert_eq!(parked(), warm, "acquire touches no spare");
            s.reads.push(Loc::Var(var.core()), 0);
            assert_eq!(parked(), [0, warm[1], warm[2], warm[3], warm[4]]);
            drop(s);
            assert_eq!(parked(), warm, "the same allocation came back");
            drop(TxScratch::acquire());
            assert_eq!(parked(), warm, "an empty run moves nothing");
        });
    }

    #[test]
    fn a_write_fetches_the_write_entry_and_lock_order_spares() {
        on_fresh_thread(|| {
            let warm = warm_every_spare();
            let var = TVar::new(0u64);
            let mut s = TxScratch::acquire();
            s.writes.insert(Loc::Var(var.core()), 1);
            assert_eq!(parked(), [warm[0], 0, 0, warm[3], warm[4]]);
            assert_eq!(s.writes.lookup(Loc::Var(var.core())), Some(1));
            drop(s);
            assert_eq!(parked(), warm);
        });
    }

    #[test]
    fn the_index_spare_comes_back_only_once_a_set_outgrew_the_scan() {
        on_fresh_thread(|| {
            let vars: Vec<TVar<u64>> = (0..17).map(TVar::new).collect();
            let mut s = TxScratch::acquire();
            for v in &vars[..16] {
                s.writes.insert(Loc::Var(v.core()), 0);
            }
            drop(s);
            assert_eq!(parked()[4], 0, "16 writes are scanned, never indexed");
            let mut s = TxScratch::acquire();
            for v in &vars {
                s.writes.insert(Loc::Var(v.core()), 0);
            }
            drop(s);
            let index = parked()[4];
            assert_ne!(index, 0, "the 17th write built the index");
            let mut s = TxScratch::acquire();
            for (i, v) in vars.iter().enumerate() {
                s.writes.insert(Loc::Var(v.core()), i as u64);
            }
            assert_eq!(parked()[4], 0, "the index adopted its spare");
            assert_eq!(s.writes.lookup(Loc::Var(vars[16].core())), Some(16));
            drop(s);
            assert_eq!(parked()[4], index, "the same slots came back");
        });
    }

    #[test]
    fn outliers_past_the_caps_are_freed() {
        on_fresh_thread(|| {
            let warm = warm_every_spare();
            let var = TVar::new(0u64);
            let mut s = TxScratch::acquire();
            for _ in 0..=POOLED_CAP_MAX {
                s.reads.push(Loc::Var(var.core()), 0);
            }
            drop(s);
            assert_eq!(parked(), [0, warm[1], warm[2], warm[3], warm[4]]);
            let mut outlier = INDEX_SPARE.with(Cell::take);
            for i in 0..INDEX_SLOTS_MAX {
                outlier.insert(i * 16, 0);
            }
            assert!(outlier.slots.len() > INDEX_SLOTS_MAX);
            give_back_index(outlier);
            assert_eq!(parked()[4], 0, "an outlier index is not parked");
        });
    }

    #[test]
    fn a_nested_run_starts_cold_and_the_outer_runs_buffers_win() {
        on_fresh_thread(|| {
            let warm = warm_every_spare();
            let var = TVar::new(0u64);
            let mut outer = TxScratch::acquire();
            outer.reads.push(Loc::Var(var.core()), 0);
            {
                let mut inner = TxScratch::acquire();
                inner.reads.push(Loc::Var(var.core()), 1);
                let cold = inner.reads.iter().next().expect("pushed") as *const _ as usize;
                assert_ne!(cold, warm[0], "the outer run holds the spare");
            }
            assert_ne!(parked()[0], 0, "the inner run handed its buffer back");
            assert_ne!(parked()[0], warm[0]);
            drop(outer);
            assert_eq!(parked()[0], warm[0], "the outer run's buffer wins");
        });
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
            lock: var.core().lock(),
            seen: 0,
        });
        let ptr = v.as_ptr() as usize;
        let nested: Vec<ReadEntry<'_>> = SPARE.with(SpareVec::take);
        assert_eq!(nested.capacity(), 0, "a nested taker starts cold");
        give_back(&SPARE, v);
        let v: Vec<ReadEntry<'_>> = SPARE.with(SpareVec::take);
        assert!(v.is_empty());
        assert_eq!(v.as_ptr() as usize, ptr);
        give_back(
            &SPARE,
            Vec::<ReadEntry<'_>>::with_capacity(POOLED_CAP_MAX + 1),
        );
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
        outer.writes.insert(Loc::Var(a.core()), 1);
        {
            let mut inner = TxScratch::acquire();
            assert!(inner.writes.is_empty());
            inner.writes.insert(Loc::Var(a.core()), 2);
            assert_eq!(inner.writes.lookup(Loc::Var(a.core())), Some(2));
        }
        assert_eq!(outer.writes.lookup(Loc::Var(a.core())), Some(1));
    }
}
