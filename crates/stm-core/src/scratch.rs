//! Reusable per-transaction scratch state — the allocation-free hot path.
//!
//! Every transaction attempt needs a read set, a write set and the write
//! set's commit bookkeeping (spill index, lock-acquisition order). Creating
//! these fresh per attempt puts a handful of heap allocations on the hot
//! path of every retry; TL2-style STMs instead *retain* the buffers and
//! clear them between attempts, and keep short logs in place.
//!
//! Three layers of reuse:
//!
//! 1. **In place** (small transactions): the read set's entries are an
//!    `InlineLog`, whose first [`HEAD`] entries sit in a fixed array
//!    inside the log. A run of at most `HEAD` reads — every single-key
//!    `txkv` operation — logs them without a growth call and without
//!    touching a thread-local. The head's unused slots hold
//!    `Pooled::vacant`, an entry naming a `static` location that no
//!    transaction reads or writes. The write set's entries and lock order
//!    are head-less `InlineLog`s (`N = 0`): filling a head costs every
//!    run, read-only ones included, and a write head measured slower end
//!    to end than spilling from the first write.
//! 2. **Across attempts** (same `Stm::run` call): the backend builds one
//!    [`TxScratch`] per run and threads it through the retry loop; every
//!    buffer keeps its capacity, so a warmed-up retry performs zero heap
//!    allocations per attempt.
//! 3. **Across transactions** (same thread): past its head a log spills
//!    to a vector whose allocation has a thread-local home, a
//!    [`SpareVec`] (an [`IndexTable`] for the write set's spill index).
//!    A log fetches its spare on its own cold path, when it first spills,
//!    and dropping it hands back a spill that holds an allocation. So a
//!    run pays only for what outgrows a head: its `HEAD + 1`th read moves
//!    the read-entry spare and nothing else, its first write the
//!    write-entry and lock-order spares. The spills hold `&'env TVarCore`
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
use crate::link::Loc;
use crate::readset::{ReadEntry, ReadSet};
use crate::tvar::TVarCore;
use crate::writeset::{WriteEntry, WriteSet};
use core::fmt;
use core::ops::{Index, IndexMut};
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
/// `WriteEntry` is 40 bytes, so 8192 entries = 320 KiB). A vector grown
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
/// Every `InlineLog`'s spill, LSA's undo log, OE-STM's frame stack and
/// SwissTM's held write-lock slots are pooled this way.
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
    /// The read set's entry spill between runs.
    static READ_SPARE: SpareVec<ReadEntry<'static>> = const { SpareVec::new() };
    /// The write set's entry spill between runs.
    static WRITE_SPARE: SpareVec<WriteEntry<'static>> = const { SpareVec::new() };
    /// The write set's lock-order spill between runs.
    static ORDER_SPARE: SpareVec<u32> = const { SpareVec::new() };
    /// The write set's spill index between runs.
    static INDEX_SPARE: Cell<IndexTable> = const { Cell::new(IndexTable::new()) };
}

/// Entries an `InlineLog` keeps in place before it spills, unless it
/// names another `N`: the read set's head.
pub const HEAD: usize = 4;

/// What an `InlineLog` can hold: a plain entry with a filler for the
/// head's unused slots and a thread-local home for the spill's
/// allocation.
pub(crate) trait Pooled: Copy {
    /// The filler of an unused head slot. It is never read as an entry.
    fn vacant() -> Self;
    /// The thread's parked spill allocation (see [`SpareVec::take`]).
    fn take_spare() -> Vec<Self>;
    /// Park a spill's allocation when its log is dropped (see
    /// [`give_back`]).
    fn give_back(spill: Vec<Self>);
}

/// The location a vacant entry, or a short operation's unused row,
/// names; nothing reads or writes it.
pub(crate) static VACANT: TVarCore = TVarCore::new(0);

impl Pooled for ReadEntry<'_> {
    #[inline]
    fn vacant() -> Self {
        ReadEntry {
            lock: VACANT.lock(),
            seen: 0,
        }
    }

    fn take_spare() -> Vec<Self> {
        READ_SPARE.with(SpareVec::take)
    }

    fn give_back(spill: Vec<Self>) {
        give_back(&READ_SPARE, spill);
    }
}

impl Pooled for WriteEntry<'_> {
    #[inline]
    fn vacant() -> Self {
        WriteEntry {
            loc: Loc::Var(&VACANT),
            value: 0,
            locked_at: None,
        }
    }

    fn take_spare() -> Vec<Self> {
        WRITE_SPARE.with(SpareVec::take)
    }

    fn give_back(spill: Vec<Self>) {
        give_back(&WRITE_SPARE, spill);
    }
}

/// A write set's lock order: entry positions.
impl Pooled for u32 {
    #[inline]
    fn vacant() -> Self {
        0
    }

    fn take_spare() -> Vec<Self> {
        ORDER_SPARE.with(SpareVec::take)
    }

    fn give_back(spill: Vec<Self>) {
        give_back(&ORDER_SPARE, spill);
    }
}

/// A log whose first `N` entries ([`HEAD`] unless named) sit in place and
/// the rest in a pooled spill vector: entry `i` is `head[i]` below `N`
/// and `spill[i - N]` from there on; with `N = 0` it is a pooled vector.
/// The spill fetches the thread's spare allocation the first time it
/// grows and hands it back when the log is dropped; a log that never
/// spilled touches neither.
pub(crate) struct InlineLog<T: Pooled, const N: usize = HEAD> {
    /// Live entries, head and spill together.
    len: usize,
    head: [T; N],
    /// Entries past the head: `len - N` of them once `len > N`.
    spill: Vec<T>,
}

impl<T: Pooled, const N: usize> Default for InlineLog<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Pooled, const N: usize> InlineLog<T, N> {
    /// An empty log. Allocates nothing and touches no thread-local.
    #[inline]
    #[must_use]
    pub fn new() -> Self {
        Self {
            len: 0,
            head: [T::vacant(); N],
            spill: Vec::new(),
        }
    }

    /// Number of entries.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the log holds no entries.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append `x`.
    #[inline]
    pub fn push(&mut self, x: T) {
        if self.len < N {
            self.head[self.len] = x;
        } else {
            self.reserve_spill();
            self.spill.push(x);
        }
        self.len += 1;
    }

    /// Append `x` if the log has room for it without growing; `false`
    /// (nothing appended) otherwise. For inlined heads, which leave growth
    /// to their out-of-line tail.
    #[inline]
    pub fn try_push(&mut self, x: T) -> bool {
        if self.len < N {
            self.head[self.len] = x;
        } else if self.spill.len() < self.spill.capacity() {
            self.spill.push(x);
        } else {
            return false;
        }
        self.len += 1;
        true
    }

    /// Insert `x` at position `at`, shifting the entries from `at` on one
    /// place up: the last head entry moves to the front of the spill.
    ///
    /// # Panics
    /// If `at > len`.
    pub fn insert(&mut self, at: usize, x: T) {
        assert!(at <= self.len, "insert at {at} past the end {}", self.len);
        if at >= N {
            self.reserve_spill();
            self.spill.insert(at - N, x);
        } else {
            if self.len >= N {
                self.reserve_spill();
                self.spill.insert(0, self.head[N - 1]);
            }
            let end = self.len.min(N - 1);
            self.head.copy_within(at..end, at + 1);
            self.head[at] = x;
        }
        self.len += 1;
    }

    /// Make room in the spill for one more entry.
    #[inline]
    fn reserve_spill(&mut self) {
        if self.spill.len() == self.spill.capacity() {
            self.grow();
        }
    }

    /// The spill's cold path: make room for one more entry, adopting the
    /// thread's spare allocation if the spill has none.
    #[cold]
    #[inline(never)]
    fn grow(&mut self) {
        if self.spill.capacity() == 0 {
            self.spill = T::take_spare();
        }
        self.spill.reserve(1);
    }

    /// Drop every entry past the first `len`.
    #[inline]
    pub fn truncate(&mut self, len: usize) {
        if len < self.len {
            self.spill.truncate(len.saturating_sub(N));
            self.len = len;
        }
    }

    /// Remove every entry, keeping the spill's capacity.
    #[inline]
    pub fn clear(&mut self) {
        self.spill.clear();
        self.len = 0;
    }

    /// The entries as two slices, head part first.
    #[inline]
    fn as_slices(&self) -> (&[T], &[T]) {
        (&self.head[..self.len.min(N)], &self.spill)
    }

    /// The entries as two mutable slices, head part first.
    #[inline]
    fn as_mut_slices(&mut self) -> (&mut [T], &mut [T]) {
        (&mut self.head[..self.len.min(N)], &mut self.spill)
    }

    /// Iterate over the entries in log order.
    #[inline]
    pub fn iter(&self) -> core::iter::Chain<core::slice::Iter<'_, T>, core::slice::Iter<'_, T>> {
        let (head, spill) = self.as_slices();
        head.iter().chain(spill)
    }

    /// Iterate mutably over the entries in log order.
    #[inline]
    pub fn iter_mut(
        &mut self,
    ) -> core::iter::Chain<core::slice::IterMut<'_, T>, core::slice::IterMut<'_, T>> {
        let (head, spill) = self.as_mut_slices();
        head.iter_mut().chain(spill)
    }

    /// The position of the last entry matching `pred`.
    #[inline]
    pub fn rposition(&self, mut pred: impl FnMut(&T) -> bool) -> Option<usize> {
        let (head, spill) = self.as_slices();
        match spill.iter().rposition(&mut pred) {
            Some(i) => Some(N + i),
            None => head.iter().rposition(pred),
        }
    }

    /// The number of leading entries matching `pred`, for a log that
    /// `pred` partitions (every match before every non-match).
    #[inline]
    pub fn partition_point(&self, mut pred: impl FnMut(&T) -> bool) -> usize {
        let (head, spill) = self.as_slices();
        let i = head.partition_point(&mut pred);
        if i < head.len() {
            i
        } else {
            i + spill.partition_point(pred)
        }
    }
}

impl<T: Pooled, const N: usize> Index<usize> for InlineLog<T, N> {
    type Output = T;

    #[inline]
    fn index(&self, i: usize) -> &T {
        if i < N {
            &self.head[..self.len.min(N)][i]
        } else {
            &self.spill[i - N]
        }
    }
}

impl<T: Pooled, const N: usize> IndexMut<usize> for InlineLog<T, N> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut T {
        if i < N {
            &mut self.head[..self.len.min(N)][i]
        } else {
            &mut self.spill[i - N]
        }
    }
}

impl<T: Pooled + fmt::Debug, const N: usize> fmt::Debug for InlineLog<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: Pooled, const N: usize> Drop for InlineLog<T, N> {
    fn drop(&mut self) {
        if self.spill.capacity() != 0 {
            T::give_back(core::mem::take(&mut self.spill));
        }
    }
}

/// The reusable per-run transaction scratch: a read set and a write set.
/// Build once per `Stm::try_run`, [`reset`](TxScratch::reset) between
/// attempts; see the module docs for where each buffer lives.
#[derive(Debug, Default)]
pub struct TxScratch<'env> {
    /// The attempt's read set.
    pub reads: ReadSet<'env>,
    /// The attempt's write set (owns the spill index and lock order).
    pub writes: WriteSet<'env>,
}

impl TxScratch<'_> {
    /// An empty scratch. Allocates nothing and touches no thread-local.
    #[must_use]
    pub fn acquire() -> Self {
        Self::default()
    }

    /// Clear both sets, retaining capacity. Call at attempt begin.
    pub fn reset(&mut self) {
        self.reads.clear();
        self.writes.clear();
    }
}

/// Park `index` — the spill index of a write set being dropped — unless it
/// has no slots or outgrew the cap.
pub(crate) fn give_back_index(index: &mut IndexTable) {
    if !index.slots.is_empty() && index.slots.len() <= INDEX_SLOTS_MAX {
        INDEX_SPARE.with(|s| s.set(core::mem::take(index)));
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
        s.reset();
        assert!(s.reads.is_empty());
        assert!(s.writes.is_empty());
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
    /// in the order read entries, write entries, lock order, index.
    fn parked() -> [usize; 4] {
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
            index,
        ]
    }

    /// A scratch holding `reads` reads and `writes` writes, of the first
    /// locations of `vars`.
    fn filled(vars: &[TVar<u64>], reads: usize, writes: usize) -> TxScratch<'_> {
        let mut s = TxScratch::acquire();
        for v in &vars[..reads] {
            s.reads.push(Loc::Var(v.core()), 0);
        }
        for v in &vars[..writes] {
            s.writes.insert(Loc::Var(v.core()), 1);
        }
        s
    }

    /// Fill every spare: one run that spills every log, the write set
    /// past its linear-scan threshold so the index engages.
    fn warm_every_spare() -> [usize; 4] {
        let vars: Vec<TVar<u64>> = (0..40).map(TVar::new).collect();
        drop(filled(&vars, 40, 40));
        let warm = parked();
        assert!(warm.iter().all(|&a| a != 0), "every spare filled: {warm:?}");
        warm
    }

    #[test]
    fn a_read_only_run_moves_only_the_read_entry_spare() {
        on_fresh_thread(|| {
            let warm = warm_every_spare();
            let vars: Vec<TVar<u64>> = (0..=HEAD as u64).map(TVar::new).collect();
            assert_eq!(parked(), warm);
            for n in [HEAD - 1, HEAD] {
                let s = filled(&vars, n, 0);
                assert_eq!(parked(), warm, "the head holds {n} reads");
                drop(s);
                assert_eq!(parked(), warm, "and {n} hand nothing back");
            }
            let s = filled(&vars, HEAD + 1, 0);
            assert_eq!(
                parked(),
                [0, warm[1], warm[2], warm[3]],
                "one read past the head fetches the read spill's spare"
            );
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
            assert_eq!(parked(), [warm[0], 0, 0, warm[3]]);
            assert_eq!(s.writes.lookup(Loc::Var(var.core())), Some(1));
            drop(s);
            assert_eq!(parked(), warm);
        });
    }

    #[test]
    fn the_index_spare_comes_back_only_once_a_set_outgrew_the_scan() {
        on_fresh_thread(|| {
            let vars: Vec<TVar<u64>> = (0..17).map(TVar::new).collect();
            drop(filled(&vars, 0, 16));
            assert_eq!(parked()[3], 0, "16 writes are scanned, never indexed");
            drop(filled(&vars, 0, 17));
            let index = parked()[3];
            assert_ne!(index, 0, "the 17th write built the index");
            let mut s = TxScratch::acquire();
            for (i, v) in vars.iter().enumerate() {
                s.writes.insert(Loc::Var(v.core()), i as u64);
            }
            assert_eq!(parked()[3], 0, "the index adopted its spare");
            assert_eq!(s.writes.lookup(Loc::Var(vars[16].core())), Some(16));
            drop(s);
            assert_eq!(parked()[3], index, "the same slots came back");
        });
    }

    #[test]
    fn outliers_past_the_caps_are_freed() {
        on_fresh_thread(|| {
            let warm = warm_every_spare();
            let var = TVar::new(0u64);
            let mut s = TxScratch::acquire();
            for _ in 0..=HEAD + POOLED_CAP_MAX {
                s.reads.push(Loc::Var(var.core()), 0);
            }
            drop(s);
            assert_eq!(parked(), [0, warm[1], warm[2], warm[3]]);
            let mut outlier = INDEX_SPARE.with(Cell::take);
            for i in 0..INDEX_SLOTS_MAX {
                outlier.insert(i * 16, 0);
            }
            assert!(outlier.slots.len() > INDEX_SLOTS_MAX);
            give_back_index(&mut outlier);
            assert_eq!(parked()[3], 0, "an outlier index is not parked");
        });
    }

    #[test]
    fn a_nested_run_starts_cold_and_the_outer_runs_buffers_win() {
        on_fresh_thread(|| {
            let warm = warm_every_spare();
            let vars: Vec<TVar<u64>> = (0..=HEAD as u64).map(TVar::new).collect();
            let outer = filled(&vars, HEAD + 1, 0);
            {
                let inner = filled(&vars, HEAD + 1, 0);
                let spilled = inner.reads.iter().last().expect("pushed");
                let cold = spilled as *const ReadEntry<'_> as usize;
                assert_ne!(cold, warm[0], "the outer run holds the spare");
            }
            assert_ne!(parked()[0], 0, "the inner run handed its spill back");
            assert_ne!(parked()[0], warm[0]);
            drop(outer);
            assert_eq!(parked()[0], warm[0], "the outer run's spill wins");
        });
    }

    #[test]
    fn inline_log_matches_a_vector_across_the_head() {
        for len in 0..=2 * HEAD + 1 {
            for at in 0..=len {
                let mut log = InlineLog::<u32>::new();
                let mut model: Vec<u32> = Vec::new();
                for x in 1..=len as u32 {
                    log.push(10 * x);
                    model.push(10 * x);
                }
                // Sorted before and after: the shape of a lock order.
                let mid = 10 * at as u32 + 5;
                log.insert(at, mid);
                model.insert(at, mid);
                assert_eq!(log.len(), model.len());
                assert_eq!(log.iter().copied().collect::<Vec<_>>(), model);
                for (i, &x) in model.iter().enumerate() {
                    assert_eq!(log[i], x, "entry {i} after insert at {at} of {len}");
                }
                assert_eq!(log.rposition(|&x| x == mid), Some(at));
                assert_eq!(log.partition_point(|&x| x < mid), at);
                log.truncate(at);
                model.truncate(at);
                assert_eq!(log.iter().copied().collect::<Vec<_>>(), model);
                log.push(7);
                model.push(7);
                assert_eq!(log.iter().copied().collect::<Vec<_>>(), model);
            }
        }
    }

    #[test]
    fn try_push_fails_only_where_push_would_grow() {
        let mut log = InlineLog::<u32>::new();
        for x in 0..HEAD as u32 {
            assert!(log.try_push(x), "the head has room");
        }
        assert!(!log.try_push(9), "an unallocated spill needs growth");
        assert_eq!(log.len(), HEAD, "and nothing was appended");
        log.push(4);
        while log.spill.len() < log.spill.capacity() {
            assert!(log.try_push(5), "an allocated spill with room");
        }
        let full = log.len();
        assert!(!log.try_push(6), "a full spill needs growth");
        assert_eq!(log.len(), full);
        log.clear();
        assert!(log.is_empty());
        assert!(log.try_push(1), "clear keeps room");
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
