//! A concurrent, stable-address, epoch-reclaimed node arena.
//!
//! Transactional collections allocate their nodes here. The arena provides:
//!
//! * **Stable addresses**: nodes live in a flat first segment and, past
//!   it, in geometrically growing overflow segments; none is moved or
//!   dropped before the arena itself, so `&Node` references (and the
//!   `TVar`s inside) stay valid for the arena's lifetime — which is what
//!   lets the whole stack stay in safe Rust.
//! * **One-load lookup**: the first segment is a plain boxed slice sized
//!   by a byte budget (2^13 16-byte list nodes, 128 KiB), so resolving one of its indices
//!   is a bounds check against a loop-invariant base. A traversal's next
//!   address waits only for the link it just read, never for a segment
//!   table entry.
//! * **Lock-free allocation**: a bump counter plus a lock-free free list.
//! * **Epoch-based reclamation** (via `crossbeam-epoch`): a removed node is
//!   *retired*, and its slot only re-enters the free list once every thread
//!   that was pinned at retire time has unpinned. This is what makes node
//!   reuse safe under *elastic* transactions, whose traversals may dwell on
//!   unlinked nodes that classic read-set validation would not protect.
//!
//! Indices are `u64`; index 0 is reserved (the null [`NodeRef`]).
//!
//! [`NodeRef`]: crate::noderef::NodeRef

use core::sync::atomic::{AtomicU64, Ordering};
use crossbeam::epoch::{self, Guard};
use crossbeam::queue::SegQueue;
use std::sync::Arc;
use std::sync::OnceLock;

/// Byte budget of the first segment: 2^13 16-byte list nodes, enough
/// for a paper-size list (2^12 of 2^13 keys) without an overflow lookup.
const FIRST_SEGMENT_BYTES: usize = 128 * 1024;
/// log2 of the smallest first segment, in slots.
const MIN_FIRST_BITS: u32 = 10;
/// Number of segments, the first included: capacity ≈ F * 2^SEGMENTS
/// for a first segment of F slots, effectively unbounded.
const SEGMENTS: usize = 40;

/// log2 of the first segment's slot count for `size`-byte nodes: the
/// largest power of two of slots inside [`FIRST_SEGMENT_BYTES`], never
/// below `2^MIN_FIRST_BITS`.
const fn first_bits(size: usize) -> u32 {
    let fits = FIRST_SEGMENT_BYTES / if size == 0 { 1 } else { size };
    let bits = (fits | 1).ilog2();
    if bits < MIN_FIRST_BITS {
        MIN_FIRST_BITS
    } else {
        bits
    }
}

/// A concurrent arena of `T` nodes with stable addresses and epoch-based
/// slot reuse.
#[derive(Debug)]
pub struct Arena<T> {
    /// Segment 0: index `i` is `first[i - 1]`, for `i` in
    /// `1..=first.len()`.
    first: Box<[T]>,
    /// Segments 1.. (segment `s` at `overflow[s - 1]`), each materialized
    /// by the first allocation that reaches it.
    overflow: Box<[OnceLock<Box<[T]>>]>,
    /// Next never-used index (starts at 1; 0 is the null index).
    next: AtomicU64,
    /// Slots whose retirement epoch has passed, ready for reuse.
    free: Arc<SegQueue<u64>>,
}

impl<T: Default> Default for Arena<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Segment/offset decomposition for a first segment of `2^first_bits`
/// slots: segment `s` holds indices `[F*(2^s - 1) + 1, F*(2^(s+1) - 1)]`
/// with `F = 2^first_bits` (shifted by one because index 0 is reserved).
///
/// Shifted once more by `F`, segment `s` is exactly the numbers whose
/// leading bit is bit `first_bits + s`: `j = index - 1 + F` lies in
/// `[F * 2^s, F * 2^(s+1))`, so the leading bit names the segment and the
/// bits below it are the offset. The reserved index 0 gives `j = F - 1`,
/// whose leading bit sits below `first_bits`: the segment number wraps
/// far out of range and the overflow table index in [`Arena::get`]'s
/// cold path panics, in release builds as in debug ones.
#[inline]
fn locate(index: u64, first_bits: u32) -> (usize, usize) {
    let j = index.wrapping_sub(1).wrapping_add(1 << first_bits);
    // `| 1` leaves the leading bit of any `j >= 1` alone and lets `ilog2`
    // drop its zero test.
    let top = (j | 1).ilog2();
    let seg = top.wrapping_sub(first_bits) as usize;
    (seg, (j ^ (1 << top)) as usize)
}

/// `n` default slots.
fn slots<T: Default>(n: usize) -> Box<[T]> {
    let mut v = Vec::with_capacity(n);
    v.resize_with(n, T::default);
    v.into_boxed_slice()
}

impl<T: Default> Arena<T> {
    /// An empty arena. Its first segment is allocated here, so every
    /// index below its size resolves without touching the overflow.
    #[must_use]
    pub fn new() -> Self {
        Self {
            first: slots(1 << Self::FIRST_BITS),
            overflow: (1..SEGMENTS).map(|_| OnceLock::new()).collect(),
            next: AtomicU64::new(1),
            free: Arc::new(SegQueue::new()),
        }
    }

    /// Allocate a slot and return its index. The node's contents are
    /// whatever the previous user left (fresh slots hold `T::default()`);
    /// callers initialize fields through their own protocol. A field that
    /// never changes while the slot is reachable (a list node's key) is a
    /// plain store made before the first link to the slot is written: no
    /// pinned traverser can reach a slot this returns, and the linking
    /// commit's `Release` store publishes it. Fields that change while
    /// published are written transactionally, so their initialization
    /// publishes atomically with the linking write.
    pub fn alloc(&self) -> u64 {
        if let Some(idx) = self.free.pop() {
            return idx;
        }
        let idx = self.next.fetch_add(1, Ordering::Relaxed);
        if idx > self.first.len() as u64 {
            self.materialize(idx);
        }
        idx
    }

    /// Make sure the overflow segment holding `idx` exists. The first
    /// toucher of a segment materializes it; `OnceLock` serializes racing
    /// initializers.
    #[cold]
    fn materialize(&self, idx: u64) {
        let (seg, _) = locate(idx, Self::FIRST_BITS);
        assert!(seg < SEGMENTS, "arena exhausted ({idx} nodes)");
        self.overflow[seg - 1].get_or_init(|| slots(1 << (Self::FIRST_BITS as usize + seg)));
    }
}

impl<T> Arena<T> {
    /// log2 of the first segment's slot count.
    const FIRST_BITS: u32 = first_bits(size_of::<T>());

    /// Access the node at `index`.
    ///
    /// # Panics
    /// If `index` was never allocated, or is the null index 0.
    #[inline]
    #[must_use]
    pub fn get(&self, index: u64) -> &T {
        // Index 0 wraps past the first segment and panics in `overflow_get`.
        match self.first.get(index.wrapping_sub(1) as usize) {
            Some(node) => node,
            None => self.overflow_get(index),
        }
    }

    /// [`Arena::get`] past the first segment: the geometric lookup.
    #[cold]
    #[inline(never)]
    fn overflow_get(&self, index: u64) -> &T {
        let (seg, off) = locate(index, Self::FIRST_BITS);
        // Only the null index gets here from the first segment's range,
        // with a segment number wrapped far out of the table's.
        &self.overflow[seg - 1]
            .get()
            .expect("unallocated arena index")[off]
    }

    /// Return an allocated-but-never-published slot directly to the free
    /// list (e.g. an allocation made by a transaction attempt that
    /// aborted). Immediate reuse is safe because nothing was ever linked to
    /// the slot.
    pub fn free_unpublished(&self, index: u64) {
        self.free.push(index);
    }

    /// Retire a slot that *was* published (an unlinked node). The slot
    /// re-enters the free list only after all currently pinned threads
    /// unpin, so stale traversers can never observe a recycled node.
    pub fn retire(&self, index: u64, guard: &Guard) {
        let free = Arc::clone(&self.free);
        guard.defer(move || {
            free.push(index);
        });
    }

    /// High-water mark: one past the largest index ever allocated. Used by
    /// traversal step bounds.
    #[must_use]
    pub fn high_water(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }
}

/// Pin the current thread's epoch (convenience re-export so callers don't
/// need a direct `crossbeam` dependency). The guard is global to the epoch
/// collector, not per-arena. Every collection operation pins once, so this
/// is on the per-operation hot path: it announces the epoch in the
/// thread's own slot — no lock, no allocation — and dropping the guard
/// takes the collector's lock only if something was retired meanwhile.
#[must_use]
pub fn pin() -> Guard {
    epoch::pin()
}

/// Drive the epoch collector until pending retirements have had ample
/// opportunity to run (used by tests and teardown paths that want
/// deterministic reclamation; production code never needs this).
pub fn quiesce() {
    for _ in 0..1024 {
        let g = epoch::pin();
        g.flush();
    }
}

#[cfg(test)]
impl<T> Arena<T> {
    /// Wait, bounded, for a retired slot to re-enter the free list, and
    /// return it, left there for the next [`Arena::alloc`]. Other tests
    /// of a binary pin concurrently and can hold a retirement back for a
    /// moment, so a test that counts on reuse polls (quiesce, then yield)
    /// instead of assuming that one collection suffices.
    pub(crate) fn await_free(&self) -> Option<u64> {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            quiesce();
            if let Some(i) = self.free.pop() {
                self.free.push(i);
                return Some(i);
            }
            if std::time::Instant::now() > deadline {
                return None;
            }
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default, Debug)]
    struct Cell(AtomicU64);

    /// The smallest first segment, in slots: the layout `locate` is
    /// checked against below.
    const BASE: u64 = 1 << MIN_FIRST_BITS;

    #[test]
    fn locate_covers_segment_boundaries() {
        let at = |index| locate(index, MIN_FIRST_BITS);
        assert_eq!(at(1), (0, 0));
        assert_eq!(at(BASE), (0, (BASE - 1) as usize));
        assert_eq!(at(BASE + 1), (1, 0));
        assert_eq!(at(3 * BASE), (1, (2 * BASE - 1) as usize));
        assert_eq!(at(3 * BASE + 1), (2, 0));
    }

    /// First and last index of segment `seg`, from the documented layout.
    fn segment_bounds(seg: u32) -> (u64, u64) {
        (BASE * ((1 << seg) - 1) + 1, BASE * ((1 << (seg + 1)) - 1))
    }

    #[test]
    fn locate_matches_the_documented_layout() {
        let at = |index| locate(index, MIN_FIRST_BITS);
        // Every index of the first 2^16, against a walk of the layout.
        let (mut seg, mut first, mut last) = (0u32, 1u64, BASE);
        for index in 1..=(1u64 << 16) {
            if index > last {
                seg += 1;
                (first, last) = segment_bounds(seg);
            }
            assert_eq!(
                at(index),
                (seg as usize, (index - first) as usize),
                "index {index}"
            );
        }
        // The two indices either side of every boundary up to segment 39.
        for seg in 0..=39u32 {
            let (first, last) = segment_bounds(seg);
            assert_eq!(last - first + 1, BASE << seg);
            assert_eq!(at(first), (seg as usize, 0));
            assert_eq!(at(first + 1), (seg as usize, 1));
            assert_eq!(at(last - 1), (seg as usize, (last - first - 1) as usize));
            assert_eq!(at(last), (seg as usize, (last - first) as usize));
            if seg > 0 {
                assert_eq!(segment_bounds(seg - 1).1 + 1, first, "segments abut");
            }
        }
        // Past the last segment the segment number is out of range, never
        // an alias of a valid slot.
        assert!(at(segment_bounds(39).1 + 1).0 >= SEGMENTS);
    }

    #[test]
    fn the_first_segment_is_sized_by_its_byte_budget() {
        use crate::listcore::ListNode;
        use crate::skiplist::SkipNode;
        // 128 KiB of 16-byte list nodes: a paper-size list, 2^13 slots.
        assert_eq!(size_of::<ListNode>(), 16);
        assert_eq!(Arena::<ListNode>::new().first.len(), 1 << 13);
        // Eight-byte cells: 2^14 of them fill the budget.
        assert_eq!(Arena::<Cell>::new().first.len(), 1 << 14);
        // 910 slots: the floor keeps 1 024.
        assert_eq!(size_of::<SkipNode>(), 144);
        assert_eq!(Arena::<SkipNode>::new().first.len(), 1 << 10);
    }

    #[test]
    fn indices_either_side_of_the_first_segment_resolve() {
        let a: Arena<Cell> = Arena::new();
        let f = a.first.len() as u64;
        // The first overflow segment holds twice the first's slots:
        // indices `f + 1 ..= 3f`.
        for i in 1..=3 * f + 1 {
            assert_eq!(a.alloc(), i);
            a.get(i).0.store(i, Ordering::Relaxed);
        }
        let overflow = a.overflow[0].get().expect("first overflow segment");
        assert_eq!(overflow.len() as u64, 2 * f);
        assert!(core::ptr::eq(a.get(f), &a.first[f as usize - 1]));
        assert!(core::ptr::eq(a.get(f + 1), &overflow[0]));
        assert!(core::ptr::eq(a.get(3 * f), &overflow[2 * f as usize - 1]));
        assert!(core::ptr::eq(
            a.get(3 * f + 1),
            &a.overflow[1].get().unwrap()[0]
        ));
        for i in [1, f, f + 1, 3 * f, 3 * f + 1] {
            assert_eq!(a.get(i).0.load(Ordering::Relaxed), i, "index {i}");
        }
    }

    /// The reserved null index must never resolve to a slot — also in
    /// release builds, and also once an overflow segment exists.
    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn get_of_the_null_index_panics() {
        let a: Arena<Cell> = Arena::new();
        let _ = a.alloc();
        let _ = a.get(0);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn get_of_the_null_index_panics_with_overflow_present() {
        let a: Arena<crate::skiplist::SkipNode> = Arena::new();
        for _ in 0..=a.first.len() {
            let _ = a.alloc();
        }
        assert!(a.overflow[0].get().is_some());
        let _ = a.get(0);
    }

    #[test]
    fn two_threads_allocating_across_the_first_segment_get_distinct_slots() {
        let a: Arc<Arena<Cell>> = Arc::new(Arena::new());
        let per_thread = a.first.len() / 2 + 1024;
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let a = Arc::clone(&a);
                std::thread::spawn(move || {
                    (0..per_thread)
                        .map(|_| {
                            let i = a.alloc();
                            a.get(i).0.store(i, Ordering::Relaxed);
                            i
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 2 * per_thread, "duplicate index");
        assert!(*all.last().unwrap() > a.first.len() as u64);
        for i in all {
            assert_eq!(a.get(i).0.load(Ordering::Relaxed), i, "index {i}");
        }
    }

    #[test]
    fn alloc_returns_distinct_indices() {
        let a: Arena<Cell> = Arena::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..5000 {
            assert!(seen.insert(a.alloc()), "duplicate index");
        }
    }

    #[test]
    fn get_after_alloc_works_across_segments() {
        let a: Arena<Cell> = Arena::new();
        let mut idxs = Vec::new();
        for i in 0..(3 * a.first.len() as u64) {
            let idx = a.alloc();
            a.get(idx).0.store(i, Ordering::Relaxed);
            idxs.push((idx, i));
        }
        for (idx, i) in idxs {
            assert_eq!(a.get(idx).0.load(Ordering::Relaxed), i);
        }
    }

    #[test]
    fn free_unpublished_is_reused() {
        let a: Arena<Cell> = Arena::new();
        let idx = a.alloc();
        a.free_unpublished(idx);
        assert_eq!(a.alloc(), idx);
    }

    #[test]
    fn retired_slot_eventually_returns() {
        let a: Arena<Cell> = Arena::new();
        let idx = a.alloc();
        {
            let guard = pin();
            a.retire(idx, &guard);
        }
        let i = a
            .await_free()
            .expect("retired slot never re-entered the free list");
        assert_eq!(i, idx);
        assert_eq!(a.alloc(), idx, "the returned slot is issued again");
    }

    /// Take `a`'s first free slot, reporting whether `idx` came back
    /// (see [`Arena::await_free`] for why it polls).
    fn eventually_freed(a: &Arena<Cell>, idx: u64) -> bool {
        let freed = a.await_free();
        if freed.is_some() {
            assert_eq!(a.free.pop(), Some(idx));
        }
        freed.is_some()
    }

    #[test]
    fn quiesce_drains_retirements() {
        let a: Arena<Cell> = Arena::new();
        let idx = a.alloc();
        a.retire(idx, &pin());
        assert!(eventually_freed(&a, idx), "quiesce never drained the slot");
    }

    #[test]
    fn retired_slot_is_not_reissued_under_an_older_guard() {
        use std::sync::mpsc;
        let a: Arena<Cell> = Arena::new();
        let idx = a.alloc();
        let (pinned_tx, pinned_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        // A traverser pinned before the retire, possibly dwelling on `idx`.
        let traverser = std::thread::spawn(move || {
            let guard = pin();
            pinned_tx.send(()).unwrap();
            release_rx.recv().unwrap();
            drop(guard);
        });
        pinned_rx.recv().unwrap();
        a.retire(idx, &pin());
        quiesce();
        for _ in 0..200 {
            assert_ne!(a.alloc(), idx, "slot re-issued under a live guard");
        }
        release_tx.send(()).unwrap();
        traverser.join().unwrap();
        assert!(eventually_freed(&a, idx), "slot never came back");
    }

    #[test]
    fn concurrent_alloc_no_duplicates() {
        use std::sync::Arc as StdArc;
        let a: StdArc<Arena<Cell>> = StdArc::new(Arena::new());
        let mut handles = Vec::new();
        for _ in 0..stm_core::parallel::worker_threads(4) {
            let a = StdArc::clone(&a);
            handles.push(std::thread::spawn(move || {
                (0..2000).map(|_| a.alloc()).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }

    #[test]
    fn high_water_tracks_bump_allocations() {
        let a: Arena<Cell> = Arena::new();
        assert_eq!(a.high_water(), 1);
        let _ = a.alloc();
        let _ = a.alloc();
        assert_eq!(a.high_water(), 3);
    }
}
