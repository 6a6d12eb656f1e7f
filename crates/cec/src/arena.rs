//! A concurrent, stable-address, epoch-reclaimed node arena.
//!
//! Transactional collections allocate their nodes here. The arena provides:
//!
//! * **Stable addresses**: nodes live in geometrically growing segments
//!   that are never moved or dropped before the arena itself, so `&Node`
//!   references (and the `TVar`s inside) stay valid for the arena's
//!   lifetime — which is what lets the whole stack stay in safe Rust.
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

/// log2 of the first segment's capacity.
const BASE_BITS: u32 = 10;
const BASE: u64 = 1 << BASE_BITS;
/// Number of segments: capacity ≈ BASE * 2^SEGMENTS, effectively unbounded.
const SEGMENTS: usize = 40;

/// A concurrent arena of `T` nodes with stable addresses and epoch-based
/// slot reuse.
#[derive(Debug)]
pub struct Arena<T> {
    segments: Box<[OnceLock<Box<[T]>>]>,
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

/// Segment/offset decomposition: segment `s` holds indices
/// `[BASE*(2^s - 1) + 1, BASE*(2^(s+1) - 1)]` (shifted by one because index
/// 0 is reserved).
///
/// Shifted once more by `BASE`, segment `s` is exactly the numbers whose
/// leading bit is bit `BASE_BITS + s`: `j = index - 1 + BASE` lies in
/// `[BASE * 2^s, BASE * 2^(s+1))`, so the leading bit names the segment
/// and the bits below it are the offset. The reserved index 0 gives
/// `j = BASE - 1`, whose leading bit sits below `BASE_BITS`: the segment
/// number wraps far out of range and the slice index in [`Arena::get`]
/// panics, in release builds as in debug ones.
#[inline]
fn locate(index: u64) -> (usize, usize) {
    debug_assert!(index >= 1);
    let j = index.wrapping_sub(1).wrapping_add(BASE);
    // `| 1` leaves the leading bit of any `j >= 1` alone and lets `ilog2`
    // drop its zero test.
    let top = (j | 1).ilog2();
    let seg = top.wrapping_sub(BASE_BITS) as usize;
    (seg, (j ^ (1 << top)) as usize)
}

#[inline]
fn segment_len(seg: usize) -> usize {
    (BASE << seg) as usize
}

impl<T: Default> Arena<T> {
    /// An empty arena.
    #[must_use]
    pub fn new() -> Self {
        let mut segments = Vec::with_capacity(SEGMENTS);
        segments.resize_with(SEGMENTS, OnceLock::new);
        Self {
            segments: segments.into_boxed_slice(),
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
        let (seg, _) = locate(idx);
        assert!(seg < SEGMENTS, "arena exhausted ({idx} nodes)");
        // First toucher of a segment materializes it; OnceLock
        // serializes racing initializers.
        self.segments[seg].get_or_init(|| {
            let mut v = Vec::new();
            v.resize_with(segment_len(seg), T::default);
            v.into_boxed_slice()
        });
        idx
    }

    /// Access the node at `index`.
    ///
    /// # Panics
    /// If `index` was never allocated.
    #[inline]
    #[must_use]
    pub fn get(&self, index: u64) -> &T {
        let (seg, off) = locate(index);
        &self.segments[seg].get().expect("unallocated arena index")[off]
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
mod tests {
    use super::*;

    #[derive(Default, Debug)]
    struct Cell(AtomicU64);

    #[test]
    fn locate_covers_segment_boundaries() {
        assert_eq!(locate(1), (0, 0));
        assert_eq!(locate(BASE), (0, (BASE - 1) as usize));
        assert_eq!(locate(BASE + 1), (1, 0));
        assert_eq!(locate(3 * BASE), (1, (2 * BASE - 1) as usize));
        assert_eq!(locate(3 * BASE + 1), (2, 0));
    }

    /// First and last index of segment `seg`, from the documented layout.
    fn segment_bounds(seg: u32) -> (u64, u64) {
        (BASE * ((1 << seg) - 1) + 1, BASE * ((1 << (seg + 1)) - 1))
    }

    #[test]
    fn locate_matches_the_documented_layout() {
        // Every index of the first 2^16, against a walk of the layout.
        let (mut seg, mut first, mut last) = (0u32, 1u64, BASE);
        for index in 1..=(1u64 << 16) {
            if index > last {
                seg += 1;
                (first, last) = segment_bounds(seg);
            }
            assert_eq!(
                locate(index),
                (seg as usize, (index - first) as usize),
                "index {index}"
            );
        }
        // The two indices either side of every boundary up to segment 39.
        for seg in 0..=39u32 {
            let (first, last) = segment_bounds(seg);
            assert_eq!(last - first + 1, segment_len(seg as usize) as u64);
            assert_eq!(locate(first), (seg as usize, 0));
            assert_eq!(locate(first + 1), (seg as usize, 1));
            assert_eq!(
                locate(last - 1),
                (seg as usize, (last - first - 1) as usize)
            );
            assert_eq!(locate(last), (seg as usize, (last - first) as usize));
            if seg > 0 {
                assert_eq!(segment_bounds(seg - 1).1 + 1, first, "segments abut");
            }
        }
        // Past the last segment the segment number is out of range, never
        // an alias of a valid slot.
        assert!(locate(segment_bounds(39).1 + 1).0 >= SEGMENTS);
    }

    /// The reserved null index must never resolve to a slot — also in
    /// release builds, where `locate`'s debug assertion is compiled out.
    #[test]
    #[should_panic]
    fn get_of_the_null_index_panics() {
        let a: Arena<Cell> = Arena::new();
        let _ = a.alloc();
        let _ = a.get(0);
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
        for i in 0..(3 * BASE) {
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
        // Force epoch advancement by pinning repeatedly.
        let mut reused = false;
        for _ in 0..1000 {
            let g = pin();
            g.flush();
            drop(g);
            // Drain to check whether the slot came back.
            if let Some(i) = a.free.pop() {
                assert_eq!(i, idx);
                reused = true;
                break;
            }
        }
        assert!(reused, "retired slot never re-entered the free list");
    }

    /// Drain `a`'s free list, reporting whether `idx` came back. Other
    /// tests of this binary pin concurrently and can hold a retirement
    /// back for a moment, hence the bounded polling.
    fn eventually_freed(a: &Arena<Cell>, idx: u64) -> bool {
        for _ in 0..1000 {
            quiesce();
            if let Some(i) = a.free.pop() {
                assert_eq!(i, idx);
                return true;
            }
            std::thread::yield_now();
        }
        false
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
