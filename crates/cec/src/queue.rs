//! `TxQueue` — a composable FIFO queue.
//!
//! The paper's Section VI singles out the JDK's `ConcurrentLinkedQueue`,
//! whose iterator is only "weakly consistent" and whose operations cannot
//! be composed atomically. This queue is the transactional counterpart:
//! every operation is atomic, and the building blocks (`enqueue_in`,
//! `dequeue_in`, …) compose — e.g. [`transfer`] moves an element between
//! two queues in one atomic step, and [`dequeue_or_else`] drains a
//! primary queue with an [`or_else`](stm_core::api::Atomic::or_else)
//! fallback.
//!
//! The atomic wrappers are generic over the [`Atomic`] runner, so the same
//! queue code runs over a static backend or a registry-built handle.
//!
//! Implementation: a singly linked list with a head sentinel and a tail
//! pointer, all links transactional, nodes in the shared epoch-reclaimed
//! arena. Operations are O(1) and run as regular (classic) transactions —
//! queue operations have no long read-only prefix for elasticity to
//! exploit.

use crate::arena::{pin, Arena};
use crate::listcore::{self, read_next, write_next, ListNode};
use crate::noderef::NodeRef;
use std::cell::RefCell;
use stm_core::api::{Atomic, AtomicBackend, Policy};
use stm_core::{Abort, AbortReason, TVar, Transaction};

/// A transactional FIFO queue of `i64` values. STM-agnostic.
#[derive(Debug)]
pub struct TxQueue {
    arena: Arena<ListNode>,
    /// Head sentinel (its `next` is the front of the queue).
    head: u64,
    /// The last node (== `head` when empty).
    tail: TVar<u64>,
}

impl Default for TxQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl TxQueue {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        let arena: Arena<ListNode> = Arena::new();
        let head = arena.alloc();
        arena.get(head).next.store_atomic(NodeRef::NULL, 0);
        Self {
            arena,
            head,
            tail: TVar::new(head),
        }
    }

    fn node(&self, idx: u64) -> &ListNode {
        self.arena.get(idx)
    }

    /// Enqueue inside an ambient transaction. `pending` records the
    /// allocation for abort recycling (see the set wrappers for the
    /// pattern).
    ///
    /// # Errors
    /// Propagates the [`Abort`] that ends this attempt.
    pub fn enqueue_in<'e, T: Transaction<'e>>(
        &'e self,
        tx: &mut T,
        value: i64,
        pending: &mut Vec<u64>,
    ) -> Result<(), Abort> {
        let n = self.arena.alloc();
        pending.push(n);
        let node = self.node(n);
        // A plain store before the tail link to the slot is written (see
        // `ListNode`).
        node.set_key(value);
        write_next(tx, &node.next, NodeRef::NULL)?;
        let t = tx.read(&self.tail)?;
        write_next(tx, &self.node(t).next, NodeRef::node(n))?;
        tx.write(&self.tail, n)?;
        Ok(())
    }

    /// Dequeue inside an ambient transaction; `None` when empty. The
    /// removed slot index is pushed to `unlinked` for epoch retirement.
    ///
    /// # Errors
    /// Propagates the [`Abort`] that ends this attempt.
    pub fn dequeue_in<'e, T: Transaction<'e>>(
        &'e self,
        tx: &mut T,
        unlinked: &mut Vec<u64>,
    ) -> Result<Option<i64>, Abort> {
        let first = read_next(tx, &self.node(self.head).next)?;
        if first.is_dead() {
            return Err(Abort::new(AbortReason::Explicit));
        }
        if first.is_null() {
            return Ok(None);
        }
        let f = first.index();
        let value = self.node(f).key();
        let rest = read_next(tx, &self.node(f).next)?;
        if rest.is_dead() {
            return Err(Abort::new(AbortReason::Explicit));
        }
        write_next(tx, &self.node(self.head).next, rest)?;
        // Successor-preserving marker for protocol uniformity; queue ops
        // are always regular (fully validated), so unlike the elastic set
        // traversals nothing ever needs to repair through it.
        write_next(tx, &self.node(f).next, NodeRef::dead(rest))?;
        if rest.is_null() {
            // Removed the last element: the tail falls back to the sentinel.
            tx.write(&self.tail, self.head)?;
        }
        unlinked.push(f);
        Ok(Some(value))
    }

    /// Peek at the front inside an ambient transaction.
    ///
    /// # Errors
    /// Propagates the [`Abort`] that ends this attempt.
    pub fn peek_in<'e, T: Transaction<'e>>(&'e self, tx: &mut T) -> Result<Option<i64>, Abort> {
        let first = read_next(tx, &self.node(self.head).next)?;
        if first.is_dead() {
            return Err(Abort::new(AbortReason::Explicit));
        }
        if first.is_null() {
            return Ok(None);
        }
        Ok(Some(self.node(first.index()).key()))
    }

    /// Element count inside an ambient transaction (atomic under a
    /// regular transaction — the JDK queue cannot offer this): the sorted
    /// list's count, whose walk needs no order.
    ///
    /// # Errors
    /// Propagates the [`Abort`] that ends this attempt.
    pub fn len_in<'e, T: Transaction<'e>>(&'e self, tx: &mut T) -> Result<usize, Abort> {
        listcore::len_in(&self.arena, self.head, tx)
    }

    // -- atomic wrappers (any `Atomic` runner) --------------------------

    /// Atomic enqueue.
    pub fn enqueue<B: AtomicBackend>(&self, at: &Atomic<B>, value: i64) {
        let _guard = pin();
        let mut pending: Vec<u64> = Vec::new();
        at.run(Policy::Regular, |tx| {
            for n in pending.drain(..) {
                self.arena.free_unpublished(n);
            }
            self.enqueue_in(tx, value, &mut pending)
        });
    }

    /// Atomic dequeue; `None` when empty.
    pub fn dequeue<B: AtomicBackend>(&self, at: &Atomic<B>) -> Option<i64> {
        let guard = pin();
        let mut unlinked: Vec<u64> = Vec::new();
        let out = at.run(Policy::Regular, |tx| {
            unlinked.clear();
            self.dequeue_in(tx, &mut unlinked)
        });
        for idx in unlinked {
            self.arena.retire(idx, &guard);
        }
        out
    }

    /// Atomic *blocking* dequeue: when the queue is empty the
    /// transaction calls [`retry`](stm_core::api::Tx::retry) and parks
    /// until a producer's committed enqueue touches the links it read,
    /// so a waiting consumer burns no CPU.
    pub fn dequeue_blocking<B: AtomicBackend>(&self, at: &Atomic<B>) -> i64 {
        let guard = pin();
        let mut unlinked: Vec<u64> = Vec::new();
        let out = at.run(Policy::Regular, |tx| {
            unlinked.clear();
            match self.dequeue_in(tx, &mut unlinked)? {
                Some(v) => Ok(v),
                None => tx.retry(),
            }
        });
        for idx in unlinked {
            self.arena.retire(idx, &guard);
        }
        out
    }

    /// Atomic peek.
    pub fn peek<B: AtomicBackend>(&self, at: &Atomic<B>) -> Option<i64> {
        let _guard = pin();
        at.run(Policy::Regular, |tx| self.peek_in(tx))
    }

    /// Atomic length — a *consistent* count, unlike weakly consistent
    /// iteration.
    pub fn len<B: AtomicBackend>(&self, at: &Atomic<B>) -> usize {
        let _guard = pin();
        at.run(Policy::Regular, |tx| self.len_in(tx))
    }

    /// True if empty (atomic).
    pub fn is_empty<B: AtomicBackend>(&self, at: &Atomic<B>) -> bool {
        self.peek(at).is_none()
    }
}

/// Atomically move the front of `from` to the back of `to` — a
/// composition of `dequeue` and `enqueue` as two sections of one parent.
/// Returns the moved value, if any.
pub fn transfer<B: AtomicBackend>(at: &Atomic<B>, from: &TxQueue, to: &TxQueue) -> Option<i64> {
    let guard = pin();
    let mut unlinked: Vec<u64> = Vec::new();
    let mut pending: Vec<u64> = Vec::new();
    let out = at.run(Policy::Regular, |tx| {
        unlinked.clear();
        for n in pending.drain(..) {
            to.arena.free_unpublished(n);
        }
        let v = tx.section(Policy::Regular, |t| from.dequeue_in(t, &mut unlinked))?;
        if let Some(v) = v {
            tx.section(Policy::Regular, |t| to.enqueue_in(t, v, &mut pending))?;
        }
        Ok(v)
    });
    for idx in unlinked {
        from.arena.retire(idx, &guard);
    }
    out
}

/// Dequeue from `primary`; when it is empty, *retry* the primary branch —
/// which [`Atomic::or_else`] turns into running the fallback branch that
/// dequeues from `fallback` instead. Returns `None` only when both queues
/// are empty.
///
/// This is the work-stealing shape of the Haskell-STM `orElse` idiom: the
/// primary path "blocks" (retries) on emptiness and the composition falls
/// through to the alternative, with each branch an atomic transaction of
/// its own.
pub fn dequeue_or_else<B: AtomicBackend>(
    at: &Atomic<B>,
    primary: &TxQueue,
    fallback: &TxQueue,
) -> Option<i64> {
    let guard = pin();
    // Both branch closures need the retirement bookkeeping (only one runs
    // per attempt, but both captures coexist), hence the RefCells.
    let unlinked_p: RefCell<Vec<u64>> = RefCell::new(Vec::new());
    let unlinked_f: RefCell<Vec<u64>> = RefCell::new(Vec::new());
    let out = at.or_else(
        Policy::Regular,
        |tx| {
            // Either branch may have left bookkeeping from an aborted
            // attempt; every attempt starts clean.
            unlinked_p.borrow_mut().clear();
            unlinked_f.borrow_mut().clear();
            match primary.dequeue_in(tx, &mut unlinked_p.borrow_mut())? {
                Some(v) => Ok(Some(v)),
                None => tx.retry(),
            }
        },
        |tx| {
            unlinked_p.borrow_mut().clear();
            unlinked_f.borrow_mut().clear();
            fallback.dequeue_in(tx, &mut unlinked_f.borrow_mut())
        },
    );
    // Only the committed branch's list is non-empty; each queue retires
    // into its own arena.
    for idx in unlinked_p.into_inner() {
        primary.arena.retire(idx, &guard);
    }
    for idx in unlinked_f.into_inner() {
        fallback.arena.retire(idx, &guard);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use oe_stm::OeStm;
    use stm_tl2::Tl2;

    fn fifo_order<B: AtomicBackend>(at: &Atomic<B>) {
        let q = TxQueue::new();
        assert!(q.is_empty(at));
        assert_eq!(q.dequeue(at), None);
        for v in 1..=5 {
            q.enqueue(at, v);
        }
        assert_eq!(q.len(at), 5);
        assert_eq!(q.peek(at), Some(1));
        for v in 1..=5 {
            assert_eq!(q.dequeue(at), Some(v), "FIFO order");
        }
        assert!(q.is_empty(at));
        // Tail reset: enqueue works again after draining.
        q.enqueue(at, 9);
        assert_eq!(q.dequeue(at), Some(9));
    }

    #[test]
    fn fifo_under_oestm() {
        fifo_order(&Atomic::new(OeStm::new()));
    }

    #[test]
    fn fifo_under_tl2() {
        fifo_order(&Atomic::new(Tl2::new()));
    }

    #[test]
    fn dequeue_blocking_parks_until_a_producer_commits() {
        use std::sync::Arc;
        // A consumer parks on the empty queue; the producer's committed
        // enqueue wakes it. FIFO drain proves each element is consumed
        // exactly once even when consumers had to wait.
        let at = Arc::new(Atomic::new(Tl2::new()));
        let q = Arc::new(TxQueue::new());
        let consumer = {
            let at = Arc::clone(&at);
            let q = Arc::clone(&q);
            std::thread::spawn(move || (0..3).map(|_| q.dequeue_blocking(&at)).collect::<Vec<_>>())
        };
        for v in [10, 20, 30] {
            q.enqueue(&at, v);
        }
        let got = consumer.join().unwrap();
        assert_eq!(got, [10, 20, 30]);
        assert!(q.is_empty(&at));
        let snap = at.stats();
        assert_eq!(snap.wakeups + snap.spurious_wakeups, snap.retry_parks);
    }

    #[test]
    fn transfer_is_atomic() {
        let at = Atomic::new(OeStm::new());
        let a = TxQueue::new();
        let b = TxQueue::new();
        a.enqueue(&at, 7);
        assert_eq!(transfer(&at, &a, &b), Some(7));
        assert!(a.is_empty(&at));
        assert_eq!(b.peek(&at), Some(7));
        assert_eq!(transfer(&at, &a, &b), None, "empty source");
    }

    #[test]
    fn dequeue_or_else_prefers_primary_then_falls_back() {
        let at = Atomic::new(Tl2::new());
        let primary = TxQueue::new();
        let fallback = TxQueue::new();
        primary.enqueue(&at, 1);
        fallback.enqueue(&at, 100);
        // Primary non-empty: no retry, primary wins.
        assert_eq!(dequeue_or_else(&at, &primary, &fallback), Some(1));
        assert_eq!(at.stats().explicit_retries(), 0);
        // Primary empty: the branch retries once and the fallback serves.
        assert_eq!(dequeue_or_else(&at, &primary, &fallback), Some(100));
        assert_eq!(at.stats().explicit_retries(), 1);
        // Both empty: the composition settles on None (no livelock).
        assert_eq!(dequeue_or_else(&at, &primary, &fallback), None);
        assert_eq!(fallback.len(&at), 0);
        assert_eq!(
            at.stats().aborts(),
            0,
            "or_else fallbacks must not count as conflict aborts"
        );
    }

    #[test]
    fn concurrent_mpmc_preserves_all_elements() {
        use std::sync::Arc;
        let at = Arc::new(Atomic::new(OeStm::new()));
        let q = Arc::new(TxQueue::new());
        let producers = 2;
        let per_producer = 500i64;
        let mut handles = Vec::new();
        for t in 0..producers {
            let at = Arc::clone(&at);
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..per_producer {
                    q.enqueue(&*at, t as i64 * 10_000 + i);
                }
            }));
        }
        let consumed = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let total = (producers as u64) * per_producer as u64;
        let mut consumers = Vec::new();
        for _ in 0..2 {
            let at = Arc::clone(&at);
            let q = Arc::clone(&q);
            let consumed = Arc::clone(&consumed);
            consumers.push(std::thread::spawn(move || {
                use std::sync::atomic::Ordering;
                let mut got = Vec::new();
                // Exit when the GLOBAL count reaches the total (a local
                // target would hang on uneven splits).
                while consumed.load(Ordering::SeqCst) < total {
                    if let Some(v) = q.dequeue(&*at) {
                        got.push(v);
                        consumed.fetch_add(1, Ordering::SeqCst);
                    } else {
                        std::thread::yield_now();
                    }
                }
                got
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut all: Vec<i64> = Vec::new();
        for c in consumers {
            all.extend(c.join().unwrap());
        }
        all.sort_unstable();
        let mut expect: Vec<i64> = (0..producers as i64)
            .flat_map(|t| (0..per_producer).map(move |i| t * 10_000 + i))
            .collect();
        expect.sort_unstable();
        assert_eq!(all, expect, "every element exactly once");
    }

    #[test]
    fn per_producer_order_is_preserved() {
        use std::sync::Arc;
        let at = Arc::new(Atomic::new(OeStm::new()));
        let q = Arc::new(TxQueue::new());
        let writer = {
            let at = Arc::clone(&at);
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                for i in 0..300 {
                    q.enqueue(&*at, i);
                }
            })
        };
        let mut last = -1i64;
        let mut seen = 0;
        while seen < 300 {
            if let Some(v) = q.dequeue(&*at) {
                assert!(v > last, "FIFO violated: {v} after {last}");
                last = v;
                seen += 1;
            }
        }
        writer.join().unwrap();
    }
}
