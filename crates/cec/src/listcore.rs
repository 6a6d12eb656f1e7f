// lint:hot-path
//! The sorted transactional linked list underlying [`LinkedListSet`] and
//! every [`HashSet`] bucket.
//!
//! The algorithm is the elastic-transaction integer-set list (Fig. 5 of the
//! paper shows the skip-list sibling): a sorted singly linked list with a
//! head sentinel, where
//!
//! * `contains`/`add`/`remove` traverse with one transactional read per
//!   node, its `next` (a key is a plain word, see [`ListNode`]) — under an
//!   *elastic* transaction only the immediate past reads stay protected,
//!   so long traversals don't conflict with updates behind them;
//! * `add` links a fresh node; the two links that locate the insertion
//!   point (pred's predecessor link and `pred.next`) are exactly the
//!   transaction's elastic window at its first write, so hardening
//!   protects them through commit;
//! * `remove` writes the **dead marker** into the removed node's `next` and
//!   redirects the predecessor *in the same transaction*. The dead marker
//!   creates the write-write overlap that makes adjacent removals conflict
//!   (without it, `remove(a)‖remove(b)` on neighbours could both "succeed"
//!   while leaving `b` linked), and it stops stale elastic traversers from
//!   silently walking frozen pointer chains through deleted nodes.
//!
//! A traverser that reads a dead `next` does not blindly retry: it
//! **repairs**. The marker preserves the successor the node had when it was
//! unlinked ([`NodeRef::dead`]), so [`find`] re-reads the previous
//! predecessor's link under full protection, verifies it still points at
//! the dead node, and redirects it past the corpse in-transaction — the
//! exact validated pattern `remove` itself uses. Under a correct backend
//! the verify read fails (the committed removal already redirected the
//! link) and the traverser falls back to the classic `Explicit` retry, so
//! nothing changes semantically. The repair path exists for the E-STM
//! compatibility backend, whose Fig. 1 composition bug can commit a
//! removal's dead marker *without* its redirect: that leaves a reachable
//! dead node that every traversal would hit forever — a permanent livelock
//! no retry policy can break. Repair heals the structure (the semantic
//! bug itself — lost updates, wrong membership answers — is deliberately
//! preserved; only termination is restored).
//!
//! [`LinkedListSet`]: crate::linkedlist::LinkedListSet
//! [`HashSet`]: crate::hashset::HashSet

use crate::arena::Arena;
use crate::noderef::NodeRef;
use crate::set::OpScratch;
use core::sync::atomic::{AtomicI64, Ordering};
use stm_core::{Abort, AbortReason, TVar, Transaction};

/// One sorted-list node: a plain key and a transactional link.
///
/// The key is written once per use of the slot, before any link to the
/// slot is, and cannot change while a pinned traverser can reach the slot.
/// So it is an ordinary atomic word, stored and loaded without the STM,
/// and a traversal step costs one transactional read (`next`). Why a plain
/// load sees the right key:
///
/// * a slot's key is stored only while no pinned traverser can reach the
///   slot: a fresh slot, one freed unpublished after an abort
///   ([`Arena::free_unpublished`]), or one retired and collected after
///   every guard pinned at retirement dropped ([`Arena::retire`]);
/// * the key store is sequenced before the commit that links the slot,
///   whose link store is a `Release`, and a traverser reaches the slot only
///   through a link it loaded with `Acquire` (`read_consistent`, or the
///   owner's own buffered write), so the link publishes the key;
/// * every caller of the building blocks pins an epoch guard around the
///   whole operation (`SetExt`, `TxQueue`'s wrappers, `compose`, `txkv`).
///
/// Every link stays a `TVar`: reads and writes of `next` are what the STM
/// validates.
#[derive(Debug)]
pub struct ListNode {
    /// The element stored at this node (head sentinels hold `i64::MIN`).
    key: AtomicI64,
    /// Link to the successor; a dead marker (still carrying the successor,
    /// see [`NodeRef::dead`]) once the node is removed.
    pub next: TVar<NodeRef>,
}

impl Default for ListNode {
    fn default() -> Self {
        Self {
            key: AtomicI64::new(0),
            next: TVar::new(NodeRef::NULL),
        }
    }
}

impl ListNode {
    /// The node's key. `Relaxed` suffices: the `Acquire` load of the link
    /// that led here pairs with the linking commit's `Release` store, which
    /// follows the key store (see the type docs).
    #[inline]
    pub(crate) fn key(&self) -> i64 {
        self.key.load(Ordering::Relaxed)
    }

    /// Set the key of a slot no traverser can reach: freshly allocated and
    /// not yet linked. The commit that links it publishes the key.
    #[inline]
    pub(crate) fn set_key(&self, key: i64) {
        self.key.store(key, Ordering::Relaxed);
    }
}

/// Result of a traversal: the insertion point for `key`.
#[derive(Debug, Clone, Copy)]
pub struct Find {
    /// Index of the last node with `node.key < key` (possibly the head
    /// sentinel).
    pub pred: u64,
    /// The value read from `pred.next`: the first node with `key <= node
    /// .key`, or null at the end of the list.
    pub curr: NodeRef,
    /// `curr`'s key, if `curr` is a node.
    pub curr_key: Option<i64>,
}

/// Guard against keys that collide with the head sentinel.
pub(crate) fn check_key(key: i64) {
    assert!(
        key > i64::MIN,
        "i64::MIN is reserved for the head sentinel and cannot be stored"
    );
}

/// Traverse the list rooted at the sentinel `head` until the first node
/// whose key is `>= key`.
///
/// A dead `next` pointer means `pred` was removed under us. If the removal
/// was committed whole (correct backends) the predecessor link has moved on
/// and we abort with [`AbortReason::Explicit`] to restart from a consistent
/// position. If the link *still* points at the corpse — only possible when
/// a relaxed backend committed the dead marker without its redirect — the
/// traversal repairs it in-transaction (validated write, so a racing
/// correct commit simply aborts us) and continues through the preserved
/// successor. Aborts with [`AbortReason::StepBound`] if the walk runs
/// longer than any consistent list could be (defensive termination bound).
///
/// A step of the walk resolves one node in the arena and makes one
/// transactional read of it (`next`) and one plain load (`key`, see
/// [`ListNode`]); both repairs live in `#[cold]` helpers.
pub fn find<'e, T: Transaction<'e>>(
    arena: &'e Arena<ListNode>,
    head: u64,
    tx: &mut T,
    key: i64,
) -> Result<Find, Abort> {
    let bound = 2 * arena.high_water() + 64;
    let mut steps: u64 = 0;
    // `pred`'s own predecessor, or the null index when there is no link to
    // repair through: at the first hop (the head sentinel is never
    // removed) and right after a repair.
    let mut prev: u64 = 0;
    let mut pred = head;
    // `pred`'s key, tracked by value. Keys ascend strictly along `next`
    // links in every committed state and are immutable while a slot is
    // reachable (epoch pinning blocks reuse mid-walk), so observing
    // `curr.key <= pred.key` proves a relaxed backend committed stale
    // redirects — the shape that can close a cycle and turn the step
    // bound into a permanent livelock. Such nodes are unlinked on sight.
    let mut last_key = i64::MIN;
    let mut curr = tx.read(&arena.get(pred).next)?;
    loop {
        if curr.is_dead() {
            (pred, curr) = repair_dead(arena, tx, prev, pred, curr)?;
            prev = 0;
        } else {
            if curr.is_null() {
                return Ok(Find {
                    pred,
                    curr,
                    curr_key: None,
                });
            }
            let c = curr.index();
            let node = arena.get(c);
            let ck = node.key();
            if ck >= key {
                return Ok(Find {
                    pred,
                    curr,
                    curr_key: Some(ck),
                });
            }
            if ck <= last_key {
                curr = cut_inversion(arena, tx, pred, c)?;
            } else {
                curr = tx.read(&node.next)?;
                prev = pred;
                pred = c;
                last_key = ck;
            }
        }
        steps += 1;
        if steps > bound {
            return Err(Abort::new(AbortReason::StepBound));
        }
    }
}

/// `pred` was removed under the walk: its `next` reads `dead`. Re-read the
/// previous predecessor's link under full protection and repair only if it
/// still points at the corpse; otherwise (or with no previous link, at the
/// first hop) restart. Returns the walk's new `(pred, curr)`.
#[cold]
#[inline(never)]
fn repair_dead<'e, T: Transaction<'e>>(
    arena: &'e Arena<ListNode>,
    tx: &mut T,
    prev: u64,
    pred: u64,
    dead: NodeRef,
) -> Result<(u64, NodeRef), Abort> {
    if prev == 0 {
        return Err(Abort::new(AbortReason::Explicit));
    }
    let link = &arena.get(prev).next;
    if tx.read(link)? != NodeRef::node(pred) {
        return Err(Abort::new(AbortReason::Explicit));
    }
    tx.write(link, dead.successor())?;
    Ok((prev, dead.successor()))
}

/// Key-order inversion at node `c` after `pred`: committed corruption (see
/// `last_key` in [`find`]). Unlink `c` from `pred` — a validated write on a
/// link the walk already read, so a correct backend racing us simply
/// aborts us — and hand back pred's new successor to re-examine. A
/// self-loop has no sane successor: cut to the terminator.
#[cold]
#[inline(never)]
fn cut_inversion<'e, T: Transaction<'e>>(
    arena: &'e Arena<ListNode>,
    tx: &mut T,
    pred: u64,
    c: u64,
) -> Result<NodeRef, Abort> {
    let next = if c == pred {
        NodeRef::NULL
    } else {
        let n = tx.read(&arena.get(c).next)?;
        if n.is_dead() {
            n.successor()
        } else {
            n
        }
    };
    tx.write(&arena.get(pred).next, next)?;
    Ok(next)
}

/// Membership test. Read-only: under an elastic transaction this never
/// conflicts with updates outside its two-read window.
pub fn contains_in<'e, T: Transaction<'e>>(
    arena: &'e Arena<ListNode>,
    head: u64,
    tx: &mut T,
    key: i64,
) -> Result<bool, Abort> {
    let f = find(arena, head, tx, key)?;
    Ok(f.curr_key == Some(key))
}

/// Insert `key`; returns `false` if already present.
///
/// The caller owns `scratch`: allocations of aborted attempts are recorded
/// there so the retry wrapper can recycle them (see
/// [`TxSet`](crate::set::TxSet)).
pub fn add_in<'e, T: Transaction<'e>>(
    arena: &'e Arena<ListNode>,
    head: u64,
    tx: &mut T,
    key: i64,
    scratch: &mut OpScratch,
) -> Result<bool, Abort> {
    let f = find(arena, head, tx, key)?;
    if f.curr_key == Some(key) {
        return Ok(false);
    }
    let n = arena.alloc();
    scratch.allocated.push(n);
    let node = arena.get(n);
    // The slot is unreachable until the link below commits: its key is a
    // plain store, made before any link to it is written (see `ListNode`).
    node.set_key(key);
    // First write: the transaction hardens here; the elastic window is
    // exactly {pred's predecessor link, pred.next}, so the insertion point
    // is protected from now until commit.
    tx.write(&node.next, f.curr)?;
    tx.write(&arena.get(f.pred).next, NodeRef::node(n))?;
    Ok(true)
}

/// Remove `key`; returns `false` if absent.
///
/// Unlinks the node and writes a successor-preserving dead marker into its
/// `next` in the same transaction; the unlinked slot index is pushed to
/// `scratch.unlinked` for epoch-based retirement after commit.
pub fn remove_in<'e, T: Transaction<'e>>(
    arena: &'e Arena<ListNode>,
    head: u64,
    tx: &mut T,
    key: i64,
    scratch: &mut OpScratch,
) -> Result<bool, Abort> {
    let f = find(arena, head, tx, key)?;
    if f.curr_key != Some(key) {
        return Ok(false);
    }
    let c = f.curr.index();
    let cnext = tx.read(&arena.get(c).next)?;
    if cnext.is_dead() {
        // Concurrently removed; linearize after that removal.
        return Ok(false);
    }
    // Logical delete; hardens the transaction with {pred.next, curr.next}
    // protected. The marker keeps `cnext` recoverable so a traverser stuck
    // behind a redirect-less commit (relaxed backends) can repair past it.
    tx.write(&arena.get(c).next, NodeRef::dead(cnext))?;
    // Re-read the predecessor link, now under full protection. It was
    // still windowed at the hardening write, so an attempt that can commit
    // reads `f.curr` back; anything else ends a doomed attempt here rather
    // than at commit.
    let pn = tx.read(&arena.get(f.pred).next)?;
    if pn != f.curr {
        // Somebody inserted before curr or removed pred: retry.
        return Err(Abort::new(AbortReason::Explicit));
    }
    tx.write(&arena.get(f.pred).next, cnext)?;
    scratch.unlinked.push(c);
    Ok(true)
}

/// Count the elements. Only atomic when run under a *regular* transaction
/// (the `size` wrapper does so); an elastic caller gets a relaxed count.
pub fn len_in<'e, T: Transaction<'e>>(
    arena: &'e Arena<ListNode>,
    head: u64,
    tx: &mut T,
) -> Result<usize, Abort> {
    let bound = 2 * arena.high_water() + 64;
    let mut steps: u64 = 0;
    let mut count = 0usize;
    let mut curr = tx.read(&arena.get(head).next)?;
    while !curr.is_null() {
        if curr.is_dead() {
            // Reachable corpse (relaxed backends only): read-only walks
            // skip through the preserved successor instead of wedging.
            curr = curr.successor();
        } else {
            count += 1;
            curr = tx.read(&arena.get(curr.index()).next)?;
        }
        steps += 1;
        if steps > bound {
            // Only a relaxed backend's committed cycle can run a walk
            // past any consistent list's length: return the truncated
            // (relaxed) count rather than retrying against corruption
            // that will never heal. Keeps the audit path to one
            // transactional read per node — no key reads.
            break;
        }
    }
    Ok(count)
}

/// Collect the elements in ascending order (testing/debug helper; atomic
/// under a regular transaction).
pub fn snapshot_in<'e, T: Transaction<'e>>(
    arena: &'e Arena<ListNode>,
    head: u64,
    tx: &mut T,
) -> Result<Vec<i64>, Abort> {
    let bound = 2 * arena.high_water() + 64;
    let mut steps: u64 = 0;
    let mut out = Vec::new();
    let mut curr = tx.read(&arena.get(head).next)?;
    while !curr.is_null() {
        if curr.is_dead() {
            // Skip reachable corpses (see `len_in`).
            curr = curr.successor();
        } else {
            let node = arena.get(curr.index());
            out.push(node.key());
            curr = tx.read(&node.next)?;
        }
        steps += 1;
        if steps > bound {
            // Committed cycle (relaxed backends only): truncate rather
            // than wedge (see `len_in`).
            break;
        }
    }
    Ok(out)
}

/// Allocate and initialize a head sentinel in `arena` (single-threaded
/// setup).
pub fn new_sentinel(arena: &Arena<ListNode>) -> u64 {
    let head = arena.alloc();
    arena.get(head).set_key(i64::MIN);
    arena.get(head).next.store_atomic(NodeRef::NULL, 0);
    head
}

#[cfg(test)]
mod tests {
    use super::*;
    use oe_stm::OeStm;
    use stm_core::api::{Atomic, Policy};
    use stm_core::trace::{TraceOp, TraceSink, TraceStamp};
    use stm_core::StmConfig;

    fn build(keys: &[i64]) -> (Arena<ListNode>, u64, Atomic<OeStm>) {
        let at = Atomic::new(OeStm::new());
        let arena: Arena<ListNode> = Arena::new();
        let head = new_sentinel(&arena);
        for &k in keys {
            let mut scratch = OpScratch::default();
            assert!(at.run(Policy::Regular, |tx| add_in(
                &arena,
                head,
                tx,
                k,
                &mut scratch
            )));
        }
        (arena, head, at)
    }

    /// Slot index of the node holding `key` (single-threaded walk).
    fn slot_of(arena: &Arena<ListNode>, head: u64, at: &Atomic<OeStm>, key: i64) -> u64 {
        at.run(Policy::Regular, |tx| {
            let f = find(arena, head, tx, key)?;
            assert_eq!(f.curr_key, Some(key));
            Ok(f.curr.index())
        })
    }

    /// A redirect-less removal (the compat backend's Fig. 1 shape): the
    /// victim's dead marker is committed but its predecessor still points
    /// at the corpse. Traversals must repair and terminate, not retry
    /// forever.
    #[test]
    fn traversal_repairs_a_reachable_corpse() {
        let (arena, head, at) = build(&[1, 2, 3]);
        let n2 = slot_of(&arena, head, &at, 2);
        let n3 = slot_of(&arena, head, &at, 3);
        // Fabricate the corruption out-of-band: mark 2 dead, successor
        // preserved, and deliberately skip the predecessor redirect.
        arena
            .get(n2)
            .next
            .store_atomic(NodeRef::dead(NodeRef::node(n3)), 1);
        // Any traversal crossing the corpse repairs it in-transaction.
        let mut scratch = OpScratch::default();
        assert!(at.run(Policy::Regular, |tx| add_in(
            &arena,
            head,
            tx,
            4,
            &mut scratch
        )));
        // The repair committed: 1 now links straight past the corpse.
        let snap = at.run(Policy::Regular, |tx| snapshot_in(&arena, head, tx));
        assert_eq!(snap, vec![1, 3, 4]);
    }

    /// A committed cycle (stale blind redirects can link backwards): the
    /// key-order inversion is detected and the offending links unlinked,
    /// so traversals terminate instead of spinning on `StepBound`.
    #[test]
    fn traversal_cuts_a_committed_cycle() {
        let (arena, head, at) = build(&[1, 2, 3]);
        let n1 = slot_of(&arena, head, &at, 1);
        let n3 = slot_of(&arena, head, &at, 3);
        // 3 points back at 1: 1 -> 2 -> 3 -> 1 -> ...
        arena.get(n3).next.store_atomic(NodeRef::node(n1), 1);
        // A traversal past 3 hits the inversion, unlinks its way to a
        // terminator, and completes.
        let mut scratch = OpScratch::default();
        assert!(at.run(Policy::Regular, |tx| add_in(
            &arena,
            head,
            tx,
            5,
            &mut scratch
        )));
        let snap = at.run(Policy::Regular, |tx| snapshot_in(&arena, head, tx));
        assert_eq!(snap, vec![1, 2, 3, 5]);
        // Read-only walks stay bounded too.
        let n = at.run(Policy::Regular, |tx| len_in(&arena, head, tx));
        assert_eq!(n, 4);
    }

    /// Read-only walks cross corpses through the preserved successor
    /// without writing.
    #[test]
    fn readonly_walks_cross_corpses() {
        // A reachable corpse (dead own-link, predecessor never redirected —
        // only relaxed backends commit this) must not wedge a read-only
        // walk: the preserved successor carries it across. The corpse
        // itself may still be counted — read-only walks stay one read per
        // node and leave exact repair to the mutating traversals.
        let (arena, head, at) = build(&[10, 20, 30]);
        let n2 = slot_of(&arena, head, &at, 20);
        let n3 = slot_of(&arena, head, &at, 30);
        arena
            .get(n2)
            .next
            .store_atomic(NodeRef::dead(NodeRef::node(n3)), 1);
        let n = at.run(Policy::Regular, |tx| len_in(&arena, head, tx));
        assert_eq!(n, 3, "walk terminates and reaches the tail");
        let snap = at.run(Policy::Regular, |tx| snapshot_in(&arena, head, tx));
        assert_eq!(snap, vec![10, 20, 30]);
    }

    /// The head sentinel is never removed, so a dead marker read at the
    /// first hop has no previous link to repair through: restart.
    #[test]
    fn dead_marker_at_the_first_hop_restarts() {
        let (arena, head, at) = build(&[1, 2]);
        let n1 = slot_of(&arena, head, &at, 1);
        arena
            .get(head)
            .next
            .store_atomic(NodeRef::dead(NodeRef::node(n1)), 1);
        for policy in [Policy::Regular, Policy::Elastic] {
            let reason = at.run(policy, |tx| {
                Ok(find(&arena, head, tx, 2).map_err(|abort| abort.reason))
            });
            assert_eq!(reason.unwrap_err(), AbortReason::Explicit);
        }
        // Nothing was written: the marker is still there.
        assert!(arena.get(head).next.load_atomic().is_dead());
    }

    /// A list spread over three arena segments: `find` agrees with the
    /// sequential list on first, last, present and absent keys, and the
    /// read-only walks see every node.
    #[test]
    fn find_agrees_with_the_sequential_list_across_segments() {
        use crate::seq::{SeqLinkedListSet, SeqSet};

        const KEYS: i64 = 3_100;
        let at = Atomic::new(OeStm::new());
        let arena: Arena<ListNode> = Arena::new();
        let head = new_sentinel(&arena);
        let mut seq = SeqLinkedListSet::new();
        // Even keys, inserted in descending order: every insertion lands
        // at the first hop, and the finished list runs from the newest
        // arena slot down to the oldest.
        for k in (1..=KEYS).rev().map(|i| 2 * i) {
            let mut scratch = OpScratch::default();
            assert!(at.run(Policy::Elastic, |tx| add_in(
                &arena,
                head,
                tx,
                k,
                &mut scratch
            )));
            assert!(seq.add(k));
        }
        assert!(arena.high_water() > 3 * 1024 + 1, "three segments in use");

        let (first, last) = (2, 2 * KEYS);
        let probes = [
            first - 1,
            first,
            first + 1,
            2 * 1024,
            2 * 1024 + 1,
            2 * 3072 - 1,
            2 * 3072,
            last - 1,
            last,
            last + 1,
        ];
        for policy in [Policy::Elastic, Policy::Regular] {
            for key in probes {
                let f = at.run(policy, |tx| find(&arena, head, tx, key));
                assert_eq!(f.curr_key == Some(key), seq.contains(key), "key {key}");
                // The insertion point: the first key at or past `key`.
                let expect = (key <= last).then_some(key + key.rem_euclid(2));
                assert_eq!(f.curr_key, expect, "key {key}");
                assert_eq!(f.curr.is_null(), key > last);
            }
        }
        let n = at.run(Policy::Regular, |tx| len_in(&arena, head, tx));
        assert_eq!(n, seq.size());
        let snap = at.run(Policy::Regular, |tx| snapshot_in(&arena, head, tx));
        assert!(snap.iter().copied().eq((1..=KEYS).map(|i| 2 * i)));
    }

    /// The key is in the slot before the link to it is buffered: the
    /// transaction that inserts a node walks onto it by key straight away.
    #[test]
    fn a_transaction_finds_the_node_it_just_inserted() {
        for policy in [Policy::Regular, Policy::Elastic] {
            let (arena, head, at) = build(&[2, 8]);
            let mut scratch = OpScratch::default();
            let n = at.run(policy, |tx| {
                assert!(add_in(&arena, head, tx, 5, &mut scratch)?);
                let n = *scratch.allocated.last().expect("the add allocated");
                let f = find(&arena, head, tx, 5)?;
                assert_eq!((f.curr_key, f.curr.index()), (Some(5), n), "{policy:?}");
                assert!(!add_in(&arena, head, tx, 5, &mut scratch)?, "{policy:?}");
                assert!(add_in(&arena, head, tx, 6, &mut scratch)?);
                let f = find(&arena, head, tx, 6)?;
                assert_eq!((f.pred, f.curr_key), (n, Some(6)), "{policy:?}");
                Ok(n)
            });
            let snap = at.run(Policy::Regular, |tx| snapshot_in(&arena, head, tx));
            assert_eq!(snap, vec![2, 5, 6, 8], "{policy:?}");
            assert_eq!(slot_of(&arena, head, &at, 5), n);
        }
    }

    /// Insert `key` as its own operation; returns the slot it took.
    fn insert(arena: &Arena<ListNode>, head: u64, at: &Atomic<OeStm>, key: i64) -> u64 {
        let _guard = crate::arena::pin();
        let mut scratch = OpScratch::default();
        assert!(at.run(Policy::Elastic, |tx| {
            for n in scratch.allocated.drain(..) {
                arena.free_unpublished(n);
            }
            add_in(arena, head, tx, key, &mut scratch)
        }));
        scratch.allocated[0]
    }

    /// Remove `key` as its own operation: commit, then retire the slot.
    fn remove(arena: &Arena<ListNode>, head: u64, at: &Atomic<OeStm>, key: i64) {
        let guard = crate::arena::pin();
        let mut scratch = OpScratch::default();
        assert!(at.run(Policy::Elastic, |tx| {
            scratch.unlinked.clear();
            remove_in(arena, head, tx, key, &mut scratch)
        }));
        for idx in scratch.unlinked.drain(..) {
            arena.retire(idx, &guard);
        }
        guard.flush();
    }

    /// A removed node's slot keeps its key, and is not reissued, while a
    /// guard pinned before the removal lives; once that guard is gone the
    /// slot comes back with its new node's key.
    #[test]
    fn a_reused_slot_changes_its_key_only_after_older_guards_unpin() {
        use std::sync::mpsc;
        const K: i64 = 50;
        let (arena, head, at) = build(&[10, K, 90]);
        let (slot_tx, slot_rx) = mpsc::channel();
        let (churned_tx, churned_rx) = mpsc::channel::<()>();
        let (seen_tx, seen_rx) = mpsc::channel();
        let slot = std::thread::scope(|s| {
            // A traverser pinned before the removal, holding the slot its
            // walk found for K.
            let (arena, at) = (&arena, &at);
            s.spawn(move || {
                let guard = crate::arena::pin();
                let slot = at.run(Policy::Elastic, |tx| {
                    Ok(find(arena, head, tx, K)?.curr.index())
                });
                slot_tx.send(slot).unwrap();
                churned_rx.recv().unwrap();
                seen_tx.send(arena.get(slot).key()).unwrap();
                drop(guard);
            });
            let slot = slot_rx.recv().unwrap();
            remove(arena, head, at, K);
            crate::arena::quiesce();
            for k in 100..300 {
                assert_ne!(insert(arena, head, at, k), slot, "reissued under a guard");
                assert_eq!(arena.get(slot).key(), K, "rekeyed under a guard");
            }
            churned_tx.send(()).unwrap();
            assert_eq!(seen_rx.recv().unwrap(), K, "the traverser saw a new key");
            slot
        });
        // The traverser has unpinned. Other tests of this binary pin too
        // and can hold the collection back for a moment: poll, bounded.
        let came_back = (300..1300).find(|&k| {
            crate::arena::quiesce();
            std::thread::yield_now();
            insert(&arena, head, &at, k) == slot
        });
        let k = came_back.expect("the slot never came back");
        assert_eq!(arena.get(slot).key(), k);
        assert_eq!(slot_of(&arena, head, &at, k), slot);
    }

    /// Counts the read events a traced backend reports.
    #[derive(Default)]
    struct ReadEvents(core::sync::atomic::AtomicU64);

    impl TraceSink for ReadEvents {
        fn begin(&self, _: TraceStamp, _: u64, _: u64) {}
        fn op(&self, _: u64, _: u64, _: usize, op: TraceOp) {
            if matches!(op, TraceOp::Read(_)) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        fn acquire(&self, _: u64, _: u64, _: usize) {}
        fn release(&self, _: u64, _: u64, _: usize) {}
        fn commit(&self, _: u64, _: u64) {}
        fn abort(&self, _: u64, _: u64) {}
    }

    /// A `contains` that walks `n` nodes makes `n + 1` transactional reads:
    /// the head's link and each node's `next`, never a key.
    #[test]
    fn a_traversal_step_is_one_transactional_read() {
        use crate::hashset::HashSet;
        use crate::linkedlist::LinkedListSet;
        use crate::set::SetExt;

        const N: i64 = 20;
        let sink = std::sync::Arc::new(ReadEvents::default());
        let at = Atomic::new(OeStm::with_config(
            StmConfig::default().with_trace_sink(sink.clone()),
        ));
        let list = LinkedListSet::new();
        // Four buckets; every key is 1 mod 4, so all N share bucket 1.
        let hash = HashSet::new(4);
        for i in 1..=N {
            assert!(list.add(&at, i));
            assert!(hash.add(&at, 4 * i + 1));
        }
        let reads = |contains: &dyn Fn() -> bool| {
            sink.0.store(0, Ordering::Relaxed);
            assert!(!contains(), "the probe is past the last key");
            sink.0.load(Ordering::Relaxed)
        };
        let n = N as u64;
        assert_eq!(reads(&|| list.contains(&at, N + 1)), n + 1, "list");
        assert_eq!(reads(&|| hash.contains(&at, 4 * N + 5)), n + 1, "bucket");
        assert_eq!(core::mem::size_of::<ListNode>(), 24, "a key and a link");
    }
}
