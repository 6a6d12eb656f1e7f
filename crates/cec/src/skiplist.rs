//! `SkipListSet` — the skip-list set of the paper's e.e.c package
//! (Fig. 5 pseudocode; evaluated in Fig. 7).
//!
//! A transactional skip list with geometrically distributed tower heights.
//! Each level's links form a sorted chain of plain keys and [`Link`]s, the
//! shape of a `listcore` list, and a search descends them through
//! `listcore`'s own walk: level by level from the head tower, each level
//! entered at the predecessor the level above ended on, one step budget
//! over the whole descent. Under an elastic transaction only the last two
//! reads stay protected, so the O(log n) descent does not conflict with
//! updates elsewhere. Updates harden the transaction at their first write
//! and then **re-read every predecessor link under full protection**
//! before redirecting it — upper-level predecessors found during the
//! relaxed descent are never trusted blindly.
//!
//! Removal follows the same dead-marker protocol as the linked list
//! (`listcore`), applied to every level of the tower: unlinking and
//! writing successor-preserving dead markers ([`NodeRef::dead`]) into all
//! of the victim's links is one atomic transaction, so
//!
//! * adjacent removals and insert-after-victim races always overlap on a
//!   written location and are detected, and
//! * stale elastic traversers standing on a removed tower read the marker
//!   and either retry (correct backends — the tower is unreachable, the
//!   sighting transient) or **repair** the still-pointing predecessor link
//!   in-transaction and continue: the walk is `listcore`'s, repairs
//!   included. The repair path is what keeps traversals terminating when
//!   the E-STM compatibility backend's Fig. 1 bug commits a dead tower
//!   without its redirects, leaving it permanently reachable.

use crate::arena::Arena;
use crate::listcore::{self, read_next, write_next, Budget, Chain, Entry};
use crate::noderef::NodeRef;
use crate::set::{OpScratch, SetOps};
use core::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use crossbeam::epoch::Guard;
use std::cell::Cell;
use stm_core::{Abort, AbortReason, Link, Transaction};

/// Maximum tower height. 2^16 expected elements per level-16 node; plenty
/// for the paper's 2^12-element workloads and beyond.
pub const MAX_LEVEL: usize = 16;

/// One skip-list node: a plain key, a plain tower height and one [`Link`]
/// per level, 144 bytes.
///
/// The key and the height are stored once per use of the slot, before any
/// link to it is written, and cannot change while a pinned traverser can
/// reach the slot: the argument that makes a list node's key a plain word
/// (see [`ListNode`](crate::listcore::ListNode)) holds at every level,
/// because a removal redirects every in-link of its tower (see `in_link`),
/// so a retired slot is linked at no level. A hop of a descent is one
/// transactional read, of a link.
#[derive(Debug, Default)]
pub struct SkipNode {
    key: AtomicI64,
    /// Tower height in `1..=MAX_LEVEL`; links `next[level..]` are unused.
    level: AtomicU64,
    next: [Link; MAX_LEVEL],
}

/// One level of the skip list, `Level(arena, l)`: the chain its nodes'
/// level-`l` links form.
#[derive(Clone, Copy)]
struct Level<'e>(&'e Arena<SkipNode>, usize);

impl<'e> Chain<'e> for Level<'e> {
    #[inline]
    fn node(self, idx: u64) -> (i64, &'e Link) {
        let node = self.0.get(idx);
        (node.key.load(Ordering::Relaxed), &node.next[self.1])
    }
}

/// A transactional skip-list set of `i64` keys. STM-agnostic.
#[derive(Debug)]
pub struct SkipListSet {
    arena: Arena<SkipNode>,
    head: u64,
}

impl Default for SkipListSet {
    fn default() -> Self {
        Self::new()
    }
}

/// Geometric (p = 1/2) tower height in `1..=MAX_LEVEL`, from a per-thread
/// xorshift generator.
fn random_level() -> usize {
    thread_local! {
        static RNG: Cell<u64> = const { Cell::new(0) };
    }
    RNG.with(|rng| {
        let mut x = rng.get();
        if x == 0 {
            // Seed lazily from a global ticket so threads decorrelate.
            x = stm_core::ticket::next_ticket().get() | (1 << 32);
        }
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        rng.set(x);
        let bits = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
        ((bits.trailing_ones() as usize) + 1).min(MAX_LEVEL)
    })
}

/// Result of a descent: per-level predecessors and successors.
struct FindResult {
    preds: [u64; MAX_LEVEL],
    succs: [NodeRef; MAX_LEVEL],
    /// The level-0 successor's key, if it is a node.
    succ0_key: Option<i64>,
}

impl SkipListSet {
    /// An empty set.
    #[must_use]
    pub fn new() -> Self {
        let arena: Arena<SkipNode> = Arena::new();
        let head = arena.alloc();
        let h = arena.get(head);
        h.key.store(i64::MIN, Ordering::Relaxed);
        h.level.store(MAX_LEVEL as u64, Ordering::Relaxed);
        Self { arena, head }
    }

    fn node(&self, idx: u64) -> &SkipNode {
        self.arena.get(idx)
    }

    /// Descend towards `key`, recording the insertion point at every
    /// level: `listcore`'s walk on each level, entered at the level
    /// above's predecessor, with one step budget over the descent. A
    /// removed tower on the way is repaired or retried as in
    /// `listcore::find`, and a level entered at a corpse starts over from
    /// the head.
    fn locate<'e, T: Transaction<'e>>(&'e self, tx: &mut T, key: i64) -> Result<FindResult, Abort> {
        listcore::check_key(key);
        let mut budget = Budget(4 * self.arena.high_water() + 4 * MAX_LEVEL as u64 + 64);
        let mut f = FindResult {
            preds: [self.head; MAX_LEVEL],
            succs: [NodeRef::NULL; MAX_LEVEL],
            succ0_key: None,
        };
        let mut pred = self.head;
        for l in (0..MAX_LEVEL).rev() {
            let from = Entry {
                head: self.head,
                pred,
            };
            let at = listcore::walk(Level(&self.arena, l), tx, from, key, &mut budget)?;
            // Level 0 comes last: its key is the one `succ0_key` keeps.
            (f.preds[l], f.succs[l], f.succ0_key) = (at.pred, at.curr, at.curr_key);
            pred = at.pred;
        }
        Ok(f)
    }

    /// The node whose level-`l` link points at slot `c` (key `key`),
    /// found by walking level `l` from `from` with protected reads (the
    /// caller has hardened). `None` when the walk reaches a key `>= key`,
    /// a key inversion or the end first: `c` is not linked at this level.
    ///
    /// A removal must redirect *every* in-link of its victim's tower. The
    /// relaxed descent's predecessor can be stale by the time the removal
    /// hardens — a concurrent insert may have landed between it and the
    /// victim — and a redirect skipped there would leave that insert's
    /// link pointing at a slot that is retired once the removal commits.
    /// Epoch pinning protects traversers pinned before a retirement, not
    /// links left in the structure: once the slot is reused, the stale
    /// link splices a foreign node into this level, whose key an elastic
    /// descent reads levels before it relies on the node's level-0 link.
    fn in_link<'e, T: Transaction<'e>>(
        &'e self,
        tx: &mut T,
        from: u64,
        l: usize,
        c: u64,
        key: i64,
    ) -> Result<Option<u64>, Abort> {
        let level = Level(&self.arena, l);
        let mut pred = from;
        let mut last_key = i64::MIN;
        loop {
            let curr = read_next(tx, level.node(pred).1)?;
            if curr == NodeRef::node(c) {
                return Ok(Some(pred));
            }
            if curr.is_dead() {
                // `pred` was removed since the descent: retry afresh.
                return Err(Abort::new(AbortReason::Explicit));
            }
            if !curr.is_node() {
                return Ok(None);
            }
            let k = level.node(curr.index()).0;
            if k >= key || k <= last_key {
                return Ok(None);
            }
            last_key = k;
            pred = curr.index();
        }
    }

    /// The removal proper, from the descent `f` for `key`: logically
    /// delete the level-0 successor if it holds `key`, then unlink its
    /// tower level by level.
    fn unlink<'e, T: Transaction<'e>>(
        &'e self,
        tx: &mut T,
        f: &FindResult,
        key: i64,
        scratch: &mut OpScratch,
    ) -> Result<bool, Abort> {
        if f.succ0_key != Some(key) {
            return Ok(false);
        }
        let c = f.succs[0].index();
        let victim = self.node(c);
        let c0 = read_next(tx, &victim.next[0])?;
        if c0.is_dead() {
            // Concurrently removed; linearize after that removal.
            return Ok(false);
        }
        // Logical delete: hardens the transaction with {pred0.next[0],
        // victim.next[0]} protected. The marker preserves the successor so
        // traversals can repair past a corpse left reachable by a relaxed
        // backend's redirect-less commit.
        write_next(tx, &victim.next[0], NodeRef::dead(c0))?;
        // Re-read the level-0 predecessor link under full protection:
        // membership is decided here, so a changed insertion point means
        // retry.
        let in0 = &self.node(f.preds[0]).next[0];
        if read_next(tx, in0)? != NodeRef::node(c) {
            return Err(Abort::new(AbortReason::Explicit));
        }
        write_next(tx, in0, c0)?;
        for l in 1..victim.level.load(Ordering::Relaxed) as usize {
            let cl = read_next(tx, &victim.next[l])?;
            if cl.is_dead() {
                // Already marked at this level while level 0 was live: a
                // mixed tower, possible only when a relaxed backend's
                // stale redirect resurrected a lower link of an earlier
                // removal's corpse. Nothing left to unlink here.
                continue;
            }
            // With no in-link at this level (a relaxed backend corrupted
            // the index levels) level 0 stays authoritative for
            // membership: the dead mark alone makes any remaining in-link
            // repair on sight.
            if let Some(p) = self.in_link(tx, f.preds[l], l, c, key)? {
                write_next(tx, &self.node(p).next[l], cl)?;
            }
            write_next(tx, &victim.next[l], NodeRef::dead(cl))?;
        }
        scratch.unlinked.push(c);
        Ok(true)
    }
}

impl SetOps for SkipListSet {
    fn contains_in<'e, T: Transaction<'e>>(&'e self, tx: &mut T, key: i64) -> Result<bool, Abort> {
        let f = self.locate(tx, key)?;
        Ok(f.succ0_key == Some(key))
    }

    fn add_in<'e, T: Transaction<'e>>(
        &'e self,
        tx: &mut T,
        key: i64,
        scratch: &mut OpScratch,
    ) -> Result<bool, Abort> {
        let f = self.locate(tx, key)?;
        if f.succ0_key == Some(key) {
            return Ok(false);
        }
        let level = random_level();
        let n = self.arena.alloc();
        scratch.allocated.push(n);
        let node = self.node(n);
        // The slot is unreachable until the links below commit: its key
        // and height are plain stores, made before any link to it is
        // written (see `SkipNode`).
        node.key.store(key, Ordering::Relaxed);
        node.level.store(level as u64, Ordering::Relaxed);
        // Link bottom-up. The first write hardens the transaction, whose
        // elastic window holds the level-0 insertion point's link; each
        // predecessor link is then re-read under full protection, and a
        // mismatch means a concurrent update beat us to this insertion
        // point: retry the operation.
        for l in 0..level {
            write_next(tx, &node.next[l], f.succs[l])?;
            let link = &self.node(f.preds[l]).next[l];
            if read_next(tx, link)? != f.succs[l] {
                return Err(Abort::new(AbortReason::Explicit));
            }
            write_next(tx, link, NodeRef::node(n))?;
        }
        Ok(true)
    }

    fn remove_in<'e, T: Transaction<'e>>(
        &'e self,
        tx: &mut T,
        key: i64,
        scratch: &mut OpScratch,
    ) -> Result<bool, Abort> {
        let f = self.locate(tx, key)?;
        self.unlink(tx, &f, key, scratch)
    }

    fn len_in<'e, T: Transaction<'e>>(&'e self, tx: &mut T) -> Result<usize, Abort> {
        // Level 0 links every element.
        let mut count = 0usize;
        let budget = Budget::one_chain(&self.arena);
        listcore::visit(Level(&self.arena, 0), self.head, tx, budget, |_| count += 1)?;
        Ok(count)
    }

    fn release_unpublished(&self, allocated: &mut Vec<u64>) {
        for idx in allocated.drain(..) {
            self.arena.free_unpublished(idx);
        }
    }

    fn retire_unlinked(&self, unlinked: &mut Vec<u64>, guard: &Guard) {
        if unlinked.is_empty() {
            return;
        }
        for idx in unlinked.drain(..) {
            self.arena.retire(idx, guard);
        }
        // Hand the deferred frees to the global collector promptly so
        // slots recycle under steady remove/add churn.
        guard.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set::SetExt;
    use oe_stm::OeStm;
    use stm_core::api::{Atomic, AtomicBackend, Policy};
    use stm_swiss::Swiss;
    use stm_tl2::Tl2;

    fn basic_ops<B: AtomicBackend>(stm: &Atomic<B>) {
        let set = SkipListSet::new();
        assert!(!set.contains(stm, 5));
        for k in [5i64, 3, 8, 1, 9, 7, 2] {
            assert!(set.add(stm, k), "insert {k}");
        }
        for k in [5i64, 3, 8, 1, 9, 7, 2] {
            assert!(set.contains(stm, k), "contains {k}");
            assert!(!set.add(stm, k), "duplicate {k}");
        }
        assert!(!set.contains(stm, 4));
        assert_eq!(set.size(stm), 7);
        assert!(set.remove(stm, 5));
        assert!(!set.remove(stm, 5));
        assert!(!set.contains(stm, 5));
        assert_eq!(set.size(stm), 6);
        // Remove everything.
        for k in [3i64, 8, 1, 9, 7, 2] {
            assert!(set.remove(stm, k), "remove {k}");
        }
        assert_eq!(set.size(stm), 0);
    }

    #[test]
    fn basic_ops_under_oestm() {
        basic_ops(&Atomic::new(OeStm::new()));
    }

    #[test]
    fn basic_ops_under_tl2() {
        basic_ops(&Atomic::new(Tl2::new()));
    }

    #[test]
    fn basic_ops_under_swiss() {
        basic_ops(&Atomic::new(Swiss::new()));
    }

    #[test]
    fn random_levels_are_bounded_and_varied() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let l = random_level();
            assert!((1..=MAX_LEVEL).contains(&l));
            seen.insert(l);
        }
        assert!(seen.len() >= 5, "level distribution too degenerate");
    }

    #[test]
    fn large_ordered_and_reverse_inserts() {
        let stm = Atomic::new(OeStm::new());
        let set = SkipListSet::new();
        for k in 0..500 {
            assert!(set.add(&stm, k));
        }
        for k in (500..1000).rev() {
            assert!(set.add(&stm, k));
        }
        assert_eq!(set.size(&stm), 1000);
        for k in 0..1000 {
            assert!(set.contains(&stm, k), "missing {k}");
        }
    }

    #[test]
    fn add_all_remove_all_compose() {
        let stm = Atomic::new(OeStm::new());
        let set = SkipListSet::new();
        assert!(set.add_all(&stm, &[10, 20, 30]));
        assert_eq!(set.size(&stm), 3);
        assert!(set.remove_all(&stm, &[10, 30]));
        assert_eq!(set.size(&stm), 1);
        assert!(set.contains(&stm, 20));
    }

    #[test]
    fn concurrent_mixed_workload_preserves_balance() {
        use std::sync::Arc;
        let stm = Arc::new(Atomic::new(OeStm::new()));
        let set = Arc::new(SkipListSet::new());
        for k in 0..32 {
            set.add(&*stm, k);
        }
        let mut handles = Vec::new();
        for t in 0..stm_core::parallel::worker_threads(4) as i64 {
            let stm = Arc::clone(&stm);
            let set = Arc::clone(&set);
            handles.push(std::thread::spawn(move || {
                let mut balance = 0i64;
                for i in 0..1500 {
                    let k = (i * 7 + t * 13) % 32;
                    match i % 3 {
                        0 => {
                            if set.add(&*stm, k) {
                                balance += 1;
                            }
                        }
                        1 => {
                            if set.remove(&*stm, k) {
                                balance -= 1;
                            }
                        }
                        _ => {
                            set.contains(&*stm, k);
                        }
                    }
                }
                balance
            }));
        }
        let net: i64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(set.size(&*stm) as i64, 32 + net, "updates lost or doubled");
    }

    /// Check every level of a quiescent set: keys ascend strictly, each
    /// linked node is live and tall enough for the level, and no link
    /// leads into a removed tower.
    fn assert_levels_sound(set: &SkipListSet) {
        for l in 0..MAX_LEVEL {
            let mut last = i64::MIN;
            let mut curr = set.node(set.head).next[l].load_atomic::<NodeRef>();
            while curr.is_node() {
                let n = set.node(curr.index());
                let k = n.key.load(Ordering::Relaxed);
                assert!(k > last, "level {l}: {k} follows {last}");
                assert!(
                    !n.next[0].load_atomic::<NodeRef>().is_dead(),
                    "level {l}: a link into removed {k}"
                );
                assert!(
                    l < n.level.load(Ordering::Relaxed) as usize,
                    "level {l}: {k} linked above its tower"
                );
                last = k;
                curr = n.next[l].load_atomic();
            }
            assert!(curr.is_null(), "level {l} ends in {curr:?}");
        }
    }

    #[test]
    fn concurrent_churn_leaves_no_level_linking_a_removed_tower() {
        use std::sync::Arc;
        let stm = Arc::new(Atomic::new(OeStm::new()));
        let set = Arc::new(SkipListSet::new());
        let handles: Vec<_> = (0..stm_core::parallel::worker_threads(4) as i64)
            .map(|t| {
                let (stm, set) = (Arc::clone(&stm), Arc::clone(&set));
                std::thread::spawn(move || {
                    for i in 0..1500i64 {
                        let k = (i * 5 + t * 11) % 16;
                        if i % 2 == 0 {
                            set.add(&*stm, k);
                        } else {
                            set.remove(&*stm, k);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_levels_sound(&set);
    }

    #[test]
    fn removing_every_key_empties_every_level() {
        let stm = Atomic::new(OeStm::new());
        let set = SkipListSet::new();
        for k in 0..300 {
            assert!(set.add(&stm, k));
        }
        assert_levels_sound(&set);
        for k in (0..300).step_by(2).chain((1..300).step_by(2)) {
            assert!(set.remove(&stm, k), "remove {k}");
        }
        for l in 0..MAX_LEVEL {
            assert!(
                set.node(set.head).next[l]
                    .load_atomic::<NodeRef>()
                    .is_null(),
                "level {l}"
            );
        }
    }

    /// A fresh slot holding `key` with a `level`-high tower of null links,
    /// for fabricating states no schedule reaches deterministically.
    fn fabricate(set: &SkipListSet, key: i64, level: u64) -> u64 {
        let n = set.arena.alloc();
        set.node(n).key.store(key, Ordering::Relaxed);
        set.node(n).level.store(level, Ordering::Relaxed);
        n
    }

    /// Point `from`'s level-`l` link at node `to`.
    fn link(set: &SkipListSet, from: u64, l: usize, to: u64) {
        set.node(from).next[l].store_atomic(NodeRef::node(to), 0);
    }

    #[test]
    fn removal_redirects_an_in_link_its_descent_missed() {
        // head -L0-> b(25) -L0-> c(30), head -L1-> c. The removal's
        // descent for 30 finds pred b at level 0 and head at level 1.
        let at = Atomic::new(OeStm::new());
        let set = SkipListSet::new();
        let head = set.head;
        let (b, c) = (fabricate(&set, 25, 1), fabricate(&set, 30, 2));
        link(&set, head, 0, b);
        link(&set, b, 0, c);
        link(&set, head, 1, c);
        let f = at.run(Policy::Regular, |tx| set.locate(tx, 30));
        assert_eq!((f.preds[0], f.preds[1]), (b, head));
        // Before the removal hardens, an insert of 20 with a two-level
        // tower commits: ahead of b at level 0, so the level-0 insertion
        // point still holds, but between head and c at level 1.
        let x = fabricate(&set, 20, 2);
        link(&set, x, 0, b);
        link(&set, x, 1, c);
        link(&set, head, 0, x);
        link(&set, head, 1, x);
        let mut scratch = OpScratch::default();
        assert!(at.run(Policy::Regular, |tx| set.unlink(tx, &f, 30, &mut scratch)));
        assert_eq!(scratch.unlinked, [c]);
        assert!(
            set.node(x).next[1].load_atomic::<NodeRef>().is_null(),
            "the in-link the descent missed is redirected past the victim"
        );
        assert_levels_sound(&set);
        assert_eq!(set.size(&at), 2);
    }

    #[test]
    fn in_link_walks_to_the_node_linking_the_target() {
        // head -L1-> a(10) -L1-> b(20) -L1-> c(30).
        let at = Atomic::new(OeStm::new());
        let set = SkipListSet::new();
        let head = set.head;
        let (a, b, c) = (
            fabricate(&set, 10, 2),
            fabricate(&set, 20, 2),
            fabricate(&set, 30, 2),
        );
        link(&set, head, 1, a);
        link(&set, a, 1, b);
        link(&set, b, 1, c);
        let found = at.run(Policy::Regular, |tx| {
            Ok([
                set.in_link(tx, head, 1, a, 10)?,
                set.in_link(tx, head, 1, c, 30)?,
                set.in_link(tx, b, 1, c, 30)?,
            ])
        });
        assert_eq!(found, [Some(head), Some(b), Some(b)]);
    }

    #[test]
    fn in_link_reports_a_level_the_target_is_not_linked_at() {
        // head -L1-> a(10) -L1-> c(30); b(20) has a two-level tower but
        // is linked at level 0 only.
        let at = Atomic::new(OeStm::new());
        let set = SkipListSet::new();
        let head = set.head;
        let (a, b, c) = (
            fabricate(&set, 10, 2),
            fabricate(&set, 20, 2),
            fabricate(&set, 30, 2),
        );
        link(&set, head, 1, a);
        link(&set, a, 1, c);
        let found = at.run(Policy::Regular, |tx| {
            Ok([
                // The walk reaches a key >= 20 (c) first.
                set.in_link(tx, head, 1, b, 20)?,
                // The walk runs off the level's end.
                set.in_link(tx, c, 1, b, 40)?,
            ])
        });
        assert_eq!(found, [None, None]);
        // A dead link on the walk means its owner was removed since the
        // descent: the removal retries.
        set.node(a).next[1].store_atomic(NodeRef::dead(NodeRef::node(c)), 1);
        let dead = at.run(Policy::Regular, |tx| {
            Ok(set.in_link(tx, head, 1, c, 30).map_err(|e| e.reason))
        });
        assert_eq!(dead, Err(AbortReason::Explicit));
    }

    /// A redirect-less removal (the compat backend's Fig. 1 shape) leaves
    /// a reachable corpse — possibly a mixed tower, dead at level 0 with
    /// live upper links. Traversals must repair and terminate.
    #[test]
    fn traversal_repairs_a_reachable_corpse() {
        let at = Atomic::new(OeStm::new());
        let set = SkipListSet::new();
        for k in [1i64, 2, 3] {
            assert!(set.add(&at, k));
        }
        // Find the slots for 2 and its level-0 successor 3.
        let (n2, n3) = at.run(stm_core::api::Policy::Regular, |tx| {
            let f = set.locate(tx, 2)?;
            let n2 = f.succs[0].index();
            let s = read_next(tx, &set.node(n2).next[0])?;
            Ok((n2, s.index()))
        });
        // Fabricate the corruption out-of-band: mark 2 dead at level 0,
        // successor preserved, predecessor deliberately not redirected
        // (upper tower links, if any, stay live — a mixed tower).
        set.node(n2).next[0].store_atomic(NodeRef::dead(NodeRef::node(n3)), 1);
        // Any level-0 crossing repairs the link and terminates.
        assert!(set.add(&at, 4));
        assert!(set.contains(&at, 3));
        assert!(!set.contains(&at, 2), "corpse is not a member");
        assert_eq!(set.size(&at), 3);
    }

    /// A `contains` past the last of `N` height-1 towers makes one
    /// transactional read per hop: the head's `MAX_LEVEL` links and each
    /// tower's level-0 link, never a key.
    #[test]
    fn a_descent_hop_is_one_transactional_read() {
        use crate::listcore::tests::ReadEvents;
        use stm_core::StmConfig;

        const N: u64 = 20;
        let sink = std::sync::Arc::new(ReadEvents::default());
        let at = Atomic::new(OeStm::with_config(
            StmConfig::default().with_trace_sink(sink.clone()),
        ));
        let set = SkipListSet::new();
        let mut pred = set.head;
        for k in 1..=N as i64 {
            let n = fabricate(&set, k, 1);
            link(&set, pred, 0, n);
            pred = n;
        }
        assert!(
            !set.contains(&at, N as i64 + 1),
            "the probe is past the end"
        );
        assert_eq!(sink.0.load(Ordering::Relaxed), N + MAX_LEVEL as u64);
        assert_eq!(
            core::mem::size_of::<SkipNode>(),
            144,
            "two words and 16 links"
        );
    }

    #[test]
    fn removed_towers_are_recycled() {
        let stm = Atomic::new(OeStm::new());
        let set = SkipListSet::new();
        for k in 0..16 {
            set.add(&stm, k);
        }
        let hw = set.arena.high_water();
        for round in 0..50 {
            let k = 100 + round;
            set.add(&stm, k);
            set.remove(&stm, k);
            // The next round's add takes the tower this one retired.
            let back = set.arena.await_free();
            assert!(
                back.is_some(),
                "round {round}: the retired tower never came back"
            );
        }
        let growth = set.arena.high_water() - hw;
        assert!(growth < 50, "towers must be recycled, grew {growth}");
    }
}
