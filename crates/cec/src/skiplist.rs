//! `SkipListSet` — the skip-list set of the paper's e.e.c package
//! (Fig. 5 pseudocode; evaluated in Fig. 7).
//!
//! A transactional skip list with geometrically distributed tower heights.
//! Search descends from the head tower; under an elastic transaction only
//! the last two reads stay protected, so the O(log n) descent does not
//! conflict with updates elsewhere. Updates harden the transaction at
//! their first write and then **re-read every predecessor link under full
//! protection** before redirecting it — upper-level predecessors found
//! during the relaxed descent are never trusted blindly.
//!
//! Removal follows the same dead-marker protocol as the linked list
//! (`listcore`), applied to every level of the tower: unlinking and
//! writing successor-preserving dead markers ([`NodeRef::dead`]) into all
//! of the victim's `next` pointers is one atomic transaction, so
//!
//! * adjacent removals and insert-after-victim races always overlap on a
//!   written location and are detected, and
//! * stale elastic traversers standing on a removed tower read the marker
//!   and either retry (correct backends — the tower is unreachable, the
//!   sighting transient) or **repair** the still-pointing predecessor link
//!   in-transaction and continue, exactly as `listcore::find` does. The
//!   repair path is what keeps traversals terminating when the E-STM
//!   compatibility backend's Fig. 1 bug commits a dead tower without its
//!   redirects, leaving it permanently reachable.

use crate::arena::Arena;
use crate::noderef::NodeRef;
use crate::set::{OpScratch, SetOps};
use crossbeam::epoch::Guard;
use std::cell::Cell;
use stm_core::{Abort, AbortReason, TVar, Transaction};

/// Maximum tower height. 2^16 expected elements per level-16 node; plenty
/// for the paper's 2^12-element workloads and beyond.
pub const MAX_LEVEL: usize = 16;

/// One skip-list node: a key, its tower height, and one link per level.
///
/// All fields are transactional, the key included, although the argument
/// that lets a list node's key be a plain word (see
/// [`ListNode`](crate::listcore::ListNode)) carries over now that a
/// removal redirects every in-link of its tower (see `in_link`): a
/// published slot is never reachable once retired.
#[derive(Debug)]
pub struct SkipNode {
    key: TVar<i64>,
    /// Tower height in `1..=MAX_LEVEL`; links `next[level..]` are unused.
    level: TVar<u64>,
    next: [TVar<NodeRef>; MAX_LEVEL],
}

impl Default for SkipNode {
    fn default() -> Self {
        Self {
            key: TVar::new(0),
            level: TVar::new(1),
            next: core::array::from_fn(|_| TVar::new(NodeRef::NULL)),
        }
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
        h.key.store_atomic(i64::MIN, 0);
        h.level.store_atomic(MAX_LEVEL as u64, 0);
        Self { arena, head }
    }

    fn node(&self, idx: u64) -> &SkipNode {
        self.arena.get(idx)
    }

    /// Descend towards `key`, recording the insertion point at every
    /// level. Crossing a removed tower aborts (`Explicit`) when the
    /// committed removal already redirected the link, or repairs the link
    /// in place when a relaxed backend left it pointing at the corpse
    /// (see `listcore::find`). Aborts (`StepBound`) past the defensive
    /// traversal bound.
    fn locate<'e, T: Transaction<'e>>(&'e self, tx: &mut T, key: i64) -> Result<FindResult, Abort> {
        let bound = 4 * self.arena.high_water() + 4 * MAX_LEVEL as u64 + 64;
        let mut steps: u64 = 0;
        let mut preds = [self.head; MAX_LEVEL];
        let mut succs = [NodeRef::NULL; MAX_LEVEL];
        let mut succ0_key = None;
        let mut pred = self.head;
        // `pred`'s key, tracked by value across levels. Keys ascend
        // strictly along every level's links in every committed state
        // (and are immutable while published; epoch pinning blocks slot
        // reuse mid-walk), so an observed inversion proves a relaxed
        // backend committed stale redirects — possibly closing a cycle
        // that would turn the step bound into a permanent livelock.
        // Inverted nodes are unlinked on sight, like `listcore::find`.
        let mut last_key = i64::MIN;
        for l in (0..MAX_LEVEL).rev() {
            // Predecessor of `pred` at this level, once we have advanced
            // at least one hop (the inherited entry point has none).
            let mut prev: Option<u64> = None;
            let mut curr = tx.read(&self.node(pred).next[l])?;
            loop {
                if curr.is_dead() {
                    // `pred` was removed under us. Without a same-level
                    // previous link in hand to repair through — the dead
                    // value came straight from the entry point inherited
                    // from the level above (a corpse with a live upper
                    // link but a dead link here: a mixed tower, which
                    // only a relaxed backend's stale redirects can
                    // commit) — re-enter this level from the head
                    // sentinel, whose links are never dead.
                    let Some(p0) = prev else {
                        pred = self.head;
                        last_key = i64::MIN;
                        curr = tx.read(&self.node(pred).next[l])?;
                        steps += 1;
                        if steps > bound {
                            return Err(Abort::new(AbortReason::StepBound));
                        }
                        continue;
                    };
                    let pn = tx.read(&self.node(p0).next[l])?;
                    if pn != NodeRef::node(pred) {
                        return Err(Abort::new(AbortReason::Explicit));
                    }
                    tx.write(&self.node(p0).next[l], curr.successor())?;
                    pred = p0;
                    curr = curr.successor();
                    prev = None;
                    steps += 1;
                    if steps > bound {
                        return Err(Abort::new(AbortReason::StepBound));
                    }
                    continue;
                }
                if !curr.is_node() {
                    break;
                }
                let c = curr.index();
                let ck = tx.read(&self.node(c).key)?;
                if ck < key {
                    if ck <= last_key {
                        // Key-order inversion: committed corruption (see
                        // `last_key`). Unlink `curr` at this level with a
                        // validated write; a self-loop is cut to the
                        // terminator.
                        let next = if c == pred {
                            NodeRef::NULL
                        } else {
                            let n = tx.read(&self.node(c).next[l])?;
                            if n.is_dead() {
                                n.successor()
                            } else {
                                n
                            }
                        };
                        tx.write(&self.node(pred).next[l], next)?;
                        curr = next;
                        steps += 1;
                        if steps > bound {
                            return Err(Abort::new(AbortReason::StepBound));
                        }
                        continue;
                    }
                    let next = tx.read(&self.node(c).next[l])?;
                    prev = Some(pred);
                    pred = c;
                    last_key = ck;
                    curr = next;
                } else {
                    if l == 0 {
                        succ0_key = Some(ck);
                    }
                    break;
                }
                steps += 1;
                if steps > bound {
                    return Err(Abort::new(AbortReason::StepBound));
                }
            }
            preds[l] = pred;
            succs[l] = curr;
        }
        Ok(FindResult {
            preds,
            succs,
            succ0_key,
        })
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
        let mut pred = from;
        let mut last_key = i64::MIN;
        loop {
            let curr = tx.read(&self.node(pred).next[l])?;
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
            let k = tx.read(&self.node(curr.index()).key)?;
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
        let level = tx.read(&victim.level)? as usize;
        let c0 = tx.read(&victim.next[0])?;
        if c0.is_dead() {
            // Concurrently removed; linearize after that removal.
            return Ok(false);
        }
        // Logical delete: hardens the transaction with {victim.level,
        // victim.next[0]} protected. The marker preserves the successor so
        // traversals can repair past a corpse left reachable by a relaxed
        // backend's redirect-less commit.
        tx.write(&victim.next[0], NodeRef::dead(c0))?;
        for l in 0..level {
            // Current successor at this level (for l = 0 we captured it
            // before overwriting with DEAD).
            let cl = if l == 0 {
                c0
            } else {
                let v = tx.read(&victim.next[l])?;
                if v.is_dead() {
                    // Already marked at this level while level 0 was live:
                    // a mixed tower, possible only when a relaxed backend's
                    // stale redirect resurrected a lower link of an earlier
                    // removal's corpse. Nothing left to unlink here.
                    continue;
                }
                v
            };
            let pred = if l == 0 {
                // Re-read the level-0 predecessor link under full
                // protection: membership is decided here, so a changed
                // insertion point means retry.
                let pn = tx.read(&self.node(f.preds[0]).next[0])?;
                if pn != NodeRef::node(c) {
                    return Err(Abort::new(AbortReason::Explicit));
                }
                f.preds[0]
            } else if let Some(p) = self.in_link(tx, f.preds[l], l, c, key)? {
                p
            } else {
                // The victim is not linked at this level (a relaxed
                // backend corrupted the index levels). Level 0 stays
                // authoritative for membership: mark the level dead so any
                // remaining in-link repairs on sight, and skip the
                // redirect.
                tx.write(&victim.next[l], NodeRef::dead(cl))?;
                continue;
            };
            tx.write(&self.node(pred).next[l], cl)?;
            tx.write(&victim.next[l], NodeRef::dead(cl))?;
        }
        scratch.unlinked.push(c);
        Ok(true)
    }
}

impl SetOps for SkipListSet {
    fn contains_in<'e, T: Transaction<'e>>(&'e self, tx: &mut T, key: i64) -> Result<bool, Abort> {
        crate::listcore::check_key(key);
        let f = self.locate(tx, key)?;
        Ok(f.succ0_key == Some(key))
    }

    fn add_in<'e, T: Transaction<'e>>(
        &'e self,
        tx: &mut T,
        key: i64,
        scratch: &mut OpScratch,
    ) -> Result<bool, Abort> {
        crate::listcore::check_key(key);
        let f = self.locate(tx, key)?;
        if f.succ0_key == Some(key) {
            return Ok(false);
        }
        let level = random_level();
        let n = self.arena.alloc();
        scratch.allocated.push(n);
        let node = self.node(n);
        // First write hardens the transaction; the elastic window holds
        // the level-0 insertion point {pred0.next[0], succ0.key}.
        tx.write(&node.key, key)?;
        tx.write(&node.level, level as u64)?;
        for l in 0..level {
            tx.write(&node.next[l], f.succs[l])?;
        }
        // Link bottom-up, re-reading each predecessor link under full
        // (hardened) protection. A mismatch means a concurrent update beat
        // us to this insertion point: retry the operation.
        for l in 0..level {
            let pn = tx.read(&self.node(f.preds[l]).next[l])?;
            if pn != f.succs[l] {
                return Err(Abort::new(AbortReason::Explicit));
            }
            tx.write(&self.node(f.preds[l]).next[l], NodeRef::node(n))?;
        }
        Ok(true)
    }

    fn remove_in<'e, T: Transaction<'e>>(
        &'e self,
        tx: &mut T,
        key: i64,
        scratch: &mut OpScratch,
    ) -> Result<bool, Abort> {
        crate::listcore::check_key(key);
        let f = self.locate(tx, key)?;
        self.unlink(tx, &f, key, scratch)
    }

    fn len_in<'e, T: Transaction<'e>>(&'e self, tx: &mut T) -> Result<usize, Abort> {
        // Walk level 0.
        let bound = 2 * self.arena.high_water() + 64;
        let mut steps: u64 = 0;
        let mut count = 0usize;
        let mut curr = tx.read(&self.node(self.head).next[0])?;
        while !curr.is_null() {
            if curr.is_dead() {
                // Reachable corpse (relaxed backends only): skip through
                // the preserved successor instead of wedging.
                curr = curr.successor();
            } else {
                count += 1;
                curr = tx.read(&self.node(curr.index()).next[0])?;
            }
            steps += 1;
            if steps > bound {
                // Committed cycle (relaxed backends only): return the
                // truncated (relaxed) count rather than retrying against
                // corruption that will never heal.
                break;
            }
        }
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
            let mut curr = set.node(set.head).next[l].load_atomic();
            while curr.is_node() {
                let n = set.node(curr.index());
                let k = n.key.load_atomic();
                assert!(k > last, "level {l}: {k} follows {last}");
                assert!(
                    !n.next[0].load_atomic().is_dead(),
                    "level {l}: a link into removed {k}"
                );
                assert!(
                    l < n.level.load_atomic() as usize,
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
                set.node(set.head).next[l].load_atomic().is_null(),
                "level {l}"
            );
        }
    }

    /// A fresh slot holding `key` with a `level`-high tower of null links,
    /// for fabricating states no schedule reaches deterministically.
    fn fabricate(set: &SkipListSet, key: i64, level: u64) -> u64 {
        let n = set.arena.alloc();
        set.node(n).key.store_atomic(key, 0);
        set.node(n).level.store_atomic(level, 0);
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
            set.node(x).next[1].load_atomic().is_null(),
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
            let s = tx.read(&set.node(n2).next[0])?;
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
