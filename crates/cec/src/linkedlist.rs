//! `LinkedListSet` — the sorted-linked-list set of the paper's e.e.c
//! package (evaluated in Fig. 6).
//!
//! Linear-time traversals make this structure the best showcase for
//! elastic transactions: a classic transaction conflicts with any update
//! anywhere behind its traversal point, while an elastic one only
//! conflicts inside its two-read window.

use crate::arena::Arena;
use crate::listcore::{self, ListNode};
use crate::set::{OpScratch, SetOps};
use crossbeam::epoch::Guard;
use stm_core::api::{Atomic, AtomicBackend, Policy};
use stm_core::{Abort, Transaction};

/// A transactional sorted linked-list set of `i64` keys.
///
/// STM-agnostic: the same structure runs under TL2, LSA, SwissTM, OE-STM
/// or E-STM — the building blocks are generic over the SPI [`Transaction`] and the
/// atomic wrappers over any [`Atomic`] runner.
#[derive(Debug)]
pub struct LinkedListSet {
    arena: Arena<ListNode>,
    head: u64,
}

impl Default for LinkedListSet {
    fn default() -> Self {
        Self::new()
    }
}

impl LinkedListSet {
    /// An empty set.
    #[must_use]
    pub fn new() -> Self {
        let arena = Arena::new();
        let head = listcore::new_sentinel(&arena);
        Self { arena, head }
    }

    /// Collect the elements in ascending order inside an ambient
    /// transaction (atomic under a regular transaction). Test/debug aid.
    pub fn snapshot_in<'e, T: stm_core::Transaction<'e>>(
        &'e self,
        tx: &mut T,
    ) -> Result<Vec<i64>, Abort> {
        listcore::snapshot_in(&self.arena, self.head, tx)
    }

    /// Collect the elements atomically in their own regular transaction.
    pub fn snapshot<B: AtomicBackend>(&self, at: &Atomic<B>) -> Vec<i64> {
        let _guard = crate::arena::pin();
        at.run(Policy::Regular, |tx| self.snapshot_in(tx))
    }
}

impl SetOps for LinkedListSet {
    fn contains_in<'e, T: Transaction<'e>>(&'e self, tx: &mut T, key: i64) -> Result<bool, Abort> {
        listcore::check_key(key);
        listcore::contains_in(&self.arena, self.head, tx, key)
    }

    fn add_in<'e, T: Transaction<'e>>(
        &'e self,
        tx: &mut T,
        key: i64,
        scratch: &mut OpScratch,
    ) -> Result<bool, Abort> {
        listcore::check_key(key);
        listcore::add_in(&self.arena, self.head, tx, key, scratch)
    }

    fn remove_in<'e, T: Transaction<'e>>(
        &'e self,
        tx: &mut T,
        key: i64,
        scratch: &mut OpScratch,
    ) -> Result<bool, Abort> {
        listcore::check_key(key);
        listcore::remove_in(&self.arena, self.head, tx, key, scratch)
    }

    fn len_in<'e, T: Transaction<'e>>(&'e self, tx: &mut T) -> Result<usize, Abort> {
        listcore::len_in(&self.arena, self.head, tx)
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
    use stm_tl2::Tl2;

    fn basic_ops<B: AtomicBackend>(stm: &Atomic<B>) {
        let set = LinkedListSet::new();
        assert!(!set.contains(stm, 5));
        assert!(set.add(stm, 5));
        assert!(!set.add(stm, 5), "duplicate insert must fail");
        assert!(set.add(stm, 3));
        assert!(set.add(stm, 7));
        assert!(set.contains(stm, 3));
        assert!(set.contains(stm, 5));
        assert!(set.contains(stm, 7));
        assert!(!set.contains(stm, 4));
        assert_eq!(set.size(stm), 3);
        assert_eq!(set.snapshot(stm), vec![3, 5, 7]);
        assert!(set.remove(stm, 5));
        assert!(!set.remove(stm, 5), "double remove must fail");
        assert!(!set.contains(stm, 5));
        assert_eq!(set.snapshot(stm), vec![3, 7]);
        assert_eq!(set.size(stm), 2);
    }

    #[test]
    fn basic_ops_under_tl2() {
        basic_ops(&Atomic::new(Tl2::new()));
    }

    #[test]
    fn basic_ops_under_oestm() {
        basic_ops(&Atomic::new(OeStm::new()));
    }

    #[test]
    fn add_all_and_remove_all_compose() {
        let stm = Atomic::new(OeStm::new());
        let set = LinkedListSet::new();
        assert!(set.add_all(&stm, &[4, 2, 9, 2]));
        assert_eq!(set.snapshot(&stm), vec![2, 4, 9]);
        assert!(!set.add_all(&stm, &[2, 4]), "no change expected");
        assert!(set.remove_all(&stm, &[2, 9, 100]));
        assert_eq!(set.snapshot(&stm), vec![4]);
        assert!(!set.remove_all(&stm, &[2, 9]), "already gone");
    }

    #[test]
    fn insert_if_absent_behaviour() {
        let stm = Atomic::new(OeStm::new());
        let set = LinkedListSet::new();
        set.add(&stm, 1);
        assert!(set.insert_if_absent(&stm, 10, 99), "99 absent → insert 10");
        assert!(set.contains(&stm, 10));
        assert!(!set.insert_if_absent(&stm, 20, 1), "1 present → no insert");
        assert!(!set.contains(&stm, 20));
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn sentinel_key_rejected() {
        let stm = Atomic::new(OeStm::new());
        let set = LinkedListSet::new();
        set.add(&stm, i64::MIN);
    }

    #[test]
    fn removed_slot_is_recycled_after_epoch() {
        let stm = Atomic::new(OeStm::new());
        let set = LinkedListSet::new();
        set.add(&stm, 1);
        let hw_before = set.arena.high_water();
        set.remove(&stm, 1);
        // Churn one slot: each round waits for the slot the previous one
        // retired, so the next add can take it.
        for round in 0..64 {
            let back = set.arena.await_free();
            assert!(
                back.is_some(),
                "round {round}: the retired slot never came back"
            );
            set.add(&stm, 2);
            set.remove(&stm, 2);
        }
        let growth = set.arena.high_water() - hw_before;
        assert!(
            growth < 64,
            "slots must be recycled, arena grew by {growth}"
        );
    }

    #[test]
    fn concurrent_disjoint_inserts_all_land() {
        use std::sync::Arc;
        let stm = Arc::new(Atomic::new(OeStm::new()));
        let set = Arc::new(LinkedListSet::new());
        let threads = stm_core::parallel::worker_threads(4) as i64;
        let mut handles = Vec::new();
        for t in 0..threads {
            let stm = Arc::clone(&stm);
            let set = Arc::clone(&set);
            handles.push(std::thread::spawn(move || {
                for k in 0..100 {
                    assert!(set.add(&*stm, t * 1000 + k));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(set.size(&*stm), threads as usize * 100);
        for t in 0..threads {
            for k in 0..100 {
                assert!(set.contains(&*stm, t * 1000 + k));
            }
        }
    }

    #[test]
    fn concurrent_same_key_add_remove_keeps_invariants() {
        use std::sync::Arc;
        let stm = Arc::new(Atomic::new(OeStm::new()));
        let set = Arc::new(LinkedListSet::new());
        // Adjacent keys force the remove/remove and add/remove races the
        // dead-marker protocol exists for.
        for k in 0..8 {
            set.add(&*stm, k);
        }
        let mut handles = Vec::new();
        for t in 0..stm_core::parallel::worker_threads(4) as i64 {
            let stm = Arc::clone(&stm);
            let set = Arc::clone(&set);
            handles.push(std::thread::spawn(move || {
                let mut balance = 0i64; // (successful adds) - (successful removes) per key 0..8
                for i in 0..2000 {
                    let k = (i + t) % 8;
                    if i % 2 == 0 {
                        if set.remove(&*stm, k) {
                            balance -= 1;
                        }
                    } else if set.add(&*stm, k) {
                        balance += 1;
                    }
                }
                balance
            }));
        }
        let net: i64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        // Initial 8 elements + net additions must equal the final size.
        let final_size = set.size(&*stm) as i64;
        assert_eq!(final_size, 8 + net, "lost or duplicated updates detected");
        // And the snapshot must be sorted and duplicate-free.
        let snap = set.snapshot(&*stm);
        let mut sorted = snap.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(snap, sorted);
    }
}
