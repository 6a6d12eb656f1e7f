//! `HashSet` — the fixed-bucket hash set of the paper's e.e.c package
//! (evaluated in Fig. 8 with a load factor of 512, i.e. deliberately long
//! bucket chains to stress contention).
//!
//! Buckets are sorted linked lists sharing one node arena. `size()` is a
//! genuinely *composed* operation: one child transaction per bucket, made
//! atomic by outheritance — the operation the paper contrasts with the
//! JDK's non-atomic `ConcurrentSkipListSet.size()`.

use crate::arena::Arena;
use crate::listcore::{self, ListNode};
use crate::set::{OpScratch, SetOps};
use crossbeam::epoch::Guard;
use stm_core::{Abort, Transaction, TxKind};

/// A transactional hash set of `i64` keys with a fixed bucket count.
#[derive(Debug)]
pub struct HashSet {
    arena: Arena<ListNode>,
    buckets: Vec<u64>,
}

impl HashSet {
    /// An empty set with `n_buckets` fixed buckets.
    ///
    /// The paper's Fig. 8 uses `2^12` elements at load factor 512, i.e.
    /// 8 buckets.
    ///
    /// # Panics
    /// Panics if `n_buckets` is zero.
    #[must_use]
    pub fn new(n_buckets: usize) -> Self {
        assert!(n_buckets > 0, "need at least one bucket");
        let arena = Arena::new();
        let buckets = (0..n_buckets)
            .map(|_| listcore::new_sentinel(&arena))
            .collect();
        Self { arena, buckets }
    }

    /// Number of buckets (fixed at construction).
    #[must_use]
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// The head of `key`'s bucket: `key` modulo the bucket count
    /// (Euclidean, so negative keys land in range), which spreads dense
    /// integer key ranges the way the paper's workloads expect. A
    /// power-of-two count takes the mask instead of a division, equal in
    /// two's complement.
    #[inline]
    fn bucket_of(&self, key: i64) -> u64 {
        let n = self.buckets.len();
        let i = if n.is_power_of_two() {
            key as usize & (n - 1)
        } else {
            key.rem_euclid(n as i64) as usize
        };
        self.buckets[i]
    }
}

impl SetOps for HashSet {
    fn contains_in<'e, T: Transaction<'e>>(&'e self, tx: &mut T, key: i64) -> Result<bool, Abort> {
        listcore::contains_in(&self.arena, self.bucket_of(key), tx, key)
    }

    fn add_in<'e, T: Transaction<'e>>(
        &'e self,
        tx: &mut T,
        key: i64,
        scratch: &mut OpScratch,
    ) -> Result<bool, Abort> {
        listcore::add_in(&self.arena, self.bucket_of(key), tx, key, scratch)
    }

    fn remove_in<'e, T: Transaction<'e>>(
        &'e self,
        tx: &mut T,
        key: i64,
        scratch: &mut OpScratch,
    ) -> Result<bool, Abort> {
        listcore::remove_in(&self.arena, self.bucket_of(key), tx, key, scratch)
    }

    fn len_in<'e, T: Transaction<'e>>(&'e self, tx: &mut T) -> Result<usize, Abort> {
        // Composed size: one child per bucket. Under OE-STM every bucket
        // count outherits to the parent, making the total atomic.
        let mut total = 0usize;
        for &head in &self.buckets {
            total += tx.child(TxKind::Regular, |t| listcore::len_in(&self.arena, head, t))?;
        }
        Ok(total)
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
    use stm_core::api::{Atomic, AtomicBackend};
    use stm_lsa::Lsa;

    fn basic_ops<B: AtomicBackend>(stm: &Atomic<B>) {
        let set = HashSet::new(4);
        for k in [-9i64, -1, 0, 1, 5, 8, 12, 13] {
            assert!(set.add(stm, k), "insert {k}");
        }
        for k in [-9i64, -1, 0, 1, 5, 8, 12, 13] {
            assert!(set.contains(stm, k), "contains {k}");
            assert!(!set.add(stm, k), "duplicate {k}");
        }
        assert!(!set.contains(stm, 2));
        assert_eq!(set.size(stm), 8);
        assert!(set.remove(stm, 5));
        assert!(!set.contains(stm, 5));
        assert_eq!(set.size(stm), 7);
    }

    #[test]
    fn basic_ops_under_oestm() {
        basic_ops(&Atomic::new(OeStm::new()));
    }

    #[test]
    fn basic_ops_under_lsa() {
        basic_ops(&Atomic::new(Lsa::new()));
    }

    #[test]
    fn negative_keys_hash_to_valid_buckets() {
        let stm = Atomic::new(OeStm::new());
        let set = HashSet::new(3);
        for k in -50..50 {
            assert!(set.add(&stm, k));
        }
        assert_eq!(set.size(&stm), 100);
    }

    #[test]
    fn single_bucket_degrades_to_list() {
        let stm = Atomic::new(OeStm::new());
        let set = HashSet::new(1);
        assert!(set.add_all(&stm, &[3, 1, 2]));
        assert_eq!(set.size(&stm), 3);
        assert!(set.remove_all(&stm, &[1, 2, 3]));
        assert_eq!(set.size(&stm), 0);
    }

    #[test]
    fn composed_size_is_atomic_under_concurrent_moves() {
        // Writers repeatedly move an element between two buckets with
        // add_all/remove_all pairs; size() must never observe 0 or 2
        // "halves" — the count stays constant.
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let stm = Arc::new(Atomic::new(OeStm::new()));
        let set = Arc::new(HashSet::new(4));
        // 10 stable keys plus one that oscillates between bucket 0 (key 4)
        // and bucket 1 (key 5) via composed move.
        for k in 10..20 {
            set.add(&*stm, k);
        }
        set.add(&*stm, 4);
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let stm = Arc::clone(&stm);
            let set = Arc::clone(&set);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut at4 = true;
                while !stop.load(Ordering::Relaxed) {
                    let (from, to) = if at4 { (4, 5) } else { (5, 4) };
                    crate::compose::move_entry(&*stm, &*set, &*set, from, to);
                    at4 = !at4;
                }
            })
        };
        for _ in 0..300 {
            let n = set.size(&*stm);
            assert_eq!(n, 11, "composed size must be atomic");
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }

    #[test]
    fn bucket_of_agrees_with_rem_euclid() {
        let keys = [
            i64::MIN,
            i64::MIN + 1,
            -65,
            -64,
            -63,
            -2,
            -1,
            0,
            1,
            63,
            64,
            65,
            i64::MAX - 1,
            i64::MAX,
        ];
        for n in [1usize, 2, 3, 7, 8, 63, 64, 65] {
            let set = HashSet::new(n);
            for key in keys {
                let expected = set.buckets[key.rem_euclid(n as i64) as usize];
                assert_eq!(set.bucket_of(key), expected, "key {key}, {n} buckets");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_buckets_rejected() {
        let _ = HashSet::new(0);
    }
}
