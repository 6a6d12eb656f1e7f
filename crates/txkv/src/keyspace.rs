//! The transactional keyspace: `GET`/`SET`/`CAS`/`DEL` as short
//! transactions on one key's two words, `MULTI` as one short transaction
//! on all of its keys' words.
//!
//! Layout: the key universe is the fixed range `0..capacity`, and every
//! key owns two `TVar<u64>`s: its **value slot** and a 0/1 **presence
//! word**, together an [`OptionWord`]. The presence word is the key's
//! membership. Every point
//! operation learns whether its key is present by reading it, a `GET` is
//! that read plus the slot's, and an insert or a delete writes it (1 or
//! 0) in the same transaction that reads or writes the slot. An operation
//! therefore touches only its own keys' words, and two operations
//! conflict only if they share a key. [`KeySpace::len`] is the one query
//! over every key: it sums the presence words in one regular transaction.
//! The pair of words per key is also what the durability seam needs:
//! [`KeySpace::register_durable`] logs both under restart-stable keys and
//! [`KeySpace::restore`] re-installs them.
//!
//! No operation pins an epoch or allocates a node: a key's words live as
//! long as the keyspace, so there is nothing to recycle or retire.
//!
//! A point operation composes nothing, so it runs as a *short*
//! transaction ([`Atomic::short_read`], [`Atomic::short_update`]): on
//! every backend a `GET` is a double collect of the key's two words, and
//! a `SET`/`CAS`/`DEL` locks the words it stores (one of a present key's
//! two), re-checks the other after its stamp and commits through the
//! driver's commit tail, with no transaction object and no log. `MULTI` composes
//! nothing either: its footprint is its key list, known before it runs,
//! so it is the same short update over up to
//! [`MAX_MULTI_SIZE`] keys ([`Atomic::short_update_each`]) — one double
//! collect of every key's words, one lock pass, one commit stamp. Whatever
//! a short operation cannot serve — a word locked or moved under it, or a
//! MULTI over more keys than that — it hands to a regular transaction.
//! [`KeySpace::get_or_insert`] and [`KeySpace::len`] are full
//! transactions under [`Policy::Regular`]: only composed operations need
//! the paper's outheritance. The keyspace is generic over every registry
//! backend — including the deliberately broken E-STM compatibility mode,
//! whose early-released elastic reads would violate multi-word atomicity
//! (presence word vs. value slot). No txkv operation runs elastic, so
//! `MULTI` is atomic on all five backends, which the
//! `txkv_multi_atomicity` oracle battery asserts.

use crate::loadgen::MAX_MULTI_SIZE;
use durable::{DurableHeap, Recovery};
use stm_core::api::{Atomic, AtomicBackend, Policy};
use stm_core::OptionWord;

/// Accepted by [`KeySpace::new`] and ignored: membership is the per-key
/// presence word, so there is no set structure to pick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardKind {
    /// The only variant.
    Hash,
}

/// One key's update decision inside a [`KeySpace::multi`] transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultiOp {
    /// Leave the key unchanged (the read still joins the atomic
    /// footprint).
    Keep,
    /// Upsert the key to this value.
    Put(u64),
    /// Delete the key if present.
    Delete,
}

/// The transactional keyspace. See the module docs for layout.
pub struct KeySpace {
    slots: Vec<stm_core::TVar<u64>>,
    present: Vec<stm_core::TVar<u64>>,
    capacity: usize,
}

/// SplitMix64 finalizer — the rank scatter's hash.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl KeySpace {
    /// A keyspace over keys `0..capacity`, every key absent.
    ///
    /// `kind` and `shards` are ignored: membership is the per-key
    /// presence word, so there is no structure to pick and nothing to
    /// shard.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(_kind: ShardKind, _shards: usize, capacity: usize) -> Self {
        assert!(capacity > 0, "need a non-empty key range");
        Self {
            slots: (0..capacity).map(|_| stm_core::TVar::new(0)).collect(),
            present: (0..capacity).map(|_| stm_core::TVar::new(0)).collect(),
            capacity,
        }
    }

    /// The key universe size (keys are `0..capacity()`).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Scatter a popularity rank over `0..n` (YCSB-style hashed-key
    /// scrambling): rank 0 is the hottest key, but hot keys should not be
    /// neighbours. Neighbouring keys' words share cache lines, so
    /// clustered hot ranks would turn updates of different hot keys into
    /// false sharing between clients; hashing makes popularity
    /// independent of key order.
    #[must_use]
    pub fn scatter(rank: u64, n: u64) -> u64 {
        mix64(rank) % n
    }

    fn index(&self, key: i64) -> usize {
        assert!(
            (0..self.capacity as i64).contains(&key),
            "key {key} outside the keyspace 0..{}",
            self.capacity
        );
        key as usize
    }

    /// The key at `idx` as an optional word: its presence word and its
    /// value slot.
    fn word(&self, idx: usize) -> OptionWord<'_> {
        OptionWord::new(&self.present[idx], &self.slots[idx])
    }

    /// `GET key` — the committed value, or `None` if absent. A short read
    /// of the key's two words (see [`Atomic::short_read`]).
    pub fn get<B: AtomicBackend>(&self, at: &Atomic<B>, key: i64) -> Option<u64> {
        at.short_read(self.word(self.index(key)))
    }

    /// `SET key value` — upsert; returns the previous value, if any.
    pub fn set<B: AtomicBackend>(&self, at: &Atomic<B>, key: i64, value: u64) -> Option<u64> {
        at.short_update(self.word(self.index(key)), &|_| Some(Some(value)))
    }

    /// `CAS key expected new` — write `new` iff the current state equals
    /// `expected` (`None` = absent); returns whether the swap applied. A
    /// mismatch commits read-only.
    pub fn cas<B: AtomicBackend>(
        &self,
        at: &Atomic<B>,
        key: i64,
        expected: Option<u64>,
        new: u64,
    ) -> bool {
        let word = self.word(self.index(key));
        at.short_update(word, &|cur| (cur == expected).then_some(Some(new))) == expected
    }

    /// `DEL key` — remove; returns the deleted value, if any. A DEL of an
    /// absent key commits read-only.
    pub fn del<B: AtomicBackend>(&self, at: &Atomic<B>, key: i64) -> Option<u64> {
        at.short_update(self.word(self.index(key)), &|cur| cur.map(|_| None))
    }

    /// `MULTI` — one atomic read-modify-write over `keys`, as one short
    /// update of their words ([`Atomic::short_update_each`]). `f` sees
    /// each key's position in `keys` and its current value, in key order,
    /// and decides the update; a repeated key sees what its earlier
    /// occurrences decided. It may run several times (a short update that
    /// cannot serve falls back to a regular run), so it must be a pure
    /// function of its inputs. Returns how many keys changed.
    pub fn multi<B, F>(&self, at: &Atomic<B>, keys: &[i64], mut f: F) -> u64
    where
        B: AtomicBackend,
        F: FnMut(usize, Option<u64>) -> MultiOp,
    {
        let mut held = [self.word(0); MAX_MULTI_SIZE];
        let spilled: Vec<OptionWord<'_>>;
        let words = if keys.len() <= held.len() {
            for (w, &key) in held.iter_mut().zip(keys) {
                *w = self.word(self.index(key));
            }
            &held[..keys.len()]
        } else {
            spilled = keys.iter().map(|&key| self.word(self.index(key))).collect();
            &spilled[..]
        };
        let mut changed = 0u64;
        at.short_update_each(words, &mut |i, cur| {
            if i == 0 {
                changed = 0;
            }
            match f(i, cur) {
                MultiOp::Keep => None,
                MultiOp::Put(v) => {
                    changed += 1;
                    Some(Some(v))
                }
                MultiOp::Delete => {
                    changed += u64::from(cur.is_some());
                    Some(None)
                }
            }
        });
        changed
    }

    /// `GET key` with an insert-on-miss fallback, composed with
    /// [`or_else`](Atomic::or_else): the primary branch reads the value
    /// as `GET` does and explicit-retries if the key is absent; the
    /// alternative inserts `default` and returns it, unless another
    /// client inserted the key between the two branches, in which case it
    /// returns that value. Either way the caller observes one atomic
    /// outcome.
    pub fn get_or_insert<B: AtomicBackend>(&self, at: &Atomic<B>, key: i64, default: u64) -> u64 {
        let word = self.word(self.index(key));
        at.or_else(
            Policy::Regular,
            |tx| match word.read(tx)? {
                Some(value) => Ok(value),
                None => tx.retry(),
            },
            |tx| match word.read(tx)? {
                Some(value) => Ok(value),
                None => word.store(tx, None, Some(default)).map(|()| default),
            },
        )
    }

    /// Number of present keys: the sum of every presence word, in one
    /// regular transaction. It reads all `capacity` words, so it costs
    /// O(capacity) and conflicts with any concurrent membership change;
    /// it is for final checks, not for the service path.
    pub fn len<B: AtomicBackend>(&self, at: &Atomic<B>) -> usize {
        at.run(Policy::Regular, |tx| {
            let mut total = 0usize;
            for p in &self.present {
                total += tx.get(p)? as usize;
            }
            Ok(total)
        })
    }

    // ------------------------------------------------------------------
    // Durability seam (PR 8's CommitHook/DurableStore).
    // ------------------------------------------------------------------

    /// Register every key's value slot and presence mirror with a
    /// [`DurableHeap`] under restart-stable names: slot `k` is logged as
    /// key `k`, its presence mirror as `capacity + k`. Call once after
    /// `DurableStore::open`, before installing the store's hook.
    pub fn register_durable(&self, heap: &DurableHeap) {
        for (k, slot) in self.slots.iter().enumerate() {
            heap.register(k as u64, slot.core());
        }
        for (k, p) in self.present.iter().enumerate() {
            heap.register((self.capacity + k) as u64, p.core());
        }
    }

    /// Re-install a recovered image into this (fresh, empty) keyspace by
    /// replaying a `SET` for every key whose presence mirror recovered
    /// as 1. The replayed commits re-log through any installed hook,
    /// which is exactly right: the recovered state is committed state.
    pub fn restore<B: AtomicBackend>(&self, at: &Atomic<B>, recovery: &Recovery) {
        for k in 0..self.capacity {
            let present = recovery
                .values
                .get(&((self.capacity + k) as u64))
                .copied()
                .unwrap_or(0);
            if present == 1 {
                let value = recovery.values.get(&(k as u64)).copied().unwrap_or(0);
                self.set(at, k as i64, value);
            }
        }
    }
}

impl std::fmt::Debug for KeySpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeySpace")
            .field("capacity", &self.capacity)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use stm_core::trace::{TraceOp, TraceSink, TraceStamp};

    fn oe() -> Atomic<oe_stm::OeStm> {
        Atomic::new(oe_stm::OeStm::new())
    }

    #[test]
    fn get_set_cas_del_round_trip() {
        let ks = KeySpace::new(ShardKind::Hash, 1, 128);
        let at = oe();
        assert_eq!(ks.get(&at, 7), None);
        assert_eq!(ks.set(&at, 7, 700), None);
        assert_eq!(ks.get(&at, 7), Some(700));
        assert_eq!(ks.set(&at, 7, 701), Some(700));
        assert!(!ks.cas(&at, 7, Some(700), 999), "stale expected fails");
        assert!(ks.cas(&at, 7, Some(701), 702));
        assert_eq!(ks.get(&at, 7), Some(702));
        assert!(!ks.cas(&at, 8, Some(0), 1), "absent key vs Some fails");
        assert!(ks.cas(&at, 8, None, 800), "absent key vs None inserts");
        assert_eq!(ks.del(&at, 8), Some(800));
        assert_eq!(ks.del(&at, 8), None);
        assert_eq!(ks.len(&at), 1);
    }

    #[test]
    fn multi_crosses_shards_atomically() {
        let ks = KeySpace::new(ShardKind::Hash, 1, 256);
        let at = oe();
        let (a, b) = (1i64, 200i64);
        ks.set(&at, a, 100);
        ks.set(&at, b, 0);
        // Transfer of 40 from a to b.
        let changed = ks.multi(&at, &[a, b], |i, cur| {
            let cur = cur.unwrap_or(0);
            if i == 0 {
                MultiOp::Put(cur - 40)
            } else {
                MultiOp::Put(cur + 40)
            }
        });
        assert_eq!(changed, 2);
        assert_eq!(ks.get(&at, a), Some(60));
        assert_eq!(ks.get(&at, b), Some(40));
        // Keep + Delete in one MULTI.
        let changed = ks.multi(&at, &[a, b], |i, _| {
            if i == 0 {
                MultiOp::Keep
            } else {
                MultiOp::Delete
            }
        });
        assert_eq!(changed, 1);
        assert_eq!(ks.get(&at, b), None);
    }

    /// Two absent keys inserted by one MULTI: a third section finds the
    /// first key again through the presence word the first section
    /// wrote, and `len()` counts both.
    #[test]
    fn multi_finds_the_nodes_its_earlier_sections_inserted() {
        let ks = KeySpace::new(ShardKind::Hash, 1, 4096);
        let at = oe();
        let (lo, hi) = (3i64, 3 + 64);
        let mut seen = None;
        let changed = ks.multi(&at, &[hi, lo, hi], |i, cur| match i {
            0 => MultiOp::Put(10),
            1 => MultiOp::Put(20),
            _ => {
                seen = Some(cur);
                MultiOp::Keep
            }
        });
        assert_eq!(changed, 2);
        assert_eq!(seen, Some(Some(10)), "the third section found hi");
        assert_eq!(ks.get(&at, lo), Some(20));
        assert_eq!(ks.get(&at, hi), Some(10));
        assert_eq!(ks.len(&at), 2);
    }

    /// A MULTI over more keys than the short capacity runs as one regular
    /// transaction: values, the repeated key's view of its earlier
    /// occurrence and the changed count are as on the short path.
    #[test]
    fn a_multi_over_more_keys_than_the_short_capacity_falls_back() {
        let ks = KeySpace::new(ShardKind::Hash, 1, 256);
        let at = oe();
        ks.set(&at, 3, 7);
        let keys: Vec<i64> = (0..MAX_MULTI_SIZE as i64).chain([0]).collect();
        assert_eq!(keys.len(), MAX_MULTI_SIZE + 1);
        let mut seen = None;
        let changed = ks.multi(&at, &keys, |i, cur| match i {
            3 => MultiOp::Keep,
            MAX_MULTI_SIZE => {
                seen = Some(cur);
                MultiOp::Delete
            }
            _ => MultiOp::Put(100 + i as u64),
        });
        assert_eq!(seen, Some(Some(100)), "the repeated key saw its first put");
        assert_eq!(changed, (MAX_MULTI_SIZE - 1) as u64 + 1);
        assert_eq!(ks.get(&at, 0), None);
        assert_eq!(ks.get(&at, 3), Some(7));
        assert_eq!(ks.get(&at, 5), Some(105));
        assert_eq!(ks.len(&at), MAX_MULTI_SIZE - 1);
    }

    /// Counts the read and write events a traced backend reports.
    #[derive(Default)]
    struct WordEvents {
        reads: AtomicU64,
        writes: AtomicU64,
    }

    impl TraceSink for WordEvents {
        fn begin(&self, _: TraceStamp, _: u64, _: u64) {}
        fn op(&self, _: u64, _: u64, _: usize, op: TraceOp) {
            let counter = match op {
                TraceOp::Read(_) => &self.reads,
                TraceOp::Write(_) => &self.writes,
            };
            counter.fetch_add(1, Ordering::Relaxed);
        }
        fn acquire(&self, _: u64, _: u64, _: usize) {}
        fn release(&self, _: u64, _: u64, _: usize) {}
        fn commit(&self, _: u64, _: u64) {}
        fn abort(&self, _: u64, _: u64) {}
    }

    /// A point operation reads and writes its own keys' words only,
    /// however many other keys are present: exact (reads, writes) counts
    /// beside `N` present keys, for lookups, updates and membership
    /// changes alike.
    #[test]
    fn a_point_operation_reads_only_its_keys_words() {
        const N: i64 = 24;
        let sink = Arc::new(WordEvents::default());
        let at = Atomic::new(oe_stm::OeStm::with_config(
            stm_core::StmConfig::default().with_trace_sink(sink.clone()),
        ));
        let ks = KeySpace::new(ShardKind::Hash, 1, 4096);
        let key = |j: i64| 5 + j * 64;
        for j in 0..N {
            ks.set(&at, key(j), j as u64);
        }
        let (present, absent) = (key(N - 1), key(N));
        let footprint = |op: &dyn Fn()| {
            sink.reads.store(0, Ordering::Relaxed);
            sink.writes.store(0, Ordering::Relaxed);
            op();
            (
                sink.reads.load(Ordering::Relaxed),
                sink.writes.load(Ordering::Relaxed),
            )
        };
        let last = Some(N as u64 - 1);
        let hit = footprint(&|| assert_eq!(ks.get(&at, present), last));
        assert_eq!(hit, (2, 0), "GET of a present key");
        let miss = footprint(&|| assert_eq!(ks.get(&at, absent), None));
        assert_eq!(miss, (1, 0), "GET of an absent key");
        let update = footprint(&|| assert_eq!(ks.set(&at, present, 7), last));
        assert_eq!(update, (2, 1), "SET of a present key");
        let del = footprint(&|| assert_eq!(ks.del(&at, absent), None));
        assert_eq!(del, (1, 0), "DEL of an absent key");
        let insert = footprint(&|| assert_eq!(ks.set(&at, absent, 9), None));
        assert_eq!(insert, (1, 2), "SET of an absent key");
        let unlink = footprint(&|| assert_eq!(ks.del(&at, absent), Some(9)));
        assert_eq!(unlink, (2, 1), "DEL of a present key");
        let keys = [key(0), key(1), key(2), key(3)];
        let bump = |_: usize, cur: Option<u64>| MultiOp::Put(cur.expect("present") + 1);
        let multi = footprint(&|| assert_eq!(ks.multi(&at, &keys, bump), 4));
        assert_eq!(multi, (8, 4), "a 4-key MULTI over present keys");
        assert_eq!(ks.len(&at), N as usize);
    }

    #[test]
    fn get_or_insert_takes_the_or_else_path_once() {
        let ks = KeySpace::new(ShardKind::Hash, 1, 32);
        let at = oe();
        assert_eq!(ks.get_or_insert(&at, 3, 33), 33, "fallback inserts");
        assert_eq!(ks.get_or_insert(&at, 3, 99), 33, "primary now serves");
        assert!(at.stats().explicit_retries() > 0, "the miss retried");
    }

    #[test]
    #[should_panic(expected = "outside the keyspace")]
    fn out_of_range_keys_are_rejected() {
        let ks = KeySpace::new(ShardKind::Hash, 1, 32);
        let at = oe();
        let _ = ks.get(&at, 32);
    }
}
