//! The sharded transactional keyspace: `GET`/`SET`/`CAS`/`DEL` as single
//! facade transactions, `MULTI` as per-key sections under one parent.
//!
//! Layout: the key universe is the fixed range `0..capacity`. Membership
//! lives in `N` shards of a `cec` set (hash or skip list, picked per
//! [`ShardKind`]); a key's shard is chosen by a SplitMix64 hash of the
//! key, so a multi-key transaction routinely crosses shards. Hash shards
//! put their nodes in one shared arena ([`HashSet::in_arena`]): its
//! first segment holds a paper-size keyspace's nodes (2^13 keys at 50 %
//! fill plus the bucket heads), so eight shards cost one arena's memory,
//! not eight. Skip-list shards keep an arena each. Every key
//! additionally owns two `TVar<u64>`s: its **value slot** and a 0/1
//! **presence mirror**.
//!
//! The mirror is the query path. Every point operation learns whether
//! its key is present by reading the mirror, one word, and a `GET` is
//! that read plus the slot's. The mirror is sound as the membership
//! answer because every transaction that changes membership writes the
//! shard and the mirror together under [`Policy::Regular`]: any snapshot
//! a regular attempt sees has them equal. The shards serve what a word
//! per key cannot: `len()`, the inserts and removes of a membership
//! change, and `MULTI`'s composition of those across shards. A lookup
//! therefore never conflicts with an update to another key of its
//! bucket. The mirror is also what the durability seam needs: sets hide
//! their nodes behind arena indices, so only the `(slot, present)` pair
//! can be registered under restart-stable keys with
//! [`KeySpace::register_durable`] and re-installed by
//! [`KeySpace::restore`].
//!
//! Every operation that can change membership follows the `cec::SetExt`
//! memory-management choreography: pin an epoch guard, recycle slots a
//! previous aborted attempt allocated at the start of each attempt, and
//! retire unlinked slots after commit. `GET` touches no arena node and
//! takes no pin. `MULTI` keeps one [`OpScratch`] per shard because
//! arena slots must be returned to the arena that issued them. Hash
//! shards share theirs, so for them one scratch would do and the
//! per-shard split is merely still correct; skip-list shards each own an
//! arena and need it. The per-shard scratch is a thread-local kept
//! between calls, so a warm `MULTI` allocates nothing.
//!
//! All transactions run under [`Policy::Regular`]. The keyspace is
//! generic over every registry backend — including the deliberately
//! broken E-STM compatibility mode, whose early-released elastic reads
//! would violate multi-word atomicity (set node vs. value slot); regular
//! sections keep `MULTI` atomic on all six backends, which the
//! `txkv_multi_atomicity` oracle battery asserts.

use cec::arena::{pin, Arena};
use cec::{HashSet, OpScratch, SkipListSet, TxSet};
use durable::{DurableHeap, Recovery};
use std::cell::Cell;
use std::sync::Arc;
use stm_core::api::{Atomic, AtomicBackend, Policy, Tx};
use stm_core::Abort;

thread_local! {
    /// This thread's per-shard `MULTI` scratch, kept between calls with
    /// every vector emptied.
    static MULTI_SCRATCH: Cell<Vec<OpScratch>> = const { Cell::new(Vec::new()) };
}

/// Which `cec` structure each shard uses for membership.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardKind {
    /// `cec::HashSet` shards (O(bucket) lookups; the default).
    Hash,
    /// `cec::SkipListSet` shards (ordered, O(log n) lookups).
    SkipList,
}

/// Buckets per hash shard: with the default 8 shards over a 2^13 key
/// range, 2^13 · 0.5 / (8 · 64) = 8 keys per bucket at 50 % fill.
const SHARD_HASH_BUCKETS: usize = 64;

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

/// The sharded transactional keyspace. See the module docs for layout.
pub struct KeySpace {
    shards: Vec<Box<dyn TxSet + Send + Sync>>,
    slots: Vec<stm_core::TVar<u64>>,
    present: Vec<stm_core::TVar<u64>>,
    capacity: usize,
}

/// SplitMix64 finalizer — the shard-picking hash.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl KeySpace {
    /// A keyspace over keys `0..capacity` in `shards` shards of `kind`.
    ///
    /// # Panics
    /// Panics if `shards` or `capacity` is zero.
    #[must_use]
    pub fn new(kind: ShardKind, shards: usize, capacity: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(capacity > 0, "need a non-empty key range");
        let shards: Vec<Box<dyn TxSet + Send + Sync>> = match kind {
            ShardKind::Hash => {
                let arena = Arc::new(Arena::new());
                (0..shards)
                    .map(|_| {
                        let shard = HashSet::in_arena(Arc::clone(&arena), SHARD_HASH_BUCKETS);
                        Box::new(shard) as Box<dyn TxSet + Send + Sync>
                    })
                    .collect()
            }
            ShardKind::SkipList => (0..shards)
                .map(|_| Box::new(SkipListSet::new()) as Box<dyn TxSet + Send + Sync>)
                .collect(),
        };
        Self {
            shards,
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

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a key hashes to (stable across runs). A power-of-two
    /// shard count takes the mask instead of a division, equal to `%`.
    #[must_use]
    pub fn shard_of(&self, key: i64) -> usize {
        let h = mix64(key as u64);
        let n = self.shards.len() as u64;
        let s = if n.is_power_of_two() {
            h & (n - 1)
        } else {
            h % n
        };
        s as usize
    }

    /// Scatter a popularity rank over `0..n` (YCSB-style hashed-key
    /// scrambling): rank 0 is the hottest key, but hot keys should not be
    /// neighbours — or all land on one shard — so ranks are hashed into
    /// key ids with the same mix the shard picker uses.
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

    /// The key at `idx`'s value, or `None` if absent: its presence
    /// mirror, then its value slot if present. No shard is walked (the
    /// module docs say why the mirror answers membership).
    fn read_key<'env>(&'env self, tx: &mut Tx<'env, '_>, idx: usize) -> Result<Option<u64>, Abort> {
        if tx.get(&self.present[idx])? == 1 {
            Ok(Some(tx.get(&self.slots[idx])?))
        } else {
            Ok(None)
        }
    }

    /// Insert the absent `key` into its shard and set its mirror: one of
    /// the two writers of membership, which keep shard and mirror equal.
    fn insert_key<'env>(
        &'env self,
        tx: &mut Tx<'env, '_>,
        key: i64,
        scratch: &mut OpScratch,
    ) -> Result<(), Abort> {
        let added = self.shards[self.shard_of(key)].add_in(tx, key, scratch)?;
        debug_assert!(added, "key {key}: mirror absent, shard present");
        tx.set(&self.present[key as usize], 1)
    }

    /// Unlink the present `key` from its shard and clear its mirror: the
    /// other writer of membership.
    fn remove_key<'env>(
        &'env self,
        tx: &mut Tx<'env, '_>,
        key: i64,
        scratch: &mut OpScratch,
    ) -> Result<(), Abort> {
        let removed = self.shards[self.shard_of(key)].remove_in(tx, key, scratch)?;
        debug_assert!(removed, "key {key}: mirror present, shard absent");
        tx.set(&self.present[key as usize], 0)
    }

    /// `GET key` — the committed value, or `None` if absent. One regular
    /// read-only transaction of two word reads: the presence mirror and,
    /// if present, the value slot. It touches no shard and no arena node,
    /// so it takes no epoch pin.
    pub fn get<B: AtomicBackend>(&self, at: &Atomic<B>, key: i64) -> Option<u64> {
        let idx = self.index(key);
        at.run(Policy::Regular, |tx| self.read_key(tx, idx))
    }

    /// `SET key value` — upsert; returns the previous value, if any. The
    /// shard is walked only to insert an absent key: updating a present
    /// one reads two words and writes one.
    pub fn set<B: AtomicBackend>(&self, at: &Atomic<B>, key: i64, value: u64) -> Option<u64> {
        let idx = self.index(key);
        let shard = &self.shards[self.shard_of(key)];
        let guard = pin();
        let mut scratch = OpScratch::default();
        let out = at.run(Policy::Regular, |tx| {
            shard.release_unpublished(&mut scratch.allocated);
            scratch.unlinked.clear();
            let prev = self.read_key(tx, idx)?;
            if prev.is_none() {
                self.insert_key(tx, key, &mut scratch)?;
            }
            tx.set(&self.slots[idx], value)?;
            Ok(prev)
        });
        shard.retire_unlinked(&mut scratch.unlinked, &guard);
        out
    }

    /// `CAS key expected new` — write `new` iff the current state equals
    /// `expected` (`None` = absent); returns whether the swap applied.
    pub fn cas<B: AtomicBackend>(
        &self,
        at: &Atomic<B>,
        key: i64,
        expected: Option<u64>,
        new: u64,
    ) -> bool {
        let idx = self.index(key);
        let shard = &self.shards[self.shard_of(key)];
        let guard = pin();
        let mut scratch = OpScratch::default();
        let out = at.run(Policy::Regular, |tx| {
            shard.release_unpublished(&mut scratch.allocated);
            scratch.unlinked.clear();
            let cur = self.read_key(tx, idx)?;
            if cur != expected {
                return Ok(false);
            }
            if cur.is_none() {
                self.insert_key(tx, key, &mut scratch)?;
            }
            tx.set(&self.slots[idx], new)?;
            Ok(true)
        });
        shard.retire_unlinked(&mut scratch.unlinked, &guard);
        out
    }

    /// `DEL key` — remove; returns the deleted value, if any. An absent
    /// key costs one read of its mirror; only a present one walks the
    /// shard to unlink it.
    pub fn del<B: AtomicBackend>(&self, at: &Atomic<B>, key: i64) -> Option<u64> {
        let idx = self.index(key);
        let shard = &self.shards[self.shard_of(key)];
        let guard = pin();
        let mut scratch = OpScratch::default();
        let out = at.run(Policy::Regular, |tx| {
            shard.release_unpublished(&mut scratch.allocated);
            scratch.unlinked.clear();
            if tx.get(&self.present[idx])? == 0 {
                return Ok(None);
            }
            self.remove_key(tx, key, &mut scratch)?;
            Ok(Some(tx.get(&self.slots[idx])?))
        });
        shard.retire_unlinked(&mut scratch.unlinked, &guard);
        out
    }

    /// `MULTI` — one atomic read-modify-write over `keys`, composed from
    /// one [`section`](stm_core::api::Tx::section) per key under a single
    /// parent transaction, crossing shards atomically. `f` sees each
    /// key's position in `keys` and its current value and decides the
    /// update; it may run several times (the parent retries on conflict),
    /// so it must be a pure function of its inputs. Returns how many keys
    /// changed.
    pub fn multi<B, F>(&self, at: &Atomic<B>, keys: &[i64], mut f: F) -> u64
    where
        B: AtomicBackend,
        F: FnMut(usize, Option<u64>) -> MultiOp,
    {
        for &key in keys {
            self.index(key);
        }
        let guard = pin();
        // One scratch per shard: arena slots must go back to the arena
        // that issued them.
        let mut scratches = MULTI_SCRATCH.take();
        scratches.resize_with(self.shards.len(), OpScratch::default);
        let out = at.run(Policy::Regular, |tx| {
            for (shard, scratch) in self.shards.iter().zip(scratches.iter_mut()) {
                shard.release_unpublished(&mut scratch.allocated);
                scratch.unlinked.clear();
            }
            let mut changed = 0u64;
            for (i, &key) in keys.iter().enumerate() {
                let idx = key as usize;
                let scratch = &mut scratches[self.shard_of(key)];
                let applied = tx.section(Policy::Regular, |t| {
                    let cur = self.read_key(t, idx)?;
                    match f(i, cur) {
                        MultiOp::Keep => Ok(false),
                        MultiOp::Put(v) => {
                            if cur.is_none() {
                                self.insert_key(t, key, scratch)?;
                            }
                            t.set(&self.slots[idx], v)?;
                            Ok(true)
                        }
                        MultiOp::Delete => {
                            if cur.is_some() {
                                self.remove_key(t, key, scratch)?;
                            }
                            Ok(cur.is_some())
                        }
                    }
                })?;
                if applied {
                    changed += 1;
                }
            }
            Ok(changed)
        });
        for (shard, scratch) in self.shards.iter().zip(scratches.iter_mut()) {
            shard.retire_unlinked(&mut scratch.unlinked, &guard);
            // The committed attempt's slots are linked now: forget them.
            scratch.allocated.clear();
        }
        MULTI_SCRATCH.set(scratches);
        out
    }

    /// `GET key` with an insert-on-miss fallback, composed with
    /// [`or_else`](Atomic::or_else): the primary branch reads the value
    /// as `GET` does and explicit-retries if the key is absent; the
    /// alternative inserts `default` and returns it, unless another
    /// client inserted the key between the two branches, in which case it
    /// returns that value. Either way the caller observes one atomic
    /// outcome.
    pub fn get_or_insert<B: AtomicBackend>(&self, at: &Atomic<B>, key: i64, default: u64) -> u64 {
        let idx = self.index(key);
        let shard = &self.shards[self.shard_of(key)];
        let guard = pin();
        let mut scratch = OpScratch::default();
        let out = at.or_else(
            Policy::Regular,
            |tx| match self.read_key(tx, idx)? {
                Some(value) => Ok(value),
                None => tx.retry(),
            },
            |tx| {
                shard.release_unpublished(&mut scratch.allocated);
                scratch.unlinked.clear();
                if let Some(value) = self.read_key(tx, idx)? {
                    return Ok(value);
                }
                self.insert_key(tx, key, &mut scratch)?;
                tx.set(&self.slots[idx], default)?;
                Ok(default)
            },
        );
        shard.retire_unlinked(&mut scratch.unlinked, &guard);
        out
    }

    /// Number of present keys — one consistent regular transaction over
    /// every shard.
    pub fn len<B: AtomicBackend>(&self, at: &Atomic<B>) -> usize {
        let _guard = pin();
        at.run(Policy::Regular, |tx| {
            let mut total = 0usize;
            for shard in &self.shards {
                total += shard.len_in(tx)?;
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
            .field("shards", &self.shards.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use stm_core::trace::{TraceOp, TraceSink, TraceStamp};

    fn oe() -> Atomic<oe_stm::OeStm> {
        Atomic::new(oe_stm::OeStm::new())
    }

    #[test]
    fn get_set_cas_del_round_trip() {
        for kind in [ShardKind::Hash, ShardKind::SkipList] {
            let ks = KeySpace::new(kind, 4, 128);
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
    }

    #[test]
    fn multi_crosses_shards_atomically() {
        let ks = KeySpace::new(ShardKind::Hash, 8, 256);
        let at = oe();
        // Pick two keys on different shards (the hash spreads well enough
        // that some pair among the first few differs).
        let a = 1i64;
        let b = (2..64)
            .find(|&k| ks.shard_of(k) != ks.shard_of(a))
            .expect("some key lands on another shard");
        ks.set(&at, a, 100);
        ks.set(&at, b, 0);
        // Cross-shard transfer of 40 from a to b.
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

    /// Two absent keys on one shard and one bucket, inserted by one MULTI:
    /// the second section's insert walks past the node the first just
    /// linked and must read its key, a third section finds the first key
    /// again through the mirror the first section wrote, and `len()`
    /// counts both nodes in the shard.
    #[test]
    fn multi_finds_the_nodes_its_earlier_sections_inserted() {
        let ks = KeySpace::new(ShardKind::Hash, 8, 4096);
        let at = oe();
        let lo = 3i64;
        let hi = (1..64)
            .map(|j| lo + j * SHARD_HASH_BUCKETS as i64)
            .find(|&k| ks.shard_of(k) == ks.shard_of(lo))
            .expect("some key of lo's bucket lands on lo's shard");
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

    /// A point operation that changes no membership reads the key's words
    /// only, however long its bucket's chain: the probed bucket holds
    /// `N` keys, none of which is read.
    #[test]
    fn a_point_operation_reads_only_its_keys_words() {
        const N: i64 = 24;
        let sink = Arc::new(WordEvents::default());
        let at = Atomic::new(oe_stm::OeStm::with_config(
            stm_core::StmConfig::default().with_trace_sink(sink.clone()),
        ));
        // One shard: every key congruent to 5 modulo the bucket count
        // shares a bucket.
        let ks = KeySpace::new(ShardKind::Hash, 1, 4096);
        let in_bucket = |j: i64| 5 + j * SHARD_HASH_BUCKETS as i64;
        for j in 0..N {
            ks.set(&at, in_bucket(j), j as u64);
        }
        let (present, absent) = (in_bucket(N - 1), in_bucket(N));
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
        assert_eq!(ks.len(&at), N as usize);
    }

    #[test]
    fn get_or_insert_takes_the_or_else_path_once() {
        let ks = KeySpace::new(ShardKind::Hash, 2, 32);
        let at = oe();
        assert_eq!(ks.get_or_insert(&at, 3, 33), 33, "fallback inserts");
        assert_eq!(ks.get_or_insert(&at, 3, 99), 33, "primary now serves");
        assert!(at.stats().explicit_retries() > 0, "the miss retried");
    }

    #[test]
    #[should_panic(expected = "outside the keyspace")]
    fn out_of_range_keys_are_rejected() {
        let ks = KeySpace::new(ShardKind::Hash, 2, 32);
        let at = oe();
        let _ = ks.get(&at, 32);
    }

    #[test]
    fn shard_of_agrees_with_the_modulo() {
        let keys = [i64::MIN, -65, -64, -1, 0, 1, 63, 64, 8191, 8192, i64::MAX];
        for n in [1usize, 2, 3, 7, 8, 9, 16] {
            let ks = KeySpace::new(ShardKind::Hash, n, 32);
            for key in keys.into_iter().chain(0..1024) {
                let expected = (mix64(key as u64) % n as u64) as usize;
                assert_eq!(ks.shard_of(key), expected, "key {key}, {n} shards");
            }
        }
    }

    #[test]
    fn shard_hash_spreads_keys() {
        let ks = KeySpace::new(ShardKind::Hash, 8, 8192);
        let mut per_shard = [0usize; 8];
        for k in 0..8192 {
            per_shard[ks.shard_of(k)] += 1;
        }
        for (s, &n) in per_shard.iter().enumerate() {
            assert!(
                (700..=1350).contains(&n),
                "shard {s} got {n} of 8192 keys — hash is not spreading"
            );
        }
    }
}
