//! MULTI atomicity for the txkv service layer: concurrent multi-key
//! read-modify-write transactions against a single-threaded reference.
//!
//! The oracle trick: every MULTI in the battery is a *commutative
//! increment* (`Put(cur + 1)` over its key set), so any serialization of
//! the concurrent schedule produces the same final image — each key's
//! value must equal the number of MULTIs that touched it, its presence
//! bit must match `count > 0`, and `len()` must equal the number of
//! distinct keys. A torn MULTI (one key incremented, a
//! same-transaction sibling missed) breaks the count exactly, which is
//! what makes the reference map a complete atomicity oracle.
//!
//! The battery sweeps all five registry backends, a
//! transfer-sum invariant under racing MULTIs, racing inserts and
//! deletes after which `len()` must count exactly the keys `get` finds,
//! and a durable kill-and-recover cycle proving the recovered image
//! equals a committed prefix of the MULTI sequence.

use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};

use composing_relaxed_transactions::backend_registry;
use composing_relaxed_transactions::stm_core::api::Atomic;
use composing_relaxed_transactions::stm_core::dynstm::Backend;
use composing_relaxed_transactions::stm_core::StmConfig;
use composing_relaxed_transactions::txkv::{KeySpace, MultiOp, ShardKind};
use durable::{DurableStore, MemVfs, Vfs};
use proptest::prelude::*;

/// Every registered backend, including the deliberately broken E-STM
/// compatibility mode (whose unprotected *elastic* reads txkv sidesteps
/// by running MULTI sections `Regular`).
const BACKENDS: [&str; 5] = ["oe", "oe-estm-compat", "lsa", "tl2", "swiss"];

/// Small key universe so concurrent MULTIs actually collide.
const CAPACITY: usize = 64;

fn runner(backend: &str) -> Atomic<Backend> {
    Atomic::new(
        backend_registry()
            .build_default(backend)
            .expect("registry backend"),
    )
}

/// Apply one increment-MULTI over `keys` (duplicates allowed — each
/// occurrence reads the section's own prior write).
fn multi_increment(ks: &KeySpace, at: &Atomic<Backend>, keys: &[i64]) {
    ks.multi(at, keys, |_, cur| {
        MultiOp::Put(cur.unwrap_or(0).wrapping_add(1))
    });
}

/// The single-threaded reference: count how many times each key was
/// incremented across every thread's MULTI list.
fn reference_counts(per_thread: &[Vec<Vec<i64>>]) -> BTreeMap<i64, u64> {
    let mut counts = BTreeMap::new();
    for thread_ops in per_thread {
        for multi in thread_ops {
            for &k in multi {
                *counts.entry(k).or_insert(0u64) += 1;
            }
        }
    }
    counts
}

/// Run `per_thread` concurrently and check the final image against the
/// reference on one backend.
fn check_cell(backend: &str, per_thread: &[Vec<Vec<i64>>]) {
    let ks = KeySpace::new(ShardKind::Hash, 1, CAPACITY);
    let at = runner(backend);
    std::thread::scope(|s| {
        for thread_ops in per_thread {
            let (ks, at) = (&ks, &at);
            s.spawn(move || {
                for multi in thread_ops {
                    multi_increment(ks, at, multi);
                }
            });
        }
    });
    let expect = reference_counts(per_thread);
    for (&k, &count) in &expect {
        assert_eq!(
            ks.get(&at, k),
            Some(count),
            "{backend}: key {k} lost part of a MULTI"
        );
    }
    assert_eq!(
        ks.len(&at),
        expect.len(),
        "{backend}: membership diverged from the reference"
    );
}

/// One thread's MULTI list: up to 6 transactions of 2..=4 keys each.
fn multis() -> impl Strategy<Value = Vec<Vec<i64>>> {
    prop::collection::vec(prop::collection::vec(0..CAPACITY as i64, 2..5), 1..7)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn concurrent_multis_match_the_reference_on_every_backend_and_cm(
        a in multis(),
        b in multis(),
    ) {
        let per_thread = [a, b];
        for backend in BACKENDS {
            check_cell(backend, &per_thread);
        }
    }
}

#[test]
fn racing_cross_shard_transfers_conserve_the_total() {
    // Classic bank invariant: two threads move value between accounts;
    // any observer MULTI (and the final image) must see the total
    // conserved.
    const ACCOUNTS: i64 = 16;
    const PER: u64 = 1_000;
    for backend in BACKENDS {
        let ks = KeySpace::new(ShardKind::Hash, 1, CAPACITY);
        let at = runner(backend);
        for k in 0..ACCOUNTS {
            ks.set(&at, k, PER);
        }
        std::thread::scope(|s| {
            for t in 0..2i64 {
                let (ks, at) = (&ks, &at);
                s.spawn(move || {
                    for i in 0..40i64 {
                        let from = (i + t) % ACCOUNTS;
                        let to = (i * 7 + t * 3 + 1) % ACCOUNTS;
                        if from == to {
                            continue;
                        }
                        ks.multi(at, &[from, to], |pos, cur| {
                            let v = cur.unwrap_or(0);
                            if pos == 0 {
                                MultiOp::Put(v.wrapping_sub(1))
                            } else {
                                MultiOp::Put(v.wrapping_add(1))
                            }
                        });
                    }
                });
            }
        });
        let total: u64 = (0..ACCOUNTS)
            .map(|k| ks.get(&at, k).expect("account exists"))
            .sum();
        assert_eq!(
            total,
            ACCOUNTS as u64 * PER,
            "{backend}: a torn MULTI created or destroyed value"
        );
    }
}

#[test]
fn racing_inserts_and_deletes_keep_the_shards_and_the_mirrors_in_agreement() {
    // Membership changes in both directions under contention: SET, DEL,
    // CAS and two-key MULTIs that delete a present key and insert an
    // absent one. At the end `len()`, one transaction over every
    // presence word, must count exactly the keys `get` finds present.
    const KEYS: u64 = 16;
    for backend in BACKENDS {
        let ks = KeySpace::new(ShardKind::Hash, 1, CAPACITY);
        let at = runner(backend);
        let start = Barrier::new(2);
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let (ks, at, start) = (&ks, &at, &start);
                s.spawn(move || {
                    start.wait();
                    let mut x = 0x9E37_79B9_7F4A_7C15 ^ (t + 1);
                    for i in 0..2000u64 {
                        // xorshift64: a fixed op stream per thread.
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let key = (x % KEYS) as i64;
                        match (x >> 32) % 4 {
                            0 => {
                                ks.set(at, key, i);
                            }
                            1 => {
                                ks.del(at, key);
                            }
                            2 => {
                                let seen = ks.get(at, key);
                                ks.cas(at, key, seen, i);
                            }
                            _ => {
                                let other = ((x >> 40) % KEYS) as i64;
                                if other == key {
                                    continue;
                                }
                                // Sorted footprint (see `multis`).
                                let keys = [key.min(other), key.max(other)];
                                ks.multi(at, &keys, |_, cur| match cur {
                                    Some(_) => MultiOp::Delete,
                                    None => MultiOp::Put(i),
                                });
                            }
                        }
                    }
                });
            }
        });
        let found = (0..CAPACITY as i64)
            .filter(|&k| ks.get(&at, k).is_some())
            .count();
        assert_eq!(
            ks.len(&at),
            found,
            "{backend}: len() disagrees with the present-key count get reports"
        );
    }
}

#[test]
fn durable_multis_survive_a_crash_as_a_committed_prefix() {
    // Run a deterministic MULTI sequence through the WAL hook, crash the
    // VFS, recover into a fresh keyspace, and check the recovered image
    // equals one of the reference prefix states. A commit returns only
    // after its record is fsynced, so the surviving prefix is in fact the
    // *full* sequence — asserted last, separately, to keep the prefix
    // property and the no-loss property distinct.
    let mem = Arc::new(MemVfs::new());
    let reference_after: Vec<BTreeMap<i64, u64>> = {
        let (store, recovered) = DurableStore::open(mem.clone() as Arc<dyn Vfs>).unwrap();
        assert!(recovered.values.is_empty(), "fresh store must be empty");
        let ks = KeySpace::new(ShardKind::Hash, 1, CAPACITY);
        ks.register_durable(store.heap());
        let at = Atomic::new(
            backend_registry()
                .build("tl2", StmConfig::default().with_commit_hook(store.hook()))
                .unwrap(),
        );
        let mut reference = BTreeMap::new();
        let mut prefixes = vec![reference.clone()];
        for step in 0..10i64 {
            let keys = [step % 8, 8 + (step * 3) % 8, 16 + (step * 5) % 8];
            multi_increment(&ks, &at, &keys);
            for &k in &keys {
                *reference.entry(k).or_insert(0u64) += 1;
            }
            prefixes.push(reference.clone());
        }
        assert!(store.io_error().is_none(), "WAL poisoned during workload");
        mem.crash();
        prefixes
    };

    // Reopen the crashed VFS: recovery replays snapshot + WAL.
    let (store, recovery) = DurableStore::open(mem as Arc<dyn Vfs>).unwrap();
    let ks = KeySpace::new(ShardKind::Hash, 1, CAPACITY);
    ks.register_durable(store.heap());
    let at = Atomic::new(
        backend_registry()
            .build("tl2", StmConfig::default().with_commit_hook(store.hook()))
            .unwrap(),
    );
    ks.restore(&at, &recovery);
    let recovered: BTreeMap<i64, u64> = (0..CAPACITY as i64)
        .filter_map(|k| ks.get(&at, k).map(|v| (k, v)))
        .collect();
    assert!(
        reference_after.contains(&recovered),
        "recovered image is not a committed prefix of the MULTI sequence"
    );
    assert_eq!(
        recovered,
        *reference_after.last().unwrap(),
        "group commit fsyncs before returning: nothing may be lost"
    );
}
