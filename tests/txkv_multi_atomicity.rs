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
//!
//! Point operations and MULTIs run as short transactions, falling back to
//! full ones, so racing cells check them against each other in the
//! history model: short GET/SET/DEL beside two-key MULTIs, and beside
//! MULTIs that repeat a key or span [`MAX_MULTI_SIZE`] keys, recorded on
//! every backend and held to the opacity checker; a MULTI over a word a
//! writer holds, which must apply to what the writer commits; MULTIs
//! over the same keys in opposite orders, which must all apply in
//! bounded time; the owner a short update's locks carry, on the words it
//! stores and no others; a word a MULTI only read that moves before its
//! validation, which must send it to a regular run; a single-client mix
//! that never falls back; operations whose lock sets are disjoint, which
//! must end each round in the outcome of a serial order; and, on LSA,
//! GETs racing a writer whose in-place writes abort, which must never
//! return the aborted value.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use composing_relaxed_transactions::backend_registry;
use composing_relaxed_transactions::histories::{check_opacity, Recorder};
use composing_relaxed_transactions::stm_core::api::Atomic;
use composing_relaxed_transactions::stm_core::api::Policy;
use composing_relaxed_transactions::stm_core::dynstm::Backend;
use composing_relaxed_transactions::stm_core::ticket::SHORT_OWNER;
use composing_relaxed_transactions::stm_core::trace::{TraceOp, TraceSink, TraceStamp};
use composing_relaxed_transactions::stm_core::{
    Abort, AbortReason, CommitHook, LockState, OptionWord, StmConfig, TVar, WriteRecord,
};
use composing_relaxed_transactions::txkv::loadgen::{KeyDist, KeySampler, OpMix, MAX_MULTI_SIZE};
use composing_relaxed_transactions::txkv::{KeySpace, MultiOp, ShardKind};
use durable::{DurableStore, MemVfs, Vfs};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Every registered backend, including the deliberately broken E-STM
/// compatibility mode (whose unprotected *elastic* reads txkv sidesteps:
/// no txkv operation runs elastic).
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

/// One thread's MULTI list: up to 7 transactions of 2 to
/// [`MAX_MULTI_SIZE`] keys each, the first of them full size, so both
/// threads open with the largest MULTI a load shape asks for racing.
fn multis() -> impl Strategy<Value = Vec<Vec<i64>>> {
    let keys = || 0..CAPACITY as i64;
    (
        prop::collection::vec(keys(), MAX_MULTI_SIZE),
        prop::collection::vec(prop::collection::vec(keys(), 2..MAX_MULTI_SIZE + 1), 0..7),
    )
        .prop_map(|(full, rest)| std::iter::once(full).chain(rest).collect())
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

#[test]
fn traced_short_operations_racing_multis_are_opaque_on_every_backend() {
    // Two keys, three clients: one runs short SET/GET/DEL, one short
    // GETs, one two-key MULTIs (one short update of both keys' words).
    // Every recorded history, aborted attempts included, must be opaque.
    const ROUNDS: u64 = 8;
    for backend in BACKENDS {
        for round in 0..ROUNDS {
            let rec = Arc::new(Recorder::new());
            let at = Atomic::new(
                backend_registry()
                    .build(backend, StmConfig::default().with_trace_sink(rec.clone()))
                    .expect("registry backend"),
            );
            let ks = KeySpace::new(ShardKind::Hash, 1, 2);
            let start = Barrier::new(3);
            std::thread::scope(|s| {
                let (ks, at, start) = (&ks, &at, &start);
                s.spawn(move || {
                    start.wait();
                    ks.set(at, 0, 1 + round);
                    ks.get(at, 1);
                    ks.del(at, 0);
                    ks.set(at, 1, 2 + round);
                    ks.get(at, 0);
                });
                s.spawn(move || {
                    start.wait();
                    for _ in 0..3 {
                        ks.get(at, 0);
                        ks.get(at, 1);
                    }
                });
                s.spawn(move || {
                    start.wait();
                    for _ in 0..2 {
                        ks.multi(at, &[0, 1], |_, cur| {
                            MultiOp::Put(cur.map_or(10, |v| v + 10))
                        });
                    }
                });
            });
            let (raw, h) = (rec.raw_history(), rec.history());
            assert_eq!(h.well_formed(), Ok(()), "{backend}, round {round}");
            if let Err(v) = check_opacity(&raw) {
                panic!("{backend}, round {round}: not opaque: {v}\nraw history:\n{raw:#}");
            }
        }
    }
}

#[test]
fn traced_short_operations_racing_repeated_key_and_full_size_multis_are_opaque_on_every_backend() {
    // Three clients over MAX_MULTI_SIZE keys: one runs short SET/GET/DEL,
    // one short GETs, one 3-key MULTIs that repeat key 0 and then one
    // MULTI over every key, each a single short update of its keys'
    // words. Every recorded history, aborted attempts included, must be
    // opaque.
    const ROUNDS: u64 = 6;
    let every: Vec<i64> = (0..MAX_MULTI_SIZE as i64).collect();
    for backend in BACKENDS {
        for round in 0..ROUNDS {
            let rec = Arc::new(Recorder::new());
            let at = Atomic::new(
                backend_registry()
                    .build(backend, StmConfig::default().with_trace_sink(rec.clone()))
                    .expect("registry backend"),
            );
            let ks = KeySpace::new(ShardKind::Hash, 1, MAX_MULTI_SIZE);
            let start = Barrier::new(3);
            std::thread::scope(|s| {
                let (ks, at, start, every) = (&ks, &at, &start, &every);
                s.spawn(move || {
                    start.wait();
                    ks.set(at, 0, 1 + round);
                    ks.get(at, 1);
                    ks.del(at, 0);
                    ks.set(at, 1, 2 + round);
                    ks.set(at, 15, 3 + round);
                    ks.get(at, 0);
                });
                s.spawn(move || {
                    start.wait();
                    for _ in 0..3 {
                        ks.get(at, 0);
                        ks.get(at, 1);
                    }
                });
                s.spawn(move || {
                    start.wait();
                    let bump =
                        |_: usize, cur: Option<u64>| MultiOp::Put(cur.map_or(10, |v| v + 10));
                    for _ in 0..2 {
                        ks.multi(at, &[0, 1, 0], bump);
                    }
                    ks.multi(at, every, bump);
                });
            });
            let (raw, h) = (rec.raw_history(), rec.history());
            assert_eq!(h.well_formed(), Ok(()), "{backend}, round {round}");
            if let Err(v) = check_opacity(&raw) {
                panic!("{backend}, round {round}: not opaque: {v}\nraw history:\n{raw:#}");
            }
        }
    }
}

#[test]
fn a_multi_over_a_held_word_applies_to_the_committed_value_on_every_backend() {
    // A MULTI is one short update of its keys' words. A writer holds key
    // 1's value word and has written 100 in place; a helper thread
    // commits it once the MULTI's fallback run has lost to the held lock
    // (an abort shows in the stats). The short update finds the word
    // locked and falls back, and the MULTI must apply to the value the
    // writer commits.
    const WRITER: u64 = 1 << 40;
    for backend in BACKENDS {
        let at = runner(backend);
        let vars: Vec<[TVar<u64>; 2]> = (0..3).map(|_| [TVar::new(0), TVar::new(0)]).collect();
        let keys: Vec<OptionWord<'_>> = vars.iter().map(|[p, v]| OptionWord::new(p, v)).collect();
        for (k, &key) in keys.iter().enumerate() {
            at.short_update(key, &|_| Some(Some(10 * k as u64)));
        }
        let held = vars[1][1].core();
        let LockState::Unlocked { version } = held.lock().load() else {
            panic!("{backend}: the word is locked before the test holds it");
        };
        assert!(held.lock().try_lock_at(version, WRITER));
        held.store_value(100);
        let committed = AtomicBool::new(false);
        let timed_out = std::thread::scope(|s| {
            let helper = s.spawn(|| {
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
                while at.stats().aborts() == 0 && std::time::Instant::now() < deadline {
                    std::thread::yield_now();
                }
                let timed_out = at.stats().aborts() == 0;
                committed.store(true, Ordering::SeqCst);
                held.lock().unlock_to(at.clock().stamp().wv);
                timed_out
            });
            let mut bump = |_: usize, cur: Option<u64>| Some(cur.map(|v| v + 1));
            at.short_update_each(&keys, &mut bump);
            assert!(
                committed.load(Ordering::SeqCst),
                "{backend}: the MULTI committed while the word was held"
            );
            helper.join().unwrap()
        });
        assert!(
            !timed_out,
            "{backend}: the word was released by the deadline, not after the fallback aborted"
        );
        let got: Vec<_> = keys.iter().map(|&key| at.short_read(key)).collect();
        assert_eq!(got, [Some(1), Some(101), Some(21)], "{backend}");
    }
}

#[test]
fn multis_racing_in_opposite_key_orders_all_apply_on_every_backend() {
    // A short update locks its words in the order the caller lists them
    // and never waits for a lock: one it loses sends it to a regular run.
    // Two clients MULTI over the same keys, one in ascending and one in
    // descending order, so each can hold the lock the other wants next.
    // Every MULTI must still apply, and the race must end in bounded time.
    const PER_CLIENT: u64 = 2_000;
    const DEADLINE: Duration = Duration::from_secs(60);
    for keys in [4, MAX_MULTI_SIZE as i64] {
        for backend in BACKENDS {
            let ks = Arc::new(KeySpace::new(ShardKind::Hash, 1, CAPACITY));
            let at = Arc::new(runner(backend));
            let (done, finished) = mpsc::channel();
            let start = Arc::new(Barrier::new(2));
            let clients: Vec<_> = [(0..keys).collect::<Vec<_>>(), (0..keys).rev().collect()]
                .into_iter()
                .map(|order| {
                    let (ks, at, done, start) =
                        (ks.clone(), at.clone(), done.clone(), start.clone());
                    std::thread::spawn(move || {
                        start.wait();
                        for _ in 0..PER_CLIENT {
                            multi_increment(&ks, &at, &order);
                        }
                        done.send(()).unwrap();
                    })
                })
                .collect();
            // A client that never finishes is left running: the deadline
            // fails the test instead of hanging it.
            let deadline = Instant::now() + DEADLINE;
            for _ in 0..2 {
                let left = deadline.saturating_duration_since(Instant::now());
                assert!(
                    finished.recv_timeout(left).is_ok(),
                    "{backend}, {keys} keys: the MULTIs did not finish within {DEADLINE:?}"
                );
            }
            for client in clients {
                client.join().unwrap();
            }
            for k in 0..keys {
                assert_eq!(
                    ks.get(&*at, k),
                    Some(2 * PER_CLIENT),
                    "{backend}, {keys} keys: key {k} missed a MULTI"
                );
            }
        }
    }
}

/// A commit hook that, while a commit stages under its locks, reads the
/// lock state of every word of `keys`.
struct OwnerProbe {
    keys: Arc<[[TVar<u64>; 2]; 4]>,
    seen: Mutex<Vec<Vec<LockState>>>,
}

impl CommitHook for OwnerProbe {
    fn on_commit(&self, _: &WriteRecord<'_>) {
        let words = self.keys.iter().flatten();
        let states = words.map(|w| w.core().lock().load()).collect();
        self.seen.lock().unwrap().push(states);
    }
}

/// A trace sink that keeps the id of every committed transaction.
#[derive(Default)]
struct CommittedIds(Mutex<Vec<u64>>);

impl TraceSink for CommittedIds {
    fn begin(&self, _: TraceStamp, _: u64, _: u64) {}
    fn op(&self, _: u64, _: u64, _: usize, _: TraceOp) {}
    fn acquire(&self, _: u64, _: u64, _: usize) {}
    fn release(&self, _: u64, _: u64, _: usize) {}
    fn commit(&self, tx: u64, _: u64) {
        self.0.lock().unwrap().push(tx);
    }
    fn abort(&self, _: u64, _: u64) {}
}

#[test]
fn a_short_update_locks_under_the_short_owner_or_its_traced_ticket_on_every_backend() {
    // A short update draws no ticket: it holds its locks under the
    // reserved owner, which no ticket ever equals. With a trace sink the
    // attempt already holds a ticket, its transaction id, and locks under
    // that. It locks only the words it stores. The hook runs under the
    // locks, so it sees the owner: on both words of a SET that inserts
    // key 0, and on seven words of a 4-key MULTI that bumps the present
    // key 0 (its value word) and inserts keys 1 to 3 (both words each);
    // key 0's presence word, only read, stays unlocked.
    for backend in BACKENDS {
        for traced in [false, true] {
            let keys = Arc::new([(); 4].map(|()| [TVar::new(0), TVar::new(0)]));
            let probe = Arc::new(OwnerProbe {
                keys: keys.clone(),
                seen: Mutex::default(),
            });
            let ids = Arc::new(CommittedIds::default());
            let mut config = StmConfig::default().with_commit_hook(probe.clone());
            if traced {
                config = config.with_trace_sink(ids.clone());
            }
            let at = Atomic::new(backend_registry().build(backend, config).unwrap());
            let words = keys.each_ref().map(|[p, v]| OptionWord::new(p, v));
            assert_eq!(at.short_update(words[0], &|_| Some(Some(1))), None);
            at.short_update_each(&words, &mut |_, cur| Some(Some(cur.unwrap_or(0) + 1)));
            let seen = probe.seen.lock().unwrap();
            let ids = ids.0.lock().unwrap();
            assert_eq!(seen.len(), 2, "{backend}, traced {traced}: one stage each");
            assert_eq!(ids.len(), if traced { 2 } else { 0 }, "{backend}");
            // Which of the eight words each update holds.
            let holds = [
                [true, true, false, false, false, false, false, false],
                [false, true, true, true, true, true, true, true],
            ];
            for (i, (states, held)) in seen.iter().zip(holds).enumerate() {
                let owner = if traced { ids[i] } else { SHORT_OWNER };
                assert_eq!(
                    held.iter().filter(|&&h| h).count(),
                    [2, 7][i],
                    "the words locked"
                );
                for (&s, h) in states.iter().zip(held) {
                    if h {
                        assert_eq!(
                            s,
                            LockState::Locked { owner },
                            "{backend}, traced {traced}, update {i}: {states:?}, not held by {owner}"
                        );
                    } else {
                        assert!(
                            matches!(s, LockState::Unlocked { .. }),
                            "{backend}, traced {traced}, update {i}: {states:?}"
                        );
                    }
                }
            }
            assert!(ids.iter().all(|&id| id != SHORT_OWNER), "{ids:?}");
        }
    }
}

#[test]
fn a_word_only_read_that_moves_after_the_collect_sends_a_multi_to_a_regular_run_on_every_backend() {
    // A 2-key MULTI bumps key 0 and only reads key 1, so its short update
    // locks key 0's value word alone. Key 0's first decision, which runs
    // after the collect and before the lock pass, commits key 1's
    // presence word anew. The lock pass succeeds; the validation after
    // the stamp must see the moved word and send the update to a regular
    // run, which applies it once.
    for backend in BACKENDS {
        let at = runner(backend);
        let vars = [(); 2].map(|()| [TVar::new(0u64), TVar::new(0u64)]);
        let words = vars.each_ref().map(|[p, v]| OptionWord::new(p, v));
        for word in words {
            assert_eq!(at.short_update(word, &|_| Some(Some(1))), None);
        }
        let mut moved = false;
        let mut decisions = 0;
        at.short_update_each(&words, &mut |i, cur| {
            if i != 0 {
                return None;
            }
            decisions += 1;
            if !std::mem::replace(&mut moved, true) {
                vars[1][0].store_atomic(1, at.clock().stamp().wv);
            }
            Some(cur.map(|v| v + 1))
        });
        assert_eq!(at.stats().short_fallbacks, 1, "{backend}");
        assert_eq!(decisions, 2, "{backend}: decided again in the regular run");
        assert_eq!(at.short_read(words[0]), Some(2), "{backend}: applied once");
        assert_eq!(at.short_read(words[1]), Some(1), "{backend}");
        for word in vars.iter().flatten() {
            assert!(
                matches!(word.core().lock().load(), LockState::Unlocked { .. }),
                "{backend}: a word stayed locked"
            );
        }
    }
}

#[test]
fn a_seeded_single_client_txkv_mix_never_falls_back_on_every_backend() {
    // Alone, no short operation ever finds a word locked or moved, so
    // every GET, SET, CAS, DEL and MULTI is served short.
    const OPS: usize = 10_000;
    let mix = OpMix::service();
    let keys = KeySampler::new(KeyDist::Zipfian { theta: 0.99 }, CAPACITY);
    for backend in BACKENDS {
        let at = runner(backend);
        let ks = KeySpace::new(ShardKind::Hash, 1, CAPACITY);
        let mut rng = SmallRng::seed_from_u64(7);
        for i in 0..OPS as u64 {
            let key = keys.sample(&mut rng);
            let mut pick = rng.gen_range(0..100u32);
            for (pct, op) in [
                (mix.get_pct, 0),
                (mix.set_pct, 1),
                (mix.cas_pct, 2),
                (mix.del_pct, 3),
                (mix.multi_pct, 4),
            ] {
                if pick >= pct {
                    pick -= pct;
                    continue;
                }
                match op {
                    0 => drop(ks.get(&at, key)),
                    1 => drop(ks.set(&at, key, i)),
                    2 => drop(ks.cas(&at, key, ks.get(&at, key), i)),
                    3 => drop(ks.del(&at, key)),
                    _ => {
                        let n = rng.gen_range(2..MAX_MULTI_SIZE + 1);
                        let multi: Vec<i64> = (0..n).map(|_| keys.sample(&mut rng)).collect();
                        ks.multi(&at, &multi, |_, cur| {
                            MultiOp::Put(cur.map_or(i, |v| v.wrapping_add(1)))
                        });
                    }
                }
                break;
            }
        }
        let stats = at.stats();
        assert_eq!(stats.short_fallbacks, 0, "{backend}");
        assert!(stats.commits >= OPS as u64, "{backend}: {stats:?}");
    }
}

/// A racing operation on keys 0 and 1, returning what it observed.
type RaceOp = fn(&KeySpace, &Atomic<Backend>) -> Option<u64>;

/// Two operations that race each round of [`race_rounds`], from the state
/// `setup` leaves, on keys 0 and 1.
struct Race {
    what: &'static str,
    setup: fn(&KeySpace, &Atomic<Backend>),
    /// The two operations.
    ops: [RaceOp; 2],
    /// Whether the two observations and the final state are those of a
    /// serial order of the two operations.
    serial: fn(&KeySpace, &Atomic<Backend>, [Option<u64>; 2]) -> bool,
}

/// Race `race`'s two operations from two clients for `ROUNDS` rounds on
/// `backend`, a coordinator resetting the keys before each round and
/// checking the outcome after it, all within a deadline.
fn race_rounds(backend: &'static str, race: &'static Race) {
    const ROUNDS: usize = 300;
    const DEADLINE: Duration = Duration::from_secs(60);
    let ks = Arc::new(KeySpace::new(ShardKind::Hash, 1, CAPACITY));
    let at = Arc::new(runner(backend));
    let seen = Arc::new(Mutex::new([None; 2]));
    let rounds = Arc::new(Barrier::new(3));
    let mut threads: Vec<_> = (0..2)
        .map(|side| {
            let (ks, at, seen, rounds) = (ks.clone(), at.clone(), seen.clone(), rounds.clone());
            std::thread::spawn(move || {
                for _ in 0..ROUNDS {
                    rounds.wait();
                    let got = (race.ops[side])(&ks, &at);
                    seen.lock().unwrap()[side] = got;
                    rounds.wait();
                }
            })
        })
        .collect();
    let (done, finished) = mpsc::channel();
    threads.push(std::thread::spawn(move || {
        for round in 0..ROUNDS {
            (race.setup)(&ks, &at);
            rounds.wait();
            rounds.wait();
            let got = *seen.lock().unwrap();
            let state = [ks.get(&*at, 0), ks.get(&*at, 1)];
            if !(race.serial)(&ks, &at, got) {
                done.send(Err(format!("round {round}: saw {got:?}, left {state:?}")))
                    .unwrap();
                return;
            }
        }
        done.send(Ok(())).unwrap();
    }));
    // A client that never finishes is left running: the deadline fails
    // the test instead of hanging it.
    match finished.recv_timeout(DEADLINE) {
        Ok(Ok(())) => {}
        Ok(Err(e)) => panic!("{backend}, {}: not serial: {e}", race.what),
        Err(_) => panic!(
            "{backend}, {}: did not finish within {DEADLINE:?}",
            race.what
        ),
    }
    for t in threads {
        t.join().unwrap();
    }
}

/// Keys 0 and 1 present, each holding 1.
fn both_present(ks: &KeySpace, at: &Atomic<Backend>) {
    ks.set(at, 0, 1);
    ks.set(at, 1, 1);
}

/// A MULTI over `keys` that keeps the first and sets the second to the
/// first's value plus 10.
fn copy_plus_ten(ks: &KeySpace, at: &Atomic<Backend>, keys: [i64; 2]) -> Option<u64> {
    let mut first = 0;
    ks.multi(at, &keys, |i, cur| {
        if i == 0 {
            first = cur.unwrap_or(0);
            MultiOp::Keep
        } else {
            MultiOp::Put(first + 10)
        }
    });
    None
}

/// Races whose lock sets are disjoint: each operation stores words the
/// other only reads, so only the validation after the stamp orders them.
static DISJOINT_RACES: [Race; 4] = [
    Race {
        what: "SET || DEL of a present key",
        setup: both_present,
        ops: [|ks, at| ks.set(at, 0, 7), |ks, at| ks.del(at, 0)],
        serial: |ks, at, seen| match seen {
            [Some(1), Some(7)] => ks.get(at, 0).is_none(),
            [None, Some(1)] => ks.get(at, 0) == Some(7),
            _ => false,
        },
    },
    Race {
        what: "CAS || DEL of a present key",
        setup: both_present,
        ops: [
            |ks, at| Some(u64::from(ks.cas(at, 0, Some(1), 7))),
            |ks, at| ks.del(at, 0),
        ],
        serial: |ks, at, seen| {
            matches!(seen, [Some(1), Some(7)] | [Some(0), Some(1)]) && ks.get(at, 0).is_none()
        },
    },
    Race {
        what: "Keep-row MULTI || SET",
        setup: both_present,
        ops: [
            |ks, at| copy_plus_ten(ks, at, [0, 1]),
            |ks, at| ks.set(at, 0, 7),
        ],
        serial: |ks, at, seen| {
            seen[1] == Some(1) && ks.get(at, 0) == Some(7) && matches!(ks.get(at, 1), Some(11 | 17))
        },
    },
    Race {
        what: "Keep-row MULTIs in write skew",
        setup: both_present,
        ops: [
            |ks, at| copy_plus_ten(ks, at, [0, 1]),
            |ks, at| copy_plus_ten(ks, at, [1, 0]),
        ],
        serial: |ks, at, _| {
            matches!(
                [ks.get(at, 0), ks.get(at, 1)],
                [Some(21), Some(11)] | [Some(11), Some(21)]
            )
        },
    },
];

#[test]
fn races_over_disjoint_lock_sets_end_in_a_serial_order_on_every_backend() {
    for backend in BACKENDS {
        for race in &DISJOINT_RACES {
            race_rounds(backend, race);
        }
    }
}

#[test]
fn lsa_gets_never_return_a_value_whose_in_place_write_aborted() {
    // LSA writes a word in place under its lock and restores it when the
    // attempt aborts. A reader whose lock-value-lock check straddles the
    // write and the restore must see the lock word change, or it returns
    // a value no transaction committed: the marker.
    const MARKER: u64 = 0xDEAD;
    const READS: usize = 20_000;
    let at = runner("lsa");
    let (present, value) = (TVar::new(0u64), TVar::new(0u64));
    let key = OptionWord::new(&present, &value);
    at.short_update(key, &|_| Some(Some(7)));
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                let mut write = true;
                at.run(Policy::Regular, |tx| {
                    if std::mem::take(&mut write) {
                        key.store(tx, Some(7), Some(MARKER))?;
                        return Err(Abort::new(AbortReason::Explicit));
                    }
                    Ok(())
                });
            }
        });
        for i in 0..READS {
            let got = if i % 2 == 0 {
                at.short_read(key)
            } else {
                at.run(Policy::Regular, |tx| key.read(tx))
            };
            assert_eq!(got, Some(7), "read {i} returned an aborted write");
        }
        stop.store(true, Ordering::Relaxed);
    });
}
