//! Durability under fire: the CommitHook seam, the group-committed WAL,
//! and recovery — proven by exhaustive crash-point injection.
//!
//! The centerpiece sweeps **every byte offset** of a real WAL produced
//! by every registered backend: for each prefix `W[..cut]` it recovers a
//! fresh replica and checks the rebuilt image equals an independent
//! replay of the longest clean record prefix — a crash at *any* instant
//! loses at most the in-flight suffix, never a committed record, and a
//! torn tail is truncated with a diagnostic rather than guessed at. Each
//! cut is recovered twice: as an appending log leaves it (`W[..cut]`) and
//! as a log that reserved space ahead of its writes leaves it (`W[..cut]`
//! followed by zeros). A real-disk test then kills a committing child
//! process and recovers what it left.
//!
//! Around it: hook-contract checks (fires once per top-level update
//! commit, never for read-only transactions, retried branches, or child
//! commits), fsync-failure degradation (sticky poison, memory-only
//! continuation, clean durable prefix), bit-flip corruption (typed
//! verdict, clean-prefix replay), and a checkpoint/crash/reopen
//! generation cycle including a crash between seal and fold.
//!
//! Last, the rules of a commit that releases its locks before its fsync,
//! forced with a gate that holds each fsync until the test lets it go:
//! a second writer stages behind a held fsync without a lock conflict, in
//! commit order; a commit that stages nothing returns only once what it
//! observed is durable; a read of durable words never waits — all of it
//! also through a hook wrapper that forwards nothing but `on_commit`. The
//! short operations txkv's point operations use keep the same rules: a
//! short SET stages under both of its locks, in commit order, and a short
//! GET awaits what it observed and nothing else.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use composing_relaxed_transactions::backend_registry;
use composing_relaxed_transactions::stm_boost::BoostedSet;
use composing_relaxed_transactions::stm_core::api::{Atomic, Policy};
use composing_relaxed_transactions::stm_core::dynstm::Backend;
use composing_relaxed_transactions::stm_core::hook::{CommitHook, WriteRecord};
use composing_relaxed_transactions::stm_core::{
    AbortReason, LockState, OptionWord, StmConfig, TVar, Transaction, TxKind,
};
use composing_relaxed_transactions::txkv::{KeySpace, ShardKind};
use durable::record::{self, Record};
use durable::wal::{RESERVE_CHUNK, WAL_FILE};
use durable::{recover, BitFlip, DurableStore, FaultPlan, FaultVfs, GatedVfs, MemVfs, StdVfs, Vfs};

const BACKENDS: [&str; 5] = ["tl2", "lsa", "swiss", "oe", "oe-estm-compat"];
const VARS: usize = 8;
const PER_VAR: u64 = 100;
const TOTAL: u64 = VARS as u64 * PER_VAR;

/// Replay records the way recovery does: absolute words, log order.
fn replay(records: &[Record]) -> BTreeMap<u64, u64> {
    let mut values = BTreeMap::new();
    for rec in records {
        for &(key, word) in &rec.writes {
            values.insert(key, word);
        }
    }
    values
}

/// One observed firing: the commit version and its `(id, word)` pairs.
type ObservedCommit = (u64, Vec<(usize, u64)>);

/// A hook that records every firing for the contract checks.
#[derive(Default)]
struct CountingHook {
    fires: AtomicU64,
    records: Mutex<Vec<ObservedCommit>>,
}

impl CommitHook for CountingHook {
    fn on_commit(&self, record: &WriteRecord<'_>) {
        self.fires.fetch_add(1, Ordering::SeqCst);
        let mut writes = Vec::new();
        record.for_each(&mut |id, word| writes.push((id, word)));
        assert_eq!(writes.len(), record.len(), "len() must match iteration");
        self.records
            .lock()
            .unwrap()
            .push((record.version(), writes));
    }
}

#[test]
fn hook_fires_once_per_toplevel_update_commit_on_every_backend() {
    let registry = backend_registry();
    for name in BACKENDS {
        let hook = Arc::new(CountingHook::default());
        let backend = registry
            .build(name, StmConfig::default().with_commit_hook(hook.clone()))
            .unwrap();
        let x = TVar::new(1u64);
        let y = TVar::new(2u64);

        // Read-only transactions never fire the hook.
        let got = backend.run(TxKind::Regular, |tx| tx.get(&x));
        assert_eq!(got, 1);
        assert_eq!(
            hook.fires.load(Ordering::SeqCst),
            0,
            "{name}: read-only fired"
        );

        // One update with a child: exactly one fire, at the top-level
        // commit, covering the merged write set.
        backend.run(TxKind::Regular, |tx| {
            tx.set(&x, 10)?;
            tx.child(TxKind::Regular, |tx| tx.set(&y, 20))
        });
        assert_eq!(
            hook.fires.load(Ordering::SeqCst),
            1,
            "{name}: child or extra fire"
        );

        let records = hook.records.lock().unwrap();
        let (version, writes) = &records[0];
        // Each location once, with its committed word, at a real stamp.
        let words: BTreeMap<usize, u64> = writes.iter().copied().collect();
        assert_eq!(words.len(), writes.len(), "{name}: a location repeats");
        let expect: BTreeMap<usize, u64> = [(x.core().id(), 10), (y.core().id(), 20)].into();
        assert_eq!(words, expect, "{name}: write set mismatch");
        assert!(
            *version > 0,
            "{name}: commit version must be a real clock stamp"
        );
    }
}

#[test]
fn hook_skips_retried_branches_and_aborted_attempts() {
    let registry = backend_registry();
    for name in BACKENDS {
        let hook = Arc::new(CountingHook::default());
        let at = Atomic::new(
            registry
                .build(name, StmConfig::default().with_commit_hook(hook.clone()))
                .unwrap(),
        );
        let gate = TVar::new(0u64);
        let out = TVar::new(0u64);
        // The primary branch writes, then retries: its tentative write
        // set is discarded and must never reach the hook. Only the
        // committing fallback fires.
        let picked = at.or_else(
            Policy::Regular,
            |tx| {
                tx.set(&out, 111)?;
                if tx.get(&gate)? == 0 {
                    return tx.retry();
                }
                Ok("primary")
            },
            |tx| {
                tx.set(&out, 222)?;
                Ok("fallback")
            },
        );
        assert_eq!(picked, "fallback", "{name}");
        assert_eq!(hook.fires.load(Ordering::SeqCst), 1, "{name}");
        let records = hook.records.lock().unwrap();
        let mut last = BTreeMap::new();
        for &(id, word) in &records[0].1 {
            last.insert(id, word);
        }
        assert_eq!(
            last.get(&out.core().id()),
            Some(&222),
            "{name}: retried branch's write leaked into the hook"
        );
    }
}

/// Random zero-sum transfers between `vars`, preserving `TOTAL`.
fn transfer_loop(backend: &Backend, vars: &[TVar<u64>], thread_seed: u64, rounds: usize) {
    let mut seed = 0x9E37_79B9u64.wrapping_mul(thread_seed + 1) | 1;
    for _ in 0..rounds {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        let from = (seed % VARS as u64) as usize;
        let to = ((seed >> 16) % VARS as u64) as usize;
        if from == to {
            continue;
        }
        backend.run(TxKind::Regular, |tx| {
            let a = tx.get(&vars[from])?;
            let b = tx.get(&vars[to])?;
            if a > 0 {
                tx.set(&vars[from], a - 1)?;
                tx.set(&vars[to], b + 1)?;
            }
            Ok(())
        });
    }
}

/// Run a multi-threaded durable transfer workload for `name` against
/// `vfs`, then crash the machine and return the surviving WAL file: the
/// synced records, then the zeros the log reserved past them.
fn run_durable_workload(name: &str, mem: &Arc<MemVfs>) -> Vec<u8> {
    let (store, recovered) = DurableStore::open(mem.clone() as Arc<dyn Vfs>).unwrap();
    assert!(recovered.values.is_empty(), "{name}: fresh store not empty");
    let backend = backend_registry()
        .build(name, StmConfig::default().with_commit_hook(store.hook()))
        .unwrap();
    let vars: Vec<TVar<u64>> = (0..VARS).map(|_| TVar::new(0)).collect();
    for (key, var) in vars.iter().enumerate() {
        store.heap().register(key as u64, var.core());
    }
    // Seed every account in one durable transaction so record 0 covers
    // all keys.
    backend.run(TxKind::Regular, |tx| {
        for var in &vars {
            tx.set(var, PER_VAR)?;
        }
        Ok(())
    });
    std::thread::scope(|s| {
        for t in 0..2u64 {
            let backend = &backend;
            let vars = &vars;
            s.spawn(move || transfer_loop(backend, vars, t, 25));
        }
    });
    assert!(
        store.io_error().is_none(),
        "{name}: WAL poisoned during workload"
    );
    // A `run` returns only after its record is fsynced, so the crash
    // loses nothing that a transaction observed as committed-durable.
    mem.crash();
    mem.durable_bytes(WAL_FILE)
}

/// Zeros past a cut in the reserved layout: more than any record of the
/// workload, so a torn record runs into them.
const RESERVED_PAD: usize = 256;

/// Recover a replica seeded with `bytes` as its WAL and hold it to the
/// framing's verdict on those bytes: the image replays the clean record
/// prefix, one note names what was cut off (a torn or an unwritten tail,
/// never corruption), the file is cut to the prefix, and a second
/// recovery is clean. Returns the image.
fn recovers_the_clean_prefix(what: &str, bytes: &[u8]) -> BTreeMap<u64, u64> {
    let replica = MemVfs::with_file(WAL_FILE, bytes.to_vec());
    let rec = recover(&replica).unwrap();
    let (records, clean, err) = record::decode_stream(bytes);
    assert_eq!(
        rec.values,
        replay(&records),
        "{what}: image is not the longest clean record prefix"
    );
    assert_eq!(rec.records_applied, records.len() as u64, "{what}");
    let Some(err) = err else {
        assert!(
            rec.notes.is_empty(),
            "{what}: spurious diagnostics {:?}",
            rec.notes
        );
        return rec.values;
    };
    let kind = if err.is_unwritten() {
        "unwritten tail"
    } else {
        assert!(
            err.is_truncation(),
            "{what}: a crash prefix misread as corruption: {err}"
        );
        "torn tail"
    };
    assert!(
        rec.notes.len() == 1 && rec.notes[0].contains(kind),
        "{what}: expected one {kind} note, got {:?}",
        rec.notes
    );
    assert_eq!(
        replica.read(WAL_FILE).unwrap().len(),
        clean,
        "{what}: tail not physically truncated"
    );
    // Double crash: recovering the repaired replica again reaches the same
    // image, now without diagnostics.
    let rec2 = recover(&replica).unwrap();
    assert_eq!(rec2.values, rec.values, "{what}: not idempotent");
    assert!(rec2.notes.is_empty(), "{what}: {:?}", rec2.notes);
    rec.values
}

#[test]
fn crash_point_exhaustion_recovers_every_wal_prefix_on_every_backend() {
    for name in BACKENDS {
        let mem = Arc::new(MemVfs::new());
        let image = run_durable_workload(name, &mem);
        let (all_records, log_len, end) = record::decode_stream(&image);
        assert!(
            end.is_some_and(|e| e.is_unwritten()),
            "{name}: the crash did not leave the log followed by reserved zeros: {end:?}"
        );
        let log = &image[..log_len];
        assert!(!log.is_empty(), "{name}: no WAL written");

        // The full durable log replays to a complete, money-conserving
        // image, and a fresh process recovers exactly that from the file
        // the crash left, reserved zeros and all.
        let full = replay(&all_records);
        assert_eq!(full.len(), VARS, "{name}: keys missing from replay");
        assert_eq!(
            full.values().sum::<u64>(),
            TOTAL,
            "{name}: money not conserved"
        );
        assert_eq!(recovers_the_clean_prefix(name, &image), full, "{name}");

        // Kill the machine at every byte offset of the log and recover.
        for cut in 0..=log.len() {
            let what = format!("{name} cut {cut}");
            let appended = recovers_the_clean_prefix(&what, &log[..cut]);
            let zeros = [&log[..cut], &[0u8; RESERVED_PAD][..]].concat();
            let reserved = recovers_the_clean_prefix(&format!("{what} reserved"), &zeros);
            if reserved != appended {
                // Only when every byte the cut lost of the next record was
                // a zero anyway: the padding restores that record whole.
                let (whole, clean, _) = record::decode_stream(&log[..cut]);
                let next = clean + record::decode(&log[clean..]).expect("a record follows").1;
                assert!(
                    log[cut..next].iter().all(|&b| b == 0),
                    "{what}: the reserved layout recovered another image"
                );
                assert_eq!(reserved, replay(&all_records[..=whole.len()]), "{what}");
            }
        }
    }
}

#[test]
fn fsync_failure_poisons_durability_while_commits_continue_in_memory() {
    let mem = Arc::new(MemVfs::new());
    let faulty = Arc::new(FaultVfs::new(
        mem.clone(),
        FaultPlan {
            fail_sync_from: Some(3),
            ..FaultPlan::default()
        },
    ));
    let (store, _) = DurableStore::open(faulty as Arc<dyn Vfs>).unwrap();
    let backend = backend_registry()
        .build("tl2", StmConfig::default().with_commit_hook(store.hook()))
        .unwrap();
    let v = TVar::new(0u64);
    store.heap().register(1, v.core());
    for i in 1..=10u64 {
        backend.run(TxKind::Regular, |tx| tx.set(&v, i));
    }
    // The STM is unaffected: commits keep landing in memory...
    assert_eq!(v.load_atomic(), 10);
    // ...but durability degraded, stickily, and says so.
    let err = store.io_error().expect("fsync failure must surface");
    assert!(err.contains("injected fault"), "{err}");
    // The durable prefix is exactly the two successfully fsynced batches
    // (single-threaded appends flush one record per batch) and recovers
    // with no diagnostic but the reserved space past them.
    mem.crash();
    let rec = recover(mem.as_ref()).unwrap();
    assert!(
        rec.notes.len() == 1 && rec.notes[0].contains("unwritten tail"),
        "{:?}",
        rec.notes
    );
    assert_eq!(rec.values, [(1u64, 2u64)].into());
}

#[test]
fn bit_flip_corruption_ends_replay_with_a_typed_diagnostic() {
    let mem = Arc::new(MemVfs::new());
    let image = run_durable_workload("lsa", &mem);
    let (records, log_len, _) = record::decode_stream(&image);
    assert!(records.len() >= 3);
    // Corrupt a payload byte of the second record via the fault layer's
    // read-path bit flip, in the file an appending log leaves and in the
    // one a reserving log leaves.
    let first_len =
        record::HEADER_LEN + record::PAYLOAD_FIXED_LEN + record::PAIR_LEN * records[0].writes.len();
    for (layout, bytes) in [("appended", &image[..log_len]), ("reserved", &image[..])] {
        let replica = Arc::new(MemVfs::with_file(WAL_FILE, bytes.to_vec()));
        let flipping = FaultVfs::new(
            replica.clone(),
            FaultPlan {
                flip_on_read: Some(BitFlip {
                    file: WAL_FILE.to_string(),
                    offset: first_len + record::HEADER_LEN + 3,
                    bit: 5,
                }),
                ..FaultPlan::default()
            },
        );
        let rec = recover(&flipping).unwrap();
        // Only the record before the flip survives; the verdict is
        // corruption, not a tear; the bad suffix is gone from the file.
        assert_eq!(rec.values, replay(&records[..1]), "{layout}");
        assert!(
            rec.notes.len() == 1 && rec.notes[0].contains("corrupt record"),
            "{layout}: {:?}",
            rec.notes
        );
        assert_eq!(replica.read(WAL_FILE).unwrap().len(), first_len, "{layout}");
    }
}

#[test]
fn checkpoint_crash_reopen_cycle_preserves_state_across_generations() {
    let mem = Arc::new(MemVfs::new());
    let registry = backend_registry();

    // Generation 1: seed, transfer, checkpoint, transfer more, crash.
    {
        let (store, _) = DurableStore::open(mem.clone() as Arc<dyn Vfs>).unwrap();
        let backend = registry
            .build("swiss", StmConfig::default().with_commit_hook(store.hook()))
            .unwrap();
        let vars: Vec<TVar<u64>> = (0..VARS).map(|_| TVar::new(0)).collect();
        for (key, var) in vars.iter().enumerate() {
            store.heap().register(key as u64, var.core());
        }
        backend.run(TxKind::Regular, |tx| {
            for var in &vars {
                tx.set(var, PER_VAR)?;
            }
            Ok(())
        });
        transfer_loop(&backend, &vars, 7, 20);
        let report = store.checkpoint().unwrap();
        assert_eq!(report.snapshot_entries, VARS);
        transfer_loop(&backend, &vars, 8, 20);
    }
    mem.crash();

    // Generation 2: recover (snapshot + post-checkpoint log), reinstall
    // into fresh TVars, keep going, then die between seal and fold.
    {
        let (store, recovered) = DurableStore::open(mem.clone() as Arc<dyn Vfs>).unwrap();
        assert_eq!(recovered.snapshot_entries, VARS);
        assert_eq!(recovered.values.len(), VARS);
        assert_eq!(recovered.values.values().sum::<u64>(), TOTAL);
        let backend = registry
            .build("swiss", StmConfig::default().with_commit_hook(store.hook()))
            .unwrap();
        let vars: Vec<TVar<u64>> = (0..VARS).map(|_| TVar::new(0)).collect();
        for (key, var) in vars.iter().enumerate() {
            store.heap().register(key as u64, var.core());
            vars[key].store_atomic(recovered.values[&(key as u64)], recovered.last_version);
        }
        transfer_loop(&backend, &vars, 9, 20);
        // A checkpoint that dies right after sealing: wal → wal.old and
        // nothing else.
        store.wal().seal().unwrap();
    }
    mem.crash();

    // Generation 3: the interrupted checkpoint is repaired on recovery.
    let rec = recover(mem.as_ref()).unwrap();
    assert!(
        rec.notes
            .iter()
            .any(|n| n.contains("interrupted checkpoint")),
        "{:?}",
        rec.notes
    );
    assert_eq!(rec.values.len(), VARS);
    assert_eq!(rec.values.values().sum::<u64>(), TOTAL);
}

/// A hook wrapper that forwards `on_commit` and nothing else, the shape
/// of a timing wrapper: the await after the release must survive it.
struct ForwardOnly(Arc<dyn CommitHook>);

impl CommitHook for ForwardOnly {
    fn on_commit(&self, record: &WriteRecord<'_>) {
        self.0.on_commit(record);
    }
}

/// A durable store whose fsyncs wait at a gate, and a backend committing
/// through its hook.
struct Gated {
    gate: Arc<GatedVfs<MemVfs>>,
    store: DurableStore,
    backend: Backend,
}

impl Gated {
    fn new(name: &str, wrapped: bool) -> Self {
        let gate = Arc::new(GatedVfs::new(Arc::new(MemVfs::new())));
        let (store, _) = DurableStore::open(gate.clone() as Arc<dyn Vfs>).unwrap();
        let hook = if wrapped {
            Arc::new(ForwardOnly(store.hook())) as Arc<dyn CommitHook>
        } else {
            store.hook()
        };
        let backend = backend_registry()
            .build(name, StmConfig::default().with_commit_hook(hook))
            .unwrap();
        Self {
            gate,
            store,
            backend,
        }
    }
}

/// Every backend, with the store's hook and with it wrapped.
fn cells() -> impl Iterator<Item = (&'static str, bool)> {
    BACKENDS
        .into_iter()
        .flat_map(|name| [(name, false), (name, true)])
}

/// Wait (yielding) until `cond` holds; `false` after a generous deadline.
fn within_deadline(cond: impl Fn() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond() {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::yield_now();
    }
    true
}

/// Give a thread that should stay blocked a long run of chances to
/// finish anyway, then report whether it stayed blocked. Never fails on
/// correct code; on code that lets the thread through, it catches it.
fn stays_unset(flag: &AtomicBool) -> bool {
    for _ in 0..2000 {
        if flag.load(Ordering::SeqCst) {
            return false;
        }
        std::thread::yield_now();
    }
    !flag.load(Ordering::SeqCst)
}

#[test]
fn a_second_writer_stages_behind_a_held_fsync_in_commit_order_every_backend() {
    for (name, wrapped) in cells() {
        let g = Gated::new(name, wrapped);
        let x = TVar::new(0u64);
        g.store.heap().register(1, x.core());
        let (first, second) = (AtomicBool::new(false), AtomicBool::new(false));
        std::thread::scope(|s| {
            let _open = g.gate.opener();
            s.spawn(|| {
                g.backend.run(TxKind::Regular, |tx| tx.set(&x, 1));
                first.store(true, Ordering::SeqCst);
            });
            g.gate.await_arrivals(1);
            s.spawn(|| {
                g.backend.run(TxKind::Regular, |tx| {
                    let v = tx.get(&x)?;
                    tx.set(&x, v + 1)
                });
                second.store(true, Ordering::SeqCst);
            });
            assert!(
                within_deadline(|| g.store.wal().stats().records == 2),
                "{name}/{wrapped}: the second writer never staged"
            );
            assert_eq!(x.load_atomic(), 2, "{name}/{wrapped}: write not released");
            // The second commit leads its own fsync while the first is held.
            g.gate.await_arrivals(2);
            assert!(
                !first.load(Ordering::SeqCst) && !second.load(Ordering::SeqCst),
                "{name}/{wrapped}: a run returned before its record was durable"
            );
        });
        let lock_conflicts = g.backend.stats().aborts_by_cause[AbortReason::LockConflict.index()];
        assert_eq!(lock_conflicts, 0, "{name}/{wrapped}");
        g.gate.inner().crash();
        let (records, _, err) = record::decode_stream(&g.gate.inner().durable_bytes(WAL_FILE));
        assert!(err.is_some_and(|e| e.is_unwritten()), "{name}/{wrapped}");
        let logged: Vec<_> = records.iter().map(|r| r.writes.clone()).collect();
        assert_eq!(logged, [[(1, 1)], [(1, 2)]], "{name}/{wrapped}: log order");
    }
}

#[test]
fn commits_that_stage_nothing_wait_for_what_they_observed_every_backend() {
    for (name, wrapped) in cells() {
        let g = Gated::new(name, wrapped);
        let (x, y) = (TVar::new(0u64), TVar::new(0u64));
        g.store.heap().register(1, x.core());
        let (reader_read, reader_done) = (AtomicBool::new(false), AtomicBool::new(false));
        let (writer_read, writer_done) = (AtomicBool::new(false), AtomicBool::new(false));
        std::thread::scope(|s| {
            let _open = g.gate.opener();
            s.spawn(|| g.backend.run(TxKind::Regular, |tx| tx.set(&x, 1)));
            g.gate.await_arrivals(1);
            // Read-only, having observed the staged word.
            let reader = s.spawn(|| {
                let v = g.backend.run(TxKind::Regular, |tx| {
                    let v = tx.get(&x)?;
                    reader_read.store(true, Ordering::SeqCst);
                    Ok(v)
                });
                reader_done.store(true, Ordering::SeqCst);
                v
            });
            // Writes only an unregistered location.
            s.spawn(|| {
                g.backend.run(TxKind::Regular, |tx| {
                    let v = tx.get(&x)?;
                    writer_read.store(true, Ordering::SeqCst);
                    tx.set(&y, v + 10)
                });
                writer_done.store(true, Ordering::SeqCst);
            });
            assert!(
                within_deadline(|| {
                    reader_read.load(Ordering::SeqCst) && writer_read.load(Ordering::SeqCst)
                }),
                "{name}/{wrapped}: the staged word stayed locked"
            );
            assert!(
                within_deadline(|| y.load_atomic() == 11),
                "{name}/{wrapped}: the unregistered write never committed"
            );
            assert!(stays_unset(&reader_done), "{name}/{wrapped}: reader");
            assert!(stays_unset(&writer_done), "{name}/{wrapped}: writer");
            assert_eq!(g.store.wal().stats().records, 1, "{name}/{wrapped}");
            g.gate.open();
            assert_eq!(reader.join().unwrap(), 1, "{name}/{wrapped}");
        });
    }
}

#[test]
fn a_read_of_durable_words_does_not_wait_for_a_held_fsync() {
    // Every backend bounds what a read observed by the versions it read.
    for (name, wrapped) in cells() {
        let g = Gated::new(name, wrapped);
        let (k, x) = (TVar::new(0u64), TVar::new(0u64));
        g.store.heap().register(1, k.core());
        g.store.heap().register(2, x.core());
        g.gate.pass(1);
        g.backend.run(TxKind::Regular, |tx| tx.set(&k, 5));
        let got = AtomicU64::new(0);
        std::thread::scope(|s| {
            let _open = g.gate.opener();
            s.spawn(|| g.backend.run(TxKind::Regular, |tx| tx.set(&x, 1)));
            g.gate.await_arrivals(2);
            s.spawn(|| {
                let v = g.backend.run(TxKind::Regular, |tx| tx.get(&k));
                got.store(v, Ordering::SeqCst);
            });
            assert!(
                within_deadline(|| got.load(Ordering::SeqCst) == 5),
                "{name}/{wrapped}: a read of a durable key waited for an unrelated fsync"
            );
        });
    }
}

#[test]
fn a_boosted_key_is_released_before_the_fsync() {
    // `publish` releases abstract locks with the word locks, so a commit
    // awaiting its fsync holds no boosted key.
    for (name, wrapped) in cells() {
        let g = Gated::new(name, wrapped);
        let (k, x) = (TVar::new(0u64), TVar::new(0u64));
        g.store.heap().register(1, k.core());
        g.store.heap().register(2, x.core());
        g.gate.pass(1);
        g.backend.run(TxKind::Regular, |tx| tx.set(&k, 5));
        let boosted = BoostedSet::new();
        std::thread::scope(|s| {
            let _open = g.gate.opener();
            s.spawn(|| {
                g.backend.run(TxKind::Regular, |tx| {
                    tx.set(&x, 1)?;
                    boosted.add(tx, 7)
                })
            });
            g.gate.await_arrivals(2);
            assert!(boosted.base().contains(7));
            assert_eq!(
                boosted.locks().held(),
                0,
                "{name}/{wrapped}: a boosted key was held across the fsync"
            );
        });
    }
}

/// A hook wrapper that forwards `on_commit` after checking that every
/// word of `key` the record writes is locked while the commit stages.
struct StagedUnderLocks {
    inner: Arc<dyn CommitHook>,
    key: Arc<[TVar<u64>; 2]>,
    unlocked: AtomicU64,
}

impl CommitHook for StagedUnderLocks {
    fn on_commit(&self, record: &WriteRecord<'_>) {
        let locked = |w: &TVar<u64>| matches!(w.core().lock().load(), LockState::Locked { .. });
        record.for_each(&mut |location, _| {
            let word = self.key.iter().find(|w| w.core().id() == location);
            if !word.is_some_and(locked) {
                self.unlocked.fetch_add(1, Ordering::SeqCst);
            }
        });
        self.inner.on_commit(record);
    }
}

#[test]
fn a_short_set_stages_under_its_locks_in_commit_order_every_backend() {
    for name in BACKENDS {
        let gate = Arc::new(GatedVfs::new(Arc::new(MemVfs::new())));
        let (store, _) = DurableStore::open(gate.clone() as Arc<dyn Vfs>).unwrap();
        let words = Arc::new([TVar::new(0u64), TVar::new(0u64)]);
        store.heap().register(1, words[0].core());
        store.heap().register(2, words[1].core());
        let hook = Arc::new(StagedUnderLocks {
            inner: store.hook(),
            key: words.clone(),
            unlocked: AtomicU64::new(0),
        });
        let at = Atomic::new(
            backend_registry()
                .build(name, StmConfig::default().with_commit_hook(hook.clone()))
                .unwrap(),
        );
        let key = OptionWord::new(&words[0], &words[1]);
        let (first, second) = (AtomicBool::new(false), AtomicBool::new(false));
        std::thread::scope(|s| {
            let _open = gate.opener();
            s.spawn(|| {
                assert_eq!(at.short_update(key, &|_| Some(Some(1))), None);
                first.store(true, Ordering::SeqCst);
            });
            gate.await_arrivals(1);
            s.spawn(|| {
                let bump = |cur: Option<u64>| Some(cur.map(|v| v + 1));
                assert_eq!(at.short_update(key, &bump), Some(1));
                second.store(true, Ordering::SeqCst);
            });
            assert!(
                within_deadline(|| store.wal().stats().records == 2),
                "{name}: the second SET never staged"
            );
            gate.await_arrivals(2);
            assert!(
                !first.load(Ordering::SeqCst) && !second.load(Ordering::SeqCst),
                "{name}: a SET returned before its record was durable"
            );
        });
        assert_eq!(
            hook.unlocked.load(Ordering::SeqCst),
            0,
            "{name}: staged unlocked"
        );
        gate.inner().crash();
        let (records, _, err) = record::decode_stream(&gate.inner().durable_bytes(WAL_FILE));
        assert!(err.is_some_and(|e| e.is_unwritten()), "{name}");
        let logged: Vec<_> = records.iter().map(|r| r.writes.clone()).collect();
        assert_eq!(
            logged,
            [vec![(1, 1), (2, 1)], vec![(2, 2)]],
            "{name}: log order is commit order"
        );
    }
}

#[test]
fn a_short_get_awaits_what_it_observed_and_nothing_else_every_backend() {
    for (name, wrapped) in cells() {
        let Gated {
            gate,
            store,
            backend,
        } = Gated::new(name, wrapped);
        let at = Atomic::new(backend);
        let ks = KeySpace::new(ShardKind::Hash, 1, 4);
        ks.register_durable(store.heap());
        gate.pass(1);
        ks.set(&at, 1, 5);
        let durable_read = AtomicU64::new(0);
        let staged_read = AtomicBool::new(false);
        std::thread::scope(|s| {
            let _open = gate.opener();
            s.spawn(|| ks.set(&at, 0, 1));
            gate.await_arrivals(2);
            s.spawn(|| {
                let v = ks.get(&at, 1).expect("present");
                durable_read.store(v, Ordering::SeqCst);
            });
            let reader = s.spawn(|| {
                let v = ks.get(&at, 0);
                staged_read.store(true, Ordering::SeqCst);
                v
            });
            assert!(
                within_deadline(|| durable_read.load(Ordering::SeqCst) == 5),
                "{name}/{wrapped}: a GET of a durable key waited for an unrelated fsync"
            );
            assert!(
                stays_unset(&staged_read),
                "{name}/{wrapped}: GET of the staged key"
            );
            gate.open();
            assert_eq!(reader.join().unwrap(), Some(1), "{name}/{wrapped}");
        });
    }
}

/// Set in the environment of the kill test's child process: the store
/// directory it commits into.
const KILL_CHILD_DIR: &str = "DURABILITY_KILL_CHILD_DIR";
/// Keys the child updates; thread `t` owns the keys `k % 2 == t`.
const KILL_KEYS: usize = 4;
/// Acknowledged updates after which the child aborts.
const KILL_AFTER: usize = 300;

/// The child's body: commit increments through a durable store on a
/// real directory from two threads, print each acknowledged update as
/// `ack <key> <value>`, and abort mid-run.
fn kill_child(dir: &Path) -> ! {
    let vfs = Arc::new(StdVfs::new(dir).expect("create the store directory")) as Arc<dyn Vfs>;
    let (store, recovered) = DurableStore::open(vfs).expect("open an empty store");
    assert!(
        recovered.values.is_empty(),
        "the store directory is not fresh"
    );
    let backend = backend_registry()
        .build("oe", StmConfig::default().with_commit_hook(store.hook()))
        .unwrap();
    let vars: Vec<TVar<u64>> = (0..KILL_KEYS).map(|_| TVar::new(0)).collect();
    for (key, var) in vars.iter().enumerate() {
        store.heap().register(key as u64, var.core());
    }
    let acked = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..2 {
            let (backend, vars, acked) = (&backend, &vars, &acked);
            s.spawn(move || loop {
                for key in (t..KILL_KEYS).step_by(2) {
                    let v = backend.run(TxKind::Regular, |tx| {
                        let v = tx.get(&vars[key])? + 1;
                        tx.set(&vars[key], v)?;
                        Ok(v)
                    });
                    // `run` returned: the update is durable. Stdout is
                    // line-buffered, so the line leaves whole.
                    println!("ack {key} {v}");
                    acked.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
        while acked.load(Ordering::SeqCst) < KILL_AFTER as u64 {
            std::thread::yield_now();
        }
        std::process::abort()
    })
}

/// A real-disk crash: this test binary re-runs itself as a child that
/// commits through `DurableStore` over `StdVfs` and aborts mid-run, then
/// a fresh `StdVfs` recovers the directory it left. Every update the
/// child acknowledged is in the image, nothing reads as corruption, and a
/// second recovery has nothing left to repair.
#[test]
fn acknowledged_updates_survive_a_process_abort_on_a_real_disk() {
    if let Some(dir) = std::env::var_os(KILL_CHILD_DIR) {
        kill_child(Path::new(&dir));
    }
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.subsec_nanos());
    let dir = std::env::temp_dir().join(format!("durability-kill-{}-{nanos}", std::process::id()));
    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .args([
            "acknowledged_updates_survive_a_process_abort_on_a_real_disk",
            "--exact",
            "--nocapture",
            "--test-threads=1",
        ])
        .env(KILL_CHILD_DIR, &dir)
        .output()
        .expect("spawn the child");
    assert!(!out.status.success(), "the child was meant to abort");
    let mut acked = BTreeMap::new();
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let Some(rest) = line.strip_prefix("ack ") else {
            continue;
        };
        let (key, value) = rest.split_once(' ').expect("ack <key> <value>");
        let (key, value): (u64, u64) = (key.parse().unwrap(), value.parse().unwrap());
        let last = acked.entry(key).or_insert(0);
        *last = value.max(*last);
    }
    assert!(
        acked.values().sum::<u64>() >= KILL_AFTER as u64,
        "the child acknowledged too little: {acked:?}"
    );
    let on_disk = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
    assert!(
        on_disk >= RESERVE_CHUNK,
        "the child's log was never reserved"
    );

    // An abort does not tear a write: the log is whole batches, then the
    // zeros reserved past them — one unwritten tail, no corruption.
    let rec = recover(&StdVfs::new(&dir).unwrap()).unwrap();
    assert!(
        rec.notes.len() == 1 && rec.notes[0].contains("unwritten tail"),
        "{:?}",
        rec.notes
    );
    for (key, &value) in &acked {
        // One thread per key, one update in flight: the image holds the
        // last acknowledged value, or the one after it if that update
        // was durable but not yet printed.
        let got = rec.values.get(key).copied().unwrap_or(0);
        assert!(
            got == value || got == value + 1,
            "key {key}: acknowledged {value}, recovered {got}"
        );
    }
    let again = recover(&StdVfs::new(&dir).unwrap()).unwrap();
    assert!(again.notes.is_empty(), "{:?}", again.notes);
    assert_eq!(again.values, rec.values);
    let _ = std::fs::remove_dir_all(&dir);
}
