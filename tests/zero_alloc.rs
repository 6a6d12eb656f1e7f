//! The allocation-free hot path, enforced: a warmed-up transaction must
//! perform **zero heap allocations** on every word-based backend — the
//! committing run itself and every retry attempt, both at the SPI level
//! and through the `atomic` facade (`Atomic`/`Tx`/`or_else`), which must
//! add nothing of its own — and so must the operation wrappers around it
//! (`cec::SetExt` updates: epoch pin + run + unpin; every `KeySpace`
//! operation: the run alone).
//!
//! Method: a `#[global_allocator]` wrapper around the system allocator
//! counts every `alloc`/`realloc`/`alloc_zeroed` call. For each backend we
//! run the same transaction body on warmed state and require the count to
//! be **0** for a committing run (read set, write set, spill index, lock
//! order, undo log and nesting frames all come back from the thread-local
//! pool), and *identical* between a run that commits immediately and one
//! that commits after 32 forced aborts.
//!
//! The body deliberately stresses every scratch component: reads, >16
//! distinct writes (past the write set's linear-scan threshold, so the
//! open-addressed spill index engages), and a child transaction (nesting
//! frame; for OE-STM also the window hand-off).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use composing_relaxed_transactions::backend_registry;
use composing_relaxed_transactions::oe_stm::OeStm;
use composing_relaxed_transactions::stm_boost::BoostedSet;
use composing_relaxed_transactions::stm_core::api::{Atomic, AtomicBackend, Policy};
use composing_relaxed_transactions::stm_core::{Stm, TVar, Transaction, TxKind};
use composing_relaxed_transactions::stm_lsa::Lsa;
use composing_relaxed_transactions::stm_swiss::Swiss;
use composing_relaxed_transactions::stm_tl2::Tl2;

/// Number of heap allocation events (alloc + realloc + alloc_zeroed).
static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates directly to `System`; the counter is a relaxed atomic
// with no other side effects, so all `GlobalAlloc` contracts are inherited.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Distinct written locations — past the write set's linear-scan threshold
/// (16), so the spill index is on the measured path.
const WRITES: usize = 24;
/// Locations read before writing.
const READS: usize = 8;

/// Run one transaction that reads, composes a child, writes 24 locations,
/// and force-aborts itself `aborts` times before committing. Returns the
/// number of allocation events during the `run` call.
fn alloc_events_for_run<S: Stm>(stm: &S, kind: TxKind, vars: &[TVar<u64>], aborts: u32) -> u64 {
    let mut left = aborts;
    let before = ALLOC_EVENTS.load(Ordering::Relaxed);
    stm.run(kind, |tx| {
        let mut acc = 0u64;
        for v in &vars[..READS] {
            acc = acc.wrapping_add(tx.read(v)?);
        }
        // A child transaction: pushes a nesting frame (and, for OE-STM,
        // parks the parent's elastic window).
        tx.child(kind, |tx| {
            let x = tx.read(&vars[0])?;
            tx.write(&vars[0], x.wrapping_add(1))
        })?;
        for (i, v) in vars[..WRITES].iter().enumerate() {
            tx.write(v, acc.wrapping_add(i as u64))?;
        }
        if left > 0 {
            left -= 1;
            return tx.retry();
        }
        Ok(())
    });
    ALLOC_EVENTS.load(Ordering::Relaxed) - before
}

/// Minimum allocation count over several trials. The counter is
/// process-global, so a libtest harness thread can inject *extra* events
/// into a trial — but never remove any. The minimum over a handful of
/// trials is therefore the undisturbed per-run count.
fn min_events<S: Stm>(stm: &S, kind: TxKind, vars: &[TVar<u64>], aborts: u32) -> u64 {
    min_events_of(|| {
        alloc_events_for_run(stm, kind, vars, aborts);
    })
}

/// [`min_events`] for any measured region.
fn min_events_of(mut f: impl FnMut()) -> u64 {
    (0..8)
        .map(|_| {
            let before = ALLOC_EVENTS.load(Ordering::Relaxed);
            f();
            ALLOC_EVENTS.load(Ordering::Relaxed) - before
        })
        .min()
        .expect("at least one trial")
}

/// Reads of the read-only body: more than the scratch's first growth step,
/// fewer than the write body's footprint.
const RO_READS: usize = 12;

/// The assertions: once warm, a committing run — the read/child/write
/// body and a read-only one — performs no allocation at all, and a run
/// with 32 forced aborts allocates exactly as much as a run with none.
fn assert_retries_do_not_allocate<S: Stm>(stm: &S, kind: TxKind, name: &str) {
    let vars: Vec<TVar<u64>> = (0..WRITES as u64).map(TVar::new).collect();
    // Warm up: fills the thread-local scratch pool (entry vectors, index
    // table, lock order, the backends' own logs) and any lazy statics.
    alloc_events_for_run(stm, kind, &vars, 2);
    let clean = min_events(stm, kind, &vars, 0);
    assert_eq!(
        clean, 0,
        "{name}: a warmed-up committing run allocated {clean} times — \
         every buffer must come back from the pool"
    );
    let read_only = min_events_of(|| {
        stm.run(kind, |tx| {
            let mut acc = 0u64;
            for v in &vars[..RO_READS] {
                acc = acc.wrapping_add(tx.read(v)?);
            }
            Ok(acc)
        });
    });
    assert_eq!(
        read_only, 0,
        "{name}: a warmed-up read-only run allocated {read_only} times"
    );
    let storm = min_events(stm, kind, &vars, 32);
    assert_eq!(
        storm, clean,
        "{name}: a 33-attempt run allocated {storm} times vs {clean} for a \
         single-attempt run — retries must not touch the allocator"
    );
}

/// The same body through the `atomic` facade (`get`/`set`, a `section`,
/// `tx.retry()`): the facade's `Tx` wrapper and the `or_else` runner must
/// add no allocation of their own.
fn facade_events_for_run<B: AtomicBackend>(
    at: &Atomic<B>,
    policy: Policy,
    vars: &[TVar<u64>],
    aborts: u32,
) -> u64 {
    let mut left = aborts;
    let before = ALLOC_EVENTS.load(Ordering::Relaxed);
    at.run(policy, |tx| {
        let mut acc = 0u64;
        for v in &vars[..READS] {
            acc = acc.wrapping_add(tx.get(v)?);
        }
        tx.section(policy, |tx| {
            let x = tx.get(&vars[0])?;
            tx.set(&vars[0], x.wrapping_add(1))
        })?;
        for (i, v) in vars[..WRITES].iter().enumerate() {
            tx.set(v, acc.wrapping_add(i as u64))?;
        }
        if left > 0 {
            left -= 1;
            return tx.retry();
        }
        Ok(())
    });
    ALLOC_EVENTS.load(Ordering::Relaxed) - before
}

fn facade_min_events<B: AtomicBackend>(
    at: &Atomic<B>,
    policy: Policy,
    vars: &[TVar<u64>],
    aborts: u32,
) -> u64 {
    min_events_of(|| {
        facade_events_for_run(at, policy, vars, aborts);
    })
}

fn assert_facade_retries_do_not_allocate<B: AtomicBackend>(
    at: &Atomic<B>,
    policy: Policy,
    name: &str,
) {
    let vars: Vec<TVar<u64>> = (0..WRITES as u64).map(TVar::new).collect();
    facade_events_for_run(at, policy, &vars, 2); // warm the scratch pool
    let clean = facade_min_events(at, policy, &vars, 0);
    assert_eq!(
        clean, 0,
        "{name}: a warmed-up committing facade run allocated {clean} times"
    );
    let read_only = min_events_of(|| {
        at.run(policy, |tx| {
            let mut acc = 0u64;
            for v in &vars[..RO_READS] {
                acc = acc.wrapping_add(tx.get(v)?);
            }
            Ok(acc)
        });
    });
    assert_eq!(
        read_only, 0,
        "{name}: a warmed-up read-only facade run allocated {read_only} times"
    );
    let storm = facade_min_events(at, policy, &vars, 32);
    assert_eq!(
        storm, clean,
        "{name}: a 33-attempt facade run allocated {storm} times vs {clean} \
         for a single-attempt run — the facade must not touch the allocator"
    );
}

/// `or_else` with a retrying primary branch: branch alternation happens
/// across attempts of one run and must be allocation-free too.
fn assert_or_else_does_not_allocate<B: AtomicBackend>(at: &Atomic<B>, name: &str) {
    let v = TVar::new(0u64);
    let one_branch = |at: &Atomic<B>, retries: u32| {
        // Both branch closures need the countdown; Cell lets them share it.
        let left = std::cell::Cell::new(retries);
        let before = ALLOC_EVENTS.load(Ordering::Relaxed);
        at.or_else(
            Policy::Regular,
            |tx| {
                tx.set(&v, 1)?;
                if left.get() > 0 {
                    left.set(left.get() - 1);
                    return tx.retry();
                }
                Ok(())
            },
            |tx| {
                tx.set(&v, 2)?;
                if left.get() > 0 {
                    left.set(left.get() - 1);
                    return tx.retry();
                }
                Ok(())
            },
        );
        ALLOC_EVENTS.load(Ordering::Relaxed) - before
    };
    one_branch(at, 2); // warm
    let clean = (0..8).map(|_| one_branch(at, 0)).min().unwrap();
    let storm = (0..8).map(|_| one_branch(at, 32)).min().unwrap();
    assert_eq!(
        storm, clean,
        "{name}: or_else branch alternation allocated ({storm} vs {clean})"
    );
}

/// A boosted `contains` of a present key: once warm, the abstract-lock
/// table and the attempt's log reuse their capacity, so a run allocates
/// nothing.
fn assert_boosted_contains_does_not_allocate<B: AtomicBackend>(at: &Atomic<B>, name: &str) {
    let set = BoostedSet::new();
    set.base().add(7);
    let contains = || assert!(at.run(Policy::Regular, |tx| set.contains(tx, 7)));
    contains(); // warm the lock table and the log's spare
    let events = min_events_of(contains);
    assert_eq!(
        events, 0,
        "boosted/Backend({name}): a warmed contains allocated {events} times"
    );
}

/// One sequential test (not five): the allocation counter is
/// process-global, and libtest's worker threads and result printing would
/// otherwise allocate concurrently with a measured region and flake the
/// exact-equality assertion.
#[test]
fn warmed_retry_loops_do_not_allocate_on_any_backend() {
    assert_retries_do_not_allocate(&Tl2::new(), TxKind::Regular, "TL2");
    assert_retries_do_not_allocate(&Lsa::new(), TxKind::Regular, "LSA");
    assert_retries_do_not_allocate(&Swiss::new(), TxKind::Regular, "SwissTM");
    assert_retries_do_not_allocate(&OeStm::new(), TxKind::Regular, "OE-STM/regular");
    assert_retries_do_not_allocate(&OeStm::new(), TxKind::Elastic, "OE-STM/elastic");

    // The `atomic` facade on top: a static runner and a registry-built
    // erased runner, plus the `or_else` alternation path. Steady state
    // must stay allocation-free through the new user layer.
    assert_facade_retries_do_not_allocate(
        &Atomic::new(OeStm::new()),
        Policy::Elastic,
        "facade/OE-STM",
    );
    assert_facade_retries_do_not_allocate(
        &Atomic::new(backend_registry().build_default("tl2").unwrap()),
        Policy::Regular,
        "facade/Backend(tl2)",
    );
    assert_or_else_does_not_allocate(&Atomic::new(Tl2::new()), "or_else/TL2");
    assert_or_else_does_not_allocate(
        &Atomic::new(backend_registry().build_default("oe").unwrap()),
        "or_else/Backend(oe)",
    );

    // The retry pacing is a plain `Backoff` local of the run, created at
    // its first loss: the 32 forced retries above already paced through
    // it. The erased SwissTM backend adds the encounter-time rule's site.
    assert_facade_retries_do_not_allocate(
        &Atomic::new(backend_registry().build_default("swiss").unwrap()),
        Policy::Regular,
        "facade/Backend(swiss)",
    );

    // Tracing is a first-class capability of every registry backend now:
    // each attempt consults `config.trace_sink` on its begin path. With
    // no sink installed (the default — `StmConfig::default()` is exactly
    // the trace-capable configuration with tracing off) that consultation
    // must stay allocation-free: same 33-attempts-vs-1 exact-equality
    // bar for every registered backend. A boosted operation on any of
    // them is held to the same bar.
    for name in backend_registry().names() {
        let at = Atomic::new(backend_registry().build_default(name).unwrap());
        assert_facade_retries_do_not_allocate(
            &at,
            Policy::Regular,
            &format!("tracing-off/Backend({name})"),
        );
        assert_boosted_contains_does_not_allocate(&at, name);
    }

    // Operation level: what a service request pays around its
    // transaction. A set operation pins an epoch, runs and unpins; with
    // nothing retired the pin takes no lock. A keyspace operation is the
    // run alone: a GET is two word reads, with no pin. Nothing
    // here may allocate, on the static `SetExt` path or the
    // registry-erased `KeySpace` one.
    use composing_relaxed_transactions::cec::{LinkedListSet, SetExt};
    use composing_relaxed_transactions::txkv::{KeySpace, ShardKind};
    let at = Atomic::new(OeStm::new());
    let set = LinkedListSet::new();
    for k in 0..64 {
        set.add(&at, k * 2);
    }
    composing_relaxed_transactions::cec::arena::quiesce();
    assert!(set.contains(&at, 10) && !set.contains(&at, 11)); // warm
    let events = min_events_of(|| {
        for k in 0..64 {
            assert_eq!(set.contains(&at, k), k % 2 == 0);
        }
    });
    assert_eq!(events, 0, "SetExt::contains allocated {events} times");

    let at = Atomic::new(backend_registry().build_default("oe").unwrap());
    let kv = KeySpace::new(ShardKind::Hash, 8, 1 << 10);
    for k in 0..512 {
        kv.set(&at, k * 2, k as u64);
    }
    composing_relaxed_transactions::cec::arena::quiesce();
    assert_eq!((kv.get(&at, 10), kv.get(&at, 11)), (Some(5), None)); // warm
    let events = min_events_of(|| {
        for k in 0..64 {
            assert_eq!(kv.get(&at, k).is_some(), k % 2 == 0);
        }
    });
    assert_eq!(events, 0, "KeySpace::get allocated {events} times");
    // An update of a present key: a write, its lock (under the reserved
    // short-operation owner, no ticket), a commit stamp and a validation,
    // but no node and nothing retired.
    let events = min_events_of(|| {
        for k in 0..64 {
            assert_eq!(kv.set(&at, k * 2, k as u64 + 1), Some(k as u64));
            kv.set(&at, k * 2, k as u64);
        }
    });
    assert_eq!(
        events, 0,
        "KeySpace::set of a present key allocated {events} times"
    );
    // A CAS that swaps and one that does not; a DEL of a present key and
    // of the then absent key, re-inserted by a SET.
    let events = min_events_of(|| {
        for k in 0..64 {
            assert!(kv.cas(&at, k * 2, Some(k as u64), k as u64 + 1));
            assert!(!kv.cas(&at, k * 2, Some(k as u64), 0));
            kv.cas(&at, k * 2, Some(k as u64 + 1), k as u64);
        }
    });
    assert_eq!(events, 0, "KeySpace::cas allocated {events} times");
    let events = min_events_of(|| {
        for k in 0..64 {
            assert_eq!(kv.del(&at, k * 2), Some(k as u64));
            assert_eq!(kv.del(&at, k * 2), None);
            kv.set(&at, k * 2, k as u64);
        }
    });
    assert_eq!(events, 0, "KeySpace::del allocated {events} times");
    // A 4-key MULTI over present keys: one short update of eight words,
    // four of them locked and stored.
    use composing_relaxed_transactions::txkv::MultiOp;
    let keys = [0, 2, 4, 6];
    let bump = |_: usize, cur: Option<u64>| MultiOp::Put(cur.expect("present") + 1);
    assert_eq!(kv.multi(&at, &keys, bump), 4); // warm
    let events = min_events_of(|| {
        for _ in 0..16 {
            assert_eq!(kv.multi(&at, &keys, bump), 4);
        }
    });
    assert_eq!(events, 0, "KeySpace::multi allocated {events} times");

    // The stage step of a durable commit, run under the committer's
    // locks: the hook encodes the registered writes straight into the
    // WAL's batch buffer. With both batch buffers warm it allocates
    // nothing; the flush after each trial (I/O, the await step) is not
    // measured.
    use composing_relaxed_transactions::stm_core::hook::WriteRecord;
    use durable::{DurableStore, MemVfs, Vfs};
    let (store, _) =
        DurableStore::open(std::sync::Arc::new(MemVfs::new()) as std::sync::Arc<dyn Vfs>)
            .expect("open an empty store");
    let vars: Vec<TVar<u64>> = (0..4).map(TVar::new).collect();
    for (key, var) in vars.iter().enumerate() {
        store.heap().register(key as u64, var.core());
    }
    let (hook, wal) = (store.hook(), store.wal());
    let writes: Vec<(usize, u64)> = vars.iter().map(|v| (v.core().id(), 9)).collect();
    let iter = |f: &mut dyn FnMut(usize, u64)| writes.iter().for_each(|&(id, w)| f(id, w));
    let record = WriteRecord::new(1, writes.len(), &iter);
    let events = (0..8)
        .map(|_| {
            let before = ALLOC_EVENTS.load(Ordering::Relaxed);
            hook.on_commit(&record);
            let events = ALLOC_EVENTS.load(Ordering::Relaxed) - before;
            wal.flush().expect("flush to memory");
            events
        })
        .skip(2) // warm both batch buffers
        .min()
        .expect("trials ran");
    assert_eq!(
        events, 0,
        "staging a durable commit allocated {events} times"
    );
}
