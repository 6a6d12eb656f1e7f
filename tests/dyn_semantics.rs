//! Semantics parity for the dyn-erased backend layer: the commit/abort/
//! composition guarantees of `tests/stm_semantics.rs`, re-run through
//! `Backend`/`Tx` for every registered backend. Erasure must change
//! dispatch, never semantics.

use composing_relaxed_transactions::backend_registry;
use composing_relaxed_transactions::cec::{move_entry, total_size, LinkedListSet, SetExt};
use composing_relaxed_transactions::stm_core::api::{Atomic, Policy};
use composing_relaxed_transactions::stm_core::dynstm::Backend;
use composing_relaxed_transactions::stm_core::parallel::worker_threads;
use composing_relaxed_transactions::stm_core::{
    Abort, AbortReason, StatsSnapshot, Stm, StmConfig, TVar, Transaction, TxKind,
};
use composing_relaxed_transactions::stm_tl2::Tl2;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// All five registered backends ("tl2", "lsa", "swiss", "oe",
/// "oe-estm-compat"), freshly built.
fn backends() -> Vec<Backend> {
    let reg = backend_registry();
    assert_eq!(reg.names().len(), 5, "expected all five backends wired");
    reg.build_all()
}

/// The composition-sound backends (everything except the deliberately
/// broken E-STM compatibility mode).
fn sound_backends() -> Vec<Backend> {
    backends()
        .into_iter()
        .filter(|b| b.key() != "oe-estm-compat")
        .collect()
}

// ---------------------------------------------------------------------
// Commit/abort basics, erased.
// ---------------------------------------------------------------------

#[test]
fn read_your_own_write_every_backend() {
    for b in backends() {
        let v = TVar::new(1u64);
        let out = b.run(TxKind::Regular, |tx| {
            tx.write(&v, 5)?;
            tx.read(&v)
        });
        assert_eq!(out, 5, "{}", b.key());
        assert_eq!(v.load_atomic(), 5, "{}", b.key());
        assert_eq!(b.stats().commits, 1, "{}", b.key());
    }
}

#[test]
fn aborted_attempt_leaves_no_trace_every_backend() {
    for b in backends() {
        let reg = backend_registry();
        let b = reg
            .build(b.key(), StmConfig::default().with_max_retries(0))
            .unwrap();
        let v = TVar::new(1u64);
        let r = b.try_run(TxKind::Regular, |tx| {
            tx.write(&v, 99)?;
            Err::<(), _>(Abort::new(AbortReason::Explicit))
        });
        assert!(r.is_err(), "{}", b.key());
        assert_eq!(v.load_atomic(), 1, "{}: abort must roll back", b.key());
    }
}

#[test]
fn explicit_retry_then_commit_every_backend() {
    for b in backends() {
        let v = TVar::new(0i64);
        let mut failed = false;
        b.run(TxKind::Regular, |tx| {
            let cur = tx.read(&v)?;
            tx.write(&v, cur + 9)?;
            if !failed {
                failed = true;
                return tx.retry();
            }
            Ok(())
        });
        assert_eq!(v.load_atomic(), 9, "{}", b.key());
        let snap = b.stats();
        assert!(snap.explicit_retries() >= 1, "{}", b.key());
        assert_eq!(
            snap.aborts(),
            0,
            "{}: a user-level retry must not count as a conflict abort",
            b.key()
        );
    }
}

// ---------------------------------------------------------------------
// Conservation: concurrent transfers under a classic read-only audit
// (the bank test of the static suite).
// ---------------------------------------------------------------------

const ACCOUNTS: usize = 16;
const TOTAL: i64 = 1600;

fn bank_conservation(b: Backend) {
    let key = b.key().to_string();
    let b = Arc::new(b);
    let accounts: Arc<Vec<TVar<i64>>> = Arc::new(
        (0..ACCOUNTS)
            .map(|_| TVar::new(TOTAL / ACCOUNTS as i64))
            .collect(),
    );
    let stop = Arc::new(AtomicBool::new(false));

    let mut movers = Vec::new();
    for t in 0..worker_threads(3) as u64 {
        let b = Arc::clone(&b);
        let accounts = Arc::clone(&accounts);
        let stop = Arc::clone(&stop);
        movers.push(std::thread::spawn(move || {
            let mut s = 0x9E37_79B9u64 ^ t;
            while !stop.load(Ordering::Relaxed) {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let from = (s % ACCOUNTS as u64) as usize;
                let to = ((s >> 8) % ACCOUNTS as u64) as usize;
                if from == to {
                    continue;
                }
                b.run(TxKind::Regular, |tx| {
                    let a = tx.read(&accounts[from])?;
                    let c = tx.read(&accounts[to])?;
                    if a > 0 {
                        tx.write(&accounts[from], a - 1)?;
                        tx.write(&accounts[to], c + 1)?;
                    }
                    Ok(())
                });
            }
        }));
    }

    // Auditor: classic read-only snapshots must always see TOTAL.
    for _ in 0..100 {
        let sum = b.run(TxKind::Regular, |tx| {
            let mut sum = 0i64;
            for a in accounts.iter() {
                sum += tx.read(a)?;
            }
            Ok(sum)
        });
        assert_eq!(sum, TOTAL, "{key}: money created or destroyed");
    }
    stop.store(true, Ordering::Relaxed);
    for m in movers {
        m.join().unwrap();
    }
    let final_sum: i64 = accounts.iter().map(TVar::load_atomic).sum();
    assert_eq!(final_sum, TOTAL, "{key}");
}

#[test]
fn conservation_every_backend_erased() {
    // Regular transactions only — safe under every backend, including the
    // E-STM compatibility mode (the Fig. 1 bug needs *elastic children*).
    for b in backends() {
        bank_conservation(b);
    }
}

// ---------------------------------------------------------------------
// Elastic window semantics survive erasure (OE-STM).
// ---------------------------------------------------------------------

#[test]
fn elastic_window_pairwise_consistency_erased() {
    let b = Arc::new(backend_registry().build_default("oe").unwrap());
    let x = Arc::new(TVar::new(0i64));
    let y = Arc::new(TVar::new(0i64));
    let stop = Arc::new(AtomicBool::new(false));

    let writer = {
        let (b, x, y, stop) = (
            Arc::clone(&b),
            Arc::clone(&x),
            Arc::clone(&y),
            Arc::clone(&stop),
        );
        std::thread::spawn(move || {
            let mut i = 0i64;
            while !stop.load(Ordering::Relaxed) {
                i += 1;
                b.run(TxKind::Regular, |tx| {
                    tx.write(&*x, i)?;
                    tx.write(&*y, i)
                });
            }
        })
    };

    for _ in 0..10_000 {
        let (a, c) = b.run(TxKind::Elastic, |tx| {
            let a = tx.read(&*x)?;
            let c = tx.read(&*y)?; // consecutive: both in the window
            Ok((a, c))
        });
        assert_eq!(a, c, "consecutive elastic reads must stay consistent");
    }
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
}

// ---------------------------------------------------------------------
// Composition through children, erased.
// ---------------------------------------------------------------------

#[test]
fn composed_set_ops_every_sound_backend() {
    for b in sound_backends() {
        let key = b.key().to_string();
        let at = Atomic::new(b);
        let set = LinkedListSet::new();
        assert!(set.add_all(&at, &[4, 2, 9]), "{key}");
        assert!(set.insert_if_absent(&at, 10, 99), "{key}");
        assert!(!set.insert_if_absent(&at, 20, 4), "{key}");
        assert!(set.remove_all(&at, &[2, 9]), "{key}");
        assert_eq!(set.size(&at), 2, "{key}");
        assert!(
            at.stats().child_commits >= 5,
            "{key}: composition must run as child transactions"
        );
    }
}

#[test]
fn concurrent_opposite_moves_never_deadlock_or_lose_erased() {
    // The paper's introduction example, through the erased layer, on
    // every sound backend: move(k→k') ∥ move(k'→k) cannot deadlock and
    // key 1 survives in exactly one of the two sets.
    for backend in sound_backends() {
        let key = backend.key().to_string();
        let b = Arc::new(Atomic::new(backend));
        let a: Arc<LinkedListSet> = Arc::new(LinkedListSet::new());
        let c: Arc<LinkedListSet> = Arc::new(LinkedListSet::new());
        a.add(&*b, 1);
        c.add(&*b, 2);
        let mut handles = Vec::new();
        for dir in 0..2 {
            let b = Arc::clone(&b);
            let a = Arc::clone(&a);
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..200 {
                    if dir == 0 {
                        move_entry(&*b, &*a, &*c, 1, 1);
                    } else {
                        move_entry(&*b, &*c, &*a, 1, 1);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let in_a = a.contains(&*b, 1);
        let in_c = c.contains(&*b, 1);
        assert!(in_a ^ in_c, "{key}: key 1 must live in exactly one set");
        assert!(c.contains(&*b, 2), "{key}");
        assert_eq!(total_size(&*b, &*a, &*c), 2, "{key}");
    }
}

#[test]
fn outheritance_counter_only_moves_under_oe() {
    // Parity with the static path's counters: the erased OE-STM outherits
    // on child commits; the erased classic STMs never do.
    for b in sound_backends() {
        let key = b.key().to_string();
        let at = Atomic::new(b);
        let set = LinkedListSet::new();
        set.add_all(&at, &[1, 2, 3]);
        let outherits = at.stats().outherits;
        if key == "oe" {
            assert!(outherits >= 3, "OE-STM must outherit each child");
        } else {
            assert_eq!(outherits, 0, "{key}: classic STMs never outherit");
        }
    }
}

// ---------------------------------------------------------------------
// One instance behind every surface.
// ---------------------------------------------------------------------

#[test]
fn one_instance_behind_every_surface_every_backend() {
    // A commit through the erased `Backend::run` and one through the
    // facade land in the same counters, whichever accessor reads them,
    // and the facade's reset zeroes what the erased handle reports.
    for b in backends() {
        let key = b.key().to_string();
        let v = TVar::new(0u64);
        b.run(TxKind::Regular, |tx| tx.write(&v, 1));
        let at = Atomic::new(b);
        at.run(Policy::Regular, |tx| tx.modify(&v, |x| x + 1));
        assert_eq!(v.load_atomic(), 2, "{key}");
        let b = at.backend();
        assert!(std::ptr::eq(at.instance(), b.instance()), "{key}");
        let facade = at.stats();
        assert_eq!(facade.commits, 2, "{key}");
        assert_eq!(facade, b.stats(), "{key}");
        assert_eq!(facade, b.instance().stats.snapshot(), "{key}");
        at.reset_stats();
        assert_eq!(b.stats(), StatsSnapshot::default(), "{key}");
    }
}

#[test]
fn one_instance_behind_every_surface_static() {
    // The same through a static backend: `Stm::run`, `Atomic<Tl2>`.
    let stm = Tl2::new();
    let v = TVar::new(0u64);
    stm.run(TxKind::Regular, |tx| tx.write(&v, 1));
    let at = Atomic::new(stm);
    at.run(Policy::Regular, |tx| tx.modify(&v, |x| x + 1));
    assert_eq!(v.load_atomic(), 2);
    let stm = at.backend();
    let facade = at.stats();
    assert_eq!(facade.commits, 2);
    assert_eq!(facade, stm.stats());
    assert_eq!(facade, stm.instance().stats.snapshot());
    at.reset_stats();
    assert_eq!(stm.stats(), StatsSnapshot::default());
}
