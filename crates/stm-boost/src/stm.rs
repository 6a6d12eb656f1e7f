//! Boosting over a host STM.
//!
//! A boosted object needs no engine of its own: it is a client of
//! whatever transaction runs it, and the host's driver keeps its abstract
//! locks and compensations ([`Boosted`](stm_core::driver::Boosted)). What
//! is left here is the registry entry the frozen `benchmark/` package
//! still builds, and the tests that pin how a host's driver treats
//! boosted state on every backend.

use stm_core::dynstm::{BackendRegistry, BackendSpec};
use stm_tl2::Tl2;

/// Register `"boost"` as a plain TL2 instance. This exists only for the
/// frozen `benchmark/` package: its registry calls this function, and its
/// traced `stm-boost.rw_tx_ns` probe builds `"boost"` by name, so that
/// probe times TL2. Nothing else registers or builds `"boost"`.
pub fn register_backends(registry: &mut BackendRegistry) {
    registry.register(BackendSpec::new(
        "boost",
        "TL2, under the name the benchmark's boosting probe builds",
        |config| Box::new(Tl2::with_config(config)),
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hosts, BoostedSet};
    use stm_core::{Abort, AbortReason, RunError, StmConfig, TVar, Transaction, TxKind};

    const R: TxKind = TxKind::Regular;

    #[test]
    fn read_write_roundtrip_releases_locks() {
        for stm in hosts(&StmConfig::default()) {
            let s = BoostedSet::new();
            let v = TVar::new(41u64);
            let out = stm.run(R, |tx| {
                let x = tx.get(&v)?;
                s.add(tx, x as i64)?;
                tx.set(&v, x + 1)?;
                tx.get(&v)
            });
            assert_eq!(out, 42);
            assert_eq!(v.load_atomic(), 42);
            assert!(s.base().contains(41));
            assert_eq!(s.locks().held(), 0, "2PL must release at commit");
            assert_eq!(stm.stats().commits, 1);
        }
    }

    #[test]
    fn abort_replays_compensations_in_reverse() {
        // remove(1) then add(1): replayed newest first the set ends with 1
        // (remove, then add back); replayed oldest first it would not.
        for stm in hosts(&StmConfig::default()) {
            let s = BoostedSet::new();
            s.base().add(1);
            let mut seen = Vec::new();
            stm.run(R, |tx| {
                seen.push(s.base().contains(1));
                s.remove(tx, 1)?;
                s.add(tx, 1)?;
                if seen.len() == 1 {
                    return Err(Abort::new(AbortReason::Explicit));
                }
                Ok(())
            });
            assert_eq!(seen, [true, true], "{}", stm.key());
            assert_eq!(stm.stats().aborts(), 1);
            assert_eq!(s.locks().held(), 0);
        }
    }

    #[test]
    fn conflicting_acquisition_aborts_the_requester() {
        for stm in hosts(&StmConfig::default().with_max_retries(1)) {
            let s = BoostedSet::new();
            // A foreign owner squats on the abstract lock out-of-band.
            assert_eq!(s.locks().try_acquire(3, u64::MAX), Some(true));
            let r = stm.try_run(R, |tx| s.contains(tx, 3));
            assert!(matches!(r, Err(RunError::RetriesExhausted { .. })), "{r:?}");
            s.locks().release(3, u64::MAX);
            assert!(!stm.run(R, |tx| s.contains(tx, 3)));
        }
    }

    #[test]
    fn children_nest_flat_and_keep_locks_until_top_commit() {
        for stm in hosts(&StmConfig::default()) {
            let s = BoostedSet::new();
            stm.run(R, |tx| {
                tx.child(R, |t| s.add(t, 7))?;
                // The child's abstract lock was passed to the attempt, not
                // released: a re-touch is reentrant, not a self-conflict.
                assert_eq!(s.locks().owner_of(7), Some(tx.ticket()));
                s.remove(tx, 7)
            });
            assert!(s.base().is_empty());
            assert_eq!(stm.stats().child_commits, 1);
            assert_eq!(s.locks().held(), 0);
        }
    }

    #[test]
    fn waiting_retries_are_not_charged_against_a_bounded_budget() {
        // max_retries = 1 conflict, but FOUR precondition waits then a
        // commit: a wait is not a loss, so the run must not exhaust, and
        // each wait parks with no abstract lock held.
        for stm in hosts(&StmConfig::default().with_max_retries(1)) {
            let s = BoostedSet::new();
            let v = TVar::new(0u64);
            let mut waits_left = 4;
            let r = stm.try_run(R, |tx| {
                assert_eq!(s.locks().held(), 0, "a wait pinned an abstract lock");
                let x = tx.get(&v)?;
                s.add(tx, 1)?;
                if waits_left > 0 {
                    waits_left -= 1;
                    return tx.retry();
                }
                tx.set(&v, x + 1)
            });
            assert!(r.is_ok(), "waits charged against max_retries: {r:?}");
            assert_eq!(v.load_atomic(), 1);
            let snap = stm.stats();
            assert_eq!(snap.explicit_retries(), 4);
            assert_eq!(snap.retry_parks, 4);
            assert_eq!(snap.cm_waits(), 0);
            assert_eq!(s.locks().held(), 0);
        }
    }

    #[test]
    fn empty_read_set_retry_is_would_block_forever() {
        // retry() after a word write and a boosted read: neither is a
        // wakeable precondition, the word read set is empty, so the run
        // ends with the distinct error instead of parking until a
        // watchdog kills it — with the write undone and no lock held.
        for stm in hosts(&StmConfig::default()) {
            let s = BoostedSet::new();
            let w = TVar::new(1u64);
            let r: Result<(), _> = stm.try_run(R, |tx| {
                tx.set(&w, 2)?;
                s.contains(tx, 2)?;
                tx.retry()
            });
            assert!(
                matches!(r, Err(RunError::WouldBlockForever { attempts: 1 })),
                "{r:?}"
            );
            assert_eq!(w.load_atomic(), 1);
            assert_eq!(s.locks().held(), 0);
        }
    }

    #[test]
    fn a_read_only_run_with_a_boosted_op_validates_its_reads() {
        // The word read serializes at the snapshot, the boosted contains
        // while its lock is held: only a validation at commit shows that
        // the overwrite between them did not happen.
        for stm in hosts(&StmConfig::default()) {
            let s = BoostedSet::new();
            let x = TVar::new(0u64);
            let mut first = true;
            let seen = stm.run(R, |tx| {
                let v = tx.get(&x)?;
                if std::mem::take(&mut first) {
                    std::thread::scope(|sc| {
                        sc.spawn(|| stm.run(R, |tx| tx.set(&x, 1)));
                    });
                }
                s.contains(tx, 1)?;
                Ok(v)
            });
            assert_eq!(seen, 1, "{}: committed a stale read", stm.key());
        }
    }

    #[test]
    fn registry_builds_boost_by_name() {
        let mut reg = BackendRegistry::new();
        register_backends(&mut reg);
        let b = reg.build_default("boost").expect("registered");
        assert_eq!(b.name(), "TL2", "the compat entry is a plain TL2");
        let v = TVar::new(5u64);
        let out = b.run(R, |tx| {
            let x = tx.get(&v)?;
            tx.set(&v, x * 2)?;
            tx.get(&v)
        });
        assert_eq!(out, 10);
    }
}
