//! A boosted set: a client of any host transaction.
//!
//! Each operation takes the key's abstract lock in the set's own table
//! (operations on different keys commute), applies *eagerly* to the
//! linearizable base, and logs the lock and the inverse in the host
//! attempt's abstract-lock log: `add(k)` is compensated by `remove(k)` and
//! vice versa. Locks are two-phase, held until the top-level transaction
//! commits or aborts; the host's driver releases them and replays the
//! compensations (see [`Boosted`]).
//!
//! Composition is the driver's: a committing child's locks and
//! compensations stay in the attempt's log (outheritance — a parent abort
//! still undoes the child, and no foreign transaction can touch the
//! child's keys before the parent commits). [`BoostedSet::open_nested`] is
//! the contrast, reproducing the hazards of Moss's open nesting.

use crate::base::BaseSet;
use crate::locks::AbstractLocks;
use stm_core::driver::Boosted;
use stm_core::{Abort, AbortReason, Transaction};

/// The compensation word of an update: the key's membership before it.
const ABSENT: u64 = 0;
const PRESENT: u64 = 1;

/// A boosted concurrent set: base structure + abstract locks. Its
/// operations run inside a transaction of any backend:
/// `stm.run(TxKind::Regular, |tx| set.add(tx, k))`.
#[derive(Debug, Default)]
pub struct BoostedSet {
    base: BaseSet,
    locks: AbstractLocks,
    open_nested: bool,
}

impl BoostedSet {
    /// An empty boosted set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Moss-style open nesting, the contrast to outheritance: an
    /// operation made inside a child transaction runs as an open child
    /// that commits when it returns. Its lock is released at once and no
    /// compensation is logged, so a later parent abort cannot undo it, and
    /// foreign transactions may touch its key before the parent commits —
    /// the composition hazard the paper attributes to open nesting ("no
    /// guarantees of atomicity are given"). An operation made directly in
    /// the top-level body is not nested: it stays two-phase and is
    /// compensated on abort, as on a plain set.
    #[must_use]
    pub fn open_nested() -> Self {
        Self {
            open_nested: true,
            ..Self::default()
        }
    }

    /// Direct (non-transactional) access to the base set, for setup and
    /// assertions in quiescent states.
    #[must_use]
    pub fn base(&self) -> &BaseSet {
        &self.base
    }

    /// The set's abstract lock table (diagnostics/tests).
    #[must_use]
    pub fn locks(&self) -> &AbstractLocks {
        &self.locks
    }

    /// Boosted insert; `true` if the key was absent.
    ///
    /// # Errors
    /// [`AbortReason::LockConflict`] when another transaction holds the
    /// key's abstract lock.
    pub fn add<'env>(
        &'env self,
        tx: &mut (impl Transaction<'env> + ?Sized),
        key: i64,
    ) -> Result<bool, Abort> {
        self.apply(tx, key, |base| {
            let added = base.add(key);
            (added, added.then_some(ABSENT))
        })
    }

    /// Boosted remove; `true` if the key was present.
    ///
    /// # Errors
    /// As [`add`](Self::add).
    pub fn remove<'env>(
        &'env self,
        tx: &mut (impl Transaction<'env> + ?Sized),
        key: i64,
    ) -> Result<bool, Abort> {
        self.apply(tx, key, |base| {
            let removed = base.remove(key);
            (removed, removed.then_some(PRESENT))
        })
    }

    /// Boosted membership test.
    ///
    /// # Errors
    /// As [`add`](Self::add).
    pub fn contains<'env>(
        &'env self,
        tx: &mut (impl Transaction<'env> + ?Sized),
        key: i64,
    ) -> Result<bool, Abort> {
        self.apply(tx, key, |base| (base.contains(key), None))
    }

    /// Run `op` on the base under `key`'s abstract lock. `op` returns its
    /// result and, when it changed the set, its compensation word. The
    /// log gains an entry only for a lock this call took or an update it
    /// applied, so a re-touched key costs no log entry.
    fn apply<'env, R>(
        &'env self,
        tx: &mut (impl Transaction<'env> + ?Sized),
        key: i64,
        op: impl FnOnce(&BaseSet) -> (R, Option<u64>),
    ) -> Result<R, Abort> {
        let mut log = tx.abstract_log();
        let owner = log.ticket();
        let locked = self
            .locks
            .try_acquire(key, owner)
            .ok_or_else(|| Abort::new(AbortReason::LockConflict))?;
        let (out, undo) = op(&self.base);
        if self.open_nested && log.in_child() {
            if locked {
                self.locks.release(key, owner);
            }
        } else if locked || undo.is_some() {
            log.log(self, key, locked, undo);
        }
        Ok(out)
    }
}

impl Boosted for BoostedSet {
    fn release(&self, key: i64, owner: u64) {
        self.locks.release(key, owner);
    }

    fn compensate(&self, key: i64, undo: u64) {
        if undo == PRESENT {
            self.base.add(key);
        } else {
            self.base.remove(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hosts;
    use std::sync::atomic::{AtomicBool, Ordering};
    use stm_core::{RunError, StmConfig, TVar, TxKind};

    const R: TxKind = TxKind::Regular;

    fn explicit_abort<T>() -> Result<T, Abort> {
        Err(Abort::new(AbortReason::Explicit))
    }

    #[test]
    fn basic_boosted_ops() {
        for stm in hosts(&StmConfig::default()) {
            let s = BoostedSet::new();
            let added = stm.run(R, |tx| s.add(tx, 5));
            assert!(added);
            assert!(stm.run(R, |tx| s.contains(tx, 5)));
            assert!(!stm.run(R, |tx| s.add(tx, 5)));
            assert!(stm.run(R, |tx| s.remove(tx, 5)));
            assert_eq!(s.locks().held(), 0, "two-phase locks all released");
            assert!(s.base().is_empty());
        }
    }

    #[test]
    fn abort_compensates_in_reverse() {
        for stm in hosts(&StmConfig::default()) {
            let s = BoostedSet::new();
            s.base().add(1);
            let mut once = true;
            stm.run(R, |tx| {
                if once {
                    once = false;
                    s.add(tx, 2)?; // will be compensated by remove(2)
                    s.remove(tx, 1)?; // will be compensated by add(1)
                    return explicit_abort::<()>();
                }
                Ok(())
            });
            assert!(s.base().contains(1), "remove compensated");
            assert!(!s.base().contains(2), "add compensated");
            assert_eq!(stm.stats().aborts(), 1, "one abort recorded");
            assert_eq!(s.locks().held(), 0);
        }
    }

    #[test]
    fn outherited_children_roll_back_with_parent() {
        // The composition property: a parent abort undoes a COMMITTED
        // child, because the child's compensations outherited.
        for stm in hosts(&StmConfig::default()) {
            let s = BoostedSet::new();
            let mut once = true;
            stm.run(R, |tx| {
                let inserted = tx.child(R, |t| s.add(t, 7))?; // child commits
                assert!(inserted, "{}: the aborted attempt's add leaked", stm.key());
                if once {
                    once = false;
                    return explicit_abort::<()>(); // parent aborts afterwards
                }
                Ok(())
            });
            // First attempt aborted after the child committed; the retry
            // ran the child again and committed: exactly one insert.
            assert!(s.base().contains(7));
        }
    }

    #[test]
    fn open_nested_children_survive_parent_abort() {
        // The hazard: without outheritance the child is durable, so the
        // aborted parent leaves it behind — composition is not atomic.
        for stm in hosts(&StmConfig::default()) {
            let s = BoostedSet::open_nested();
            let mut once = true;
            stm.run(R, |tx| {
                let inserted = tx.child(R, |t| s.add(t, 7))?;
                if once {
                    once = false;
                    assert!(inserted, "first attempt inserts");
                    return explicit_abort::<()>();
                }
                assert!(
                    !inserted,
                    "retry finds 7 already present: the aborted parent's child leaked"
                );
                Ok(())
            });
            assert!(s.base().contains(7));
        }
    }

    /// Whether a foreign owner can take `key`'s lock in `s` right now,
    /// probed from another thread (and released again if it could).
    fn foreign_can_lock(s: &BoostedSet, key: i64) -> bool {
        std::thread::scope(|sc| {
            sc.spawn(|| {
                let ok = s.locks().try_acquire(key, u64::MAX).is_some();
                if ok {
                    s.locks().release(key, u64::MAX);
                }
                ok
            })
            .join()
            .unwrap()
        })
    }

    #[test]
    fn outherited_locks_block_foreign_access_until_parent_commit() {
        // Parent composes a child that locks key 9, then (before parent
        // commit) a foreign transaction tries key 9 and must conflict.
        for stm in hosts(&StmConfig::default()) {
            let s = BoostedSet::new();
            stm.run(R, |tx| {
                tx.child(R, |t| s.add(t, 9))?;
                let blocked = !foreign_can_lock(&s, 9);
                assert!(blocked, "outherited abstract lock must still be held");
                Ok(())
            });
            assert_eq!(s.locks().held(), 0);
        }
    }

    #[test]
    fn open_nesting_releases_locks_early() {
        for stm in hosts(&StmConfig::default()) {
            let s = BoostedSet::open_nested();
            stm.run(R, |tx| {
                tx.child(R, |t| s.add(t, 9))?;
                let free = foreign_can_lock(&s, 9);
                assert!(
                    free,
                    "open nesting released the child's lock at child commit"
                );
                Ok(())
            });
        }
    }

    #[test]
    fn open_nesting_leaves_top_level_operations_two_phase() {
        // Only a child's operations are opened: one made in the top-level
        // body keeps its lock until the end and is undone by the abort.
        for stm in hosts(&StmConfig::default()) {
            let s = BoostedSet::open_nested();
            let mut once = true;
            stm.run(R, |tx| {
                assert!(s.add(tx, 3)?, "{}: each attempt inserts anew", stm.key());
                assert!(!foreign_can_lock(&s, 3), "the top-level lock is held");
                if once {
                    once = false;
                    return explicit_abort::<()>();
                }
                Ok(())
            });
            assert!(s.base().contains(3));
            assert_eq!(s.locks().held(), 0);
        }
    }

    #[test]
    fn each_set_locks_its_keys_in_its_own_table() {
        // A transaction holding key 4 of one set leaves key 4 of another
        // set free.
        for stm in hosts(&StmConfig::default()) {
            let (a, b) = (BoostedSet::new(), BoostedSet::new());
            stm.run(R, |tx| {
                a.add(tx, 4)?;
                assert!(!foreign_can_lock(&a, 4), "held in a's table");
                assert!(foreign_can_lock(&b, 4), "b's key 4 is another lock");
                b.add(tx, 4)
            });
            assert!(a.base().contains(4) && b.base().contains(4));
            assert_eq!((a.locks().held(), b.locks().held()), (0, 0));
        }
    }

    #[test]
    fn a_composed_add_of_many_keys_logs_each_key_once() {
        // Logging a lock is O(1): a re-touched key adds no log entry, so
        // the log holds one entry per key however often it is touched.
        const KEYS: i64 = 1_000;
        for stm in hosts(&StmConfig::default()) {
            let s = BoostedSet::new();
            let logged = stm.run(R, |tx| {
                for k in 0..KEYS {
                    tx.child(R, |t| s.add(t, k))?;
                }
                for k in 0..KEYS {
                    assert!(s.contains(tx, k)?);
                    assert!(!s.add(tx, k)?);
                }
                Ok(tx.abstract_log().entries())
            });
            assert_eq!(logged, KEYS as usize, "{}", stm.key());
            assert_eq!(s.base().len(), KEYS as usize);
            assert_eq!(s.locks().held(), 0);
        }
    }

    #[test]
    fn concurrent_boosted_updates_conserve_elements() {
        for stm in hosts(&StmConfig::default()) {
            let s = BoostedSet::new();
            for k in 0..8 {
                s.base().add(k);
            }
            let net: i64 = std::thread::scope(|sc| {
                let handles: Vec<_> = (0..stm_core::parallel::worker_threads(4) as i64)
                    .map(|t| {
                        let (stm, s) = (&stm, &s);
                        sc.spawn(move || {
                            let mut net = 0i64;
                            for i in 0..1500 {
                                let k = (i * 5 + t) % 8;
                                if i % 2 == 0 {
                                    if stm.run(R, |tx| s.add(tx, k)) {
                                        net += 1;
                                    }
                                } else if stm.run(R, |tx| s.remove(tx, k)) {
                                    net -= 1;
                                }
                            }
                            net
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).sum()
            });
            assert_eq!(s.base().len() as i64, 8 + net);
            assert_eq!(s.locks().held(), 0);
        }
    }

    #[test]
    fn composed_move_is_atomic_under_concurrency() {
        // move(k -> k') composed from remove+add children; concurrent
        // observers using a composed contains-pair never see both or
        // neither.
        for stm in hosts(&StmConfig::default()) {
            let s = BoostedSet::new();
            s.base().add(1);
            let stop = AtomicBool::new(false);
            let observed = std::thread::scope(|sc| {
                sc.spawn(|| {
                    let mut at1 = true;
                    while !stop.load(Ordering::Relaxed) {
                        let (from, to) = if at1 { (1, 2) } else { (2, 1) };
                        stm.run(R, |tx| {
                            let moved = tx.child(R, |t| s.remove(t, from))?;
                            if moved {
                                tx.child(R, |t| s.add(t, to))?;
                            }
                            Ok(())
                        });
                        at1 = !at1;
                    }
                });
                let observed: Vec<(bool, bool)> = (0..500)
                    .map(|_| {
                        stm.run(R, |tx| {
                            let a = tx.child(R, |t| s.contains(t, 1))?;
                            let b = tx.child(R, |t| s.contains(t, 2))?;
                            Ok((a, b))
                        })
                    })
                    .collect();
                // Stop the mover before asserting, so a failure cannot
                // leave the scope waiting on it forever.
                stop.store(true, Ordering::Relaxed);
                observed
            });
            for (a, b) in observed {
                assert!(a ^ b, "the element must be in exactly one place");
            }
        }
    }

    #[test]
    fn set_runs_appear_in_the_stm_stats() {
        for stm in hosts(&StmConfig::default()) {
            let s = BoostedSet::new();
            let mut once = true;
            stm.run(R, |tx| {
                tx.child(R, |t| s.add(t, 3))?;
                tx.child(R, |t| s.contains(t, 4))?;
                if once {
                    once = false;
                    return explicit_abort::<()>();
                }
                Ok(())
            });
            let snap = stm.stats();
            assert_eq!(snap.commits, 1);
            assert_eq!(snap.aborts(), 1);
            assert_eq!(
                snap.child_commits, 4,
                "two children in each of two attempts"
            );
        }
    }

    #[test]
    fn a_squatted_set_key_exhausts_a_bounded_budget_under_every_cm() {
        for stm in hosts(&StmConfig::default().with_max_retries(1)) {
            let s = BoostedSet::new();
            // A foreign owner squats on key 5 out-of-band.
            assert_eq!(s.locks().try_acquire(5, u64::MAX), Some(true));
            let r = stm.try_run(R, |tx| s.add(tx, 5));
            assert_eq!(
                r,
                Err(RunError::RetriesExhausted {
                    attempts: 2,
                    last: AbortReason::LockConflict
                })
            );
            assert!(s.base().is_empty());
            assert_eq!(s.locks().owner_of(5), Some(u64::MAX));
        }
    }

    #[test]
    fn retry_after_only_set_operations_would_block_forever() {
        // Set keys are not wait locations: a retry that touched only the
        // set read no word, so no commit could ever wake it.
        for stm in hosts(&StmConfig::default()) {
            let s = BoostedSet::new();
            let r: Result<(), _> = stm.try_run(R, |tx| {
                s.add(tx, 1)?;
                s.contains(tx, 2)?;
                tx.retry()
            });
            assert_eq!(r, Err(RunError::WouldBlockForever { attempts: 1 }));
            assert_eq!(s.locks().held(), 0);
            assert!(s.base().is_empty(), "the add was compensated");
        }
    }

    #[test]
    fn one_rollback_undoes_a_set_add_and_a_word_write() {
        for stm in hosts(&StmConfig::default()) {
            let s = BoostedSet::new();
            let v = TVar::new(1u64);
            let mut seen = Vec::new();
            stm.run(R, |tx| {
                seen.push((s.base().contains(8), v.load_atomic()));
                s.add(tx, 8)?;
                tx.set(&v, 2)?;
                if seen.len() == 1 {
                    return explicit_abort::<()>();
                }
                Ok(())
            });
            assert_eq!(
                seen,
                [(false, 1), (false, 1)],
                "both undone before the rerun"
            );
            assert!(s.base().contains(8));
            assert_eq!(v.load_atomic(), 2);
            assert_eq!(s.locks().held(), 0);
        }
    }
}
