//! A word-granular boosted STM — the registry-facing face of this crate.
//!
//! [`BoostedSet`](crate::BoostedSet) boosts a concrete data structure; this
//! module applies the same discipline to plain transactional words so the
//! boosting model can join the `BackendRegistry` and run every generic
//! workload next to TL2/LSA/SwissTM/OE-STM:
//!
//! * each [`TVarCore`] is treated as a black-box cell whose protection
//!   element is an [`AbstractLocks`] entry keyed by the location identity;
//! * locks are acquired *eagerly* at first touch, for reads and writes
//!   alike (strict two-phase locking — the degenerate commutativity
//!   specification in which no two operations on the same word commute);
//! * writes apply in place immediately, logging the previous word as the
//!   compensating operation; an abort replays the log backwards;
//! * a conflicting acquisition aborts the requester on the spot, so lock
//!   waits never form a cycle and the scheme is deadlock-free by
//!   construction;
//! * children nest flat: their locks and compensations stay with the
//!   attempt, which trivially satisfies outheritance (the paper's
//!   Section VIII reading of boosting — conflict information is passed to
//!   the parent rather than dropped at child commit).
//!
//! Because every access holds the abstract lock before touching the word,
//! transactional loads and stores can use the unsynchronized primitives —
//! mutual exclusion comes entirely from the abstract layer, exactly as in
//! boosting, where the base structure's own synchronization is opaque.

use crate::locks::AbstractLocks;
use stm_core::clock::GlobalClock;
use stm_core::driver::{self, Attempt, TxnEngine, WaitSet};
use stm_core::dynstm::{BackendRegistry, BackendSpec};
use stm_core::trace::TraceOp;
use stm_core::tvar::TVarCore;
use stm_core::{
    Abort, AbortReason, RunError, StatsSnapshot, Stm, StmConfig, StmStats, Transaction, TxKind,
};

/// Register this crate's backend under the name `"boost"`.
pub fn register_backends(registry: &mut BackendRegistry) {
    fn make(config: StmConfig) -> Box<dyn stm_core::dynstm::DynStm> {
        Box::new(BoostStm::with_config(config))
    }
    registry.register(BackendSpec::new(
        "boost",
        "Boosting (Herlihy/Koskinen): abstract 2PL, in-place writes, undo",
        make,
    ));
}

/// The abstract-lock key of a location: its stable identity, reinterpreted
/// into the signed key space [`AbstractLocks`] uses for set elements.
fn lock_key(core: &TVarCore) -> i64 {
    i64::from_ne_bytes((core.id() as u64).to_ne_bytes())
}

/// A word-based boosted STM instance (registry name `"boost"`).
#[derive(Debug, Default)]
pub struct BoostStm {
    clock: GlobalClock,
    stats: StmStats,
    config: StmConfig,
    locks: AbstractLocks,
}

impl BoostStm {
    /// Fresh instance with the default configuration.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh instance with `config`.
    #[must_use]
    pub fn with_config(config: StmConfig) -> Self {
        Self {
            config,
            ..Self::default()
        }
    }

    /// The instance's abstract-lock table (diagnostics/tests).
    #[must_use]
    pub fn locks(&self) -> &AbstractLocks {
        &self.locks
    }
}

/// The per-run logs of a boosted word transaction, cleared (keeping
/// capacity) for every attempt.
#[derive(Default)]
struct BoostLog<'env> {
    /// Abstract-lock keys acquired by this attempt, in acquisition order.
    held: Vec<i64>,
    /// Compensation log: (location, previous word), in application order.
    undo: Vec<(&'env TVarCore, u64)>,
    /// First-touch read log — the attempt's wait footprint.
    reads: ReadLog<'env>,
}

/// First-touch reads: (location, word observed). Boost has no version
/// clock, so a parked `retry()` re-validates by *value* comparison
/// against these observations.
#[derive(Default)]
pub struct ReadLog<'env>(Vec<(&'env TVarCore, u64)>);

impl WaitSet for ReadLog<'_> {
    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
    fn locations(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().map(|(core, _)| core.id())
    }
    fn still_valid(&self) -> bool {
        self.0
            .iter()
            .all(|(core, word)| core.value_unsync() == *word)
    }
}

/// One boosted word transaction: a single object per `run` call,
/// restarted in place for every attempt.
pub struct BoostWordTxn<'env> {
    stm: &'env BoostStm,
    kind: TxKind,
    at: Attempt<'env>,
    log: BoostLog<'env>,
}

impl<'env> BoostWordTxn<'env> {
    /// Acquire the abstract lock of `core` for this attempt, aborting on
    /// conflict. Returns whether this was the attempt's first touch of the
    /// location.
    fn acquire(&mut self, core: &'env TVarCore) -> Result<bool, Abort> {
        let key = lock_key(core);
        if !self.stm.locks.try_acquire(key, self.at.ticket()) {
            return Err(Abort::new(AbortReason::LockConflict));
        }
        if self.log.held.contains(&key) {
            Ok(false)
        } else {
            self.log.held.push(key);
            Ok(true)
        }
    }
}

/// Release every abstract lock in `held` by `owner`, newest first. An
/// attempt that has not drawn its ticket holds none.
fn release_all(locks: &AbstractLocks, owner: Option<u64>, held: &mut Vec<i64>) {
    let Some(ticket) = owner else {
        debug_assert!(held.is_empty(), "abstract locks held without a ticket");
        return;
    };
    for key in held.drain(..).rev() {
        locks.release(key, ticket);
    }
}

impl<'env> TxnEngine<'env> for BoostWordTxn<'env> {
    type Reads = ReadLog<'env>;

    fn attempt(&mut self) -> &mut Attempt<'env> {
        &mut self.at
    }

    fn restart(&mut self) {
        self.log.held.clear();
        self.log.undo.clear();
        self.log.reads.0.clear();
    }

    /// Top-level commit: discard the compensation log and release every
    /// abstract lock. Cannot fail — under strict 2PL the attempt owns all
    /// of its locations, so there is nothing left to validate.
    fn try_commit(&mut self) -> Result<(), Abort> {
        let (locks, owner) = (&self.stm.locks, self.at.owner());
        // The log appends one entry per write, so a location written
        // twice is reported twice — each time with its final committed
        // word (`value_unsync` is safe under the held abstract lock); a
        // repeated notification finds no live waiter and is harmless.
        // Boost never ticks the clock; the record's version is the
        // advisory 0.
        let len = self.log.undo.len();
        self.at.publish(
            0,
            &mut self.log,
            len,
            |log, f| {
                log.undo
                    .iter()
                    .for_each(|(core, _)| f(core.id(), core.value_unsync()));
            },
            |log| {
                log.undo.clear();
                release_all(locks, owner, &mut log.held);
            },
        );
        Ok(())
    }

    /// Replay the compensation log backwards, then release every abstract
    /// lock.
    fn rollback(&mut self) {
        for (core, old) in self.log.undo.drain(..).rev() {
            core.store_value(old);
        }
        release_all(&self.stm.locks, self.at.owner(), &mut self.log.held);
    }

    fn footprint(&self) -> (usize, usize) {
        (self.log.reads.0.len(), self.log.undo.len())
    }

    fn wait_set(&mut self) -> &ReadLog<'env> {
        &self.log.reads
    }
}

impl<'env> Transaction<'env> for BoostWordTxn<'env> {
    fn read_word(&mut self, core: &'env TVarCore) -> Result<u64, Abort> {
        let first = self.acquire(core)?;
        let word = core.value_unsync();
        if first {
            self.log.reads.0.push((core, word));
        }
        if let Some(t) = self.at.tracer() {
            if first {
                t.op(core.id(), TraceOp::Read(word));
            } else {
                t.op_held(core.id(), TraceOp::Read(word));
            }
        }
        Ok(word)
    }

    fn write_word(&mut self, core: &'env TVarCore, word: u64) -> Result<(), Abort> {
        let first = self.acquire(core)?;
        self.log.undo.push((core, core.value_unsync()));
        core.store_value(word);
        if let Some(t) = self.at.tracer() {
            if first {
                t.op(core.id(), TraceOp::Write(word));
            } else {
                t.op_held(core.id(), TraceOp::Write(word));
            }
        }
        Ok(())
    }

    fn child_enter(&mut self, _kind: TxKind) -> Result<(), Abort> {
        self.at.child_enter();
        Ok(())
    }

    fn child_commit(&mut self) -> Result<(), Abort> {
        // Eager in-place writes under strict 2PL: the child's effects are
        // already applied and its abstract locks stay with the attempt
        // (outheritance by construction), so the child may settle as a
        // model transaction even when it wrote.
        self.at.child_commit(true);
        Ok(())
    }

    fn child_abort(&mut self) {
        self.at.child_abort();
    }

    fn kind(&self) -> TxKind {
        self.kind
    }

    fn ticket(&self) -> u64 {
        self.at.ticket()
    }
}

impl Stm for BoostStm {
    type Txn<'env> = BoostWordTxn<'env>;

    fn name(&self) -> &'static str {
        "Boost"
    }

    fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    fn reset_stats(&self) {
        self.stats.reset();
    }

    fn clock(&self) -> &GlobalClock {
        &self.clock
    }

    fn config(&self) -> &StmConfig {
        &self.config
    }

    fn try_run<'env, R>(
        &'env self,
        kind: TxKind,
        f: impl FnMut(&mut Self::Txn<'env>) -> Result<R, Abort>,
    ) -> Result<R, RunError> {
        let mut txn = BoostWordTxn {
            stm: self,
            kind,
            at: Attempt::new(&self.config, &self.stats),
            log: BoostLog::default(),
        };
        driver::run(&mut txn, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_core::TVar;

    #[test]
    fn read_write_roundtrip_releases_locks() {
        let stm = BoostStm::new();
        let v = TVar::new(41u64);
        let out = stm.run(TxKind::Regular, |tx| {
            let x = tx.read(&v)?;
            tx.write(&v, x + 1)?;
            tx.read(&v)
        });
        assert_eq!(out, 42);
        assert_eq!(v.load_atomic(), 42);
        assert_eq!(stm.locks().held(), 0, "2PL must release at commit");
        assert_eq!(stm.stats().commits, 1);
    }

    #[test]
    fn abort_replays_compensations_in_reverse() {
        let stm = BoostStm::new();
        let a = TVar::new(1u64);
        let b = TVar::new(2u64);
        let mut failed = false;
        stm.run(TxKind::Regular, |tx| {
            tx.write(&a, 10)?;
            tx.write(&b, 20)?;
            tx.write(&a, 100)?;
            if !failed {
                failed = true;
                return Err(Abort::new(AbortReason::Explicit));
            }
            Ok(())
        });
        // The aborted attempt's eager writes were compensated before the
        // retry began, and the retry then re-applied them.
        assert_eq!((a.load_atomic(), b.load_atomic()), (100, 20));
        assert_eq!(stm.stats().aborts(), 1);
        assert_eq!(stm.locks().held(), 0);
    }

    #[test]
    fn conflicting_acquisition_aborts_the_requester() {
        let stm = BoostStm::with_config(StmConfig::default().with_max_retries(1));
        let v = TVar::new(0u64);
        // A foreign owner squats on the abstract lock out-of-band.
        assert!(stm.locks().try_acquire(lock_key(v.core()), u64::MAX));
        let r = stm.try_run(TxKind::Regular, |tx| tx.read(&v));
        assert!(matches!(r, Err(RunError::RetriesExhausted { .. })));
        stm.locks().release(lock_key(v.core()), u64::MAX);
        assert_eq!(stm.run(TxKind::Regular, |tx| tx.read(&v)), 0);
    }

    #[test]
    fn children_nest_flat_and_keep_locks_until_top_commit() {
        let stm = BoostStm::new();
        let v = TVar::new(0u64);
        stm.run(TxKind::Regular, |tx| {
            tx.child(TxKind::Regular, |t| t.write(&v, 7))?;
            // The child's abstract lock was passed to the attempt, not
            // released: a re-touch must be reentrant, not a self-conflict.
            let x = tx.read(&v)?;
            tx.write(&v, x + 1)
        });
        assert_eq!(v.load_atomic(), 8);
        assert_eq!(stm.stats().child_commits, 1);
        assert_eq!(stm.locks().held(), 0);
    }

    #[test]
    fn waiting_retries_are_not_charged_against_a_bounded_budget() {
        // max_retries = 1 conflict, but FOUR precondition waits then a
        // commit: a wait is not a loss, so the run must not exhaust.
        let stm = BoostStm::with_config(StmConfig::default().with_max_retries(1));
        let v = TVar::new(0u64);
        let mut waits_left = 4;
        let r = stm.try_run(TxKind::Regular, |tx| {
            let x = tx.read(&v)?;
            if waits_left > 0 {
                waits_left -= 1;
                return tx.retry();
            }
            tx.write(&v, x + 1)
        });
        assert!(r.is_ok(), "waits charged against max_retries: {r:?}");
        assert_eq!(v.load_atomic(), 1);
        let snap = stm.stats();
        assert_eq!(snap.explicit_retries(), 4);
        assert_eq!(snap.retry_parks, 4);
        assert_eq!(snap.cm_waits(), 0);
        assert_eq!(stm.locks().held(), 0, "waits must not pin abstract locks");
    }

    #[test]
    fn empty_read_set_retry_is_would_block_forever() {
        // retry() before reading anything: no commit could ever wake
        // it, so the run ends with the distinct error instead of
        // parking until a watchdog kills it. A write alone is not a
        // wakeable precondition either.
        let stm = BoostStm::new();
        let w = TVar::new(1u64);
        let r: Result<(), _> = stm.try_run(TxKind::Regular, |tx| {
            tx.write(&w, 2)?;
            tx.retry()
        });
        assert!(
            matches!(r, Err(RunError::WouldBlockForever { attempts: 1 })),
            "{r:?}"
        );
        assert_eq!(stm.locks().held(), 0);
    }

    #[test]
    fn registry_builds_boost_by_name() {
        let mut reg = BackendRegistry::new();
        register_backends(&mut reg);
        let b = reg.build_default("boost").expect("registered");
        assert_eq!(b.name(), "Boost");
        let v = TVar::new(5u64);
        let out = b.run(TxKind::Regular, |tx| {
            let x = tx.read(&v)?;
            tx.write(&v, x * 2)?;
            tx.read(&v)
        });
        assert_eq!(out, 10);
    }
}
