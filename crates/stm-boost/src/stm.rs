//! The boosted transaction — the crate's one runtime, run by
//! `stm_core::driver::run` like every other backend.
//!
//! Boosting treats every object as a black box whose protection element
//! is an [`AbstractLocks`] entry:
//!
//! * a transactional word ([`TVarCore`] or [`Link`]) locks its identity in
//!   the [`BoostStm`]'s own table; a [`BoostedSet`](crate::BoostedSet) locks
//!   its keys in the set's table. Each held lock is logged with its table;
//! * locks are acquired *eagerly* at first touch, for reads and writes
//!   alike (strict two-phase locking — for words, the degenerate
//!   commutativity specification in which no two operations on the same
//!   word commute);
//! * updates apply in place immediately. One undo log holds both word
//!   undos (the previous word) and set compensations (`add(k)` ↦
//!   `remove(k)` and vice versa), so one backwards replay unwinds both;
//! * a conflicting acquisition aborts the requester on the spot, so lock
//!   waits never form a cycle and the scheme is deadlock-free by
//!   construction;
//! * children nest flat: their locks and undo entries stay with the
//!   attempt's ticket, so a committing child passes them to its parent
//!   without a transfer step — the paper's Section VIII outheritance for
//!   boosting, by construction. [`BoostStm::open_nested`] is the contrast.
//!
//! Because every access holds the abstract lock before touching the word,
//! transactional loads and stores can use the unsynchronized primitives —
//! mutual exclusion comes entirely from the abstract layer, exactly as in
//! boosting, where the base structure's own synchronization is opaque.

use crate::base::BaseSet;
use crate::locks::AbstractLocks;
use stm_core::driver::{self, Attempt, TxnEngine, WaitSet};
use stm_core::dynstm::{BackendRegistry, BackendSpec};
use stm_core::link::{Link, Loc};
use stm_core::trace::TraceOp;
use stm_core::tvar::TVarCore;
use stm_core::{Abort, AbortReason, Instance, RunError, Stm, StmConfig, Transaction, TxKind};

/// Register this crate's backend under the name `"boost"`.
pub fn register_backends(registry: &mut BackendRegistry) {
    registry.register(BackendSpec::new(
        "boost",
        "Boosting (Herlihy/Koskinen): abstract 2PL, in-place writes, undo",
        |config| Box::new(BoostStm::with_config(config)),
    ));
}

/// The abstract-lock key of a location: its stable identity, reinterpreted
/// into the signed key space [`AbstractLocks`] uses for set elements.
fn lock_key(id: usize) -> i64 {
    i64::from_ne_bytes((id as u64).to_ne_bytes())
}

/// Store `word` into `loc` in place. The caller holds its abstract lock; a
/// link is written through its own lock at the advisory version 0, since
/// boosting keeps no clock.
fn store(loc: Loc<'_>, word: u64) {
    match loc {
        Loc::Var(core) => core.store_value(word),
        Loc::Link(link) => link.store_atomic(word, 0),
    }
}

/// A boosted STM instance (registry name `"boost"`).
#[derive(Debug, Default)]
pub struct BoostStm {
    inst: Instance,
    locks: AbstractLocks,
    open_nested: bool,
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
            inst: Instance::new(config),
            ..Self::default()
        }
    }

    /// Moss-style open nesting, the contrast to outheritance (not
    /// registered): a child commit releases the abstract locks the child
    /// took and drops its undo entries. A later parent abort cannot undo
    /// the child, and foreign transactions may touch its keys before the
    /// parent commits — the composition hazard the paper attributes to
    /// open nesting ("no guarantees of atomicity are given"). An open
    /// child's word writes reach neither the commit hook nor waiters.
    #[must_use]
    pub fn open_nested() -> Self {
        Self {
            open_nested: true,
            ..Self::default()
        }
    }

    /// The instance's abstract-lock table for words (diagnostics/tests).
    #[must_use]
    pub fn locks(&self) -> &AbstractLocks {
        &self.locks
    }
}

/// How to undo one update applied in place.
pub(crate) enum Undo<'env> {
    /// Restore the word a write overwrote.
    Word(Loc<'env>, u64),
    /// Remove the key a set `add` inserted.
    Remove(&'env BaseSet, i64),
    /// Re-insert the key a set `remove` deleted.
    Add(&'env BaseSet, i64),
}

impl Undo<'_> {
    fn apply(self) {
        match self {
            Undo::Word(loc, old) => store(loc, old),
            Undo::Remove(base, key) => {
                base.remove(key);
            }
            Undo::Add(base, key) => {
                base.add(key);
            }
        }
    }
}

/// The per-run logs of a boosted transaction, cleared (keeping capacity)
/// for every attempt.
#[derive(Default)]
struct BoostLog<'env> {
    /// Abstract locks acquired by this attempt, with their tables, in
    /// acquisition order.
    held: Vec<(&'env AbstractLocks, i64)>,
    /// The undo log, in application order.
    undo: Vec<Undo<'env>>,
    /// First-touch word reads — the attempt's wait footprint.
    reads: ReadLog<'env>,
    /// Open nesting only: `(held, undo)` lengths at each open child's
    /// entry.
    marks: Vec<(usize, usize)>,
}

impl BoostLog<'_> {
    /// Release every abstract lock taken since `held[from]`, newest first.
    /// An attempt that has not drawn its ticket holds none.
    fn release_from(&mut self, owner: Option<u64>, from: usize) {
        let Some(ticket) = owner else {
            debug_assert!(self.held.is_empty(), "abstract locks held without a ticket");
            return;
        };
        for (table, key) in self.held.drain(from..).rev() {
            table.release(key, ticket);
        }
    }
}

/// First-touch word reads: (location, word observed). Boost has no
/// version clock, so a parked `retry()` re-validates by *value* comparison
/// against these observations. Set keys are not wait locations.
#[derive(Default)]
pub struct ReadLog<'env>(Vec<(Loc<'env>, u64)>);

impl WaitSet for ReadLog<'_> {
    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
    fn locations(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().map(|(loc, _)| loc.id())
    }
    fn still_valid(&self) -> bool {
        self.0.iter().all(|(loc, word)| loc.value_unsync() == *word)
    }
}

/// One boosted transaction: a single object per `run` call, restarted in
/// place for every attempt. Words are read and written through
/// [`Transaction`]; a [`BoostedSet`](crate::BoostedSet)'s operations take
/// it as their argument.
pub struct BoostTxn<'env> {
    stm: &'env BoostStm,
    kind: TxKind,
    at: Attempt<'env>,
    log: BoostLog<'env>,
}

impl<'env> BoostTxn<'env> {
    /// Take `key`'s abstract lock in `table` for this attempt, aborting on
    /// conflict. Returns whether this was the attempt's first touch of it.
    pub(crate) fn lock(&mut self, table: &'env AbstractLocks, key: i64) -> Result<bool, Abort> {
        if !table.try_acquire(key, self.at.ticket()) {
            return Err(Abort::new(AbortReason::LockConflict));
        }
        let first = !self
            .log
            .held
            .iter()
            .any(|&(t, k)| k == key && core::ptr::eq(t, table));
        if first {
            self.log.held.push((table, key));
        }
        Ok(first)
    }

    /// Log how to undo an update just applied in place.
    pub(crate) fn log_undo(&mut self, undo: Undo<'env>) {
        self.log.undo.push(undo);
    }
}

impl<'env> TxnEngine<'env> for BoostTxn<'env> {
    type Reads = ReadLog<'env>;

    fn attempt(&mut self) -> &mut Attempt<'env> {
        &mut self.at
    }

    fn restart(&mut self) {
        self.log.held.clear();
        self.log.undo.clear();
        self.log.reads.0.clear();
        self.log.marks.clear();
    }

    /// Top-level commit: discard the undo log and release every abstract
    /// lock. Cannot fail — under strict 2PL the attempt owns everything it
    /// touched, so there is nothing left to validate.
    fn try_commit(&mut self) -> Result<(), Abort> {
        let owner = self.at.owner();
        // The log appends one entry per write, so a location written
        // twice is reported twice — each time with its final committed
        // word (`value_unsync` is safe under the held abstract lock); a
        // repeated notification finds no live waiter and is harmless.
        // Set compensations are not words and are not reported. Boost
        // never ticks the clock; the record's version is the advisory 0.
        let words = self
            .log
            .undo
            .iter()
            .filter(|u| matches!(u, Undo::Word(..)))
            .count();
        self.at.publish(
            0,
            &mut self.log,
            words,
            |log, f| {
                for undo in &log.undo {
                    if let Undo::Word(loc, _) = undo {
                        f(loc.id(), loc.value_unsync());
                    }
                }
            },
            |log| {
                log.undo.clear();
                log.release_from(owner, 0);
            },
            // No word versions: a commit that staged nothing waits for
            // everything staged before it.
            |_| u64::MAX,
        );
        Ok(())
    }

    /// Replay the undo log backwards, then release every abstract lock.
    fn rollback(&mut self) {
        for undo in self.log.undo.drain(..).rev() {
            undo.apply();
        }
        self.log.release_from(self.at.owner(), 0);
    }

    fn wait_set(&mut self) -> &ReadLog<'env> {
        &self.log.reads
    }
}

impl<'env> BoostTxn<'env> {
    fn read_loc(&mut self, loc: Loc<'env>) -> Result<u64, Abort> {
        let first = self.lock(&self.stm.locks, lock_key(loc.id()))?;
        let word = loc.value_unsync();
        if first {
            self.log.reads.0.push((loc, word));
        }
        if let Some(t) = self.at.tracer() {
            if first {
                t.op(loc.id(), TraceOp::Read(word));
            } else {
                t.op_held(loc.id(), TraceOp::Read(word));
            }
        }
        Ok(word)
    }

    fn write_loc(&mut self, loc: Loc<'env>, word: u64) -> Result<(), Abort> {
        let first = self.lock(&self.stm.locks, lock_key(loc.id()))?;
        self.log_undo(Undo::Word(loc, loc.value_unsync()));
        store(loc, word);
        if let Some(t) = self.at.tracer() {
            if first {
                t.op(loc.id(), TraceOp::Write(word));
            } else {
                t.op_held(loc.id(), TraceOp::Write(word));
            }
        }
        Ok(())
    }
}

impl<'env> Transaction<'env> for BoostTxn<'env> {
    fn read_word(&mut self, core: &'env TVarCore) -> Result<u64, Abort> {
        self.read_loc(Loc::Var(core))
    }

    fn write_word(&mut self, core: &'env TVarCore, word: u64) -> Result<(), Abort> {
        self.write_loc(Loc::Var(core), word)
    }

    fn read_link(&mut self, link: &'env Link) -> Result<u64, Abort> {
        self.read_loc(Loc::Link(link))
    }

    fn write_link(&mut self, link: &'env Link, payload: u64) -> Result<(), Abort> {
        self.write_loc(Loc::Link(link), payload)
    }

    fn child_enter(&mut self, _kind: TxKind) -> Result<(), Abort> {
        if self.stm.open_nested {
            self.log
                .marks
                .push((self.log.held.len(), self.log.undo.len()));
        }
        self.at.child_enter();
        Ok(())
    }

    fn child_commit(&mut self) -> Result<(), Abort> {
        if self.stm.open_nested {
            // Open nesting: the child is durable on its own — its locks
            // release now and the parent can no longer undo it.
            let (held, undo) = self.log.marks.pop().expect("child_enter pushed a mark");
            self.log.undo.truncate(undo);
            self.log.release_from(self.at.owner(), held);
        }
        // Eager in-place writes under strict 2PL: the child's effects are
        // already applied and (flat nesting) its abstract locks stay with
        // the attempt, so the child may settle as a model transaction even
        // when it wrote.
        self.at.child_commit(true);
        Ok(())
    }

    fn child_abort(&mut self) {
        if self.stm.open_nested {
            self.log.marks.pop();
        }
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
    type Txn<'env> = BoostTxn<'env>;

    fn name(&self) -> &'static str {
        "Boost"
    }

    fn instance(&self) -> &Instance {
        &self.inst
    }

    fn try_run<'env, R>(
        &'env self,
        kind: TxKind,
        f: impl FnMut(&mut Self::Txn<'env>) -> Result<R, Abort>,
    ) -> Result<R, RunError> {
        let mut txn = BoostTxn {
            stm: self,
            kind,
            at: Attempt::new(&self.inst),
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
        assert!(stm.locks().try_acquire(lock_key(v.core().id()), u64::MAX));
        let r = stm.try_run(TxKind::Regular, |tx| tx.read(&v));
        assert!(matches!(r, Err(RunError::RetriesExhausted { .. })));
        stm.locks().release(lock_key(v.core().id()), u64::MAX);
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
