// lint:hot-path
//! # LSA — the Lazy Snapshot Algorithm
//!
//! A word-based implementation of the LSA STM (Riegel, Felber, Fetzer;
//! DISC 2006), the second classic baseline of the paper's evaluation.
//!
//! Algorithm summary (as the paper characterises it: "relies on a lazy
//! snapshot algorithm that uses eager lock acquirement and extends the
//! validity interval of the transaction as much as possible"):
//!
//! * The transaction maintains a **validity interval** `[rv, ub]` of
//!   global-clock times at which its snapshot is known consistent.
//! * **Read**: if the location's version is within the interval, record and
//!   return it. If it is newer than `ub`, *extend* the snapshot: revalidate
//!   the whole read set and, on success, grow the interval to the observed
//!   location version; otherwise abort. (Extending to the observed version
//!   rather than a fresh clock sample keeps the read path off the global
//!   clock line — the clock is touched once at begin and once per update
//!   commit, never on reads.)
//! * **Write**: acquire the location's versioned lock at encounter time
//!   (eager), save the old `(value, version)` in an undo log, and write the
//!   new value **in place**. Readers that hit the locked word conflict
//!   immediately (visible writes). A [`Link`] is locked the same way but
//!   its payload is *buffered* in the write set: its lock word is its
//!   value, so it is published with its commit version in one store.
//! * **Commit**: tick the clock to get `wv`; if the snapshot does not
//!   already extend to `wv - 1`, revalidate the read set; then release each
//!   written lock at `wv`. **Abort**: restore old values in reverse order
//!   and release each lock at its old version.
//!
//! Like TL2, LSA is a *classic* transaction model: the protection element of
//! every access is held until commit, so flat nesting composes (trivially
//! satisfying the paper's outheritance), at the cost of conflicts over whole
//! search-structure traversals.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use stm_core::bloom::Bloom;
use stm_core::driver::{self, AbstractLog, Attempt, TxnEngine};
use stm_core::dynstm::{BackendRegistry, BackendSpec};
use stm_core::link::{self, Link, Loc};
use stm_core::readset::ReadSet;
use stm_core::scratch::{give_back, SpareVec, TxScratch};
use stm_core::trace::TraceOp;
use stm_core::tvar::{ReadConflict, TVarCore};
use stm_core::vlock::VLock;
use stm_core::{Abort, AbortReason, Instance, RunError, Stm, StmConfig, Transaction, TxKind};

/// Register this crate's backend under the name `"lsa"`.
pub fn register_backends(registry: &mut BackendRegistry) {
    registry.register(BackendSpec::new(
        "lsa",
        "LSA (Riegel/Felber/Fetzer): lazy snapshots, eager in-place writes",
        |config| Box::new(Lsa::with_config(config)), // lint:allow — registration, cold
    ));
}

/// One saved pre-write state for the in-place undo log.
#[derive(Debug, Clone, Copy)]
struct UndoEntry<'env> {
    core: &'env TVarCore,
    old_value: u64,
    old_version: u64,
}

thread_local! {
    /// The undo log's allocation between runs.
    static UNDO_SPARE: SpareVec<UndoEntry<'static>> = const { SpareVec::new() };
}

/// The undo log: first-write-wins saved states, released on commit, rolled
/// back in reverse on abort. The entry vector is borrowed from
/// [`UNDO_SPARE`] at the run's first write and returned on drop, so a
/// warmed-up thread logs without allocating and a read-only run never
/// touches the thread-local.
#[derive(Debug, Default)]
struct UndoLog<'env> {
    entries: Vec<UndoEntry<'env>>,
    bloom: Bloom,
}

impl Drop for UndoLog<'_> {
    fn drop(&mut self) {
        give_back(&UNDO_SPARE, core::mem::take(&mut self.entries));
    }
}

impl<'env> UndoLog<'env> {
    /// Clear without freeing (attempt-to-attempt reuse). The log is empty
    /// after every commit/rollback already; this is defensive.
    fn reset(&mut self) {
        self.entries.clear();
        self.bloom.clear();
    }

    fn record_first_write(&mut self, core: &'env TVarCore, old_value: u64, old_version: u64) {
        if self.entries.capacity() == 0 {
            self.entries = UNDO_SPARE.with(SpareVec::take);
        }
        self.bloom.insert(core.id());
        self.entries.push(UndoEntry {
            core,
            old_value,
            old_version,
        });
    }

    /// Number of locations written (the transaction's write-set size).
    fn len(&self) -> usize {
        self.entries.len()
    }

    /// The pre-lock version of the `TVar` `lock` protects if this
    /// transaction wrote it.
    fn old_version_of(&self, lock: &VLock) -> Option<u64> {
        if !self.bloom.may_contain(lock.id()) {
            return None;
        }
        self.entries
            .iter()
            .find(|e| e.core.id() == lock.id())
            .map(|e| e.old_version)
    }

    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Commit path: release every lock at `wv` (values are already in
    /// place).
    fn release_at(&mut self, wv: u64) {
        for e in self.entries.drain(..) {
            e.core.lock().unlock_to(wv);
        }
        self.bloom.clear();
    }

    /// Abort path: restore saved values in reverse write order and release
    /// each lock at its pre-write version.
    fn rollback(&mut self) {
        for e in self.entries.drain(..).rev() {
            e.core.store_value(e.old_value);
            e.core.lock().unlock_to(e.old_version);
        }
        self.bloom.clear();
    }
}

/// An LSA software-transactional-memory instance.
#[derive(Debug, Default)]
pub struct Lsa {
    inst: Instance,
}

impl Lsa {
    /// Create an instance with the default configuration.
    #[must_use]
    pub fn new() -> Self {
        Self::with_config(StmConfig::default())
    }

    /// Create an instance with an explicit configuration.
    #[must_use]
    pub fn with_config(config: StmConfig) -> Self {
        Self {
            inst: Instance::new(config),
        }
    }
}

/// One LSA transaction: a single object per `run` call, restarted in
/// place for every attempt.
#[derive(Debug)]
pub struct LsaTxn<'env> {
    stm: &'env Lsa,
    /// Lower bound of the validity interval (begin-time clock sample).
    rv: u64,
    /// Upper bound: the snapshot is consistent for all times in `[rv, ub]`.
    ub: u64,
    at: Attempt<'env>,
    /// The pooled read set, and the write set for link writes (every
    /// `TVar` write goes in place, through the undo log).
    scratch: TxScratch<'env>,
    undo: UndoLog<'env>,
}

impl<'env> TxnEngine<'env> for LsaTxn<'env> {
    fn restart(&mut self) {
        self.scratch.reset();
        self.undo.reset();
        let now = self.stm.inst.clock.now();
        self.rv = now;
        self.ub = now;
    }

    fn try_commit(&mut self) -> Result<(), Abort> {
        let mut wv = 0;
        if self.undo.is_empty() && self.scratch.writes.is_empty() {
            // Read-only: consistent at the (possibly extended) snapshot;
            // a composition still validates (see
            // `Attempt::read_only_commit`).
            if self.scratch.reads.linked() {
                link::check_age(self.rv, self.stm.inst.clock.now())?;
            }
            let reads = &self.scratch.reads;
            self.at
                .read_only_commit(|| reads.validate(None, |_| None))?;
        } else {
            let stamp = self.stm.inst.clock.stamp();
            wv = stamp.wv;
            if self.scratch.reads.linked() {
                link::check_age(self.rv, wv)?;
            }
            // Validation-skip fast path (see TL2): only an exclusively won
            // wv == ub + 1 proves no concurrent commit; adoption must
            // revalidate.
            let valid = (stamp.exclusive && wv == self.ub + 1) || self.reads_hold();
            if !valid {
                return Err(Abort::new(AbortReason::ReadValidation));
            }
        }
        // The undo log is first-write-wins, so each written `TVar`
        // appears exactly once; its committed word is the in-place value
        // (`value_unsync` is safe under the held lock). Buffered link
        // writes follow.
        let (reads, ub) = (&self.scratch.reads, self.ub);
        let len = self.undo.len() + self.scratch.writes.len();
        self.at.publish(
            wv,
            &mut (&mut self.undo, &mut self.scratch.writes),
            len,
            |(u, w), f| {
                u.entries
                    .iter()
                    .for_each(|e| f(e.core.id(), e.core.value_unsync()));
                w.for_each_write(f);
            },
            |(u, w)| {
                u.release_at(wv);
                w.write_back_and_release(wv);
            },
            |_| reads.observed_bound(ub),
        );
        Ok(())
    }

    fn rollback(&mut self) {
        self.undo.rollback();
        self.scratch.writes.release_locks();
    }

    fn wait_set(&mut self) -> &ReadSet<'env> {
        &self.scratch.reads
    }
}

impl<'env> LsaTxn<'env> {
    /// The current validity interval `[rv, ub]`: the snapshot this
    /// transaction has observed is consistent at every clock time in the
    /// interval. Exposed for diagnostics and tests.
    #[must_use]
    pub fn validity_interval(&self) -> (u64, u64) {
        (self.rv, self.ub)
    }

    /// Try to extend the validity interval to cover `target` (the observed
    /// version of the location that triggered the extension).
    ///
    /// Revalidating the read set *now* proves the snapshot consistent at
    /// every time up to the validation instant, which is at least `target`
    /// (that version has already been published). Extending to `target`
    /// instead of a fresh clock sample keeps the extension path — and with
    /// it the whole read path — off the contended global clock line.
    fn extend(&mut self, target: u64) -> Result<(), Abort> {
        if self.scratch.reads.linked() {
            link::check_age(self.rv, target)?;
        }
        if self.reads_hold() {
            self.ub = target;
            self.stm.inst.stats.record_extension();
            Ok(())
        } else {
            Err(Abort::new(AbortReason::ExtensionFailed))
        }
    }

    /// Whether every read still holds; a location this attempt locked
    /// is compared at its pre-lock word (undo log or write set).
    fn reads_hold(&self) -> bool {
        self.scratch.reads.validate(self.at.owner(), |lock| {
            self.undo
                .old_version_of(lock)
                .or_else(|| self.scratch.writes.locked_version_of(lock))
        })
    }

    /// Whether this attempt holds the lock of the location `lock`
    /// protects. An attempt that has not drawn its ticket holds none, so
    /// reads never draw one.
    #[inline]
    fn holds(&self, lock: &VLock) -> bool {
        self.at
            .owner()
            .is_some_and(|ticket| lock.is_locked_by(ticket))
    }

    /// Bounded wait for a foreign lock, then give up (simple conservative
    /// contention management: the requester yields).
    fn wait_for_unlock(&self, loc: Loc<'_>) -> bool {
        for _ in 0..stm_core::cm::LOCK_SPIN_LIMIT {
            if loc.read_consistent().is_ok() {
                return true;
            }
            core::hint::spin_loop();
        }
        false
    }
}

impl<'env> LsaTxn<'env> {
    fn read_loc(&mut self, loc: Loc<'env>) -> Result<u64, Abort> {
        // Eager locking: if we hold the lock, the current word is ours —
        // in place for a `TVar`, buffered for a link.
        if self.holds(loc.lock()) {
            let word = match loc {
                Loc::Var(core) => core.value_unsync(),
                Loc::Link(_) => self
                    .scratch
                    .writes
                    .lookup(loc)
                    .expect("a held link is buffered"),
            };
            if let Some(t) = self.at.tracer() {
                t.op_held(loc.id(), TraceOp::Read(word));
            }
            return Ok(word);
        }
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            if attempts > 64 {
                // Pathological lock churn on this location; give up and
                // let the retry loop re-run the transaction.
                return Err(Abort::new(AbortReason::LockConflict));
            }
            match loc.read_consistent() {
                Ok((word, seen)) => {
                    // Record the read BEFORE any extension so the
                    // revalidation covers this location too: if it changes
                    // between the consistent read and the extension check,
                    // the extension fails instead of the snapshot silently
                    // going stale (matters for read-only transactions,
                    // which are never validated again).
                    self.scratch.reads.push(loc, seen);
                    let clock = &self.stm.inst.clock;
                    if let Some(version) = loc.newer(seen, self.ub, || clock.now()) {
                        // Location is newer than our snapshot: lazily extend.
                        self.extend(version)?;
                    }
                    if let Some(t) = self.at.tracer() {
                        t.op(loc.id(), TraceOp::Read(word));
                    }
                    return Ok(word);
                }
                Err(ReadConflict::Locked(_)) => {
                    if !self.wait_for_unlock(loc) {
                        return Err(Abort::new(AbortReason::LockConflict));
                    }
                }
                Err(ReadConflict::Unstable) => {
                    return Err(Abort::new(AbortReason::UnstableRead));
                }
            }
        }
    }

    fn write_loc(&mut self, loc: Loc<'env>, word: u64) -> Result<(), Abort> {
        if self.holds(loc.lock()) {
            match loc {
                Loc::Var(core) => core.store_value(word),
                Loc::Link(_) => {
                    self.scratch.writes.insert(loc, word);
                }
            }
            if let Some(t) = self.at.tracer() {
                t.op_held(loc.id(), TraceOp::Write(word));
            }
            return Ok(());
        }
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            if attempts > 64 {
                return Err(Abort::new(AbortReason::LockConflict));
            }
            match loc.lock().try_lock_any(self.at.ticket()) {
                Ok(old) => {
                    match loc {
                        Loc::Var(core) => {
                            self.undo.record_first_write(core, core.value_unsync(), old);
                            core.store_value(word);
                        }
                        Loc::Link(_) => {
                            self.scratch.writes.insert(loc, word);
                            self.scratch.writes.mark_locked(loc, old);
                        }
                    }
                    if let Some(t) = self.at.tracer() {
                        t.op(loc.id(), TraceOp::Write(word));
                    }
                    return Ok(());
                }
                Err(_) => {
                    if !self.wait_for_unlock(loc) {
                        return Err(Abort::new(AbortReason::LockConflict));
                    }
                }
            }
        }
    }
}

impl<'env> Transaction<'env> for LsaTxn<'env> {
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

    // Flat nesting (see TL2): classic transactions outherit trivially.
    fn child_enter(&mut self, _kind: TxKind) -> Result<(), Abort> {
        self.at.child_enter();
        Ok(())
    }

    fn child_commit(&mut self) -> Result<(), Abort> {
        self.at.child_commit();
        Ok(())
    }

    fn child_abort(&mut self) {
        self.at.child_abort();
    }

    fn kind(&self) -> TxKind {
        TxKind::Regular
    }

    fn abstract_log(&mut self) -> AbstractLog<'_, 'env> {
        self.at.abstract_log()
    }
}

impl Stm for Lsa {
    type Txn<'env> = LsaTxn<'env>;

    fn name(&self) -> &'static str {
        "LSA"
    }

    fn instance(&self) -> &Instance {
        &self.inst
    }

    fn try_run<'env, R>(
        &'env self,
        _kind: TxKind,
        f: impl FnMut(&mut Self::Txn<'env>) -> Result<R, Abort>,
    ) -> Result<R, RunError> {
        let mut txn = LsaTxn {
            stm: self,
            rv: 0,
            ub: 0,
            at: Attempt::new(&self.inst),
            scratch: TxScratch::acquire(),
            undo: UndoLog::default(),
        };
        driver::run(&mut txn, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_core::TVar;

    #[test]
    fn every_cm_policy_recovers_from_forced_conflicts() {
        // A stale read that fails the snapshot extension must retry to
        // success, with aborts filed as conflicts and every one paced.
        let stm = Lsa::new();
        let a = TVar::new(0u64);
        let b = TVar::new(0u64);
        let mut sabotage_left = 3;
        stm.run(TxKind::Regular, |tx| {
            let ra = tx.read(&a)?;
            if sabotage_left > 0 {
                sabotage_left -= 1;
                let nv = stm.clock().tick();
                a.store_atomic(ra + 10, nv);
            }
            // Reading b forces an extension past the doctored version
            // of a; revalidation sees the overwrite and aborts.
            let rb = tx.read(&b)?;
            tx.write(&b, ra + rb + 1)
        });
        let snap = stm.stats();
        assert_eq!(snap.commits, 1);
        assert_eq!(snap.aborts(), 3);
        assert_eq!(snap.explicit_retries(), 0);
        assert_eq!(snap.cm_waits(), 3, "every abort is paced");
    }

    #[test]
    fn read_your_own_write_in_place() {
        let stm = Lsa::new();
        let v = TVar::new(1u64);
        let out = stm.run(TxKind::Regular, |tx| {
            tx.write(&v, 5)?;
            tx.read(&v)
        });
        assert_eq!(out, 5);
        assert_eq!(v.load_atomic(), 5);
    }

    #[test]
    fn abort_rolls_back_in_place_writes() {
        let stm = Lsa::with_config(StmConfig::default().with_max_retries(0));
        let a = TVar::new(1u64);
        let b = TVar::new(2u64);
        let r = stm.try_run(TxKind::Regular, |tx| {
            tx.write(&a, 10)?;
            tx.write(&b, 20)?;
            Err::<(), _>(Abort::new(AbortReason::Explicit))
        });
        assert!(r.is_err());
        assert_eq!(a.load_atomic(), 1, "undo must restore the first write");
        assert_eq!(b.load_atomic(), 2, "undo must restore the second write");
        // Versions restored too: a fresh read sees version 0.
        assert_eq!(a.core().read_consistent().unwrap().1, 0);
    }

    #[test]
    fn snapshot_extension_allows_reading_newer_locations() {
        // A transaction starts, another commit advances the clock, then the
        // first transaction reads the newly written location: LSA extends
        // instead of aborting (TL2 would abort here).
        let stm = Lsa::new();
        let v = TVar::new(0u64);
        let w = TVar::new(0u64);
        let out = stm.run(TxKind::Regular, |tx| {
            // Out-of-band commit moving the clock and writing v.
            let nv = stm.clock().tick();
            v.store_atomic(42, nv);
            let a = tx.read(&v)?; // needs extension
            let b = tx.read(&w)?;
            Ok((a, b))
        });
        assert_eq!(out, (42, 0));
        assert!(stm.stats().extensions >= 1);
        assert_eq!(stm.stats().aborts(), 0);
    }

    #[test]
    fn extension_grows_to_observed_version_not_clock() {
        // The extension must not re-read the global clock: after reading a
        // location at version 3 while the clock already stands at 5, the
        // validity upper bound becomes 3 (the observed version), proving
        // the read path stayed off the clock line.
        let stm = Lsa::new();
        let v = TVar::new(0u64);
        v.store_atomic(42, 3);
        for _ in 0..5 {
            let _ = stm.clock().tick();
        }
        stm.run(TxKind::Regular, |tx| {
            assert_eq!(tx.validity_interval(), (5, 5));
            let r = tx.read(&v)?; // version 3 < ub? no: 3 <= 5, no extension
            assert_eq!(r, 42);
            Ok(())
        });
        // Force an extension: begin at clock 5, then publish version 9.
        let stm2 = Lsa::new();
        let w = TVar::new(0u64);
        stm2.run(TxKind::Regular, |tx| {
            assert_eq!(tx.validity_interval(), (0, 0));
            w.store_atomic(7, 9); // out-of-band publish, clock still 0
            let r = tx.read(&w)?; // needs extension to version 9
            assert_eq!(r, 7);
            assert_eq!(
                tx.validity_interval(),
                (0, 9),
                "ub must be the observed version, not a clock sample"
            );
            Ok(())
        });
        assert!(stm2.stats().extensions >= 1);
    }

    #[test]
    fn extension_fails_when_read_set_invalidated() {
        // Read a location, then another commit overwrites it, then read a
        // second newer location: the extension must fail (our snapshot can
        // no longer be extended past the overwrite).
        let stm = Lsa::new();
        let a = TVar::new(1u64);
        let b = TVar::new(2u64);
        let mut first = true;
        let out = stm.run(TxKind::Regular, |tx| {
            let ra = tx.read(&a)?;
            if first {
                first = false;
                let nv1 = stm.clock().tick();
                a.store_atomic(9, nv1); // invalidate the read
                let nv2 = stm.clock().tick();
                b.store_atomic(8, nv2); // force b to need extension
            }
            let rb = tx.read(&b)?;
            Ok((ra, rb))
        });
        // After the retry we read the new values consistently.
        assert_eq!(out, (9, 8));
        assert_eq!(
            stm.stats().aborts_by_cause[AbortReason::ExtensionFailed.index()],
            1
        );
    }

    #[test]
    fn readers_conflict_with_in_flight_writer() {
        // Encounter-time locking makes writes visible: a reader that hits a
        // locked word waits, and aborts if the writer holds on.
        let stm = Lsa::with_config(StmConfig::default().with_max_retries(0));
        let v = TVar::new(0u64);
        // Foreign lock held for the duration of the read attempt.
        assert!(v.core().lock().try_lock_at(0, 424242));
        let r = stm.try_run(TxKind::Regular, |tx| tx.read(&v));
        assert!(r.is_err());
        v.core().lock().unlock_to(0);
    }

    #[test]
    fn concurrent_counter_increments_are_not_lost() {
        use std::sync::Arc;
        let stm = Arc::new(Lsa::new());
        let counter = Arc::new(TVar::new(0u64));
        let threads = 4u64;
        let per_thread = 500u64;
        let mut handles = Vec::new();
        for _ in 0..threads {
            let stm = Arc::clone(&stm);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..per_thread {
                    stm.run(TxKind::Regular, |tx| {
                        let c = tx.read(&*counter)?;
                        tx.write(&*counter, c + 1)
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load_atomic(), threads * per_thread);
    }

    #[test]
    fn double_write_keeps_single_undo_entry() {
        let stm = Lsa::with_config(StmConfig::default().with_max_retries(0));
        let v = TVar::new(7u64);
        let r = stm.try_run(TxKind::Regular, |tx| {
            tx.write(&v, 1)?;
            tx.write(&v, 2)?;
            Err::<(), _>(Abort::new(AbortReason::Explicit))
        });
        assert!(r.is_err());
        assert_eq!(v.load_atomic(), 7, "rollback must restore the original");
    }

    #[test]
    fn flat_child_commits_with_parent() {
        let stm = Lsa::new();
        let a = TVar::new(0u64);
        stm.run(TxKind::Regular, |tx| {
            tx.child(TxKind::Elastic, |tx| tx.write(&a, 1))
        });
        assert_eq!(a.load_atomic(), 1);
        assert_eq!(stm.stats().child_commits, 1);
    }
}
