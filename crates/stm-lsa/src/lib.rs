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
//!   (eager) and *buffer* the value in the write set, which records the
//!   pre-lock word. Readers that hit the locked word conflict immediately
//!   (visible writes); the writer reads a held location back from its
//!   write set. This is the write-back variant of LSA that TinySTM (Felber,
//!   Fetzer, Riegel; PPoPP 2008) also runs under encounter-time locks.
//! * **Commit**: tick the clock to get `wv`; if the snapshot does not
//!   already extend to `wv - 1`, revalidate the read set; then write back
//!   and release each lock at `wv`, as TL2 does. **Abort**: release each
//!   lock at its pre-lock word; no value word changed under it.
//!
//! Like TL2, LSA is a *classic* transaction model: the protection element of
//! every access is held until commit, so flat nesting composes (trivially
//! satisfying the paper's outheritance), at the cost of conflicts over whole
//! search-structure traversals.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use stm_core::driver::{self, AbstractLog, Attempt, TxnEngine};
use stm_core::dynstm::{BackendRegistry, BackendSpec};
use stm_core::link::{self, Link, Loc};
use stm_core::readset::ReadSet;
use stm_core::scratch::TxScratch;
use stm_core::trace::TraceOp;
use stm_core::tvar::{ReadConflict, TVarCore};
use stm_core::vlock::VLock;
use stm_core::writeset::WriteSet;
use stm_core::{Abort, AbortReason, Instance, RunError, Stm, StmConfig, Transaction, TxKind};

/// Register this crate's backend under the name `"lsa"`.
pub fn register_backends(registry: &mut BackendRegistry) {
    registry.register(BackendSpec::new(
        "lsa",
        "LSA (Riegel/Felber/Fetzer): lazy snapshots, eager locking, buffered writes",
        |config| Box::new(Lsa::with_config(config)), // lint:allow — registration, cold
    ));
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
    /// The pooled read set, and the write set that buffers every write
    /// and records every lock the attempt holds.
    scratch: TxScratch<'env>,
}

impl<'env> TxnEngine<'env> for LsaTxn<'env> {
    fn restart(&mut self) {
        self.scratch.reset();
        let now = self.stm.inst.clock.now();
        self.rv = now;
        self.ub = now;
    }

    fn try_commit(&mut self) -> Result<(), Abort> {
        let mut wv = 0;
        if self.scratch.writes.is_empty() {
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
        let (reads, writes, ub) = (&self.scratch.reads, &mut self.scratch.writes, self.ub);
        self.at.publish(
            wv,
            writes,
            writes.len(),
            WriteSet::for_each_write,
            |w| w.write_back_and_release(wv),
            |_| reads.observed_bound(ub),
        );
        Ok(())
    }

    fn rollback(&mut self) {
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
    /// is compared at its pre-lock word.
    fn reads_hold(&self) -> bool {
        self.scratch.reads.validate(self.at.owner(), |lock| {
            self.scratch.writes.locked_version_of(lock)
        })
    }

    /// Whether this attempt holds the lock of the location `lock`
    /// protects: exactly the locations its write set holds. An attempt
    /// that has not drawn its ticket holds none.
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
        // Eager locking: every location this attempt holds is buffered.
        if let Some(word) = self.scratch.writes.lookup(loc) {
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
            self.scratch.writes.insert(loc, word);
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
                    self.scratch.writes.insert_locked(loc, word, old);
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
    fn an_aborted_write_leaves_value_lock_word_and_clock_as_they_were() {
        let stm = Lsa::with_config(StmConfig::default().with_max_retries(0));
        let a = TVar::new(1u64);
        let b = TVar::new(2u64);
        stm.run(TxKind::Regular, |tx| tx.write(&a, 3));
        let before = [a.core().lock().raw(), b.core().lock().raw()];
        let clock = stm.clock().now();
        let r = stm.try_run(TxKind::Regular, |tx| {
            tx.write(&a, 10)?;
            tx.write(&b, 20)?;
            Err::<(), _>(Abort::new(AbortReason::Explicit))
        });
        assert!(r.is_err());
        assert_eq!((a.load_atomic(), b.load_atomic()), (3, 2));
        let after = [a.core().lock().raw(), b.core().lock().raw()];
        assert_eq!(after, before, "each lock went back to its pre-lock word");
        assert_eq!(stm.clock().now(), clock, "an abort ticks no clock");
    }

    #[test]
    fn a_held_word_reads_back_from_the_buffer() {
        // The write takes the lock at once but leaves the value word as
        // committed: a reader's lock-value-lock check can never return
        // the written value, and the writer reads it from its write set.
        let stm = Lsa::with_config(StmConfig::default().with_max_retries(0));
        let v = TVar::new(1u64);
        stm.run(TxKind::Regular, |tx| tx.write(&v, 2));
        let before = v.core().lock().raw();
        let (mut held, mut in_place, mut read_back) = (0, 0, 0);
        let r = stm.try_run(TxKind::Regular, |tx| {
            tx.write(&v, 99)?;
            held = v.core().lock().raw();
            in_place = v.core().value_unsync();
            read_back = tx.read(&v)?;
            Err::<(), _>(Abort::new(AbortReason::Explicit))
        });
        assert!(r.is_err());
        assert_eq!(held >> 63, 1, "the write took the lock");
        assert_eq!(in_place, 2, "the value word kept the committed value");
        assert_eq!(read_back, 99, "the held word read back from the buffer");
        assert_eq!(v.core().lock().raw(), before);
        assert_eq!(v.load_atomic(), 2);
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
        // Both writes land in one write-set entry, released once.
        let stm = Lsa::with_config(StmConfig::default().with_max_retries(0));
        let v = TVar::new(7u64);
        let r = stm.try_run(TxKind::Regular, |tx| {
            tx.write(&v, 1)?;
            tx.write(&v, 2)?;
            Err::<(), _>(Abort::new(AbortReason::Explicit))
        });
        assert!(r.is_err());
        assert_eq!(v.load_atomic(), 7, "the original value stands");
        assert!(v.core().read_consistent().is_ok(), "the lock was released");
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
