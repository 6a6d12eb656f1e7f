// lint:hot-path
//! # TL2 — Transactional Locking II
//!
//! A word-based implementation of TL2 (Dice, Shalev, Shavit; DISC 2006), one
//! of the three classic STMs the paper benchmarks OE-STM against.
//!
//! Algorithm summary:
//!
//! * **Begin**: sample the global version clock into the read version `rv`.
//! * **Read**: consistent-read the location; abort if it is locked or its
//!   version exceeds `rv` (the location was written after we started — TL2
//!   has no snapshot extension). Record the read invisibly. A
//!   [`Link`]'s truncated version is compared by the serial-number rule, and
//!   an attempt that read one checks its clock age at commit (see
//!   `stm_core::link`).
//! * **Write**: buffer in the write set (lazy versioning / deferred update).
//! * **Commit**: acquire the versioned locks of the write set (sorted by
//!   location to avoid deadlock), increment the clock to obtain the write
//!   version `wv`, validate the read set (skippable when `wv == rv + 1`),
//!   write back, and release every lock at `wv`.
//!
//! In the paper's protection-element vocabulary: TL2 acquires the protection
//! element of every location it reads or writes and releases nothing before
//! commit, so its minimal protected set is its entire access set — classic
//! transactions compose (flat nesting satisfies outheritance trivially) but
//! pay for it with aborts on long search-structure traversals, which is
//! exactly what Figs. 6–8 of the paper show.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use stm_core::driver::{self, AbstractLog, Attempt, TxnEngine};
use stm_core::dynstm::{BackendRegistry, BackendSpec};
use stm_core::link::{self, Link, Loc};
use stm_core::readset::ReadSet;
use stm_core::scratch::TxScratch;
use stm_core::trace::TraceOp;
use stm_core::tvar::{ReadConflict, TVarCore};
use stm_core::writeset::WriteSet;
use stm_core::{Abort, AbortReason, Instance, RunError, Stm, StmConfig, Transaction, TxKind};

/// Register this crate's backend under the name `"tl2"`.
pub fn register_backends(registry: &mut BackendRegistry) {
    registry.register(BackendSpec::new(
        "tl2",
        "TL2 (Dice/Shalev/Shavit): lazy versioning, commit-time locking",
        |config| Box::new(Tl2::with_config(config)), // lint:allow — registration, cold
    ));
}

/// A TL2 software-transactional-memory instance.
///
/// All transactions run against the same instance share its global version
/// clock; `TVar`s are independent of the instance but must only be used with
/// one STM instance at a time (versions are clock-relative).
#[derive(Debug, Default)]
pub struct Tl2 {
    inst: Instance,
}

impl Tl2 {
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

/// One TL2 transaction: a single object per `run` call, restarted in
/// place for every attempt.
///
/// The read/write sets live in a [`TxScratch`] that survives from attempt
/// to attempt (and, through each buffer's thread-local spare, from
/// transaction to transaction), so a warmed-up attempt performs no heap
/// allocation.
#[derive(Debug)]
pub struct Tl2Txn<'env> {
    stm: &'env Tl2,
    rv: u64,
    at: Attempt<'env>,
    scratch: TxScratch<'env>,
}

impl<'env> TxnEngine<'env> for Tl2Txn<'env> {
    fn restart(&mut self) {
        self.scratch.reset();
        self.rv = self.stm.inst.clock.now();
    }

    fn try_commit(&mut self) -> Result<(), Abort> {
        let mut wv = 0;
        // Read-only: every read was validated against rv at read time, so
        // the snapshot is consistent as of rv. The clock is not ticked. A
        // read-only composition still validates (see
        // `Attempt::read_only_commit`).
        if self.scratch.writes.is_empty() {
            if self.scratch.reads.linked() {
                link::check_age(self.rv, self.stm.inst.clock.now())?;
            }
            let reads = &self.scratch.reads;
            self.at
                .read_only_commit(|| reads.validate(None, |_| None))?;
        } else {
            self.scratch.writes.lock_all(self.at.ticket())?;
            let stamp = self.stm.inst.clock.stamp();
            wv = stamp.wv;
            if self.scratch.reads.linked() {
                link::check_age(self.rv, wv)?;
            }
            // Someone committed after we sampled rv: re-validate the reads.
            // Only an *exclusively won* wv == rv + 1 proves nothing can
            // have invalidated them (TL2's validation-skip fast path); an
            // adopted stamp proves a concurrent commit just happened, even
            // when the shared timestamp happens to equal rv + 1.
            let valid = (stamp.exclusive && wv == self.rv + 1)
                || self.scratch.reads.validate(self.at.owner(), |lock| {
                    self.scratch.writes.locked_version_of(lock)
                });
            if !valid {
                return Err(Abort::new(AbortReason::ReadValidation));
            }
        }
        let (reads, writes, rv) = (&self.scratch.reads, &mut self.scratch.writes, self.rv);
        self.at.publish(
            wv,
            writes,
            writes.len(),
            WriteSet::for_each_write,
            |w| w.write_back_and_release(wv),
            |_| reads.observed_bound(rv),
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

impl<'env> Tl2Txn<'env> {
    #[inline]
    fn read_loc(&mut self, loc: Loc<'env>) -> Result<u64, Abort> {
        if let Some(word) = self.scratch.writes.lookup(loc) {
            if let Some(t) = self.at.tracer() {
                t.op_held(loc.id(), TraceOp::Read(word));
            }
            return Ok(word);
        }
        match loc.read_consistent() {
            Ok((word, seen)) => {
                let clock = &self.stm.inst.clock;
                if loc.newer(seen, self.rv, || clock.now()).is_some() {
                    // Written after we started; TL2 aborts (no extension).
                    return Err(Abort::new(AbortReason::ReadValidation));
                }
                self.scratch.reads.push(loc, seen);
                if let Some(t) = self.at.tracer() {
                    t.op(loc.id(), TraceOp::Read(word));
                }
                Ok(word)
            }
            Err(ReadConflict::Locked(_)) => Err(Abort::new(AbortReason::LockConflict)),
            Err(ReadConflict::Unstable) => Err(Abort::new(AbortReason::UnstableRead)),
        }
    }

    fn write_loc(&mut self, loc: Loc<'env>, word: u64) -> Result<(), Abort> {
        let first_touch = self.scratch.writes.lookup(loc).is_none();
        self.scratch.writes.insert(loc, word);
        if let Some(t) = self.at.tracer() {
            if first_touch {
                t.op(loc.id(), TraceOp::Write(word));
            } else {
                t.op_held(loc.id(), TraceOp::Write(word));
            }
        }
        Ok(())
    }
}

impl<'env> Transaction<'env> for Tl2Txn<'env> {
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

    // Flat nesting: the child's accesses accumulate in the parent's
    // sets and stay protected until the parent commits — the classic
    // instantiation of outheritance the paper describes in Section I.
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

impl Stm for Tl2 {
    type Txn<'env> = Tl2Txn<'env>;

    fn name(&self) -> &'static str {
        "TL2"
    }

    fn instance(&self) -> &Instance {
        &self.inst
    }

    fn try_run<'env, R>(
        &'env self,
        _kind: TxKind,
        f: impl FnMut(&mut Self::Txn<'env>) -> Result<R, Abort>,
    ) -> Result<R, RunError> {
        let mut txn = Tl2Txn {
            stm: self,
            rv: 0,
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
    fn read_your_own_write() {
        let stm = Tl2::new();
        let v = TVar::new(1u64);
        let out = stm.run(TxKind::Regular, |tx| {
            tx.write(&v, 5)?;
            tx.read(&v)
        });
        assert_eq!(out, 5);
        assert_eq!(v.load_atomic(), 5);
    }

    #[test]
    fn aborted_attempt_leaves_no_trace() {
        let stm = Tl2::with_config(StmConfig::default().with_max_retries(0));
        let v = TVar::new(1u64);
        let r = stm.try_run(TxKind::Regular, |tx| {
            tx.write(&v, 99)?;
            Err::<(), _>(Abort::new(AbortReason::Explicit))
        });
        assert!(r.is_err());
        assert_eq!(v.load_atomic(), 1);
    }

    #[test]
    fn commit_bumps_version_monotonically() {
        let stm = Tl2::new();
        let v = TVar::new(0u64);
        stm.run(TxKind::Regular, |tx| tx.write(&v, 1));
        let (_, ver1) = v.core().read_consistent().unwrap();
        stm.run(TxKind::Regular, |tx| tx.write(&v, 2));
        let (_, ver2) = v.core().read_consistent().unwrap();
        assert!(ver2 > ver1);
    }

    #[test]
    fn stale_read_aborts_and_retries() {
        // A transaction that reads a version newer than its rv must abort;
        // the retry then succeeds with a fresh rv.
        let stm = Tl2::new();
        let v = TVar::new(0u64);
        stm.run(TxKind::Regular, |tx| tx.write(&v, 7));
        let mut first = true;
        let out = stm.run(TxKind::Regular, |tx| {
            if first {
                first = false;
                // Simulate a racing commit with an out-of-band versioned write.
                let nv = stm.clock().tick();
                v.store_atomic(8, nv);
            }
            tx.read(&v)
        });
        assert_eq!(out, 8);
        assert!(stm.stats().aborts() >= 1);
    }

    #[test]
    fn read_only_transaction_needs_no_clock_tick() {
        let stm = Tl2::new();
        let v = TVar::new(3u64);
        let before = stm.clock().now();
        let out = stm.run(TxKind::Regular, |tx| tx.read(&v));
        assert_eq!(out, 3);
        assert_eq!(stm.clock().now(), before, "read-only commit must not tick");
    }

    #[test]
    fn wv_equals_rv_plus_one_skips_read_validation() {
        // If the commit's write version is exactly rv + 1, no other
        // transaction committed since we sampled rv, so the read set cannot
        // have been invalidated and TL2 skips validation entirely. To
        // observe the skip, corrupt a read's version *without ticking the
        // clock* (store_atomic with a doctored version — something no legal
        // committer can do): validation would fail, but must never run.
        let stm = Tl2::with_config(StmConfig::default().with_max_retries(0));
        let a = TVar::new(1u64);
        let b = TVar::new(0u64);
        let r = stm.try_run(TxKind::Regular, |tx| {
            let ra = tx.read(&a)?; // recorded at version 0
            a.store_atomic(9, 999); // version jump, clock NOT ticked
            tx.write(&b, ra)
        });
        assert!(r.is_ok(), "wv == rv + 1 must commit without validating");
        assert_eq!(b.load_atomic(), 1);
        assert_eq!(stm.stats().aborts(), 0);
    }

    #[test]
    fn wv_not_rv_plus_one_validates_and_aborts() {
        // The counterpart: when another commit advanced the clock, the skip
        // does not apply and the doctored read is caught by validation.
        let stm = Tl2::new();
        let a = TVar::new(1u64);
        let b = TVar::new(0u64);
        let mut sabotage = true;
        stm.run(TxKind::Regular, |tx| {
            let ra = tx.read(&a)?;
            if sabotage {
                sabotage = false;
                let nv = stm.clock().tick(); // wv != rv + 1 now
                a.store_atomic(9, nv);
            }
            tx.write(&b, ra)
        });
        assert_eq!(b.load_atomic(), 9, "retry must observe the new value");
        assert_eq!(
            stm.stats().aborts_by_cause[AbortReason::ReadValidation.index()],
            1
        );
    }

    #[test]
    fn flat_child_commits_with_parent() {
        let stm = Tl2::new();
        let a = TVar::new(0u64);
        let b = TVar::new(0u64);
        stm.run(TxKind::Regular, |tx| {
            tx.child(TxKind::Elastic, |tx| tx.write(&a, 1))?;
            tx.child(TxKind::Regular, |tx| tx.write(&b, 2))?;
            Ok(())
        });
        assert_eq!((a.load_atomic(), b.load_atomic()), (1, 2));
        assert_eq!(stm.stats().child_commits, 2);
    }

    #[test]
    fn concurrent_counter_increments_are_not_lost() {
        use std::sync::Arc;
        let stm = Arc::new(Tl2::new());
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
        assert_eq!(stm.stats().commits, threads * per_thread);
    }

    #[test]
    fn disjoint_writers_both_commit() {
        use std::sync::Arc;
        let stm = Arc::new(Tl2::new());
        let a = Arc::new(TVar::new(0u64));
        let b = Arc::new(TVar::new(0u64));
        let s1 = Arc::clone(&stm);
        let a1 = Arc::clone(&a);
        let h = std::thread::spawn(move || {
            for i in 0..1000 {
                s1.run(TxKind::Regular, |tx| tx.write(&*a1, i));
            }
        });
        for i in 0..1000 {
            stm.run(TxKind::Regular, |tx| tx.write(&*b, i));
        }
        h.join().unwrap();
        assert_eq!(a.load_atomic(), 999);
        assert_eq!(b.load_atomic(), 999);
    }

    #[test]
    fn every_cm_policy_recovers_from_forced_conflicts() {
        // A transaction sabotaged by a racing commit on its first attempts
        // must still make progress, with the aborts filed as conflicts
        // (never as explicit retries) and every one paced.
        let stm = Tl2::new();
        let v = TVar::new(0u64);
        let mut sabotage_left = 3;
        stm.run(TxKind::Regular, |tx| {
            let x = tx.read(&v)?;
            if sabotage_left > 0 {
                sabotage_left -= 1;
                let nv = stm.clock().tick();
                v.store_atomic(x + 10, nv);
            }
            tx.write(&v, x + 1)
        });
        let snap = stm.stats();
        assert_eq!(snap.commits, 1);
        assert_eq!(snap.aborts(), 3);
        assert_eq!(snap.explicit_retries(), 0);
        assert_eq!(snap.cm_waits(), 3, "every abort is paced");
    }
}
