// lint:hot-path
//! # SwissTM-style STM
//!
//! A word-based implementation of the SwissTM design (Dragojević, Guerraoui,
//! Kapałka PLDI 2009; characterised in the paper as "builds upon LSA while
//! adding mixed eager and lazy conflict resolution to abort as soon as
//! possible while trying to maximize throughput"), the third classic
//! baseline of the evaluation.
//!
//! Key design points reproduced here:
//!
//! * **Eager write-write conflict detection**: a writer acquires a *write
//!   lock* for the location at encounter time from a global lock table, so
//!   two transactions buffering writes to the same location conflict
//!   immediately instead of at commit. The write set is the record of the
//!   slots held: each slot is taken just before its location is buffered,
//!   and commit and abort free the slots of the buffered locations.
//! * **Lazy read-write conflict detection**: values are buffered
//!   (write-back), and readers are *invisible* — they validate against the
//!   location's versioned lock, which writers only take during the short
//!   commit write-back window.
//! * **Lazy snapshot extension** (inherited from LSA): a read newer than the
//!   transaction's validity upper bound triggers revalidation-and-extend
//!   rather than an abort.
//! * **Two-phase contention management at encounter time**: a
//!   write-write conflict asks [`stm_core::cm::encounter_waits`] with the
//!   owner's ticket, the write-set size and the spins burned so far —
//!   original SwissTM's rule: short transactions (fewer writes than
//!   [`CM_WRITE_THRESHOLD`](stm_core::cm::CM_WRITE_THRESHOLD)) are *timid*
//!   and abort themselves on any write-write conflict; beyond the
//!   threshold they become *greedy* and spin-wait if they are older than
//!   the lock holder (ticket order), else abort.
//!
//! ## Divergence from the original
//!
//! Original SwissTM lets a greedy winner force the *other* transaction to
//! abort (remote aborts via a shared descriptor). Our loser-yields variant
//! keeps the same priority order but resolves conflicts only by self-abort
//! and bounded waiting; with the short transactions of the paper's workloads
//! the observable difference is limited to slightly more conservative
//! behaviour under long conflicts. Recorded in `DESIGN.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use core::sync::atomic::{AtomicU64, Ordering};
use stm_core::bloom::hash_id;
use stm_core::cm::{self, LOCK_SPIN_LIMIT};
use stm_core::driver::{self, AbstractLog, Attempt, TxnEngine};
use stm_core::dynstm::{BackendRegistry, BackendSpec};
use stm_core::link::{self, Link, Loc};
use stm_core::readset::ReadSet;
use stm_core::scratch::TxScratch;
use stm_core::trace::TraceOp;
use stm_core::tvar::{ReadConflict, TVarCore};
use stm_core::writeset::WriteSet;
use stm_core::{Abort, AbortReason, Instance, RunError, Stm, StmConfig, Transaction, TxKind};

/// Register this crate's backend under the name `"swiss"`.
pub fn register_backends(registry: &mut BackendRegistry) {
    registry.register(BackendSpec::new(
        "swiss",
        "SwissTM (Dragojevic/Guerraoui/Kapalka): eager W-W, lazy versioning",
        |config| Box::new(Swiss::with_config(config)), // lint:allow — registration, cold
    ));
}

/// Default size (log2) of the write-lock table.
const DEFAULT_WLOCK_TABLE_BITS: u32 = 16;

/// The global table of encounter-time write locks.
///
/// Each slot holds the ticket of the owning transaction attempt, or 0 when
/// free. Multiple locations may hash to one slot; the resulting false
/// conflicts are part of the original design (SwissTM maps memory words to
/// a global lock table the same way).
#[derive(Debug)]
struct WLockTable {
    slots: Vec<AtomicU64>,
    mask: usize,
}

impl WLockTable {
    fn new(bits: u32) -> Self {
        let n = 1usize << bits;
        let mut slots = Vec::with_capacity(n);
        slots.resize_with(n, || AtomicU64::new(0));
        Self { slots, mask: n - 1 }
    }

    /// The write-lock slot the location `id` maps to.
    #[inline]
    fn slot(&self, id: usize) -> &AtomicU64 {
        &self.slots[(hash_id(id) as usize) & self.mask]
    }
}

/// A SwissTM software-transactional-memory instance.
#[derive(Debug)]
pub struct Swiss {
    inst: Instance,
    wlocks: WLockTable,
}

impl Default for Swiss {
    fn default() -> Self {
        Self::new()
    }
}

impl Swiss {
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
            wlocks: WLockTable::new(DEFAULT_WLOCK_TABLE_BITS),
        }
    }
}

/// One SwissTM transaction: a single object per `run` call, restarted
/// in place for every attempt.
///
/// The read/write sets live in a [`TxScratch`] that survives from attempt
/// to attempt, so a warmed-up attempt performs no heap allocation. The
/// write set also names every write-lock slot the attempt holds: each
/// slot was taken just before its location was buffered.
#[derive(Debug)]
pub struct SwissTxn<'env> {
    stm: &'env Swiss,
    /// Validity interval lower bound (begin-time clock sample).
    rv: u64,
    /// Validity interval upper bound (grows by extension).
    ub: u64,
    at: Attempt<'env>,
    scratch: TxScratch<'env>,
}

/// Release the encounter-time write locks `owner` took for the locations
/// of `writes`. The CAS from `owner`'s ticket frees a slot two locations
/// share once, and leaves alone a slot another attempt has taken since.
/// An attempt that has not drawn its ticket holds none.
fn release_wlocks(wlocks: &WLockTable, owner: Option<u64>, writes: &WriteSet<'_>) {
    let Some(ticket) = owner else {
        debug_assert!(writes.is_empty(), "writes buffered without a ticket");
        return;
    };
    for e in writes.iter() {
        let slot = wlocks.slot(e.loc.id());
        let _ = slot.compare_exchange(ticket, 0, Ordering::AcqRel, Ordering::Relaxed);
    }
}

impl<'env> TxnEngine<'env> for SwissTxn<'env> {
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
            let ticket = self.at.ticket();
            self.scratch.writes.lock_all(ticket)?;
            let stamp = self.stm.inst.clock.stamp();
            wv = stamp.wv;
            if self.scratch.reads.linked() {
                link::check_age(self.rv, wv)?;
            }
            // Validation-skip fast path (see TL2): an exclusively won
            // wv == ub + 1 means no other update committed since the
            // snapshot was last validated; an adopted stamp means one did.
            let valid = (stamp.exclusive && wv == self.ub + 1)
                || self.scratch.reads.validate(Some(ticket), |lock| {
                    self.scratch.writes.locked_version_of(lock)
                });
            if !valid {
                return Err(Abort::new(AbortReason::ReadValidation));
            }
        }
        // Both lock layers (commit-time versioned locks and encounter-
        // time write locks) stay held until the release step.
        let (wlocks, owner, ub) = (&self.stm.wlocks, self.at.owner(), self.ub);
        let len = self.scratch.writes.len();
        self.at.publish(
            wv,
            &mut self.scratch,
            len,
            |s, f| s.writes.for_each_write(f),
            |s| {
                s.writes.write_back_and_release(wv);
                release_wlocks(wlocks, owner, &s.writes);
            },
            |s| s.reads.observed_bound(ub),
        );
        Ok(())
    }

    fn rollback(&mut self) {
        self.scratch.writes.release_locks();
        release_wlocks(&self.stm.wlocks, self.at.owner(), &self.scratch.writes);
    }

    fn wait_set(&mut self) -> &ReadSet<'env> {
        &self.scratch.reads
    }
}

impl<'env> SwissTxn<'env> {
    /// The current validity interval `[rv, ub]`.
    #[must_use]
    pub fn validity_interval(&self) -> (u64, u64) {
        (self.rv, self.ub)
    }

    /// Try to extend the validity interval to cover `target` (the observed
    /// version of the location that triggered the extension). As in LSA,
    /// revalidating the read set now proves consistency up to at least
    /// `target`, so the extension path never re-reads the contended global
    /// clock line.
    fn extend(&mut self, target: u64) -> Result<(), Abort> {
        if self.scratch.reads.linked() {
            link::check_age(self.rv, target)?;
        }
        let ok = self.scratch.reads.validate(self.at.owner(), |lock| {
            self.scratch.writes.locked_version_of(lock)
        });
        if ok {
            self.ub = target;
            self.stm.inst.stats.record_extension();
            Ok(())
        } else {
            Err(Abort::new(AbortReason::ExtensionFailed))
        }
    }

    /// Eagerly acquire the write lock for `core`: the stack's one
    /// *encounter-time* arbitration site. The owner's ticket is known, so
    /// [`cm::encounter_waits`] decides in place whether to spin and
    /// re-poll the lock or abort the attempt (filed as
    /// [`AbortReason::ContentionManager`]). The rule bounds its own
    /// waiting, and a defensive backstop (`LOCK_SPIN_LIMIT × 16`) keeps
    /// the loop finite even if it did not.
    fn acquire_wlock(&self, id: usize) -> Result<(), Abort> {
        const BACKSTOP: u32 = LOCK_SPIN_LIMIT * 16;
        let slot = self.stm.wlocks.slot(id);
        let ticket = self.at.ticket();
        let mut spins = 0u32;
        loop {
            match slot.compare_exchange(0, ticket, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return Ok(()),
                Err(owner) if owner == ticket => return Ok(()),
                Err(owner) => {
                    let writes = self.scratch.writes.len();
                    if spins >= BACKSTOP || !cm::encounter_waits(ticket, owner, writes, spins) {
                        return Err(Abort::new(AbortReason::ContentionManager));
                    }
                    core::hint::spin_loop();
                    spins += 1;
                }
            }
        }
    }
}

impl<'env> SwissTxn<'env> {
    fn read_loc(&mut self, loc: Loc<'env>) -> Result<u64, Abort> {
        if let Some(word) = self.scratch.writes.lookup(loc) {
            if let Some(t) = self.at.tracer() {
                t.op_held(loc.id(), TraceOp::Read(word));
            }
            return Ok(word);
        }
        let mut spins = 0u32;
        loop {
            match loc.read_consistent() {
                Ok((word, seen)) => {
                    // Record the read BEFORE any extension so the
                    // revalidation covers this location too: if it changes
                    // again between the consistent read and the extension
                    // sample, the extension fails instead of the snapshot
                    // silently going stale (matters for read-only
                    // transactions, which are never validated again).
                    self.scratch.reads.push(loc, seen);
                    let clock = &self.stm.inst.clock;
                    if let Some(version) = loc.newer(seen, self.ub, || clock.now()) {
                        self.extend(version)?;
                    }
                    if let Some(t) = self.at.tracer() {
                        t.op(loc.id(), TraceOp::Read(word));
                    }
                    return Ok(word);
                }
                // The versioned lock is only held during a short commit
                // write-back; wait it out briefly.
                Err(ReadConflict::Locked(_)) => {
                    spins += 1;
                    if spins > LOCK_SPIN_LIMIT {
                        return Err(Abort::new(AbortReason::LockConflict));
                    }
                    core::hint::spin_loop();
                }
                Err(ReadConflict::Unstable) => {
                    return Err(Abort::new(AbortReason::UnstableRead));
                }
            }
        }
    }

    fn write_loc(&mut self, loc: Loc<'env>, word: u64) -> Result<(), Abort> {
        // Eager W-W detection, lazy versioning: take the write lock now,
        // buffer the value until commit.
        self.acquire_wlock(loc.id())?;
        let first_touch = self.scratch.writes.insert(loc, word);
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

impl<'env> Transaction<'env> for SwissTxn<'env> {
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

impl Stm for Swiss {
    type Txn<'env> = SwissTxn<'env>;

    fn name(&self) -> &'static str {
        "SwissTM"
    }

    fn instance(&self) -> &Instance {
        &self.inst
    }

    fn try_run<'env, R>(
        &'env self,
        _kind: TxKind,
        f: impl FnMut(&mut Self::Txn<'env>) -> Result<R, Abort>,
    ) -> Result<R, RunError> {
        let mut txn = SwissTxn {
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
    fn read_your_own_write() {
        let stm = Swiss::new();
        let v = TVar::new(1u64);
        let out = stm.run(TxKind::Regular, |tx| {
            tx.write(&v, 5)?;
            tx.read(&v)
        });
        assert_eq!(out, 5);
        assert_eq!(v.load_atomic(), 5);
    }

    #[test]
    fn abort_releases_write_locks() {
        let stm = Swiss::with_config(StmConfig::default().with_max_retries(0));
        let v = TVar::new(1u64);
        let r = stm.try_run(TxKind::Regular, |tx| {
            tx.write(&v, 99)?;
            Err::<(), _>(Abort::new(AbortReason::Explicit))
        });
        assert!(r.is_err());
        assert_eq!(v.load_atomic(), 1);
        // A second transaction must be able to take the same write lock.
        stm.run(TxKind::Regular, |tx| tx.write(&v, 2));
        assert_eq!(v.load_atomic(), 2);
    }

    #[test]
    fn eager_ww_conflict_detected_at_encounter() {
        // Hold the write lock out-of-band: a timid writer must abort at the
        // write call, not at commit.
        let stm = Swiss::with_config(StmConfig::default().with_max_retries(0));
        let v = TVar::new(0u64);
        let slot = stm.wlocks.slot(v.core().id());
        slot.store(777, Ordering::SeqCst); // foreign owner
        let r = stm.try_run(TxKind::Regular, |tx| tx.write(&v, 1));
        assert!(r.is_err());
        assert_eq!(
            stm.stats().aborts_by_cause[AbortReason::ContentionManager.index()],
            1
        );
        slot.store(0, Ordering::SeqCst);
        stm.run(TxKind::Regular, |tx| tx.write(&v, 1));
        assert_eq!(v.load_atomic(), 1);
    }

    #[test]
    fn every_cm_policy_bounds_the_encounter_wait() {
        // A wedged foreign owner must never livelock the write path: a
        // timid attempt aborts at once, a greedy older one after its
        // bounded wait, and the abort is filed in the CM category.
        for writes in [0u64, 8] {
            let stm = Swiss::with_config(StmConfig::default().with_max_retries(0));
            let vars: Vec<TVar<u64>> = (0..writes).map(TVar::new).collect();
            let v = TVar::new(0u64);
            let slot = stm.wlocks.slot(v.core().id());
            slot.store(u64::MAX, Ordering::SeqCst); // younger owner, never releases
            let r = stm.try_run(TxKind::Regular, |tx| {
                for (i, w) in vars.iter().enumerate() {
                    tx.write(w, i as u64)?;
                }
                tx.write(&v, 1)
            });
            assert!(
                r.is_err(),
                "{writes} writes: wedged owner must bound the attempt"
            );
            let snap = stm.stats();
            assert_eq!(snap.cm_aborts(), 1, "{writes} writes: filed as a CM abort");
            assert_eq!(snap.explicit_retries(), 0, "{writes} writes");
            slot.store(0, Ordering::SeqCst);
            // Once the owner is gone, the write makes progress.
            stm.run(TxKind::Regular, |tx| tx.write(&v, 2));
            assert_eq!(v.load_atomic(), 2, "{writes} writes");
        }
    }

    #[test]
    fn greedy_two_phase_waits_out_a_short_lock_hold() {
        // A greedy (past-threshold) older transaction must *win* when the
        // owner releases within the spin budget — the waiting half of the
        // two-phase rule, previously untestable end-to-end.
        let stm = Swiss::new();
        let vars: Vec<TVar<u64>> = (0..8).map(|_| TVar::new(0u64)).collect();
        let target = TVar::new(0u64);
        let slot = stm.wlocks.slot(target.core().id());
        let mut armed = true;
        stm.run(TxKind::Regular, |tx| {
            // Get past the timid threshold (4 writes) first.
            for (i, v) in vars.iter().enumerate() {
                tx.write(v, i as u64)?;
            }
            if armed {
                armed = false;
                // An *older*-looking hold: a huge ticket loses the
                // ticket-order comparison, so we (smaller ticket) wait…
                slot.store(u64::MAX, Ordering::SeqCst);
                // …and the "owner" releases before the budget runs out:
                // simulate by clearing from a helper thread after a beat.
                let slot_ref = slot;
                std::thread::scope(|s| {
                    s.spawn(|| {
                        std::thread::yield_now();
                        slot_ref.store(0, Ordering::SeqCst);
                    });
                    tx.write(&target, 9)
                })
            } else {
                tx.write(&target, 9)
            }
        });
        assert_eq!(target.load_atomic(), 9);
    }

    #[test]
    fn snapshot_extension_on_read() {
        let stm = Swiss::new();
        let v = TVar::new(0u64);
        let out = stm.run(TxKind::Regular, |tx| {
            let nv = stm.clock().tick();
            v.store_atomic(42, nv);
            tx.read(&v)
        });
        assert_eq!(out, 42);
        assert!(stm.stats().extensions >= 1);
    }

    #[test]
    fn invisible_reads_do_not_block_writers() {
        // A reader records a location; a writer in another transaction can
        // still commit to it (the reader aborts on validation instead).
        let stm = Swiss::new();
        let a = TVar::new(0u64);
        let b = TVar::new(0u64);
        let mut first = true;
        let out = stm.run(TxKind::Regular, |tx| {
            let ra = tx.read(&a)?;
            if first {
                first = false;
                // Another transaction writes `a` (and commits) while we run.
                stm.run(TxKind::Regular, |tx2| tx2.write(&a, 5));
            }
            tx.write(&b, ra + 1)?;
            Ok(ra)
        });
        // The first attempt read a=0 but a changed before commit → retry
        // reads a=5.
        assert_eq!(out, 5);
        assert_eq!(b.load_atomic(), 6);
    }

    #[test]
    fn concurrent_counter_increments_are_not_lost() {
        use std::sync::Arc;
        let stm = Arc::new(Swiss::new());
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
    fn wlock_slot_dedup_keeps_single_hold() {
        let stm = Swiss::new();
        let v = TVar::new(0u64);
        stm.run(TxKind::Regular, |tx| {
            tx.write(&v, 1)?;
            tx.write(&v, 2) // same slot, taken once
        });
        assert_eq!(v.load_atomic(), 2);
        // Lock must be free again.
        assert_eq!(stm.wlocks.slot(v.core().id()).load(Ordering::SeqCst), 0);
    }

    #[test]
    fn two_locations_sharing_a_write_lock_slot_free_it() {
        // One more variable than the table has slots: two share one.
        let stm = Swiss::with_config(StmConfig::default().with_max_retries(0));
        let vars: Vec<TVar<u64>> = (0..=stm.wlocks.slots.len() as u64).map(TVar::new).collect();
        let mut first = std::collections::HashMap::new();
        let (a, b) = vars
            .iter()
            .enumerate()
            .find_map(|(i, v)| {
                let slot: *const AtomicU64 = stm.wlocks.slot(v.core().id());
                first.insert(slot, i).map(|j| (&vars[j], v))
            })
            .expect("pigeonhole");
        let slot = stm.wlocks.slot(a.core().id());
        assert!(core::ptr::eq(slot, stm.wlocks.slot(b.core().id())));
        let all_free = || {
            stm.wlocks
                .slots
                .iter()
                .all(|s| s.load(Ordering::SeqCst) == 0)
        };
        let r = stm.try_run(TxKind::Regular, |tx| {
            tx.write(a, 1)?;
            tx.write(b, 2)?;
            Err::<(), _>(Abort::new(AbortReason::Explicit))
        });
        assert!(r.is_err());
        assert!(all_free(), "every slot is free after an aborted attempt");
        stm.run(TxKind::Regular, |tx| {
            tx.write(a, 1)?;
            tx.write(b, 2)
        });
        assert!(all_free(), "every slot is free after a commit");
        assert_eq!((a.load_atomic(), b.load_atomic()), (1, 2));
        // A slot another attempt took after the first release is left
        // alone by the second.
        let mut writes = WriteSet::new();
        writes.insert(Loc::Var(a.core()), 0);
        writes.insert(Loc::Var(b.core()), 0);
        slot.store(777, Ordering::SeqCst);
        release_wlocks(&stm.wlocks, Some(5), &writes);
        assert_eq!(slot.load(Ordering::SeqCst), 777);
        slot.store(0, Ordering::SeqCst);
    }

    #[test]
    fn flat_child_commits_with_parent() {
        let stm = Swiss::new();
        let a = TVar::new(0u64);
        stm.run(TxKind::Regular, |tx| {
            tx.child(TxKind::Elastic, |tx| tx.write(&a, 1))
        });
        assert_eq!(a.load_atomic(), 1);
        assert_eq!(stm.stats().child_commits, 1);
    }
}
