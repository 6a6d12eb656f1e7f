// lint:hot-path
//! The OE-STM transaction: elastic execution with outheritance-based
//! composition (Sections V and VI of the paper).

use crate::OeStm;
use stm_core::driver::{AbstractLog, Attempt, TxnEngine};
use stm_core::link::{self, Link, Loc};
use stm_core::readset::{ReadEntry, ReadSet};
use stm_core::scratch::{give_back, SpareVec, TxScratch};
use stm_core::trace::TraceOp;
use stm_core::tvar::{ReadConflict, TVarCore};
use stm_core::vlock::VLock;
use stm_core::writeset::WriteSet;
use stm_core::{Abort, AbortReason, Transaction, TxKind};

use crate::window::Window;

/// Saved parent state across a child transaction (one nesting frame).
///
/// The parent's window is parked here *by value*: [`Window`] is two
/// inline slots, so saving and restoring it moves a few words on the stack
/// instead of allocating a `Vec` per child — composition stays on the
/// allocation-free hot path.
#[derive(Debug)]
struct Frame<'env> {
    saved_mode: TxKind,
    saved_hardened: bool,
    saved_window: Window<'env>,
    /// Parent's read-set length at child begin; the child's reads are the
    /// suffix past this mark.
    read_mark: usize,
}

thread_local! {
    /// The nesting-frame stack's allocation between runs.
    static FRAMES_SPARE: SpareVec<Frame<'static>> = const { SpareVec::new() };
}

/// The per-run reusable buffers of an OE-STM transaction: the shared
/// [`TxScratch`] (read set, write set) plus the nesting-frame stack,
/// borrowed from [`FRAMES_SPARE`] at the run's first child and returned
/// on drop — a warmed-up thread composes without allocating and a run
/// without children never touches the thread-local.
#[derive(Debug)]
struct OeScratch<'env> {
    base: TxScratch<'env>,
    frames: Vec<Frame<'env>>,
}

impl<'env> OeScratch<'env> {
    fn acquire() -> Self {
        Self {
            base: TxScratch::acquire(),
            frames: Vec::new(),
        }
    }

    fn reset(&mut self) {
        self.base.reset();
        self.frames.clear();
    }

    fn push_frame(&mut self, frame: Frame<'env>) {
        if self.frames.capacity() == 0 {
            self.frames = FRAMES_SPARE.with(SpareVec::take);
        }
        self.frames.push(frame);
    }
}

impl Drop for OeScratch<'_> {
    fn drop(&mut self) {
        give_back(&FRAMES_SPARE, core::mem::take(&mut self.frames));
    }
}

/// Bound on snapshot-advance attempts within a single read (prevents
/// livelock against a pathological stream of conflicting commits).
const MAX_ADVANCE_ATTEMPTS: u32 = 16;

/// The abort of a read whose previous read no longer holds. Out of line,
/// so a read head branches to it instead of selecting its result: the word
/// a head returns must not wait for the check of the previous read.
#[cold]
#[inline(never)]
fn elastic_cut() -> Abort {
    Abort::new(AbortReason::ElasticCut)
}

/// One OE-STM transaction: a single object per `run` call, restarted in
/// place for every attempt.
///
/// An attempt executes either as a *regular* (classic) transaction or as an
/// *elastic* one. Elastic attempts keep only a sliding [`Window`] of their
/// most recent reads until their first write ("the read-only prefix"),
/// ignoring conflicts on everything that slid out; from the first write on
/// they behave classically. Composition runs children via
/// [`Transaction::child`]; with outheritance enabled (the OE in OE-STM) a
/// committing child passes its protected set — read set, last-read window
/// entries, and write set — to the parent exactly as in Fig. 4 of the
/// paper.
#[derive(Debug)]
pub struct OeTxn<'env> {
    stm: &'env OeStm,
    /// Snapshot time: all protected reads are consistent at `rv`.
    rv: u64,
    /// The clock at the attempt's begin: what its clock age is measured
    /// from once it has read a link (see `stm_core::link`).
    start: u64,
    /// Whether this attempt read a link, and so owes the age check at its
    /// extensions and its commit.
    linked: bool,
    at: Attempt<'env>,
    scratch: OeScratch<'env>,
    window: Window<'env>,
    /// The kind the top-level transaction was begun with (restored by
    /// `restart` after attempts that left child modes behind).
    top_kind: TxKind,
    mode: TxKind,
    /// True once the current (sub)transaction has written (elastic
    /// transactions "harden" into classic behaviour at their first write).
    hardened: bool,
    /// Whether any part of this attempt ran elastic. Reads an elastic
    /// window released are gone from every log, so only `rv` still bounds
    /// the versions the attempt observed.
    elastic: bool,
}

impl<'env> TxnEngine<'env> for OeTxn<'env> {
    fn restart(&mut self) {
        self.scratch.reset();
        // `begin` built the window empty; only a retry finds it used.
        self.window.clear();
        self.mode = self.top_kind;
        self.hardened = self.top_kind == TxKind::Regular;
        self.elastic = !self.hardened;
        self.rv = self.stm.inst.clock.now();
        self.start = self.rv;
        self.linked = false;
    }

    /// Top-level commit. Both the elastic and the estm-compat registry
    /// modes pass through here.
    fn try_commit(&mut self) -> Result<(), Abort> {
        debug_assert!(self.scratch.frames.is_empty(), "commit with live children");
        let mut wv = 0;
        // Read-only: elastic reads were validated pairwise at each cut,
        // classic reads against rv — the snapshot is consistent. A
        // read-only composition still validates what its children
        // outherited (see `Attempt::read_only_commit`).
        if self.scratch.base.writes.is_empty() {
            if self.linked {
                link::check_age(self.start, self.stm.inst.clock.now())?;
            }
            let (reads, window) = (&self.scratch.base.reads, &self.window);
            self.at
                .read_only_commit(|| reads.validate(None, |_| None) && window.validate())?;
        } else {
            // The last elastic reads (r_k..r_n of Section V) are part of
            // the minimal protected set: fold them into the read set and
            // validate everything together.
            self.window.drain_into(&mut self.scratch.base.reads);
            self.scratch.base.writes.lock_all(self.at.ticket())?;
            let stamp = self.stm.inst.clock.stamp();
            wv = stamp.wv;
            if self.linked {
                link::check_age(self.start, wv)?;
            }
            // Validation-skip fast path (see TL2): an exclusively won
            // wv == rv + 1 means no other update committed since the
            // snapshot time; an adopted stamp means one did.
            let valid = (stamp.exclusive && wv == self.rv + 1)
                || self.scratch.base.reads.validate(self.at.owner(), |lock| {
                    self.scratch.base.writes.locked_version_of(lock)
                });
            if !valid {
                return Err(Abort::new(AbortReason::ReadValidation));
            }
        }
        let (reads, writes) = (&self.scratch.base.reads, &mut self.scratch.base.writes);
        let (elastic, rv) = (self.elastic, self.rv);
        self.at.publish(
            wv,
            writes,
            writes.len(),
            WriteSet::for_each_write,
            |w| w.write_back_and_release(wv),
            |_| {
                if elastic {
                    rv
                } else {
                    reads.observed_bound(rv)
                }
            },
        );
        Ok(())
    }

    fn rollback(&mut self) {
        self.scratch.base.writes.release_locks();
    }

    /// Fold the current elastic window into the base read set: the wait
    /// path parks on the full footprint of the aborted attempt. The
    /// windows of enclosing (sub)transactions, parked in nesting frames an
    /// aborting child popped, were already folded in by
    /// [`child_abort`](Transaction::child_abort).
    fn wait_set(&mut self) -> &ReadSet<'env> {
        self.window.drain_into(&mut self.scratch.base.reads);
        &self.scratch.base.reads
    }
}

impl<'env> OeTxn<'env> {
    pub(crate) fn begin(stm: &'env OeStm, kind: TxKind) -> Self {
        Self {
            stm,
            rv: 0,
            start: 0,
            linked: false,
            at: Attempt::new(&stm.inst),
            scratch: OeScratch::acquire(),
            window: Window::new(),
            top_kind: kind,
            mode: kind,
            hardened: kind == TxKind::Regular,
            elastic: kind == TxKind::Elastic,
        }
    }

    /// The snapshot time of this attempt (diagnostics/tests).
    #[must_use]
    pub fn snapshot_time(&self) -> u64 {
        self.rv
    }

    /// Number of reads currently protected (read set + window). This is
    /// the size of the transaction's protected set minus its writes.
    #[must_use]
    pub fn protected_reads(&self) -> usize {
        self.scratch.base.reads.len() + self.window.len()
    }

    fn validate_all_reads(&self) -> bool {
        self.scratch.base.reads.validate(self.at.owner(), |lock| {
            self.scratch.base.writes.locked_version_of(lock)
        }) && self.window.validate()
    }

    /// Move the snapshot forward to cover `target` (the observed version of
    /// the location that triggered the advance), requiring every currently
    /// protected read to still be valid. In elastic (non-hardened) mode
    /// this is the *elastic cut*: earlier prefix reads already slid out of
    /// the window, so their conflicts are ignored — the defining relaxation
    /// of the model. In hardened/regular mode it is a classic lazy
    /// snapshot extension.
    ///
    /// Validating now proves consistency up to at least `target` (that
    /// version is already published), so the advance never re-reads the
    /// contended global clock line.
    fn advance_snapshot(&mut self, target: u64) -> Result<(), Abort> {
        if self.linked {
            link::check_age(self.start, target)?;
        }
        if !self.validate_all_reads() {
            let reason = if self.hardened {
                AbortReason::ExtensionFailed
            } else {
                AbortReason::ElasticCut
            };
            return Err(Abort::new(reason));
        }
        self.rv = target;
        if self.hardened {
            self.stm.inst.stats.record_extension();
        } else {
            self.stm.inst.stats.record_elastic_cut();
        }
        Ok(())
    }

    /// Protect an un-hardened elastic read through the sliding window and
    /// run E-STM's per-read check: the immediate past reads (the remaining
    /// window) must still be valid, so every *consecutive pair* of reads
    /// is consistent — the property elastic traversals rely on. The
    /// just-pushed entry is fresh by construction. Returns the read the
    /// push released, if the window was full.
    #[inline]
    fn protect_elastic(
        &mut self,
        lock: &'env VLock,
        seen: u64,
    ) -> Result<Option<ReadEntry<'env>>, Abort> {
        let evicted = self.window.push(lock, seen);
        if self.window.validate_previous() {
            Ok(evicted)
        } else {
            Err(elastic_cut())
        }
    }

    /// One transactional read, with an inlined one-pass head for the
    /// reads that need nothing but the location: nothing buffered, no
    /// tracer armed, and the location unlocked at or below the snapshot.
    /// The head loads the protection word once and tests it with one
    /// compare (`raw <= rv` for a `TVar`, which rejects a locked word and a
    /// newer version at once); a `TVar` then loads its value and checks the
    /// word did not move, while a link's word already is its value. The
    /// elastic head is the whole cost of a step of an elastic traversal:
    /// that pass, its window slot and the check of the previous read. The
    /// regular head (hardened: a regular transaction, or an elastic one
    /// past its first write) is one read-set entry, when the read set has
    /// room for it: growing is a call, and a call in the head would make
    /// every read save the registers it clobbers. Every other read — and a
    /// head read that met a lock, a moving word, a version past the
    /// snapshot or a full read set, of which nothing was recorded — is
    /// done from the start by [`read_tail`](Self::read_tail).
    #[inline]
    fn read_core(&mut self, loc: Loc<'env>) -> Result<u64, Abort> {
        if self.scratch.base.writes.is_empty() && self.at.tracer().is_none() {
            if let Some((word, seen)) = loc.read_within(self.rv) {
                if !self.hardened {
                    return self.protect_elastic(loc.lock(), seen).map(|_| word);
                }
                if self.scratch.base.reads.try_push(loc, seen) {
                    return Ok(word);
                }
            }
        }
        self.read_tail(loc)
    }

    #[inline(never)]
    fn read_tail(&mut self, loc: Loc<'env>) -> Result<u64, Abort> {
        if let Some(word) = self.scratch.base.writes.lookup(loc) {
            if let Some(t) = self.at.tracer() {
                t.op_held(loc.id(), TraceOp::Read(word));
            }
            return Ok(word);
        }
        let mut advances = 0u32;
        let mut spins = 0u32;
        loop {
            match loc.read_consistent() {
                Ok((word, seen)) => {
                    let clock = &self.stm.inst.clock;
                    if let Some(version) = loc.newer(seen, self.rv, || clock.now()) {
                        advances += 1;
                        if advances > MAX_ADVANCE_ATTEMPTS {
                            return Err(Abort::new(AbortReason::ReadValidation));
                        }
                        self.advance_snapshot(version)?;
                        // Re-read: the location may have changed between the
                        // consistent read and the snapshot advance.
                        continue;
                    }
                    if self.hardened {
                        self.scratch.base.reads.push(loc, seen);
                    } else {
                        // Elastic read-only prefix: the evicted read is
                        // released. (A failed check aborts the attempt and
                        // the tracer discards an aborted attempt's pending
                        // releases, so it need not hear of that eviction.)
                        let evicted = self.protect_elastic(loc.lock(), seen)?;
                        if let (Some(t), Some(e)) = (self.at.tracer(), evicted) {
                            t.drop_hold(e.id());
                        }
                    }
                    if let Some(t) = self.at.tracer() {
                        t.op(loc.id(), TraceOp::Read(word));
                    }
                    return Ok(word);
                }
                Err(ReadConflict::Locked(owner)) if Some(owner) != self.at.owner() => {
                    spins += 1;
                    if spins > stm_core::cm::LOCK_SPIN_LIMIT {
                        return Err(Abort::new(AbortReason::LockConflict));
                    }
                    core::hint::spin_loop();
                }
                Err(ReadConflict::Locked(_)) => {
                    // Locked by ourselves without a write-set entry cannot
                    // happen (lazy write-back only locks at commit).
                    unreachable!("self-locked location outside commit");
                }
                Err(ReadConflict::Unstable) => {
                    return Err(Abort::new(AbortReason::UnstableRead));
                }
            }
        }
    }

    fn write_core(&mut self, loc: Loc<'env>, word: u64) -> Result<(), Abort> {
        if self.mode == TxKind::Elastic && !self.hardened {
            // First write: the transaction hardens. The immediate past
            // reads (the window) become permanently tracked — they are the
            // r_k..r_n prefix boundary of the minimal protected set.
            self.hardened = true;
            self.window.drain_into(&mut self.scratch.base.reads);
        }
        let first_touch = self.scratch.base.writes.insert(loc, word);
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

impl<'env> Transaction<'env> for OeTxn<'env> {
    #[inline]
    fn read_word(&mut self, core: &'env TVarCore) -> Result<u64, Abort> {
        self.read_core(Loc::Var(core))
    }

    fn write_word(&mut self, core: &'env TVarCore, word: u64) -> Result<(), Abort> {
        self.write_core(Loc::Var(core), word)
    }

    #[inline]
    fn read_link(&mut self, link: &'env Link) -> Result<u64, Abort> {
        self.linked = true;
        self.read_core(Loc::Link(link))
    }

    fn write_link(&mut self, link: &'env Link, payload: u64) -> Result<(), Abort> {
        self.write_core(Loc::Link(link), payload)
    }

    /// Composition, begin half. The child runs as its own (sub)transaction
    /// of the given kind against this same object; the parent's mode,
    /// hardening flag and window are parked in a `Frame` until
    /// [`child_commit`](Transaction::child_commit).
    fn child_enter(&mut self, kind: TxKind) -> Result<(), Abort> {
        self.scratch.push_frame(Frame {
            saved_mode: self.mode,
            saved_hardened: self.hardened,
            saved_window: core::mem::replace(&mut self.window, Window::new()),
            read_mark: self.scratch.base.reads.len(),
        });
        self.mode = kind;
        self.hardened = kind == TxKind::Regular;
        self.elastic |= !self.hardened;
        self.at.child_enter();
        Ok(())
    }

    /// Composition, commit half. What happens to the child's protected set
    /// here is the paper's crux:
    ///
    /// * **Outheritance enabled** (OE-STM, the default): `outherit()` — the
    ///   child's window remnants join the parent's read set, and its reads
    ///   and writes stay in the parent's sets, protected until the
    ///   top-level commit (Fig. 4).
    /// * **Outheritance disabled** (E-STM compatibility mode): the child's
    ///   accesses are validated at child commit and then *released* —
    ///   reproducing the Fig. 1 composition bug that motivates the paper.
    fn child_commit(&mut self) -> Result<(), Abort> {
        let frame = self
            .scratch
            .frames
            .pop()
            .expect("child_commit without child_enter");
        if self.stm.outheritance() {
            // outherit(): pass the child's protected set to the
            // parent. Reads and writes already accumulated in the
            // shared sets; the window remnants (the child's
            // last-read entries) are folded into the read set so
            // they stay protected until the parent commits.
            self.window.drain_into(&mut self.scratch.base.reads);
            self.stm.inst.stats.record_outherit();
            self.at.child_commit();
        } else if self.mode == TxKind::Regular {
            // E-STM with a *regular* child: flat nesting. A classic
            // child's accesses stay in the parent's sets until the
            // top-level commit — this is the workaround the elastic
            // transactions paper recommends ("use regular mode when
            // composing"), safe but paying classic-conflict aborts.
            self.at.child_commit();
        } else {
            // E-STM child commit: check the child's access sequence
            // is atomic as of now, then release its protection
            // (the releases follow the child's commit event, as in
            // the model).
            let ok =
                self.scratch
                    .base
                    .reads
                    .validate_suffix(frame.read_mark, self.at.owner(), |lock| {
                        self.scratch.base.writes.locked_version_of(lock)
                    })
                    && self.window.validate();
            if !ok {
                return Err(Abort::new(AbortReason::ReadValidation));
            }
            let child_id = self.at.child_commit();
            if let (Some(t), Some(child_id)) = (self.at.tracer(), child_id) {
                for e in self.scratch.base.reads.iter().skip(frame.read_mark) {
                    t.drop_hold_as(child_id, e.id());
                }
                for e in self.window.iter() {
                    t.drop_hold_as(child_id, e.id());
                }
            }
            self.scratch.base.reads.truncate(frame.read_mark);
            self.window.clear();
        }
        self.mode = frame.saved_mode;
        self.hardened = frame.saved_hardened;
        self.window = frame.saved_window;
        Ok(())
    }

    /// Composition, abort half: a child abort aborts the whole attempt
    /// (the retry loop re-runs the top-level transaction from scratch), so
    /// only the nesting bookkeeping is unwound here. The enclosing
    /// transaction's window, parked in the popped frame, joins the read
    /// set: it is part of what the aborted attempt read, so a `retry()` in
    /// the child must also wake on a commit to it (the child's own window
    /// is folded in by [`wait_set`](TxnEngine::wait_set)).
    fn child_abort(&mut self) {
        let mut frame = self
            .scratch
            .frames
            .pop()
            .expect("child_abort without child_enter");
        frame.saved_window.drain_into(&mut self.scratch.base.reads);
        self.at.child_abort();
    }

    fn kind(&self) -> TxKind {
        self.mode
    }

    fn abstract_log(&mut self) -> AbstractLog<'_, 'env> {
        self.at.abstract_log()
    }
}

#[cfg(test)]
mod tests {
    //! The read path, scripted: every case runs once through the inlined
    //! head (no tracer) and once through the tail (a trace sink armed) and
    //! must be indistinguishable from outside.

    use super::*;
    use core::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use stm_core::scratch::HEAD;
    use stm_core::trace::{TraceSink, TraceStamp};
    use stm_core::{StatsSnapshot, Stm, StmConfig, TVar};

    /// A sink that only counts operations — enough to arm the tracer and
    /// to prove it was armed.
    #[derive(Default)]
    struct CountingSink(AtomicU64);

    impl TraceSink for CountingSink {
        fn begin(&self, _: TraceStamp, _: u64, _: u64) {}
        fn op(&self, _: u64, _: u64, _: usize, _: TraceOp) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
        fn acquire(&self, _: u64, _: u64, _: usize) {}
        fn release(&self, _: u64, _: u64, _: usize) {}
        fn commit(&self, _: u64, _: u64) {}
        fn abort(&self, _: u64, _: u64) {}
    }

    /// Everything a script lets the outside see.
    #[derive(Debug, PartialEq, Default)]
    struct Outcome {
        /// Words returned by the reads of the committing attempt.
        words: Vec<u64>,
        /// `protected_reads()` after each of those reads.
        protected: Vec<usize>,
        /// The abort the first attempt was scripted into, if any.
        abort: Option<AbortReason>,
        /// Snapshot advance across the read of interest, as `after - before`.
        advanced_by: u64,
        stats: StatsSnapshot,
    }

    const FOREIGN_TICKET: u64 = u64::MAX >> 2;

    /// Run `script` against an untraced and a traced instance, require the
    /// two outcomes to be equal, and hand back the common one.
    fn both_paths(script: impl Fn(&OeStm) -> Outcome) -> Outcome {
        let head = script(&OeStm::new());
        let sink = Arc::new(CountingSink::default());
        let traced = OeStm::with_config(StmConfig::default().with_trace_sink(sink.clone()));
        let tail = script(&traced);
        assert!(sink.0.load(Ordering::Relaxed) > 0, "the tracer was armed");
        assert_eq!(head, tail, "head and tail must be indistinguishable");
        head
    }

    fn read_logged<'env>(
        tx: &mut OeTxn<'env>,
        var: &'env TVar<u64>,
        out: &mut Outcome,
    ) -> Result<u64, Abort> {
        let word = tx.read_word(var.core())?;
        out.words.push(word);
        out.protected.push(tx.protected_reads());
        Ok(word)
    }

    fn read_link_logged<'env>(
        tx: &mut OeTxn<'env>,
        link: &'env Link,
        out: &mut Outcome,
    ) -> Result<u64, Abort> {
        let word = tx.read_link(link)?;
        out.words.push(word);
        out.protected.push(tx.protected_reads());
        Ok(word)
    }

    #[test]
    fn plain_elastic_walk() {
        let out = both_paths(|stm| {
            let vars: Vec<TVar<u64>> = (10..16).map(TVar::new).collect();
            let mut out = Outcome::default();
            stm.run(TxKind::Elastic, |tx| {
                for v in &vars {
                    read_logged(tx, v, &mut out)?;
                }
                Ok(())
            });
            out.stats = stm.stats();
            out
        });
        assert_eq!(out.words, vec![10, 11, 12, 13, 14, 15]);
        assert_eq!(out.protected, vec![1, 2, 2, 2, 2, 2], "a two-slot window");
        assert_eq!((out.stats.commits, out.stats.aborts()), (1, 0));
        assert_eq!(out.stats.elastic_cuts, 0);
    }

    #[test]
    fn overwritten_previous_read_cuts() {
        let out = both_paths(|stm| {
            let (a, b) = (TVar::new(1u64), TVar::new(2u64));
            let mut out = Outcome::default();
            let mut sabotage = true;
            stm.run(TxKind::Elastic, |tx| {
                out.words.clear();
                out.protected.clear();
                read_logged(tx, &a, &mut out)?;
                if sabotage {
                    sabotage = false;
                    a.store_atomic(7, stm.clock().tick());
                    let cut = read_logged(tx, &b, &mut out).expect_err("a is still windowed");
                    out.abort = Some(cut.reason);
                    return Err(cut);
                }
                read_logged(tx, &b, &mut out)?;
                Ok(())
            });
            out.stats = stm.stats();
            out
        });
        assert_eq!(out.abort, Some(AbortReason::ElasticCut));
        assert_eq!(out.words, vec![7, 2]);
        assert_eq!(out.protected, vec![1, 2]);
        assert_eq!(out.stats.commits, 1);
        assert_eq!(
            out.stats.aborts_by_cause[AbortReason::ElasticCut.index()],
            1
        );
        assert_eq!(
            out.stats.elastic_cuts, 0,
            "a failed cut is an abort, not a cut"
        );
    }

    #[test]
    fn newer_location_advances_the_snapshot_once() {
        let out = both_paths(|stm| {
            let (a, c) = (TVar::new(1u64), TVar::new(2u64));
            let mut out = Outcome::default();
            stm.run(TxKind::Elastic, |tx| {
                read_logged(tx, &a, &mut out)?;
                let before = tx.snapshot_time();
                c.store_atomic(9, stm.clock().tick());
                read_logged(tx, &c, &mut out)?;
                out.advanced_by = tx.snapshot_time() - before;
                Ok(())
            });
            out.stats = stm.stats();
            out
        });
        assert_eq!(out.words, vec![1, 9]);
        assert_eq!(out.protected, vec![1, 2]);
        assert_eq!(out.advanced_by, 1, "rv moved to c's version");
        assert_eq!((out.stats.commits, out.stats.aborts()), (1, 0));
        assert_eq!(out.stats.elastic_cuts, 1);
    }

    #[test]
    fn foreign_lock_is_a_lock_conflict_after_the_spin_limit() {
        let out = both_paths(|stm| {
            let (a, l) = (TVar::new(1u64), TVar::new(2u64));
            assert!(l.core().lock().try_lock_at(0, FOREIGN_TICKET));
            let mut out = Outcome::default();
            let mut locked = true;
            stm.run(TxKind::Elastic, |tx| {
                out.words.clear();
                out.protected.clear();
                read_logged(tx, &a, &mut out)?;
                if locked {
                    locked = false;
                    let conflict = read_logged(tx, &l, &mut out).expect_err("l is locked");
                    out.abort = Some(conflict.reason);
                    l.core().lock().unlock_to(0);
                    return Err(conflict);
                }
                read_logged(tx, &l, &mut out)?;
                Ok(())
            });
            out.stats = stm.stats();
            out
        });
        assert_eq!(out.abort, Some(AbortReason::LockConflict));
        assert_eq!(out.words, vec![1, 2]);
        assert_eq!(out.stats.commits, 1);
        assert_eq!(
            out.stats.aborts_by_cause[AbortReason::LockConflict.index()],
            1
        );
    }

    /// The case the head's `writes.is_empty()` gate exists for: the child
    /// is elastic and has not written, so it is un-hardened — but the
    /// location it reads is buffered in the write set it shares with its
    /// parent, and memory still holds the old value.
    #[test]
    fn unhardened_child_reads_its_parents_buffered_write() {
        let out = both_paths(|stm| {
            let (x, y) = (TVar::new(1u64), TVar::new(2u64));
            let mut out = Outcome::default();
            stm.run(TxKind::Elastic, |tx| {
                tx.write(&x, 42)?;
                tx.child(TxKind::Elastic, |tx| {
                    read_logged(tx, &x, &mut out)?;
                    read_logged(tx, &y, &mut out)?;
                    Ok(())
                })
            });
            out.stats = stm.stats();
            assert_eq!(x.load_atomic(), 42);
            out
        });
        assert_eq!(out.words, vec![42, 2], "the buffered value, not memory's");
        assert_eq!(out.protected, vec![0, 1], "a buffered hit protects nothing");
        assert_eq!((out.stats.commits, out.stats.child_commits), (1, 1));
        assert_eq!(out.stats.aborts(), 0);
    }

    #[test]
    fn plain_regular_walk() {
        let out = both_paths(|stm| {
            let vars: Vec<TVar<u64>> = (10..16).map(TVar::new).collect();
            let mut out = Outcome::default();
            stm.run(TxKind::Regular, |tx| {
                for v in &vars {
                    read_logged(tx, v, &mut out)?;
                }
                Ok(())
            });
            out.stats = stm.stats();
            out
        });
        assert_eq!(out.words, vec![10, 11, 12, 13, 14, 15]);
        assert_eq!(
            out.protected,
            vec![1, 2, 3, 4, 5, 6],
            "every read is logged"
        );
        assert_eq!((out.stats.commits, out.stats.aborts()), (1, 0));
        assert_eq!(out.stats.extensions, 0);
    }

    #[test]
    fn newer_location_extends_a_regular_snapshot() {
        let out = both_paths(|stm| {
            let (a, c) = (TVar::new(1u64), TVar::new(2u64));
            let mut out = Outcome::default();
            stm.run(TxKind::Regular, |tx| {
                read_logged(tx, &a, &mut out)?;
                let before = tx.snapshot_time();
                c.store_atomic(9, stm.clock().tick());
                read_logged(tx, &c, &mut out)?;
                out.advanced_by = tx.snapshot_time() - before;
                Ok(())
            });
            out.stats = stm.stats();
            out
        });
        assert_eq!(out.words, vec![1, 9]);
        assert_eq!(out.protected, vec![1, 2]);
        assert_eq!(out.advanced_by, 1, "rv moved to c's version");
        assert_eq!((out.stats.commits, out.stats.aborts()), (1, 0));
        assert_eq!((out.stats.extensions, out.stats.elastic_cuts), (1, 0));
    }

    #[test]
    fn foreign_lock_stops_a_regular_read_after_the_spin_limit() {
        let out = both_paths(|stm| {
            let (a, l) = (TVar::new(1u64), TVar::new(2u64));
            assert!(l.core().lock().try_lock_at(0, FOREIGN_TICKET));
            let mut out = Outcome::default();
            let mut locked = true;
            stm.run(TxKind::Regular, |tx| {
                out.words.clear();
                out.protected.clear();
                read_logged(tx, &a, &mut out)?;
                if locked {
                    locked = false;
                    let conflict = read_logged(tx, &l, &mut out).expect_err("l is locked");
                    out.abort = Some(conflict.reason);
                    l.core().lock().unlock_to(0);
                    return Err(conflict);
                }
                read_logged(tx, &l, &mut out)?;
                Ok(())
            });
            out.stats = stm.stats();
            out
        });
        assert_eq!(out.abort, Some(AbortReason::LockConflict));
        assert_eq!(out.words, vec![1, 2]);
        assert_eq!(out.protected, vec![1, 2]);
        assert_eq!(out.stats.commits, 1);
        assert_eq!(
            out.stats.aborts_by_cause[AbortReason::LockConflict.index()],
            1
        );
    }

    /// The case the regular head's `writes.is_empty()` gate exists for: a
    /// hardened transaction reading a location it has buffered a write
    /// to, while memory still holds the old value. The first read gives
    /// the read set room, so the buffered read reaches the head.
    #[test]
    fn regular_read_after_a_buffered_write_sees_the_buffered_value() {
        let out = both_paths(|stm| {
            let (x, y) = (TVar::new(1u64), TVar::new(2u64));
            let mut out = Outcome::default();
            stm.run(TxKind::Regular, |tx| {
                read_logged(tx, &y, &mut out)?;
                tx.write(&x, 42)?;
                read_logged(tx, &x, &mut out)?;
                Ok(())
            });
            out.stats = stm.stats();
            assert_eq!(x.load_atomic(), 42);
            out
        });
        assert_eq!(out.words, vec![2, 42], "the buffered value, not memory's");
        assert_eq!(out.protected, vec![1, 1], "a buffered hit protects nothing");
        assert_eq!((out.stats.commits, out.stats.aborts()), (1, 0));
    }

    #[test]
    fn plain_elastic_link_walk() {
        let out = both_paths(|stm| {
            let links: Vec<Link> = (10..16).map(Link::new).collect();
            let mut out = Outcome::default();
            stm.run(TxKind::Elastic, |tx| {
                for l in &links {
                    read_link_logged(tx, l, &mut out)?;
                }
                Ok(())
            });
            out.stats = stm.stats();
            out
        });
        assert_eq!(out.words, vec![10, 11, 12, 13, 14, 15]);
        assert_eq!(out.protected, vec![1, 2, 2, 2, 2, 2], "a two-slot window");
        assert_eq!((out.stats.commits, out.stats.aborts()), (1, 0));
        assert_eq!(out.stats.elastic_cuts, 0);
    }

    #[test]
    fn overwritten_previous_link_cuts() {
        let out = both_paths(|stm| {
            let (a, b) = (Link::new(1), Link::new(2));
            let mut out = Outcome::default();
            let mut sabotage = true;
            stm.run(TxKind::Elastic, |tx| {
                out.words.clear();
                out.protected.clear();
                read_link_logged(tx, &a, &mut out)?;
                if sabotage {
                    sabotage = false;
                    a.store_atomic(7u64, stm.clock().tick());
                    let cut = read_link_logged(tx, &b, &mut out).expect_err("a is still windowed");
                    out.abort = Some(cut.reason);
                    return Err(cut);
                }
                read_link_logged(tx, &b, &mut out)?;
                Ok(())
            });
            out.stats = stm.stats();
            out
        });
        assert_eq!(out.abort, Some(AbortReason::ElasticCut));
        assert_eq!(out.words, vec![7, 2]);
        assert_eq!(out.protected, vec![1, 2]);
        assert_eq!(out.stats.commits, 1);
        assert_eq!(
            out.stats.aborts_by_cause[AbortReason::ElasticCut.index()],
            1
        );
    }

    #[test]
    fn newer_link_advances_the_snapshot_once() {
        let out = both_paths(|stm| {
            let (a, c) = (Link::new(1), Link::new(2));
            let mut out = Outcome::default();
            stm.run(TxKind::Elastic, |tx| {
                read_link_logged(tx, &a, &mut out)?;
                let before = tx.snapshot_time();
                c.store_atomic(9u64, stm.clock().tick());
                read_link_logged(tx, &c, &mut out)?;
                out.advanced_by = tx.snapshot_time() - before;
                Ok(())
            });
            out.stats = stm.stats();
            out
        });
        assert_eq!(out.words, vec![1, 9]);
        assert_eq!(out.protected, vec![1, 2]);
        assert_eq!(out.advanced_by, 1, "rv moved to c's version");
        assert_eq!((out.stats.commits, out.stats.aborts()), (1, 0));
        assert_eq!(out.stats.elastic_cuts, 1);
    }

    #[test]
    fn foreign_lock_on_a_link_is_a_lock_conflict() {
        let out = both_paths(|stm| {
            let (a, l) = (Link::new(1), Link::new(2));
            let raw = l.lock().raw();
            assert!(l.lock().try_lock_at(raw, FOREIGN_TICKET));
            let mut out = Outcome::default();
            let mut locked = true;
            stm.run(TxKind::Elastic, |tx| {
                out.words.clear();
                out.protected.clear();
                read_link_logged(tx, &a, &mut out)?;
                if locked {
                    locked = false;
                    let conflict = read_link_logged(tx, &l, &mut out).expect_err("l is locked");
                    out.abort = Some(conflict.reason);
                    l.lock().unlock_to(raw);
                    return Err(conflict);
                }
                read_link_logged(tx, &l, &mut out)?;
                Ok(())
            });
            out.stats = stm.stats();
            out
        });
        assert_eq!(out.abort, Some(AbortReason::LockConflict));
        assert_eq!(out.words, vec![1, 2]);
        assert_eq!(out.stats.commits, 1);
        assert_eq!(
            out.stats.aborts_by_cause[AbortReason::LockConflict.index()],
            1
        );
    }

    /// A regular walk and a write over links: every read is logged, and
    /// the written link publishes its payload with the commit version.
    #[test]
    fn regular_link_walk_then_write() {
        let out = both_paths(|stm| {
            let links: Vec<Link> = (10..13).map(Link::new).collect();
            let mut out = Outcome::default();
            stm.run(TxKind::Regular, |tx| {
                for l in &links {
                    read_link_logged(tx, l, &mut out)?;
                }
                tx.write_link(&links[0], 40)?;
                read_link_logged(tx, &links[0], &mut out)?;
                Ok(())
            });
            out.stats = stm.stats();
            assert_eq!(links[0].load_atomic::<u64>(), 40);
            out
        });
        assert_eq!(out.words, vec![10, 11, 12, 40], "the buffered payload");
        assert_eq!(out.protected, vec![1, 2, 3, 3]);
        assert_eq!((out.stats.commits, out.stats.aborts()), (1, 0));
    }

    /// The ids of the read set's entries, in order.
    fn logged_ids(tx: &OeTxn<'_>) -> Vec<usize> {
        tx.scratch.base.reads.iter().map(ReadEntry::id).collect()
    }

    /// An elastic child of an E-STM-compat transaction validates its part
    /// of the read set from the parent's mark at its commit, then drops
    /// it — wherever the mark falls against the read set's in-place head.
    #[test]
    fn estm_child_commit_validates_and_truncates_across_the_head() {
        for parent in [HEAD - 1, HEAD, HEAD + 1] {
            for sabotage in [false, true] {
                let stm = OeStm::estm_compat();
                let vars: Vec<TVar<u64>> = (0..parent as u64 + 4).map(TVar::new).collect();
                let (mine, child) = vars.split_at(parent);
                let mut pending = sabotage;
                stm.run(TxKind::Regular, |tx| {
                    for v in mine {
                        tx.read(v)?;
                    }
                    let before = logged_ids(tx);
                    tx.child(TxKind::Elastic, |tx| {
                        tx.read(&child[0])?;
                        tx.read(&child[1])?;
                        // Hardening logs the window: child[0] lands at
                        // index `parent`, in the head or past it.
                        tx.write(&child[2], 1)?;
                        tx.read(&child[3])?;
                        assert_eq!(tx.protected_reads(), parent + 3);
                        if pending {
                            pending = false;
                            let nv = stm.clock().tick();
                            child[0].store_atomic(5, nv);
                        }
                        Ok(())
                    })?;
                    assert_eq!(logged_ids(tx), before, "the child's reads were released");
                    Ok(())
                });
                let snap = stm.stats();
                let caught = snap.aborts_by_cause[AbortReason::ReadValidation.index()];
                assert_eq!(
                    (snap.commits, snap.aborts(), caught),
                    (1, u64::from(sabotage), u64::from(sabotage)),
                    "{parent} parent reads, sabotage {sabotage}"
                );
            }
        }
    }

    /// A child abort folds the enclosing elastic transaction's parked
    /// window into the read set behind what it already logged, across the
    /// read set's in-place head.
    #[test]
    fn a_child_abort_folds_the_parked_window_across_the_head() {
        for logged in [HEAD - 1, HEAD, HEAD + 1] {
            let stm = OeStm::new();
            let vars: Vec<TVar<u64>> = (0..logged as u64 + 3).map(TVar::new).collect();
            let (regular, rest) = vars.split_at(logged);
            let mut first = true;
            stm.run(TxKind::Elastic, |tx| {
                // A regular child's reads stay logged (outheritance), and
                // the parent's next two reads live in its window.
                tx.child(TxKind::Regular, |tx| {
                    for v in regular {
                        tx.read(v)?;
                    }
                    Ok(())
                })?;
                tx.read(&rest[0])?;
                tx.read(&rest[1])?;
                assert_eq!(tx.protected_reads(), logged + 2);
                if !first {
                    return Ok(());
                }
                first = false;
                let aborted = tx.child(TxKind::Elastic, |tx| {
                    tx.read(&rest[2])?;
                    Err::<(), _>(Abort::new(AbortReason::Explicit))
                });
                let folded: Vec<usize> = regular
                    .iter()
                    .chain(&rest[..2])
                    .map(|v| v.core().id())
                    .collect();
                assert_eq!(logged_ids(tx), folded, "{logged} logged reads");
                assert_eq!(tx.protected_reads(), logged + 3, "and the child's window");
                aborted
            });
            let snap = stm.stats();
            assert_eq!((snap.commits, snap.aborts()), (1, 1));
        }
    }
}
