// lint:hot-path
//! The one transaction driver: everything the word backends share around
//! their algorithm.
//!
//! A backend implements [`TxnEngine`] — begin (`restart`), the
//! `Transaction` reads and writes, lock/stamp/validate (`try_commit`),
//! undo (`rollback`) and what it read (`wait_set`) — and nothing else.
//! This module owns the rest, once:
//!
//! * [`Attempt`] — the per-attempt state every backend carries (ticket,
//!   drawn on first need; child depth, tracer, the abstract-lock log of
//!   [`Boosted`] objects) with the common begin prelude and child
//!   bookkeeping;
//! * [`Attempt::publish`] — the commit tail, i.e. the *order* of commit
//!   hook (stage) → waiter notification → write-back/release (word
//!   locks, then abstract locks) → trace commit event → durability
//!   await;
//! * [`run`] — the retry/wait/park policy: which failures park on the
//!   read set, which are charged and paced, when the run gives up, and
//!   what a body that panics leaves behind (nothing: it is rolled back);
//! * `short_read` and `short_update_each` — the short operations on
//!   [`OptionWord`]s, which [`Atomic`](crate::Atomic) runs for every
//!   backend: a double collect of their words, and for an update a TL2
//!   commit on them: the words it stores locked under [`SHORT_OWNER`] at
//!   the version collected, one commit stamp, a validation of the words
//!   it only read, and the same [`Attempt::publish`] tail. A one-key
//!   update is its case of one word, a txkv MULTI its case of up to
//!   [`SHORT_CAPACITY`]. What they cannot serve they hand back, and the
//!   runner runs it as a regular transaction. They need only the word
//!   protocol every [`TxnEngine`] keeps.
//!
//! The xtask `commit-tail` lint keeps it that way: firing the commit
//! hook, `wait::notify_commit` and `wait::wait_for_locations` are allowed
//! in this file only.

use crate::backoff::Backoff;
use crate::cm::{self, PROGRESS_PARK_AFTER};
use crate::error::{Abort, AbortReason};
use crate::hook::{InstalledHook, WriteRecord};
use crate::readset::{ReadEntry, ReadSet};
use crate::scratch::{give_back, SpareVec, VACANT};
use crate::stm::{Instance, OptionWord, RunError, Transaction};
use crate::ticket::{next_ticket, SHORT_OWNER};
use crate::trace::{AttemptTracer, TraceOp};
use crate::tvar::TVarCore;
use crate::vlock::{LockState, VLock};
use crate::wait;
use core::any::Any;
use core::cell::Cell;
use core::sync::atomic::{AtomicU64, Ordering};
use std::panic::{self, AssertUnwindSafe};

/// The per-attempt state common to every backend, restarted in place for
/// each attempt of one `run` call.
#[derive(Debug)]
pub struct Attempt<'env> {
    inst: &'env Instance,
    /// The attempt's ticket, 0 until something needs one (a `Cell`, so
    /// a draw needs only a shared borrow of the attempt).
    ticket: Cell<u64>,
    depth: u32,
    /// Whether a child committed during this attempt (see
    /// [`read_only_commit`](Self::read_only_commit)).
    composed: bool,
    tracer: Option<Box<AttemptTracer>>,
    /// The abstract locks this attempt holds and the compensations of the
    /// updates it applied under them, oldest first (see [`Boosted`]).
    boosted: Vec<AbstractEntry<'env>>,
}

/// An object guarded by abstract locks: transactional boosting's
/// linearizable black box (Herlihy & Koskinen, PPoPP 2008), a client of
/// whatever host transaction runs it. Each operation takes a per-key
/// abstract lock of the object's own, applies in place, and logs the lock
/// and the update's compensation through the host's
/// [`Transaction::abstract_log`]. The driver owns the rest of the log's
/// life:
///
/// * at rollback — a conflict, a panic, a `retry()` about to park — it
///   replays the compensations newest first and releases the locks;
/// * at top-level commit it releases the locks in the host's
///   [`publish`](Attempt::publish), right after the word locks (step 3),
///   so a boosted key is never held across a durability await;
/// * a committing child leaves the log alone, so the child's locks and
///   compensations pass to its parent. That is outheritance, which the
///   paper's §VIII says makes boosting compose.
pub trait Boosted: core::fmt::Debug + Sync {
    /// Release the lock on `key` that `owner` holds.
    fn release(&self, key: i64, owner: u64);
    /// Undo an update of `key` applied in place; `undo` is the word its
    /// operation logged.
    fn compensate(&self, key: i64, undo: u64);
}

/// One entry of an attempt's abstract-lock log.
#[derive(Debug)]
struct AbstractEntry<'env> {
    object: &'env dyn Boosted,
    key: i64,
    /// Whether this entry took the key's lock, and so releases it.
    locked: bool,
    /// The compensation replayed at rollback, when the entry updated.
    undo: Option<u64>,
}

thread_local! {
    /// The abstract-lock log's allocation between runs.
    static BOOSTED_SPARE: SpareVec<AbstractEntry<'static>> = const { SpareVec::new() };
}

/// What a [`Boosted`] object may do with its host attempt: take the
/// attempt's ticket as its lock-owner identity and append to the
/// abstract-lock log. Nothing else of the [`Attempt`] is reachable from a
/// transaction body.
#[derive(Debug)]
pub struct AbstractLog<'a, 'env> {
    at: &'a mut Attempt<'env>,
}

impl<'env> AbstractLog<'_, 'env> {
    /// The attempt's ticket, drawn on first need (see [`Attempt::ticket`]).
    #[inline]
    #[must_use]
    pub fn ticket(&self) -> u64 {
        self.at.ticket()
    }

    /// Whether the body runs inside a child transaction.
    #[inline]
    #[must_use]
    pub fn in_child(&self) -> bool {
        self.at.depth > 0
    }

    /// Log that this attempt took `key`'s abstract lock in `object`
    /// (`locked`) and/or applied an update in place that
    /// `object.compensate(key, undo)` reverts. An attempt's first entry
    /// fetches the thread's spare allocation, and ending the attempt hands
    /// it back, so an attempt that logs nothing touches neither.
    #[inline]
    pub fn log(&mut self, object: &'env dyn Boosted, key: i64, locked: bool, undo: Option<u64>) {
        let log = &mut self.at.boosted;
        if log.capacity() == 0 {
            *log = BOOSTED_SPARE.with(SpareVec::take);
        }
        log.push(AbstractEntry {
            object,
            key,
            locked,
            undo,
        });
    }

    /// The number of entries in the log.
    #[doc(hidden)]
    #[must_use]
    pub fn entries(&self) -> usize {
        self.at.boosted.len()
    }
}

impl<'env> Attempt<'env> {
    /// State for one `run` call against an STM instance's configuration
    /// and counters. Draws no ticket.
    #[inline]
    #[must_use]
    pub fn new(inst: &'env Instance) -> Self {
        Self {
            inst,
            ticket: Cell::new(0),
            depth: 0,
            composed: false,
            tracer: None,
            boosted: Vec::new(),
        }
    }

    /// Begin an attempt: no ticket yet, re-armed tracer. The tracer
    /// reserves the attempt's begin stamp, so this runs *before* the
    /// backend samples its snapshot (see `trace` on event stamping). An
    /// armed tracer draws the ticket here: it doubles as the tracer's
    /// top-level transaction id. Without a sink the tracer stays the
    /// `None` that [`new`](Self::new) stored: reassigning it would first
    /// load the old value to drop it, right behind `new`'s stores.
    #[inline]
    fn restart(&mut self) {
        self.ticket.set(0);
        if let Some(sink) = &self.inst.config.trace {
            let tracer = AttemptTracer::begin_top(sink.clone(), self.ticket());
            self.tracer = Some(Box::new(tracer)); // lint:allow — tracing arm, off by default
        }
        self.depth = 0;
        self.composed = false;
        debug_assert!(
            self.boosted.is_empty(),
            "abstract locks outlived an attempt"
        );
    }

    /// This attempt's globally unique ticket (lock-owner identity), drawn
    /// from the process-wide counter the first time anything asks: lock
    /// acquisition, an armed tracer. A read-only attempt never draws one.
    #[inline]
    #[must_use]
    pub fn ticket(&self) -> u64 {
        match self.ticket.get() {
            0 => self.draw_ticket(),
            t => t,
        }
    }

    #[cold]
    #[inline(never)]
    fn draw_ticket(&self) -> u64 {
        let t = next_ticket().get();
        self.ticket.set(t);
        t
    }

    /// The ticket, if this attempt has drawn one — the identity every
    /// self-ownership test compares a lock owner against. An attempt
    /// without a ticket holds no lock, so `None` matches nothing.
    #[inline]
    #[must_use]
    pub fn owner(&self) -> Option<u64> {
        match self.ticket.get() {
            0 => None,
            t => Some(t),
        }
    }

    /// The attempt's tracer, when a trace sink is configured.
    #[inline]
    pub fn tracer(&mut self) -> Option<&mut AttemptTracer> {
        self.tracer.as_deref_mut()
    }

    /// Enter a child transaction (bookkeeping only).
    #[inline]
    pub fn child_enter(&mut self) {
        self.depth += 1;
        if let Some(t) = self.tracer.as_mut() {
            t.begin_child(next_ticket().get());
        }
    }

    /// Commit the innermost child. Its abstract locks and compensations
    /// stay in the attempt's log (outheritance). Returns the transaction
    /// id follow-up releases belong to, when tracing.
    #[inline]
    pub fn child_commit(&mut self) -> Option<u64> {
        self.depth -= 1;
        self.composed = true;
        self.inst.stats.record_child_commit();
        self.tracer.as_mut().map(|t| t.commit_child())
    }

    /// The handle a client of this attempt — a [`Boosted`] object — logs
    /// through. Backends return it from [`Transaction::abstract_log`].
    #[inline]
    pub fn abstract_log(&mut self) -> AbstractLog<'_, 'env> {
        AbstractLog { at: self }
    }

    /// Release every abstract lock the attempt holds: its top-level commit.
    #[inline]
    fn release_abstract(&mut self) {
        if !self.boosted.is_empty() {
            self.release_abstract_locks();
        }
    }

    #[cold]
    #[inline(never)]
    fn release_abstract_locks(&mut self) {
        let owner = self.ticket.get();
        for entry in self.boosted.drain(..).filter(|e| e.locked) {
            entry.object.release(entry.key, owner);
        }
        give_back(&BOOSTED_SPARE, core::mem::take(&mut self.boosted));
    }

    /// Roll the abstract-lock log back: compensations newest first, then
    /// every lock released.
    fn undo_abstract(&mut self) {
        for entry in self.boosted.iter().rev() {
            if let Some(undo) = entry.undo {
                entry.object.compensate(entry.key, undo);
            }
        }
        self.release_abstract();
    }

    /// The check a lazy backend's read-only commit makes; `reads_hold`
    /// validates everything the attempt read. An attempt that did not
    /// compose skips it: each read was consistent with its snapshot, so
    /// the transaction serializes there. A composition is several model
    /// transactions, though, and outheritance (Definition 4.1) keeps
    /// every child's protected set protected until the *parent* commits:
    /// a later child can begin after a commit that overwrote what an
    /// earlier child read, and only a validation at the parent's commit
    /// shows no such commit happened. An attempt holding abstract locks
    /// validates too: its boosted operations serialize while their locks
    /// are held, which is at its commit, not at its snapshot.
    ///
    /// # Errors
    /// [`AbortReason::ReadValidation`] when a child committed during this
    /// attempt, or it holds an abstract lock, and `reads_hold` fails.
    #[inline]
    pub fn read_only_commit(&self, reads_hold: impl FnOnce() -> bool) -> Result<(), Abort> {
        if (self.composed || !self.boosted.is_empty()) && !reads_hold() {
            return Err(Abort::new(AbortReason::ReadValidation));
        }
        Ok(())
    }

    /// Give up a short operation before its commit: the tracer withdraws
    /// its events, as an aborted attempt's are.
    #[cold]
    fn abandon(&mut self) {
        if let Some(t) = self.tracer() {
            t.abort_all();
        }
    }

    /// Unwind the innermost child after its body aborted.
    #[inline]
    pub fn child_abort(&mut self) {
        self.depth -= 1;
        if let Some(t) = self.tracer.as_mut() {
            t.abort_child();
        }
    }

    /// The commit tail. Call with the attempt past its point of no return
    /// — validated, every write lock held — and `set` describing the
    /// `len` committed writes: `each` feeds their `(location, word)` pairs
    /// to a visitor (repeatably), `release` writes back / unlocks at
    /// `version`, and `observed` bounds what the attempt read: the highest
    /// version among the words it observed, `u64::MAX` when the backend
    /// cannot tell. The order is the contract:
    ///
    /// 1. the commit hook stages the writes *under the locks*, so
    ///    per-location hook order equals commit order (see `hook`);
    /// 2. waiters parked on a written location are woken, still under the
    ///    locks, so notify order is commit order too (see `wait`);
    /// 3. `release` publishes the writes and drops every lock, and then
    ///    the attempt's abstract locks are released;
    /// 4. only then is the trace commit event stamped, so any transaction
    ///    beginning after it observes the writes (see `trace`);
    /// 5. last, with nothing held, the commit awaits durability: the
    ///    record its hook staged, or — when it staged nothing — every
    ///    record it could have observed (see `hook`). `observed` is only
    ///    called here, with a hook installed.
    ///
    /// A read-only commit (`len == 0`) fires neither hook nor notify.
    #[inline]
    pub fn publish<S: ?Sized>(
        &mut self,
        version: u64,
        set: &mut S,
        len: usize,
        each: impl Fn(&S, &mut dyn FnMut(usize, u64)),
        release: impl FnOnce(&mut S),
        observed: impl FnOnce(&S) -> u64,
    ) {
        debug_assert_eq!(self.depth, 0, "commit with an open child");
        match self.inst.config.commit_hook.as_deref() {
            None => self.notify_release(set, len, each, release),
            Some(hook) => self.publish_hooked(hook, version, set, len, each, release, observed),
        }
    }

    /// [`publish`](Self::publish) with a commit hook installed: step 1
    /// before the shared steps 2–4, step 5 after them. Kept out of line so
    /// the hookless tail stays one branch.
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn publish_hooked<S: ?Sized>(
        &mut self,
        hook: &InstalledHook,
        version: u64,
        set: &mut S,
        len: usize,
        each: impl Fn(&S, &mut dyn FnMut(usize, u64)),
        release: impl FnOnce(&mut S),
        observed: impl FnOnce(&S) -> u64,
    ) {
        let staged = Cell::new(0);
        if len != 0 {
            let shared = &*set;
            let writes = |f: &mut dyn FnMut(usize, u64)| each(shared, f);
            hook.hook()
                .on_commit(&WriteRecord::new(version, len, &writes).awaited_by(hook, &staged));
        }
        self.notify_release(set, len, &each, release);
        hook.await_durable(staged.get(), || observed(set));
    }

    /// Steps 2–4 of [`publish`](Self::publish): notify, release (the
    /// abstract locks right after the backend's), commit event.
    #[inline]
    fn notify_release<S: ?Sized>(
        &mut self,
        set: &mut S,
        len: usize,
        each: impl Fn(&S, &mut dyn FnMut(usize, u64)),
        release: impl FnOnce(&mut S),
    ) {
        if len != 0 {
            let set = &*set;
            wait::notify_commit(&|f| each(set, &mut |location, _| f(location)));
        }
        release(set);
        self.release_abstract();
        if let Some(t) = self.tracer.as_mut() {
            t.commit_top();
        }
    }
}

/// What a backend's transaction object implements for [`run`]: its
/// algorithm, one attempt at a time. The object lives for the whole run
/// and is restarted in place, so its buffers keep their capacity.
///
/// An engine keeps the **word protocol**: a commit re-versions what it
/// wrote, and an abort restores the pre-lock word (see
/// [`VLock::unlock_to`]); no backend changes a value word except in its
/// commit's write-back. So an unchanged, unlocked lock word means an
/// unchanged value: what [`TVarCore::read_consistent`] relies on, and
/// what lets the short operations (`short_read`, `short_update`) serve
/// any backend without a transaction object.
pub trait TxnEngine<'env>: Transaction<'env> {
    /// The attempt behind [`Transaction::abstract_log`].
    #[inline]
    fn attempt(&mut self) -> &mut Attempt<'env> {
        self.abstract_log().at
    }

    /// Begin a fresh attempt: clear the per-attempt buffers (keeping
    /// capacity) and sample the snapshot. The shared state was already
    /// restarted (no ticket, tracer armed).
    fn restart(&mut self);

    /// Commit the attempt: acquire/stamp/validate as the algorithm
    /// demands, then hand the write set to [`Attempt::publish`]. On `Err`
    /// the driver calls [`rollback`](Self::rollback); failure paths need
    /// not release anything themselves.
    fn try_commit(&mut self) -> Result<(), Abort>;

    /// Undo a failed attempt: release every lock held at its pre-lock
    /// word. Idempotent; called exactly once after any failed attempt,
    /// whether the body failed, panicked or the commit failed.
    fn rollback(&mut self);

    /// Everything the rolled-back attempt read, folded into one wait
    /// footprint (OE-STM folds its elastic window in).
    fn wait_set(&mut self) -> &ReadSet<'env>;
}

/// First park of the progress backstop, in microseconds.
pub const PARK_BASE_MICROS: u64 = 10;

/// The park timeout doubles per further loss up to `PARK_BASE_MICROS <<
/// PARK_MAX_STEP` (10µs … ~41ms): the ceiling must comfortably exceed the
/// solo running time of the *longest* transaction in the system (composed
/// bulk operations included), or a storm of long transactions on an
/// oversubscribed core never gets a window wide enough for anyone to
/// finish — the empirically observed failure mode behind the old ~1.3ms
/// cap. Escalation means well-behaved storms never pay the ceiling; only
/// a storm that already failed dozens of consecutive windows does.
pub const PARK_MAX_STEP: u32 = 12;

/// Run `body` on `txn` until an attempt commits: restart → body →
/// `try_commit`, and on failure `rollback`, then classify.
///
/// * **Precondition wait** — [`AbortReason::ExplicitRetry`] with no
///   `or_else` alternative pending: the attempt is *waiting*, not losing.
///   It parks on its read set until a relevant commit (or the bounded
///   timeout), is filed as an explicit retry, and is charged against
///   neither `max_retries` nor the pacing; an empty read set ends the run
///   with [`RunError::WouldBlockForever`].
/// * **Conflict loss** (or a retry that must alternate `or_else`
///   branches rather than sleep): charged against `max_retries` and paced
///   by [`cm::pace_retry`] on a [`Backoff`] the run creates at its first
///   loss, seeded from the thread's random stream.
/// * **Panic** — a body that unwinds is rolled back (its locks released)
///   and its tracer aborted before the panic resumes, so other clients do
///   not wait on what the dead attempt held.
///
/// # The progress backstop
///
/// Spin/yield pacing alone cannot *guarantee* forward progress: two
/// symmetric losers can keep aborting each other forever if their pacing
/// stays in lockstep (the classic 2-thread livelock — especially on a
/// single core, where `yield_now` between two runnable threads can
/// degenerate into a hot hand-off). So on top of whatever the contention
/// pacing does, the loop counts **consecutive** conflict losses of
/// this run; past [`PROGRESS_PARK_AFTER`] it additionally
/// *parks* the loser on an escalating, bounded timeout (doubling from
/// [`PARK_BASE_MICROS`] up to `PARK_BASE_MICROS << PARK_MAX_STEP`, each
/// park stretched by a per-thread random factor in `[1, 2)`). The sleep
/// goes through the `wait` registry's backstop list, which **every**
/// committing writer wakes — so a loser resumes as soon as a rival
/// commits instead of sleeping out its full timeout.
///
/// Termination argument: once engaged, every loser sleeps for real
/// wall-clock time, the sleeps *grow* until they exceed the solo running
/// time of any transaction in the system, and the per-thread jitter keeps
/// two symmetric losers from sleeping in lockstep — so some competitor
/// eventually gets an uncontended window wide enough to finish, and a
/// transaction running alone commits in a bounded number of steps (every
/// abort needs a concurrent conflictor). Parked `retry()` waiters
/// terminate the same way: their parks are bounded too and every relevant
/// commit wakes them. Parks are counted in
/// [`StatsSnapshot::progress_parks`](crate::StatsSnapshot::progress_parks)
/// (backstop) and
/// [`StatsSnapshot::retry_parks`](crate::StatsSnapshot::retry_parks)
/// (waiters).
#[inline]
pub fn run<'env, T: TxnEngine<'env>, R>(
    txn: &mut T,
    mut body: impl FnMut(&mut T) -> Result<R, Abort>,
) -> Result<R, RunError> {
    let Instance {
        config: cfg, stats, ..
    } = txn.attempt().inst;
    let mut attempts: u64 = 0;
    // Conflict losses charged against `max_retries`; waits are free.
    let mut charged: u64 = 0;
    let mut losses: u32 = 0;
    let mut wait_streak: u32 = 0;
    let mut pacing: Option<Backoff> = None;
    loop {
        attempts += 1;
        txn.attempt().restart();
        txn.restart();
        let outcome = match panic::catch_unwind(AssertUnwindSafe(|| body(txn))) {
            Ok(outcome) => outcome,
            Err(payload) => unwind(txn, payload),
        };
        let abort = match outcome.and_then(|r| txn.try_commit().map(|()| r)) {
            Ok(r) => {
                stats.record_commit();
                return Ok(r);
            }
            Err(abort) => abort,
        };
        roll_back(txn);
        if abort.reason.is_explicit_retry() && !wait::alternative_pending() {
            let reads = txn.wait_set();
            if reads.is_empty() {
                stats.record_abort(abort.reason);
                return Err(RunError::WouldBlockForever { attempts });
            }
            wait_streak += 1;
            let _ = wait::wait_for_locations(
                &mut reads.iter().map(ReadEntry::id),
                &|| reads.validate(None, |_| None),
                wait_streak,
                stats,
            );
            stats.record_abort(abort.reason);
            // Waiting is not losing: the park already paced this attempt,
            // and a fresh streak starts after the wake.
            losses = 0;
            continue;
        }
        wait_streak = 0;
        stats.record_abort(abort.reason);
        charged += 1;
        if cfg.max_retries.is_some_and(|max| charged > max) {
            return Err(RunError::RetriesExhausted {
                attempts,
                last: abort.reason,
            });
        }
        let backoff = pacing.get_or_insert_with(|| {
            Backoff::new(
                cm::BACKOFF_MIN_SPINS,
                cm::BACKOFF_MAX_SPINS,
                thread_random(),
            )
        });
        cm::pace_retry(backoff, stats);
        losses = losses.saturating_add(1);
        if losses > PROGRESS_PARK_AFTER {
            stats.record_progress_park();
            let step = (losses - PROGRESS_PARK_AFTER).min(PARK_MAX_STEP);
            let base = PARK_BASE_MICROS << step;
            // Stretch by a per-thread random factor in [1, 2): two
            // symmetric losers at the same step must not sleep the same
            // duration, or their wakeups (and the conflicts that follow)
            // stay phase-locked.
            let park = base + park_jitter(base);
            let _ = wait::backstop_park(core::time::Duration::from_micros(park));
        }
    }
}

/// Roll a failed attempt back: the backend's undo, then the abstract-lock
/// log's, then the tracer's abort events.
fn roll_back<'env, T: TxnEngine<'env>>(txn: &mut T) {
    txn.rollback();
    let at = txn.attempt();
    at.undo_abstract();
    if let Some(t) = at.tracer() {
        t.abort_all();
    }
}

/// A body panicked: roll the attempt back — releasing every lock it took
/// at write time — then resume the panic.
#[cold]
#[inline(never)]
fn unwind<'env, T: TxnEngine<'env>>(txn: &mut T, payload: Box<dyn Any + Send>) -> ! {
    roll_back(txn);
    panic::resume_unwind(payload)
}

/// How many optional words one short update holds: a MULTI over more
/// keys runs as a regular transaction.
pub const SHORT_CAPACITY: usize = 16;

/// One short operation on up to `N` distinct [`OptionWord`]s, its
/// *rows*: each one's two words (presence, then value), what the double
/// collect saw of them, and what the operation stores. A word that
/// appears more than once in the caller's list is one row. Rows past
/// `len` hold a vacant filler. An update commits in TL2's order:
/// [`lock`](Self::lock) the words it stores, take the stamp,
/// [`validate`](Self::validate) the words it only read, and
/// [`release`](Self::release) the stored ones. What a one-word GET or
/// SET runs is `#[inline(always)]`: left to the inliner, a GET's collect
/// became a call and a loop, and `kv-mem`'s read and update latencies
/// rose.
#[derive(Debug)]
struct Short<'env, const N: usize> {
    len: usize,
    words: [[&'env TVarCore; 2]; N],
    /// The lock words the collect saw, all unlocked: the versions.
    versions: [[u64; 2]; N],
    values: [[u64; 2]; N],
    /// The word each row stores at commit; `None` where it writes nothing.
    stores: [[Option<u64>; 2]; N],
    /// The row of each occurrence in the caller's list.
    row: [u8; N],
}

impl<'env, const N: usize> Short<'env, N> {
    /// A short operation on `words` (at most `N`), before its collect.
    #[inline(always)]
    fn new(words: &[OptionWord<'env>]) -> Self {
        const { assert!(N <= 256, "a row's index must fit a `u8`") };
        let mut s = Self {
            len: 0,
            words: [[&VACANT; 2]; N],
            versions: [[0; 2]; N],
            values: [[0; 2]; N],
            stores: [[None; 2]; N],
            row: [0; N],
        };
        for (row, w) in s.row.iter_mut().zip(words) {
            let seen = s.words[..s.len]
                .iter()
                .position(|c| c[0].id() == w.present.id());
            *row = seen.unwrap_or_else(|| {
                s.words[s.len] = [w.present, w.value];
                s.len += 1;
                s.len - 1
            }) as u8;
        }
        s
    }

    /// The double collect: every row's lock words, then their values,
    /// then their lock words again. All unlocked and all unchanged means
    /// each value was its word's committed value for the whole stretch
    /// between the first pass's last lock load and the second pass's
    /// first, so together they are a consistent snapshot. That needs a
    /// version to change whenever a value does, which every word backend
    /// keeps (see [`VLock::unlock_to`]). `between` runs between the two
    /// passes (a test seam; a no-op otherwise). `false`: a word was
    /// locked or moved.
    #[inline(always)]
    fn collect(&mut self, between: impl FnOnce()) -> bool {
        let words = self.words[..self.len].as_flattened();
        let versions = self.versions[..self.len].as_flattened_mut();
        for (v, w) in versions.iter_mut().zip(words) {
            *v = w.lock().raw();
        }
        if versions
            .iter()
            .any(|&raw| matches!(VLock::decode(raw), LockState::Locked { .. }))
        {
            return false;
        }
        let values = self.values[..self.len].as_flattened_mut();
        for (x, w) in values.iter_mut().zip(words) {
            *x = w.value_unsync();
        }
        between();
        words
            .iter()
            .zip(&*versions)
            .all(|(w, &v)| w.lock().raw() == v)
    }

    /// The state the collect saw of row `i`.
    #[inline(always)]
    fn state(&self, i: usize) -> Option<u64> {
        (self.values[i][0] == 1).then_some(self.values[i][1])
    }

    /// The highest version among the words collected: what a commit that
    /// stages nothing awaits (see `hook`).
    fn observed(&self) -> u64 {
        let versions = self.versions[..self.len].as_flattened();
        versions.iter().copied().max().unwrap_or(0)
    }

    /// Call `decide` on each of the `n` occurrences in order, a repeated
    /// word seeing the state its earlier occurrences planned, then plan
    /// the stores that move each decided row from its collected state to
    /// its last planned one; returns how many words they write.
    #[inline(always)]
    fn plan(
        &mut self,
        n: usize,
        mut decide: impl FnMut(usize, Option<u64>) -> Option<Option<u64>>,
    ) -> usize {
        let mut planned = [None; N];
        for (i, &row) in self.row[..n].iter().enumerate() {
            let row = usize::from(row);
            let cur = planned[row].unwrap_or_else(|| self.state(row));
            if let Some(new) = decide(i, cur) {
                planned[row] = Some(new);
            }
        }
        let mut len = 0;
        for (i, new) in planned[..self.len].iter().enumerate() {
            if let Some(new) = *new {
                self.stores[i] = OptionWord::stores(self.state(i), new);
                len += self.stores[i].iter().flatten().count();
            }
        }
        len
    }

    /// The events a regular transaction would record: each row's presence
    /// word read and its value word's if present, then the planned writes.
    fn trace(&self, t: &mut AttemptTracer) {
        for (i, [present, value]) in self.words[..self.len].iter().enumerate() {
            t.op(present.id(), TraceOp::Read(self.values[i][0]));
            if self.state(i).is_some() {
                t.op(value.id(), TraceOp::Read(self.values[i][1]));
            }
        }
        self.for_each_store(&mut |id, word| t.op(id, TraceOp::Write(word)));
    }

    /// The words collected, what the collect saw of their lock words, and
    /// what the update stores in each, word by word in collect order.
    #[inline(always)]
    fn each_word(&self) -> impl Iterator<Item = (&'env TVarCore, u64, Option<u64>)> + '_ {
        let words = self.words[..self.len].as_flattened();
        let versions = self.versions[..self.len].as_flattened();
        let stores = self.stores[..self.len].as_flattened();
        words
            .iter()
            .zip(versions)
            .zip(stores)
            .map(|((&w, &v), &s)| (w, v, s))
    }

    /// Lock every word the update stores at the version collected, in
    /// collect order: the words it only read stay unlocked, and
    /// [`validate`](Self::validate) re-checks them after the stamp, as a
    /// TL2 commit does its read set. The pass never waits, so no order can
    /// deadlock; on failure it gives back the locks taken at their
    /// versions, and nothing stays locked.
    #[inline(always)]
    fn lock(&self, owner: u64) -> bool {
        for (taken, (w, v, store)) in self.each_word().enumerate() {
            if store.is_some() && !w.lock().try_lock_at(v, owner) {
                self.unlock_stored(taken);
                return false;
            }
        }
        true
    }

    /// Give back the locks of the stored words among the first `n`
    /// collected (all of them for `usize::MAX`), at their collected
    /// versions: nothing was written under them.
    #[cold]
    fn unlock_stored(&self, n: usize) {
        for (w, v, _) in self.each_word().take(n).filter(|(_, _, s)| s.is_some()) {
            w.lock().unlock_to(v);
        }
    }

    /// The re-check of the words the update only read, after its stamp:
    /// each must still hold the exact lock word the collect saw, so none
    /// was locked or written since. Raw words, never lock owners: every
    /// untraced short update locks under [`SHORT_OWNER`], so an owner test
    /// would take another update's lock for this one's.
    #[inline(always)]
    fn validate(&self) -> bool {
        self.each_word()
            .all(|(w, v, store)| store.is_some() || w.lock().raw() == v)
    }

    /// Feed each planned `(location, word)` store to `f`, row by row.
    fn for_each_store(&self, f: &mut dyn FnMut(usize, u64)) {
        let words = self.words[..self.len].as_flattened();
        for (w, store) in words.iter().zip(self.stores[..self.len].as_flattened()) {
            if let Some(word) = *store {
                f(w.id(), word);
            }
        }
    }

    /// Write back and unlock the stored words at `wv`; the words only
    /// read were never locked.
    #[inline(always)]
    fn release(&self, wv: u64) {
        for (w, _, store) in self.each_word() {
            if let Some(word) = store {
                w.store_value(word);
                w.lock().unlock_to(wv);
            }
        }
    }
}

/// The short read of `word`: a double collect of its two words, with no
/// clock read, no log and no ticket. It serializes where the collect saw
/// both words, like a read-only transaction whose snapshot is that
/// moment. With a trace sink it records begin, reads and commit, and with
/// a commit hook it awaits durability of what it observed, both through
/// [`Attempt::publish`]. Returns the state, or `None` when a word was
/// seen locked or moved: the caller falls back to a regular run of
/// [`OptionWord::read`].
#[inline]
pub(crate) fn short_read(inst: &Instance, word: OptionWord<'_>) -> Option<Option<u64>> {
    short_read_with(inst, word, || {})
}

/// [`short_read`] with `between` run between the collect's two passes.
#[inline]
fn short_read_with(
    inst: &Instance,
    word: OptionWord<'_>,
    between: impl FnOnce(),
) -> Option<Option<u64>> {
    let served = if inst.config.trace.is_none() && inst.config.commit_hook.is_none() {
        let mut seen = Short::<1>::new(&[word]);
        seen.collect(between).then(|| seen.state(0))
    } else {
        short_read_published(inst, word, between)
    };
    if served.is_some() {
        inst.stats.record_commit();
    }
    served
}

/// A short read with a trace sink or a commit hook: the collect inside an
/// attempt whose tracer reserved the begin stamp first, then the
/// read-only commit tail.
#[inline(never)]
fn short_read_published(
    inst: &Instance,
    word: OptionWord<'_>,
    between: impl FnOnce(),
) -> Option<Option<u64>> {
    let mut at = Attempt::new(inst);
    at.restart();
    let mut seen = Short::<1>::new(&[word]);
    if !seen.collect(between) {
        at.abandon();
        return None;
    }
    if let Some(t) = at.tracer() {
        seen.trace(t);
    }
    at.publish(0, &mut (), 0, |(), _| {}, |()| {}, |()| seen.observed());
    Some(seen.state(0))
}

/// The short update of `word`: [`short_update_each`] over the one word.
/// Returns the state it replaced, or `None` when the caller must fall
/// back to a regular run of [`OptionWord::update`].
#[inline]
pub(crate) fn short_update<F>(
    inst: &Instance,
    word: OptionWord<'_>,
    decide: &F,
) -> Option<Option<u64>>
where
    F: Fn(Option<u64>) -> Option<Option<u64>> + ?Sized,
{
    let mut prev = None;
    let decide_one = |_, cur| {
        prev = cur;
        decide(cur)
    };
    short_update_with::<1>(inst, &[word], decide_one, || {}).then_some(prev)
}

/// The short update of every word in `words`, deciding on one double
/// collect of them all; `N` bounds how many it holds. An update that
/// writes nothing commits read-only, with no lock and no stamp.
/// Otherwise it commits as TL2 does: it locks the words it stores at the
/// version collected, in collect order and under [`SHORT_OWNER`] (a
/// traced attempt's ticket when its tracer drew one), takes one commit
/// stamp, and then checks that every word it only read still holds the
/// lock word collected. It ends in one [`Attempt::publish`], like any
/// update: the hook stages under the locks, parked `retry()`s are woken,
/// the stores are written back and their locks released, then come the
/// trace commit and the durability await. A SET, CAS or DEL of a present
/// key makes two atomic read-modify-writes (one lock, one stamp), and a
/// MULTI over `k` present keys `k + 1`. Returns `false` when it cannot
/// serve — more than `N` words, a word seen locked or moved, a lock lost
/// before the update held them all, or a word it only read locked or
/// moved by the validation — and the caller falls back to a regular run
/// that applies [`OptionWord::update`] to each word in order.
#[inline]
pub(crate) fn short_update_each<const N: usize, F>(
    inst: &Instance,
    words: &[OptionWord<'_>],
    decide: &mut F,
) -> bool
where
    F: FnMut(usize, Option<u64>) -> Option<Option<u64>> + ?Sized,
{
    short_update_with::<N>(inst, words, decide, || {})
}

/// [`short_update_each`] with `between` run between the collect's two
/// passes.
#[inline]
fn short_update_with<const N: usize>(
    inst: &Instance,
    words: &[OptionWord<'_>],
    mut decide: impl FnMut(usize, Option<u64>) -> Option<Option<u64>>,
    between: impl FnOnce(),
) -> bool {
    if words.len() > N {
        return false;
    }
    let mut at = Attempt::new(inst);
    at.restart();
    let mut short = Short::<N>::new(words);
    if !short.collect(between) {
        at.abandon();
        return false;
    }
    let len = short.plan(words.len(), &mut decide);
    if let Some(t) = at.tracer() {
        short.trace(t);
    }
    let mut wv = 0;
    if len != 0 {
        if !short.lock(at.owner().unwrap_or(SHORT_OWNER)) {
            at.abandon();
            return false;
        }
        wv = inst.clock.stamp().wv;
        if !short.validate() {
            short.unlock_stored(usize::MAX);
            at.abandon();
            return false;
        }
    }
    at.publish(
        wv,
        &mut short,
        len,
        Short::for_each_store,
        |s| {
            if len != 0 {
                s.release(wv);
            }
        },
        Short::observed,
    );
    inst.stats.record_commit();
    true
}

/// A per-thread pseudo-random jitter in `[0, range)` for park timeouts.
///
/// Without it, two symmetric losers reach the same escalation step, sleep
/// identical durations, wake together, overlap their next attempts and
/// abort each other again — a stable limit cycle that kept 2-thread
/// composed workloads livelocked on a single core *despite* the backstop.
fn park_jitter(range: u64) -> u64 {
    if range == 0 {
        0
    } else {
        thread_random() % range
    }
}

thread_local! {
    /// State of the calling thread's [`thread_random`] stream.
    static RANDOM: Cell<u64> = Cell::new(THREAD_SEED.fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed));
}

/// Seeds of the threads' [`thread_random`] streams, one step apart.
static THREAD_SEED: AtomicU64 = AtomicU64::new(0x9e37_79b9_7f4a_7c15);

/// The next word of the calling thread's splitmix64 stream: what seeds
/// each run's retry backoff and stretches each park, so threads
/// decorrelate without touching a shared line.
fn thread_random() -> u64 {
    RANDOM.with(|s| {
        let mut z = s.get().wrapping_add(0x9e37_79b9_7f4a_7c15);
        s.set(z);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    })
}

/// A deliberately naive single-threaded STM written against
/// [`TxnEngine`]: eager writes with an undo log, no locking. It is the
/// trait's reference implementor and the backend the `api` and `dynstm`
/// unit tests exercise their plumbing through (the real backends live in
/// sibling crates). Single-threaded, it keeps the word protocol
/// trivially: no short operation ever runs beside one of its attempts.
#[cfg(test)]
pub(crate) mod toy {
    use super::{run, AbstractLog, Attempt, TxnEngine};
    use crate::config::StmConfig;
    use crate::error::Abort;
    use crate::link::{Link, Loc};
    use crate::readset::ReadSet;
    use crate::stm::{Instance, RunError, Stm, Transaction, TxKind};
    use crate::tvar::TVarCore;
    use core::sync::atomic::{AtomicU32, Ordering};
    use std::sync::{Arc, Mutex};

    #[derive(Debug, Default)]
    pub(crate) struct ToyStm {
        pub(crate) inst: Instance,
    }

    pub(crate) struct ToyTxn<'env> {
        pub(crate) at: Attempt<'env>,
        reads: ReadSet<'env>,
        undo: Vec<(Loc<'env>, u64)>,
    }

    impl<'env> ToyTxn<'env> {
        pub(crate) fn new(stm: &'env ToyStm) -> Self {
            Self {
                at: Attempt::new(&stm.inst),
                reads: ReadSet::new(),
                undo: Vec::new(),
            }
        }
    }

    impl<'env> TxnEngine<'env> for ToyTxn<'env> {
        fn restart(&mut self) {
            self.reads.clear();
            self.undo.clear();
        }
        fn try_commit(&mut self) -> Result<(), Abort> {
            let len = self.undo.len();
            self.at.publish(
                0,
                &mut self.undo,
                len,
                |undo, f| undo.iter().for_each(|(l, _)| f(l.id(), l.value_unsync())),
                Vec::clear,
                |_| u64::MAX,
            );
            Ok(())
        }
        fn rollback(&mut self) {
            for (loc, old) in self.undo.drain(..).rev() {
                match loc {
                    Loc::Var(core) => core.store_value(old),
                    Loc::Link(link) => link.store_atomic(old, 0),
                }
            }
        }
        fn wait_set(&mut self) -> &ReadSet<'env> {
            &self.reads
        }
    }

    impl<'env> Transaction<'env> for ToyTxn<'env> {
        fn read_word(&mut self, core: &'env TVarCore) -> Result<u64, Abort> {
            let (word, version) = core.read_consistent().expect("the toy never locks");
            self.reads.push(Loc::Var(core), version);
            Ok(word)
        }
        fn write_word(&mut self, core: &'env TVarCore, word: u64) -> Result<(), Abort> {
            self.undo.push((Loc::Var(core), core.value_unsync()));
            core.store_value(word);
            Ok(())
        }
        fn read_link(&mut self, link: &'env Link) -> Result<u64, Abort> {
            let (payload, seen) = link.read().expect("the toy never locks");
            self.reads.push(Loc::Link(link), seen);
            Ok(payload)
        }
        // In place, as every toy write: no concurrent reader exists.
        fn write_link(&mut self, link: &'env Link, payload: u64) -> Result<(), Abort> {
            self.undo.push((Loc::Link(link), link.load_atomic()));
            link.store_atomic(payload, 0);
            Ok(())
        }
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

    impl Stm for ToyStm {
        type Txn<'env> = ToyTxn<'env>;
        fn name(&self) -> &'static str {
            "Toy"
        }
        fn instance(&self) -> &Instance {
            &self.inst
        }
        fn try_run<'env, R>(
            &'env self,
            _kind: TxKind,
            f: impl FnMut(&mut Self::Txn<'env>) -> Result<R, Abort>,
        ) -> Result<R, RunError> {
            run(&mut ToyTxn::new(self), f)
        }
    }

    /// The toy, counting its full runs; it implements nothing for the
    /// short operations. `before_run` stands for the holder of a scripted
    /// lock finishing its commit before the next run reads.
    #[derive(Default)]
    pub(crate) struct ShortToy {
        toy: ToyStm,
        /// Shared, so it stays readable after the toy is erased.
        pub(crate) runs: Arc<AtomicU32>,
        pub(crate) before_run: Mutex<Option<Box<dyn FnOnce() + Send>>>,
    }

    impl ShortToy {
        pub(crate) fn with_config(config: StmConfig) -> Self {
            Self {
                toy: ToyStm {
                    inst: Instance::new(config),
                },
                ..Self::default()
            }
        }

        pub(crate) fn runs(&self) -> u32 {
            self.runs.load(Ordering::Relaxed)
        }
    }

    impl Stm for ShortToy {
        type Txn<'env> = ToyTxn<'env>;
        fn name(&self) -> &'static str {
            "ShortToy"
        }
        fn instance(&self) -> &Instance {
            &self.toy.inst
        }
        fn try_run<'env, R>(
            &'env self,
            _kind: TxKind,
            f: impl FnMut(&mut Self::Txn<'env>) -> Result<R, Abort>,
        ) -> Result<R, RunError> {
            self.runs.fetch_add(1, Ordering::Relaxed);
            if let Some(finish) = self.before_run.lock().unwrap().take() {
                finish();
            }
            run(&mut ToyTxn::new(&self.toy), f)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::toy::ShortToy;
    use super::*;
    use crate::api::{Atomic, Policy};
    use crate::config::StmConfig;
    use crate::hook::{CommitHook, DurableLog};
    use crate::link::{Link, Loc};
    use crate::stm::TxKind;
    use crate::trace::{TraceOp, TraceSink, TraceStamp};
    use crate::tvar::TVarCore;
    use std::sync::{Arc, Mutex};

    /// The one location every scripted attempt has read.
    static WAITED: TVarCore = TVarCore::new(0);

    /// The scripted fake backend the driver's policy is tested through:
    /// the test's body closure decides how each attempt's user code ends,
    /// `commit_failures` how many commits then fail validation *holding
    /// locks*; everything the driver asks of it is recorded.
    struct Scripted<'env> {
        at: Attempt<'env>,
        reads: ReadSet<'env>,
        commit_failures: u32,
        locks_held: u32,
        rollbacks: u32,
        restarts: u64,
    }

    impl<'env> Scripted<'env> {
        /// A fake whose attempts read one location (so `retry()` parks).
        fn new(inst: &'env Instance) -> Self {
            let mut reads = ReadSet::new();
            let (_, version) = WAITED.read_consistent().expect("never locked");
            reads.push(Loc::Var(&WAITED), version);
            Self {
                at: Attempt::new(inst),
                reads,
                commit_failures: 0,
                locks_held: 0,
                rollbacks: 0,
                restarts: 0,
            }
        }
    }

    impl<'env> TxnEngine<'env> for Scripted<'env> {
        fn restart(&mut self) {
            assert_eq!(self.locks_held, 0, "restarted with locks held");
            self.restarts += 1;
        }
        fn try_commit(&mut self) -> Result<(), Abort> {
            if self.commit_failures > 0 {
                self.commit_failures -= 1;
                self.locks_held = 2;
                return Err(Abort::new(AbortReason::ReadValidation));
            }
            self.at.publish(0, &mut (), 0, |(), _| {}, |()| {}, |()| 0);
            Ok(())
        }
        fn rollback(&mut self) {
            self.locks_held = 0;
            self.rollbacks += 1;
        }
        fn wait_set(&mut self) -> &ReadSet<'env> {
            &self.reads
        }
    }

    /// Scripted bodies touch no word; they only end attempts.
    impl<'env> Transaction<'env> for Scripted<'env> {
        fn read_word(&mut self, _: &'env TVarCore) -> Result<u64, Abort> {
            unreachable!("scripted bodies read nothing")
        }
        fn write_word(&mut self, _: &'env TVarCore, _: u64) -> Result<(), Abort> {
            unreachable!("scripted bodies write nothing")
        }
        fn read_link(&mut self, _: &'env Link) -> Result<u64, Abort> {
            unreachable!("scripted bodies read nothing")
        }
        fn write_link(&mut self, _: &'env Link, _: u64) -> Result<(), Abort> {
            unreachable!("scripted bodies write nothing")
        }
        fn child_enter(&mut self, _: TxKind) -> Result<(), Abort> {
            unreachable!("scripted bodies compose nothing")
        }
        fn child_commit(&mut self) -> Result<(), Abort> {
            unreachable!("scripted bodies compose nothing")
        }
        fn child_abort(&mut self) {}
        fn kind(&self) -> TxKind {
            TxKind::Regular
        }
        fn abstract_log(&mut self) -> AbstractLog<'_, 'env> {
            self.at.abstract_log()
        }
    }

    /// Run a body that fails with `reason` `failures` times, then commits
    /// `value`.
    fn run_failing<R: Copy>(
        inst: &Instance,
        reason: AbortReason,
        mut failures: u32,
        value: R,
    ) -> Result<R, RunError> {
        run(&mut Scripted::new(inst), |_| {
            if failures > 0 {
                failures -= 1;
                Err(Abort::new(reason))
            } else {
                Ok(value)
            }
        })
    }

    #[test]
    fn commits_first_try() {
        let inst = Instance::default();
        let r = run_failing(&inst, AbortReason::LockConflict, 0, 42).unwrap();
        assert_eq!(r, 42);
        let snap = inst.stats.snapshot();
        assert_eq!(snap.commits, 1);
        assert_eq!(snap.aborts(), 0);
    }

    #[test]
    fn the_cm_is_seeded_from_the_threads_stream_not_a_ticket() {
        // A run creates its backoff at its first conflict loss, from one
        // word of the thread's stream, and a retry-time loss draws no
        // ticket.
        let inst = Instance::default();
        let stream_after = |losses: u32| {
            RANDOM.with(|s| s.set(42));
            let mut fake = Scripted::new(&inst);
            let mut left = losses;
            run(&mut fake, |_| {
                if left > 0 {
                    left -= 1;
                    return Err(Abort::new(AbortReason::LockConflict));
                }
                Ok(())
            })
            .unwrap();
            assert_eq!(fake.at.owner(), None, "{losses} losses drew no ticket");
            RANDOM.with(Cell::get)
        };
        assert_eq!(stream_after(0), 42, "a run without a loss draws nothing");
        RANDOM.with(|s| s.set(42));
        let _ = thread_random();
        let one_draw = RANDOM.with(Cell::get);
        assert_eq!(stream_after(1), one_draw);
        assert_eq!(stream_after(12), one_draw, "one draw per run, not per loss");
    }

    #[test]
    fn a_read_only_run_commits_without_a_ticket() {
        let stm = toy::ToyStm::default();
        let v = crate::TVar::new(3u64);
        let mut txn = toy::ToyTxn::new(&stm);
        let got = run(&mut txn, |tx| {
            use crate::Transaction;
            tx.read(&v)
        });
        assert_eq!(got.unwrap(), 3);
        assert_eq!(txn.at.owner(), None, "the toy read and committed");
        let inst = Instance::default();
        let mut fake = Scripted::new(&inst);
        run(&mut fake, |_| Ok(())).unwrap();
        assert_eq!(fake.at.owner(), None, "publish draws none either");
    }

    #[test]
    fn a_writing_attempt_draws_one_ticket_and_a_retry_starts_without() {
        let inst = Instance::default();
        let mut fake = Scripted::new(&inst);
        let mut seen = Vec::new();
        let mut losses = 1;
        run(&mut fake, |tx| {
            let before = tx.at.owner();
            // What lock acquisition does: draw, then reuse.
            let ticket = tx.at.ticket();
            assert_eq!(tx.at.ticket(), ticket, "drawn once per attempt");
            assert_eq!(tx.at.owner(), Some(ticket));
            seen.push((before, ticket));
            if losses > 0 {
                losses -= 1;
                return Err(Abort::new(AbortReason::LockConflict));
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(seen.len(), 2);
        assert!(seen.iter().all(|&(before, _)| before.is_none()));
        assert_ne!(seen[0].1, seen[1].1, "the retry drew a fresh ticket");
        assert_eq!(fake.at.owner(), Some(seen[1].1));
    }

    #[test]
    fn an_armed_tracer_draws_the_ticket_at_restart() {
        let rec = Arc::new(Recorder::default());
        let inst = Instance::new(StmConfig::default().with_trace_sink(rec));
        let mut at = Attempt::new(&inst);
        assert_eq!(at.owner(), None);
        at.restart();
        let first = at.owner().expect("the tracer's top-level id");
        at.restart();
        let second = at.owner().expect("drawn again");
        assert_ne!(first, second, "each attempt is its own top-level id");
    }

    #[test]
    fn a_read_only_commit_validates_only_after_a_child_commit() {
        let inst = Instance::default();
        let mut at = Attempt::new(&inst);
        let stale = Err(Abort::new(AbortReason::ReadValidation));
        let check = |at: &Attempt<'_>| at.read_only_commit(|| false);
        at.restart();
        assert_eq!(check(&at), Ok(()), "a plain read-only attempt");
        at.child_enter();
        assert_eq!(check(&at), Ok(()), "an open child is no composition yet");
        at.child_abort();
        assert_eq!(check(&at), Ok(()), "nor is an aborted one");
        at.child_enter();
        at.child_commit();
        assert_eq!(check(&at), stale);
        assert_eq!(at.read_only_commit(|| true), Ok(()));
        at.restart();
        assert_eq!(check(&at), Ok(()), "each attempt starts uncomposed");
    }

    #[test]
    fn retries_until_success() {
        let inst = Instance::default();
        let r = run_failing(&inst, AbortReason::LockConflict, 3, 7).unwrap();
        assert_eq!(r, 7);
        let snap = inst.stats.snapshot();
        assert_eq!(snap.commits, 1);
        assert_eq!(snap.aborts(), 3);
    }

    #[test]
    fn files_explicit_retries_separately() {
        let inst = Instance::default();
        run_failing(&inst, AbortReason::ExplicitRetry, 2, ()).unwrap();
        let snap = inst.stats.snapshot();
        assert_eq!(snap.commits, 1);
        assert_eq!(snap.explicit_retries(), 2);
        assert_eq!(snap.aborts(), 0, "retries are not conflict aborts");
    }

    #[test]
    fn paces_with_the_configured_cm() {
        // Every conflict loss that retries is paced exactly once.
        let inst = Instance::default();
        run_failing(&inst, AbortReason::LockConflict, 3, ()).unwrap();
        let snap = inst.stats.snapshot();
        assert_eq!(snap.aborts(), 3);
        assert_eq!(
            snap.cm_waits(),
            3,
            "{:?}",
            (snap.cm_backoffs, snap.cm_yields)
        );
    }

    #[test]
    fn executes_each_decision_and_counts_it() {
        // Both pacing steps: losses 1..=9 back off within a growing
        // ceiling, the tenth (saturated) yields.
        for (losses, backoffs, yields) in [(1, 1, 0), (10, 9, 1)] {
            let inst = Instance::default();
            let mut fake = Scripted::new(&inst);
            let mut left = losses;
            let r = run(&mut fake, |_| {
                if left > 0 {
                    left -= 1;
                    Err(Abort::new(AbortReason::ReadValidation))
                } else {
                    Ok(99)
                }
            });
            assert_eq!(r.unwrap(), 99);
            assert_eq!(fake.restarts, losses + 1, "one restart per attempt");
            let snap = inst.stats.snapshot();
            assert_eq!(snap.commits, 1);
            assert_eq!(snap.aborts(), losses);
            assert_eq!(snap.cm_backoffs, backoffs);
            assert_eq!(snap.cm_yields, yields);
            assert_eq!(snap.cm_waits(), backoffs + yields);
        }
    }

    #[test]
    fn respects_max_retries_regardless_of_decision() {
        for reason in [AbortReason::LockConflict, AbortReason::ReadValidation] {
            let inst = Instance::new(StmConfig::default().with_max_retries(2));
            let r = run_failing(&inst, reason, u32::MAX, ());
            assert_eq!(
                r.unwrap_err(),
                RunError::RetriesExhausted {
                    attempts: 3,
                    last: reason
                }
            );
            assert_eq!(inst.stats.snapshot().aborts(), 3);
        }
    }

    #[test]
    fn progress_backstop_parks_after_consecutive_losses() {
        // Losses past the threshold park (with escalating bounded sleeps).
        let inst = Instance::new(
            StmConfig::default().with_max_retries(u64::from(PROGRESS_PARK_AFTER) + 4),
        );
        let r = run_failing(&inst, AbortReason::LockConflict, u32::MAX, ());
        assert!(r.is_err());
        let snap = inst.stats.snapshot();
        assert_eq!(snap.aborts(), u64::from(PROGRESS_PARK_AFTER) + 5);
        // The four losses past the threshold park; the exhausted final
        // attempt returns without parking (it will not retry, so there is
        // nothing to pace).
        assert_eq!(
            snap.progress_parks, 4,
            "every loss past the threshold that retries parks"
        );
    }

    #[test]
    fn progress_backstop_stays_out_of_short_conflicts() {
        let inst = Instance::default();
        run_failing(&inst, AbortReason::LockConflict, 10, ()).unwrap();
        assert_eq!(
            inst.stats.snapshot().progress_parks,
            0,
            "ordinary contention must never sleep"
        );
    }

    #[test]
    fn waits_are_not_charged_against_the_budget() {
        // A bounded budget of 1 conflict: three genuine waits then a
        // commit must NOT exhaust — a precondition wait is not a loss.
        let inst = Instance::new(StmConfig::default().with_max_retries(1));
        let r = run_failing(&inst, AbortReason::ExplicitRetry, 3, 11);
        assert_eq!(r.unwrap(), 11);
        let snap = inst.stats.snapshot();
        assert_eq!(snap.commits, 1);
        assert_eq!(snap.explicit_retries(), 3);
        assert_eq!(snap.retry_parks, 3, "every wait parks on the read set");
        assert_eq!(snap.aborts(), 0);
        assert_eq!(snap.cm_waits(), 0, "waits are parked, never CM-paced");
    }

    #[test]
    fn empty_read_set_retry_surfaces_would_block_forever() {
        let inst = Instance::default();
        let mut fake = Scripted::new(&inst);
        fake.reads.clear();
        let r: Result<(), _> = run(&mut fake, |_| Err(Abort::new(AbortReason::ExplicitRetry)));
        assert_eq!(r.unwrap_err(), RunError::WouldBlockForever { attempts: 1 });
        let snap = inst.stats.snapshot();
        assert_eq!(snap.explicit_retries(), 1, "still filed as a retry");
        assert_eq!(snap.commits, 0);
        let msg = RunError::WouldBlockForever { attempts: 1 }.to_string();
        assert!(msg.contains("empty read set"), "{msg}");
    }

    #[test]
    fn pending_alternative_turns_a_retry_into_a_charged_conflict() {
        // Under an `or_else` frame a retry must alternate, not park: it
        // is charged and paced like a conflict (yet still filed as a
        // retry), even with nothing read.
        let inst = Instance::new(StmConfig::default().with_max_retries(1));
        let _alt = wait::AlternativeGuard::new();
        let r = run_failing(&inst, AbortReason::ExplicitRetry, u32::MAX, ());
        assert_eq!(
            r.unwrap_err(),
            RunError::RetriesExhausted {
                attempts: 2,
                last: AbortReason::ExplicitRetry
            }
        );
        assert_eq!(inst.stats.snapshot().retry_parks, 0);
    }

    #[test]
    fn conflicts_between_waits_are_still_charged() {
        // Budget 1: wait, conflict, conflict -> the second conflict
        // exhausts (charged 2 > 1) even though a wait sat in between.
        let inst = Instance::new(StmConfig::default().with_max_retries(1));
        let mut step = 0;
        let r: Result<(), _> = run(&mut Scripted::new(&inst), |_| {
            step += 1;
            Err(Abort::new(match step {
                1 => AbortReason::ExplicitRetry,
                _ => AbortReason::LockConflict,
            }))
        });
        assert_eq!(
            r.unwrap_err(),
            RunError::RetriesExhausted {
                attempts: 3,
                last: AbortReason::LockConflict
            }
        );
        assert_eq!(inst.stats.snapshot().aborts(), 2);
        assert_eq!(inst.stats.snapshot().explicit_retries(), 1);
    }

    #[test]
    fn waits_reset_the_backstop_loss_streak() {
        // A full streak of conflicts up to the threshold (no park), a wait
        // (the streak resets), the same streak again, commit. Without the
        // reset the second streak would park.
        let inst = Instance::default();
        let streak = u64::from(PROGRESS_PARK_AFTER);
        let mut step = 0;
        run(&mut Scripted::new(&inst), |_| {
            step += 1;
            match step {
                s if s == streak + 1 => Err(Abort::new(AbortReason::ExplicitRetry)),
                s if s <= 2 * streak + 1 => Err(Abort::new(AbortReason::LockConflict)),
                _ => Ok(()),
            }
        })
        .unwrap();
        assert_eq!(inst.stats.snapshot().aborts(), 2 * streak);
        assert_eq!(inst.stats.snapshot().progress_parks, 0);
    }

    /// A trace sink and commit hook logging into one shared order.
    #[derive(Default)]
    struct Recorder(Mutex<Vec<String>>);

    impl Recorder {
        fn push(&self, event: &str) {
            self.0.lock().unwrap().push(event.into());
        }
        fn take(&self) -> Vec<String> {
            core::mem::take(&mut *self.0.lock().unwrap())
        }
    }

    impl TraceSink for Recorder {
        fn begin(&self, _: TraceStamp, _: u64, _: u64) {}
        fn op(&self, _: u64, _: u64, _: usize, _: TraceOp) {}
        fn acquire(&self, _: u64, _: u64, _: usize) {}
        fn release(&self, _: u64, _: u64, _: usize) {}
        fn commit(&self, _: u64, _: u64) {
            self.push("commit event");
        }
        fn abort(&self, _: u64, _: u64) {
            self.push("abort event");
        }
    }

    impl CommitHook for Recorder {
        fn on_commit(&self, record: &WriteRecord<'_>) {
            let mut pairs = 0;
            record.for_each(&mut |_, _| pairs += 1);
            assert_eq!(record.len(), pairs, "len() is the number of pairs");
            self.push("hook");
        }
    }

    impl DurableLog for Recorder {
        fn wait_durable(&self, seq: u64) {
            self.push(&format!("await {seq}"));
        }
        fn wait_observed(&self, observed: u64) {
            self.push(&format!("await observed {observed}"));
        }
    }

    /// A hook that stages every commit as record 3 of the recorder.
    struct Staging(Arc<Recorder>);

    impl CommitHook for Staging {
        fn on_commit(&self, record: &WriteRecord<'_>) {
            self.0.push("stage");
            record.defer(&self.0, 3);
        }
    }

    fn recorded_config(rec: &Arc<Recorder>) -> StmConfig {
        StmConfig::default()
            .with_trace_sink(rec.clone())
            .with_commit_hook(rec.clone())
    }

    #[test]
    fn commit_validation_failure_releases_every_lock_and_aborts_once() {
        let rec = Arc::new(Recorder::default());
        let inst = Instance::new(recorded_config(&rec));
        let mut fake = Scripted::new(&inst);
        fake.commit_failures = 1;
        run(&mut fake, |tx| {
            let t = tx.at.tracer().expect("sink configured");
            t.op(0xD1CE, TraceOp::Read(0));
            Ok(())
        })
        .unwrap();
        assert_eq!(fake.rollbacks, 1, "one rollback per failed attempt");
        assert_eq!(fake.locks_held, 0);
        assert_eq!(rec.take(), ["abort event", "commit event"]);
        let snap = inst.stats.snapshot();
        assert_eq!((snap.commits, snap.aborts()), (1, 1));
    }

    #[test]
    fn publish_orders_hook_notify_release_commit_event() {
        let rec = Arc::new(Recorder::default());
        let inst = Instance::new(recorded_config(&rec));
        let writes = [(0xFEED_usize, 5_u64), (0xF00D, 6)];
        let publish = |len: usize| {
            let mut at = Attempt::new(&inst);
            at.restart();
            at.tracer()
                .expect("sink configured")
                .op(writes[0].0, TraceOp::Write(5));
            at.publish(
                7,
                &mut (),
                len,
                |(), f| {
                    rec.push("iterate");
                    writes[..len].iter().for_each(|&(loc, word)| f(loc, word));
                },
                |()| rec.push("release"),
                |()| 0,
            );
        };
        // Publish from inside a waiter's own re-validation — registered,
        // not yet parked — so the notify step has a live waiter to walk
        // the writes for; its token then ends the park at once.
        let woken = wait::wait_for_locations(
            &mut [writes[1].0].into_iter(),
            &|| {
                publish(2);
                true
            },
            1,
            &inst.stats,
        );
        assert_eq!(woken, wait::WaitOutcome::Woken, "notify reached the waiter");
        assert_eq!(
            rec.take(),
            // The hook iterates once (its pair count), then notify does.
            ["iterate", "hook", "iterate", "release", "commit event"]
        );
        // Read-only: neither hook nor notify, still release and the event.
        publish(0);
        assert_eq!(rec.take(), ["release", "commit event"]);
    }

    #[test]
    fn publish_awaits_durability_after_the_commit_event() {
        let rec = Arc::new(Recorder::default());
        let inst = Instance::new(
            StmConfig::default()
                .with_trace_sink(rec.clone())
                .with_commit_hook(Arc::new(Staging(rec.clone()))),
        );
        let publish = |len: usize| {
            let mut at = Attempt::new(&inst);
            at.restart();
            at.tracer()
                .expect("sink configured")
                .op(0xFEED, TraceOp::Write(5));
            at.publish(
                7,
                &mut (),
                len,
                |(), f| f(0xFEED, 5),
                |()| rec.push("release"),
                |()| {
                    rec.push("bound what it read");
                    6
                },
            );
        };
        // No log bound yet: nothing to await.
        publish(0);
        assert_eq!(rec.take(), ["release", "commit event"]);
        // A commit that stages waits for its own record, after everything
        // else, with nothing held.
        publish(1);
        assert_eq!(rec.take(), ["stage", "release", "commit event", "await 3"]);
        // One that stages nothing waits for what it observed.
        publish(0);
        assert_eq!(
            rec.take(),
            [
                "release",
                "commit event",
                "bound what it read",
                "await observed 6"
            ]
        );
    }

    /// A runner over a fresh [`ShortToy`](toy::ShortToy).
    fn short_toy() -> Atomic<ShortToy> {
        Atomic::new(ShortToy::default())
    }

    /// [`Atomic::short_read`] with `between` run between the collect's two
    /// passes.
    fn short_read_between(
        at: &Atomic<ShortToy>,
        word: OptionWord<'static>,
        between: impl FnOnce(),
    ) -> Option<u64> {
        short_read_with(at.instance(), word, between)
            .unwrap_or_else(|| at.run(Policy::Regular, |tx| word.read(tx)))
    }

    /// A present optional word holding `value`, at version 0.
    fn present_word(value: u64) -> OptionWord<'static> {
        OptionWord {
            present: Box::leak(Box::new(TVarCore::new(1))),
            value: Box::leak(Box::new(TVarCore::new(value))),
        }
    }

    /// What a committing writer does to `core`: lock, store, release at
    /// `version`.
    fn commit_word(core: &TVarCore, word: u64, version: u64) {
        let LockState::Unlocked { version: at } = core.lock().load() else {
            panic!("scripted commit onto a locked word");
        };
        assert!(core.lock().try_lock_at(at, 77));
        core.store_value(word);
        core.lock().unlock_to(version);
    }

    #[test]
    fn a_short_read_is_served_by_the_double_collect_alone() {
        let at = short_toy();
        let word = present_word(5);
        assert_eq!(at.short_read(word), Some(5));
        word.present.store_value(0);
        assert_eq!(at.short_read(word), None, "absent");
        assert_eq!(at.backend().runs(), 0, "no transaction ran");
        assert_eq!(at.stats().commits, 2, "each read counts a commit");
    }

    #[test]
    fn a_short_read_of_a_locked_word_falls_back_and_returns_the_committed_value() {
        let at = short_toy();
        let word = present_word(5);
        // A writer holds the value word and has written in place.
        assert!(word.value.lock().try_lock_at(0, 77));
        word.value.store_value(9);
        *at.backend().before_run.lock().unwrap() =
            Some(Box::new(move || word.value.lock().unlock_to(3)));
        assert_eq!(at.short_read(word), Some(9));
        assert_eq!(
            at.backend().runs(),
            1,
            "the locked word sent it to a full run"
        );
        assert_eq!(at.stats().commits, 1);
    }

    #[test]
    fn a_version_that_moves_between_the_collects_falls_back() {
        let at = short_toy();
        let word = present_word(5);
        let got = short_read_between(&at, word, || commit_word(word.value, 6, 4));
        assert_eq!(got, Some(6), "the committed value, not the collected one");
        assert_eq!(at.backend().runs(), 1);
        // With nothing moving, the same read needs no run.
        assert_eq!(short_read_between(&at, word, || {}), Some(6));
        assert_eq!(at.backend().runs(), 1);
    }

    #[test]
    fn a_lock_lost_during_a_short_update_falls_back_and_applies_to_the_committed_value() {
        let at = short_toy();
        let word = present_word(5);
        let racer_took = Cell::new(false);
        let decisions = Cell::new(0);
        // The decision runs between the collect and the locks: there a
        // racing writer takes the value word, the one word a SET of a
        // present key locks, and writes 8.
        let increment = |cur: Option<u64>| {
            decisions.set(decisions.get() + 1);
            if !racer_took.replace(true) {
                assert!(word.value.lock().try_lock_at(0, 77));
                word.value.store_value(8);
            }
            Some(Some(cur.map_or(0, |v| v + 1)))
        };
        *at.backend().before_run.lock().unwrap() =
            Some(Box::new(move || word.value.lock().unlock_to(5)));
        assert_eq!(at.short_update(word, &increment), Some(8));
        assert_eq!(
            at.backend().runs(),
            1,
            "the lost lock sent it to a full run"
        );
        assert_eq!(decisions.get(), 2, "decided again on the committed value");
        assert_eq!(word.value.value_unsync(), 9);
        assert_eq!(
            word.present.lock().raw(),
            0,
            "the word only read was never locked"
        );
        assert_eq!(at.stats().commits, 1);
    }

    #[test]
    fn a_short_update_commits_at_a_stamp_and_a_no_op_commits_read_only() {
        let at = short_toy();
        let word = present_word(5);
        let before = at.clock().now();
        assert_eq!(at.short_update(word, &|_| Some(None)), Some(5));
        let wv = at.clock().now();
        assert_eq!(wv, before + 1, "one commit stamp");
        assert_eq!(word.present.read_consistent(), Ok((0, wv)), "deleted");
        assert_eq!(
            word.value.read_consistent(),
            Ok((5, 0)),
            "the word only read keeps its version"
        );
        assert_eq!(at.short_update(word, &|_| None), None);
        assert_eq!(at.clock().now(), wv, "a no-op takes no stamp");
        assert_eq!(at.backend().runs(), 0);
        assert_eq!(at.stats().commits, 2);
    }

    #[test]
    fn short_operations_end_in_the_publish_tail() {
        let rec = Arc::new(Recorder::default());
        let at = Atomic::new(ShortToy::with_config(recorded_config(&rec)));
        let word = present_word(5);
        assert_eq!(at.short_update(word, &|_| Some(Some(6))), Some(5));
        assert_eq!(rec.take(), ["hook", "commit event"]);
        assert_eq!(at.short_read(word), Some(6));
        assert_eq!(rec.take(), ["commit event"], "a read fires no hook");
        assert_eq!(at.short_update(word, &|_| None), Some(6));
        assert_eq!(rec.take(), ["commit event"], "nor does a no-op");
        assert_eq!(at.backend().runs(), 0);
    }

    /// `n` present optional words, word `j` holding `j`; its presence word
    /// at version `2j + 1`, its value word at `2j + 2`.
    fn present_words(n: usize) -> Vec<OptionWord<'static>> {
        (0..n)
            .map(|j| {
                let word = present_word(j as u64);
                commit_word(word.present, 1, 2 * j as u64 + 1);
                commit_word(word.value, j as u64, 2 * j as u64 + 2);
                word
            })
            .collect()
    }

    /// Add one to every present word.
    fn bump_each(_: usize, cur: Option<u64>) -> Option<Option<u64>> {
        Some(cur.map(|v| v + 1))
    }

    /// What every word holds now.
    fn values(words: &[OptionWord<'static>]) -> Vec<u64> {
        words.iter().map(|w| w.value.value_unsync()).collect()
    }

    /// [`Atomic::short_update_each`] with `between` run between the
    /// collect's two passes.
    fn short_update_between(
        at: &Atomic<ShortToy>,
        words: &[OptionWord<'static>],
        decide: &mut impl FnMut(usize, Option<u64>) -> Option<Option<u64>>,
        between: impl FnOnce(),
    ) {
        let served =
            short_update_with::<SHORT_CAPACITY>(at.instance(), words, &mut *decide, between);
        if !served {
            at.run(Policy::Regular, |tx| {
                for (i, word) in words.iter().enumerate() {
                    word.update(tx, |cur| decide(i, cur))?;
                }
                Ok(())
            });
        }
    }

    #[test]
    fn a_full_capacity_update_is_served_short_at_one_stamp() {
        let at = short_toy();
        let words = present_words(SHORT_CAPACITY);
        let before = at.clock().now();
        at.short_update_each(&words, &mut bump_each);
        let wv = at.clock().now();
        assert_eq!(wv, before + 1, "one commit stamp");
        assert_eq!(
            values(&words),
            (1..=SHORT_CAPACITY as u64).collect::<Vec<_>>()
        );
        for w in &words {
            assert_eq!(w.value.lock().load(), LockState::Unlocked { version: wv });
        }
        assert_eq!(at.backend().runs(), 0, "no transaction ran");
        assert_eq!(at.stats().commits, 1, "one commit");
    }

    #[test]
    fn an_update_over_capacity_falls_back() {
        let at = short_toy();
        let words = present_words(SHORT_CAPACITY + 1);
        at.short_update_each(&words, &mut bump_each);
        assert_eq!(
            values(&words),
            (1..=SHORT_CAPACITY as u64 + 1).collect::<Vec<_>>()
        );
        assert_eq!(at.backend().runs(), 1);
        assert_eq!(at.stats().commits, 1);
    }

    #[test]
    fn an_update_over_a_locked_word_falls_back_and_applies_to_the_committed_value() {
        let at = short_toy();
        let words = present_words(4);
        // A writer holds word 2's value word and has written in place.
        let held = words[2].value;
        assert!(held.lock().try_lock_at(6, 77));
        held.store_value(20);
        *at.backend().before_run.lock().unwrap() = Some(Box::new(move || held.lock().unlock_to(9)));
        at.short_update_each(&words, &mut bump_each);
        assert_eq!(values(&words), [1, 2, 21, 4]);
        assert_eq!(
            at.backend().runs(),
            1,
            "the locked word sent it to a full run"
        );
    }

    #[test]
    fn an_update_whose_word_moves_between_the_collects_falls_back() {
        let at = short_toy();
        let words = present_words(4);
        let moved = words[1].value;
        short_update_between(&at, &words, &mut bump_each, || commit_word(moved, 10, 9));
        assert_eq!(
            values(&words),
            [1, 11, 3, 4],
            "the committed value, not the collected one"
        );
        assert_eq!(at.backend().runs(), 1);
        // With nothing moving, the same update needs no run.
        short_update_between(&at, &words, &mut bump_each, || {});
        assert_eq!(values(&words), [2, 12, 4, 5]);
        assert_eq!(at.backend().runs(), 1);
    }

    #[test]
    fn a_lock_lost_mid_lock_pass_falls_back_and_gives_back_every_lock_taken() {
        let at = short_toy();
        let words = present_words(4);
        let cores: Vec<&'static TVarCore> =
            words.iter().flat_map(|w| [w.present, w.value]).collect();
        let versions: Vec<u64> = (1..=8).collect();
        // The decision runs between the collect and the lock pass: there a
        // racing writer takes the word that locks last, the last row's
        // value word.
        let last = *cores.last().unwrap();
        let racer_took = Cell::new(false);
        let mut decide = |i: usize, cur: Option<u64>| {
            if !racer_took.replace(true) {
                assert!(last.lock().try_lock_at(last.lock().raw(), 77));
            }
            bump_each(i, cur)
        };
        *at.backend().before_run.lock().unwrap() = Some(Box::new(move || {
            for (core, &version) in cores.iter().zip(&versions) {
                if core.id() != last.id() {
                    let state = core.lock().load();
                    assert_eq!(
                        state,
                        LockState::Unlocked { version },
                        "given back at its version"
                    );
                }
            }
            last.lock().unlock_to(60);
        }));
        at.short_update_each(&words, &mut decide);
        assert_eq!(
            at.backend().runs(),
            1,
            "the lost lock sent it to a full run"
        );
        assert_eq!(values(&words), [1, 2, 3, 4]);
        assert_eq!(at.stats().commits, 1);
    }

    /// A hook that records, at each commit it stages, which of `words`
    /// are locked.
    struct LockProbe {
        words: Vec<&'static TVarCore>,
        seen: Mutex<Vec<Vec<bool>>>,
    }

    impl CommitHook for LockProbe {
        fn on_commit(&self, _: &WriteRecord<'_>) {
            let locked = |w: &&TVarCore| matches!(w.lock().load(), LockState::Locked { .. });
            let states = self.words.iter().map(locked).collect();
            self.seen.lock().unwrap().push(states);
        }
    }

    #[test]
    fn an_update_locks_only_the_words_it_stores() {
        let words = present_words(3);
        commit_word(words[2].present, 0, 7);
        let probe = Arc::new(LockProbe {
            words: words.iter().flat_map(|w| [w.present, w.value]).collect(),
            seen: Mutex::default(),
        });
        let at = Atomic::new(ShortToy::with_config(
            StmConfig::default().with_commit_hook(probe.clone()),
        ));
        // A SET of a present word stores its value word, a DEL of a
        // present word its presence word, and an insert both.
        at.short_update_each(&words, &mut |i, cur| match i {
            0 => Some(cur.map(|v| v + 1)),
            1 => Some(None),
            _ => Some(Some(9)),
        });
        assert_eq!(
            *probe.seen.lock().unwrap(),
            [[false, true, true, false, true, true]]
        );
        assert!(words.iter().all(|w| matches!(
            w.present.lock().load(),
            LockState::Unlocked { .. }
        ) && matches!(
            w.value.lock().load(),
            LockState::Unlocked { .. }
        )));
        assert_eq!(values(&words), [1, 1, 9]);
        assert_eq!(at.backend().runs(), 0);
    }

    /// A 2-word update that bumps word 0 and only reads word 1, where
    /// `race` runs once, in word 0's first decision: after the collect,
    /// before the lock pass. Returns how many times word 0 was decided.
    fn bump_first_reading_second(
        at: &Atomic<ShortToy>,
        words: &[OptionWord<'static>],
        race: impl FnOnce(),
    ) -> u32 {
        let mut race = Some(race);
        let mut decisions = 0;
        at.short_update_each(words, &mut |i, cur| {
            if i != 0 {
                return None;
            }
            decisions += 1;
            if let Some(race) = race.take() {
                race();
            }
            bump_each(i, cur)
        });
        decisions
    }

    #[test]
    fn a_word_only_read_that_moves_before_the_validation_sends_the_update_to_a_full_run() {
        let at = short_toy();
        let words = present_words(2);
        let (stored, read) = (words[0].value, words[1].present);
        *at.backend().before_run.lock().unwrap() = Some(Box::new(move || {
            assert_eq!(
                stored.lock().load(),
                LockState::Unlocked { version: 2 },
                "the stored word was given back at its collected version"
            );
            assert_eq!(stored.value_unsync(), 0, "and nothing was written");
        }));
        let decisions = bump_first_reading_second(&at, &words, || commit_word(read, 1, 50));
        assert_eq!(
            at.backend().runs(),
            1,
            "the validation sent it to a full run"
        );
        assert_eq!(decisions, 2);
        assert_eq!(values(&words), [1, 1], "applied once");
        assert_eq!(at.stats().short_fallbacks, 1);
        assert_eq!(at.stats().commits, 1);
    }

    #[test]
    fn a_word_only_read_that_another_short_update_holds_fails_the_validation() {
        // Both updates lock under the short owner: the validation must see
        // the held word as changed, not as its own.
        let at = short_toy();
        let words = present_words(2);
        let read = words[1].present;
        *at.backend().before_run.lock().unwrap() = Some(Box::new(move || read.lock().unlock_to(3)));
        let decisions = bump_first_reading_second(&at, &words, || {
            assert!(read.lock().try_lock_at(3, SHORT_OWNER));
        });
        assert_eq!(
            at.backend().runs(),
            1,
            "the validation sent it to a full run"
        );
        assert_eq!(decisions, 2);
        assert_eq!(values(&words), [1, 1]);
        assert_eq!(at.stats().short_fallbacks, 1);
    }

    #[test]
    fn a_repeated_word_sees_what_its_earlier_occurrences_planned() {
        let at = short_toy();
        let (a, b) = (present_word(5), present_word(7));
        a.present.store_value(0);
        let mut seen = Vec::new();
        at.short_update_each(&[a, b, a], &mut |i, cur| {
            seen.push(cur);
            match i {
                0 => Some(Some(10)),
                1 => Some(Some(20)),
                _ => None,
            }
        });
        assert_eq!(seen, [None, Some(7), Some(10)]);
        assert_eq!((a.present.value_unsync(), a.value.value_unsync()), (1, 10));
        assert_eq!(b.value.value_unsync(), 20);
        assert_eq!(at.backend().runs(), 0, "a repeated word is served short");
    }

    #[test]
    fn an_update_that_writes_nothing_takes_no_stamp_and_no_lock() {
        let at = short_toy();
        let words = present_words(4);
        let before = at.clock().now();
        at.short_update_each(&words, &mut |_, _| None);
        assert_eq!(at.clock().now(), before, "no stamp");
        for (j, w) in words.iter().enumerate() {
            assert_eq!(w.value.lock().raw(), 2 * j as u64 + 2, "never locked");
        }
        assert_eq!(at.backend().runs(), 0);
        assert_eq!(at.stats().commits, 1, "a read-only commit");
    }
}
