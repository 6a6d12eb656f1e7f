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
//!   what a body that panics leaves behind (nothing: it is rolled back).
//!
//! The xtask `commit-tail` lint keeps it that way: firing the commit
//! hook, `wait::notify_commit` and `wait::wait_for_locations` are allowed
//! in this file only.

use crate::backoff::Backoff;
use crate::cm::{self, PROGRESS_PARK_AFTER};
use crate::error::{Abort, AbortReason};
use crate::hook::{InstalledHook, WriteRecord};
use crate::readset::{ReadEntry, ReadSet};
use crate::scratch::{give_back, SpareVec};
use crate::stm::{Instance, RunError, Transaction};
use crate::ticket::next_ticket;
use crate::trace::AttemptTracer;
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
    /// top-level transaction id.
    #[inline]
    fn restart(&mut self) {
        self.ticket.set(0);
        self.tracer = self
            .inst
            .config
            .trace
            .clone()
            .map(|sink| Box::new(AttemptTracer::begin_top(sink, self.ticket()))); // lint:allow — tracing arm, off by default
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

    /// Undo a failed attempt: restore in-place writes, release every lock
    /// held. Idempotent; called exactly once after any failed attempt,
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
/// sibling crates).
#[cfg(test)]
pub(crate) mod toy {
    use super::{run, AbstractLog, Attempt, TxnEngine};
    use crate::error::Abort;
    use crate::link::{Link, Loc};
    use crate::readset::ReadSet;
    use crate::stm::{Instance, RunError, Stm, Transaction, TxKind};
    use crate::tvar::TVarCore;

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
}

#[cfg(test)]
mod tests {
    use super::*;
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
}
