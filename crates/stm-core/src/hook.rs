//! The commit hook — the durability/replication seam of every backend.
//!
//! A durable commit takes two steps, split around the release of its
//! write locks:
//!
//! 1. **Stage**, under the locks. A [`CommitHook`] observes the write set
//!    of each top-level *update* commit **after** commit-time validation
//!    has succeeded (the transaction is logically committed and can no
//!    longer abort) and **before** any of its write locks are released.
//!    A durable hook encodes the record, enqueues it and takes its log
//!    sequence number there — no I/O and no blocking wait. Because the
//!    committer still holds every write lock while `on_commit` runs, no
//!    later transaction can lock — let alone commit — a conflicting write
//!    set until the hook returns:
//!
//!    > For any location X, the order in which `on_commit` observes
//!    > writes of X equals the order in which those transactions
//!    > committed.
//!
//!    That per-location ordering is exactly what a write-ahead log needs
//!    to be replayable (see the `durable` crate), and what a replication
//!    stream needs to be appliable in order.
//! 2. **Await**, after the release. The hook leaves the sequence number
//!    it staged in the commit's slot ([`WriteRecord::defer`]), and
//!    [`Attempt::publish`](crate::driver::Attempt::publish) drains it once
//!    the locks are released: the committer blocks in
//!    [`DurableLog::wait_durable`] until its record is durable, and only
//!    then does its `run` return. The slot is owned by stm-core, so a
//!    hook wrapper that forwards nothing but `on_commit` keeps both steps.
//!
//! Releasing the locks before the record is durable lets other
//! transactions observe a value that a crash could still take back. What
//! keeps that from escaping is the log's order and the rule for commits
//! that **stage nothing** (read-only, or writing only locations the hook
//! does not log): such a commit still waits, in
//! [`DurableLog::wait_observed`], until every staged record it could have
//! observed is durable. A reader only sees a word after its writer
//! released it, and the writer staged before releasing, so that record is
//! already in the log when the reader asks. The backend bounds what the
//! commit observed by the highest word version it read (`u64::MAX` when
//! it has no usable versions, which waits for everything staged before the
//! commit — always sound). A commit that did stage waits for its own
//! record, and a log that makes records durable in sequence order makes
//! everything staged before it — everything it observed — durable first.
//!
//! Contract, in full:
//!
//! * `on_commit` fires exactly once per committed **top-level update**
//!   transaction — never for read-only commits, never for child
//!   (composed) commits (their writes surface in the enclosing
//!   top-level record), and never for attempts that abort after the
//!   hook's backend decided to fire it (it fires strictly after the
//!   point of no return).
//! * The [`WriteRecord`] borrows the backend's own write bookkeeping;
//!   it is only valid for the duration of the call. Iterate it, don't
//!   store it.
//! * Every backend reports each written location once, with its
//!   committed word, at a real clock stamp.
//! * `on_commit` is infallible by signature. A hook that hits an I/O
//!   error must degrade on its own terms (the durable WAL poisons
//!   itself and stops logging, keeping the durable state a *prefix* of
//!   the committed history) — it must not panic, because it runs while
//!   the committer holds locks the whole system needs.
//! * `on_commit` must not do I/O or wait for another thread: it runs
//!   under the committer's write locks, so anything slow there holds up
//!   every conflicting transaction. The wait belongs in the
//!   [`DurableLog`] it defers to.
//! * The hook must not call back into the STM (`run`, clock ticks):
//!   it runs under the committer's write locks and any transactional
//!   re-entry can deadlock. The xtask `clock-discipline` lint rejects
//!   clock reads from hook code outside the blessed backend modules.
//!
//! The hook is fired from exactly one place,
//! [`Attempt::publish`](crate::driver::Attempt::publish), which every
//! backend's commit ends in (the xtask `commit-tail` lint rejects a second
//! site). Hook-off stays free: `config.commit_hook` is consulted as an
//! `Option` exactly like the trace sink, so the default `None` branch
//! costs one predictable branch per commit and allocates nothing (the
//! zero-allocation suite pins this).

use core::cell::Cell;
use core::fmt;
use std::sync::{Arc, OnceLock};

/// The write set of one committed top-level update transaction, as the
/// commit hook observes it: the commit version plus an iterable sequence
/// of `(location id, committed word)` pairs.
///
/// The record borrows the committing backend's own write bookkeeping
/// (its write set), so building one allocates nothing; it is
/// valid only for the duration of [`CommitHook::on_commit`].
pub struct WriteRecord<'a> {
    version: u64,
    len: usize,
    writes: &'a WriteIter<'a>,
    /// The committer's slot, when a committer will await what the hook
    /// defers.
    slot: Option<(&'a InstalledHook, &'a Cell<u64>)>,
}

/// The borrowed write iteration behind a [`WriteRecord`]: a repeatable
/// driver that feeds `(location id, committed word)` pairs to the
/// visitor it is handed. Backends pass `&|visit| { ... }` closures over
/// their own write sets.
pub type WriteIter<'a> = dyn Fn(&mut dyn FnMut(usize, u64)) + 'a;

impl<'a> WriteRecord<'a> {
    /// Build a record over a borrowed write iteration.
    ///
    /// `version` is the backend's commit version for this transaction, a
    /// real clock stamp — but **advisory**: adopted lazy-clock stamps may
    /// repeat across non-conflicting commits. Consumers
    /// needing a total order must assign their own sequence numbers (the
    /// durable WAL does). `len` is the number of pairs `writes` yields;
    /// `writes` must be repeatable (callable any number of times,
    /// yielding the same pairs in the same order).
    ///
    /// A record built this way has no committer behind it:
    /// [`defer`](Self::defer) does nothing, and whoever fired the hook
    /// makes the staged record durable itself (a durable log's `flush`).
    #[must_use]
    pub fn new(version: u64, len: usize, writes: &'a WriteIter<'a>) -> Self {
        Self {
            version,
            len,
            writes,
            slot: None,
        }
    }

    /// The record of a commit through `installed`, whose committer awaits
    /// the sequence number the hook defers into `staged`.
    pub(crate) fn awaited_by(
        mut self,
        installed: &'a InstalledHook,
        staged: &'a Cell<u64>,
    ) -> Self {
        self.slot = Some((installed, staged));
        self
    }

    /// The backend's commit version (advisory — see [`WriteRecord::new`]).
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of `(location, word)` pairs [`for_each`](Self::for_each)
    /// yields: the number of distinct locations written.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the record carries no writes. Backends never fire the
    /// hook for read-only commits, so hooks should not observe this —
    /// it exists for defensive consumers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Visit every `(location id, committed word)` pair, in the backend's
    /// write order. Repeatable: a hook may take a counting pass before an
    /// encoding pass.
    pub fn for_each(&self, f: &mut dyn FnMut(usize, u64)) {
        (self.writes)(f);
    }

    /// Leave the committer the step that follows the release of its
    /// locks: wait until record `seq` of `log` is durable. `seq == 0`
    /// says this commit staged nothing in `log` (its writes were not
    /// logged, or the log is poisoned), and the committer then waits for
    /// what it observed instead ([`DurableLog::wait_observed`]).
    ///
    /// The first call through an installed hook also makes `log` the one
    /// every later commit through that hook that stages nothing waits
    /// on, read-only commits included. Without a committer behind the
    /// record (see [`new`](Self::new)) this does nothing.
    pub fn defer<L: DurableLog + 'static>(&self, log: &Arc<L>, seq: u64) {
        if let Some((installed, staged)) = self.slot {
            installed
                .log
                .get_or_init(|| Arc::clone(log) as Arc<dyn DurableLog>);
            staged.set(seq);
        }
    }
}

impl fmt::Debug for WriteRecord<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WriteRecord")
            .field("version", &self.version)
            .field("len", &self.len)
            .finish_non_exhaustive()
    }
}

/// Observer of committed write sets — the seam behind the opt-in durable
/// mode (and, later, replication). See the module docs for the exact
/// firing point and ordering contract.
pub trait CommitHook: Send + Sync {
    /// Called once per committed top-level update transaction, after
    /// validation succeeded and before the committer's write locks are
    /// released. Must not panic, must not block on I/O or another thread,
    /// and must not re-enter the STM; a hook that needs the committer to
    /// wait hands it the wait through [`WriteRecord::defer`].
    fn on_commit(&self, record: &WriteRecord<'_>);
}

/// A log whose records become durable in sequence order — what a
/// committer waits on after releasing its locks (see the module docs).
pub trait DurableLog: Send + Sync {
    /// Block until record `seq` and every record staged before it are
    /// durable, or until the log knows they never will be (it is
    /// poisoned; it reports that on its own terms).
    fn wait_durable(&self, seq: u64);

    /// Block until every record staged with a commit version at most
    /// `observed` is durable (`u64::MAX`: every record staged so far),
    /// with the same failure behaviour as
    /// [`wait_durable`](Self::wait_durable). Must return at once when no
    /// such record is pending: a reader of durable words never waits.
    fn wait_observed(&self, observed: u64);
}

/// A commit hook as an STM configuration holds it: the hook, plus the
/// [`DurableLog`] it defers to, bound by its first
/// [`WriteRecord::defer`]. Every configuration cloned from the one the
/// hook was attached to shares this binding.
pub struct InstalledHook {
    hook: Arc<dyn CommitHook>,
    log: OnceLock<Arc<dyn DurableLog>>,
}

impl InstalledHook {
    /// Install `hook`; no log is bound yet.
    #[must_use]
    pub fn new(hook: Arc<dyn CommitHook>) -> Self {
        Self {
            hook,
            log: OnceLock::new(),
        }
    }

    /// The installed hook.
    #[must_use]
    pub fn hook(&self) -> &dyn CommitHook {
        &*self.hook
    }

    /// The await step of a commit through this hook, after its release:
    /// wait for the record it `staged` (0: none), or else for everything
    /// it observed (`observed` yields the highest word version it read,
    /// `u64::MAX` when unknown). Nothing to do until a log is bound.
    pub(crate) fn await_durable(&self, staged: u64, observed: impl FnOnce() -> u64) {
        if let Some(log) = self.log.get() {
            match staged {
                0 => log.wait_observed(observed()),
                seq => log.wait_durable(seq),
            }
        }
    }
}

impl fmt::Debug for InstalledHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InstalledHook")
            .field("log_bound", &self.log.get().is_some())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    type Observed = (u64, Vec<(usize, u64)>);

    struct Collect(Mutex<Vec<Observed>>);

    impl CommitHook for Collect {
        fn on_commit(&self, record: &WriteRecord<'_>) {
            let mut pairs = Vec::new();
            record.for_each(&mut |id, word| pairs.push((id, word)));
            assert_eq!(pairs.len(), record.len());
            self.0.lock().unwrap().push((record.version(), pairs));
        }
    }

    #[test]
    fn record_iterates_borrowed_writes_repeatably() {
        let writes = [(7usize, 70u64), (9, 90)];
        let iter = |f: &mut dyn FnMut(usize, u64)| {
            for &(id, w) in &writes {
                f(id, w);
            }
        };
        let rec = WriteRecord::new(3, writes.len(), &iter);
        assert_eq!(rec.version(), 3);
        assert_eq!(rec.len(), 2);
        assert!(!rec.is_empty());
        let hook = Collect(Mutex::new(Vec::new()));
        hook.on_commit(&rec);
        hook.on_commit(&rec); // repeatable
        let got = hook.0.lock().unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], (3, vec![(7, 70), (9, 90)]));
        assert_eq!(got[0], got[1]);
    }

    #[test]
    fn empty_record_debugs_and_reports_empty() {
        let iter = |_f: &mut dyn FnMut(usize, u64)| {};
        let rec = WriteRecord::new(0, 0, &iter);
        assert!(rec.is_empty());
        let dbg = format!("{rec:?}");
        assert!(dbg.contains("WriteRecord"), "{dbg}");
    }

    /// A log that only records what it was asked to wait for.
    #[derive(Default)]
    struct Waits(Mutex<Vec<(&'static str, u64)>>);

    impl DurableLog for Waits {
        fn wait_durable(&self, seq: u64) {
            self.0.lock().unwrap().push(("durable", seq));
        }
        fn wait_observed(&self, observed: u64) {
            self.0.lock().unwrap().push(("observed", observed));
        }
    }

    #[test]
    fn a_deferred_sequence_number_is_awaited_and_binds_the_log() {
        let log = Arc::new(Waits::default());
        let installed = InstalledHook::new(Arc::new(Collect(Mutex::new(Vec::new()))));
        installed.await_durable(0, || unreachable!("no log bound yet"));
        let iter = |_f: &mut dyn FnMut(usize, u64)| {};
        let staged = Cell::new(0);
        WriteRecord::new(1, 0, &iter)
            .awaited_by(&installed, &staged)
            .defer(&log, 7);
        installed.await_durable(staged.get(), || unreachable!("it staged"));
        // A commit that staged nothing waits for what it observed.
        installed.await_durable(0, || 41);
        // A record without a committer defers nothing.
        WriteRecord::new(1, 0, &iter).defer(&log, 9);
        assert_eq!(*log.0.lock().unwrap(), [("durable", 7), ("observed", 41)]);
        assert!(format!("{installed:?}").contains("log_bound: true"));
    }
}
