//! The commit hook — the durability/replication seam of every backend.
//!
//! A [`CommitHook`] observes the write set of each top-level *update*
//! commit at the one instant the STM can make a hard ordering promise:
//! **after** commit-time validation has succeeded (the transaction is
//! logically committed and can no longer abort) and **before** any of its
//! write locks are released. Because the committer still holds every
//! write lock while `on_commit` runs, no later transaction can lock —
//! let alone commit — a conflicting write set until the hook returns:
//!
//! > For any location X, the order in which `on_commit` observes writes
//! > of X equals the order in which those transactions committed.
//!
//! That per-location ordering is exactly what a write-ahead log needs to
//! be replayable (see the `durable` crate), and what a replication
//! stream needs to be appliable in order. The price is that the hook
//! runs inside the lock-hold window: a slow hook extends every
//! conflicting transaction's wait, which is why the group-committed WAL
//! batches its fsyncs instead of syncing per commit.
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
//! * Backends with write-per-location logs may report the same location
//!   more than once (boost's compensation log appends per write); every
//!   occurrence carries the location's final committed word, so
//!   replay-in-order is unaffected.
//! * `on_commit` is infallible by signature. A hook that hits an I/O
//!   error must degrade on its own terms (the durable WAL poisons
//!   itself and stops logging, keeping the durable state a *prefix* of
//!   the committed history) — it must not panic, because it runs while
//!   the committer holds locks the whole system needs.
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

use core::fmt;

/// The write set of one committed top-level update transaction, as the
/// commit hook observes it: the commit version plus an iterable sequence
/// of `(location id, committed word)` pairs.
///
/// The record borrows the committing backend's own write bookkeeping
/// (write set or undo log), so building one allocates nothing; it is
/// valid only for the duration of [`CommitHook::on_commit`].
pub struct WriteRecord<'a> {
    version: u64,
    len: usize,
    writes: &'a WriteIter<'a>,
}

/// The borrowed write iteration behind a [`WriteRecord`]: a repeatable
/// driver that feeds `(location id, committed word)` pairs to the
/// visitor it is handed. Backends pass `&|visit| { ... }` closures over
/// their own write sets.
pub type WriteIter<'a> = dyn Fn(&mut dyn FnMut(usize, u64)) + 'a;

impl<'a> WriteRecord<'a> {
    /// Build a record over a borrowed write iteration.
    ///
    /// `version` is the backend's commit version for this transaction —
    /// **advisory**: clock-free backends (boost) pass 0, and adopted lazy
    /// -clock stamps may repeat across non-conflicting commits. Consumers
    /// needing a total order must assign their own sequence numbers (the
    /// durable WAL does). `len` is the number of pairs `writes` yields;
    /// `writes` must be repeatable (callable any number of times,
    /// yielding the same pairs in the same order).
    #[must_use]
    pub fn new(version: u64, len: usize, writes: &'a WriteIter<'a>) -> Self {
        Self {
            version,
            len,
            writes,
        }
    }

    /// The backend's commit version (advisory — see [`WriteRecord::new`]).
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of `(location, word)` pairs [`for_each`](Self::for_each)
    /// yields. May exceed the number of *distinct* locations for backends
    /// with per-write logs (boost).
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
    /// released. Must not panic and must not re-enter the STM.
    fn on_commit(&self, record: &WriteRecord<'_>);
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
}
