//! The `Stm` / `Transaction` traits every STM implements — the backend SPI.
//! (The retry loop behind [`Stm::try_run`] is [`driver::run`](crate::driver::run).)
//!
//! The trait surface mirrors the paper's system model (Section II): a
//! transactional memory lets processes begin transactions, invoke operations
//! (here: word reads and writes), and attempt to commit; `child` is the
//! *composition* entry point of Section III — a new operation invoking
//! existing operations in sequence inside a parent transaction.

use crate::clock::GlobalClock;
use crate::config::StmConfig;
use crate::driver::AbstractLog;
use crate::error::{Abort, AbortReason};
use crate::link::Link;
use crate::stats::{StatsSnapshot, StmStats};
use crate::tvar::{TVar, TVarCore};
use crate::word::Word;

/// Which transactional model a (sub)transaction runs under.
///
/// For the classic STMs (TL2, LSA, SwissTM) the two kinds behave
/// identically; for OE-STM, `Elastic` enables the relaxed read-only-prefix
/// semantics of Felber et al.'s elastic transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxKind {
    /// Classic transaction: every access is protected until commit.
    Regular,
    /// Elastic transaction: conflicts on the read-only prefix may be
    /// ignored (the transaction "cuts" itself), as in the paper's Section V.
    Elastic,
}

/// Error returned by [`Stm::try_run`] when the run cannot complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunError {
    /// The transaction lost more than `max_retries` *conflicts*. Genuine
    /// precondition waits (a parked `retry()`) are not charged here — a
    /// blocked transaction is waiting, not losing.
    RetriesExhausted {
        /// Number of attempts performed.
        attempts: u64,
        /// Reason of the final abort.
        last: AbortReason,
    },
    /// The body called `retry()` without having read anything: its read
    /// set is empty, so no commit anywhere could ever change what it
    /// observed — parking would sleep forever. Surfaced as a distinct
    /// error instead of spinning until a watchdog kills the run.
    WouldBlockForever {
        /// Number of attempts performed (the empty-read-set retry ends
        /// the run on the attempt that raised it).
        attempts: u64,
    },
}

impl core::fmt::Display for RunError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RunError::RetriesExhausted { attempts, last } => write!(
                f,
                "transaction failed after {attempts} attempts (last abort: {last})"
            ),
            RunError::WouldBlockForever { attempts } => write!(
                f,
                "retry() with an empty read set after {attempts} attempts: \
                 no commit could ever wake this transaction"
            ),
        }
    }
}

impl std::error::Error for RunError {}

/// An in-flight transaction attempt.
///
/// The `'env` lifetime ties every accessed [`TVar`] to the environment the
/// transaction runs in: variables must outlive the `run` call, which the
/// borrow checker enforces — no use-after-free is possible by construction.
pub trait Transaction<'env> {
    /// Transactionally read the word stored at `core`.
    ///
    /// This is the untyped primitive every STM implements; typed access
    /// goes through the provided [`read`](Transaction::read) wrapper. The
    /// split keeps the trait's required surface free of type parameters, so
    /// the `dynstm` module can erase any transaction behind a
    /// `dyn`-compatible facade.
    fn read_word(&mut self, core: &'env TVarCore) -> Result<u64, Abort>;

    /// Transactionally write `word` to `core` (deferred or eager, per STM).
    fn write_word(&mut self, core: &'env TVarCore, word: u64) -> Result<(), Abort>;

    /// Transactionally read the payload of `link`: one load, validated
    /// like any read. Its version is resolved by the serial-number rule of
    /// [`link`](crate::link).
    fn read_link(&mut self, link: &'env Link) -> Result<u64, Abort>;

    /// Transactionally write `payload` (at most
    /// [`PAYLOAD_MAX`](crate::link::PAYLOAD_MAX)) to `link`. Always
    /// buffered until commit: the payload and its commit version are
    /// published in one store.
    fn write_link(&mut self, link: &'env Link, payload: u64) -> Result<(), Abort>;

    /// Begin a child transaction of `kind` — bookkeeping only; the child's
    /// body then runs against the same transaction object. Callers use the
    /// provided [`child`](Transaction::child) wrapper, which pairs this
    /// with [`child_commit`](Transaction::child_commit) /
    /// [`child_abort`](Transaction::child_abort).
    fn child_enter(&mut self, kind: TxKind) -> Result<(), Abort>;

    /// Commit the innermost open child. What happens to the child's
    /// protected set here is the crux of the paper: classic STMs keep it in
    /// the parent's sets (flat nesting), OE-STM `outherit()`s it, and the
    /// E-STM compatibility mode validates and *releases* it — reproducing
    /// the Fig. 1 atomicity violation.
    fn child_commit(&mut self) -> Result<(), Abort>;

    /// Unwind the innermost open child after its body aborted. The whole
    /// attempt is about to abort; implementations only pop bookkeeping.
    fn child_abort(&mut self);

    /// The kind this (sub)transaction currently runs under.
    fn kind(&self) -> TxKind;

    /// The attempt's abstract-lock log, which a client of the host
    /// transaction writes (see [`Boosted`](crate::driver::Boosted)), with
    /// the attempt's ticket.
    fn abstract_log(&mut self) -> AbstractLog<'_, 'env>;

    /// This attempt's globally unique ticket (lock-owner identity), drawn
    /// on the first call if the attempt has not needed one yet.
    fn ticket(&mut self) -> u64 {
        self.abstract_log().ticket()
    }

    /// Transactionally read `var`.
    fn read<T: Word>(&mut self, var: &'env TVar<T>) -> Result<T, Abort>
    where
        Self: Sized,
    {
        self.read_word(var.core()).map(T::from_word)
    }

    /// Transactionally write `value` to `var` (deferred or eager, per STM).
    fn write<T: Word>(&mut self, var: &'env TVar<T>, value: T) -> Result<(), Abort>
    where
        Self: Sized,
    {
        self.write_word(var.core(), value.into_word())
    }

    /// Run `f` as a *child transaction* of this one — the concurrent
    /// composition operator of the paper. The child sees the parent's
    /// effects; on child commit, what happens to the child's protected set
    /// is the crux of the paper:
    ///
    /// * classic STMs use flat nesting: the child's accesses simply stay in
    ///   the parent's sets, which trivially satisfies outheritance;
    /// * OE-STM executes the child elastically and then `outherit()`s its
    ///   protected set into the parent (Fig. 4);
    /// * E-STM mode (OE-STM with outheritance disabled) *releases* the
    ///   child's protected set, reproducing the paper's Fig. 1 atomicity
    ///   violation.
    fn child<R>(
        &mut self,
        kind: TxKind,
        mut f: impl FnMut(&mut Self) -> Result<R, Abort>,
    ) -> Result<R, Abort>
    where
        Self: Sized,
    {
        self.child_enter(kind)?;
        match f(self) {
            Ok(value) => {
                self.child_commit()?;
                Ok(value)
            }
            Err(abort) => {
                self.child_abort();
                Err(abort)
            }
        }
    }

    /// User-level retry: abandon this attempt because a precondition
    /// does not hold yet. With no `or_else` alternative pending the
    /// backend registers the attempt's read set in the `wait` registry
    /// and *parks* until a committing writer touches one of those
    /// locations, then re-runs the body from scratch.
    ///
    /// Recorded as [`AbortReason::ExplicitRetry`] — its own statistics
    /// category, not a conflict abort, and (unlike a conflict) not
    /// charged against `max_retries` — and it is what
    /// [`Atomic::or_else`](crate::api::Atomic::or_else) intercepts to
    /// switch to the alternative branch.
    fn retry<T>(&mut self) -> Result<T, Abort>
    where
        Self: Sized,
    {
        Err(Abort::new(AbortReason::ExplicitRetry))
    }
}

/// An optional word kept in two transactional words: a **presence** word
/// (1 present, anything else absent) and a **value** word that holds the
/// value while the word is present. A txkv key is one.
///
/// [`read`](Self::read) and [`store`](Self::store) are its transactional
/// accessors, for bodies that compose it with other words;
/// [`Atomic::short_read`](crate::Atomic::short_read) and
/// [`Atomic::short_update`](crate::Atomic::short_update) operate on it
/// alone, for every backend.
#[derive(Debug, Clone, Copy)]
pub struct OptionWord<'env> {
    /// The presence word.
    pub present: &'env TVarCore,
    /// The value word, significant only while present.
    pub value: &'env TVarCore,
}

impl<'env> OptionWord<'env> {
    /// The optional word kept in `present` and `value`.
    #[must_use]
    pub fn new(present: &'env TVar<u64>, value: &'env TVar<u64>) -> Self {
        Self {
            present: present.core(),
            value: value.core(),
        }
    }

    /// Read the state in `tx`: the presence word, then the value word if
    /// present.
    ///
    /// # Errors
    /// Propagates the [`Abort`] that ends this attempt.
    pub fn read<T: Transaction<'env> + ?Sized>(self, tx: &mut T) -> Result<Option<u64>, Abort> {
        if tx.read_word(self.present)? == 1 {
            Ok(Some(tx.read_word(self.value)?))
        } else {
            Ok(None)
        }
    }

    /// Move the state from `cur`, as `tx` read it, to `new`. The presence
    /// word is written only when presence changes, and the value word only
    /// when `new` holds a value.
    ///
    /// # Errors
    /// Propagates the [`Abort`] that ends this attempt.
    pub fn store<T: Transaction<'env> + ?Sized>(
        self,
        tx: &mut T,
        cur: Option<u64>,
        new: Option<u64>,
    ) -> Result<(), Abort> {
        let stores = Self::stores(cur, new);
        for (core, store) in [self.present, self.value].into_iter().zip(stores) {
            if let Some(word) = store {
                tx.write_word(core, word)?;
            }
        }
        Ok(())
    }

    /// What [`store`](Self::store) writes to the presence and the value
    /// word to move the state from `cur` to `new`.
    pub(crate) fn stores(cur: Option<u64>, new: Option<u64>) -> [Option<u64>; 2] {
        let presence = (cur.is_some() != new.is_some()).then_some(u64::from(new.is_some()));
        [presence, new]
    }

    /// A short update as a transaction body: read, decide, store. Returns
    /// the state read.
    ///
    /// # Errors
    /// Propagates the [`Abort`] that ends this attempt.
    pub fn update<T: Transaction<'env> + ?Sized>(
        self,
        tx: &mut T,
        decide: impl FnOnce(Option<u64>) -> Option<Option<u64>>,
    ) -> Result<Option<u64>, Abort> {
        let cur = self.read(tx)?;
        if let Some(new) = decide(cur) {
            self.store(tx, cur, new)?;
        }
        Ok(cur)
    }
}

/// What every STM instance owns besides its algorithm: the global version
/// clock, the commit/abort counters and the configuration.
///
/// Each backend embeds one and hands it out through
/// [`Stm::instance`]; the accessors of [`Stm`], the erased
/// [`Backend`](crate::Backend) and the [`Atomic`](crate::Atomic) runner all
/// read through it, and the [`driver`](crate::driver) takes it per run.
#[derive(Debug, Default)]
pub struct Instance {
    /// The global version clock that timestamps committed state.
    pub clock: GlobalClock,
    /// The commit/abort counters.
    pub stats: StmStats,
    /// The instance's configuration.
    pub config: StmConfig,
}

impl Instance {
    /// A fresh clock and zeroed counters under `config`.
    #[must_use]
    pub fn new(config: StmConfig) -> Self {
        Self {
            config,
            ..Self::default()
        }
    }
}

/// A software transactional memory instance.
pub trait Stm: Send + Sync {
    /// The transaction type, parameterized by the environment lifetime.
    type Txn<'env>: Transaction<'env>
    where
        Self: 'env;

    /// Human-readable algorithm name ("TL2", "LSA", "SwissTM", "OE-STM").
    fn name(&self) -> &'static str;

    /// The instance's clock, counters and configuration.
    fn instance(&self) -> &Instance;

    /// Snapshot of the commit/abort counters.
    fn stats(&self) -> StatsSnapshot {
        self.instance().stats.snapshot()
    }

    /// Zero the counters (between benchmark phases).
    fn reset_stats(&self) {
        self.instance().stats.reset();
    }

    /// The instance's global version clock (needed by non-transactional
    /// setup code that must still publish version bumps, e.g.
    /// [`TVar::store_atomic`]).
    fn clock(&self) -> &GlobalClock {
        &self.instance().clock
    }

    /// The instance's configuration.
    fn config(&self) -> &StmConfig {
        &self.instance().config
    }

    /// Run `f` transactionally, retrying on aborts with exponential backoff,
    /// until commit or until `config().max_retries` is exceeded.
    fn try_run<'env, R>(
        &'env self,
        kind: TxKind,
        f: impl FnMut(&mut Self::Txn<'env>) -> Result<R, Abort>,
    ) -> Result<R, RunError>;

    /// Like [`try_run`](Self::try_run) but panics if the retry budget is
    /// exhausted (the default, unbounded configuration never panics).
    fn run<'env, R>(
        &'env self,
        kind: TxKind,
        f: impl FnMut(&mut Self::Txn<'env>) -> Result<R, Abort>,
    ) -> R {
        match self.try_run(kind, f) {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }
}
