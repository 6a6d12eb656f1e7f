// lint:hot-path
//! The `atomic` facade — the typed, composable *user* API of the stack.
//!
//! Everything below this module ([`Stm`]/[`Transaction`], the `dynstm`
//! erasure layer, the backend crates) is a **backend SPI**: the contract
//! STM implementors target. User code — collections, workloads, examples —
//! talks to this facade instead:
//!
//! * [`Atomic`] — the runner. Construct it from any static backend
//!   (`Atomic::new(Tl2::new())`) or from a registry-built
//!   [`Backend`] handle
//!   (`Atomic::new(registry.build_default("oe")?)`); the rest of the code
//!   is identical either way.
//! * [`Tx`] — the in-transaction handle: typed [`get`](Tx::get) /
//!   [`set`](Tx::set) / [`modify`](Tx::modify), plus
//!   [`section`](Tx::section) for the paper's *composition* (a child
//!   transaction under a chosen [`Policy`]) and [`retry`](Tx::retry) for
//!   the Haskell-STM style user-level retry.
//! * [`Atomic::or_else`] — alternative composition: run the first body;
//!   if it calls [`Tx::retry`], abandon the attempt and run the second
//!   body instead, alternating (with backoff) until one commits.
//! * [`Policy`] — which transactional model a transaction or section runs
//!   under: [`Policy::Regular`] (classic, every access protected to
//!   commit) or [`Policy::Elastic`] (the paper's relaxed model, read-only
//!   prefixes may be cut).
//!
//! ## Retry semantics
//!
//! [`Tx::retry`] aborts the current attempt with
//! [`AbortReason::ExplicitRetry`]. The attempt's effects vanish, and then
//! the backend *parks*: it registers the attempt's read set in the
//! per-TVar wait registry ([`crate::wait`]), re-validates (a commit may
//! have raced the registration — the token-semantics parker makes the
//! park return immediately in that window), and sleeps until a
//! committing writer touches one of those locations. The statistics
//! layer files the retry in its own category —
//! [`StatsSnapshot::explicit_retries`] — and the park/wake activity in
//! [`StatsSnapshot::retry_parks`] / [`StatsSnapshot::wakeups`] /
//! [`StatsSnapshot::spurious_wakeups`]. A waiting transaction is *not*
//! losing a conflict, so the wait is charged against neither
//! `max_retries` nor the conflict pacing; a retry whose attempt read **nothing** could never be woken, so it ends
//! the run with [`RunError::WouldBlockForever`] instead of parking.
//!
//! How conflict losers (the *other* failure mode) are arbitrated and
//! paced is the one contention-management policy in [`crate::cm`]:
//! randomized exponential backoff between attempts, SwissTM's two-phase
//! rule at an encounter-time conflict.
//!
//! Under [`Atomic::or_else`], an explicit retry does *not* park: it flips
//! which branch the *next* attempt runs (first ↦ second, second ↦ first),
//! because alternation must make progress through the loop rather than
//! sleep in it. Each branch executes as a complete transaction attempt of
//! its own, so whichever branch commits, commits atomically; a branch
//! that retried left no effects behind (its writes died with the aborted
//! attempt). This is the lock-free approximation of Haskell-STM's
//! `orElse`: instead of blocking on the first branch's read set, the
//! runner alternates branches under the same bounded backoff that paces
//! conflict retries — and those suppressed retries stay charged against
//! `max_retries`, so two branches that both keep retrying still exhaust a
//! bounded budget.
//!
//! ## What the facade costs
//!
//! [`Tx`] borrows the backend's transaction object as one
//! `&mut dyn Transaction` — the trait is `dyn`-compatible, so the vtable
//! points straight at the backend's own impl, for a static backend and a
//! registry-built one alike — and every [`Atomic::run`] reuses the
//! backend's pooled scratch state, so the facade adds **no heap
//! allocation** to the steady-state hot path; the workspace-level
//! `zero_alloc` test pins this down.
//!
//! The hop itself is paid per operation: each [`Tx`] read is an indirect
//! call that returns its `Result<u64, Abort>` through memory, so code
//! generic over [`Transaction`] cannot inline it under the facade and
//! spills its loop state around every call. A long traversal feels that
//! most (the sorted list's `find` makes one read per node, ≈ 2 050 over
//! the benchmark's list walk), an 8-read hash operation hardly (≈ 4 ns).
//! See DESIGN.md, "API layers: facade vs SPI".
//!
//! ```text
//! let at = Atomic::new(backend_registry().build_default("oe")?);
//! let account = TVar::new(100i64);
//! let paid = at.run(Policy::Regular, |tx| {
//!     let balance = tx.get(&account)?;
//!     if balance < 30 {
//!         return tx.retry(); // block (with backoff) until funds arrive
//!     }
//!     tx.set(&account, balance - 30)?;
//!     Ok(balance - 30)
//! });
//! ```
//!
//! (Runnable versions of this example live in the umbrella crate's docs
//! and `examples/quickstart.rs`; this crate cannot depend on the backend
//! crates that implement the SPI.)

use crate::clock::GlobalClock;
use crate::config::StmConfig;
use crate::driver::AbstractLog;
use crate::dynstm::Backend;
use crate::error::{Abort, AbortReason};
use crate::link::Link;
use crate::stats::StatsSnapshot;
use crate::stm::{Instance, RunError, Stm, Transaction, TxKind};
use crate::tvar::{TVar, TVarCore};
use crate::word::Word;

/// Which transactional model a transaction (or a [`Tx::section`]) runs
/// under — the user-facing face of the SPI's [`TxKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Classic transaction: every access stays protected until commit.
    Regular,
    /// Elastic transaction (the paper's Section V relaxation): conflicts
    /// on the read-only prefix may be ignored.
    Elastic,
}

impl Policy {
    /// The SPI kind this policy maps to.
    #[must_use]
    pub fn kind(self) -> TxKind {
        match self {
            Policy::Regular => TxKind::Regular,
            Policy::Elastic => TxKind::Elastic,
        }
    }

    /// The policy a SPI kind corresponds to.
    #[must_use]
    pub fn from_kind(kind: TxKind) -> Self {
        match kind {
            TxKind::Regular => Policy::Regular,
            TxKind::Elastic => Policy::Elastic,
        }
    }
}

/// The in-transaction handle the [`Atomic`] runner passes to transaction
/// bodies.
///
/// `Tx` wraps the backend's transaction object behind one `&mut dyn`
/// indirection, which makes the facade a single type regardless of the
/// backend — static or registry-built. It offers the ergonomic typed API
/// (`get`/`set`/`modify`, `section`, `retry`) and *also* implements the
/// SPI [`Transaction`] trait, so building-block code written against the
/// SPI (e.g. the `cec` collection blocks) composes under it unchanged.
///
/// The `'env` lifetime ties every accessed [`TVar`] to the environment
/// the transaction runs in, exactly as in the SPI: no use-after-free is
/// possible by construction.
pub struct Tx<'env, 'a> {
    inner: &'a mut (dyn Transaction<'env> + 'a),
}

impl core::fmt::Debug for Tx<'_, '_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Tx")
            .field("policy", &self.policy())
            .finish_non_exhaustive()
    }
}

impl<'env, 'a> Tx<'env, 'a> {
    /// Wrap an SPI transaction. Public so SPI-level code (backend tests,
    /// custom runners) can hand their transactions to facade-level
    /// building blocks.
    pub fn new(inner: &'a mut (dyn Transaction<'env> + 'a)) -> Self {
        Self { inner }
    }

    /// Transactionally read `var`.
    ///
    /// # Errors
    /// Propagates the [`Abort`] that ends this attempt.
    pub fn get<T: Word>(&mut self, var: &'env TVar<T>) -> Result<T, Abort> {
        self.inner.read_word(var.core()).map(T::from_word)
    }

    /// Transactionally write `value` to `var` (deferred or eager, per
    /// backend).
    ///
    /// # Errors
    /// Propagates the [`Abort`] that ends this attempt.
    pub fn set<T: Word>(&mut self, var: &'env TVar<T>, value: T) -> Result<(), Abort> {
        self.inner.write_word(var.core(), value.into_word())
    }

    /// Read-modify-write `var` in place; returns the value written.
    ///
    /// # Errors
    /// Propagates the [`Abort`] that ends this attempt.
    pub fn modify<T: Word>(
        &mut self,
        var: &'env TVar<T>,
        f: impl FnOnce(T) -> T,
    ) -> Result<T, Abort> {
        let next = f(self.get(var)?);
        self.set(var, next)?;
        Ok(next)
    }

    /// Run `body` as a *section* — a child transaction under `policy`,
    /// the concurrent composition operator of the paper. The section sees
    /// this transaction's effects; what happens to its protected set on
    /// commit is backend-defined (flat nesting for the classic STMs,
    /// `outherit()` for OE-STM, early release for the deliberately broken
    /// E-STM compatibility mode).
    ///
    /// # Errors
    /// Propagates the [`Abort`] that ends this attempt (the section's
    /// abort unwinds the whole attempt — there is no partial rollback).
    pub fn section<R>(
        &mut self,
        policy: Policy,
        mut body: impl FnMut(&mut Self) -> Result<R, Abort>,
    ) -> Result<R, Abort> {
        self.inner.child_enter(policy.kind())?;
        match body(self) {
            Ok(value) => {
                self.inner.child_commit()?;
                Ok(value)
            }
            Err(abort) => {
                self.inner.child_abort();
                Err(abort)
            }
        }
    }

    /// User-level retry: abandon this attempt because a precondition does
    /// not hold yet, park until a commit touches something this attempt
    /// read, then re-run — or, under [`Atomic::or_else`], switch to the
    /// alternative branch instead of parking.
    ///
    /// # Errors
    /// Always returns `Err` with [`AbortReason::ExplicitRetry`]; propagate
    /// it with `?` or `return`.
    pub fn retry<R>(&mut self) -> Result<R, Abort> {
        Err(Abort::new(AbortReason::ExplicitRetry))
    }

    /// The policy this (sub)transaction currently runs under.
    #[must_use]
    pub fn policy(&self) -> Policy {
        Policy::from_kind(self.inner.kind())
    }
}

// `Tx` is also a full SPI transaction, so SPI-generic building blocks
// (collection traversals, reusable operation snippets) run under the
// facade unchanged.
impl<'env> Transaction<'env> for Tx<'env, '_> {
    fn read_word(&mut self, core: &'env TVarCore) -> Result<u64, Abort> {
        self.inner.read_word(core)
    }
    fn write_word(&mut self, core: &'env TVarCore, word: u64) -> Result<(), Abort> {
        self.inner.write_word(core, word)
    }
    fn read_link(&mut self, link: &'env Link) -> Result<u64, Abort> {
        self.inner.read_link(link)
    }
    fn write_link(&mut self, link: &'env Link, payload: u64) -> Result<(), Abort> {
        self.inner.write_link(link, payload)
    }
    fn child_enter(&mut self, kind: TxKind) -> Result<(), Abort> {
        self.inner.child_enter(kind)
    }
    fn child_commit(&mut self) -> Result<(), Abort> {
        self.inner.child_commit()
    }
    fn child_abort(&mut self) {
        self.inner.child_abort();
    }
    fn kind(&self) -> TxKind {
        self.inner.kind()
    }
    fn abstract_log(&mut self) -> AbstractLog<'_, 'env> {
        self.inner.abstract_log()
    }
}

/// What an [`Atomic`] runner can be built from: the bridge between the
/// facade and the backend SPI.
///
/// Implemented for every static backend (blanket impl over [`Stm`]) and
/// for the registry's erased [`Backend`] handle. User code never calls
/// [`try_exec`](AtomicBackend::try_exec) directly — it goes through
/// [`Atomic`].
pub trait AtomicBackend: Send + Sync {
    /// Human-readable algorithm name ("TL2", "OE-STM", …).
    fn name(&self) -> &'static str;

    /// The instance's clock, counters and configuration.
    fn instance(&self) -> &Instance;

    /// Run `body` transactionally under `policy` with the backend's retry
    /// loop, handing it a facade-level [`Tx`].
    ///
    /// # Errors
    /// Returns [`RunError`] when the retry budget is exhausted.
    fn try_exec<'env, R, F>(&'env self, policy: Policy, body: F) -> Result<R, RunError>
    where
        F: for<'a> FnMut(&mut Tx<'env, 'a>) -> Result<R, Abort>;
}

impl<S: Stm> AtomicBackend for S {
    fn name(&self) -> &'static str {
        Stm::name(self)
    }
    fn instance(&self) -> &Instance {
        Stm::instance(self)
    }
    fn try_exec<'env, R, F>(&'env self, policy: Policy, mut body: F) -> Result<R, RunError>
    where
        F: for<'a> FnMut(&mut Tx<'env, 'a>) -> Result<R, Abort>,
    {
        self.try_run(policy.kind(), |txn: &mut S::Txn<'env>| {
            body(&mut Tx::new(txn))
        })
    }
}

impl AtomicBackend for Backend {
    fn name(&self) -> &'static str {
        Backend::name(self)
    }
    fn instance(&self) -> &Instance {
        Backend::instance(self)
    }
    fn try_exec<'env, R, F>(&'env self, policy: Policy, body: F) -> Result<R, RunError>
    where
        F: for<'a> FnMut(&mut Tx<'env, 'a>) -> Result<R, Abort>,
    {
        Backend::try_run(self, policy.kind(), body)
    }
}

/// The transaction runner of the `atomic` facade.
///
/// Owns a backend — any static STM or a registry-built
/// [`Backend`] — and exposes the user-level
/// execution operators: [`run`](Atomic::run)/[`try_run`](Atomic::try_run)
/// and the alternative composition
/// [`or_else`](Atomic::or_else)/[`try_or_else`](Atomic::try_or_else).
#[derive(Debug)]
pub struct Atomic<B> {
    inner: B,
}

impl<B: AtomicBackend> Atomic<B> {
    /// Wrap a backend into a runner.
    pub fn new(inner: B) -> Self {
        Self { inner }
    }

    /// The wrapped backend (for SPI-level access: registry key,
    /// instrumentation hooks, …).
    #[must_use]
    pub fn backend(&self) -> &B {
        &self.inner
    }

    /// Unwrap the runner.
    pub fn into_inner(self) -> B {
        self.inner
    }

    /// The backend's algorithm name ("TL2", "OE-STM", …).
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.inner.name()
    }

    /// The backend's clock, counters and configuration.
    #[must_use]
    pub fn instance(&self) -> &Instance {
        self.inner.instance()
    }

    /// Snapshot of the commit/abort/retry counters.
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        self.instance().stats.snapshot()
    }

    /// Zero the counters (between benchmark phases).
    pub fn reset_stats(&self) {
        self.instance().stats.reset();
    }

    /// The backend's global version clock.
    #[must_use]
    pub fn clock(&self) -> &GlobalClock {
        &self.instance().clock
    }

    /// The backend's configuration.
    #[must_use]
    pub fn config(&self) -> &StmConfig {
        &self.instance().config
    }

    /// Run `body` transactionally under `policy`, retrying on aborts with
    /// backoff, until commit or until the configured retry budget is
    /// exceeded.
    ///
    /// # Errors
    /// Returns [`RunError`] when `config().max_retries` is exhausted (the
    /// default, unbounded configuration never errors).
    pub fn try_run<'env, R>(
        &'env self,
        policy: Policy,
        body: impl for<'a> FnMut(&mut Tx<'env, 'a>) -> Result<R, Abort>,
    ) -> Result<R, RunError> {
        self.inner.try_exec(policy, body)
    }

    /// Like [`try_run`](Atomic::try_run) but panics if the retry budget is
    /// exhausted (the default, unbounded configuration never panics).
    pub fn run<'env, R>(
        &'env self,
        policy: Policy,
        body: impl for<'a> FnMut(&mut Tx<'env, 'a>) -> Result<R, Abort>,
    ) -> R {
        match self.try_run(policy, body) {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }

    /// Alternative composition: run `first`; whenever the executing branch
    /// calls [`Tx::retry`], abandon that attempt and run the *other*
    /// branch on the next attempt, until one branch commits.
    ///
    /// Each branch executes as a complete transaction attempt, so the
    /// winning branch commits atomically and a branch that retried left
    /// no effects behind. Conflict aborts re-run the *same* branch; only
    /// explicit retries alternate. See the module docs for how this
    /// relates to Haskell-STM's `orElse`.
    ///
    /// # Errors
    /// Returns [`RunError`] when the retry budget is exhausted — e.g. when
    /// both branches keep retrying under a bounded `max_retries`.
    pub fn try_or_else<'env, R>(
        &'env self,
        policy: Policy,
        mut first: impl for<'a> FnMut(&mut Tx<'env, 'a>) -> Result<R, Abort>,
        mut second: impl for<'a> FnMut(&mut Tx<'env, 'a>) -> Result<R, Abort>,
    ) -> Result<R, RunError> {
        let mut alternative = false;
        // While this frame is live the backends suppress parking: an
        // explicit retry must alternate branches, not sleep.
        let _alt = crate::wait::AlternativeGuard::new();
        self.inner.try_exec(policy, move |tx| {
            let r = if alternative { second(tx) } else { first(tx) };
            if let Err(abort) = &r {
                if abort.reason.is_explicit_retry() {
                    alternative = !alternative;
                }
            }
            r
        })
    }

    /// Like [`try_or_else`](Atomic::try_or_else) but panics if the retry
    /// budget is exhausted (the default, unbounded configuration never
    /// panics).
    pub fn or_else<'env, R>(
        &'env self,
        policy: Policy,
        first: impl for<'a> FnMut(&mut Tx<'env, 'a>) -> Result<R, Abort>,
        second: impl for<'a> FnMut(&mut Tx<'env, 'a>) -> Result<R, Abort>,
    ) -> R {
        match self.try_or_else(policy, first, second) {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::toy::ToyStm;

    fn static_runner() -> Atomic<ToyStm> {
        Atomic::new(ToyStm::default())
    }

    fn erased_runner() -> Atomic<Backend> {
        Atomic::new(Backend::from_stm(ToyStm::default()))
    }

    #[test]
    fn get_set_modify_roundtrip_static_and_erased() {
        fn check<B: AtomicBackend>(at: &Atomic<B>) {
            let v = TVar::new(40i64);
            let out = at.run(Policy::Regular, |tx| {
                let x = tx.get(&v)?;
                tx.set(&v, x + 1)?;
                tx.modify(&v, |x| x + 1)
            });
            assert_eq!(out, 42);
            assert_eq!(v.load_atomic(), 42);
            assert_eq!(at.stats().commits, 1);
        }
        check(&static_runner());
        check(&erased_runner());
    }

    #[test]
    fn sections_count_as_child_commits() {
        let at = static_runner();
        let a = TVar::new(0u64);
        let b = TVar::new(0u64);
        at.run(Policy::Regular, |tx| {
            tx.section(Policy::Elastic, |t| t.set(&a, 1))?;
            tx.section(Policy::Regular, |t| t.set(&b, 2))
        });
        assert_eq!((a.load_atomic(), b.load_atomic()), (1, 2));
        assert_eq!(at.stats().child_commits, 2);
    }

    #[test]
    fn retry_reruns_body_and_counts_separately() {
        let at = erased_runner();
        let v = TVar::new(0u64);
        let mut retried = false;
        at.run(Policy::Regular, |tx| {
            // Read-then-write: a retry needs a read to wait on.
            tx.modify(&v, |_| 7)?;
            if !retried {
                retried = true;
                return tx.retry();
            }
            Ok(())
        });
        assert_eq!(v.load_atomic(), 7);
        let snap = at.stats();
        assert_eq!(snap.commits, 1);
        assert_eq!(snap.explicit_retries(), 1);
        assert_eq!(snap.aborts(), 0, "a retry is not a conflict abort");
    }

    #[test]
    fn or_else_falls_through_to_second_branch() {
        let at = static_runner();
        let gate = TVar::new(0u64);
        let out = at.or_else(
            Policy::Regular,
            |tx| {
                // Primary path: requires the gate to be open.
                if tx.get(&gate)? == 0 {
                    return tx.retry();
                }
                Ok("primary")
            },
            |_tx| Ok("fallback"),
        );
        assert_eq!(out, "fallback");
        assert_eq!(at.stats().explicit_retries(), 1);
        assert_eq!(at.stats().commits, 1);
    }

    #[test]
    fn or_else_prefers_first_branch_when_it_commits() {
        let at = erased_runner();
        let mut second_ran = false;
        let out = at.or_else(
            Policy::Regular,
            |_tx| Ok(1),
            |_tx| {
                second_ran = true;
                Ok(2)
            },
        );
        assert_eq!(out, 1);
        assert!(!second_ran, "the alternative must not run");
    }

    #[test]
    fn or_else_alternates_and_discards_retrying_branch_writes() {
        let at = static_runner();
        let v = TVar::new(0u64);
        let mut first_calls = 0u32;
        let out = at.or_else(
            Policy::Regular,
            |tx| {
                first_calls += 1;
                tx.set(&v, 99)?; // must never survive: this branch retries
                if first_calls < 2 {
                    return tx.retry();
                }
                Ok("first-eventually")
            },
            |tx| {
                if tx.get(&v)? == 99 {
                    // A leaked write from the aborted first branch.
                    return Ok("leak");
                }
                tx.retry()
            },
        );
        // Attempt 1: first retries (write rolled back). Attempt 2: second
        // sees v == 0 and retries. Attempt 3: first commits.
        assert_eq!(out, "first-eventually");
        assert_eq!(first_calls, 2);
        assert_eq!(v.load_atomic(), 99);
        assert_eq!(at.stats().explicit_retries(), 2);
    }

    #[test]
    fn or_else_exhausts_budget_when_both_branches_retry() {
        let at = Atomic::new(ToyStm {
            inst: Instance::new(StmConfig::default().with_max_retries(4)),
        });
        let r: Result<(), _> = at.try_or_else(
            Policy::Regular,
            |tx: &mut Tx<'_, '_>| tx.retry(),
            |tx: &mut Tx<'_, '_>| tx.retry(),
        );
        match r {
            Err(RunError::RetriesExhausted { last, .. }) => {
                assert_eq!(last, AbortReason::ExplicitRetry);
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn spi_building_blocks_run_under_the_facade() {
        // A block written against the SPI `Transaction` trait…
        fn bump<'e, T: Transaction<'e>>(tx: &mut T, v: &'e TVar<u64>) -> Result<u64, Abort> {
            let x = tx.read(v)?;
            tx.write(v, x + 1)?;
            Ok(x + 1)
        }
        // …composes unchanged inside a facade section.
        let at = static_runner();
        let v = TVar::new(10u64);
        let out = at.run(Policy::Regular, |tx| {
            tx.section(Policy::Regular, |t| bump(t, &v))
        });
        assert_eq!(out, 11);
        assert_eq!(v.load_atomic(), 11);
    }

    #[test]
    fn facade_semantics_hold_under_every_cm_policy() {
        // retry / or_else / sections: the contention manager only paces,
        // it never changes results or statistics filing.
        let at = Atomic::new(ToyStm::default());
        let v = TVar::new(0u64);
        let out = at.or_else(
            Policy::Regular,
            |tx| {
                if tx.get(&v)? == 0 {
                    return tx.retry();
                }
                Ok("primary")
            },
            |tx| {
                tx.set(&v, 7)?;
                Ok("fallback")
            },
        );
        assert_eq!(out, "fallback");
        assert_eq!(v.load_atomic(), 7);
        let snap = at.stats();
        assert_eq!(snap.commits, 1);
        assert_eq!(snap.explicit_retries(), 1);
        assert_eq!(snap.aborts(), 0, "retry filed as conflict");
        assert_eq!(snap.cm_waits(), 1, "the alternation was paced once");
    }

    #[test]
    fn policy_kind_mapping_roundtrips() {
        for p in [Policy::Regular, Policy::Elastic] {
            assert_eq!(Policy::from_kind(p.kind()), p);
        }
    }
}
