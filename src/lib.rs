//! Umbrella crate for the *Composing Relaxed Transactions* reproduction.
//!
//! Re-exports the whole stack so examples and integration tests can depend
//! on a single crate:
//!
//! * [`stm_core`] — substrate (clock, versioned locks, `TVar`, traits) and
//!   the **`atomic` facade** ([`stm_core::api`]) user code targets
//! * [`stm_tl2`], [`stm_lsa`], [`stm_swiss`] — the baseline STMs
//! * [`oe_stm`] — the paper's contribution: elastic transactions with
//!   outheritance
//! * [`stm_boost`] — transactional boosting with outheritance over any of
//!   those backends (Section VIII's "general principle" claim, executable)
//! * [`histories`] — the executable formal model of Sections II–IV
//! * [`cec`] — the composable collections package of Section VI
//! * [`txkv`] — the service layer: a transactional keyspace
//!   (`GET`/`SET`/`CAS`/`DEL`/`MULTI`) and the key-skew and op-mix load
//!   shapes that drive it
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the system map.

#![forbid(unsafe_code)]

pub use cec;
pub use histories;
pub use oe_stm;
pub use stm_boost;
pub use stm_core;
pub use stm_lsa;
pub use stm_swiss;
pub use stm_tl2;
pub use txkv;

use stm_core::dynstm::BackendRegistry;

/// The paper this repository reproduces.
pub const PAPER: &str = "Gramoli, Guerraoui, Letia: Composing Relaxed Transactions (IPDPS 2013)";

/// Every STM backend this workspace ships, assembled into the runtime
/// name → constructor registry ("tl2", "lsa", "swiss", "oe",
/// "oe-estm-compat"). Boosting is not a backend: a
/// [`BoostedSet`](stm_boost::BoostedSet) runs inside a transaction of any
/// of them. Library users select backends from strings —
/// config files, CLI flags — without naming a concrete STM type, and
/// drive them through the `atomic` facade:
///
/// ```
/// use composing_relaxed_transactions::backend_registry;
/// use composing_relaxed_transactions::stm_core::api::{Atomic, Policy};
/// use composing_relaxed_transactions::stm_core::TVar;
///
/// let at = Atomic::new(backend_registry().build_default("tl2").unwrap());
/// let v = TVar::new(1i64);
/// let out = at.run(Policy::Regular, |tx| {
///     let x = tx.get(&v)?;
///     tx.set(&v, x + 1)?;
///     tx.get(&v)
/// });
/// assert_eq!(out, 2);
/// ```
///
/// An unknown name fails with an error listing what *is* registered:
///
/// ```
/// use composing_relaxed_transactions::backend_registry;
///
/// let err = backend_registry().build_default("tl3").unwrap_err();
/// assert!(err
///     .to_string()
///     .contains("registered backends: oe, oe-estm-compat, lsa, tl2, swiss"));
/// ```
///
/// Conflict arbitration is one policy on every backend, SwissTM's
/// two-phase rule ([`stm_core::cm`]): a conflict loser is paced by
/// exponential backoff, while a precondition wait parks instead, and the
/// statistics tell the two apart:
///
/// ```
/// use composing_relaxed_transactions::backend_registry;
/// use composing_relaxed_transactions::stm_core::api::{Atomic, Policy};
/// use composing_relaxed_transactions::stm_core::TVar;
///
/// let at = Atomic::new(backend_registry().build_default("tl2").unwrap());
/// let v = TVar::new(0u64);
/// let mut retried = false;
/// at.run(Policy::Regular, |tx| {
///     let cur = tx.get(&v)?;
///     if !retried {
///         retried = true;
///         return tx.retry(); // parks on the read set, not CM-paced
///     }
///     tx.set(&v, cur + 1)
/// });
/// assert_eq!(at.stats().explicit_retries(), 1);
/// assert_eq!(at.stats().retry_parks, 1); // a wait parks; it is not a loss
/// assert_eq!(at.stats().cm_waits(), 0); // only conflict losses are paced
/// ```
///
/// The facade's `retry`/`or_else` combinators work over any backend:
///
/// ```
/// use composing_relaxed_transactions::backend_registry;
/// use composing_relaxed_transactions::stm_core::api::{Atomic, Policy};
/// use composing_relaxed_transactions::stm_core::TVar;
///
/// let at = Atomic::new(backend_registry().build_default("oe").unwrap());
/// let gate = TVar::new(0u64);
/// let out = at.or_else(
///     Policy::Regular,
///     |tx| {
///         if tx.get(&gate)? == 0 {
///             return tx.retry(); // closed -> fall through to the alternative
///         }
///         Ok("primary")
///     },
///     |_tx| Ok("fallback"),
/// );
/// assert_eq!(out, "fallback");
/// assert_eq!(at.stats().explicit_retries(), 1);
/// assert_eq!(at.stats().aborts(), 0); // a retry is not a conflict
/// ```
#[must_use]
pub fn backend_registry() -> BackendRegistry {
    let mut registry = BackendRegistry::new();
    oe_stm::register_backends(&mut registry);
    stm_lsa::register_backends(&mut registry);
    stm_tl2::register_backends(&mut registry);
    stm_swiss::register_backends(&mut registry);
    registry
}
