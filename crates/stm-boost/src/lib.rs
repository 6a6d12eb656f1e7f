//! # stm-boost — transactional boosting with outheritance
//!
//! The paper argues (Section VIII) that **outheritance is a general
//! principle**, not something tied to the elastic model: any relaxed
//! synchronization scheme composes iff committing children pass their
//! conflict information to their parent. Its first example is
//! *transactional boosting* (Herlihy & Koskinen, PPoPP 2008), where
//! transactions operate on a linearizable black-box data structure,
//! detect conflicts with **abstract locks** (one per key, since set
//! operations on different keys commute), and roll back with
//! **compensating operations**:
//!
//! > "Although not described in the paper, passing abstract locks from
//! > the child to the parent transaction would make transactional
//! > boosting satisfy outheritance and therefore provide composition."
//!
//! This crate implements exactly that sentence as a client of any host
//! transaction:
//!
//! * [`BaseSet`] — a linearizable concurrent integer set (lock-striped),
//!   standing in for the "separate thread-safe library";
//! * [`AbstractLocks`] — per-key two-phase abstract locks;
//! * [`BoostedSet`] — a boosted set whose `add`/`remove`/`contains` run
//!   inside a transaction of any backend: each takes the key's abstract
//!   lock, applies to the base in place, and logs the lock and the
//!   compensation (`add(k)` ↦ `remove(k)` and vice versa) in the host
//!   attempt's log ([`stm_core::driver::Boosted`]). The host's driver
//!   replays compensations at rollback and releases the locks when the
//!   attempt ends; a committing child leaves both to its parent
//!   (outheritance);
//! * [`BoostedSet::open_nested`] — the contrast: each operation commits
//!   as an open child when it returns, reproducing the open-nesting
//!   composition hazard the paper describes for Moss's model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod base;
pub mod locks;
pub mod set;
pub mod stm;

pub use base::BaseSet;
pub use locks::AbstractLocks;
pub use set::BoostedSet;
pub use stm::register_backends;

/// Every backend a boosted object is tested over, built with `config`.
#[cfg(test)]
fn hosts(config: &stm_core::StmConfig) -> Vec<stm_core::Backend> {
    let mut registry = stm_core::BackendRegistry::new();
    oe_stm::register_backends(&mut registry);
    stm_lsa::register_backends(&mut registry);
    stm_tl2::register_backends(&mut registry);
    stm_swiss::register_backends(&mut registry);
    registry
        .names()
        .into_iter()
        .map(|name| registry.build(name, config.clone()).expect("registered"))
        .collect()
}
