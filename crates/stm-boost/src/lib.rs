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
//! This crate implements exactly that sentence, with one transaction:
//!
//! * [`BaseSet`] — a linearizable concurrent integer set (lock-striped),
//!   standing in for the "separate thread-safe library";
//! * [`AbstractLocks`] — per-key two-phase abstract locks;
//! * [`BoostStm`] / [`BoostTxn`] — the boosted transaction, run by the
//!   shared `stm_core::driver` like every other backend: eager abstract
//!   locks, in-place updates, one undo log, flat children whose locks and
//!   undo entries stay with the attempt (outheritance). It implements the
//!   [`Stm`](stm_core::Stm) SPI over plain words, so boosting joins the
//!   [`BackendRegistry`](stm_core::BackendRegistry) (name `"boost"`);
//! * [`BoostedSet`] — a boosted set whose `add`/`remove`/`contains` run
//!   inside a [`BoostTxn`], logging compensations (`add(k)` ↦ `remove(k)`
//!   and vice versa) in the same undo log as word writes;
//! * [`BoostStm::open_nested`] — the contrast: a child commit releases
//!   the child's locks and drops its undo entries, reproducing the
//!   open-nesting composition hazard the paper describes for Moss's model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod base;
pub mod locks;
pub mod set;
pub mod stm;

pub use base::BaseSet;
pub use locks::AbstractLocks;
pub use set::BoostedSet;
pub use stm::{register_backends, BoostStm, BoostTxn};
