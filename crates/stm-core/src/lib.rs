//! # stm-core — shared substrate for the OE-STM reproduction stack
//!
//! This crate contains everything the four STM implementations of this
//! workspace (TL2, LSA, SwissTM, OE-STM) have in common:
//!
//! * a [`GlobalClock`] — the global version clock that
//!   timestamps committed state,
//! * [`VLock`] — a versioned write-lock word (version when
//!   unlocked, owner ticket when locked),
//! * [`TVar<T>`](tvar::TVar) — a word-sized transactional variable guarded by
//!   a `VLock`, readable with the load-version / load-value / re-check
//!   protocol so that no torn reads are possible,
//! * [`Link`] — a one-word location that is its own versioned lock (a
//!   lock bit, a truncated version and a small payload such as a list
//!   node's successor), read in one load; [`Loc`] names either kind,
//!   which is what read and write sets record,
//! * read/write sets ([`readset`], [`writeset`]) with a small-set fast path
//!   and a bloom-filter-accelerated lookup,
//! * reusable transaction [`scratch`] state (read/write sets, spill index)
//!   retained across retry attempts and, each buffer through
//!   its own thread-local spare fetched on first use, across transactions,
//!   so the steady-state hot path performs no heap allocation,
//! * the [`api`] module — the **`atomic` facade** user code targets: the
//!   [`Atomic`] runner (over any static backend or a registry
//!   [`Backend`]), the typed [`Tx`] handle with
//!   `get`/`set`/`modify`, policy-driven [`section`](api::Tx::section)
//!   composition, the user-level [`retry`](api::Tx::retry), and
//!   [`or_else`](api::Atomic::or_else) alternative composition,
//! * the [`Stm`] / [`Transaction`] traits that
//!   all four STMs implement — the **backend SPI** underneath the facade —
//!   including the `child` entry point used for *composition* (the subject
//!   of the paper), and the [`Instance`] (clock, counters, configuration)
//!   every backend embeds and every surface reads its accessors through,
//! * the one transaction [`driver`] every backend runs under — the
//!   per-attempt state (with the abstract-lock log that makes boosting a
//!   layer over any backend), the commit tail (hook → notify → release →
//!   trace event) and the retry/wait/park loop — with bounded exponential
//!   [`backoff`] and one [`cm`] contention-management policy (SwissTM's
//!   two-phase rule: how conflict losers pace their retries and when an
//!   encounter-time conflict waits),
//! * the [`wait`] registry — per-TVar waiter lists with token-semantics
//!   parking, so `retry()` blocks until a commit touches the read set
//!   instead of burning CPU, and conflict losers in the progress
//!   backstop wake as soon as a rival commits,
//! * a [`dynstm`] erasure layer (the object-safe [`DynStm`] twin of
//!   [`Stm`]; erased bodies get a [`Tx`] over `&mut dyn Transaction`)
//!   and the name-based [`BackendRegistry`] runtime callers select
//!   backends from,
//! * per-STM [`stats`] (commits, aborts by cause, elastic cuts, outherits),
//! * an optional [`trace`] sink so executions can be recorded into the formal
//!   history model of the `histories` crate and checked for
//!   relax-serializability.
//!
//! The design is *word-based*: every transactional location holds a `u64`
//! and typed access goes through the [`Word`] bijection. This
//! mirrors the paper's experimental setup ("all STMs protect memory
//! locations at the granularity level of object fields") and keeps the hot
//! path free of `unsafe`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod backoff;
pub mod bloom;
pub mod clock;
pub mod cm;
pub mod config;
pub mod driver;
pub mod dynstm;
pub mod error;
pub mod hook;
pub mod link;
pub mod parallel;
pub mod readset;
pub mod scratch;
pub mod stats;
pub mod stm;
pub mod ticket;
pub mod trace;
pub mod tvar;
pub mod vlock;
pub mod wait;
pub mod word;
pub mod writeset;

pub use api::{Atomic, AtomicBackend, Policy, Tx};
pub use clock::{CommitStamp, GlobalClock};
pub use config::StmConfig;
pub use dynstm::{Backend, BackendRegistry, BackendSpec, DynStm, UnknownBackend};
pub use error::{Abort, AbortReason};
pub use hook::{CommitHook, DurableLog, WriteRecord};
pub use link::{Link, Loc};
pub use scratch::TxScratch;
pub use stats::{StatsSnapshot, StmStats};
pub use stm::{Instance, OptionWord, RunError, Stm, Transaction, TxKind};
pub use tvar::{TVar, TVarCore};
pub use vlock::{LockState, VLock};
pub use word::Word;
