//! `txkv` — the service layer over the STM reproduction: a transactional
//! keyspace with multi-key transactions and the load shapes that drive
//! it.
//!
//! The rest of the workspace reproduces the paper bottom-up (backends,
//! the `atomic` facade, composable collections, durability). This crate
//! composes those layers into what they exist *for*: a keyed service that
//! looks like real traffic — skewed key popularity, a read/write/MULTI
//! mix, multi-key transactions — whose service-level numbers (throughput
//! **and** p50/p99 latency, measured by the repo benchmark) every future
//! optimization has to justify itself against.
//!
//! Two modules:
//!
//! * [`keyspace`] — a value slot and a presence word per key, both
//!   `TVar`s; `GET`/`SET`/`CAS`/`DEL` run as short transactions over the
//!   key's two words and [`KeySpace::multi`] as one short transaction
//!   over all of its keys' words. Generic
//!   over every registry backend; optionally durable through the
//!   `CommitHook`/`DurableStore` seam.
//! * [`loadgen`] — zipfian/hotspot/uniform key sampling and the op mix.
//!   The repo benchmark's `kv-mem` and `kv-durable` workloads build their
//!   op streams from them and measure the keyspace end to end.

#![forbid(unsafe_code)]

pub mod keyspace;
pub mod loadgen;

pub use keyspace::{KeySpace, MultiOp, ShardKind};
pub use loadgen::{KeyDist, KeySampler, OpMix};
