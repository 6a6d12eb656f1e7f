//! The repo benchmark: four sliced, reference-normalised workloads and an
//! outside-in cost ladder over the *Composing Relaxed Transactions*
//! stack. Everything is measured from outside, through the crates'
//! public functions and the two public seams (`durable::Vfs`,
//! `stm_core::CommitHook`). See `README.md` for the protocol and for how
//! the metrics are meant to move.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ops;
pub mod probes;
pub mod reference;
pub mod run;
pub mod selfcheck;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workload;
