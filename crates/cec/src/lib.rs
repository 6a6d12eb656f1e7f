//! # cec — composable concurrent collections
//!
//! The Rust analog of the paper's **edu.epfl.compositional (e.e.c)**
//! package (Section VI): a composable alternative to
//! `java.util.concurrent`, built on the transactional memories of this
//! workspace.
//!
//! ## What "composable" means here
//!
//! Every collection exposes its operations twice, both through the
//! workspace's `atomic` facade ([`stm_core::api`]):
//!
//! * as plain atomic methods (`contains`, `add`, `remove`, `size` on
//!   [`SetExt`]), each a single (elastic) transaction over any
//!   [`Atomic`](stm_core::api::Atomic) runner — a static backend or a
//!   registry-built handle, same code either way;
//! * as *building blocks* (`contains_in`, `add_in`, … on [`TxSet`]) that
//!   run inside an ambient transaction — so a user can compose them, via
//!   [`Tx::section`](stm_core::api::Tx::section), into new atomic
//!   operations (`add_all`, `remove_all`, `insert_if_absent`,
//!   [`compose::move_entry`], atomic `size` across buckets or whole
//!   collections) without touching the collection's code — the paper's
//!   Alice-and-Bob scenario.
//!
//! Structure authors implement [`SetOps`] once, generically over the SPI
//! [`Transaction`](stm_core::Transaction) trait; the facade-level
//! [`TxSet`] (object-safe — `Box<dyn TxSet>` is how the benchmark
//! scenarios hold a runtime-chosen structure) and the user-facing
//! [`SetExt`] wrappers fall out of blanket impls.
//!
//! Under OE-STM these compositions are atomic *and* fast (elastic children
//! ignore read-prefix conflicts; outheritance keeps what matters
//! protected). Under classic STMs (TL2/LSA/SwissTM) they are atomic via
//! flat nesting. Under the E-STM compatibility mode they demonstrably
//! violate atomicity — which is the paper's point.
//!
//! ## Structures
//!
//! | Type | Paper figure | Notes |
//! |---|---|---|
//! | [`linkedlist::LinkedListSet`] | Fig. 6 | sorted list, linear traversals — elastic's best case |
//! | [`skiplist::SkipListSet`] | Fig. 7 | log-height towers, each level walked as a `listcore` chain |
//! | [`hashset::HashSet`] | Fig. 8 | fixed buckets (load factor 512 in the paper) |
//! | [`seq`] | "Sequential" line | uninstrumented baselines |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod compose;
pub mod hashset;
pub mod linkedlist;
pub mod listcore;
pub mod noderef;
pub mod queue;
pub mod seq;
pub mod set;
pub mod skiplist;

pub use compose::{move_entry, total_size};
pub use hashset::HashSet;
pub use linkedlist::LinkedListSet;
pub use noderef::NodeRef;
pub use queue::{dequeue_or_else, transfer, TxQueue};
pub use set::{OpScratch, SetExt, SetOps, TxSet};
pub use skiplist::SkipListSet;
