//! Opt-in durability for the STM registry, behind the
//! [`stm_core::CommitHook`] seam.
//!
//! The paper's backends are in-memory by design; this crate adds the
//! robustness layer the harness uses to prove crash-consistency claims:
//!
//! * [`wal`] — a **group-committed write-ahead log**: committers stage
//!   records under a mutex while they hold their write locks, then wait
//!   after releasing them; a leader appends and fsyncs the whole batch,
//!   and the next leader may overlap its fsync with it. Everyone returns
//!   only once *their* record is durable. A failed fsync sticky-poisons
//!   the log so durable state is always a prefix of committed history.
//! * [`record`] — length-prefixed, CRC-checksummed record framing with
//!   typed decode errors: a torn tail is distinguishable from bit-rot,
//!   and no byte sequence ever decodes to garbage.
//! * [`snapshot`] — sstable-style checkpoints (sorted key/word tables)
//!   written via tmp+fsync+rename, folding the sealed log segment in so
//!   the log stays short; every phase is crash-repairable.
//! * [`recover()`] — replay snapshot + `wal.old` + `wal`, truncating and
//!   reporting bad tails; idempotent under double crash; a corrupt
//!   *committed* snapshot is a hard typed error, never a guess.
//! * [`heap`] — [`DurableHeap`] maps address-based core ids to stable
//!   keys; [`DurableHook`] implements `CommitHook` by logging registered
//!   writes (and only those) to the WAL.
//! * [`vfs`] / [`fault`] — the IO seam that makes all of the above
//!   testable: [`MemVfs`] tracks fsynced-vs-pending bytes and can
//!   [`MemVfs::crash`]; [`FaultVfs`] injects scripted torn writes, fsync
//!   failures and bit flips at exact operation counts; [`GatedVfs`] holds
//!   each fsync until the test lets it through, to force an order among
//!   overlapping fsyncs. The crash-point
//!   battery in `tests/durability.rs` recovers from *every prefix* of a
//!   real WAL and checks the image equals the longest clean record
//!   prefix.
//!
//! Entry point: [`DurableStore`] (open → recover → register → hook →
//! checkpoint). Hook-off configurations pay nothing — the seam is a
//! predictable `None` branch in each backend's commit path, covered by
//! the zero-alloc pin.

#![forbid(unsafe_code)]

pub mod fault;
pub mod heap;
pub mod record;
pub mod recover;
pub mod snapshot;
pub mod store;
pub mod vfs;
pub mod wal;

pub use fault::{BitFlip, FaultPlan, FaultVfs, GatedVfs, TornAppend};
pub use heap::{DurableHeap, DurableHook};
pub use record::{Record, RecordError};
pub use recover::{recover, RecoverError, Recovery};
pub use snapshot::{checkpoint, CheckpointError, CheckpointReport, SnapshotError};
pub use store::DurableStore;
pub use vfs::{MemVfs, StdVfs, Vfs};
pub use wal::{Wal, WalError, WalStats};
