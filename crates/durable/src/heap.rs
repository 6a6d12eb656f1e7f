// lint:hot-path
//! The bridge from STM commits to the WAL: stable keys and the
//! [`CommitHook`] implementation.
//!
//! A `TVarCore`'s id is its address — unique while the process lives,
//! meaningless after a restart. [`DurableHeap`] maps core ids to
//! caller-chosen **stable keys** (`u64`), which is what WAL records and
//! snapshots store. [`DurableHook`] consults that map inside
//! `on_commit`: registered locations are logged under their stable key,
//! unregistered locations are skipped — so durable and transient state
//! can share one transaction, and only the durable part pays for the
//! fsync.
//!
//! `on_commit` is the *stage* step of a durable commit: it runs under
//! the committer's write locks, encodes the registered writes straight
//! from the [`WriteRecord`] into the WAL's batch buffer
//! ([`Wal::stage`]), and defers the record's sequence number to the
//! committer, which waits for it after releasing its locks. Nothing on
//! that path allocates, does I/O or waits for another thread; staging is
//! the whole time the hook holds the locks. A commit whose writes are all
//! unregistered stages nothing and defers 0, so its committer waits for
//! what it observed instead (see `stm_core::hook`).
//!
//! `on_commit` is infallible by contract (stm-core fires it past the
//! point of no return). When the WAL is poisoned the hook therefore
//! *degrades itself*: the commit proceeds in memory, nothing is staged,
//! and the original IO failure stays queryable via
//! [`DurableHook::io_error`] for the harness/CLI to surface.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use stm_core::hook::{CommitHook, WriteRecord};
use stm_core::tvar::TVarCore;

use crate::wal::Wal;

/// Registry of transactional locations that should survive a restart:
/// core id (address-based, restart-unstable) → stable key.
#[derive(Debug, Default)]
pub struct DurableHeap {
    keys: RwLock<HashMap<usize, u64>>,
    identity: bool,
}

impl DurableHeap {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry in **identity mode**: every core is implicitly
    /// registered under its own id. Keys are address-based and therefore
    /// *not* restart-stable — this mode exists for measurement (the
    /// bench's `--durable` axis logs every committed write at full fsync
    /// cost without having to name the TVars hidden inside a workload's
    /// data structures), not for state that must be recovered by name.
    #[must_use]
    pub fn identity() -> Self {
        Self {
            keys: RwLock::new(HashMap::new()),
            identity: true,
        }
    }

    /// Whether this registry is in identity mode.
    #[must_use]
    pub fn is_identity(&self) -> bool {
        self.identity
    }

    /// Register `core` under `key`. Registering while transactions are
    /// in flight is allowed (commits observe the map at hook time);
    /// re-registering a core replaces its key.
    pub fn register(&self, key: u64, core: &TVarCore) {
        self.keys
            .write()
            .expect("durable heap lock")
            .insert(core.id(), key);
    }

    /// The stable key of `core_id`, if registered. In identity mode
    /// every core maps to its own id.
    #[must_use]
    pub fn key_of(&self, core_id: usize) -> Option<u64> {
        if self.identity {
            return Some(core_id as u64);
        }
        self.keys
            .read()
            .expect("durable heap lock")
            .get(&core_id)
            .copied()
    }

    /// Number of registered locations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.read().expect("durable heap lock").len()
    }

    /// Whether no locations are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The [`CommitHook`] that makes registered writes durable by appending
/// them to a group-committed [`Wal`].
#[derive(Debug)]
pub struct DurableHook {
    heap: Arc<DurableHeap>,
    wal: Arc<Wal>,
}

impl DurableHook {
    /// Log registered writes from `heap` to `wal`.
    pub fn new(heap: Arc<DurableHeap>, wal: Arc<Wal>) -> Self {
        Self { heap, wal }
    }

    /// The key registry this hook consults.
    #[must_use]
    pub fn heap(&self) -> &Arc<DurableHeap> {
        &self.heap
    }

    /// The log this hook appends to.
    #[must_use]
    pub fn wal(&self) -> &Arc<Wal> {
        &self.wal
    }

    /// The first IO failure, if durability has been lost (the WAL is
    /// poisoned and commits are proceeding memory-only).
    #[must_use]
    pub fn io_error(&self) -> Option<String> {
        self.wal.io_error()
    }
}

impl CommitHook for DurableHook {
    fn on_commit(&self, record: &WriteRecord<'_>) {
        let version = record.version();
        let seq = if self.heap.identity {
            self.wal.stage(version, |push| {
                record.for_each(&mut |core_id, word| push(core_id as u64, word));
            })
        } else {
            let keys = self.heap.keys.read().expect("durable heap lock");
            self.wal.stage(version, |push| {
                record.for_each(&mut |core_id, word| {
                    if let Some(&key) = keys.get(&core_id) {
                        push(key, word);
                    }
                });
            })
        };
        // No record (nothing registered, or the WAL is poisoned): the
        // committer waits for what it observed instead.
        record.defer(&self.wal, seq.unwrap_or(0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record;
    use crate::vfs::{MemVfs, Vfs};
    use crate::wal::WAL_FILE;
    use stm_core::tvar::TVar;

    #[test]
    fn hook_logs_registered_cores_under_stable_keys_and_skips_others() {
        let mem = Arc::new(MemVfs::new());
        let heap = Arc::new(DurableHeap::new());
        let wal = Arc::new(Wal::open(mem.clone() as Arc<dyn Vfs>));
        let hook = DurableHook::new(Arc::clone(&heap), wal);

        let durable_var = TVar::new(0u64);
        let transient_var = TVar::new(0u64);
        heap.register(77, durable_var.core());

        let writes: Vec<(usize, u64)> = vec![
            (durable_var.core().id(), 41),
            (transient_var.core().id(), 999),
        ];
        let iter = |f: &mut dyn FnMut(usize, u64)| {
            for &(id, w) in &writes {
                f(id, w);
            }
        };
        hook.on_commit(&WriteRecord::new(12, writes.len(), &iter));
        // No committer awaits a record built outside a commit.
        hook.wal().flush().unwrap();

        let (records, _, err) = record::decode_stream(&mem.read(WAL_FILE).unwrap());
        assert!(err.is_none());
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].version, 12);
        assert_eq!(records[0].writes, vec![(77, 41)], "transient core skipped");
        assert!(hook.io_error().is_none());
    }

    #[test]
    fn identity_heap_logs_every_core_under_its_own_id() {
        let mem = Arc::new(MemVfs::new());
        let heap = Arc::new(DurableHeap::identity());
        assert!(heap.is_identity());
        let wal = Arc::new(Wal::open(mem.clone() as Arc<dyn Vfs>));
        let hook = DurableHook::new(Arc::clone(&heap), wal);

        let a = TVar::new(0u64);
        let b = TVar::new(0u64);
        assert_eq!(heap.key_of(a.core().id()), Some(a.core().id() as u64));

        let writes: Vec<(usize, u64)> = vec![(a.core().id(), 1), (b.core().id(), 2)];
        let iter = |f: &mut dyn FnMut(usize, u64)| {
            for &(id, w) in &writes {
                f(id, w);
            }
        };
        hook.on_commit(&WriteRecord::new(3, writes.len(), &iter));
        hook.wal().flush().unwrap();

        let (records, _, err) = record::decode_stream(&mem.read(WAL_FILE).unwrap());
        assert!(err.is_none());
        assert_eq!(
            records[0].writes,
            vec![(a.core().id() as u64, 1), (b.core().id() as u64, 2)],
            "no registration needed in identity mode"
        );
    }

    #[test]
    fn hook_with_no_registered_writes_touches_no_file() {
        let mem = Arc::new(MemVfs::new());
        let heap = Arc::new(DurableHeap::new());
        let wal = Arc::new(Wal::open(mem.clone() as Arc<dyn Vfs>));
        let hook = DurableHook::new(heap, wal);
        let var = TVar::new(0u64);
        let writes = vec![(var.core().id(), 5)];
        let iter = |f: &mut dyn FnMut(usize, u64)| {
            for &(id, w) in &writes {
                f(id, w);
            }
        };
        hook.on_commit(&WriteRecord::new(1, writes.len(), &iter));
        hook.wal().flush().unwrap();
        assert!(!mem.exists(WAL_FILE));
    }
}
