//! The facade that ties the layers together: open → recover → hook →
//! append → checkpoint, plus the optional background snapshotter.
//!
//! ```
//! use std::sync::Arc;
//! use durable::{DurableStore, MemVfs, Vfs};
//! use stm_core::tvar::TVar;
//!
//! let vfs = Arc::new(MemVfs::new()) as Arc<dyn Vfs>;
//! let (store, recovered) = DurableStore::open(vfs).unwrap();
//! let balance = TVar::new(0u64);
//! store.heap().register(1, balance.core());
//! if let Some(&w) = recovered.values.get(&1) {
//!     balance.store_atomic(w, recovered.last_version);
//! }
//! // … build an StmConfig::default().with_commit_hook(store.hook()) …
//! ```
// lint:allow — clock-blessed IO-path file (see xtask BLESSED_CLOCK_FILES).

use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use stm_core::hook::CommitHook;

use crate::heap::{DurableHeap, DurableHook};
use crate::recover::{self, Recovery};
use crate::snapshot::{self, CheckpointError, CheckpointReport};
use crate::vfs::Vfs;
use crate::wal::Wal;

/// Shared stop-flag between the store and its snapshotter thread.
struct SnapCtl {
    stop: Mutex<bool>,
    wake: Condvar,
}

/// A durable store: recovery at open, a group-committed WAL behind a
/// [`CommitHook`], and checkpoints on demand or from a background
/// snapshotter.
pub struct DurableStore {
    heap: Arc<DurableHeap>,
    wal: Arc<Wal>,
    hook: Arc<DurableHook>,
    snapshotter: Option<(std::thread::JoinHandle<()>, Arc<SnapCtl>)>,
}

impl DurableStore {
    /// Open the store at `vfs`: run [`recover::recover`] (repairing torn
    /// tails and unfinished checkpoints), then stand up the WAL and
    /// hook. Returns the store and the recovered image — the caller
    /// registers its `TVar`s and installs the image into them.
    ///
    /// # Errors
    /// Propagates [`recover::RecoverError`] (corrupt committed snapshot,
    /// filesystem failure).
    pub fn open(vfs: Arc<dyn Vfs>) -> Result<(Self, Recovery), recover::RecoverError> {
        Self::open_with_heap(vfs, DurableHeap::new())
    }

    /// Like [`open`](Self::open), but with the heap in **identity mode**:
    /// every committed write is logged under its core id without
    /// registration. Measurement-grade durability for the bench's
    /// `--durable` axis (see [`DurableHeap::identity`]) — the logged keys
    /// are not restart-stable names.
    ///
    /// # Errors
    /// Propagates [`recover::RecoverError`], exactly like `open`.
    pub fn open_identity(vfs: Arc<dyn Vfs>) -> Result<(Self, Recovery), recover::RecoverError> {
        Self::open_with_heap(vfs, DurableHeap::identity())
    }

    fn open_with_heap(
        vfs: Arc<dyn Vfs>,
        heap: DurableHeap,
    ) -> Result<(Self, Recovery), recover::RecoverError> {
        let recovery = recover::recover(vfs.as_ref())?;
        let heap = Arc::new(heap);
        let wal = Arc::new(Wal::open_at(vfs, recovery.wal_len));
        let hook = Arc::new(DurableHook::new(Arc::clone(&heap), Arc::clone(&wal)));
        Ok((
            Self {
                heap,
                wal,
                hook,
                snapshotter: None,
            },
            recovery,
        ))
    }

    /// The stable-key registry — register every `TVar` that must survive
    /// a restart.
    #[must_use]
    pub fn heap(&self) -> &Arc<DurableHeap> {
        &self.heap
    }

    /// The commit hook to install via `StmConfig::with_commit_hook`.
    #[must_use]
    pub fn hook(&self) -> Arc<dyn CommitHook> {
        Arc::clone(&self.hook) as Arc<dyn CommitHook>
    }

    /// The underlying log (stats, flush, poisoning state).
    #[must_use]
    pub fn wal(&self) -> &Arc<Wal> {
        &self.wal
    }

    /// The first IO failure, if durability has degraded to memory-only.
    #[must_use]
    pub fn io_error(&self) -> Option<String> {
        self.wal.io_error()
    }

    /// Run one checkpoint now (see [`snapshot::checkpoint`]).
    ///
    /// # Errors
    /// Propagates [`CheckpointError`].
    pub fn checkpoint(&self) -> Result<CheckpointReport, CheckpointError> {
        snapshot::checkpoint(&self.wal)
    }

    /// Start the background snapshotter: every `poll` it checks whether
    /// the live segment has grown past `threshold_bytes` and checkpoints
    /// if so. Stops (after finishing any in-flight checkpoint) when the
    /// store is dropped. A checkpoint failure stops the thread — the
    /// WAL simply keeps growing, and the error surfaces on the next
    /// explicit [`checkpoint`](Self::checkpoint) or at recovery.
    pub fn start_snapshotter(&mut self, threshold_bytes: u64, poll: Duration) {
        if self.snapshotter.is_some() {
            return;
        }
        let ctl = Arc::new(SnapCtl {
            stop: Mutex::new(false),
            wake: Condvar::new(),
        });
        let thread_ctl = Arc::clone(&ctl);
        let wal = Arc::clone(&self.wal);
        let handle = std::thread::spawn(move || loop {
            {
                let mut stop = thread_ctl.stop.lock();
                if !*stop {
                    let _ = thread_ctl.wake.wait_for(&mut stop, poll);
                }
                if *stop {
                    return;
                }
            }
            if wal.stats().bytes >= threshold_bytes && snapshot::checkpoint(&wal).is_err() {
                return;
            }
        });
        self.snapshotter = Some((handle, ctl));
    }
}

impl Drop for DurableStore {
    fn drop(&mut self) {
        if let Some((handle, ctl)) = self.snapshotter.take() {
            *ctl.stop.lock() = true;
            ctl.wake.notify_all();
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for DurableStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableStore")
            .field("heap", &self.heap.len())
            .field("wal", &self.wal)
            .field("snapshotter", &self.snapshotter.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SNAPSHOT_FILE;
    use crate::vfs::MemVfs;
    use crate::wal::WAL_FILE;
    use stm_core::hook::WriteRecord;
    use stm_core::tvar::TVar;

    fn commit_through_hook(store: &DurableStore, writes: &[(usize, u64)], version: u64) {
        let iter = |f: &mut dyn FnMut(usize, u64)| {
            for &(id, w) in writes {
                f(id, w);
            }
        };
        store
            .hook()
            .on_commit(&WriteRecord::new(version, writes.len(), &iter));
        // No committer awaits a record built outside a commit.
        store.wal().flush().unwrap();
    }

    #[test]
    fn open_commit_crash_reopen_round_trips_registered_state() {
        let mem = Arc::new(MemVfs::new());
        let var = TVar::new(0u64);
        {
            let (store, recovered) = DurableStore::open(mem.clone() as Arc<dyn Vfs>).unwrap();
            assert!(recovered.values.is_empty());
            store.heap().register(9, var.core());
            commit_through_hook(&store, &[(var.core().id(), 1234)], 42);
        }
        mem.crash();
        let (store, recovered) = DurableStore::open(mem as Arc<dyn Vfs>).unwrap();
        assert_eq!(recovered.values, [(9u64, 1234u64)].into());
        assert_eq!(recovered.last_version, 42);
        assert!(store.io_error().is_none());
    }

    #[test]
    fn background_snapshotter_checkpoints_past_the_threshold() {
        let mem = Arc::new(MemVfs::new());
        let var = TVar::new(0u64);
        let (mut store, _) = DurableStore::open(mem.clone() as Arc<dyn Vfs>).unwrap();
        store.heap().register(1, var.core());
        store.start_snapshotter(1, Duration::from_millis(1));
        commit_through_hook(&store, &[(var.core().id(), 7)], 1);
        // The threshold is 1 byte, so the snapshotter must fold the
        // record promptly; bounded spin rather than a sleep-and-hope.
        let mut ok = false;
        for _ in 0..1000 {
            if mem.exists(SNAPSHOT_FILE) && !mem.exists(WAL_FILE) {
                ok = true;
                break;
            }
            std::thread::yield_now();
            std::thread::sleep(Duration::from_millis(2)); // lint:allow — poll interval of a bounded wait on an observed state
        }
        assert!(ok, "snapshotter never checkpointed");
        drop(store); // joins the thread cleanly
        let rec = recover::recover(mem.as_ref()).unwrap();
        assert_eq!(rec.values, [(1u64, 7u64)].into());
    }
}
