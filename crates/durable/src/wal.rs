// lint:hot-path
//! Group-committed write-ahead log.
//!
//! A commit reaches the log in two steps, split around the release of
//! its write locks (see `stm_core::hook`):
//!
//! * [`Wal::stage`] runs under the committer's locks. It encodes the
//!   record straight into the shared batch buffer under the log's mutex
//!   and hands back the record's sequence number. No I/O happens there
//!   and nothing waits but that mutex, which no one holds across I/O.
//! * [`Wal::wait_durable`] runs after the release and returns once the
//!   record is durable. A waiter whose record no flush has taken yet
//!   becomes a **leader**: it swaps the staged batch out for a spare
//!   buffer, appends it, and fsyncs it, while later commits keep staging
//!   behind it. Leaders overlap: the next leader may append and fsync its
//!   batch while an earlier fsync is still in flight, so an update that
//!   arrives during a flush waits for its own fsync only, and the number
//!   of fsyncs in flight is bounded by the number of committing threads.
//!   Appends stay in log order — a leader holds the `io` mutex from taking
//!   its batch until its append returns — so N concurrent committers
//!   still share ~1 fsync per batch ([`WalStats`] counts both).
//!
//! The **durable watermark** advances only over the in-order prefix of
//! batches whose fsync succeeded: a batch whose fsync returns first marks
//! nothing durable while an earlier one is still in flight.
//!
//! Failure model: the WAL is **sticky-poisoned** on the first IO error.
//! A failed append or fsync leaves the on-disk suffix in an unknown
//! state, so no further records are staged, the watermark never passes
//! the failed batch (a later fsync that succeeds marks nothing before it
//! durable), and every waiter not already covered gets
//! [`WalError::Poisoned`]; the durable prefix on disk remains a prefix of
//! the committed history, which is all recovery needs.
//! `CommitHook::on_commit` is infallible by contract — the hook layer
//! ([`crate::heap::DurableHook`]) stages nothing once the log is poisoned
//! and exposes the failure via `io_error()` instead of unwinding into a
//! backend's commit path.
//!
//! A commit that stages nothing waits in [`Wal::wait_observed`] for the
//! records it could have observed. Each record keeps its commit version,
//! and the log tracks the lowest version among those not yet durable;
//! a reader whose words are all older returns after one atomic load.
// lint:allow — this file is deliberately clock-blessed (see xtask): the
// WAL runs on the IO path, not the transactional hot path.

use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex, MutexGuard};
use stm_core::hook::DurableLog;

use crate::record;
use crate::vfs::Vfs;

/// On-disk name of the live log segment.
pub const WAL_FILE: &str = "wal";
/// On-disk name of the sealed segment awaiting checkpoint fold-in.
pub const WAL_OLD_FILE: &str = "wal.old";

/// The lowest-pending-version value that says nothing is pending.
const NONE_PENDING: u64 = u64::MAX;

/// Why an append could not be made durable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// A previous IO failure poisoned the log; the message describes the
    /// original failure. Durable state is a prefix of committed history.
    Poisoned(String),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Poisoned(msg) => write!(f, "wal poisoned: {msg}"),
        }
    }
}

impl std::error::Error for WalError {}

/// Group-commit accounting, for tests and the bench `fsync-batch`
/// scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalStats {
    /// Records appended (== committed update transactions logged).
    pub records: u64,
    /// Physical `append`+`fsync` batches made durable. `records /
    /// flushes` is the group-commit amortisation factor.
    pub flushes: u64,
    /// Bytes durably written to the live segment.
    pub bytes: u64,
}

/// A batch a leader took: appended (or being appended) and fsynced (or
/// being fsynced), not yet durable.
#[derive(Debug)]
struct Flight {
    /// Sequence number of its last record.
    covers: u64,
    /// Lowest commit version among its records.
    low: u64,
    bytes: u64,
    /// The fsync's outcome; `None` while it is in flight.
    synced: Option<bool>,
}

#[derive(Debug)]
struct WalState {
    /// Records staged but not yet taken by a leader.
    buf: Vec<u8>,
    /// Lowest commit version among the records in `buf`.
    buf_low: u64,
    /// Emptied batch buffers, swapped in for `buf` by the next leaders so
    /// the buffers keep their capacity.
    spares: Vec<Vec<u8>>,
    /// Sequence number of the most recently staged record.
    staged: u64,
    /// Sequence number of the last record a leader has taken.
    taken: u64,
    /// Highest sequence number known durable on disk.
    durable: u64,
    /// Taken batches past the durable watermark, in log order.
    flights: VecDeque<Flight>,
    /// A seal is waiting for the fsyncs in flight: no leader takes a
    /// batch until it has renamed the segment.
    sealing: bool,
    /// First IO failure, if any — sticky.
    poisoned: Option<String>,
    stats: WalStats,
}

impl Default for WalState {
    fn default() -> Self {
        Self {
            buf: Vec::new(),
            buf_low: NONE_PENDING,
            spares: Vec::new(),
            staged: 0,
            taken: 0,
            durable: 0,
            flights: VecDeque::new(),
            sealing: false,
            poisoned: None,
            stats: WalStats::default(),
        }
    }
}

impl WalState {
    fn syncing(&self) -> bool {
        self.flights.iter().any(|f| f.synced.is_none())
    }

    fn poison_error(&self) -> WalError {
        WalError::Poisoned(self.poisoned.clone().unwrap_or_default())
    }
}

/// A group-committed write-ahead log over a [`Vfs`].
pub struct Wal {
    vfs: Arc<dyn Vfs>,
    state: Mutex<WalState>,
    /// Held by a leader from taking its batch until its append returns,
    /// so batches reach the file in log order.
    io: Mutex<()>,
    /// Lowest commit version among the records not yet durable
    /// ([`NONE_PENDING`] when none is, or the log is poisoned). Written
    /// under `state` with `Release`, read by [`Wal::wait_observed`] with
    /// `Acquire`: a reader that saw a word its writer released after
    /// staging sees this store or a later one, and a later one leaves the
    /// record pending or makes it durable.
    low: AtomicU64,
    flushed: Condvar,
}

impl Wal {
    /// Open (or continue) the log at [`WAL_FILE`] on `vfs`. Appends go
    /// after whatever the file already holds — run
    /// [`crate::recover::recover`] first so the tail is known-clean.
    pub fn open(vfs: Arc<dyn Vfs>) -> Self {
        Self {
            vfs,
            state: Mutex::new(WalState::default()),
            io: Mutex::new(()),
            low: AtomicU64::new(NONE_PENDING),
            flushed: Condvar::new(),
        }
    }

    /// Stage one record: encode the `(key, word)` pairs `writes` pushes
    /// straight into the batch buffer, under the log's mutex. No I/O.
    ///
    /// Returns the record's sequence number (1-based, increasing in log
    /// order), or `None` when nothing was staged: `writes` pushed no pair,
    /// or the log is poisoned (see [`io_error`](Self::io_error)).
    pub fn stage(
        &self,
        version: u64,
        writes: impl FnOnce(&mut dyn FnMut(u64, u64)),
    ) -> Option<u64> {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        if st.poisoned.is_some() {
            return None;
        }
        let at = st.buf.len();
        if record::encode_with(&mut st.buf, version, writes) == 0 {
            st.buf.truncate(at);
            return None;
        }
        st.staged += 1;
        st.stats.records += 1;
        if version < st.buf_low {
            st.buf_low = version;
            if version < self.low.load(Ordering::Relaxed) {
                self.low.store(version, Ordering::Release);
            }
        }
        Some(st.staged)
    }

    /// Block until record `seq` and every record before it are durable,
    /// leading a flush when no leader has taken `seq` yet.
    ///
    /// # Errors
    /// [`WalError::Poisoned`] once a batch write or fsync has failed and
    /// `seq` was not durable by then; it never will be.
    pub fn wait_durable(&self, seq: u64) -> Result<(), WalError> {
        let st = self.reach(self.state.lock(), seq);
        if st.durable >= seq {
            Ok(())
        } else {
            Err(st.poison_error())
        }
    }

    /// Block until every record staged with a commit version at most
    /// `observed` is durable (`u64::MAX`: every record staged so far), or
    /// the log is poisoned. Returns at once when no such record is
    /// pending.
    pub fn wait_observed(&self, observed: u64) {
        if observed < self.low.load(Ordering::Acquire) {
            return;
        }
        let st = self.state.lock();
        if st.poisoned.is_some() {
            return;
        }
        // The newest pending batch holding a record at or below
        // `observed`; the watermark only moves in order, so reaching it
        // covers every older one.
        let seq = if st.buf_low <= observed {
            st.staged
        } else {
            st.flights
                .iter()
                .rev()
                .find(|f| f.low <= observed)
                .map_or(0, |f| f.covers)
        };
        drop(self.reach(st, seq));
    }

    /// Append one record and block until it is durable (fsynced), riding
    /// a shared batch fsync when other committers are in flight:
    /// [`stage`](Self::stage) then [`wait_durable`](Self::wait_durable).
    ///
    /// Returns the record's sequence number; an empty `writes` logs
    /// nothing and returns 0.
    ///
    /// # Errors
    /// [`WalError::Poisoned`] once any batch write or fsync has failed;
    /// the record is then *not* durable and never will be.
    pub fn append(&self, version: u64, writes: &[(u64, u64)]) -> Result<u64, WalError> {
        match self.stage(version, |push| writes.iter().for_each(|&(k, w)| push(k, w))) {
            Some(seq) => self.wait_durable(seq).map(|()| seq),
            None if writes.is_empty() => Ok(0),
            None => Err(self.state.lock().poison_error()),
        }
    }

    /// Wait, leading flushes as needed, until `seq` is durable or the log
    /// is poisoned.
    fn reach<'a>(&'a self, mut st: MutexGuard<'a, WalState>, seq: u64) -> MutexGuard<'a, WalState> {
        while st.durable < seq && st.poisoned.is_none() {
            if st.taken >= seq || st.sealing {
                // A leader's batch covers `seq` (or a seal holds leaders
                // back): wait for it to report and re-check.
                self.flushed.wait(&mut st);
            } else {
                st = self.lead(st);
            }
        }
        st
    }

    /// Become a leader: take everything staged, append it in log order,
    /// fsync it without holding any lock, then report the outcome. Returns
    /// at once, without I/O, when another leader took the batch first.
    fn lead<'a>(&'a self, st: MutexGuard<'a, WalState>) -> MutexGuard<'a, WalState> {
        drop(st);
        let io = self.io.lock();
        let mut guard = self.state.lock();
        let st = &mut *guard;
        if st.taken == st.staged || st.sealing || st.poisoned.is_some() {
            return guard;
        }
        let spare = st.spares.pop().unwrap_or_default();
        let mut batch = std::mem::replace(&mut st.buf, spare);
        st.taken = st.staged;
        let covers = st.taken;
        st.flights.push_back(Flight {
            covers,
            low: std::mem::replace(&mut st.buf_low, NONE_PENDING),
            bytes: batch.len() as u64,
            synced: None,
        });
        drop(guard);

        let appended = self.vfs.append(WAL_FILE, &batch);
        if appended.is_err() {
            // Torn, perhaps: poison before the next leader may append
            // behind the torn bytes.
            let mut st = self.state.lock();
            self.land(&mut st, covers, appended);
            return st;
        }
        drop(io);
        let synced = self.vfs.sync(WAL_FILE);

        let mut st = self.state.lock();
        batch.clear();
        st.spares.push(batch);
        self.land(&mut st, covers, synced);
        st
    }

    /// Record the fsync outcome of the batch ending at `covers`, advance
    /// the watermark over the in-order prefix of successful fsyncs, and
    /// wake every waiter.
    fn land(&self, st: &mut WalState, covers: u64, outcome: io::Result<()>) {
        let flight = st
            .flights
            .iter_mut()
            .find(|f| f.covers == covers)
            .expect("a leader's batch stays in flight until it lands");
        flight.synced = Some(outcome.is_ok());
        if let Err(err) = outcome {
            // The batch may be partially on disk (torn). Poison: nothing
            // staged after this point may claim durability.
            st.poisoned.get_or_insert_with(|| err.to_string()); // lint:allow — cold, once per log
        }
        while let Some(f) = st.flights.front().filter(|f| f.synced == Some(true)) {
            st.durable = f.covers;
            st.stats.flushes += 1;
            st.stats.bytes += f.bytes;
            st.flights.pop_front();
        }
        self.publish_low(st);
        self.flushed.notify_all();
    }

    /// Recompute the lowest pending version after records left the
    /// pending set.
    fn publish_low(&self, st: &WalState) {
        let low = if st.poisoned.is_some() {
            NONE_PENDING
        } else {
            st.flights.iter().map(|f| f.low).fold(st.buf_low, u64::min)
        };
        self.low.store(low, Ordering::Release);
    }

    /// Flush anything still staged (e.g. before sealing the segment):
    /// returns once every record staged before the call is durable.
    ///
    /// # Errors
    /// [`WalError::Poisoned`] as for [`append`](Self::append), after the
    /// fsyncs already in flight have returned.
    pub fn flush(&self) -> Result<(), WalError> {
        let mut st = self.state.lock();
        let target = st.staged;
        st = self.reach(st, target);
        if st.poisoned.is_none() {
            return Ok(());
        }
        while st.syncing() {
            self.flushed.wait(&mut st);
        }
        Err(st.poison_error())
    }

    /// Seal the live segment: flush staged records, wait for every fsync
    /// still in flight, then rename [`WAL_FILE`] → [`WAL_OLD_FILE`] so a
    /// checkpoint can fold it in while new appends start a fresh live
    /// segment. Leaders are held out from the wait until the rename is
    /// done; records staged meanwhile go to the fresh segment.
    ///
    /// Returns `false` (without renaming) when there is nothing to seal.
    ///
    /// # Errors
    /// [`WalError::Poisoned`] if the flush or rename fails (a failed
    /// rename poisons the log: the segment layout is then unknown).
    pub fn seal(&self) -> Result<bool, WalError> {
        self.flush()?;
        let mut st = self.state.lock();
        st.sealing = true;
        while st.syncing() {
            self.flushed.wait(&mut st);
        }
        let sealed = self.rename_live(&mut st);
        st.sealing = false;
        self.flushed.notify_all();
        sealed
    }

    /// The rename step of [`seal`](Self::seal), with no fsync in flight.
    fn rename_live(&self, st: &mut WalState) -> Result<bool, WalError> {
        if st.poisoned.is_some() {
            return Err(st.poison_error());
        }
        // Note: the file may hold bytes from a previous process (reopen
        // after recovery) even when this instance has appended nothing,
        // so the check is on the file, not on `stats.bytes`.
        if !self.vfs.exists(WAL_FILE) {
            return Ok(false);
        }
        match self.vfs.rename(WAL_FILE, WAL_OLD_FILE) {
            Ok(()) => {
                st.stats.bytes = 0;
                Ok(true)
            }
            Err(err) => {
                let msg = err.to_string(); // lint:allow — cold, poisons the log
                st.poisoned = Some(format!("sealing wal: {msg}")); // lint:allow — cold
                self.publish_low(st);
                Err(WalError::Poisoned(msg))
            }
        }
    }

    /// Group-commit accounting so far.
    pub fn stats(&self) -> WalStats {
        self.state.lock().stats
    }

    /// The first IO failure, if the log is poisoned.
    pub fn io_error(&self) -> Option<String> {
        self.state.lock().poisoned.clone()
    }

    /// The underlying filesystem (for the checkpointer).
    pub fn vfs(&self) -> &Arc<dyn Vfs> {
        &self.vfs
    }
}

impl DurableLog for Wal {
    fn wait_durable(&self, seq: u64) {
        // A poisoned log degrades to memory-only; `io_error` reports it.
        let _ = Wal::wait_durable(self, seq);
    }

    fn wait_observed(&self, observed: u64) {
        Wal::wait_observed(self, observed);
    }
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("Wal")
            .field("staged", &st.staged)
            .field("durable", &st.durable)
            .field("in_flight", &st.flights.len())
            .field("poisoned", &st.poisoned)
            .field("stats", &st.stats)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultVfs, GatedVfs};
    use crate::vfs::MemVfs;
    use std::sync::atomic::AtomicBool;
    use std::time::{Duration, Instant};

    #[test]
    fn appends_are_durable_on_return_and_replayable() {
        let mem = Arc::new(MemVfs::new());
        let wal = Wal::open(mem.clone());
        wal.append(5, &[(1, 100)]).unwrap();
        wal.append(6, &[(2, 200), (3, 300)]).unwrap();
        // Durable, not merely written: a crash right now keeps both.
        mem.crash();
        let (records, _, err) = record::decode_stream(&mem.read(WAL_FILE).unwrap());
        assert!(err.is_none());
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].writes, vec![(2, 200), (3, 300)]);
    }

    #[test]
    fn group_commit_amortises_fsyncs_across_threads() {
        let mem = Arc::new(MemVfs::new());
        let fav = Arc::new(FaultVfs::new(mem, FaultPlan::default()));
        let wal = Arc::new(Wal::open(fav.clone() as Arc<dyn Vfs>));
        let threads = 8;
        let per = 64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let wal = Arc::clone(&wal);
                s.spawn(move || {
                    for i in 0..per {
                        wal.append(0, &[(t, i)]).unwrap();
                    }
                });
            }
        });
        let stats = wal.stats();
        assert_eq!(stats.records, threads * per);
        assert_eq!(stats.flushes, fav.syncs());
        assert!(
            stats.flushes <= stats.records,
            "leader batches must never exceed record count"
        );
        // And every record made it to disk intact, each exactly once.
        let (records, _, err) = record::decode_stream(&fav.inner().read(WAL_FILE).unwrap());
        assert!(err.is_none());
        assert_eq!(records.len() as u64, threads * per);
    }

    #[test]
    fn fsync_failure_poisons_stickily() {
        let mem = Arc::new(MemVfs::new());
        let vfs = Arc::new(FaultVfs::new(
            mem,
            FaultPlan {
                fail_sync_from: Some(2),
                ..FaultPlan::default()
            },
        ));
        let wal = Wal::open(vfs as Arc<dyn Vfs>);
        wal.append(1, &[(1, 1)]).unwrap();
        let err = wal.append(2, &[(2, 2)]).unwrap_err();
        assert!(matches!(err, WalError::Poisoned(_)));
        // Sticky: later appends fail without touching the disk.
        assert!(wal.append(3, &[(3, 3)]).is_err());
        assert!(wal.io_error().is_some());
    }

    #[test]
    fn seal_renames_live_segment_and_resets_byte_accounting() {
        let mem = Arc::new(MemVfs::new());
        let wal = Wal::open(mem.clone() as Arc<dyn Vfs>);
        assert!(!wal.seal().unwrap(), "nothing to seal on an empty log");
        wal.append(1, &[(1, 1)]).unwrap();
        assert!(wal.seal().unwrap());
        assert!(mem.exists(WAL_OLD_FILE) && !mem.exists(WAL_FILE));
        wal.append(2, &[(2, 2)]).unwrap();
        assert!(mem.exists(WAL_FILE), "appends restart a fresh segment");
    }

    #[test]
    fn staging_does_no_io_and_skips_empty_records() {
        let mem = Arc::new(MemVfs::new());
        let wal = Wal::open(mem.clone() as Arc<dyn Vfs>);
        assert_eq!(wal.stage(1, |_| {}), None, "no pair, no record");
        assert_eq!(wal.stage(1, |push| push(7, 70)), Some(1));
        assert_eq!(wal.stage(2, |push| push(8, 80)), Some(2));
        assert!(!mem.exists(WAL_FILE), "staging touched the file");
        wal.wait_durable(2).unwrap();
        let (records, _, err) = record::decode_stream(&mem.durable_bytes(WAL_FILE));
        assert!(err.is_none());
        assert_eq!(records.len(), 2, "one batch holds both records");
        assert_eq!(wal.stats().flushes, 1);
    }

    /// Poll `cond` (yielding) until it holds; panic after a generous
    /// deadline rather than hang.
    fn eventually(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::yield_now();
        }
    }

    /// A log over a gate (counted by a fault layer that never faults).
    type Gated = (
        Arc<Wal>,
        Arc<GatedVfs<MemVfs>>,
        Arc<FaultVfs<GatedVfs<MemVfs>>>,
    );

    fn gated_wal() -> Gated {
        let gate = Arc::new(GatedVfs::new(Arc::new(MemVfs::new())));
        let counted = Arc::new(FaultVfs::new(gate.clone(), FaultPlan::default()));
        let wal = Arc::new(Wal::open(counted.clone() as Arc<dyn Vfs>));
        (wal, gate, counted)
    }

    /// Append `key` on its own thread, reporting the outcome in `done`.
    fn append_in<'s>(
        s: &'s std::thread::Scope<'s, '_>,
        wal: &'s Wal,
        key: u64,
        done: &'s AtomicBool,
    ) -> std::thread::ScopedJoinHandle<'s, Result<u64, WalError>> {
        s.spawn(move || {
            let r = wal.append(key, &[(key, key)]);
            done.store(true, Ordering::SeqCst);
            r
        })
    }

    #[test]
    fn a_second_leader_appends_and_syncs_while_the_first_sync_is_held() {
        let (wal, gate, counted) = gated_wal();
        let (first, second) = (AtomicBool::new(false), AtomicBool::new(false));
        std::thread::scope(|s| {
            let _open = gate.opener();
            let a = append_in(s, &wal, 1, &first);
            gate.await_arrivals(1);
            let b = append_in(s, &wal, 2, &second);
            // The second leader reached its own fsync with the first one
            // still held: both batches are in the file, neither durable.
            gate.await_arrivals(2);
            let (records, _, _) = record::decode_stream(&gate.inner().read(WAL_FILE).unwrap());
            assert_eq!(records.len(), 2);
            assert!(gate.inner().durable_bytes(WAL_FILE).is_empty());
            assert!(!first.load(Ordering::SeqCst) && !second.load(Ordering::SeqCst));
            gate.open();
            assert_eq!(a.join().unwrap(), Ok(1));
            assert_eq!(b.join().unwrap(), Ok(2));
        });
        let stats = wal.stats();
        assert_eq!((stats.records, stats.flushes), (2, 2));
        assert_eq!(stats.flushes, counted.syncs());
    }

    #[test]
    fn a_second_sync_that_finishes_first_releases_nobody() {
        let (wal, gate, counted) = gated_wal();
        let (first, second) = (AtomicBool::new(false), AtomicBool::new(false));
        std::thread::scope(|s| {
            let _open = gate.opener();
            let a = append_in(s, &wal, 1, &first);
            gate.await_arrivals(1);
            let b = append_in(s, &wal, 2, &second);
            gate.await_arrivals(2);
            gate.pass(2);
            eventually("the second fsync to land", || {
                wal.state.lock().flights.back().and_then(|f| f.synced) == Some(true)
            });
            assert_eq!(wal.state.lock().durable, 0, "the first batch is in flight");
            assert!(!second.load(Ordering::SeqCst), "its waiter was released");
            gate.pass(1);
            assert_eq!(a.join().unwrap(), Ok(1));
            assert_eq!(b.join().unwrap(), Ok(2));
        });
        assert_eq!(wal.state.lock().durable, 2);
        assert_eq!(wal.stats().flushes, counted.syncs());
    }

    #[test]
    fn a_failed_first_sync_poisons_and_the_second_marks_nothing_durable() {
        for second_lands_first in [true, false] {
            let (wal, gate, counted) = gated_wal();
            let (first, second) = (AtomicBool::new(false), AtomicBool::new(false));
            std::thread::scope(|s| {
                let _open = gate.opener();
                let a = append_in(s, &wal, 1, &first);
                gate.await_arrivals(1);
                let b = append_in(s, &wal, 2, &second);
                gate.await_arrivals(2);
                if second_lands_first {
                    gate.pass(2);
                    eventually("the second fsync to land", || {
                        wal.state.lock().flights.back().and_then(|f| f.synced) == Some(true)
                    });
                    gate.fail(1);
                } else {
                    gate.fail(1);
                    eventually("the poison", || wal.io_error().is_some());
                    gate.pass(2);
                }
                assert!(matches!(a.join().unwrap(), Err(WalError::Poisoned(_))));
                assert!(matches!(b.join().unwrap(), Err(WalError::Poisoned(_))));
            });
            assert_eq!(wal.state.lock().durable, 0, "{second_lands_first}");
            assert_eq!(wal.stats().flushes, 0, "{second_lands_first}");
            assert!(wal.io_error().unwrap().contains("injected fault"));
            assert_eq!(wal.stage(3, |push| push(3, 3)), None, "sticky");
            assert_eq!(counted.syncs(), 2, "nothing synced after the poison");
        }
    }

    #[test]
    fn seal_waits_for_every_sync_in_flight() {
        let (wal, gate, counted) = gated_wal();
        let (first, second, sealed) = (
            AtomicBool::new(false),
            AtomicBool::new(false),
            AtomicBool::new(false),
        );
        std::thread::scope(|s| {
            let _open = gate.opener();
            let a = append_in(s, &wal, 1, &first);
            gate.await_arrivals(1);
            let seal = s.spawn(|| {
                let r = wal.seal();
                sealed.store(true, Ordering::SeqCst);
                r
            });
            // Most often the seal now flushes record 1 only, and record 2's
            // fsync is still in flight when that flush returns. (When the
            // seal starts late it flushes both; the test holds either way.)
            for _ in 0..1000 {
                std::thread::yield_now();
            }
            let b = append_in(s, &wal, 2, &second);
            gate.await_arrivals(2);
            gate.pass(1);
            eventually("the first fsync to land", || wal.state.lock().durable == 1);
            assert!(!sealed.load(Ordering::SeqCst), "sealed under an fsync");
            assert!(gate.inner().exists(WAL_FILE) && !gate.inner().exists(WAL_OLD_FILE));
            gate.pass(2);
            assert_eq!(seal.join().unwrap(), Ok(true));
            assert_eq!(a.join().unwrap(), Ok(1));
            assert_eq!(b.join().unwrap(), Ok(2));
        });
        assert_eq!(wal.io_error(), None);
        let (records, _, err) = record::decode_stream(&gate.inner().durable_bytes(WAL_OLD_FILE));
        assert!(err.is_none());
        assert_eq!(records.len(), 2, "both batches sealed, durable");
        assert!(!gate.inner().exists(WAL_FILE));
        assert_eq!(wal.stats().flushes, counted.syncs());
    }

    #[test]
    fn observers_wait_only_for_pending_records_at_or_below_their_versions() {
        let (wal, gate, _) = gated_wal();
        gate.pass(1);
        wal.append(5, &[(5, 5)]).unwrap();
        let (writer, reader) = (AtomicBool::new(false), AtomicBool::new(false));
        std::thread::scope(|s| {
            let _open = gate.opener();
            let w = s.spawn(|| {
                let r = wal.append(9, &[(9, 9)]);
                writer.store(true, Ordering::SeqCst);
                r
            });
            gate.await_arrivals(2);
            // Everything at or below version 5 is durable: no wait, no lock.
            wal.wait_observed(5);
            wal.wait_observed(8);
            let r = s.spawn(|| {
                wal.wait_observed(9);
                reader.store(true, Ordering::SeqCst);
            });
            for _ in 0..1000 {
                std::thread::yield_now();
            }
            assert!(!reader.load(Ordering::SeqCst), "version 9 is pending");
            gate.open();
            r.join().unwrap();
            w.join().unwrap().unwrap();
        });
        assert!(writer.load(Ordering::SeqCst) && reader.load(Ordering::SeqCst));
        wal.wait_observed(u64::MAX);
    }

    #[test]
    fn spare_buffers_keep_their_capacity_across_flushes() {
        let wal = Wal::open(Arc::new(MemVfs::new()) as Arc<dyn Vfs>);
        for i in 0..4 {
            wal.append(i, &[(i, i)]).unwrap();
        }
        // Two buffers take turns: the one being staged into and the one
        // the last leader flushed and handed back.
        let st = wal.state.lock();
        assert!(st.buf.is_empty() && st.buf.capacity() > 0);
        assert_eq!(st.spares.len(), 1);
        assert!(st.spares[0].capacity() > 0);
    }
}
