//! Deterministic IO fault injection.
//!
//! [`FaultVfs`] wraps any [`Vfs`] and converts a scripted [`FaultPlan`]
//! into concrete failures at exact operation counts: the Nth fsync
//! errors, the Nth append tears after K bytes, reads of a named file
//! come back with one bit flipped. Determinism is the point — every
//! failure the recovery battery exercises is reproducible from a plan
//! value, no timing or randomness involved, so a failing case is a
//! one-line repro.
//!
//! [`GatedVfs`] is the same idea for *order*: it holds every fsync at a
//! gate until the test lets that one through (or fails it), so a test
//! can force any order among overlapping fsyncs without sleeping.

use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::vfs::Vfs;

/// A scripted failure schedule, counted in operations since the
/// `FaultVfs` was built. All fields default to "never fault".
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Fail the `n`th call to [`Vfs::sync`] (1-based) and every sync
    /// after it — a dying disk, not a transient hiccup.
    pub fail_sync_from: Option<u64>,
    /// On the `n`th call to [`Vfs::append`] (1-based), persist only the
    /// first `k` bytes and return an error — a torn write.
    pub tear_append: Option<TornAppend>,
    /// Flip the given bit of the byte at `offset` whenever `file` is
    /// read — latent media corruption.
    pub flip_on_read: Option<BitFlip>,
}

/// Tear the `nth` append after `keep` bytes.
#[derive(Debug, Clone, Copy)]
pub struct TornAppend {
    /// 1-based index of the append call to tear.
    pub nth: u64,
    /// How many bytes of that append survive.
    pub keep: usize,
}

/// Flip bit `bit` of the byte at `offset` in reads of `file`.
#[derive(Debug, Clone)]
pub struct BitFlip {
    /// File whose reads are corrupted.
    pub file: String,
    /// Byte offset to corrupt.
    pub offset: usize,
    /// Bit index (0-7) to flip.
    pub bit: u8,
}

/// A [`Vfs`] decorator that injects the faults scripted in a
/// [`FaultPlan`].
pub struct FaultVfs<V: Vfs> {
    inner: Arc<V>,
    plan: FaultPlan,
    appends: AtomicU64,
    syncs: AtomicU64,
}

impl<V: Vfs> FaultVfs<V> {
    /// Wrap `inner`, injecting the faults in `plan`.
    pub fn new(inner: Arc<V>, plan: FaultPlan) -> Self {
        Self {
            inner,
            plan,
            appends: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
        }
    }

    /// The wrapped filesystem (used by tests to crash/inspect it).
    pub fn inner(&self) -> &Arc<V> {
        &self.inner
    }

    /// Total [`Vfs::sync`] calls observed so far.
    pub fn syncs(&self) -> u64 {
        self.syncs.load(Ordering::Relaxed)
    }

    /// Total [`Vfs::append`] calls observed so far.
    pub fn appends(&self) -> u64 {
        self.appends.load(Ordering::Relaxed)
    }
}

fn injected(what: &str) -> io::Error {
    io::Error::other(format!("injected fault: {what}"))
}

impl<V: Vfs> Vfs for FaultVfs<V> {
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        let mut bytes = self.inner.read(name)?;
        if let Some(flip) = &self.plan.flip_on_read {
            if flip.file == name {
                if let Some(byte) = bytes.get_mut(flip.offset) {
                    *byte ^= 1 << flip.bit;
                }
            }
        }
        Ok(bytes)
    }

    fn append(&self, name: &str, data: &[u8]) -> io::Result<()> {
        let n = self.appends.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(tear) = self.plan.tear_append {
            if n == tear.nth {
                let keep = tear.keep.min(data.len());
                self.inner.append(name, &data[..keep])?;
                return Err(injected("torn append"));
            }
        }
        self.inner.append(name, data)
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        let n = self.syncs.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(from) = self.plan.fail_sync_from {
            if n >= from {
                return Err(injected("fsync failure"));
            }
        }
        self.inner.sync(name)
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        self.inner.rename(from, to)
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.inner.remove(name)
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        self.inner.truncate(name, len)
    }

    fn reserve(&self, name: &str, len: u64) -> io::Result<()> {
        self.inner.reserve(name, len)
    }
}

/// How long [`GatedVfs::await_arrivals`] waits before it calls the test
/// wedged.
const GATE_PATIENCE: Duration = Duration::from_secs(60);

/// A [`Vfs`] decorator that holds each [`Vfs::sync`] at a gate until the
/// test decides it: [`pass`](Self::pass) lets the `n`th sync through to
/// the wrapped filesystem, [`fail`](Self::fail) makes it return an
/// injected error, [`open`](Self::open) lets every sync through from then
/// on. Syncs are numbered from 1 in the order they reach the gate;
/// everything but `sync` passes straight through (a reservation's own
/// fsync included).
pub struct GatedVfs<V: Vfs> {
    inner: Arc<V>,
    gate: Mutex<Gate>,
    moved: Condvar,
}

#[derive(Debug, Default)]
struct Gate {
    /// Syncs that have reached the gate.
    arrived: u64,
    /// Decided syncs: number → pass (`true`) or fail (`false`).
    verdicts: BTreeMap<u64, bool>,
    open: bool,
}

impl<V: Vfs> GatedVfs<V> {
    /// Wrap `inner` behind a closed gate.
    pub fn new(inner: Arc<V>) -> Self {
        Self {
            inner,
            gate: Mutex::new(Gate::default()),
            moved: Condvar::new(),
        }
    }

    /// The wrapped filesystem.
    pub fn inner(&self) -> &Arc<V> {
        &self.inner
    }

    /// Block until `n` syncs have reached the gate.
    ///
    /// # Panics
    /// When that does not happen within a minute: the code under test is
    /// wedged.
    pub fn await_arrivals(&self, n: u64) {
        let mut gate = self.gate.lock();
        while gate.arrived < n {
            let waited = self.moved.wait_for(&mut gate, GATE_PATIENCE);
            assert!(
                !waited.timed_out() || gate.arrived >= n,
                "{} of {n} syncs reached the gate",
                gate.arrived
            );
        }
    }

    /// Let the `nth` sync (1-based, arrival order) through, now or when
    /// it arrives.
    pub fn pass(&self, nth: u64) {
        self.decide(nth, true);
    }

    /// Make the `nth` sync return an injected error without syncing.
    pub fn fail(&self, nth: u64) {
        self.decide(nth, false);
    }

    /// Let every sync through, held or future.
    pub fn open(&self) {
        self.gate.lock().open = true;
        self.moved.notify_all();
    }

    /// A guard that [`open`](Self::open)s the gate when dropped — also
    /// while a failed assertion unwinds, so the threads held at the gate
    /// finish and a scope waiting for them ends.
    pub fn opener(&self) -> impl Drop + '_ {
        struct Opener<'a, V: Vfs>(&'a GatedVfs<V>);
        impl<V: Vfs> Drop for Opener<'_, V> {
            fn drop(&mut self) {
                self.0.open();
            }
        }
        Opener(self)
    }

    fn decide(&self, nth: u64, pass: bool) {
        self.gate.lock().verdicts.insert(nth, pass);
        self.moved.notify_all();
    }
}

impl<V: Vfs> Vfs for GatedVfs<V> {
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.inner.read(name)
    }

    fn append(&self, name: &str, data: &[u8]) -> io::Result<()> {
        self.inner.append(name, data)
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        let pass = {
            let mut gate = self.gate.lock();
            gate.arrived += 1;
            let me = gate.arrived;
            self.moved.notify_all();
            loop {
                if gate.open {
                    break true;
                }
                if let Some(&pass) = gate.verdicts.get(&me) {
                    break pass;
                }
                self.moved.wait(&mut gate);
            }
        };
        if pass {
            self.inner.sync(name)
        } else {
            Err(injected("gated fsync failure"))
        }
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        self.inner.rename(from, to)
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.inner.remove(name)
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        self.inner.truncate(name, len)
    }

    fn reserve(&self, name: &str, len: u64) -> io::Result<()> {
        self.inner.reserve(name, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;

    #[test]
    fn nth_sync_fails_and_stays_failed() {
        let vfs = FaultVfs::new(
            Arc::new(MemVfs::new()),
            FaultPlan {
                fail_sync_from: Some(2),
                ..FaultPlan::default()
            },
        );
        vfs.append("f", b"a").unwrap();
        vfs.sync("f").unwrap();
        vfs.append("f", b"b").unwrap();
        assert!(vfs.sync("f").is_err());
        assert!(vfs.sync("f").is_err(), "sync failure is sticky");
        assert_eq!(vfs.inner().durable_bytes("f"), b"a");
    }

    #[test]
    fn torn_append_persists_a_prefix_then_errors() {
        let vfs = FaultVfs::new(
            Arc::new(MemVfs::new()),
            FaultPlan {
                tear_append: Some(TornAppend { nth: 2, keep: 3 }),
                ..FaultPlan::default()
            },
        );
        vfs.append("f", b"full").unwrap();
        assert!(vfs.append("f", b"torn-off").is_err());
        vfs.sync("f").unwrap();
        assert_eq!(vfs.read("f").unwrap(), b"fulltor");
    }

    #[test]
    fn bit_flip_corrupts_reads_of_the_named_file_only() {
        let vfs = FaultVfs::new(
            Arc::new(MemVfs::new()),
            FaultPlan {
                flip_on_read: Some(BitFlip {
                    file: "f".into(),
                    offset: 0,
                    bit: 0,
                }),
                ..FaultPlan::default()
            },
        );
        vfs.append("f", b"\x00").unwrap();
        vfs.append("g", b"\x00").unwrap();
        assert_eq!(vfs.read("f").unwrap(), b"\x01", "bit 0 flipped");
        assert_eq!(vfs.read("g").unwrap(), b"\x00", "other files untouched");
    }

    #[test]
    fn gated_syncs_wait_for_their_own_verdict() {
        let vfs = GatedVfs::new(Arc::new(MemVfs::new()));
        vfs.append("f", b"a").unwrap();
        std::thread::scope(|s| {
            let first = s.spawn(|| vfs.sync("f"));
            vfs.await_arrivals(1);
            let second = s.spawn(|| vfs.sync("f"));
            vfs.await_arrivals(2);
            assert!(vfs.inner().durable_bytes("f").is_empty(), "both held");
            vfs.fail(2);
            assert!(second.join().unwrap().is_err());
            assert!(
                vfs.inner().durable_bytes("f").is_empty(),
                "a failed sync syncs nothing"
            );
            vfs.pass(1);
            first.join().unwrap().unwrap();
        });
        assert_eq!(vfs.inner().durable_bytes("f"), b"a");
        vfs.open();
        vfs.sync("f").unwrap();
    }
}
