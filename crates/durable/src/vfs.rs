//! The virtual filesystem the durable layer writes through.
//!
//! Everything in this crate does its IO through the object-safe [`Vfs`]
//! trait instead of `std::fs` directly, for one reason: **crash testing**.
//! [`StdVfs`] is the thin production binding to a real directory;
//! [`MemVfs`] is an in-memory filesystem that distinguishes *durable*
//! bytes (fsynced) from *pending* bytes (written but not yet synced), so a
//! test can [`MemVfs::crash`] the "machine" at any point and recover from
//! exactly the bytes a real kill would have left behind. The fault
//! injection layer ([`crate::fault::FaultVfs`]) wraps any `Vfs` and turns
//! scripted op counts into torn writes, fsync errors, and bit flips.
//!
//! File names are flat, slash-free keys relative to the store directory
//! (the durable layer only ever uses `wal`, `wal.old`, `snapshot`,
//! `snapshot.tmp`). Renames are modeled as atomic and immediately durable
//! — the POSIX idiom of `rename(2)` over a synced temp file; the
//! directory-entry fsync a fully paranoid production store would add is
//! out of scope here and called out in DESIGN.md.
//!
//! # The trait surface
//!
//! [`Vfs`] is eight methods. Seven are the file operations the layers
//! above need: whole-file [`read`](Vfs::read), [`append`](Vfs::append),
//! [`sync`](Vfs::sync) (fsync), atomic [`rename`](Vfs::rename),
//! [`remove`](Vfs::remove), [`exists`](Vfs::exists) and
//! [`truncate`](Vfs::truncate). The eighth, [`reserve`](Vfs::reserve), is
//! a hint with a no-op default: it backs the first `len` bytes of a file
//! with written, synced zeros, so that later appends overwrite space
//! that already exists instead of growing the file, and an fsync has no
//! file-size change to journal. It changes neither what `read` returns
//! nor where `append` writes. A reserved file that outlives its process
//! (a crash, or a second [`StdVfs`] on the same directory) reads as its
//! logical bytes followed by zeros; recovery reads the zeros as an
//! *unwritten tail* (see [`crate::record::decode_stream`]).

use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::io::{self, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

/// Object-safe filesystem surface of the durable layer: whole-file reads,
/// appends, fsync, atomic rename, remove, truncate, and the `reserve`
/// hint (see the module docs).
pub trait Vfs: Send + Sync {
    /// Read the entire current content of `name` (durable *and* pending
    /// bytes — what a live process sees). Missing files read as
    /// `NotFound`.
    ///
    /// # Errors
    /// `NotFound` when the file does not exist; backend IO errors
    /// otherwise.
    fn read(&self, name: &str) -> io::Result<Vec<u8>>;

    /// Append `data` to `name`, creating it if missing. Appended bytes
    /// are *pending* (lost on crash) until [`sync`](Self::sync) returns.
    ///
    /// # Errors
    /// Backend IO errors (and injected faults).
    fn append(&self, name: &str, data: &[u8]) -> io::Result<()>;

    /// Make every byte previously appended to `name` durable (fsync).
    ///
    /// # Errors
    /// Backend IO errors (and injected faults). After a failed sync the
    /// durability of the pending bytes is unknown — callers must treat
    /// the file as poisoned (the WAL does).
    fn sync(&self, name: &str) -> io::Result<()>;

    /// Atomically rename `from` to `to`, replacing `to` if it exists.
    ///
    /// # Errors
    /// `NotFound` when `from` does not exist; backend IO errors.
    fn rename(&self, from: &str, to: &str) -> io::Result<()>;

    /// Remove `name`. Removing a missing file is an error (`NotFound`).
    ///
    /// # Errors
    /// `NotFound` when the file does not exist; backend IO errors.
    fn remove(&self, name: &str) -> io::Result<()>;

    /// Whether `name` currently exists.
    fn exists(&self, name: &str) -> bool;

    /// Truncate `name` to `len` bytes (used by recovery to cut a torn or
    /// corrupt WAL tail). A no-op when the file is already shorter.
    ///
    /// # Errors
    /// `NotFound` when the file does not exist; backend IO errors.
    fn truncate(&self, name: &str, len: u64) -> io::Result<()>;

    /// Back the first `len` bytes of `name` with zeros that are written
    /// and synced, creating the file if missing. Changes neither what
    /// [`read`](Self::read) returns nor where [`append`](Self::append)
    /// writes. The default does nothing: a `Vfs` that ignores the hint
    /// simply keeps growing the file on every append.
    ///
    /// # Errors
    /// Backend IO errors. A failed reservation leaves the file's logical
    /// content as it was.
    fn reserve(&self, name: &str, len: u64) -> io::Result<()> {
        let _ = (name, len);
        Ok(())
    }
}

/// Bytes a [`StdVfs`] reservation writes per call: the zeros come from
/// one static block, so a reservation costs no heap.
const ZERO_BLOCK: usize = 64 << 10;
static ZEROS: [u8; ZERO_BLOCK] = [0; ZERO_BLOCK];

/// Production binding: files under a root directory on the real
/// filesystem.
///
/// An unreserved file is appended through a fresh append-mode handle and
/// synced through a fresh handle. Once [`Vfs::reserve`] has zero-filled
/// space for a file, this instance keeps one handle open for it and
/// remembers its *logical length* in memory: `append` writes there,
/// `sync` fsyncs the kept handle, and `read` stops there. A second
/// instance (or process) does not share that length; it reads the
/// logical bytes followed by the reserved zeros and relies on recovery
/// to cut them off.
#[derive(Debug)]
pub struct StdVfs {
    root: PathBuf,
    /// Reserved files, by name. Also held across an unreserved append, so
    /// a reservation never starts between an append's open and its write.
    reserved: Mutex<HashMap<String, Reserved>>,
}

/// A reserved file of one [`StdVfs`].
#[derive(Debug)]
struct Reserved {
    file: Arc<File>,
    /// The logical end: where the next append goes, where `read` stops.
    len: u64,
    /// How far the file is backed by data or written zeros.
    filled: u64,
}

impl StdVfs {
    /// Bind to `root`, creating the directory if needed.
    ///
    /// # Errors
    /// Propagates directory-creation failures.
    pub fn new(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(Self {
            root,
            reserved: Mutex::new(HashMap::new()),
        })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    fn reserved(&self) -> MutexGuard<'_, HashMap<String, Reserved>> {
        self.reserved.lock().expect("std vfs lock")
    }
}

/// Write all of `data` at byte `at` of `file`.
fn write_at(file: &File, at: u64, data: &[u8]) -> io::Result<()> {
    let mut f = file;
    f.seek(SeekFrom::Start(at))?;
    f.write_all(data)
}

impl Vfs for StdVfs {
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        let len = self.reserved().get(name).map(|r| r.len);
        let mut bytes = std::fs::read(self.path(name))?;
        if let Some(len) = len {
            bytes.truncate(usize::try_from(len).unwrap_or(usize::MAX));
        }
        Ok(bytes)
    }

    fn append(&self, name: &str, data: &[u8]) -> io::Result<()> {
        let mut reserved = self.reserved();
        if let Some(r) = reserved.get_mut(name) {
            write_at(&r.file, r.len, data)?;
            r.len += data.len() as u64;
            r.filled = r.filled.max(r.len);
            return Ok(());
        }
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path(name))?;
        f.write_all(data)
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        let kept = self.reserved().get(name).map(|r| Arc::clone(&r.file));
        match kept {
            Some(file) => file.sync_all(),
            // fsync(2) applies to the file, not the handle that wrote it,
            // so a fresh handle is sufficient to flush earlier appends.
            None => File::open(self.path(name))?.sync_all(),
        }
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        let mut reserved = self.reserved();
        std::fs::rename(self.path(from), self.path(to))?;
        reserved.remove(to);
        if let Some(r) = reserved.remove(from) {
            reserved.insert(to.to_string(), r);
        }
        Ok(())
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        let mut reserved = self.reserved();
        std::fs::remove_file(self.path(name))?;
        reserved.remove(name);
        Ok(())
    }

    fn exists(&self, name: &str) -> bool {
        self.path(name).is_file()
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        let mut reserved = self.reserved();
        if let Some(r) = reserved.remove(name) {
            // The zeros past the logical end go too: the file is plain
            // again.
            r.file.set_len(len.min(r.len))?;
            return r.file.sync_all();
        }
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(self.path(name))?;
        if f.metadata()?.len() > len {
            f.set_len(len)?;
            f.sync_all()?;
        }
        Ok(())
    }

    fn reserve(&self, name: &str, len: u64) -> io::Result<()> {
        let file = {
            let mut reserved = self.reserved();
            match reserved.get(name) {
                Some(r) => Arc::clone(&r.file),
                None => {
                    let file = std::fs::OpenOptions::new()
                        .read(true)
                        .write(true)
                        .create(true)
                        .truncate(false)
                        .open(self.path(name))?;
                    let end = file.metadata()?.len();
                    let file = Arc::new(file);
                    reserved.insert(
                        name.to_string(),
                        Reserved {
                            file: Arc::clone(&file),
                            len: end,
                            filled: end,
                        },
                    );
                    file
                }
            }
        };
        // One block per lock hold, never below the logical end: an append
        // racing the fill waits at most one block and is never zeroed.
        loop {
            let mut reserved = self.reserved();
            let Some(r) = reserved.get_mut(name) else {
                break; // renamed or removed meanwhile
            };
            let at = r.filled.max(r.len);
            if at >= len {
                break;
            }
            let n = (len - at).min(ZERO_BLOCK as u64);
            write_at(&r.file, at, &ZEROS[..n as usize])?;
            r.filled = at + n;
        }
        file.sync_all()
    }
}

/// One in-memory file: the durable prefix (survives [`MemVfs::crash`])
/// plus the pending suffix (appended but not yet fsynced), and the length
/// [`Vfs::reserve`] backed with synced zeros.
#[derive(Debug, Default, Clone)]
struct MemFile {
    durable: Vec<u8>,
    pending: Vec<u8>,
    reserved: usize,
}

impl MemFile {
    fn synced(durable: Vec<u8>) -> Self {
        Self {
            durable,
            ..Self::default()
        }
    }

    fn combined(&self) -> Vec<u8> {
        let mut out = self.durable.clone();
        out.extend_from_slice(&self.pending);
        out
    }

    /// What a crash leaves of this file: the synced bytes, then zeros up
    /// to the reserved length.
    fn crashed(&self) -> Vec<u8> {
        let mut out = self.durable.clone();
        if out.len() < self.reserved {
            out.resize(self.reserved, 0);
        }
        out
    }
}

/// In-memory filesystem with explicit durability tracking — the crash
/// simulator the recovery battery runs on.
#[derive(Debug, Default)]
pub struct MemVfs {
    files: Mutex<BTreeMap<String, MemFile>>,
}

impl MemVfs {
    /// An empty in-memory filesystem.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Simulate a process kill / power loss: every pending (unsynced)
    /// byte vanishes, every durable byte survives. A reserved file then
    /// holds its synced bytes followed by zeros up to the reserved length,
    /// and its logical length is forgotten: the zeros read back as data,
    /// as they would to a fresh process.
    pub fn crash(&self) {
        let mut files = self.files.lock().expect("mem vfs lock");
        for file in files.values_mut() {
            *file = MemFile::synced(file.crashed());
        }
    }

    /// The synced bytes of `name` (empty if the file does not exist). The
    /// zeros a reservation keeps past them are not included until a
    /// [`crash`](Self::crash) makes them part of the file.
    #[must_use]
    pub fn durable_bytes(&self, name: &str) -> Vec<u8> {
        self.files
            .lock()
            .expect("mem vfs lock")
            .get(name)
            .map(|f| f.durable.clone())
            .unwrap_or_default()
    }

    /// A fresh `MemVfs` seeded with exactly one durable file — the
    /// building block of the crash-point battery: `W[..offset]` is what a
    /// crash leaves of an appended log, `W[..offset]` followed by zeros
    /// what it leaves of a reserved one.
    #[must_use]
    pub fn with_file(name: &str, durable: Vec<u8>) -> Self {
        let vfs = Self::new();
        vfs.files
            .lock()
            .expect("mem vfs lock")
            .insert(name.to_string(), MemFile::synced(durable));
        vfs
    }

    /// Clone the current *durable* image (name → the bytes a crash would
    /// leave, reserved zeros included), i.e. the filesystem a crash right
    /// now would leave behind. Use it to build a post-crash replica with
    /// [`from_durable_image`](Self::from_durable_image).
    #[must_use]
    pub fn durable_image(&self) -> BTreeMap<String, Vec<u8>> {
        self.files
            .lock()
            .expect("mem vfs lock")
            .iter()
            .map(|(name, f)| (name.clone(), f.crashed()))
            .filter(|(_, bytes)| !bytes.is_empty())
            .collect()
    }

    /// Rebuild a filesystem from a durable image (see
    /// [`durable_image`](Self::durable_image)).
    #[must_use]
    pub fn from_durable_image(image: BTreeMap<String, Vec<u8>>) -> Self {
        let vfs = Self::new();
        {
            let mut files = vfs.files.lock().expect("mem vfs lock");
            for (name, durable) in image {
                files.insert(name, MemFile::synced(durable));
            }
        }
        vfs
    }
}

fn not_found(name: &str) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, format!("no such file: {name}"))
}

impl Vfs for MemVfs {
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.files
            .lock()
            .expect("mem vfs lock")
            .get(name)
            .map(MemFile::combined)
            .ok_or_else(|| not_found(name))
    }

    fn append(&self, name: &str, data: &[u8]) -> io::Result<()> {
        self.files
            .lock()
            .expect("mem vfs lock")
            .entry(name.to_string())
            .or_default()
            .pending
            .extend_from_slice(data);
        Ok(())
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        let mut files = self.files.lock().expect("mem vfs lock");
        let file = files.get_mut(name).ok_or_else(|| not_found(name))?;
        let pending = std::mem::take(&mut file.pending);
        file.durable.extend_from_slice(&pending);
        Ok(())
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        let mut files = self.files.lock().expect("mem vfs lock");
        let file = files.remove(from).ok_or_else(|| not_found(from))?;
        files.insert(to.to_string(), file);
        Ok(())
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.files
            .lock()
            .expect("mem vfs lock")
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| not_found(name))
    }

    fn exists(&self, name: &str) -> bool {
        self.files.lock().expect("mem vfs lock").contains_key(name)
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        let mut files = self.files.lock().expect("mem vfs lock");
        let file = files.get_mut(name).ok_or_else(|| not_found(name))?;
        let len = usize::try_from(len).unwrap_or(usize::MAX);
        if len <= file.durable.len() {
            file.durable.truncate(len);
            file.pending.clear();
        } else {
            file.pending.truncate(len - file.durable.len());
        }
        // As on disk: the zeros past the logical end are cut off too.
        file.reserved = 0;
        Ok(())
    }

    fn reserve(&self, name: &str, len: u64) -> io::Result<()> {
        let mut files = self.files.lock().expect("mem vfs lock");
        let file = files.entry(name.to_string()).or_default();
        file.reserved = file
            .reserved
            .max(usize::try_from(len).unwrap_or(usize::MAX));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_vfs_crash_drops_only_unsynced_bytes() {
        let vfs = MemVfs::new();
        vfs.append("wal", b"durable").unwrap();
        vfs.sync("wal").unwrap();
        vfs.append("wal", b"+pending").unwrap();
        assert_eq!(vfs.read("wal").unwrap(), b"durable+pending");
        vfs.crash();
        assert_eq!(vfs.read("wal").unwrap(), b"durable");
        assert_eq!(vfs.durable_bytes("wal"), b"durable");
    }

    #[test]
    fn mem_vfs_rename_remove_exists_truncate() {
        let vfs = MemVfs::new();
        vfs.append("a", b"abcdef").unwrap();
        vfs.sync("a").unwrap();
        vfs.append("a", b"ghi").unwrap();
        vfs.rename("a", "b").unwrap();
        assert!(!vfs.exists("a") && vfs.exists("b"));
        // Truncation inside the durable prefix also discards pending.
        vfs.truncate("b", 4).unwrap();
        assert_eq!(vfs.read("b").unwrap(), b"abcd");
        vfs.remove("b").unwrap();
        assert!(vfs.read("b").is_err());
        assert!(vfs.remove("b").is_err());
        assert!(vfs.rename("b", "c").is_err());
    }

    #[test]
    fn durable_image_round_trips_into_a_replica() {
        let vfs = MemVfs::new();
        vfs.append("wal", b"synced").unwrap();
        vfs.sync("wal").unwrap();
        vfs.append("wal", b"lost").unwrap();
        vfs.append("tmp", b"never-synced").unwrap();
        let replica = MemVfs::from_durable_image(vfs.durable_image());
        assert_eq!(replica.read("wal").unwrap(), b"synced");
        assert!(!replica.exists("tmp"), "unsynced files do not survive");
    }

    #[test]
    fn mem_vfs_crash_leaves_a_reserved_file_synced_bytes_then_zeros() {
        let vfs = MemVfs::new();
        vfs.append("wal", b"synced").unwrap();
        vfs.sync("wal").unwrap();
        vfs.reserve("wal", 16).unwrap();
        vfs.append("wal", b"+lost").unwrap();
        assert_eq!(vfs.read("wal").unwrap(), b"synced+lost", "logical bytes");
        assert_eq!(vfs.durable_image()["wal"], b"synced\0\0\0\0\0\0\0\0\0\0");
        vfs.crash();
        // The logical length is gone: the zeros now read as file content.
        assert_eq!(vfs.read("wal").unwrap(), b"synced\0\0\0\0\0\0\0\0\0\0");
        vfs.truncate("wal", 6).unwrap();
        vfs.crash();
        assert_eq!(
            vfs.read("wal").unwrap(),
            b"synced",
            "truncation cut the zeros"
        );
        vfs.reserve("fresh", 4).unwrap();
        assert_eq!(vfs.read("fresh").unwrap(), b"", "reserve creates the file");
        vfs.crash();
        assert_eq!(vfs.read("fresh").unwrap(), b"\0\0\0\0");
    }

    #[test]
    fn std_vfs_reserve_keeps_the_logical_view_and_backs_it_with_zeros() {
        let root = std::env::temp_dir().join(format!("durable-reserve-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let vfs = StdVfs::new(&root).unwrap();
        let on_disk = |name: &str| std::fs::metadata(root.join(name)).unwrap().len();
        vfs.append("log", b"hello").unwrap();
        vfs.reserve("log", 100_000).unwrap();
        assert_eq!(on_disk("log"), 100_000);
        vfs.append("log", b" world").unwrap();
        vfs.sync("log").unwrap();
        assert_eq!(vfs.read("log").unwrap(), b"hello world");
        assert_eq!(on_disk("log"), 100_000, "the append overwrote zeros");
        // A second instance sees the zeros; it relies on recovery.
        let fresh = StdVfs::new(&root).unwrap().read("log").unwrap();
        assert_eq!(fresh.len(), 100_000);
        assert!(fresh.starts_with(b"hello world") && fresh[11..].iter().all(|&b| b == 0));
        // The reservation follows a rename; truncation cuts the zeros off.
        vfs.rename("log", "old").unwrap();
        assert_eq!(vfs.read("old").unwrap(), b"hello world");
        vfs.truncate("old", 5).unwrap();
        assert_eq!(on_disk("old"), 5);
        assert_eq!(StdVfs::new(&root).unwrap().read("old").unwrap(), b"hello");
        vfs.append("old", b"!").unwrap();
        assert_eq!(vfs.read("old").unwrap(), b"hello!", "plain appends again");
        vfs.remove("old").unwrap();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn std_vfs_round_trips_under_a_temp_root() {
        let root = std::env::temp_dir().join(format!("durable-vfs-{}", std::process::id()));
        let vfs = StdVfs::new(&root).unwrap();
        let name = "t.log";
        let _ = vfs.remove(name);
        vfs.append(name, b"hello ").unwrap();
        vfs.append(name, b"world").unwrap();
        vfs.sync(name).unwrap();
        assert_eq!(vfs.read(name).unwrap(), b"hello world");
        vfs.truncate(name, 5).unwrap();
        assert_eq!(vfs.read(name).unwrap(), b"hello");
        vfs.rename(name, "t2.log").unwrap();
        assert!(vfs.exists("t2.log") && !vfs.exists(name));
        vfs.remove("t2.log").unwrap();
        let _ = std::fs::remove_dir_all(&root);
    }
}
