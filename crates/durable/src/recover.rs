//! Crash recovery: rebuild the durable heap image from whatever bytes
//! survived, repair the store in place, and *say what happened*.
//!
//! Recovery is deliberately boring — four idempotent steps, each safe to
//! re-crash inside (a second recovery over the result reaches the same
//! state):
//!
//! 1. Discard `snapshot.tmp` — an unfinished checkpoint is noise; the
//!    committed `snapshot` plus the logs it had not yet folded hold
//!    everything.
//! 2. Load `snapshot` if present. A *corrupt committed snapshot* is a
//!    hard, typed error ([`RecoverError::CorruptSnapshot`]) — its bytes
//!    replaced log records that are gone, so guessing would silently
//!    resurrect or lose data.
//! 3. Replay `wal.old` (a sealed segment an interrupted checkpoint left
//!    behind), then `wal`, in record order. A torn or corrupt tail ends
//!    replay: the clean prefix is applied, the tail is truncated off the
//!    file, and a diagnostic note records the byte offset and whether it
//!    looked like a tear (crash mid-append) or corruption (checksum).
//!    Nothing past the first bad frame is ever applied — a record is
//!    only replayed when every byte of it was fsynced. Zeros a log
//!    reserved ahead of its writes end replay cleanly: they are cut off
//!    the same way, under an "unwritten tail" note, so the repaired file
//!    is exactly what an appending log would have left.
//! 4. Return the rebuilt key→word image plus the diagnostics. The caller
//!    installs the image into its `TVar`s (see `tests/durability.rs`)
//!    and resumes appending to the now-clean `wal`.
// lint:allow — clock-blessed IO-path file (see xtask BLESSED_CLOCK_FILES).

use std::collections::BTreeMap;
use std::fmt;
use std::io;

use crate::record;
use crate::snapshot::{self, SnapshotError, SNAPSHOT_FILE, SNAPSHOT_TMP_FILE};
use crate::vfs::Vfs;
use crate::wal::{WAL_FILE, WAL_OLD_FILE};

/// The outcome of a successful recovery.
#[derive(Debug, Clone, Default)]
pub struct Recovery {
    /// The rebuilt durable image: stable key → last committed word.
    pub values: BTreeMap<u64, u64>,
    /// Entries that came from the snapshot (before log replay).
    pub snapshot_entries: usize,
    /// WAL records replayed (across `wal.old` and `wal`).
    pub records_applied: u64,
    /// Highest advisory commit version seen in replayed records.
    pub last_version: u64,
    /// Length of the live log `wal` after repair (0 when absent): where
    /// the next append goes.
    pub wal_len: u64,
    /// Human-readable diagnostics: discarded temp files, truncated
    /// tails, corruption verdicts. Empty means a perfectly clean start.
    pub notes: Vec<String>,
}

/// Why recovery could not produce a trustworthy image.
#[derive(Debug)]
pub enum RecoverError {
    /// The committed snapshot is corrupt. The log records it folded in
    /// were deleted, so the pre-crash state is not reconstructible —
    /// reported, never guessed around.
    CorruptSnapshot(SnapshotError),
    /// Filesystem failure while reading or repairing the store.
    Io(io::Error),
}

impl fmt::Display for RecoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoverError::CorruptSnapshot(e) => {
                write!(f, "recovery: committed snapshot unusable: {e}")
            }
            RecoverError::Io(e) => write!(f, "recovery io: {e}"),
        }
    }
}

impl std::error::Error for RecoverError {}

/// Replay one log file into `out`, truncating a bad or unwritten tail
/// in place. Returns the file's length after repair.
fn replay_log(vfs: &dyn Vfs, name: &str, out: &mut Recovery) -> Result<u64, RecoverError> {
    if !vfs.exists(name) {
        return Ok(0);
    }
    let bytes = vfs.read(name).map_err(RecoverError::Io)?;
    let (records, clean, err) = record::decode_stream(&bytes);
    for rec in &records {
        for &(key, word) in &rec.writes {
            out.values.insert(key, word);
        }
        out.last_version = out.last_version.max(rec.version);
    }
    out.records_applied += records.len() as u64;
    let Some(err) = err else {
        return Ok(clean as u64);
    };
    let (lost, n) = (bytes.len() - clean, records.len());
    out.notes.push(if err.is_unwritten() {
        format!(
            "{name}: unwritten tail of {lost} reserved byte(s) at byte {clean}; \
             truncated, kept {n} record(s)"
        )
    } else {
        let kind = if err.is_truncation() {
            "torn tail"
        } else {
            "corrupt record"
        };
        format!(
            "{name}: {kind} at byte {clean} ({err}); truncated {lost} byte(s), \
             kept {n} record(s)"
        )
    });
    vfs.truncate(name, clean as u64).map_err(RecoverError::Io)?;
    Ok(clean as u64)
}

/// Rebuild the durable image from `vfs`, repairing torn tails and
/// discarding unfinished checkpoints along the way. Idempotent: running
/// it again (including after a crash mid-recovery) returns the same
/// image.
///
/// # Errors
/// [`RecoverError::CorruptSnapshot`] when the committed snapshot fails
/// validation (unrecoverable by design — see type docs);
/// [`RecoverError::Io`] on filesystem failure.
pub fn recover(vfs: &dyn Vfs) -> Result<Recovery, RecoverError> {
    let mut out = Recovery::default();

    // Step 1: an in-flight checkpoint that never renamed is garbage.
    if vfs.exists(SNAPSHOT_TMP_FILE) {
        vfs.remove(SNAPSHOT_TMP_FILE).map_err(RecoverError::Io)?;
        out.notes.push(format!(
            "{SNAPSHOT_TMP_FILE}: discarded incomplete checkpoint"
        ));
    }

    // Step 2: the committed snapshot is the replay base.
    if vfs.exists(SNAPSHOT_FILE) {
        let bytes = vfs.read(SNAPSHOT_FILE).map_err(RecoverError::Io)?;
        out.values = snapshot::decode(&bytes).map_err(RecoverError::CorruptSnapshot)?;
        out.snapshot_entries = out.values.len();
    }

    // Step 3: sealed-but-unfolded segment first, then the live log —
    // the same order the bytes were written in.
    if vfs.exists(WAL_OLD_FILE) {
        out.notes.push(format!(
            "{WAL_OLD_FILE}: replaying segment left by an interrupted checkpoint"
        ));
    }
    replay_log(vfs, WAL_OLD_FILE, &mut out)?;
    out.wal_len = replay_log(vfs, WAL_FILE, &mut out)?;

    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;
    use crate::wal::Wal;
    use std::sync::Arc;

    #[test]
    fn empty_store_recovers_to_empty_image_with_no_notes() {
        let rec = recover(&MemVfs::new()).unwrap();
        assert!(rec.values.is_empty() && rec.notes.is_empty());
        assert_eq!(rec.records_applied, 0);
    }

    #[test]
    fn recovery_replays_snapshot_then_both_log_segments_in_order() {
        let mem = Arc::new(MemVfs::new());
        let wal = Wal::open(mem.clone() as Arc<dyn Vfs>);
        wal.append(1, &[(1, 10), (2, 20)]).unwrap();
        snapshot::checkpoint(&wal).unwrap();
        wal.append(2, &[(2, 21)]).unwrap();
        wal.seal().unwrap(); // leaves wal.old, as a dying checkpoint would
        wal.append(3, &[(1, 12)]).unwrap();

        let rec = recover(mem.as_ref()).unwrap();
        assert_eq!(rec.values, [(1u64, 12u64), (2, 21)].into());
        assert_eq!(rec.snapshot_entries, 2);
        assert_eq!(rec.records_applied, 2);
        assert_eq!(rec.last_version, 3);
        assert!(rec
            .notes
            .iter()
            .any(|n| n.contains("interrupted checkpoint")));
    }

    #[test]
    fn torn_tail_is_truncated_reported_and_idempotent() {
        let mem = Arc::new(MemVfs::new());
        let wal = Wal::open(mem.clone() as Arc<dyn Vfs>);
        wal.append(1, &[(1, 10)]).unwrap();
        let clean_len = mem.durable_bytes(WAL_FILE).len();
        wal.append(2, &[(2, 20)]).unwrap();
        // Tear the second record in half.
        mem.truncate(WAL_FILE, clean_len as u64 + 5).unwrap();

        let rec = recover(mem.as_ref()).unwrap();
        assert_eq!(rec.values, [(1u64, 10u64)].into(), "clean prefix only");
        assert!(rec.notes.iter().any(|n| n.contains("torn tail")));
        assert_eq!(
            mem.read(WAL_FILE).unwrap().len(),
            clean_len,
            "tail physically truncated"
        );
        // Idempotent: a second recovery (double crash) is clean.
        let rec2 = recover(mem.as_ref()).unwrap();
        assert_eq!(rec2.values, rec.values);
        assert!(rec2.notes.is_empty());
    }

    #[test]
    fn corrupt_snapshot_is_a_hard_typed_error() {
        let mem = MemVfs::new();
        mem.append(SNAPSHOT_FILE, b"CRTSNAP1garbage-after-magic")
            .unwrap();
        mem.sync(SNAPSHOT_FILE).unwrap();
        let err = recover(&mem).unwrap_err();
        assert!(matches!(err, RecoverError::CorruptSnapshot(_)), "{err}");
    }

    #[test]
    fn incomplete_checkpoint_tmp_is_discarded_with_a_note() {
        let mem = MemVfs::new();
        mem.append(SNAPSHOT_TMP_FILE, b"half-written").unwrap();
        mem.sync(SNAPSHOT_TMP_FILE).unwrap();
        let rec = recover(&mem).unwrap();
        assert!(!mem.exists(SNAPSHOT_TMP_FILE));
        assert!(rec
            .notes
            .iter()
            .any(|n| n.contains("incomplete checkpoint")));
    }
}
