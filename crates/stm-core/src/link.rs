// lint:hot-path
//! Versioned links: a protection element and the small value it guards,
//! packed into one word.
//!
//! A [`TVar`](crate::TVar) is two words, its [`VLock`] and its value, and a
//! consistent read of it is three loads (lock, value, lock again). A
//! [`Link`] folds TL2's versioned write-lock (Dice, Shalev & Shavit, DISC
//! 2006) into the value it protects. The value must be small: a linked
//! structure's reference (an arena index plus a mark bit) fits. One
//! `AtomicU64` then holds
//!
//! ```text
//!  63 | 62 ............ 27 | 26 ........ 0
//!  L  |  version mod 2^36  |   payload
//! ```
//!
//! when unlocked, and `L = 1` plus the owner's ticket when locked, exactly
//! as a [`VLock`] does. A read is one `Acquire` load, and the word it
//! returns is its own `(version, value)` snapshot. A writer publishes the
//! new payload and its commit version in one `Release` store, so a link
//! write is buffered until commit, as every backend buffers a `TVar`
//! write: the lock word *is* the value.
//!
//! # The version window
//!
//! A link keeps only [`VERSION_BITS`] of its commit version, so a reader
//! recovers the full version relative to its snapshot by the serial-number
//! rule ([`newer_version`]). Stored bits ahead of the snapshot by less than
//! half the window (`2^(V-1)`) name a newer write, unless that version
//! lands above the current clock: no commit has a version above the clock,
//! so such bits are an ancient write that aliased forward, and they read as
//! older. Anything else, the snapshot's own bits included, reads as at or
//! below the snapshot.
//!
//! The rule is exact while the clock has advanced less than `2^(V-1)` past
//! the snapshot. Every backend keeps that true for what it commits: an
//! attempt that read a link and whose *clock age* (the clock's advance since
//! the attempt began) reaches [`MAX_AGE`] = `2^(V-2)` aborts at its next
//! snapshot extension or commit ([`check_age`]). At `2^35` commits that is
//! hours at any commit rate this workspace reaches. The same bound keeps
//! validation sound: a recorded raw word can come back unchanged only after
//! `2^V` commits to the link.

use crate::error::{Abort, AbortReason};
use crate::tvar::{ReadConflict, TVarCore};
use crate::vlock::{LockState, VLock};
use crate::word::Word;

/// Bits of commit version a link keeps (V).
pub const VERSION_BITS: u32 = 36;
/// Bits of payload a link carries: everything below the version.
pub const PAYLOAD_BITS: u32 = 63 - VERSION_BITS;
/// The largest payload a link can hold.
pub const PAYLOAD_MAX: u64 = (1 << PAYLOAD_BITS) - 1;
const VERSION_MASK: u64 = (1 << VERSION_BITS) - 1;
/// Half the version window: stored bits at least this far ahead of the
/// snapshot read as older.
const HALF_WINDOW: u64 = 1 << (VERSION_BITS - 1);
/// The clock age at which an attempt that read a link must abort at its
/// next extension or commit (see the module docs).
pub const MAX_AGE: u64 = 1 << (VERSION_BITS - 2);

// A window of at least 2^36 versions, and the age bound half of half a
// window (see the module docs).
const _: () = assert!(VERSION_BITS >= 36 && MAX_AGE * 2 == HALF_WINDOW);

/// One transactional word that is its own versioned lock: a lock bit, a
/// truncated commit version and a payload of at most [`PAYLOAD_BITS`].
///
/// Like a `TVar`, a `Link`'s address is its identity: read and write sets,
/// waiters and commit hooks name it by [`id`](Self::id).
#[derive(Debug, Default)]
pub struct Link {
    word: VLock,
}

/// Pack `payload` at commit `version` into an unlocked link word.
#[inline]
#[must_use]
pub(crate) const fn pack(version: u64, payload: u64) -> u64 {
    debug_assert!(payload <= PAYLOAD_MAX);
    ((version & VERSION_MASK) << PAYLOAD_BITS) | payload
}

/// The payload of an unlocked link word.
#[inline]
#[must_use]
pub(crate) const fn payload(raw: u64) -> u64 {
    raw & PAYLOAD_MAX
}

/// The stored (truncated) version bits of an unlocked link word.
#[inline]
#[must_use]
pub(crate) const fn version_bits(raw: u64) -> u64 {
    raw >> PAYLOAD_BITS
}

/// The serial-number rule: the full version of a write whose stored bits
/// are `bits`, if it is newer than `snapshot`; `None` if it is at or below
/// the snapshot. `clock` (a current clock reading, at least `snapshot`) is
/// consulted only when the bits are ahead of the snapshot.
#[inline]
#[must_use]
pub fn newer_version(bits: u64, snapshot: u64, clock: impl FnOnce() -> u64) -> Option<u64> {
    let ahead = bits.wrapping_sub(snapshot) & VERSION_MASK;
    if ahead == 0 || ahead >= HALF_WINDOW {
        return None;
    }
    let version = snapshot + ahead;
    (version <= clock()).then_some(version)
}

/// The inlined read heads' test of a link word: true when it is unlocked
/// and its version bits are less than half a window below `snapshot`'s
/// without wrapping, which the serial-number rule reads as at or below the
/// snapshot whatever the clock. A `false` (a lock, a newer write, or an
/// older one across the window's wrap or exactly half a window back) goes
/// to the caller's slow path and the full rule.
///
/// `pack(snapshot, PAYLOAD_MAX) - raw` never borrows from the payload
/// bits, so its bits from [`PAYLOAD_BITS`] up are the snapshot's bits
/// minus the word's. Its top two bits are clear exactly when that
/// difference is below 2^35, half a window; they are not when the word's
/// bits are ahead, because the subtraction wraps.
#[inline]
#[must_use]
pub(crate) const fn within_snapshot(raw: u64, snapshot: u64) -> bool {
    raw >> 63 == 0 && pack(snapshot, PAYLOAD_MAX).wrapping_sub(raw) >> 62 == 0
}

/// The age abort: `Err` once the clock has advanced [`MAX_AGE`] or more
/// since `start`, the clock value the attempt began at. `now` is any clock
/// reading taken at the check (a commit's write version, an extension's
/// target). Only attempts that read a link need to call this.
///
/// # Errors
/// [`AbortReason::ReadValidation`]: the attempt's link reads can no longer
/// be told from aliases.
#[inline]
pub fn check_age(start: u64, now: u64) -> Result<(), Abort> {
    if now.wrapping_sub(start) >= MAX_AGE {
        return Err(Abort::new(AbortReason::ReadValidation));
    }
    Ok(())
}

impl Link {
    /// An unlocked link holding `payload` at version 0.
    #[must_use]
    pub const fn new(payload: u64) -> Self {
        Self {
            word: VLock::new(pack(0, payload)),
        }
    }

    /// The link's protection element: the word itself.
    #[inline]
    #[must_use]
    pub fn lock(&self) -> &VLock {
        &self.word
    }

    /// A stable identity for this location (its address), in the same
    /// space as [`TVarCore::id`].
    #[inline]
    #[must_use]
    pub fn id(&self) -> usize {
        self.word.id()
    }

    /// One load: the payload and the raw word it came from, or the owner
    /// of a held lock.
    #[inline]
    pub fn read(&self) -> Result<(u64, u64), ReadConflict> {
        let raw = self.word.raw();
        match VLock::decode(raw) {
            LockState::Unlocked { .. } => Ok((payload(raw), raw)),
            LockState::Locked { owner } => Err(ReadConflict::Locked(owner)),
        }
    }

    /// Release the lock, publishing `payload` at commit `version` in one
    /// store. The caller holds the lock.
    #[inline]
    pub fn publish(&self, version: u64, payload: u64) {
        self.word.unlock_to(pack(version, payload));
    }

    /// Read the payload outside of any transaction, spinning while a commit
    /// holds the lock. For setup, teardown and assertions.
    #[must_use]
    pub fn load_atomic<T: Word>(&self) -> T {
        loop {
            if let Ok((p, _)) = self.read() {
                return T::from_word(p);
            }
            core::hint::spin_loop();
        }
    }

    /// Overwrite the payload outside of any transaction at `version` (from
    /// the STM's clock, so concurrent snapshots see a newer write). For
    /// setup in quiescent states.
    pub fn store_atomic<T: Word>(&self, value: T, version: u64) {
        let payload = value.into_word();
        assert!(payload <= PAYLOAD_MAX, "link payload out of range");
        loop {
            let raw = self.word.raw();
            if raw >> 63 == 0 && self.word.try_lock_at(raw, u64::MAX >> 1) {
                self.publish(version, payload);
                return;
            }
            core::hint::spin_loop();
        }
    }
}

/// A transactional location: a [`TVar`](crate::TVar)'s core or a [`Link`].
/// What write-set entries name, so locking, validation, the commit hook and
/// write-back treat both kinds in one code path; only write-back differs
/// (a `TVar` stores its value then releases its lock, a link publishes
/// both in one store).
#[derive(Debug, Clone, Copy)]
pub enum Loc<'env> {
    /// A two-word transactional variable.
    Var(&'env TVarCore),
    /// A one-word versioned link.
    Link(&'env Link),
}

impl<'env> Loc<'env> {
    /// The location's protection element.
    #[inline]
    #[must_use]
    pub fn lock(self) -> &'env VLock {
        match self {
            Loc::Var(core) => core.lock(),
            Loc::Link(link) => link.lock(),
        }
    }

    /// The location's identity (its protection element's address).
    #[inline]
    #[must_use]
    pub fn id(self) -> usize {
        self.lock().id()
    }

    /// A committed `(word, seen)` snapshot: the value and the raw
    /// protection word it was read under.
    #[inline]
    pub fn read_consistent(self) -> Result<(u64, u64), ReadConflict> {
        match self {
            Loc::Var(core) => core.read_consistent(),
            Loc::Link(link) => link.read(),
        }
    }

    /// One pass, no retry: the `(word, seen)` snapshot if the location is
    /// unlocked at or below `snapshot` and (for a `TVar`) did not move
    /// while its value was loaded; `None` otherwise. The inlined read
    /// heads' primitive. A `TVar`'s word is tested with one compare,
    /// `raw <= snapshot`, which rejects a locked word and a newer version
    /// at once; a link's by `within_snapshot`.
    #[inline]
    pub fn read_within(self, snapshot: u64) -> Option<(u64, u64)> {
        match self {
            Loc::Var(core) => {
                let raw = core.lock().raw();
                if raw > snapshot {
                    return None;
                }
                let word = core.value_unsync();
                (core.lock().raw() == raw).then_some((word, raw))
            }
            Loc::Link(link) => {
                let raw = link.lock().raw();
                within_snapshot(raw, snapshot).then_some((payload(raw), raw))
            }
        }
    }

    /// The full version of the write `seen` (from
    /// [`read_consistent`](Self::read_consistent)) if it is newer than
    /// `snapshot`. A link's truncated version is resolved by
    /// [`newer_version`], which calls `clock` only when its bits are ahead.
    #[inline]
    pub fn newer(self, seen: u64, snapshot: u64, clock: impl FnOnce() -> u64) -> Option<u64> {
        match self {
            Loc::Var(_) => (seen > snapshot).then_some(seen),
            Loc::Link(_) => newer_version(version_bits(seen), snapshot, clock),
        }
    }

    /// The location's current value without the consistency protocol (a
    /// link's payload). Only meaningful while the caller holds the
    /// location's (or an abstract) lock.
    #[inline]
    #[must_use]
    pub fn value_unsync(self) -> u64 {
        match self {
            Loc::Var(core) => core.value_unsync(),
            Loc::Link(link) => payload(link.lock().raw()),
        }
    }

    /// Write `value` back and release the lock at `version`. The caller
    /// holds the lock.
    #[inline]
    pub fn write_back(self, value: u64, version: u64) {
        match self {
            Loc::Var(core) => {
                core.store_value(value);
                core.lock().unlock_to(version);
            }
            Loc::Link(link) => link.publish(version, value),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: u64 = 1 << VERSION_BITS;

    /// The rule as a pure function of (stored bits, snapshot, clock).
    fn resolve(bits: u64, snapshot: u64, clock: u64) -> Option<u64> {
        newer_version(bits & VERSION_MASK, snapshot, || clock)
    }

    #[test]
    fn at_or_below_the_snapshot_is_older() {
        for (bits, rv) in [(0, 0), (5, 5), (3, 5), (0, 100), (99, 100)] {
            assert_eq!(resolve(bits, rv, rv + 10), None, "{bits} at {rv}");
            assert!(within_snapshot(pack(bits, 7), rv));
        }
        // As far below as half a window.
        assert_eq!(resolve(HALF_WINDOW, W, W), None);
    }

    #[test]
    fn newer_within_half_a_window_is_newer() {
        assert_eq!(resolve(6, 5, 6), Some(6));
        assert_eq!(resolve(9, 5, 100), Some(9));
        let rv = 1_000;
        let far = rv + HALF_WINDOW - 1;
        assert_eq!(resolve(far, rv, far), Some(far));
        // Exactly half a window ahead is not "less than half": older.
        assert_eq!(resolve(rv + HALF_WINDOW, rv, u64::MAX), None);
        assert!(!within_snapshot(pack(rv + 1, 0), rv));
    }

    #[test]
    fn ahead_of_the_snapshot_but_above_the_clock_is_an_aliased_ancient_write() {
        // Stored bits 10 ahead of the snapshot, but the clock is only 3
        // ahead: no commit can carry that version, so it is old.
        assert_eq!(resolve(15, 5, 8), None);
        // Version 0, never rewritten, read from just below a wrap: its
        // bits sit ahead of the snapshot, past the clock.
        assert_eq!(resolve(0, W - 2, W - 1), None);
        // The same bits once the clock has reached the wrap: the rule
        // reads a newer write (a spurious extension, never a missed one).
        assert_eq!(resolve(0, W - 2, W), Some(W));
    }

    #[test]
    fn the_rule_holds_across_a_wrap() {
        for rv in [W - 3, 3 * W - 1, 7 * W + 5] {
            for delta in [1, 2, 3, 10] {
                let v = rv + delta;
                assert_eq!(resolve(v, rv, v), Some(v), "rv {rv} + {delta}");
                assert_eq!(resolve(rv - delta, rv, v), None, "rv {rv} - {delta}");
            }
        }
    }

    /// The heads' test against the rule: it never accepts what the rule
    /// calls newer, whatever the clock, it accepts the snapshot's own bits
    /// and it rejects a locked word whatever its owner.
    #[test]
    fn the_head_test_accepts_only_what_the_rule_calls_older() {
        let samples = [
            0,
            1,
            2,
            HALF_WINDOW - 1,
            HALF_WINDOW,
            HALF_WINDOW + 1,
            W - 2,
            W - 1,
        ];
        for rv in [
            0,
            5,
            HALF_WINDOW - 1,
            HALF_WINDOW,
            W - 1,
            W,
            W + 3,
            5 * W + HALF_WINDOW,
        ] {
            for &bits in &samples {
                for age in [0, 1, 1000, HALF_WINDOW - 1] {
                    if within_snapshot(pack(bits, 0), rv)
                        || within_snapshot(pack(bits, PAYLOAD_MAX), rv)
                    {
                        assert_eq!(resolve(bits, rv, rv + age), None, "bits {bits} rv {rv}");
                    }
                }
            }
            assert!(within_snapshot(pack(rv, 0), rv), "a link at the snapshot");
            // Up to just short of half a window behind, short of the wrap.
            let behind = (HALF_WINDOW - 1).min(rv & VERSION_MASK);
            assert!(within_snapshot(pack(rv - behind, 3), rv));
            for owner in [1, 5, (1 << 62) - 1, (1 << 63) - 1] {
                assert!(!within_snapshot(1 << 63 | owner, rv), "a locked word");
            }
        }
    }

    #[test]
    fn lock_publish_restore_round_trips() {
        let l = Link::new(42);
        let raw = l.lock().raw();
        assert_eq!(l.read(), Ok((42, raw)));
        assert_eq!(version_bits(raw), 0);
        assert!(l.lock().try_lock_at(raw, 9));
        assert_eq!(l.read(), Err(ReadConflict::Locked(9)));
        // Abort: the old word comes back bit for bit.
        l.lock().unlock_to(raw);
        assert_eq!(l.read(), Ok((42, raw)));
        // Commit: payload and version in one store, truncated past a wrap.
        assert!(l.lock().try_lock_at(raw, 9));
        l.publish(W + 17, PAYLOAD_MAX);
        let (p, seen) = l.read().unwrap();
        assert_eq!((p, version_bits(seen)), (PAYLOAD_MAX, 17));
        assert_eq!(Loc::Link(&l).newer(seen, W + 16, || W + 17), Some(W + 17));
        assert_eq!(Loc::Link(&l).newer(seen, W + 17, || W + 17), None);
        // Setup stores go through the same lock.
        l.store_atomic(5u64, 3);
        assert_eq!(l.load_atomic::<u64>(), 5);
        assert_eq!(version_bits(l.lock().raw()), 3);
    }

    #[test]
    fn read_within_is_one_pass_for_both_kinds() {
        let l = Link::new(7);
        l.store_atomic(8u64, 4);
        assert_eq!(Loc::Link(&l).read_within(4).map(|(w, _)| w), Some(8));
        assert_eq!(Loc::Link(&l).read_within(3), None, "newer");
        let v = crate::TVar::new(8u64);
        v.store_atomic(9, 4);
        assert_eq!(Loc::Var(v.core()).read_within(4), Some((9, 4)));
        assert_eq!(Loc::Var(v.core()).read_within(3), None, "newer");
        assert!(v.core().lock().try_lock_at(4, 1));
        assert_eq!(
            Loc::Var(v.core()).read_within(u64::MAX >> 1),
            None,
            "locked"
        );
        let raw = l.lock().raw();
        assert!(l.lock().try_lock_at(raw, 1));
        assert_eq!(Loc::Link(&l).read_within(u64::MAX >> 1), None, "locked");
    }

    #[test]
    fn the_age_abort_fires_at_a_quarter_window() {
        assert!(check_age(10, 10).is_ok());
        assert!(check_age(10, 10 + MAX_AGE - 1).is_ok());
        let abort = check_age(10, 10 + MAX_AGE).unwrap_err();
        assert_eq!(abort.reason, AbortReason::ReadValidation);
        assert!(check_age(W, W + MAX_AGE + 1).is_err());
    }
}
