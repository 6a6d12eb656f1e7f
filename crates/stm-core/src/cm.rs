//! Contention management: SwissTM's two-phase rule, the one policy.
//!
//! The paper's §VII compares OE-STM against TL2, LSA and SwissTM, and
//! SwissTM's only contention manager is its two-phase rule (Dragojević,
//! Guerraoui & Kapałka, PLDI 2009). The stack keeps exactly that, at its
//! two call sites:
//!
//! * **retry-time** — after an attempt lost a conflict, the shared
//!   [`driver::run`](crate::driver::run) loop calls [`pace_retry`] on the
//!   randomized exponential [`Backoff`] it creates at the run's first
//!   loss: spin [`Backoff::plan`]'s count, and once the ceiling saturates
//!   yield the core instead (on a core-starved host a yield is what lets
//!   the conflicting transaction finish). The enemy is unknown here, so no
//!   ticket is drawn.
//! * **encounter-time** — a backend that detects write-write conflicts
//!   eagerly (SwissTM's write-lock table) asks [`encounter_waits`] at the
//!   conflict site, with the lock owner's ticket known.
//!
//! On top of both, the driver's progress backstop parks a run past
//! [`PROGRESS_PARK_AFTER`] consecutive losses (see `driver`), which bounds
//! livelock whatever the pacing does.

use crate::backoff::Backoff;
use crate::stats::StmStats;

/// Spins of the first retry-time backoff step: about one short commit's
/// worth of waiting, so a loser's first retry usually finds the winner
/// gone.
pub const BACKOFF_MIN_SPINS: u32 = 32;

/// The retry-time backoff ceiling (2^14 spins, tens of microseconds).
/// Reaching it means spinning no longer helps, so the loser yields the
/// core instead.
pub const BACKOFF_MAX_SPINS: u32 = 1 << 14;

/// Below this many writes an attempt is *timid*: at an encounter-time
/// conflict it aborts itself, since it has little work to lose. From here
/// on it is *greedy* and may wait for an owner it is older than
/// (SwissTM's value).
pub const CM_WRITE_THRESHOLD: usize = 4;

/// Spins a transaction waits on a lock held by another: the greedy wait
/// of [`encounter_waits`], and the backends' bounded wait for a commit
/// write-back to finish before reporting a lock conflict. A commit's
/// write-back is a handful of stores, so a wait longer than this means the
/// owner was descheduled and waiting on is wasted.
pub const LOCK_SPIN_LIMIT: u32 = 64;

/// Consecutive conflict losses of one run after which the driver's
/// progress backstop starts parking the loser between retries. Low enough
/// to break a conflict storm quickly, high enough that ordinary contention
/// never sleeps.
pub const PROGRESS_PARK_AFTER: u32 = 64;

/// SwissTM's two-phase rule at an encounter-time write-write conflict:
/// whether the attempt holding `ticket`, having made `writes` writes and
/// spun `spins` times at this site, should spin once more and re-poll the
/// lock `owner` holds. `false` means it aborts itself.
///
/// * **phase 1 (timid)**: fewer than [`CM_WRITE_THRESHOLD`] writes → abort;
/// * **phase 2 (greedy)**: the older attempt (smaller ticket) waits up to
///   [`LOCK_SPIN_LIMIT`] spins; the younger aborts.
#[inline]
#[must_use]
pub fn encounter_waits(ticket: u64, owner: u64, writes: usize, spins: u32) -> bool {
    writes >= CM_WRITE_THRESHOLD && ticket < owner && spins <= LOCK_SPIN_LIMIT
}

/// Pace the retry after a conflict loss: spin `backoff`'s next count or,
/// once its ceiling has saturated, yield the core instead; filed as a
/// backoff or a yield in `stats`. Returns the spins (0 after a yield).
#[inline]
pub fn pace_retry(backoff: &mut Backoff, stats: &StmStats) -> u32 {
    let (spins, saturated) = backoff.plan();
    if saturated {
        stats.record_cm_yield();
        std::thread::yield_now();
        return 0;
    }
    stats.record_cm_backoff();
    for _ in 0..spins {
        core::hint::spin_loop();
    }
    spins
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_two_phase() {
        // The one policy keeps the values the former default (two-phase)
        // configuration carried, so its pacing did not move.
        assert_eq!((BACKOFF_MIN_SPINS, BACKOFF_MAX_SPINS), (32, 1 << 14));
        assert_eq!((CM_WRITE_THRESHOLD, LOCK_SPIN_LIMIT), (4, 64));
        assert_eq!(PROGRESS_PARK_AFTER, 64);
    }

    #[test]
    fn two_phase_reproduces_the_swiss_rule() {
        // Timid: fewer writes than the threshold → abort self, even when
        // older and fresh at the site.
        for writes in 0..CM_WRITE_THRESHOLD {
            assert!(!encounter_waits(1, 9, writes, 0), "{writes} writes");
        }
        // Greedy and older than the owner → wait in place…
        assert!(encounter_waits(1, 9, CM_WRITE_THRESHOLD, 0));
        assert!(encounter_waits(1, 9, 100, LOCK_SPIN_LIMIT));
        // …bounded by the spin limit…
        assert!(!encounter_waits(1, 9, 100, LOCK_SPIN_LIMIT + 1));
        // …and greedy-but-younger aborts.
        assert!(!encounter_waits(9, 1, 100, 0));
    }

    #[test]
    fn every_builtin_policy_terminates_encounter_waits() {
        // Livelock guard: a conflict site that polls the rule with growing
        // `spins` is told to abort within the spin limit (the win case —
        // the owner releasing — is the backends' job).
        let waited = (0..).take_while(|&s| encounter_waits(1, 9, 100, s)).count();
        assert_eq!(waited, LOCK_SPIN_LIMIT as usize + 1);
    }

    #[test]
    fn two_phase_retry_pacing_matches_plain_backoff() {
        // For a fixed seed, the retry-time decisions are `Backoff::plan`'s
        // sequence: its spins until the ceiling saturates (32 · 2^9 =
        // 2^14, the tenth loss), a yield on every loss after that.
        let stats = StmStats::new();
        let mut paced = Backoff::new(BACKOFF_MIN_SPINS, BACKOFF_MAX_SPINS, 42);
        let mut reference = Backoff::new(BACKOFF_MIN_SPINS, BACKOFF_MAX_SPINS, 42);
        for loss in 0..12 {
            let (spins, saturated) = reference.plan();
            assert_eq!(saturated, loss >= 9, "loss {loss}");
            let expect = if saturated { 0 } else { spins };
            assert_eq!(pace_retry(&mut paced, &stats), expect, "loss {loss}");
        }
        let snap = stats.snapshot();
        assert_eq!((snap.cm_backoffs, snap.cm_yields), (9, 3));
    }

    #[test]
    fn backoff_policy_grows_then_yields() {
        // Spin counts stay within a ceiling doubling per loss until the
        // pacing saturates; a different seed draws a different schedule.
        let plans = |seed| {
            let mut b = Backoff::new(BACKOFF_MIN_SPINS, BACKOFF_MAX_SPINS, seed);
            (0..10).map(|_| b.plan()).collect::<Vec<_>>()
        };
        let one = plans(7);
        for (loss, &(spins, saturated)) in one.iter().enumerate() {
            let ceiling = (BACKOFF_MIN_SPINS << loss).min(BACKOFF_MAX_SPINS);
            assert!(
                (BACKOFF_MIN_SPINS..=ceiling).contains(&spins),
                "loss {loss}"
            );
            assert_eq!(saturated, loss == 9, "loss {loss}");
        }
        assert_ne!(one, plans(8));
    }
}
