//! Commit/abort statistics.
//!
//! The paper's evaluation reports throughput *and abort rate* for every STM
//! (Figs. 6–8); these counters are what the benchmark harness reads.
//!
//! # Striped layout
//!
//! The counters are **striped**: an [`StmStats`] owns a small array of
//! cache-line-aligned cells, and every recording thread picks one stripe
//! (round-robin at first use, sticky for the thread's lifetime) so
//! commit-path bookkeeping from different threads lands on different cache
//! lines instead of bouncing one shared line between cores. Updates stay
//! relaxed RMWs; [`snapshot`](StmStats::snapshot) aggregates the stripes
//! lock-free. The counters are monotone, so a sum of relaxed per-stripe
//! loads is exactly as "consistent" as the old single-cell snapshot was.

use crate::error::AbortReason;
use core::cell::Cell;
use core::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Number of counter stripes (power of two; indexed round-robin by
/// recording thread). Eight stripes cover the bench sweep's thread counts
/// without making snapshots scan a large array.
const STRIPES: usize = 8;

/// The sticky stripe a thread records into: assigned round-robin from a
/// process-wide counter the first time the thread touches any `StmStats`.
fn stripe_index() -> usize {
    static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    STRIPE.with(|s| {
        let mut i = s.get();
        if i == usize::MAX {
            i = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) & (STRIPES - 1);
            s.set(i);
        }
        i
    })
}

/// One stripe of counters, padded to a cache-line boundary so neighbouring
/// stripes (and the STM instance's other fields) never false-share with it.
#[derive(Debug, Default)]
#[repr(align(64))]
struct StripeCell {
    commits: AtomicU64,
    aborts_by_cause: [AtomicU64; AbortReason::COUNT],
    child_commits: AtomicU64,
    outherits: AtomicU64,
    elastic_cuts: AtomicU64,
    extensions: AtomicU64,
    cm_backoffs: AtomicU64,
    cm_yields: AtomicU64,
    progress_parks: AtomicU64,
    retry_parks: AtomicU64,
    wakeups: AtomicU64,
    spurious_wakeups: AtomicU64,
}

impl StripeCell {
    fn reset(&self) {
        self.commits.store(0, Ordering::Relaxed);
        for c in &self.aborts_by_cause {
            c.store(0, Ordering::Relaxed);
        }
        self.child_commits.store(0, Ordering::Relaxed);
        self.outherits.store(0, Ordering::Relaxed);
        self.elastic_cuts.store(0, Ordering::Relaxed);
        self.extensions.store(0, Ordering::Relaxed);
        self.cm_backoffs.store(0, Ordering::Relaxed);
        self.cm_yields.store(0, Ordering::Relaxed);
        self.progress_parks.store(0, Ordering::Relaxed);
        self.retry_parks.store(0, Ordering::Relaxed);
        self.wakeups.store(0, Ordering::Relaxed);
        self.spurious_wakeups.store(0, Ordering::Relaxed);
    }
}

/// Live counters owned by an STM instance (striped; see the module docs).
#[derive(Debug)]
pub struct StmStats {
    stripes: [StripeCell; STRIPES],
}

impl Default for StmStats {
    fn default() -> Self {
        Self::new()
    }
}

impl StmStats {
    /// Fresh, zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Self {
            stripes: core::array::from_fn(|_| StripeCell::default()),
        }
    }

    /// The calling thread's stripe.
    #[inline]
    fn cell(&self) -> &StripeCell {
        &self.stripes[stripe_index()]
    }

    /// Record a top-level commit.
    #[inline]
    pub fn record_commit(&self) {
        self.cell().commits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record an abort with its cause.
    ///
    /// [`AbortReason::ExplicitRetry`] lands in its own slot of the
    /// per-cause array but is *excluded* from
    /// [`StatsSnapshot::aborts`]/[`StatsSnapshot::abort_rate`]: a user-level
    /// retry is a control-flow decision, not a conflict.
    #[inline]
    pub fn record_abort(&self, reason: AbortReason) {
        self.cell().aborts_by_cause[reason.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Record a committed child (composed) transaction.
    #[inline]
    pub fn record_child_commit(&self) {
        self.cell().child_commits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record an `outherit()` — a child passing its protected set up.
    #[inline]
    pub fn record_outherit(&self) {
        self.cell().outherits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record an elastic cut (a read-only prefix entry dropped from the
    /// window, i.e. a conflict the relaxed model ignored).
    #[inline]
    pub fn record_elastic_cut(&self) {
        self.cell().elastic_cuts.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a successful snapshot extension (LSA/SwissTM/elastic).
    #[inline]
    pub fn record_extension(&self) {
        self.cell().extensions.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a retry-time backoff (the conflict loser busy-waited before
    /// retrying).
    #[inline]
    pub fn record_cm_backoff(&self) {
        self.cell().cm_backoffs.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a retry-time yield (the conflict loser ceded the core before
    /// retrying).
    #[inline]
    pub fn record_cm_yield(&self) {
        self.cell().cm_yields.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a progress-backstop park: a transaction lost so many
    /// consecutive rounds that the retry loop put it to sleep (see
    /// [`driver::run`](crate::driver::run)) to guarantee some competitor
    /// an uncontended window.
    #[inline]
    pub fn record_progress_park(&self) {
        self.cell().progress_parks.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a `retry()` waiter actually parking on its read set (the
    /// wait registry's episode reached the park; see `wait::wait_on`).
    #[inline]
    pub fn record_retry_park(&self) {
        self.cell().retry_parks.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a parked waiter woken by a committing writer's token (the
    /// wake-on-commit path doing its job).
    #[inline]
    pub fn record_wakeup(&self) {
        self.cell().wakeups.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a park that expired on its bounded timeout with no
    /// relevant commit — the liveness backstop firing, not a wake.
    #[inline]
    pub fn record_spurious_wakeup(&self) {
        self.cell().spurious_wakeups.fetch_add(1, Ordering::Relaxed);
    }

    /// Take a consistent-enough snapshot for reporting (counters are
    /// monotone; exact simultaneity is not required). Aggregates every
    /// stripe lock-free.
    #[must_use]
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut snap = StatsSnapshot::default();
        for cell in &self.stripes {
            snap.commits += cell.commits.load(Ordering::Relaxed);
            for (slot, counter) in snap.aborts_by_cause.iter_mut().zip(&cell.aborts_by_cause) {
                *slot += counter.load(Ordering::Relaxed);
            }
            snap.child_commits += cell.child_commits.load(Ordering::Relaxed);
            snap.outherits += cell.outherits.load(Ordering::Relaxed);
            snap.elastic_cuts += cell.elastic_cuts.load(Ordering::Relaxed);
            snap.extensions += cell.extensions.load(Ordering::Relaxed);
            snap.cm_backoffs += cell.cm_backoffs.load(Ordering::Relaxed);
            snap.cm_yields += cell.cm_yields.load(Ordering::Relaxed);
            snap.progress_parks += cell.progress_parks.load(Ordering::Relaxed);
            snap.retry_parks += cell.retry_parks.load(Ordering::Relaxed);
            snap.wakeups += cell.wakeups.load(Ordering::Relaxed);
            snap.spurious_wakeups += cell.spurious_wakeups.load(Ordering::Relaxed);
        }
        snap
    }

    /// Reset all counters to zero (between benchmark phases).
    pub fn reset(&self) {
        for cell in &self.stripes {
            cell.reset();
        }
    }
}

/// A point-in-time copy of [`StmStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Top-level commits.
    pub commits: u64,
    /// Aborts, indexed by [`AbortReason::index`].
    pub aborts_by_cause: [u64; AbortReason::COUNT],
    /// Committed child (composed) transactions.
    pub child_commits: u64,
    /// `outherit()` invocations (protected sets passed to parents).
    pub outherits: u64,
    /// Elastic cuts taken (ignored read-prefix conflicts).
    pub elastic_cuts: u64,
    /// Successful snapshot extensions.
    pub extensions: u64,
    /// Contention-manager `Backoff` pacing decisions executed.
    pub cm_backoffs: u64,
    /// Contention-manager `Yield` pacing decisions executed.
    pub cm_yields: u64,
    /// Progress-backstop parks executed (escalating sleeps after runs of
    /// consecutive losses; see [`driver::run`](crate::driver::run)).
    pub progress_parks: u64,
    /// `retry()` waiters that actually parked on their read set.
    pub retry_parks: u64,
    /// Parked waiters woken by a committing writer's token.
    pub wakeups: u64,
    /// Parks that expired on their bounded timeout instead (the
    /// liveness backstop, not a commit).
    pub spurious_wakeups: u64,
}

impl StatsSnapshot {
    /// Total *conflict* aborts across all causes — everything except
    /// user-level [`AbortReason::ExplicitRetry`], which is a control-flow
    /// decision (see [`explicit_retries`](Self::explicit_retries)).
    #[must_use]
    pub fn aborts(&self) -> u64 {
        self.aborts_by_cause
            .iter()
            .zip(AbortReason::ALL)
            .filter(|(_, r)| !r.is_explicit_retry())
            .map(|(n, _)| n)
            .sum()
    }

    /// User-level explicit retries (`tx.retry()` / `or_else` branch
    /// switches) — reported as their own category, next to `outherits`
    /// in the benchmark tables.
    #[must_use]
    pub fn explicit_retries(&self) -> u64 {
        self.aborts_by_cause[AbortReason::ExplicitRetry.index()]
    }

    /// Aborts decided by a contention manager (encounter-time self-aborts
    /// like SwissTM's timid phase) — a subset of [`aborts`](Self::aborts),
    /// never of [`explicit_retries`](Self::explicit_retries).
    #[must_use]
    pub fn cm_aborts(&self) -> u64 {
        self.aborts_by_cause[AbortReason::ContentionManager.index()]
    }

    /// Retry-time pacing steps executed (backoffs + yields) — how often
    /// conflict losers actually waited before retrying: once per loss.
    #[must_use]
    pub fn cm_waits(&self) -> u64 {
        self.cm_backoffs + self.cm_yields
    }

    /// Abort rate as the paper plots it: aborts / (aborts + commits).
    #[must_use]
    pub fn abort_rate(&self) -> f64 {
        let aborts = self.aborts() as f64;
        let total = aborts + self.commits as f64;
        if total == 0.0 {
            0.0
        } else {
            aborts / total
        }
    }

    /// Pointwise difference (for measuring a benchmark phase).
    #[must_use]
    pub fn delta_since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        let mut aborts_by_cause = [0u64; AbortReason::COUNT];
        for (slot, (now, then)) in aborts_by_cause
            .iter_mut()
            .zip(self.aborts_by_cause.iter().zip(&earlier.aborts_by_cause))
        {
            *slot = now - then;
        }
        StatsSnapshot {
            commits: self.commits - earlier.commits,
            aborts_by_cause,
            child_commits: self.child_commits - earlier.child_commits,
            outherits: self.outherits - earlier.outherits,
            elastic_cuts: self.elastic_cuts - earlier.elastic_cuts,
            extensions: self.extensions - earlier.extensions,
            cm_backoffs: self.cm_backoffs - earlier.cm_backoffs,
            cm_yields: self.cm_yields - earlier.cm_yields,
            progress_parks: self.progress_parks - earlier.progress_parks,
            retry_parks: self.retry_parks - earlier.retry_parks,
            wakeups: self.wakeups - earlier.wakeups,
            spurious_wakeups: self.spurious_wakeups - earlier.spurious_wakeups,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abort_rate_empty_is_zero() {
        assert_eq!(StatsSnapshot::default().abort_rate(), 0.0);
    }

    #[test]
    fn abort_rate_counts_all_causes() {
        let s = StmStats::new();
        s.record_commit();
        s.record_abort(AbortReason::LockConflict);
        s.record_abort(AbortReason::ReadValidation);
        s.record_abort(AbortReason::ReadValidation);
        let snap = s.snapshot();
        assert_eq!(snap.aborts(), 3);
        assert!((snap.abort_rate() - 0.75).abs() < 1e-12);
        assert_eq!(snap.aborts_by_cause[AbortReason::ReadValidation.index()], 2);
    }

    #[test]
    fn explicit_retries_are_not_conflict_aborts() {
        let s = StmStats::new();
        s.record_commit();
        s.record_abort(AbortReason::ExplicitRetry);
        s.record_abort(AbortReason::ExplicitRetry);
        s.record_abort(AbortReason::LockConflict);
        let snap = s.snapshot();
        assert_eq!(snap.explicit_retries(), 2);
        assert_eq!(snap.aborts(), 1, "retries must not count as aborts");
        assert!((snap.abort_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn delta_subtracts_pointwise() {
        let s = StmStats::new();
        s.record_commit();
        let before = s.snapshot();
        s.record_commit();
        s.record_abort(AbortReason::Explicit);
        s.record_outherit();
        let d = s.snapshot().delta_since(&before);
        assert_eq!(d.commits, 1);
        assert_eq!(d.aborts(), 1);
        assert_eq!(d.outherits, 1);
    }

    #[test]
    fn reset_zeroes_everything() {
        let s = StmStats::new();
        s.record_commit();
        s.record_abort(AbortReason::Explicit);
        s.record_elastic_cut();
        s.record_extension();
        s.record_child_commit();
        s.record_outherit();
        s.record_cm_backoff();
        s.record_cm_yield();
        s.record_progress_park();
        s.record_retry_park();
        s.record_wakeup();
        s.record_spurious_wakeup();
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn abort_rate_never_divides_by_zero() {
        // Empty snapshot: 0 aborts, 0 commits.
        assert_eq!(StatsSnapshot::default().abort_rate(), 0.0);
        // Explicit retries only: excluded from the numerator AND the
        // denominator — the rate must stay a well-defined 0, not NaN.
        let s = StmStats::new();
        s.record_abort(AbortReason::ExplicitRetry);
        s.record_abort(AbortReason::ExplicitRetry);
        let snap = s.snapshot();
        assert_eq!(snap.aborts(), 0);
        assert_eq!(snap.abort_rate(), 0.0);
        assert!(snap.abort_rate().is_finite());
        // Aborts without commits: rate is exactly 1, still finite.
        s.record_abort(AbortReason::ContentionManager);
        assert_eq!(s.snapshot().abort_rate(), 1.0);
    }

    #[test]
    fn every_abort_reason_files_into_exactly_one_category() {
        // Enumerate ALL variants: each must land either in the conflict
        // aborts or in the explicit-retry category — never both, never
        // neither (a new variant that forgets its filing breaks this).
        for reason in AbortReason::ALL {
            let s = StmStats::new();
            s.record_abort(reason);
            let snap = s.snapshot();
            let in_aborts = snap.aborts() == 1;
            let in_retries = snap.explicit_retries() == 1;
            assert!(
                in_aborts ^ in_retries,
                "{reason:?}: filed as abort={in_aborts}, retry={in_retries}"
            );
            assert_eq!(
                in_retries,
                reason.is_explicit_retry(),
                "{reason:?}: category disagrees with is_explicit_retry()"
            );
            // The CM-abort accessor counts exactly the CM variant.
            assert_eq!(
                snap.cm_aborts(),
                u64::from(reason == AbortReason::ContentionManager),
                "{reason:?}"
            );
        }
    }

    #[test]
    fn cm_aborts_never_double_count_explicit_retries() {
        let s = StmStats::new();
        s.record_abort(AbortReason::ContentionManager);
        s.record_abort(AbortReason::ExplicitRetry);
        let snap = s.snapshot();
        assert_eq!(snap.cm_aborts(), 1);
        assert_eq!(snap.explicit_retries(), 1);
        assert_eq!(snap.aborts(), 1, "the retry must not inflate aborts");
        assert!(snap.cm_aborts() <= snap.aborts(), "cm_aborts ⊆ aborts");
    }

    #[test]
    fn cm_wait_counters_accumulate_delta_and_reset() {
        let s = StmStats::new();
        s.record_cm_backoff();
        s.record_cm_backoff();
        s.record_cm_yield();
        let before = s.snapshot();
        assert_eq!((before.cm_backoffs, before.cm_yields), (2, 1));
        assert_eq!(before.cm_waits(), 3);
        s.record_cm_yield();
        let d = s.snapshot().delta_since(&before);
        assert_eq!((d.cm_backoffs, d.cm_yields), (0, 1));
        assert_eq!(d.cm_waits(), 1);
        s.reset();
        assert_eq!(s.snapshot().cm_waits(), 0);
    }

    #[test]
    fn progress_parks_accumulate_delta_and_reset() {
        let s = StmStats::new();
        s.record_progress_park();
        s.record_progress_park();
        let before = s.snapshot();
        assert_eq!(before.progress_parks, 2);
        s.record_progress_park();
        assert_eq!(s.snapshot().delta_since(&before).progress_parks, 1);
        s.reset();
        assert_eq!(s.snapshot().progress_parks, 0);
    }

    #[test]
    fn wait_counters_accumulate_delta_and_reset() {
        let s = StmStats::new();
        s.record_retry_park();
        s.record_retry_park();
        s.record_wakeup();
        s.record_spurious_wakeup();
        let before = s.snapshot();
        assert_eq!(before.retry_parks, 2);
        assert_eq!((before.wakeups, before.spurious_wakeups), (1, 1));
        s.record_wakeup();
        let d = s.snapshot().delta_since(&before);
        assert_eq!((d.retry_parks, d.wakeups, d.spurious_wakeups), (0, 1, 0));
        s.reset();
        assert_eq!(s.snapshot().retry_parks, 0);
        assert_eq!(s.snapshot().wakeups, 0);
        assert_eq!(s.snapshot().spurious_wakeups, 0);
    }

    #[test]
    fn striped_recording_aggregates_across_threads() {
        // Several threads record into (likely different) stripes; the
        // snapshot must sum them all — no count may be lost to striping.
        let s = std::sync::Arc::new(StmStats::new());
        let threads = crate::parallel::worker_threads(4);
        let mut handles = Vec::new();
        for _ in 0..threads {
            let s = std::sync::Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    s.record_commit();
                    s.record_abort(AbortReason::LockConflict);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = s.snapshot();
        let expect = threads as u64 * 1000;
        assert_eq!(snap.commits, expect);
        assert_eq!(snap.aborts(), expect);
    }
}
