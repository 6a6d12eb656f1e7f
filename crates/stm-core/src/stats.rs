//! Commit/abort statistics.
//!
//! The paper's evaluation reports throughput *and abort rate* for every STM
//! (Figs. 6–8); these counters are what the benchmark harness reads.
//!
//! # Thread-owned slots
//!
//! An [`StmStats`] owns 8 cache-line-aligned *owned* cells and 8 *shared*
//! stripes. Slot `i` is a process-wide ownership flag: at its first record
//! a thread claims the first free flag with an `Acquire` CAS, then writes
//! cell `i` of every instance for as long as it lives. A slot has one
//! writer at a time, so an owned record is a relaxed load and store — no
//! locked instruction on the commit path. At thread exit a thread-local
//! guard hands the slot back with a `Release` store, which the next
//! owner's claim reads, so that owner counts on from the last one's
//! totals. The guard also moves the exiting thread to a shared stripe, so
//! a record from a later thread-local destructor still counts.
//!
//! A thread that finds all 8 slots owned takes a shared stripe instead,
//! round-robin and for its lifetime (it never claims a slot freed later),
//! and records there with a relaxed `fetch_add`. `repro`'s sweep runs up
//! to 64 workers beside a main thread that keeps the slot its prefill
//! claimed, so 57 of them share the 8 stripes, 7 or 8 to a cache line.
//! [`snapshot`](StmStats::snapshot) sums every cell with relaxed loads:
//! the counters are monotone, so it is exact once the recorders are joined.

use crate::error::AbortReason;
use core::cell::Cell;
use core::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Number of thread-owned slots, and of shared stripes for the threads
/// beyond them (see the module docs).
const STRIPES: usize = 8;

/// A thread's slot before its first record.
const UNCLAIMED: usize = usize::MAX;

/// Slot `i` is owned by a live thread exactly when `OWNERS[i]` is set.
static OWNERS: [AtomicBool; STRIPES] = [const { AtomicBool::new(false) }; STRIPES];

thread_local! {
    /// The calling thread's slot: `UNCLAIMED`, an owned index, or
    /// `STRIPES` plus its shared stripe.
    static SLOT: Cell<usize> = const { Cell::new(UNCLAIMED) };
    /// Releases the thread's slot at exit (touched once, at the claim).
    static GUARD: SlotGuard = const { SlotGuard };
}

struct SlotGuard;

impl Drop for SlotGuard {
    fn drop(&mut self) {
        if let Some(owner) = OWNERS.get(SLOT.replace(shared_stripe())) {
            owner.store(false, Ordering::Release);
        }
    }
}

/// The next shared stripe, round-robin, as a `SLOT` value.
fn shared_stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    STRIPES + NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES
}

/// Claim the first free slot for the calling thread (registering its
/// release), or settle on a shared stripe when none is free.
fn claim() {
    let free = |o: &AtomicBool| {
        o.compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    };
    let i = OWNERS.iter().position(free);
    if i.is_some() {
        GUARD.with(|_| ());
    }
    SLOT.set(i.unwrap_or_else(shared_stripe));
}

/// One cell of counters, padded to a cache-line boundary so neighbouring
/// cells (and the STM instance's other fields) never false-share with it.
#[derive(Debug, Default)]
#[repr(align(64))]
struct CounterCell {
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
    short_fallbacks: AtomicU64,
}

impl CounterCell {
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
        self.short_fallbacks.store(0, Ordering::Relaxed);
    }
}

/// Live counters owned by an STM instance (thread-owned cells plus shared
/// stripes; see the module docs).
#[derive(Debug)]
pub struct StmStats {
    owned: [CounterCell; STRIPES],
    shared: [CounterCell; STRIPES],
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
            owned: core::array::from_fn(|_| CounterCell::default()),
            shared: core::array::from_fn(|_| CounterCell::default()),
        }
    }

    /// Add one to the calling thread's copy of `counter`: a plain load and
    /// store on an owned cell, a `fetch_add` on a shared stripe.
    #[inline]
    fn bump(&self, counter: impl Fn(&CounterCell) -> &AtomicU64) {
        match self.owned.get(SLOT.get()) {
            Some(cell) => {
                let c = counter(cell);
                c.store(c.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
            }
            None => self.bump_unowned(counter),
        }
    }

    /// [`bump`](Self::bump) for a thread that owns no slot: claim one at
    /// the thread's first record, else count in its shared stripe.
    #[cold]
    fn bump_unowned(&self, counter: impl Fn(&CounterCell) -> &AtomicU64) {
        if SLOT.get() == UNCLAIMED {
            claim();
            return self.bump(counter);
        }
        counter(&self.shared[SLOT.get() - STRIPES]).fetch_add(1, Ordering::Relaxed);
    }

    /// Record a top-level commit.
    #[inline]
    pub fn record_commit(&self) {
        self.bump(|c| &c.commits);
    }

    /// Record an abort with its cause.
    ///
    /// [`AbortReason::ExplicitRetry`] lands in its own slot of the
    /// per-cause array but is *excluded* from
    /// [`StatsSnapshot::aborts`]/[`StatsSnapshot::abort_rate`]: a user-level
    /// retry is a control-flow decision, not a conflict.
    #[inline]
    pub fn record_abort(&self, reason: AbortReason) {
        self.bump(|c| &c.aborts_by_cause[reason.index()]);
    }

    /// Record a committed child (composed) transaction.
    #[inline]
    pub fn record_child_commit(&self) {
        self.bump(|c| &c.child_commits);
    }

    /// Record an `outherit()` — a child passing its protected set up.
    #[inline]
    pub fn record_outherit(&self) {
        self.bump(|c| &c.outherits);
    }

    /// Record an elastic cut (a read-only prefix entry dropped from the
    /// window, i.e. a conflict the relaxed model ignored).
    #[inline]
    pub fn record_elastic_cut(&self) {
        self.bump(|c| &c.elastic_cuts);
    }

    /// Record a successful snapshot extension (LSA/SwissTM/elastic).
    #[inline]
    pub fn record_extension(&self) {
        self.bump(|c| &c.extensions);
    }

    /// Record a retry-time backoff (the conflict loser busy-waited before
    /// retrying).
    #[inline]
    pub fn record_cm_backoff(&self) {
        self.bump(|c| &c.cm_backoffs);
    }

    /// Record a retry-time yield (the conflict loser ceded the core before
    /// retrying).
    #[inline]
    pub fn record_cm_yield(&self) {
        self.bump(|c| &c.cm_yields);
    }

    /// Record a progress-backstop park: a transaction lost so many
    /// consecutive rounds that the retry loop put it to sleep (see
    /// [`driver::run`](crate::driver::run)) to guarantee some competitor
    /// an uncontended window.
    #[inline]
    pub fn record_progress_park(&self) {
        self.bump(|c| &c.progress_parks);
    }

    /// Record a `retry()` waiter actually parking on its read set (the
    /// wait registry's episode reached the park; see `wait::wait_on`).
    #[inline]
    pub fn record_retry_park(&self) {
        self.bump(|c| &c.retry_parks);
    }

    /// Record a parked waiter woken by a committing writer's token (the
    /// wake-on-commit path doing its job).
    #[inline]
    pub fn record_wakeup(&self) {
        self.bump(|c| &c.wakeups);
    }

    /// Record a park that expired on its bounded timeout with no
    /// relevant commit — the liveness backstop firing, not a wake.
    #[inline]
    pub fn record_spurious_wakeup(&self) {
        self.bump(|c| &c.spurious_wakeups);
    }

    /// Record a short operation handed to a regular run: its collect saw
    /// a word locked or moved, or it lost a lock or its validation (see
    /// [`Atomic::short_update_each`](crate::Atomic::short_update_each)).
    #[cold]
    pub fn record_short_fallback(&self) {
        self.bump(|c| &c.short_fallbacks);
    }

    /// Take a consistent-enough snapshot for reporting (counters are
    /// monotone; exact simultaneity is not required). Aggregates every
    /// cell lock-free.
    #[must_use]
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut snap = StatsSnapshot::default();
        for cell in self.cells() {
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
            snap.short_fallbacks += cell.short_fallbacks.load(Ordering::Relaxed);
        }
        snap
    }

    /// Reset all counters to zero (between benchmark phases).
    ///
    /// Exact only while no thread records into this instance, and only if
    /// the next records are ordered after the reset (a join, spawn or
    /// barrier between phases): an owned record is a plain load and
    /// store, so one racing the reset can write back its old count.
    pub fn reset(&self) {
        for cell in self.cells() {
            cell.reset();
        }
    }

    fn cells(&self) -> impl Iterator<Item = &CounterCell> {
        self.owned.iter().chain(&self.shared)
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
    /// Short operations ([`Atomic::short_read`](crate::Atomic::short_read),
    /// `short_update`, `short_update_each`) that could not serve and ran
    /// as a regular transaction instead.
    pub short_fallbacks: u64,
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
            short_fallbacks: self.short_fallbacks - earlier.short_fallbacks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};
    use std::time::{Duration, Instant};

    /// Threads [`crowd`] runs at once.
    const CROWD: usize = 3 * STRIPES;

    /// The slot the calling thread owns, if any.
    fn owned_slot() -> Option<usize> {
        Some(SLOT.get()).filter(|&i| i < STRIPES)
    }

    /// The sum of `s`'s shared stripes' commit counts.
    fn shared_commits(s: &StmStats) -> u64 {
        s.shared
            .iter()
            .map(|c| c.commits.load(Ordering::Relaxed))
            .sum()
    }

    /// Repeat `attempt` until it reports an owned slot, for up to 10 s,
    /// and return that slot. Other tests of this binary hold slots for as
    /// long as their threads live, so one attempt may find none free.
    fn until_owned(mut attempt: impl FnMut() -> Option<usize>) -> usize {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(slot) = attempt() {
                return slot;
            }
            assert!(Instant::now() < deadline, "no slot came free in 10 s");
            std::thread::yield_now();
        }
    }

    /// Run `CROWD` threads that are all live at once, each calling
    /// `record` once past a barrier and staying live until every thread
    /// is done, so at most `STRIPES` own a slot and the rest share the
    /// `STRIPES` shared stripes, two or more to a stripe. Returns the
    /// slots the owners held.
    fn crowd(record: impl Fn() + Sync) -> Vec<usize> {
        let threads = CROWD;
        let barrier = Barrier::new(threads);
        std::thread::scope(|sc| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    sc.spawn(|| {
                        barrier.wait();
                        record();
                        let slot = owned_slot();
                        barrier.wait();
                        slot
                    })
                })
                .collect();
            // An explicit join also waits for the thread's slot release.
            handles
                .into_iter()
                .filter_map(|h| h.join().unwrap())
                .collect()
        })
    }

    #[test]
    fn owners_and_sharers_count_exactly_together() {
        // Owners make plain stores, sharers `fetch_add`s on stripes they
        // share: a lost update on either path leaves the totals short.
        // Every thread records for the same 100 ms, so threads that share
        // a stripe run at the same time, even on two cores.
        until_owned(|| {
            let s = StmStats::new();
            let made = AtomicU64::new(0);
            let until = Instant::now() + Duration::from_millis(100);
            let owners = crowd(|| {
                let mut n = 0;
                while Instant::now() < until {
                    for _ in 0..1_000 {
                        // Opaque, so each record reloads its cell as a
                        // real caller's would.
                        let s = std::hint::black_box(&s);
                        s.record_commit();
                        s.record_abort(AbortReason::LockConflict);
                    }
                    n += 1_000;
                }
                made.fetch_add(n, Ordering::Relaxed);
            });
            let made = made.into_inner();
            let snap = s.snapshot();
            assert_eq!(snap.commits, made);
            assert_eq!(snap.aborts(), made);
            assert!(owners.len() <= STRIPES, "{owners:?}");
            // Round-robin: the sharers are spread over several stripes.
            let stripes = s
                .shared
                .iter()
                .filter(|c| c.commits.load(Ordering::Relaxed) > 0);
            assert!(stripes.count() > 1, "every sharer landed on one stripe");
            owners.first().copied()
        });
    }

    #[test]
    fn slots_are_handed_over_at_thread_exit() {
        // 3 × STRIPES threads, one after another: each must release its
        // slot at exit, and the next owner must pick up its count.
        const N: u64 = 1_000;
        let s = StmStats::new();
        for _ in 0..3 * STRIPES {
            std::thread::scope(|sc| {
                sc.spawn(|| (0..N).for_each(|_| s.record_commit()))
                    .join()
                    .unwrap();
            });
        }
        assert_eq!(s.snapshot().commits, 3 * STRIPES as u64 * N);
        // Had the exited threads kept their slots, none would be free.
        let mut fresh = 0;
        until_owned(|| {
            fresh += 1;
            std::thread::scope(|sc| {
                sc.spawn(|| {
                    s.record_commit();
                    owned_slot()
                })
                .join()
                .unwrap()
            })
        });
        assert_eq!(s.snapshot().commits, 3 * STRIPES as u64 * N + fresh);
    }

    #[test]
    fn a_record_from_a_thread_local_destructor_is_counted() {
        struct RecordOnExit(Arc<StmStats>);
        impl Drop for RecordOnExit {
            fn drop(&mut self) {
                self.0.record_commit();
            }
        }
        thread_local! {
            static ON_EXIT: core::cell::RefCell<Option<RecordOnExit>> =
                const { core::cell::RefCell::new(None) };
        }
        let mut stats = None;
        until_owned(|| {
            let s = Arc::new(StmStats::new());
            stats = Some(Arc::clone(&s));
            std::thread::spawn(move || {
                // Registered before the slot's guard, so its destructor
                // runs after the release (destructors run last-in first).
                ON_EXIT.with(|r| *r.borrow_mut() = Some(RecordOnExit(Arc::clone(&s))));
                s.record_commit();
                owned_slot()
            })
            .join()
            .unwrap()
        });
        let s = stats.unwrap();
        assert_eq!(s.snapshot().commits, 2, "the teardown record was lost");
        assert_eq!(
            shared_commits(&s),
            1,
            "a released slot's thread must record into a shared stripe"
        );
        // A thread whose only record comes from its teardown claims its
        // slot there, and that record counts too.
        let s = Arc::new(StmStats::new());
        let on_exit = RecordOnExit(Arc::clone(&s));
        std::thread::spawn(move || ON_EXIT.with(|r| *r.borrow_mut() = Some(on_exit)))
            .join()
            .unwrap();
        assert_eq!(s.snapshot().commits, 1);
    }

    #[test]
    fn reset_after_the_owners_exit_zeroes_every_cell() {
        let s = StmStats::new();
        crowd(|| {
            s.record_commit();
            s.record_outherit();
        });
        assert_eq!(s.snapshot().commits, CROWD as u64);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
        // A new owner counts up from 0 in the cell it takes over.
        let mut fresh = 0;
        let slot = until_owned(|| {
            fresh += 1;
            std::thread::scope(|sc| {
                sc.spawn(|| {
                    (0..3).for_each(|_| s.record_commit());
                    owned_slot()
                })
                .join()
                .unwrap()
            })
        });
        assert_eq!(s.owned[slot].commits.load(Ordering::Relaxed), 3);
        assert_eq!(s.snapshot().commits, 3 * fresh);
    }

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
    fn short_fallbacks_accumulate_delta_and_reset() {
        let s = StmStats::new();
        s.record_short_fallback();
        let before = s.snapshot();
        assert_eq!(before.short_fallbacks, 1);
        s.record_short_fallback();
        s.record_short_fallback();
        assert_eq!(s.snapshot().delta_since(&before).short_fallbacks, 2);
        s.reset();
        assert_eq!(s.snapshot().short_fallbacks, 0);
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
        // Several threads record into their own slots; the snapshot must
        // sum them all — no count may be lost between cells.
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
