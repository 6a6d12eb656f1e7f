// lint:hot-path
//! Per-TVar waiter registries: the wake-on-commit side of `retry()`.
//!
//! A transaction that raises `ExplicitRetry` with no `or_else` branch
//! pending is *waiting for a precondition*: nothing it can do will make
//! the body succeed until some other transaction commits a write to a
//! location it read. This module turns that wait into a real park
//! instead of a paced re-run:
//!
//! 1. the waiter registers one entry per read-set location in a hashed
//!    bucket table (entries carry a sequence number so they can be
//!    invalidated without being found again — lazy sweeping);
//! 2. it re-validates the read set *after* registering (a commit that
//!    raced ahead of the registration is caught here and skips the
//!    park);
//! 3. it parks on the `parking_lot` shim's token-semantics [`Parker`].
//!    A committing writer that touched any registered location deposits
//!    the token while still holding its write locks, so notify order is
//!    commit order, and a token deposited between the waiter's
//!    re-validation and its park makes the park return immediately —
//!    the classic lost-wakeup window is closed by the token, not by
//!    timing.
//!
//! Parks are *bounded* (an escalating schedule capped well under a
//! millisecond): the token protocol makes wake-ups prompt on the common
//! path, and the timeout is the formal liveness backstop against the
//! one residual race (a writer that read the `active` gate before the
//! waiter raised it and whose vlock updates the waiter's re-validation
//! then failed to observe — possible because the gate and the vlocks
//! are independent atomics). A timed-out park is filed as a
//! `spurious_wakeup` and simply re-runs the attempt.
//!
//! The same table carries the progress backstop's sleepers: conflict
//! losers parked by the driver loop's escalating backstop register on a
//! global list that *every* commit wakes, so a loser no longer sleeps
//! out its full timeout once its rival has finished.
//!
//! Steady state allocates nothing: the waiter node (one `Arc` holding
//! the parker and its sequence counter) is thread-local and created
//! once per thread, bucket vectors retain their capacity across
//! episodes, and stale entries are swept in place during later
//! registrations and notifies. The whole module is on the retry hot
//! path and carries the `lint:hot-path` tag.

use crate::stats::StmStats;
use parking_lot::park::Parker;
use parking_lot::Mutex;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Bucket count for the location-hashed registry (power of two).
const BUCKET_COUNT: usize = 256;

/// First park of a run waits this long (µs); each consecutive park in
/// the same run doubles it up to [`PARK_CAP_SHIFT`] doublings.
const PARK_BASE_MICROS: u64 = 20;

/// Maximum doublings of the base timeout: 20 µs << 4 = 320 µs. Short
/// enough that a single-threaded retry storm (nothing will ever wake
/// it) stays fast; long enough that a genuinely blocked waiter burns
/// no measurable CPU between its bounded re-checks.
const PARK_CAP_SHIFT: u32 = 4;

/// One parked (or about-to-park) thread. The `seq` counter versions the
/// thread's wait episodes: an entry in the table is live only while its
/// recorded sequence matches the node's current one, so ending an
/// episode (one `fetch_add`) invalidates every registration at once.
struct WaiterNode {
    parker: Parker,
    seq: AtomicU64,
}

/// A registration: `node` parked on `location` during episode `seq`.
struct Entry {
    node: Arc<WaiterNode>,
    seq: u64,
    location: usize,
}

impl Entry {
    /// Live entries are those whose episode is still current.
    fn is_live(&self) -> bool {
        self.seq == self.node.seq.load(Ordering::Acquire)
    }
}

/// The global registry: per-location buckets plus the backstop list
/// (progress-backstop sleepers, woken by any commit at all).
struct WaitTable {
    buckets: std::boxed::Box<[Mutex<std::vec::Vec<Entry>>]>,
    /// Waiters currently between registration and episode end; commits
    /// skip the bucket walk entirely while this is zero.
    active: AtomicU64,
    /// Conflict losers parked by the progress backstop.
    backstop: Mutex<std::vec::Vec<Entry>>,
    /// Gate for `backstop`, same role as `active`.
    backstop_active: AtomicU64,
}

static TABLE: OnceLock<WaitTable> = OnceLock::new();

fn table() -> &'static WaitTable {
    TABLE.get_or_init(|| {
        let buckets: std::vec::Vec<Mutex<std::vec::Vec<Entry>>> =
            (0..BUCKET_COUNT).map(|_| Mutex::new(Vec::new())).collect();
        WaitTable {
            buckets: buckets.into_boxed_slice(),
            active: AtomicU64::new(0),
            backstop: Mutex::new(Vec::new()),
            backstop_active: AtomicU64::new(0),
        }
    })
}

thread_local! {
    /// The calling thread's waiter node, created once and reused for
    /// every wait episode (steady-state waits allocate nothing).
    static NODE: Arc<WaiterNode> = Arc::new(WaiterNode {
        parker: Parker::new(),
        seq: AtomicU64::new(0),
    });

    /// Depth of `or_else` alternation frames on this thread; while
    /// non-zero, `ExplicitRetry` means "try the other branch", never
    /// "park".
    static ALT_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// How one wait episode ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitOutcome {
    /// A committing writer to a registered location deposited the token.
    Woken,
    /// The bounded park expired with no relevant commit.
    TimedOut,
    /// The post-registration re-validation already saw a newer version:
    /// the wake had effectively happened before the park, so none was
    /// needed.
    Invalidated,
}

/// Bounded park duration for the `streak`-th consecutive wait of one
/// run: 20 µs, doubling to a 320 µs cap.
#[must_use]
fn park_timeout_for(streak: u32) -> Duration {
    let shift = streak.saturating_sub(1).min(PARK_CAP_SHIFT);
    Duration::from_micros(PARK_BASE_MICROS << shift)
}

/// Register on every location, re-validate, park. The caller must have
/// rolled back / released everything the failed attempt held: the
/// registry mutexes are leaf locks and the park happens with no STM
/// lock held.
///
/// `still_valid` runs after registration and must return `false` if
/// the read set has already been overwritten (in which case there is
/// nothing to wait for and the outcome is [`WaitOutcome::Invalidated`]).
fn wait_on(
    locations: &mut dyn Iterator<Item = usize>,
    still_valid: &dyn Fn() -> bool,
    timeout: Duration,
    stats: &StmStats,
) -> WaitOutcome {
    let t = table();
    NODE.with(|node| {
        // Open a fresh episode: invalidate any leftover registrations
        // from the previous one, and drain a token a stale notify may
        // have deposited since (a zero-length park consumes it).
        let seq = node.seq.fetch_add(1, Ordering::AcqRel) + 1;
        node.parker.park_timeout(Duration::ZERO);
        t.active.fetch_add(1, Ordering::SeqCst);
        for location in locations {
            let mut entries = t.buckets[location & (BUCKET_COUNT - 1)].lock();
            entries.retain(Entry::is_live);
            entries.push(Entry {
                node: Arc::clone(node),
                seq,
                location,
            });
        }
        // Re-validate *after* registering: a commit that finished
        // before the registration cannot wake us, but it also cannot
        // have escaped this check — its writes happened before the
        // bucket mutexes we just went through.
        let outcome = if still_valid() {
            stats.record_retry_park();
            if node.parker.park_timeout(timeout) {
                stats.record_wakeup();
                WaitOutcome::Woken
            } else {
                stats.record_spurious_wakeup();
                WaitOutcome::TimedOut
            }
        } else {
            WaitOutcome::Invalidated
        };
        // Close the episode: every entry pushed above goes stale in one
        // store and is swept lazily by later registrations/notifies.
        node.seq.fetch_add(1, Ordering::Release);
        t.active.fetch_sub(1, Ordering::SeqCst);
        outcome
    })
}

/// Park until a committing writer touches any of `locations`, with the
/// run's `streak`-th escalating bounded timeout. See `wait_on` (the
/// private worker above) for the protocol and the caller's obligations.
pub fn wait_for_locations(
    locations: &mut dyn Iterator<Item = usize>,
    still_valid: &dyn Fn() -> bool,
    streak: u32,
    stats: &StmStats,
) -> WaitOutcome {
    wait_on(locations, still_valid, park_timeout_for(streak), stats)
}

/// Commit-side notification: wake every waiter registered on a written
/// location, then every progress-backstop sleeper. Called by
/// [`Attempt::publish`](crate::driver::Attempt::publish) right after the
/// commit-hook seam, with write locks still held — so a waiter woken
/// here observes either the locked vlocks or the already-published new
/// versions, never the stale world.
///
/// `write_locations` is a caller-driven iteration (the same shape as
/// the commit hook's write iterator) so the write set is passed
/// without materializing it. The nested-closure type stays spelled out:
/// a `type` alias changes the trait objects' elided lifetimes and
/// forces callers' borrows to `'static`.
#[allow(clippy::type_complexity)]
pub fn notify_commit(write_locations: &dyn Fn(&mut dyn FnMut(usize))) {
    let Some(t) = TABLE.get() else { return };
    if t.active.load(Ordering::SeqCst) != 0 {
        write_locations(&mut |location| {
            let mut entries = t.buckets[location & (BUCKET_COUNT - 1)].lock();
            entries.retain(|e| {
                if !e.is_live() {
                    return false;
                }
                if e.location == location {
                    e.node.parker.unparker().unpark();
                    return false;
                }
                true
            });
        });
    }
    if t.backstop_active.load(Ordering::SeqCst) != 0 {
        let mut sleepers = t.backstop.lock();
        for e in sleepers.drain(..) {
            if e.is_live() {
                e.node.parker.unparker().unpark();
            }
        }
    }
}

/// How many waiters are registered on `location` right now — in a wait
/// episode, parked or about to be. A rendezvous probe for tests that
/// must commit while a crowd is waiting; nothing else should need it.
#[doc(hidden)]
#[must_use]
pub fn registered_waiters(location: usize) -> usize {
    let Some(t) = TABLE.get() else { return 0 };
    let entries = t.buckets[location & (BUCKET_COUNT - 1)].lock();
    entries
        .iter()
        .filter(|e| e.location == location && e.is_live())
        .count()
}

/// Park the progress backstop's way: on the global list any commit
/// wakes, bounded by `timeout`. Returns `true` when a commit cut the
/// sleep short. The caller keeps its own escalation schedule and its
/// own `progress_parks` accounting — this only replaces the blind
/// sleep underneath it.
pub fn backstop_park(timeout: Duration) -> bool {
    let t = table();
    NODE.with(|node| {
        let seq = node.seq.fetch_add(1, Ordering::AcqRel) + 1;
        node.parker.park_timeout(Duration::ZERO);
        t.backstop_active.fetch_add(1, Ordering::SeqCst);
        {
            let mut sleepers = t.backstop.lock();
            sleepers.retain(Entry::is_live);
            sleepers.push(Entry {
                node: Arc::clone(node),
                seq,
                location: usize::MAX,
            });
        }
        let woken = node.parker.park_timeout(timeout);
        node.seq.fetch_add(1, Ordering::Release);
        t.backstop_active.fetch_sub(1, Ordering::SeqCst);
        woken
    })
}

/// An RAII frame marking "an `or_else` alternative is pending on this
/// thread": while any frame is live, the driver loop treats
/// `ExplicitRetry` as a charged conflict — the facade alternates
/// branches — instead of parking.
#[must_use = "the frame suppresses parking only while it is alive"]
pub struct AlternativeGuard(());

impl AlternativeGuard {
    /// Open a frame (frames nest).
    pub fn new() -> Self {
        ALT_DEPTH.with(|d| d.set(d.get() + 1));
        Self(())
    }
}

impl Default for AlternativeGuard {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for AlternativeGuard {
    fn drop(&mut self) {
        ALT_DEPTH.with(|d| d.set(d.get() - 1));
    }
}

/// Whether an `or_else` alternative is pending on this thread (see
/// [`AlternativeGuard`]).
#[must_use]
pub fn alternative_pending() -> bool {
    ALT_DEPTH.with(Cell::get) > 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::Instant;

    /// The registry is a process-global; serialize the tests that
    /// notify it so one test's commit cannot wake another's sleeper.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn stats() -> StmStats {
        StmStats::default()
    }

    #[test]
    fn park_timeouts_escalate_and_cap() {
        assert_eq!(park_timeout_for(0), Duration::from_micros(20));
        assert_eq!(park_timeout_for(1), Duration::from_micros(20));
        assert_eq!(park_timeout_for(2), Duration::from_micros(40));
        assert_eq!(park_timeout_for(5), Duration::from_micros(320));
        assert_eq!(park_timeout_for(1_000_000), Duration::from_micros(320));
    }

    #[test]
    fn timeout_expires_when_nothing_commits() {
        let _serial = SERIAL.lock();
        let s = stats();
        let out = wait_for_locations(&mut [9001usize].into_iter(), &|| true, 1, &s);
        assert_eq!(out, WaitOutcome::TimedOut);
        let snap = s.snapshot();
        assert_eq!(snap.retry_parks, 1);
        assert_eq!(snap.wakeups, 0);
        assert_eq!(snap.spurious_wakeups, 1);
    }

    #[test]
    fn invalid_read_set_skips_the_park_entirely() {
        let _serial = SERIAL.lock();
        let s = stats();
        let out = wait_for_locations(&mut [9002usize].into_iter(), &|| false, 1, &s);
        assert_eq!(out, WaitOutcome::Invalidated);
        let snap = s.snapshot();
        assert_eq!(snap.retry_parks, 0, "no park, no park stat");
    }

    #[test]
    fn commit_between_revalidation_and_park_is_not_lost() {
        let _serial = SERIAL.lock();
        // The satellite race, driven deterministically: the "writer"
        // commits (notifies) from inside the waiter's own re-validation
        // — i.e. after registration, before the park, with the
        // re-validation failing to see the write (it returns `true`).
        // The deposited token must make the park return immediately;
        // a 60 s park bound proves it was the token, not the timeout.
        let s = stats();
        let started = Instant::now();
        let out = wait_on(
            &mut [777usize].into_iter(),
            &|| {
                notify_commit(&|f| f(777));
                true
            },
            Duration::from_secs(60),
            &s,
        );
        assert_eq!(out, WaitOutcome::Woken);
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "the pre-deposited token must end the park immediately"
        );
        let snap = s.snapshot();
        assert_eq!((snap.retry_parks, snap.wakeups), (1, 1));
        assert_eq!(snap.spurious_wakeups, 0);
    }

    #[test]
    fn commit_to_an_unrelated_location_does_not_wake() {
        let _serial = SERIAL.lock();
        // Same shape, but the writer touches a different location that
        // hashes to the same bucket (offset by BUCKET_COUNT): the
        // waiter must sleep out its bound.
        let s = stats();
        let out = wait_on(
            &mut [4242usize].into_iter(),
            &|| {
                notify_commit(&|f| f(4242 + BUCKET_COUNT));
                true
            },
            Duration::from_millis(20),
            &s,
        );
        assert_eq!(out, WaitOutcome::TimedOut);
        assert_eq!(s.snapshot().wakeups, 0);
    }

    #[test]
    fn cross_thread_wake_is_prompt() {
        let _serial = SERIAL.lock();
        let s = stats();
        let committed = AtomicBool::new(false);
        let registered = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let (committed, registered) = (&committed, &registered);
            let s = &s;
            let waiter = scope.spawn(move || {
                // A long bound: only a real wake ends this quickly.
                let out = wait_on(
                    &mut [31337usize].into_iter(),
                    &|| {
                        registered.store(true, Ordering::SeqCst);
                        true
                    },
                    Duration::from_secs(30),
                    s,
                );
                assert!(committed.load(Ordering::SeqCst), "woke before the commit");
                assert_eq!(out, WaitOutcome::Woken);
            });
            // Commit once the waiter is registered: its park then ends
            // on the token, whether or not it has started.
            while !registered.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            committed.store(true, Ordering::SeqCst);
            notify_commit(&|f| f(31337));
            waiter.join().unwrap();
        });
        assert_eq!(s.snapshot().wakeups, 1);
    }

    #[test]
    fn stale_entries_are_swept_not_rewoken() {
        let _serial = SERIAL.lock();
        let s = stats();
        // Episode 1 times out; its entry goes stale at episode end.
        let out = wait_for_locations(&mut [555usize].into_iter(), &|| true, 1, &s);
        assert_eq!(out, WaitOutcome::TimedOut);
        // A later commit to the location must not deposit a token on
        // the stale registration…
        notify_commit(&|f| f(555));
        // …so a fresh episode on an unrelated location still times out
        // instead of consuming a ghost token.
        let out = wait_for_locations(&mut [556usize].into_iter(), &|| true, 1, &s);
        assert_eq!(out, WaitOutcome::TimedOut);
        assert_eq!(s.snapshot().wakeups, 0);
    }

    #[test]
    fn backstop_sleepers_wake_on_any_commit() {
        let _serial = SERIAL.lock();
        let woke = AtomicBool::new(false);
        let node = OnceLock::new();
        std::thread::scope(|scope| {
            let woke = &woke;
            let node = &node;
            let sleeper = scope.spawn(move || {
                let _ = node.set(NODE.with(Arc::clone));
                woke.store(backstop_park(Duration::from_secs(30)), Ordering::SeqCst);
            });
            // Commit once the sleeper is on the list: its park then ends
            // on the token, whether or not it has started.
            let on_list = || {
                node.get().is_some_and(|node| {
                    let sleepers = table().backstop.lock();
                    sleepers
                        .iter()
                        .any(|e| Arc::ptr_eq(&e.node, node) && e.is_live())
                })
            };
            while !on_list() {
                std::thread::yield_now();
            }
            // Any commit at all — the location is irrelevant.
            notify_commit(&|f| f(1));
            sleeper.join().unwrap();
        });
        assert!(
            woke.load(Ordering::SeqCst),
            "a rival commit must cut the backstop sleep short"
        );
    }

    #[test]
    fn backstop_park_times_out_alone() {
        let _serial = SERIAL.lock();
        let started = Instant::now();
        assert!(!backstop_park(Duration::from_millis(5)));
        assert!(started.elapsed() >= Duration::from_millis(2));
    }

    #[test]
    fn alternative_frames_nest() {
        assert!(!alternative_pending());
        {
            let _outer = AlternativeGuard::new();
            assert!(alternative_pending());
            {
                let _inner = AlternativeGuard::new();
                assert!(alternative_pending());
            }
            assert!(alternative_pending());
        }
        assert!(!alternative_pending());
    }
}
