//! Wake-on-commit semantics, pinned across every registry backend and —
//! for the races the backends cannot orchestrate deterministically —
//! directly against the `stm-core::wait` registry:
//!
//! * **lost-wakeup race** — a writer that commits *between* the waiter's
//!   post-registration re-validation and its park must still wake it:
//!   the token the notify deposits makes the park return immediately.
//!   The interleaving is forced exactly (the `still_valid` hook blocks
//!   until the notify has run), so the test is deterministic and rides
//!   the 30× deflake rotation;
//! * **wake-on-commit, every backend** — a consumer parked in `retry()`
//!   is woken by a committing writer to its read set, the result is the
//!   post-commit value, and the park accounting balances
//!   (`wakeups + spurious_wakeups == retry_parks`). The `retry()` is also
//!   raised inside an elastic or a regular section of an elastic parent
//!   whose read decided it: the parent's elastic read is part of what the
//!   aborted attempt waits on;
//! * **short updates wake too** — a consumer parked on a key's presence
//!   word is woken by a short SET (`Atomic::short_update`), on every
//!   backend;
//! * **crowd wake** — one commit wakes every waiter parked on the same
//!   location;
//! * **`or_else` suppression** — an alternation frame means "switch
//!   branches", never "park": the fallback serves with zero parks.

use composing_relaxed_transactions::backend_registry;
use composing_relaxed_transactions::stm_core::api::{Atomic, Policy};
use composing_relaxed_transactions::stm_core::dynstm::Backend;
use composing_relaxed_transactions::stm_core::{wait, OptionWord, StmStats, TVar};
use std::sync::atomic::{AtomicU32, Ordering};

/// Every backend in the registry — wake-on-commit must be uniform.
const BACKENDS: [&str; 5] = ["oe", "oe-estm-compat", "lsa", "tl2", "swiss"];

/// Spin (yielding) until `ready` holds: the rendezvous with a thread
/// that must have reached a state the test observes.
fn wait_until(ready: impl Fn() -> bool) {
    while !ready() {
        std::thread::yield_now();
    }
}

fn runner(backend: &str) -> Atomic<Backend> {
    Atomic::new(
        backend_registry()
            .build_default(backend)
            .expect("registry backend"),
    )
}

#[test]
fn commit_between_revalidation_and_park_cannot_lose_the_wakeup() {
    // The classic lost-wakeup window, forced exactly: the waiter has
    // registered and re-validated (the world still looks blocked), and
    // only THEN does the writer commit. Token semantics must make the
    // park return Woken immediately — never sleep out the timeout, and
    // never (in a world without timeouts) hang forever.
    const ROUNDS: u32 = 200;
    const LOCATION: usize = 0x5EED;
    let stats = StmStats::new();
    for _ in 0..ROUNDS {
        let phase = AtomicU32::new(0);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                wait::wait_for_locations(
                    &mut core::iter::once(LOCATION),
                    &|| {
                        // Registered; tell the writer to commit, and
                        // only report "still blocked" once it has.
                        phase.store(1, Ordering::SeqCst);
                        while phase.load(Ordering::SeqCst) != 2 {
                            std::hint::spin_loop();
                        }
                        true
                    },
                    // The largest escalation step: a lost token would
                    // surface as a clearly-timed-out park.
                    5,
                    &stats,
                )
            });
            while phase.load(Ordering::SeqCst) != 1 {
                std::hint::spin_loop();
            }
            // The "commit": notify the written location exactly inside
            // the revalidation→park window.
            wait::notify_commit(&|f| f(LOCATION));
            phase.store(2, Ordering::SeqCst);
            assert_eq!(
                waiter.join().expect("waiter thread"),
                wait::WaitOutcome::Woken,
                "a notify inside the revalidation→park window must wake via the token"
            );
        });
    }
    let snap = stats.snapshot();
    assert_eq!(snap.retry_parks, u64::from(ROUNDS));
    assert_eq!(snap.wakeups, u64::from(ROUNDS), "every round woke by token");
    assert_eq!(snap.spurious_wakeups, 0, "no round slept out its timeout");
}

#[test]
fn a_commit_that_beats_the_registration_invalidates_instead_of_parking() {
    // The other side of the window: the writer finished before the
    // waiter registered, so the re-validation sees the new world and
    // the waiter must not park at all.
    let stats = StmStats::new();
    let outcome = wait::wait_for_locations(
        &mut core::iter::once(0x0DDB >> 1),
        &|| false, // the read set is already stale
        1,
        &stats,
    );
    assert_eq!(outcome, wait::WaitOutcome::Invalidated);
    let snap = stats.snapshot();
    assert_eq!(snap.retry_parks, 0, "an invalidated wait never parks");
    assert_eq!(snap.wakeups + snap.spurious_wakeups, 0);
}

/// Where a consumer's `retry()` sits: in the body of a regular run, or
/// in a section (of the given policy) of an elastic run whose own read of
/// the gate decided the retry.
const RETRY_SHAPES: [(&str, Option<Policy>); 3] = [
    ("regular body", None),
    (
        "elastic section of an elastic parent",
        Some(Policy::Elastic),
    ),
    (
        "regular section of an elastic parent",
        Some(Policy::Regular),
    ),
];

/// Wait for the gate to open, then bump it; returns the value seen.
fn consume(at: &Atomic<Backend>, gate: &TVar<u64>, section: Option<Policy>) -> u64 {
    match section {
        None => at.run(Policy::Regular, |tx| {
            let g = tx.get(gate)?;
            if g == 0 {
                return tx.retry();
            }
            tx.set(gate, g + 1)?;
            Ok(g)
        }),
        Some(policy) => at.run(Policy::Elastic, |tx| {
            let g = tx.get(gate)?;
            let g = tx.section(policy, |t| if g == 0 { t.retry() } else { Ok(g) })?;
            tx.set(gate, g + 1)?;
            Ok(g)
        }),
    }
}

#[test]
fn blocked_retry_wakes_on_a_committing_writer_every_backend() {
    for backend in BACKENDS {
        for (shape, section) in RETRY_SHAPES {
            let at = runner(backend);
            let gate = TVar::new(0u64);
            let observed = std::thread::scope(|scope| {
                let consumer = scope.spawn(|| consume(&at, &gate, section));
                // Open the gate once the consumer has parked: a park is
                // filed after registration and re-validation, so a commit
                // from here on deposits the token or is seen by the next
                // attempt. A consumer that ends instead of parking (its
                // run failed) is reported by the join.
                wait_until(|| at.stats().retry_parks >= 1 || consumer.is_finished());
                at.run(Policy::Regular, |tx| tx.set(&gate, 7));
                consumer.join().expect("consumer thread")
            });
            let ctx = format!("{backend}, {shape}");
            assert_eq!(observed, 7, "{ctx}: woken consumer reads the commit");
            assert_eq!(gate.load_atomic(), 8, "{ctx}");
            let snap = at.stats();
            assert!(snap.retry_parks >= 1, "{ctx}: the consumer must park");
            assert_eq!(
                snap.wakeups + snap.spurious_wakeups,
                snap.retry_parks,
                "{ctx}: every park ends in exactly one filed outcome: {snap:?}"
            );
        }
    }
}

#[test]
fn a_retry_parked_on_a_presence_word_wakes_on_a_short_set_every_backend() {
    // A short update publishes through the same commit tail as a run, so
    // it notifies the waiters of the words it writes: here a consumer
    // waiting for a key to appear.
    for backend in BACKENDS {
        let at = runner(backend);
        let (present, value) = (TVar::new(0u64), TVar::new(0u64));
        let key = OptionWord::new(&present, &value);
        let observed = std::thread::scope(|scope| {
            let consumer = scope.spawn(|| {
                at.run(Policy::Regular, |tx| match key.read(tx)? {
                    Some(v) => Ok(v),
                    None => tx.retry(),
                })
            });
            wait_until(|| at.stats().retry_parks >= 1 || consumer.is_finished());
            assert_eq!(at.short_update(key, &|_| Some(Some(7))), None);
            consumer.join().expect("consumer thread")
        });
        assert_eq!(observed, 7, "{backend}: woken consumer reads the SET");
        let snap = at.stats();
        assert!(snap.retry_parks >= 1, "{backend}: the consumer must park");
        assert_eq!(
            snap.wakeups + snap.spurious_wakeups,
            snap.retry_parks,
            "{backend}: {snap:?}"
        );
        // The notify itself, forced exactly: a SET from inside a waiter's
        // re-validation (registered, not yet parked) must leave the token
        // that ends the park at once.
        let (present, value) = (TVar::new(0u64), TVar::new(0u64));
        let key = OptionWord::new(&present, &value);
        let woken = wait::wait_for_locations(
            &mut [present.core().id()].into_iter(),
            &|| {
                assert_eq!(at.short_update(key, &|_| Some(Some(7))), None);
                true
            },
            1,
            &StmStats::new(),
        );
        assert_eq!(woken, wait::WaitOutcome::Woken, "{backend}: SET notified");
    }
}

#[test]
fn one_commit_wakes_the_whole_parked_crowd() {
    const CROWD: usize = 8;
    let at = runner("tl2");
    let gate = TVar::new(0u64);
    std::thread::scope(|scope| {
        let waiters: Vec<_> = (0..CROWD)
            .map(|_| {
                scope.spawn(|| {
                    at.run(Policy::Regular, |tx| {
                        let g = tx.get(&gate)?;
                        if g == 0 {
                            return tx.retry();
                        }
                        Ok(g)
                    })
                })
            })
            .collect();
        // Commit once every waiter has had time to park, on average
        // PARKS times — the parks of a waiting run lengthen with each
        // re-park (20 µs up to 320 µs), so by then the crowd mostly
        // sleeps — and the whole crowd is registered on the gate, so the
        // commit's notify deposits a token with each of them.
        const PARKS: u64 = 8;
        wait_until(|| {
            at.stats().retry_parks >= PARKS * CROWD as u64
                && wait::registered_waiters(gate.core().id()) == CROWD
        });
        at.run(Policy::Regular, |tx| tx.set(&gate, 1));
        for w in waiters {
            assert_eq!(w.join().expect("waiter thread"), 1);
        }
    });
    let snap = at.stats();
    assert!(
        snap.retry_parks >= CROWD as u64,
        "every waiter parked at least once: {snap:?}"
    );
    assert_eq!(snap.wakeups + snap.spurious_wakeups, snap.retry_parks);
    assert!(
        snap.wakeups >= 1,
        "the commit woke parked waiters: {snap:?}"
    );
}

#[test]
fn one_notify_wakes_an_army_of_registered_waiters() {
    // The "millions of users" shape in miniature: a whole army parked
    // on one location, woken by a single commit's notify. Registration
    // is rendezvoused through `still_valid` (every waiter spins there
    // until the notify has fired), so each park finds its token already
    // deposited and the wake count is exact, not probabilistic.
    const ARMY: u32 = 100;
    const LOCATION: usize = 0xA43;
    let stats = StmStats::new();
    let registered = AtomicU32::new(0);
    let go = AtomicU32::new(0);
    std::thread::scope(|scope| {
        let waiters: Vec<_> = (0..ARMY)
            .map(|_| {
                scope.spawn(|| {
                    wait::wait_for_locations(
                        &mut core::iter::once(LOCATION),
                        &|| {
                            registered.fetch_add(1, Ordering::SeqCst);
                            while go.load(Ordering::SeqCst) == 0 {
                                std::thread::yield_now();
                            }
                            true
                        },
                        5,
                        &stats,
                    )
                })
            })
            .collect();
        while registered.load(Ordering::SeqCst) != ARMY {
            std::thread::yield_now();
        }
        wait::notify_commit(&|f| f(LOCATION));
        go.store(1, Ordering::SeqCst);
        for w in waiters {
            assert_eq!(w.join().expect("army waiter"), wait::WaitOutcome::Woken);
        }
    });
    let snap = stats.snapshot();
    assert_eq!(snap.retry_parks, u64::from(ARMY));
    assert_eq!(
        snap.wakeups,
        u64::from(ARMY),
        "one notify, whole army woken"
    );
    assert_eq!(snap.spurious_wakeups, 0);
}

#[test]
fn or_else_alternation_switches_branches_without_parking() {
    for backend in BACKENDS {
        let at = runner(backend);
        let gate = TVar::new(0u64);
        let out = at.or_else(
            Policy::Regular,
            |tx| {
                if tx.get(&gate)? == 0 {
                    return tx.retry();
                }
                Ok("primary")
            },
            |_tx| Ok("fallback"),
        );
        assert_eq!(out, "fallback", "{backend}");
        let snap = at.stats();
        assert_eq!(snap.explicit_retries(), 1, "{backend}");
        assert_eq!(
            snap.retry_parks, 0,
            "{backend}: a pending alternative suppresses the park"
        );
    }
}
