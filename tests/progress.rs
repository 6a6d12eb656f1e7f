//! Progress guarantees under hot conflict: every registry backend
//! completes a two-thread conflict storm within a wall-clock bound.
//!
//! This is the regression fence for the historical 2-thread livelock
//! (PR 3 recorded >25-minute hangs on exactly this shape of workload
//! before contention management existed). Progress is now *guaranteed*,
//! not incidental: past `cm::PROGRESS_PARK_AFTER` consecutive losses the
//! retry loop parks the loser on escalating bounded sleeps (see
//! `stm_core::driver::run` "The progress backstop" and DESIGN.md
//! "Scalable clocks and progress"), which hands some competitor an
//! uncontended window whatever the pacing does. The battery here drives the
//! real two-thread storm under a `recv_timeout` watchdog — a livelock
//! fails the test loudly instead of hanging CI — and pins the backstop's
//! accounting invariant deterministically via the out-of-band sabotage
//! hook.

use composing_relaxed_transactions::backend_registry;
use composing_relaxed_transactions::stm_core::api::{Atomic, Policy};
use composing_relaxed_transactions::stm_core::cm::PROGRESS_PARK_AFTER;
use composing_relaxed_transactions::stm_core::dynstm::Backend;
use composing_relaxed_transactions::stm_core::{StmConfig, TVar};
use std::sync::mpsc;
use std::time::Duration;

/// Every backend in the registry, including the deliberately broken E-STM
/// compatibility mode: the progress guarantee is a property of the shared
/// retry loop, so no backend is exempt.
const BACKENDS: [&str; 5] = ["oe", "oe-estm-compat", "lsa", "tl2", "swiss"];

/// Read-modify-writes per worker in the storm.
const INCREMENTS_PER_THREAD: u64 = 200;

/// Wall-clock bound per backend cell. Generous — a healthy cell
/// finishes in milliseconds; the bound only exists so a reintroduced
/// livelock fails fast instead of hanging the suite for 25 minutes.
const CELL_BOUND: Duration = Duration::from_secs(60);

fn runner(backend: &str) -> Atomic<Backend> {
    Atomic::new(
        backend_registry()
            .build(backend, StmConfig::default())
            .expect("registry backend"),
    )
}

/// Two workers hammer one shared counter with transactional increments —
/// the densest write-write conflict the API can express — and the main
/// thread referees with a timeout. Exiting the process on timeout is
/// deliberate: livelocked worker threads cannot be joined, so a plain
/// `panic!` would leave the test binary hanging anyway.
fn two_thread_storm(at: &Atomic<Backend>, backend: &str) {
    let counter = TVar::new(0u64);
    let (done_tx, done_rx) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let at = &at;
            let counter = &counter;
            let done = done_tx.clone();
            scope.spawn(move || {
                for _ in 0..INCREMENTS_PER_THREAD {
                    at.run(Policy::Regular, |tx| {
                        tx.modify(counter, |v| v + 1).map(|_| ())
                    });
                }
                let _ = done.send(());
            });
        }
        drop(done_tx);
        for _ in 0..2 {
            if done_rx.recv_timeout(CELL_BOUND).is_err() {
                eprintln!(
                    "LIVELOCK: {backend} did not finish \
                     {INCREMENTS_PER_THREAD} increments x 2 threads within {CELL_BOUND:?}"
                );
                std::process::exit(101);
            }
        }
    });
    let total = at.run(Policy::Regular, |tx| tx.get(&counter));
    assert_eq!(
        total,
        2 * INCREMENTS_PER_THREAD,
        "{backend}: increments lost under contention"
    );
}

#[test]
fn every_backend_and_cm_completes_a_two_thread_hot_conflict_storm() {
    for backend in BACKENDS {
        two_thread_storm(&runner(backend), backend);
    }
}

#[test]
fn backstop_parks_every_loss_past_the_threshold() {
    // Deterministic accounting: sabotage the threshold's worth of attempts
    // plus four via the out-of-band versioned store (the fig1 hook trick).
    // Every conflict loss past the threshold must park exactly once — and
    // the run still commits.
    const PAST: u64 = 4;
    const SABOTAGED: u64 = PROGRESS_PARK_AFTER as u64 + PAST;
    for backend in BACKENDS {
        let at = runner(backend);
        let a = TVar::new(0u64);
        let mut sabotage_left = SABOTAGED;
        at.run(Policy::Regular, |tx| {
            let ra = tx.get(&a)?;
            if sabotage_left > 0 {
                sabotage_left -= 1;
                let nv = at.clock().tick();
                a.store_atomic(ra + 100, nv);
            }
            tx.set(&a, ra + 1)
        });
        let snap = at.stats();
        assert_eq!(snap.commits, 1, "{backend}");
        assert_eq!(snap.aborts(), SABOTAGED, "{backend}: {snap:?}");
        assert_eq!(
            snap.progress_parks, PAST,
            "{backend}: every loss past the threshold must park exactly once"
        );
    }
}

#[test]
fn backstop_stays_out_of_runs_below_the_default_threshold() {
    // The default threshold (64 consecutive losses) must keep ordinary
    // conflict recovery park-free: a few sabotaged attempts spin or
    // yield, but never sleep.
    const SABOTAGED: u64 = 4;
    for backend in BACKENDS {
        let at = runner(backend);
        let a = TVar::new(0u64);
        let mut sabotage_left = SABOTAGED;
        at.run(Policy::Regular, |tx| {
            let ra = tx.get(&a)?;
            if sabotage_left > 0 {
                sabotage_left -= 1;
                let nv = at.clock().tick();
                a.store_atomic(ra + 100, nv);
            }
            tx.set(&a, ra + 1)
        });
        let snap = at.stats();
        assert_eq!(snap.aborts(), SABOTAGED, "{backend}");
        assert_eq!(
            snap.progress_parks, 0,
            "{backend}: short conflicts must never reach the backstop"
        );
    }
}
