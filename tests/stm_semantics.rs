//! Semantic invariants of the four STMs, exercised concurrently:
//!
//! * **conservation** — concurrent transfers between accounts never create
//!   or destroy money, and a regular (classic) read-only audit always
//!   observes the exact total;
//! * **pairwise elastic consistency** — an elastic transaction's window
//!   guarantees that *consecutive* reads are mutually consistent, which is
//!   precisely the guarantee list traversals rely on;
//! * **zero-sum pair** — two locations updated together keep their
//!   invariant under every STM;
//! * **opposite write orders** — two threads incrementing the same
//!   variables in opposite orders both finish, with every increment
//!   landed, under every STM.

use composing_relaxed_transactions::oe_stm::OeStm;
use composing_relaxed_transactions::stm_core::parallel::worker_threads;
use composing_relaxed_transactions::stm_core::{Stm, TVar, Transaction, TxKind};
use composing_relaxed_transactions::stm_lsa::Lsa;
use composing_relaxed_transactions::stm_swiss::Swiss;
use composing_relaxed_transactions::stm_tl2::Tl2;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

const ACCOUNTS: usize = 16;
const TOTAL: i64 = 1600;

fn bank_conservation<S: Stm + 'static>(stm: S) {
    let stm = Arc::new(stm);
    let accounts: Arc<Vec<TVar<i64>>> = Arc::new(
        (0..ACCOUNTS)
            .map(|_| TVar::new(TOTAL / ACCOUNTS as i64))
            .collect(),
    );
    let stop = Arc::new(AtomicBool::new(false));

    let mut movers = Vec::new();
    for t in 0..worker_threads(3) as u64 {
        let stm = Arc::clone(&stm);
        let accounts = Arc::clone(&accounts);
        let stop = Arc::clone(&stop);
        movers.push(std::thread::spawn(move || {
            let mut s = 0x9E37_79B9u64 ^ t;
            while !stop.load(Ordering::Relaxed) {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let from = (s % ACCOUNTS as u64) as usize;
                let to = ((s >> 8) % ACCOUNTS as u64) as usize;
                if from == to {
                    continue;
                }
                stm.run(TxKind::Regular, |tx| {
                    let a = tx.read(&accounts[from])?;
                    let b = tx.read(&accounts[to])?;
                    if a > 0 {
                        tx.write(&accounts[from], a - 1)?;
                        tx.write(&accounts[to], b + 1)?;
                    }
                    Ok(())
                });
            }
        }));
    }

    // Auditor: classic read-only snapshots must always see TOTAL.
    for _ in 0..200 {
        let sum = stm.run(TxKind::Regular, |tx| {
            let mut sum = 0i64;
            for a in accounts.iter() {
                sum += tx.read(a)?;
            }
            Ok(sum)
        });
        assert_eq!(sum, TOTAL, "{}: money created or destroyed", stm.name());
    }
    stop.store(true, Ordering::Relaxed);
    for m in movers {
        m.join().unwrap();
    }
    let final_sum: i64 = accounts.iter().map(TVar::load_atomic).sum();
    assert_eq!(final_sum, TOTAL);
}

#[test]
fn conservation_tl2() {
    bank_conservation(Tl2::new());
}

#[test]
fn conservation_lsa() {
    bank_conservation(Lsa::new());
}

#[test]
fn conservation_swiss() {
    bank_conservation(Swiss::new());
}

#[test]
fn conservation_oestm_regular() {
    bank_conservation(OeStm::new());
}

/// Two threads increment the same variables, one in ascending and one in
/// descending order, so each attempt can hold a lock the other wants
/// next: a commit-time locker takes its locks in write order, an
/// encounter-time locker as it writes. No locker waits unboundedly while
/// holding a lock, so the race must end before the deadline with every
/// increment landed.
fn opposite_order_increments<S: Stm + 'static>(stm: S) {
    const VARS: usize = 4;
    const PER_THREAD: u64 = 10_000;
    const DEADLINE: Duration = Duration::from_secs(60);
    let stm = Arc::new(stm);
    let vars: Arc<Vec<TVar<u64>>> = Arc::new((0..VARS).map(|_| TVar::new(0)).collect());
    let (done, finished) = mpsc::channel();
    let start = Arc::new(Barrier::new(2));
    let threads: Vec<_> = [(0..VARS).collect::<Vec<_>>(), (0..VARS).rev().collect()]
        .into_iter()
        .map(|order| {
            let (stm, vars, done, start) = (stm.clone(), vars.clone(), done.clone(), start.clone());
            std::thread::spawn(move || {
                start.wait();
                for _ in 0..PER_THREAD {
                    stm.run(TxKind::Regular, |tx| {
                        for &k in &order {
                            let x = tx.read(&vars[k])?;
                            tx.write(&vars[k], x + 1)?;
                        }
                        Ok(())
                    });
                }
                done.send(()).unwrap();
            })
        })
        .collect();
    // A thread that never finishes is left running: the deadline fails
    // the test instead of hanging it.
    let deadline = Instant::now() + DEADLINE;
    for _ in 0..2 {
        let left = deadline.saturating_duration_since(Instant::now());
        assert!(
            finished.recv_timeout(left).is_ok(),
            "{}: the increments did not finish within {DEADLINE:?}",
            stm.name()
        );
    }
    for t in threads {
        t.join().unwrap();
    }
    for (k, v) in vars.iter().enumerate() {
        assert_eq!(v.load_atomic(), 2 * PER_THREAD, "{}: var {k}", stm.name());
    }
}

#[test]
fn opposite_order_increments_tl2() {
    opposite_order_increments(Tl2::new());
}

#[test]
fn opposite_order_increments_lsa() {
    opposite_order_increments(Lsa::new());
}

#[test]
fn opposite_order_increments_swiss() {
    opposite_order_increments(Swiss::new());
}

#[test]
fn opposite_order_increments_oestm() {
    opposite_order_increments(OeStm::new());
}

/// Two variables kept equal by every writer; an elastic reader reading
/// them back-to-back (both inside the window) must always see them equal
/// — the pairwise-consistency guarantee of the elastic window.
#[test]
fn elastic_window_pairwise_consistency() {
    let stm = Arc::new(OeStm::new());
    let x = Arc::new(TVar::new(0i64));
    let y = Arc::new(TVar::new(0i64));
    let stop = Arc::new(AtomicBool::new(false));

    let writer = {
        let (stm, x, y, stop) = (
            Arc::clone(&stm),
            Arc::clone(&x),
            Arc::clone(&y),
            Arc::clone(&stop),
        );
        std::thread::spawn(move || {
            let mut i = 0i64;
            while !stop.load(Ordering::Relaxed) {
                i += 1;
                stm.run(TxKind::Regular, |tx| {
                    tx.write(&*x, i)?;
                    tx.write(&*y, i)
                });
            }
        })
    };

    for _ in 0..20_000 {
        let (a, b) = stm.run(TxKind::Elastic, |tx| {
            let a = tx.read(&*x)?;
            let b = tx.read(&*y)?; // consecutive: both in the window
            Ok((a, b))
        });
        assert_eq!(a, b, "consecutive elastic reads must be consistent");
    }
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
}

/// The same experiment with a *separating* read between the pair: the
/// first read may slide out of the (size-2) window, so the pair is allowed
/// to be inconsistent — this is exactly the relaxation elastic
/// transactions make, and this test documents it (we assert the writer's
/// invariant is still repaired by the final values, not that every pair
/// matched).
#[test]
fn elastic_relaxation_is_observable_beyond_the_window() {
    let stm = Arc::new(OeStm::new());
    let x = Arc::new(TVar::new(0i64));
    let pad = Arc::new(TVar::new(0i64));
    let y = Arc::new(TVar::new(0i64));
    let stop = Arc::new(AtomicBool::new(false));

    let writer = {
        let (stm, x, y, stop) = (
            Arc::clone(&stm),
            Arc::clone(&x),
            Arc::clone(&y),
            Arc::clone(&stop),
        );
        std::thread::spawn(move || {
            let mut i = 0i64;
            while !stop.load(Ordering::Relaxed) {
                i += 1;
                stm.run(TxKind::Regular, |tx| {
                    tx.write(&*x, i)?;
                    tx.write(&*y, i)
                });
            }
        })
    };

    let mut mismatches = 0u64;
    for _ in 0..20_000 {
        let (a, b) = stm.run(TxKind::Elastic, |tx| {
            let a = tx.read(&*x)?;
            let _ = tx.read(&*pad)?; // pushes x out of the 2-entry window
            let b = tx.read(&*y)?;
            Ok((a, b))
        });
        if a != b {
            mismatches += 1;
        }
    }
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
    // No assertion on mismatches > 0 (timing-dependent), but the run must
    // complete without aborut storms and the final state is consistent.
    assert_eq!(x.load_atomic(), y.load_atomic());
    println!("observed {mismatches} relaxed (out-of-window) pairs");
}

/// Classic STMs must never show the relaxation: same separated-pair
/// experiment under TL2 must always see equal values.
#[test]
fn classic_stm_never_relaxes_pairs() {
    let stm = Arc::new(Tl2::new());
    let x = Arc::new(TVar::new(0i64));
    let pad = Arc::new(TVar::new(0i64));
    let y = Arc::new(TVar::new(0i64));
    let stop = Arc::new(AtomicBool::new(false));

    let writer = {
        let (stm, x, y, stop) = (
            Arc::clone(&stm),
            Arc::clone(&x),
            Arc::clone(&y),
            Arc::clone(&stop),
        );
        std::thread::spawn(move || {
            let mut i = 0i64;
            while !stop.load(Ordering::Relaxed) {
                i += 1;
                stm.run(TxKind::Regular, |tx| {
                    tx.write(&*x, i)?;
                    tx.write(&*y, i)
                });
            }
        })
    };

    for _ in 0..10_000 {
        let (a, b) = stm.run(TxKind::Regular, |tx| {
            let a = tx.read(&*x)?;
            let _ = tx.read(&*pad)?;
            let b = tx.read(&*y)?;
            Ok((a, b))
        });
        assert_eq!(a, b, "TL2 read-only transactions are serializable");
    }
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
}
