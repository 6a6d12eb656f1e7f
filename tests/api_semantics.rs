//! Semantics of the `atomic` facade — `retry`, `or_else`, `section`,
//! `get`/`set`/`modify` — run through every registered backend
//! (mirroring `tests/dyn_semantics.rs` for the erasure layer underneath):
//! the facade must change ergonomics, never semantics, on any of the five
//! registry backends *or* on a statically typed backend.

use composing_relaxed_transactions::backend_registry;
use composing_relaxed_transactions::cec::{dequeue_or_else, LinkedListSet, SetExt, TxQueue, TxSet};
use composing_relaxed_transactions::oe_stm::OeStm;
use composing_relaxed_transactions::stm_boost::BoostedSet;
use composing_relaxed_transactions::stm_core::api::{Atomic, AtomicBackend, Policy};
use composing_relaxed_transactions::stm_core::dynstm::Backend;
use composing_relaxed_transactions::stm_core::{RunError, StmConfig, TVar};
use composing_relaxed_transactions::stm_tl2::Tl2;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// All five registered backends, wrapped in the facade runner.
fn runners() -> Vec<Atomic<Backend>> {
    let reg = backend_registry();
    assert_eq!(reg.names().len(), 5, "expected all five backends wired");
    reg.build_all().into_iter().map(Atomic::new).collect()
}

/// The composition-sound runners (everything except the deliberately
/// broken E-STM compatibility mode).
fn sound_runners() -> Vec<Atomic<Backend>> {
    runners()
        .into_iter()
        .filter(|at| at.backend().key() != "oe-estm-compat")
        .collect()
}

fn key(at: &Atomic<Backend>) -> String {
    at.backend().key().to_string()
}

// ---------------------------------------------------------------------
// get / set / modify.
// ---------------------------------------------------------------------

#[test]
fn get_set_modify_roundtrip_every_backend() {
    for at in runners() {
        let v = TVar::new(40i64);
        let out = at.run(Policy::Regular, |tx| {
            let x = tx.get(&v)?;
            tx.set(&v, x + 1)?;
            tx.modify(&v, |x| x + 1)
        });
        assert_eq!(out, 42, "{}", key(&at));
        assert_eq!(v.load_atomic(), 42, "{}", key(&at));
        assert_eq!(at.stats().commits, 1, "{}", key(&at));
    }
}

#[test]
fn facade_over_static_backend_matches_registry_backend() {
    // The same closure, one runner over a static TL2 and one over the
    // registry's erased handle.
    fn double<B: AtomicBackend>(at: &Atomic<B>) -> i64 {
        let v = TVar::new(21i64);
        at.run(Policy::Regular, |tx| tx.modify(&v, |x| x * 2))
    }
    assert_eq!(double(&Atomic::new(Tl2::new())), 42);
    assert_eq!(
        double(&Atomic::new(
            backend_registry().build_default("tl2").unwrap()
        )),
        42
    );
}

// ---------------------------------------------------------------------
// retry: reruns, rollback, and the statistics category.
// ---------------------------------------------------------------------

#[test]
fn retry_reruns_and_counts_separately_every_backend() {
    // The retry is raised inside a section, so under `Policy::Elastic` it
    // leaves OE-STM through an elastic child in both registry modes.
    for policy in [Policy::Regular, Policy::Elastic] {
        for at in runners() {
            let v = TVar::new(0u64);
            let mut retried = false;
            at.run(policy, |tx| {
                tx.section(policy, |tx| {
                    let cur = tx.get(&v)?;
                    tx.set(&v, cur + 9)?;
                    if !retried {
                        retried = true;
                        return tx.retry();
                    }
                    Ok(())
                })
            });
            let ctx = format!("{} {policy:?}", key(&at));
            assert_eq!(v.load_atomic(), 9, "{ctx}");
            let snap = at.stats();
            assert_eq!(snap.commits, 1, "{ctx}");
            assert_eq!(snap.explicit_retries(), 1, "{ctx}");
            assert_eq!(
                snap.aborts(),
                0,
                "{ctx}: a user-level retry must not count as a conflict abort"
            );
            assert_eq!(snap.abort_rate(), 0.0, "{ctx}");
            assert_eq!(
                snap.retry_parks, 1,
                "{ctx}: a genuine retry parks on its read set"
            );
            assert_eq!(
                snap.cm_waits(),
                0,
                "{ctx}: a precondition wait is parked, never CM-paced"
            );
        }
    }
}

#[test]
fn empty_read_set_retry_would_block_forever_every_backend() {
    // A retry that read nothing can never be woken by a commit, so
    // instead of parking forever (or burning a retry budget) the run
    // ends with the distinct WouldBlockForever error on every backend.
    let reg = backend_registry();
    for policy in [Policy::Regular, Policy::Elastic] {
        for name in reg.names() {
            let at = Atomic::new(
                reg.build(name, StmConfig::default().with_max_retries(2))
                    .unwrap(),
            );
            let r: Result<(), _> = at.try_run(policy, |tx| tx.retry());
            match r {
                Err(RunError::WouldBlockForever { attempts }) => {
                    assert_eq!(attempts, 1, "{name} {policy:?}: ends on the first attempt");
                }
                other => panic!("{name} {policy:?}: expected WouldBlockForever, got {other:?}"),
            }
            let snap = at.stats();
            assert_eq!(
                snap.explicit_retries(),
                1,
                "{name} {policy:?}: still filed as retry"
            );
            assert_eq!(
                snap.retry_parks, 0,
                "{name} {policy:?}: must not park unwakeable"
            );
        }
    }
}

#[test]
fn waiting_retries_never_exhaust_a_bounded_budget_every_backend() {
    // The bugfix pin: a bounded budget counts conflict LOSSES, and a
    // precondition wait is not a loss. Retry (with a read set) more
    // times than max_retries allows, then succeed — must commit. Under
    // `Policy::Elastic` OE-STM holds the read in its elastic window, which
    // the wait path must fold into the read set it parks on.
    let reg = backend_registry();
    for policy in [Policy::Regular, Policy::Elastic] {
        for name in reg.names() {
            let at = Atomic::new(
                reg.build(name, StmConfig::default().with_max_retries(2))
                    .unwrap(),
            );
            let v = TVar::new(0u64);
            let mut waits_left = 5;
            let r = at.try_run(policy, |tx| {
                let x = tx.get(&v)?;
                if waits_left > 0 {
                    waits_left -= 1;
                    return tx.retry();
                }
                tx.set(&v, x + 1)
            });
            let ctx = format!("{name} {policy:?}");
            assert!(r.is_ok(), "{ctx}: waits charged against budget: {r:?}");
            assert_eq!(v.load_atomic(), 1, "{ctx}");
            let snap = at.stats();
            assert_eq!(snap.explicit_retries(), 5, "{ctx}");
            assert_eq!(snap.retry_parks, 5, "{ctx}");
            assert_eq!(snap.cm_waits(), 0, "{ctx}: waits are parked, not CM-paced");
        }
    }
}

#[test]
fn a_panicking_body_releases_what_it_holds_every_backend() {
    // LSA and SwissTM take locks at write time, and a boosted add takes
    // its key's abstract lock. Thread A writes a word, adds a key and
    // panics inside the body; the run must roll the attempt back before
    // the panic leaves it, or thread B — writing the same word and adding
    // the same key on the same instance — loses to the dead owner until
    // its budget ends.
    let reg = backend_registry();
    for name in reg.names() {
        let at = Atomic::new(
            reg.build(name, StmConfig::default().with_max_retries(1_000))
                .unwrap(),
        );
        let v = TVar::new(0u64);
        let set = BoostedSet::new();
        std::thread::scope(|s| {
            let a = s.spawn(|| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    at.run(Policy::Regular, |tx| -> Result<(), _> {
                        tx.set(&v, 1)?;
                        set.add(tx, 1)?;
                        panic!("{name}: the body panics holding what it wrote")
                    })
                }))
            });
            assert!(a.join().unwrap().is_err(), "{name}: A's panic surfaced");
            let b = s.spawn(|| {
                at.try_run(Policy::Regular, |tx| {
                    tx.set(&v, 2)?;
                    set.add(tx, 1)
                })
            });
            assert_eq!(b.join().unwrap(), Ok(true), "{name}: B must commit");
        });
        assert_eq!(v.load_atomic(), 2, "{name}");
    }
}

// ---------------------------------------------------------------------
// Read-only commits: a plain one keeps its snapshot, a composition
// revalidates what its children read.
// ---------------------------------------------------------------------

/// Commit `x = 1` from another thread while the caller's attempt is live.
fn overwrite(at: &Atomic<Backend>, x: &TVar<u64>) {
    std::thread::scope(|s| {
        s.spawn(|| at.run(Policy::Regular, |tx| tx.set(x, 1)));
    });
}

#[test]
fn read_only_composition_revalidates_at_parent_commit_every_backend() {
    // Outheritance keeps a child's reads protected until the parent
    // commits. An overwrite committed between two read-only children
    // must abort the parent, although each read matched the snapshot and
    // the parent wrote nothing.
    for at in runners() {
        let (x, y) = (TVar::new(0u64), TVar::new(0u64));
        let mut attempts = 0;
        let seen = at.run(Policy::Regular, |tx| {
            attempts += 1;
            let a = tx.section(Policy::Regular, |tx| tx.get(&x))?;
            if attempts == 1 {
                overwrite(&at, &x);
            }
            let b = tx.section(Policy::Regular, |tx| tx.get(&y))?;
            Ok((a, b))
        });
        let ctx = key(&at);
        assert_eq!(
            seen,
            (1, 0),
            "{ctx}: the committed attempt saw the overwrite"
        );
        assert_eq!(attempts, 2, "{ctx}");
        let snap = at.stats();
        assert_eq!(snap.commits, 2, "{ctx}: the writer and the composition");
        assert_eq!(
            snap.aborts(),
            1,
            "{ctx}: the parent's commit-time validation"
        );
    }
}

#[test]
fn read_only_transaction_keeps_its_snapshot_every_backend() {
    // Without children a read-only attempt serializes at its snapshot:
    // an overwrite committed after its read does not abort it.
    for at in runners() {
        let (x, y) = (TVar::new(0u64), TVar::new(0u64));
        let mut attempts = 0;
        let seen = at.run(Policy::Regular, |tx| {
            attempts += 1;
            let a = tx.get(&x)?;
            if attempts == 1 {
                overwrite(&at, &x);
            }
            Ok((a, tx.get(&y)?))
        });
        let ctx = key(&at);
        assert_eq!(seen, (0, 0), "{ctx}");
        assert_eq!(attempts, 1, "{ctx}: no validation, no abort");
        assert_eq!(at.stats().aborts(), 0, "{ctx}");
    }
}

// ---------------------------------------------------------------------
// or_else: branch selection, alternation, atomicity of the winner.
// ---------------------------------------------------------------------

#[test]
fn or_else_falls_through_to_second_branch_every_backend() {
    for at in runners() {
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
        assert_eq!(out, "fallback", "{}", key(&at));
        assert_eq!(at.stats().explicit_retries(), 1, "{}", key(&at));
        assert_eq!(at.stats().commits, 1, "{}", key(&at));
    }
}

#[test]
fn or_else_never_runs_second_when_first_commits_every_backend() {
    for at in runners() {
        let mut second_ran = false;
        let out = at.or_else(
            Policy::Regular,
            |_tx| Ok(1),
            |_tx| {
                second_ran = true;
                Ok(2)
            },
        );
        assert_eq!(out, 1, "{}", key(&at));
        assert!(!second_ran, "{}: the alternative must not run", key(&at));
    }
}

#[test]
fn or_else_discards_retrying_branch_writes_every_backend() {
    for at in runners() {
        let v = TVar::new(0u64);
        let out = at.or_else(
            Policy::Regular,
            |tx| {
                tx.set(&v, 99)?; // must die with the retried attempt
                tx.retry()
            },
            |tx| tx.get(&v),
        );
        assert_eq!(
            out,
            0,
            "{}: the fallback must not observe the retried branch's writes",
            key(&at)
        );
        assert_eq!(v.load_atomic(), 0, "{}", key(&at));
    }
}

#[test]
fn or_else_unblocks_when_another_thread_opens_the_gate() {
    // The Haskell-STM shape: the primary branch waits (retries) on a
    // condition another thread eventually establishes.
    for at in sound_runners() {
        let k = key(&at);
        let at = Arc::new(at);
        let gate = Arc::new(TVar::new(0u64));
        let opener = {
            let at = Arc::clone(&at);
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                // Open only once the runner has retried, so the waiting
                // path is what the test exercises.
                while at.stats().explicit_retries() == 0 {
                    std::thread::yield_now();
                }
                at.run(Policy::Regular, |tx| tx.set(&gate, 1));
            })
        };
        let out = at.or_else(
            Policy::Regular,
            |tx| {
                if tx.get(&gate)? == 0 {
                    return tx.retry();
                }
                Ok("opened")
            },
            |tx| {
                // Alternative: check again and keep waiting.
                if tx.get(&gate)? == 0 {
                    return tx.retry();
                }
                Ok("opened-via-fallback")
            },
        );
        assert!(out.starts_with("opened"), "{k}");
        opener.join().unwrap();
    }
}

// ---------------------------------------------------------------------
// section: policy-driven composition through the facade.
// ---------------------------------------------------------------------

#[test]
fn sections_compose_atomically_every_sound_backend() {
    for at in sound_runners() {
        let k = key(&at);
        let set = LinkedListSet::new();
        assert!(set.add_all(&at, &[4, 2, 9]), "{k}");
        assert!(set.insert_if_absent(&at, 10, 99), "{k}");
        assert!(!set.insert_if_absent(&at, 20, 4), "{k}");
        assert!(set.remove_all(&at, &[2, 9]), "{k}");
        assert_eq!(set.size(&at), 2, "{k}");
        assert!(
            at.stats().child_commits >= 5,
            "{k}: sections must run as child transactions"
        );
    }
}

#[test]
fn mixed_policy_sections_every_sound_backend() {
    for at in sound_runners() {
        let a = TVar::new(1u64);
        let b = TVar::new(2u64);
        let sum = at.run(Policy::Elastic, |tx| {
            let x = tx.section(Policy::Elastic, |t| t.get(&a))?;
            let y = tx.section(Policy::Regular, |t| t.get(&b))?;
            tx.section(Policy::Regular, |t| t.set(&b, x + y))?;
            Ok(x + y)
        });
        assert_eq!(sum, 3, "{}", key(&at));
        assert_eq!(b.load_atomic(), 3, "{}", key(&at));
        assert_eq!(at.stats().child_commits, 3, "{}", key(&at));
    }
}

#[test]
fn torn_pair_never_observed_through_facade_sections() {
    // The composed_pairs invariant, stated over the facade for the
    // registry-built OE backend: an or_else-free sanity pass that
    // sections see bulk updates atomically under concurrency.
    let at = Arc::new(Atomic::new(backend_registry().build_default("oe").unwrap()));
    let set = Arc::new(LinkedListSet::new());
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let (at, set, stop) = (Arc::clone(&at), Arc::clone(&set), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut inserting = true;
            while !stop.load(Ordering::Relaxed) {
                if inserting {
                    set.add_all(&*at, &[7, 8]);
                } else {
                    set.remove_all(&*at, &[7, 8]);
                }
                inserting = !inserting;
            }
        })
    };
    for _ in 0..300 {
        let (a, b) = at.run(Policy::Regular, |tx| {
            let a = tx.section(Policy::Regular, |t| set.contains_in(t, 7))?;
            let b = tx.section(Policy::Regular, |t| set.contains_in(t, 8))?;
            Ok((a, b))
        });
        assert_eq!(a, b, "torn pair through facade sections");
    }
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
}

// ---------------------------------------------------------------------
// or_else over collections: the queue work-stealing idiom.
// ---------------------------------------------------------------------

#[test]
fn queue_or_else_drains_primary_then_fallback_every_backend() {
    for at in runners() {
        let k = key(&at);
        let primary = TxQueue::new();
        let fallback = TxQueue::new();
        primary.enqueue(&at, 1);
        fallback.enqueue(&at, 100);
        fallback.enqueue(&at, 101);
        assert_eq!(dequeue_or_else(&at, &primary, &fallback), Some(1), "{k}");
        assert_eq!(dequeue_or_else(&at, &primary, &fallback), Some(100), "{k}");
        assert_eq!(dequeue_or_else(&at, &primary, &fallback), Some(101), "{k}");
        assert_eq!(dequeue_or_else(&at, &primary, &fallback), None, "{k}");
        assert!(
            at.stats().explicit_retries() >= 3,
            "{k}: empty-primary drains must retry into the fallback"
        );
    }
}

// ---------------------------------------------------------------------
// Static-backend facade under concurrency (conservation).
// ---------------------------------------------------------------------

#[test]
fn conservation_through_facade_static_backend() {
    const ACCOUNTS: usize = 8;
    const TOTAL: i64 = 800;
    let at = Arc::new(Atomic::new(OeStm::new()));
    let accounts: Arc<Vec<TVar<i64>>> = Arc::new(
        (0..ACCOUNTS)
            .map(|_| TVar::new(TOTAL / ACCOUNTS as i64))
            .collect(),
    );
    let stop = Arc::new(AtomicBool::new(false));
    let mover = {
        let (at, accounts, stop) = (Arc::clone(&at), Arc::clone(&accounts), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut s = 0x9E37_79B9u64;
            while !stop.load(Ordering::Relaxed) {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let from = (s % ACCOUNTS as u64) as usize;
                let to = ((s >> 8) % ACCOUNTS as u64) as usize;
                if from == to {
                    continue;
                }
                at.run(Policy::Regular, |tx| {
                    let a = tx.get(&accounts[from])?;
                    if a > 0 {
                        tx.set(&accounts[from], a - 1)?;
                        tx.modify(&accounts[to], |c| c + 1)?;
                    }
                    Ok(())
                });
            }
        })
    };
    for _ in 0..100 {
        let sum = at.run(Policy::Regular, |tx| {
            let mut sum = 0i64;
            for a in accounts.iter() {
                sum += tx.get(a)?;
            }
            Ok(sum)
        });
        assert_eq!(sum, TOTAL, "money created or destroyed through facade");
    }
    stop.store(true, Ordering::Relaxed);
    mover.join().unwrap();
}
