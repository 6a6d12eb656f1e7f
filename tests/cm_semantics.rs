//! Contention-management semantics under adversarial conflict pressure:
//! every registry backend, against forced-conflict adversaries injected
//! into specific attempts (mirroring the hook injection of
//! `fig1_composition_violation.rs`, lifted to the facade).
//!
//! What is pinned down, per backend:
//!
//! * **progress** — a transaction whose first K attempts are sabotaged by
//!   a racing committed write recovers and commits;
//! * **bounded termination (no livelock)** — against an adversary that
//!   *always* wins, a bounded retry budget terminates the run with
//!   `RetriesExhausted` after exactly budget+1 attempts, although every
//!   loss is paced;
//! * **statistics filing** — forced conflicts land in the conflict-abort
//!   counters and explicit retries in their own category; contention-
//!   manager aborts are never counted as `ExplicitRetry` and vice versa,
//!   and every conflict loss is paced exactly once.

use composing_relaxed_transactions::backend_registry;
use composing_relaxed_transactions::stm_core::api::{Atomic, Policy};
use composing_relaxed_transactions::stm_core::dynstm::Backend;
use composing_relaxed_transactions::stm_core::{RunError, StmConfig, TVar};

/// Every backend in the registry, including the deliberately broken
/// E-STM compatibility mode — arbitration must be uniform across all.
const BACKENDS: [&str; 5] = ["oe", "oe-estm-compat", "lsa", "tl2", "swiss"];

fn runner(backend: &str, max_retries: Option<u64>) -> Atomic<Backend> {
    let mut cfg = StmConfig::default();
    if let Some(budget) = max_retries {
        cfg = cfg.with_max_retries(budget);
    }
    Atomic::new(
        backend_registry()
            .build(backend, cfg)
            .expect("registry backend"),
    )
}

/// For each backend: run `check` with a fresh runner.
fn for_every_cell(max_retries: Option<u64>, mut check: impl FnMut(&Atomic<Backend>, &str)) {
    for backend in BACKENDS {
        check(&runner(backend, max_retries), backend);
    }
}

#[test]
fn forced_conflict_adversary_cannot_stop_progress() {
    // The adversary: after the transaction has read `a`, commit a racing
    // write to `a` (out-of-band versioned store, exactly the fig1 hook
    // trick) on the first K attempts. Every attempt it sabotages must
    // abort as a *conflict*; attempt K+1 runs unmolested and commits.
    const SABOTAGED: u64 = 4;
    for_every_cell(None, |at, backend| {
        let a = TVar::new(0u64);
        let b = TVar::new(0u64);
        let mut sabotage_left = SABOTAGED;
        at.run(Policy::Regular, |tx| {
            let ra = tx.get(&a)?;
            if sabotage_left > 0 {
                sabotage_left -= 1;
                let nv = at.clock().tick();
                a.store_atomic(ra + 100, nv);
            }
            let rb = tx.get(&b)?;
            tx.set(&b, ra + rb + 1)
        });
        let snap = at.stats();
        assert_eq!(snap.commits, 1, "{backend}");
        assert_eq!(snap.aborts(), SABOTAGED, "{backend}: {snap:?}");
        assert_eq!(
            snap.explicit_retries(),
            0,
            "{backend}: conflicts must never file as explicit retries"
        );
        assert_eq!(
            snap.cm_waits(),
            SABOTAGED,
            "{backend}: every loss is paced exactly once"
        );
    });
}

#[test]
fn always_winning_adversary_terminates_within_the_attempt_budget() {
    // No-livelock: the adversary sabotages EVERY attempt. With a retry
    // budget of 6, the run must terminate in exactly 7 attempts — its
    // pacing must stay bounded — reporting the final conflict, not
    // spinning forever.
    const BUDGET: u64 = 6;
    for_every_cell(Some(BUDGET), |at, backend| {
        let a = TVar::new(0u64);
        let r: Result<(), _> = at.try_run(Policy::Regular, |tx| {
            let ra = tx.get(&a)?;
            let nv = at.clock().tick();
            a.store_atomic(ra + 1, nv);
            tx.set(&a, ra + 50)
        });
        match r {
            Err(RunError::RetriesExhausted { attempts, .. }) => {
                assert_eq!(attempts, BUDGET + 1, "{backend}");
            }
            other => panic!("{backend}: expected exhaustion, got {other:?}"),
        }
        let snap = at.stats();
        assert_eq!(snap.commits, 0, "{backend}");
        assert_eq!(snap.aborts(), BUDGET + 1, "{backend}");
        assert_eq!(snap.explicit_retries(), 0, "{backend}");
    });
}

#[test]
fn explicit_retries_file_separately_from_cm_aborts() {
    // A retry storm through the facade: the body explicit-retries K times
    // before committing. The retries must land in their own category —
    // never in the conflict counters, and in particular never in the
    // ContentionManager slot — and a genuine precondition wait is parked
    // on the read set, NOT paced like a conflict loss.
    const RETRIES: u64 = 5;
    for_every_cell(None, |at, backend| {
        let v = TVar::new(0u64);
        let mut left = RETRIES;
        at.run(Policy::Regular, |tx| {
            let cur = tx.get(&v)?;
            tx.set(&v, cur + 7)?;
            if left > 0 {
                left -= 1;
                return tx.retry();
            }
            Ok(())
        });
        assert_eq!(v.load_atomic(), 7, "{backend}: retried writes leaked");
        let snap = at.stats();
        assert_eq!(snap.commits, 1, "{backend}");
        assert_eq!(snap.explicit_retries(), RETRIES, "{backend}");
        assert_eq!(
            snap.aborts(),
            0,
            "{backend}: explicit retries counted as conflict aborts"
        );
        assert_eq!(
            snap.cm_aborts(),
            0,
            "{backend}: explicit retries counted as CM aborts"
        );
        assert_eq!(snap.abort_rate(), 0.0, "{backend}");
        assert_eq!(
            snap.retry_parks, RETRIES,
            "{backend}: every genuine retry parks on the read set"
        );
        assert_eq!(
            snap.cm_waits(),
            0,
            "{backend}: a precondition wait is parked, never CM-paced"
        );
    });
}

#[test]
fn mixed_conflicts_and_retries_never_cross_categories() {
    // Interleave both abort kinds in one run: attempts 1 and 3 are
    // sabotaged (conflicts), attempts 2 and 4 explicit-retry, attempt 5
    // commits. Each category must count exactly its own events.
    for_every_cell(None, |at, backend| {
        let a = TVar::new(0u64);
        let mut attempt = 0u32;
        at.run(Policy::Regular, |tx| {
            attempt += 1;
            let ra = tx.get(&a)?;
            match attempt {
                1 | 3 => {
                    let nv = at.clock().tick();
                    a.store_atomic(ra + 10, nv);
                    tx.set(&a, ra + 1) // will fail validation at commit
                }
                2 | 4 => tx.retry(),
                _ => tx.set(&a, ra + 1),
            }
        });
        let snap = at.stats();
        assert_eq!(snap.commits, 1, "{backend}");
        assert_eq!(snap.aborts(), 2, "{backend}: {snap:?}");
        assert_eq!(snap.explicit_retries(), 2, "{backend}");
        assert!(
            snap.cm_aborts() <= snap.aborts(),
            "{backend}: cm aborts must be a subset of conflict aborts"
        );
    });
}

#[test]
fn composed_sections_recover_from_an_injected_adversary() {
    // The fig1-style composition adversary at the facade level: section 1
    // reads `y`; the adversary commits `y := 1` through a nested top-level
    // transaction on the same backend; section 2 writes `x` from the stale
    // read. Regular sections protect the read on every backend (including
    // the E-STM compatibility mode — the paper's "use regular mode when
    // composing" workaround), so the composition must abort, retry, and
    // produce the consistent result.
    for_every_cell(None, |at, backend| {
        let y = TVar::new(0u64);
        let x = TVar::new(0u64);
        let mut sabotage = true;
        let observed = at.run(Policy::Regular, |tx| {
            let ry = tx.section(Policy::Regular, |t| t.get(&y))?;
            if sabotage {
                sabotage = false;
                // The adversary: a complete committed transaction injected
                // between the two sections of this attempt.
                at.run(Policy::Regular, |t| t.set(&y, 1));
            }
            tx.section(Policy::Regular, |t| t.set(&x, 10 + ry))?;
            Ok(ry)
        });
        assert_eq!(observed, 1, "{backend}: the stale read must not win");
        assert_eq!(x.load_atomic(), 11, "{backend}");
        let snap = at.stats();
        assert!(
            snap.aborts() >= 1,
            "{backend}: the adversary must force at least one abort"
        );
        assert_eq!(snap.explicit_retries(), 0, "{backend}");
    });
}
