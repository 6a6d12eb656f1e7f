//! Workspace smoke test: one commit round-trip and one abort round-trip
//! through every STM backend, driven exclusively through the
//! `stm_core::Stm` trait (plus `stm-boost`'s boosted set, which runs
//! inside a transaction of each backend).
//!
//! This is the canary for backend refactors: if a backend's trait
//! surface drifts — begin/commit protocol, rollback-on-abort, stats
//! accounting — this fails before any of the heavier semantic suites
//! run.

use composing_relaxed_transactions::oe_stm::OeStm;
use composing_relaxed_transactions::stm_boost::BoostedSet;
use composing_relaxed_transactions::stm_core::{
    Abort, AbortReason, RunError, Stm, StmConfig, TVar, Transaction, TxKind,
};
use composing_relaxed_transactions::stm_lsa::Lsa;
use composing_relaxed_transactions::stm_swiss::Swiss;
use composing_relaxed_transactions::stm_tl2::Tl2;

/// Commit path: read-modify-write two variables, check values and stats.
fn commit_round_trip<S: Stm>(stm: &S, kind: TxKind) {
    let a = TVar::new(1i64);
    let b = TVar::new(2i64);
    let sum = stm.run(kind, |tx| {
        let va = tx.read(&a)?;
        let vb = tx.read(&b)?;
        tx.write(&a, va + 10)?;
        tx.write(&b, vb + 20)?;
        Ok(va + vb)
    });
    assert_eq!(sum, 3, "{}: body must see initial values", stm.name());
    assert_eq!(a.load_atomic(), 11, "{}: write-back of a", stm.name());
    assert_eq!(b.load_atomic(), 22, "{}: write-back of b", stm.name());
    let snap = stm.stats();
    assert_eq!(snap.commits, 1, "{}: exactly one commit", stm.name());
    assert_eq!(
        snap.aborts(),
        0,
        "{}: no aborts on the happy path",
        stm.name()
    );
}

/// Abort path: a transaction that writes and then explicitly retries must
/// leave no trace, and an unwakeable retry surfaces `WouldBlockForever`.
fn abort_round_trip<S: Stm>(stm: &S, kind: TxKind) {
    let v = TVar::new(7u64);
    let result: Result<(), RunError> = stm.try_run(kind, |tx| {
        tx.write(&v, 999)?;
        tx.retry()
    });
    assert!(
        matches!(result, Err(RunError::WouldBlockForever { .. })),
        "{}: a retry that read nothing can never be woken",
        stm.name()
    );
    assert_eq!(
        v.load_atomic(),
        7,
        "{}: aborted writes must roll back",
        stm.name()
    );
    let snap = stm.stats();
    assert!(
        snap.explicit_retries() >= 1,
        "{}: retry accounted in its own category",
        stm.name()
    );
    assert_eq!(
        snap.aborts(),
        0,
        "{}: a user-level retry must not count as a conflict abort",
        stm.name()
    );
}

fn smoke<S: Stm>(stm: &S, kind: TxKind) {
    commit_round_trip(stm, kind);
    abort_round_trip(stm, kind);
}

/// Zero retries so the abort round-trip terminates deterministically.
fn no_retry() -> StmConfig {
    StmConfig::default().with_max_retries(0)
}

#[test]
fn tl2_commit_and_abort() {
    smoke(&Tl2::with_config(no_retry()), TxKind::Regular);
}

#[test]
fn lsa_commit_and_abort() {
    smoke(&Lsa::with_config(no_retry()), TxKind::Regular);
}

#[test]
fn swiss_commit_and_abort() {
    smoke(&Swiss::with_config(no_retry()), TxKind::Regular);
}

#[test]
fn oestm_regular_commit_and_abort() {
    smoke(&OeStm::with_config(no_retry()), TxKind::Regular);
}

#[test]
fn oestm_elastic_commit_and_abort() {
    smoke(&OeStm::with_config(no_retry()), TxKind::Elastic);
}

#[test]
fn estm_compat_commit_and_abort() {
    smoke(&OeStm::estm_compat_with_config(no_retry()), TxKind::Elastic);
}

/// The boosted set runs inside a transaction of each backend: its
/// compensations sit in the attempt's log and its children nest flat.
fn boosted_smoke<S: Stm>(stm: &S) {
    let set = BoostedSet::new();
    assert!(stm.run(TxKind::Regular, |tx| set.add(tx, 5)));
    assert!(stm.run(TxKind::Regular, |tx| set.contains(tx, 5)));
    // Abort path: a child inserts, then the parent aborts once; the
    // rollback must remove the child's insert on the way out.
    let mut attempts = 0;
    let committed = stm.run(TxKind::Regular, |tx| {
        attempts += 1;
        tx.child(TxKind::Regular, |t| set.add(t, 6))?;
        if attempts == 1 {
            return Err(Abort::new(AbortReason::Explicit));
        }
        Ok(true)
    });
    assert!(committed, "{}", stm.name());
    assert_eq!(attempts, 2, "an explicit abort must re-run the body");
    assert!(
        stm.run(TxKind::Regular, |tx| set.contains(tx, 6)),
        "second attempt's add persists"
    );
    assert_eq!(set.locks().held(), 0, "no abstract locks leak");
}

#[test]
fn boosted_commit_and_abort() {
    boosted_smoke(&Tl2::new());
    boosted_smoke(&Lsa::new());
    boosted_smoke(&Swiss::new());
    boosted_smoke(&OeStm::new());
    boosted_smoke(&OeStm::estm_compat());
}
