//! A transaction draws its ticket only when something needs one: lock
//! acquisition or an armed tracer. So a read-only run commits without
//! touching the process-wide ticket counter on every word backend whose
//! reads take no lock, at the SPI and through the facade, an update draws
//! exactly one ticket per attempt that locks, and losing an attempt draws
//! none. A boosted operation locks, so it draws one even in an otherwise
//! read-only run. txkv's short operations draw none at all: a GET, a CAS
//! that does not match and a DEL of an absent key lock nothing, and a
//! SET, a swapping CAS, a DEL and a MULTI lock under the reserved
//! short-operation owner. Only an armed tracer makes one draw: its
//! ticket is the transaction id, and the update locks under it.
//!
//! Method: the counter is observed directly. [`draws`] takes a ticket
//! before and after the measured region, so their difference, less one,
//! is what the region drew.

use composing_relaxed_transactions::backend_registry;
use composing_relaxed_transactions::oe_stm::OeStm;
use composing_relaxed_transactions::stm_boost::BoostedSet;
use composing_relaxed_transactions::stm_core::api::{Atomic, Policy};
use composing_relaxed_transactions::stm_core::driver::TxnEngine;
use composing_relaxed_transactions::stm_core::ticket::next_ticket;
use composing_relaxed_transactions::stm_core::{
    Abort, AbortReason, Stm, StmConfig, TVar, Transaction, TxKind,
};
use composing_relaxed_transactions::stm_lsa::Lsa;
use composing_relaxed_transactions::stm_swiss::Swiss;
use composing_relaxed_transactions::stm_tl2::Tl2;
use composing_relaxed_transactions::txkv::{KeySpace, MultiOp, ShardKind};

/// Tickets drawn while `f` runs.
fn draws(f: impl FnOnce()) -> u64 {
    let before = next_ticket().get();
    f();
    next_ticket().get() - before - 1
}

/// Read-only, boosted, update and retried-update runs of one backend: no
/// ticket for the read-only run, one for a read-only run with a boosted
/// `contains`, one for a committed update, and `write_locks` for an
/// aborted attempt that wrote (1 where a write locks at encounter time, 0
/// where only the commit does).
fn assert_draws<S>(stm: &S, kind: TxKind, write_locks: u64, name: &str)
where
    S: Stm,
    for<'env> S::Txn<'env>: TxnEngine<'env>,
{
    let vars: Vec<TVar<u64>> = (0..8).map(TVar::new).collect();
    let read_only = draws(|| {
        let sum = stm.run(kind, |tx| {
            let mut sum = 0;
            for v in &vars {
                sum += tx.read(v)?;
            }
            assert_eq!(tx.attempt().owner(), None, "{name}: a read drew");
            Ok(sum)
        });
        assert_eq!(sum, 28);
    });
    assert_eq!(read_only, 0, "{name}: tickets drawn by a read-only run");
    let set = BoostedSet::new();
    set.base().add(3);
    let boosted = draws(|| {
        let present = stm.run(kind, |tx| {
            tx.read(&vars[3])?;
            set.contains(tx, 3)
        });
        assert!(present);
    });
    assert_eq!(
        boosted, 1,
        "{name}: a boosted contains draws its lock owner"
    );
    let update = draws(|| stm.run(kind, |tx| tx.write(&vars[0], 1)));
    assert_eq!(update, 1, "{name}: one ticket for an update");
    let mut lose = true;
    let retried = draws(|| {
        stm.run(kind, |tx| {
            assert_eq!(tx.attempt().owner(), None, "{name}: attempts start bare");
            tx.write(&vars[1], 2)?;
            if std::mem::take(&mut lose) {
                return Err(Abort::new(AbortReason::Explicit));
            }
            Ok(())
        });
    });
    assert_eq!(
        retried,
        write_locks + 1,
        "{name}: the loss drew none, the retry a fresh one"
    );
}

/// One test, not several: the ticket counter is process-wide, so a test
/// running beside the measured regions would draw inside them.
#[test]
fn only_what_needs_a_ticket_draws_one() {
    assert_draws(&Tl2::new(), TxKind::Regular, 0, "TL2");
    assert_draws(&Lsa::new(), TxKind::Regular, 1, "LSA");
    assert_draws(&Swiss::new(), TxKind::Regular, 1, "SwissTM");
    assert_draws(&OeStm::new(), TxKind::Regular, 0, "OE-STM/regular");
    assert_draws(&OeStm::new(), TxKind::Elastic, 0, "OE-STM/elastic");
    assert_draws(
        &OeStm::estm_compat(),
        TxKind::Elastic,
        0,
        "OE-STM/estm-compat",
    );

    // The service path: txkv over the registry-erased facade.
    let at = Atomic::new(backend_registry().build_default("oe").unwrap());
    let kv = KeySpace::new(ShardKind::Hash, 8, 1 << 10);
    for k in 0..64 {
        kv.set(&at, k * 2, k as u64);
    }
    assert_eq!(
        draws(|| {
            for k in 0..64 {
                assert_eq!(kv.get(&at, k).is_some(), k % 2 == 0);
            }
        }),
        0,
        "KeySpace::get"
    );
    // A short update locks under the reserved owner, so no update draws.
    assert_eq!(draws(|| assert_eq!(kv.set(&at, 10, 9), Some(5))), 0);
    // It decides before it locks: a CAS that does not match and a DEL of
    // an absent key commit read-only, taking no lock either.
    assert_eq!(
        draws(|| assert!(!kv.cas(&at, 10, Some(5), 1))),
        0,
        "failed CAS"
    );
    assert_eq!(
        draws(|| assert_eq!(kv.del(&at, 11), None)),
        0,
        "DEL of an absent key"
    );
    assert_eq!(draws(|| assert!(kv.cas(&at, 10, Some(9), 5))), 0, "CAS");
    assert_eq!(draws(|| assert_eq!(kv.del(&at, 10), Some(5))), 0, "DEL");
    assert_eq!(
        draws(|| assert_eq!(kv.set(&at, 10, 5), None)),
        0,
        "SET of an absent key"
    );
    assert_eq!(
        draws(|| assert_eq!(kv.multi(&at, &[0, 2, 4, 6], |_, _| MultiOp::Put(1)), 4)),
        0,
        "4-key MULTI"
    );
    let v = TVar::new(3u64);
    assert_eq!(
        draws(|| assert_eq!(at.run(Policy::Regular, |tx| tx.get(&v)), 3)),
        0
    );

    // An armed tracer draws at every attempt's begin: its ticket is the
    // top-level transaction id.
    let traced = OeStm::with_config(StmConfig::default().with_trace_sink(std::sync::Arc::new(
        composing_relaxed_transactions::histories::Recorder::new(),
    )));
    assert_eq!(
        draws(|| assert_eq!(traced.run(TxKind::Regular, |tx| tx.read(&v)), 3)),
        1
    );
    // So does a traced short SET: the one ticket is its transaction id.
    let traced = Atomic::new(
        backend_registry()
            .build(
                "oe",
                StmConfig::default().with_trace_sink(std::sync::Arc::new(
                    composing_relaxed_transactions::histories::Recorder::new(),
                )),
            )
            .unwrap(),
    );
    assert_eq!(
        draws(|| assert_eq!(kv.set(&traced, 10, 6), Some(5))),
        1,
        "traced SET"
    );
}
