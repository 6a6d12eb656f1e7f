//! Fig. 1 of the paper at the collections level: `insertIfAbsent(x, y)`
//! composed from elastic `contains` and `add` building blocks, against an
//! adversary inserting `y` between the two children.
//!
//! The interleaving is deterministic (the adversary transaction runs
//! inside a hook between the children, exactly once), and is replayed on
//! all three e.e.c structures:
//!
//! * under **OE-STM**, the composition must abort and retry, and never
//!   insert `x`;
//! * under **E-STM** (outheritance off), the composition must commit `x`
//!   although `y` was present — the atomicity violation that motivates
//!   the paper.
//!
//! This is an SPI-level suite on purpose: injecting a committed adversary
//! transaction between two children of one specific attempt needs the raw
//! [`Stm::run`] hooks underneath the `atomic` facade, so it drives the
//! [`SetOps`] building blocks directly. (The facade-level twin of the
//! safe path lives in `tests/api_semantics.rs`.)
//!
//! The last test is the same bug met by accident rather than by
//! injection: threads composing `add_all` over thread-disjoint keys whose
//! list nodes neighbour each other lose updates under E-STM and never
//! under OE-STM.

use composing_relaxed_transactions::cec::{
    HashSet, LinkedListSet, OpScratch, SetExt, SetOps, SkipListSet,
};
use composing_relaxed_transactions::oe_stm::OeStm;
use composing_relaxed_transactions::stm_core::api::{Atomic, Policy};
use composing_relaxed_transactions::stm_core::parallel::worker_threads;
use composing_relaxed_transactions::stm_core::{Stm, Transaction, TxKind};

/// SPI-level atomic helpers over the building blocks (what `SetExt` does
/// through the facade, spelled out against the raw trait).
fn add<C: SetOps>(stm: &OeStm, set: &C, key: i64) -> bool {
    let mut scratch = OpScratch::default();
    stm.run(TxKind::Elastic, |tx| {
        set.release_unpublished(&mut scratch.allocated);
        set.add_in(tx, key, &mut scratch)
    })
}

fn contains<C: SetOps>(stm: &OeStm, set: &C, key: i64) -> bool {
    stm.run(TxKind::Elastic, |tx| set.contains_in(tx, key))
}

/// insertIfAbsent(x, y) with an adversary `add(y)` transaction injected
/// between the children of the first attempt.
fn insert_if_absent_with_adversary<C: SetOps>(stm: &OeStm, set: &C, x: i64, y: i64) -> bool {
    let mut scratch = OpScratch::default();
    let mut adv_scratch = OpScratch::default();
    let mut first_attempt = true;
    stm.run(TxKind::Elastic, |tx| {
        set.release_unpublished(&mut scratch.allocated);
        scratch.unlinked.clear();
        let present = tx.child(TxKind::Elastic, |t| set.contains_in(t, y))?;
        if first_attempt {
            first_attempt = false;
            stm.run(TxKind::Elastic, |t| {
                set.release_unpublished(&mut adv_scratch.allocated);
                set.add_in(t, y, &mut adv_scratch)
            });
        }
        if present {
            return Ok(false);
        }
        tx.child(TxKind::Elastic, |t| set.add_in(t, x, &mut scratch))?;
        Ok(true)
    })
}

fn seed<C: SetOps>(stm: &OeStm, set: &C) {
    for k in (0..60).step_by(2) {
        add(stm, set, k);
    }
}

fn check_structure<C: SetOps>(make: impl Fn() -> C, name: &str) {
    let (x, y) = (101, 33); // both initially absent (odd / out of range)

    // OE-STM: atomic — the race is detected.
    let stm = OeStm::new();
    let set = make();
    seed(&stm, &set);
    let inserted = insert_if_absent_with_adversary(&stm, &set, x, y);
    assert!(
        !inserted,
        "{name}/OE-STM: retry must observe y and skip the insert"
    );
    assert!(
        !contains(&stm, &set, x),
        "{name}/OE-STM: x must not be present"
    );
    assert!(contains(&stm, &set, y));
    assert!(
        stm.stats().aborts() >= 1,
        "{name}/OE-STM: the stale composition must abort at least once"
    );

    // E-STM: the violation commits silently.
    let stm = OeStm::estm_compat();
    let set = make();
    seed(&stm, &set);
    let inserted = insert_if_absent_with_adversary(&stm, &set, x, y);
    assert!(
        inserted,
        "{name}/E-STM: the stale composition commits (the Fig. 1 bug)"
    );
    assert!(
        contains(&stm, &set, x) && contains(&stm, &set, y),
        "{name}/E-STM: both x and y present — atomicity violated"
    );
}

#[test]
fn fig1_linked_list() {
    check_structure(LinkedListSet::new, "LinkedListSet");
}

#[test]
fn fig1_skip_list() {
    check_structure(SkipListSet::new, "SkipListSet");
}

#[test]
fn fig1_hash_set() {
    check_structure(|| HashSet::new(4), "HashSet");
}

/// The workaround the paper quotes from the elastic-transactions authors:
/// "use regular mode when composing". A regular parent under E-STM mode
/// is still safe because regular children protect every read until the
/// top-level commit.
#[test]
fn regular_mode_workaround_is_safe_even_without_outheritance() {
    let stm = OeStm::estm_compat();
    let set = LinkedListSet::new();
    seed(&stm, &set);
    let (x, y) = (101, 33);
    let mut scratch = OpScratch::default();
    let mut adv_scratch = OpScratch::default();
    let mut first = true;
    let inserted = stm.run(TxKind::Regular, |tx| {
        set.release_unpublished(&mut scratch.allocated);
        scratch.unlinked.clear();
        // Regular children: reads go to the permanently tracked read set.
        let present = tx.child(TxKind::Regular, |t| set.contains_in(t, y))?;
        if first {
            first = false;
            stm.run(TxKind::Elastic, |t| {
                set.release_unpublished(&mut adv_scratch.allocated);
                set.add_in(t, y, &mut adv_scratch)
            });
        }
        if present {
            return Ok(false);
        }
        tx.child(TxKind::Regular, |t| set.add_in(t, x, &mut scratch))?;
        Ok(true)
    });
    assert!(!inserted, "regular composition must detect the intruder");
    assert!(!contains(&stm, &set, x));
    assert!(
        stm.stats().aborts() >= 1,
        "correctness recovered at the price of classic-transaction aborts"
    );
}

/// Pairs each thread inserts per round.
const PAIRS: i64 = 256;

/// `add_all(keys)` as `SetExt` composes it — one elastic section per
/// key — but yielding the core between sections, so the other threads
/// get to commit inside the window even on a single core.
fn add_all_yielding(at: &Atomic<OeStm>, set: &LinkedListSet, keys: &[i64]) {
    let mut scratch = OpScratch::default();
    at.run(Policy::Elastic, |tx| {
        set.release_unpublished(&mut scratch.allocated);
        for &k in keys {
            tx.section(Policy::Elastic, |t| set.add_in(t, k, &mut scratch))?;
            std::thread::yield_now();
        }
        Ok(())
    });
}

/// One round of concurrent composed inserts on a fresh list: thread `t`
/// of `n` owns the keys `k ≡ t (mod n)` and inserts them two at a time,
/// `add_all([k + n, k])`, so every node it links goes in beside another
/// thread's. Returns how many of the keys the threads inserted are
/// missing afterwards: updates lost.
fn lost_updates(at: &Atomic<OeStm>) -> usize {
    let set = LinkedListSet::new();
    let n = worker_threads(2) as i64;
    std::thread::scope(|s| {
        for t in 0..n {
            let set = &set;
            s.spawn(move || {
                for p in 0..PAIRS {
                    let k = t + 2 * p * n;
                    add_all_yielding(at, set, &[k + n, k]);
                }
            });
        }
    });
    let keys = 2 * PAIRS * n;
    (0..keys).filter(|&k| !set.contains(at, k)).count() + keys as usize - set.size(at)
}

/// Rounds per backend: enough for E-STM to lose an update on a loaded
/// host, where a single round may not overlap two compositions at all.
const ROUNDS: usize = 40;

#[test]
fn concurrent_composed_adds_lose_updates_only_without_outheritance() {
    let estm = Atomic::new(OeStm::estm_compat());
    let lost: Vec<usize> = (0..ROUNDS)
        .map(|_| lost_updates(&estm))
        .take_while(|&l| l == 0)
        .collect();
    assert!(
        lost.len() < ROUNDS,
        "E-STM: {ROUNDS} rounds of neighbouring composed adds lost no update"
    );
    let oe = Atomic::new(OeStm::new());
    for round in 0..ROUNDS {
        assert_eq!(
            lost_updates(&oe),
            0,
            "OE-STM lost an update in round {round}"
        );
    }
}
