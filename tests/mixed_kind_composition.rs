//! The paper's future work, already expressible here: "composing multiple
//! types of relaxed transactions inside the same transactional memory."
//!
//! OE-STM's `child(kind, …)` lets one parent compose *elastic* and
//! *regular* children freely — outheritance is kind-agnostic (the
//! protected set passes up regardless of how it was accumulated). These
//! tests pin down the semantics of every mixture:
//!
//! * elastic child inside a regular parent: the child still relaxes its
//!   own read-only prefix;
//! * regular child inside an elastic parent: the child's reads are fully
//!   protected even though the parent relaxes its own;
//! * both children outherit, so the *composition* is atomic either way;
//! * the same holds across synchronization schemes: a boosted child's
//!   abstract locks and compensations outherit like an elastic child's
//!   protected set.

use composing_relaxed_transactions::cec::{LinkedListSet, OpScratch, SetOps};
use composing_relaxed_transactions::oe_stm::OeStm;
use composing_relaxed_transactions::stm_boost::BoostedSet;
use composing_relaxed_transactions::stm_core::{AbortReason, Stm, TVar, Transaction, TxKind};

/// An elastic child's prefix relaxation still applies inside a regular
/// parent: a conflict behind the child's window is ignored.
#[test]
fn elastic_child_relaxes_inside_regular_parent() {
    let stm = OeStm::new();
    let a = TVar::new(1u64);
    let b = TVar::new(2u64);
    let c = TVar::new(3u64);
    let out = TVar::new(0u64);
    stm.run(TxKind::Regular, |tx| {
        let sum = tx.child(TxKind::Elastic, |tx| {
            let ra = tx.read(&a)?;
            let rb = tx.read(&b)?;
            let rc = tx.read(&c)?; // `a` slides out of the child's window
                                   // Prefix conflict on `a` while the child is still running:
            let nv = stm.clock().tick();
            a.store_atomic(99, nv);
            Ok(ra + rb + rc)
        })?;
        tx.write(&out, sum)
    });
    assert_eq!(out.load_atomic(), 6);
    assert_eq!(
        stm.stats().aborts(),
        0,
        "the elastic child's relaxation must survive a regular parent"
    );
}

/// A regular child is fully protected inside an elastic parent: the same
/// prefix conflict now aborts the attempt.
#[test]
fn regular_child_is_protected_inside_elastic_parent() {
    let stm = OeStm::new();
    let a = TVar::new(1u64);
    let b = TVar::new(2u64);
    let c = TVar::new(3u64);
    let out = TVar::new(0u64);
    let mut sabotage = true;
    stm.run(TxKind::Elastic, |tx| {
        let sum = tx.child(TxKind::Regular, |tx| {
            let ra = tx.read(&a)?;
            let rb = tx.read(&b)?;
            let rc = tx.read(&c)?;
            if sabotage {
                sabotage = false;
                let nv = stm.clock().tick();
                a.store_atomic(99, nv);
            }
            Ok(ra + rb + rc)
        })?;
        tx.write(&out, sum)
    });
    assert!(
        stm.stats().aborts() >= 1,
        "a regular child must detect the prefix conflict"
    );
    assert_eq!(out.load_atomic(), 99 + 2 + 3, "retry sees the new value");
}

/// Mixed-kind composition is atomic: an elastic `contains` child and a
/// regular `add` child compose into an insert-if-absent that survives the
/// Fig. 1 adversary.
#[test]
fn mixed_kind_insert_if_absent_is_atomic() {
    let stm = OeStm::new();
    let set = LinkedListSet::new();
    for k in (0..40).step_by(2) {
        // Fresh scratch per operation: `allocated` entries of a COMMITTED
        // add are published and must never be recycled.
        let mut seed_scratch = OpScratch::default();
        stm.run(TxKind::Elastic, |tx| {
            set.release_unpublished(&mut seed_scratch.allocated);
            set.add_in(tx, k, &mut seed_scratch)
        });
    }
    let (x, y) = (101, 33);
    let mut scratch = OpScratch::default();
    let mut adv = OpScratch::default();
    let mut first = true;
    let inserted = stm.run(TxKind::Elastic, |tx| {
        set.release_unpublished(&mut scratch.allocated);
        scratch.unlinked.clear();
        // Elastic check child + regular insert child.
        let present = tx.child(TxKind::Elastic, |t| set.contains_in(t, y))?;
        if first {
            first = false;
            stm.run(TxKind::Elastic, |t| {
                set.release_unpublished(&mut adv.allocated);
                set.add_in(t, y, &mut adv)
            });
        }
        if present {
            return Ok(false);
        }
        tx.child(TxKind::Regular, |t| set.add_in(t, x, &mut scratch))?;
        Ok(true)
    });
    assert!(!inserted, "the adversary's insert must be detected");
    assert!(!stm.run(TxKind::Elastic, |tx| set.contains_in(tx, x)));
    assert!(stm.run(TxKind::Elastic, |tx| set.contains_in(tx, y)));
}

/// Deep mixed nesting: elastic(regular(elastic(...))) keeps the combined
/// protected set and commits atomically.
#[test]
fn deep_mixed_nesting_commits_once() {
    let stm = OeStm::new();
    let vars: Vec<TVar<u64>> = (0..6).map(|_| TVar::new(1)).collect();
    let total = stm.run(TxKind::Elastic, |tx| {
        let a = tx.child(TxKind::Regular, |tx| {
            let x = tx.read(&vars[0])?;
            tx.child(TxKind::Elastic, |tx| {
                let y = tx.read(&vars[1])?;
                tx.write(&vars[2], x + y)?;
                Ok(x + y)
            })
        })?;
        let b = tx.child(TxKind::Elastic, |tx| {
            let z = tx.read(&vars[2])?; // reads the inner child's write
            tx.write(&vars[3], z * 10)?;
            Ok(z)
        })?;
        Ok(a + b)
    });
    assert_eq!(total, 4);
    assert_eq!(vars[2].load_atomic(), 2);
    assert_eq!(vars[3].load_atomic(), 20);
    assert_eq!(stm.stats().commits, 1, "one top-level commit");
    assert_eq!(stm.stats().child_commits, 3);
    assert_eq!(stm.stats().outherits, 3);
}

/// Kind restoration: after a child of a different kind commits, the parent
/// continues under its own kind (an elastic parent goes back to windowed
/// reads after a regular child).
#[test]
fn parent_kind_restored_after_mixed_child() {
    let stm = OeStm::new();
    let a = TVar::new(1u64);
    let b = TVar::new(2u64);
    let c = TVar::new(3u64);
    let d = TVar::new(4u64);
    stm.run(TxKind::Elastic, |tx| {
        assert_eq!(tx.kind(), TxKind::Elastic);
        tx.child(TxKind::Regular, |tx| {
            assert_eq!(tx.kind(), TxKind::Regular);
            tx.read(&a)
        })?;
        assert_eq!(tx.kind(), TxKind::Elastic, "parent kind restored");
        // Parent's own elastic reads still relax their prefix.
        let _ = tx.read(&b)?;
        let _ = tx.read(&c)?;
        let _ = tx.read(&d)?; // b slides out
        let nv = stm.clock().tick();
        b.store_atomic(9, nv); // prefix conflict: must be ignored
        Ok(())
    });
    assert_eq!(stm.stats().aborts(), 0);
}

/// Abort causes remain classified correctly across mixed nesting.
#[test]
fn abort_causes_classified_in_mixed_nesting() {
    let stm = OeStm::new();
    let a = TVar::new(1u64);
    let b = TVar::new(2u64);
    let mut sabotage = true;
    stm.run(TxKind::Elastic, |tx| {
        tx.child(TxKind::Elastic, |tx| {
            let _ = tx.read(&a)?;
            let _ = tx.read(&b)?; // window = {a, b}
            if sabotage {
                sabotage = false;
                // Invalidate a windowed entry, then force a snapshot
                // advance (only on the first attempt, or every retry
                // would sabotage itself).
                let nv = stm.clock().tick();
                b.store_atomic(9, nv);
                let nv2 = stm.clock().tick();
                a.store_atomic(5, nv2);
            }
            tx.read(&a)
        })
    });
    let snap = stm.stats();
    assert!(
        snap.aborts_by_cause[AbortReason::ElasticCut.index()] >= 1,
        "windowed conflict must be classified as an elastic-cut abort, got {snap:?}"
    );
}

/// Two threads move keys between a boosted set and an elastic list, each
/// move one OE-STM transaction composed of an elastic list child and a
/// boosted child. Every key stays in exactly one of the two, which regular
/// observers check mid-run and at the end.
#[test]
fn moves_between_a_boosted_set_and_an_elastic_list_conserve_keys() {
    const KEYS: i64 = 16;
    const MOVES: i64 = 300;
    let stm = OeStm::new();
    let list = LinkedListSet::new();
    let boosted = BoostedSet::new();
    for k in 0..KEYS {
        if k % 2 == 0 {
            let mut scratch = OpScratch::default();
            stm.run(TxKind::Elastic, |tx| {
                list.release_unpublished(&mut scratch.allocated);
                list.add_in(tx, k, &mut scratch)
            });
        } else {
            boosted.base().add(k);
        }
    }
    let in_exactly_one = |k: i64| {
        stm.run(TxKind::Regular, |tx| {
            Ok(list.contains_in(tx, k)? != boosted.contains(tx, k)?)
        })
    };
    std::thread::scope(|s| {
        for t in 0..2i64 {
            let (stm, list, boosted, in_exactly_one) = (&stm, &list, &boosted, &in_exactly_one);
            s.spawn(move || {
                for i in 0..MOVES {
                    let k = (i * 7 + t * 5) % KEYS;
                    // Fresh scratch per move: the slots a committed add
                    // allocated are published and must not be recycled.
                    let mut scratch = OpScratch::default();
                    let moved = stm.run(TxKind::Elastic, |tx| {
                        list.release_unpublished(&mut scratch.allocated);
                        scratch.unlinked.clear();
                        if tx.child(TxKind::Elastic, |t| list.remove_in(t, k, &mut scratch))? {
                            tx.child(TxKind::Regular, |t| boosted.add(t, k))
                        } else if tx.child(TxKind::Regular, |t| boosted.remove(t, k))? {
                            tx.child(TxKind::Elastic, |t| list.add_in(t, k, &mut scratch))
                        } else {
                            Ok(false)
                        }
                    });
                    assert!(moved, "key {k} was in neither set");
                    let probe = (i * 3 + t) % KEYS;
                    assert!(in_exactly_one(probe), "key {probe} seen in both or neither");
                }
            });
        }
    });
    assert!(
        (0..KEYS).all(in_exactly_one),
        "the two sets overlap or lost a key"
    );
    let listed = stm.run(TxKind::Regular, |tx| list.len_in(tx));
    assert_eq!(
        listed + boosted.base().len(),
        KEYS as usize,
        "union conserved"
    );
    assert_eq!(boosted.locks().held(), 0);
}
