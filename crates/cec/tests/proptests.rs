//! Property-based tests for the collections: each transactional structure
//! is driven by a random operation sequence and compared against a model
//! `BTreeSet` oracle (sequentially — the linearizable concurrent cases are
//! covered by the stress tests in the workspace `tests/` directory).

use cec::{HashSet, LinkedListSet, SetExt, SkipListSet, TxSet};
use oe_stm::OeStm;
use proptest::prelude::*;
use std::collections::BTreeSet;
use stm_core::api::{Atomic, AtomicBackend, Policy};
use stm_core::dynstm::Backend;
use stm_core::TVar;
use stm_tl2::Tl2;

#[derive(Debug, Clone)]
enum Op {
    Add(i64),
    Remove(i64),
    Contains(i64),
    AddAll(Vec<i64>),
    RemoveAll(Vec<i64>),
    Size,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let key = -20i64..20;
    prop_oneof![
        key.clone().prop_map(Op::Add),
        key.clone().prop_map(Op::Remove),
        key.clone().prop_map(Op::Contains),
        prop::collection::vec(-20i64..20, 1..4).prop_map(Op::AddAll),
        prop::collection::vec(-20i64..20, 1..4).prop_map(Op::RemoveAll),
        Just(Op::Size),
    ]
}

fn check_against_oracle<B: AtomicBackend, C: TxSet>(stm: &Atomic<B>, set: &C, ops: &[Op]) {
    let mut oracle: BTreeSet<i64> = BTreeSet::new();
    for op in ops {
        match op {
            Op::Add(k) => {
                assert_eq!(set.add(stm, *k), oracle.insert(*k), "add({k})");
            }
            Op::Remove(k) => {
                assert_eq!(set.remove(stm, *k), oracle.remove(k), "remove({k})");
            }
            Op::Contains(k) => {
                assert_eq!(set.contains(stm, *k), oracle.contains(k), "contains({k})");
            }
            Op::AddAll(ks) => {
                let mut expected = false;
                for k in ks {
                    expected |= oracle.insert(*k);
                }
                assert_eq!(set.add_all(stm, ks), expected, "add_all({ks:?})");
            }
            Op::RemoveAll(ks) => {
                let mut expected = false;
                for k in ks {
                    expected |= oracle.remove(k);
                }
                assert_eq!(set.remove_all(stm, ks), expected, "remove_all({ks:?})");
            }
            Op::Size => {
                assert_eq!(set.size(stm), oracle.len(), "size");
            }
        }
    }
    assert_eq!(set.size(stm), oracle.len(), "final size");
    for k in -20i64..20 {
        assert_eq!(
            set.contains(stm, k),
            oracle.contains(&k),
            "final contains({k})"
        );
    }
}

// ---------------------------------------------------------------------
// Operation trees: randomized `or_else` / `section(Policy, …)`
// compositions executed through the facade on every backend, replayed
// against a sequential oracle. The arbiter must never change results —
// only pacing.
// ---------------------------------------------------------------------

/// One node of a random operation tree over a transactional counter bank.
#[derive(Debug, Clone)]
enum TreeOp {
    /// `bank[i] += d` as a plain top-level transaction.
    Bump(usize, u64),
    /// A section (child transaction) under the given policy running a
    /// sub-tree; elastic vs regular must be observationally identical
    /// single-threaded.
    Section(bool, Vec<TreeOp>),
    /// `or_else`: the primary retries if `bank[i]` is odd (after adding
    /// `d` — the write must roll back with the abandoned branch); the
    /// fallback bumps `bank[j]` instead.
    OrElseBump { i: usize, d: u64, j: usize },
}

const BANK: usize = 4;

fn leaf_strategy() -> BoxedStrategy<TreeOp> {
    prop_oneof![
        (0..BANK, 1u64..5).prop_map(|(i, d)| TreeOp::Bump(i, d)),
        (0..BANK, 1u64..5, 0..BANK).prop_map(|(i, d, j)| TreeOp::OrElseBump { i, d, j }),
    ]
    .boxed()
}

fn tree_op_strategy() -> BoxedStrategy<TreeOp> {
    // Two explicit nesting levels (sections of leaves, then sections
    // mixing leaves and sections) — equivalent to a depth-2
    // `prop_recursive`, spelled out by hand.
    let section_of_leaves = (any::<bool>(), prop::collection::vec(leaf_strategy(), 1..4))
        .prop_map(|(elastic, ops)| TreeOp::Section(elastic, ops))
        .boxed();
    let inner = prop_oneof![leaf_strategy(), section_of_leaves];
    prop_oneof![
        leaf_strategy(),
        (any::<bool>(), prop::collection::vec(inner, 1..4))
            .prop_map(|(elastic, ops)| TreeOp::Section(elastic, ops)),
    ]
    .boxed()
}

/// Apply a sub-tree inside an open transaction (sections recurse here).
fn apply_in_tx<'env>(
    tx: &mut stm_core::api::Tx<'env, '_>,
    bank: &'env [TVar<u64>],
    op: &TreeOp,
) -> Result<(), stm_core::Abort> {
    match op {
        TreeOp::Bump(i, d) => tx.modify(&bank[*i], |v| v.wrapping_add(*d)).map(|_| ()),
        TreeOp::Section(elastic, ops) => {
            let policy = if *elastic {
                Policy::Elastic
            } else {
                Policy::Regular
            };
            tx.section(policy, |t| {
                for sub in ops {
                    apply_in_tx(t, bank, sub)?;
                }
                Ok(())
            })
        }
        // Inside an open transaction an or_else collapses to its oracle
        // semantics directly (no attempt-level alternation available).
        TreeOp::OrElseBump { i, d, j } => {
            let v = tx.get(&bank[*i])?;
            if v.wrapping_add(*d) % 2 == 1 {
                tx.modify(&bank[*j], |x| x.wrapping_add(*d)).map(|_| ())
            } else {
                tx.set(&bank[*i], v.wrapping_add(*d))
            }
        }
    }
}

/// Execute one top-level tree op through the facade.
fn apply_top(at: &Atomic<Backend>, bank: &[TVar<u64>], op: &TreeOp) {
    match op {
        TreeOp::OrElseBump { i, d, j } => {
            at.or_else(
                Policy::Regular,
                |tx| {
                    let v = tx.modify(&bank[*i], |v| v.wrapping_add(*d))?;
                    if v % 2 == 1 {
                        // The write above must die with this branch.
                        return tx.retry();
                    }
                    Ok(())
                },
                |tx| tx.modify(&bank[*j], |v| v.wrapping_add(*d)).map(|_| ()),
            );
        }
        other => {
            at.run(Policy::Regular, |tx| apply_in_tx(tx, bank, other));
        }
    }
}

/// The sequential oracle: plain integers, same semantics.
fn apply_oracle(bank: &mut [u64; BANK], op: &TreeOp) {
    match op {
        TreeOp::Bump(i, d) => bank[*i] = bank[*i].wrapping_add(*d),
        TreeOp::Section(_, ops) => {
            for sub in ops {
                apply_oracle(bank, sub);
            }
        }
        TreeOp::OrElseBump { i, d, j } => {
            if bank[*i].wrapping_add(*d) % 2 == 1 {
                bank[*j] = bank[*j].wrapping_add(*d);
            } else {
                bank[*i] = bank[*i].wrapping_add(*d);
            }
        }
    }
}

/// Every registry backend: the trees must replay identically on all of
/// them, under every contention manager.
const TREE_BACKENDS: [&str; 5] = ["oe", "oe-estm-compat", "lsa", "tl2", "swiss"];

fn registry() -> stm_core::dynstm::BackendRegistry {
    let mut reg = stm_core::dynstm::BackendRegistry::new();
    oe_stm::register_backends(&mut reg);
    stm_lsa::register_backends(&mut reg);
    stm_tl2::register_backends(&mut reg);
    stm_swiss::register_backends(&mut reg);
    reg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn linked_list_matches_oracle(ops in prop::collection::vec(op_strategy(), 0..80)) {
        check_against_oracle(&Atomic::new(OeStm::new()), &LinkedListSet::new(), &ops);
    }

    #[test]
    fn skiplist_matches_oracle(ops in prop::collection::vec(op_strategy(), 0..80)) {
        check_against_oracle(&Atomic::new(OeStm::new()), &SkipListSet::new(), &ops);
    }

    #[test]
    fn hashset_matches_oracle(ops in prop::collection::vec(op_strategy(), 0..80)) {
        check_against_oracle(&Atomic::new(OeStm::new()), &HashSet::new(3), &ops);
    }

    #[test]
    fn linked_list_matches_oracle_under_tl2(ops in prop::collection::vec(op_strategy(), 0..60)) {
        check_against_oracle(&Atomic::new(Tl2::new()), &LinkedListSet::new(), &ops);
    }

    /// Randomized or_else/section trees × every backend: the facade
    /// execution must match the sequential oracle exactly — the
    /// arbitration may only change pacing, never results.
    #[test]
    fn operation_trees_match_oracle_under_every_cm(
        ops in prop::collection::vec(tree_op_strategy(), 1..10)
    ) {
        let reg = registry();
        for backend in TREE_BACKENDS {
            let at = Atomic::new(reg.build_default(backend).expect("registry backend"));
            let bank: Vec<TVar<u64>> = (0..BANK).map(|_| TVar::new(0u64)).collect();
            let mut oracle = [0u64; BANK];
            for op in &ops {
                apply_top(&at, &bank, op);
                apply_oracle(&mut oracle, op);
                let got: Vec<u64> = bank.iter().map(TVar::load_atomic).collect();
                prop_assert_eq!(
                    &got[..], &oracle[..],
                    "{}: diverged after {:?}", backend, op
                );
            }
            // The arbiter must also keep the books straight: no conflict
            // aborts single-threaded, retries only from abandoned or_else
            // branches.
            let snap = at.stats();
            prop_assert_eq!(snap.aborts(), 0, "{}: {:?}", backend, snap);
        }
    }

    /// The snapshot helper returns exactly the oracle's sorted contents.
    #[test]
    fn snapshot_is_sorted_oracle(keys in prop::collection::vec(-50i64..50, 0..40)) {
        let stm = Atomic::new(OeStm::new());
        let list = LinkedListSet::new();
        let mut oracle = BTreeSet::new();
        for k in keys {
            list.add(&stm, k);
            oracle.insert(k);
        }
        let expect: Vec<i64> = oracle.into_iter().collect();
        prop_assert_eq!(list.snapshot(&stm), expect);
    }
}
