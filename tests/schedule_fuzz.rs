//! Schedule fuzzer: randomized multi-thread op-trees replayed on every
//! registry backend (a *cell*) with a [`Recorder`] attached,
//! holding each recorded execution to the formal checkers of the
//! `histories` crate.
//!
//! Two schedule families:
//!
//! * **Regular** — every transaction (and child) runs `TxKind::Regular`.
//!   The raw recorded history (aborted attempts included) must satisfy
//!   [`check_opacity`]: committed transactions serialize under real-time
//!   order and no aborted attempt observed an inconsistent (zombie)
//!   snapshot. The committed projection must additionally be well-formed
//!   and relax-serializable (opacity implies it; the checkers must agree).
//! * **Elastic** — transactions run `TxKind::Elastic`. Elastic cuts may
//!   legitimately break opacity's single-snapshot reads, so the criterion
//!   is the paper's: well-formedness + relax-serializability, plus
//!   outheritance (Definition 4.1) for every multi-transaction process —
//!   except on `oe-estm-compat`, whose E-STM compatibility mode releases
//!   child protected sets by design (the Fig. 1 pitfall) and is therefore
//!   exempt from the outheritance clause, and from relax-serializability
//!   too when a child that wrote merged into its parent: that one model
//!   transaction then holds both the child's released reads and the
//!   parent's later re-reads of the same words.
//!
//! Case count is kept small here (CI smoke); the deflake job reruns the
//! suite with rotating `PROPTEST_SHIM_SEED` values for depth. Schedules
//! that rotated seeds once caught are replayed by fixed-seed tests.

use composing_relaxed_transactions::backend_registry;
use composing_relaxed_transactions::histories::{
    check_opacity, is_relax_serializable, satisfies_outheritance, Composition, History, Recorder,
    TxId,
};
use composing_relaxed_transactions::stm_core::{Abort, StmConfig, TVar, Transaction, Tx, TxKind};
use proptest::prelude::*;
use std::sync::{Arc, Barrier};

/// Shared transactional variables per schedule (registers starting at 0,
/// matching the register specification's initial state).
const N_VARS: usize = 3;

/// One leaf operation of a plan.
#[derive(Debug, Clone, Copy)]
struct SimpleOp {
    write: bool,
    var: usize,
    val: u64,
}

/// One thread's transaction. The tracer's flat model maps an attempt onto
/// *sequential* model transactions, so a plan is either a leaf (direct
/// ops, no children) or a pure composition shell (children only — the
/// invisible top would otherwise overlap its own children's begins).
/// Sizes are kept small so the exhaustive relax-serializability search
/// stays tractable.
#[derive(Debug, Clone)]
enum Plan {
    Leaf(Vec<SimpleOp>),
    Shell(Vec<Vec<SimpleOp>>),
}

fn simple_op() -> impl Strategy<Value = SimpleOp> {
    (any::<bool>(), 0..N_VARS, 1u64..8).prop_map(|(write, var, val)| SimpleOp { write, var, val })
}

fn plan() -> impl Strategy<Value = Plan> {
    prop_oneof![
        prop::collection::vec(simple_op(), 1..5).prop_map(Plan::Leaf),
        prop::collection::vec(prop::collection::vec(simple_op(), 1..4), 1..3).prop_map(Plan::Shell),
    ]
}

/// A whole schedule: one plan per thread.
fn schedule() -> impl Strategy<Value = Vec<Plan>> {
    prop::collection::vec(plan(), 2..4)
}

fn apply<'env>(
    tx: &mut Tx<'env, '_>,
    vars: &'env [TVar<u64>],
    ops: &[SimpleOp],
) -> Result<(), Abort> {
    for op in ops {
        if op.write {
            tx.set(&vars[op.var], op.val)?;
        } else {
            tx.get(&vars[op.var])?;
        }
    }
    Ok(())
}

/// Run `plans` concurrently (one thread each, released together) against
/// backend `name` built with a fresh recorder; returns the raw recorded
/// history and its committed projection.
fn run_cell(name: &str, kind: TxKind, plans: &[Plan]) -> (History, History) {
    let rec = Arc::new(Recorder::new());
    let backend = backend_registry()
        .build(name, StmConfig::default().with_trace_sink(rec.clone()))
        .expect("fuzzer cell names come from the registry");
    let vars: Vec<TVar<u64>> = (0..N_VARS).map(|_| TVar::new(0u64)).collect();
    let barrier = Barrier::new(plans.len());
    std::thread::scope(|s| {
        let (backend, vars, barrier) = (&backend, &vars, &barrier);
        for plan in plans {
            s.spawn(move || {
                barrier.wait();
                backend.run(kind, |tx| match plan {
                    Plan::Leaf(ops) => apply(tx, vars, ops),
                    Plan::Shell(children) => {
                        for body in children {
                            tx.child(kind, |tx| apply(tx, vars, body))?;
                        }
                        Ok(())
                    }
                });
            });
        }
    });
    (rec.raw_history(), rec.history())
}

/// The `case`th schedule (0-based) the fuzzer draws under `seed`.
fn nth_schedule(seed: u64, case: u32) -> Vec<Plan> {
    let mut rng = proptest::TestRng::new(seed);
    for _ in 0..case {
        schedule().generate(&mut rng);
    }
    schedule().generate(&mut rng)
}

/// Whether some composition in `plans` has a child that writes. On the
/// lazy backends such a child merges into its parent's model transaction
/// (see `stm_core::trace`).
fn merges_a_writing_child(plans: &[Plan]) -> bool {
    plans.iter().any(|plan| match plan {
        Plan::Leaf(_) => false,
        Plan::Shell(children) => children.iter().flatten().any(|op| op.write),
    })
}

/// Committed transactions of process `p` in commit order — the flat-model
/// composition the tracer recorded for that thread (children first, the
/// enclosing top level last, i.e. as `Sup`).
fn composition_of(h: &History, p: u32) -> Vec<TxId> {
    let committed = h.committed();
    let mut txs: Vec<TxId> = committed
        .iter()
        .copied()
        .filter(|&t| h.proc_of(t) == Some(p))
        .collect();
    txs.sort_by_key(|&t| h.commit_index(t).unwrap_or(usize::MAX));
    txs
}

/// The schedule behind the regular family's old failures, fixed: a
/// read-only composition whose second child begins after a commit
/// overwrote what its first child read. The recorder maps the two
/// children onto two model transactions, outheritance keeps the first
/// child's read protected until the composition ends, and real time puts
/// the writer before the second child — so the history is
/// relax-serializable only if that attempt aborted at its commit.
#[test]
fn read_only_composition_overwritten_between_children_is_relax_serializable() {
    for name in backend_registry().names() {
        if name == "boost" {
            // Boost's readers hold abstract locks: the overwrite would
            // wait on the composition forever.
            continue;
        }
        let rec = Arc::new(Recorder::new());
        let backend = backend_registry()
            .build(name, StmConfig::default().with_trace_sink(rec.clone()))
            .expect("registry name");
        let (x, y) = (TVar::new(0u64), TVar::new(0u64));
        let mut first = true;
        backend.run(TxKind::Regular, |tx| {
            tx.child(TxKind::Regular, |tx| tx.get(&x).map(drop))?;
            if core::mem::take(&mut first) {
                std::thread::scope(|s| {
                    s.spawn(|| backend.run(TxKind::Regular, |tx| tx.set(&x, 5)));
                });
            }
            tx.child(TxKind::Regular, |tx| tx.get(&y).map(drop))
        });
        let (raw, h) = (rec.raw_history(), rec.history());
        assert_eq!(h.well_formed(), Ok(()), "{name}");
        if let Err(v) = check_opacity(&raw) {
            panic!("{name} is not opaque: {v}\nraw history:\n{raw:#}");
        }
        assert!(is_relax_serializable(&h), "{name}:\n{h:#}");
    }
}

/// The elastic family's criterion (see the module docs) on every cell.
fn elastic_cells_hold(plans: &[Plan]) {
    for name in backend_registry().names() {
        let (_raw, h) = run_cell(name, TxKind::Elastic, plans);
        assert_eq!(h.well_formed(), Ok(()), "{name}");
        let compat = name == "oe-estm-compat";
        if compat && merges_a_writing_child(plans) {
            continue;
        }
        assert!(
            is_relax_serializable(&h),
            "{name}: not relax-serializable\n{h:#}"
        );
        if compat {
            continue;
        }
        for p in h.processes() {
            let members = composition_of(&h, p);
            if members.len() < 2 {
                continue;
            }
            let c = Composition::new(members);
            assert!(
                satisfies_outheritance(&h, &c),
                "{name}: proc {p} composition {c:?} lost a protected set\n{h:#}"
            );
        }
    }
}

/// `(seed, case)` of elastic schedules that failed under rotated
/// `PROPTEST_SHIM_SEED` values, each on `oe-estm-compat` with a writing
/// child merged into its parent. Their failures depend on timing, so
/// each replays a few times.
const FORMER_ELASTIC_FAILURES: [(u64, u32); 18] = [
    (10, 0),
    (14, 2),
    (20, 2),
    (28, 2),
    (32, 2),
    (33, 0),
    (39, 1),
    (48, 3),
    (53, 0),
    (58, 0),
    (69, 0),
    (71, 1),
    (72, 2),
    (73, 3),
    (76, 0),
    (77, 2),
    (79, 0),
    (80, 3),
];

#[test]
fn formerly_failing_elastic_schedules_hold_on_every_cell() {
    for (seed, case) in FORMER_ELASTIC_FAILURES {
        let plans = nth_schedule(seed, case);
        assert!(merges_a_writing_child(&plans), "{seed}/{case}: {plans:?}");
        for _ in 0..3 {
            elastic_cells_hold(&plans);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // Regular executions of every backend must be opaque — including
    // their aborted attempts — and the checkers must agree that the
    // committed projection is relax-serializable.
    #[test]
    fn regular_schedules_are_opaque_on_every_cell(plans in schedule()) {
        for name in backend_registry().names() {
            let (raw, h) = run_cell(name, TxKind::Regular, &plans);
            prop_assert_eq!(h.well_formed(), Ok(()), "{}", name);
            if let Err(v) = check_opacity(&raw) {
                panic!("backend {name} is not opaque: {v}\nraw history:\n{raw:#}");
            }
            prop_assert!(
                is_relax_serializable(&h),
                "{}: opaque but not relax-serializable?\n{:#}",
                name,
                h
            );
        }
    }

    // Elastic executions stay relax-serializable on every cell, and every
    // backend that promises outheritance keeps child protected sets
    // protected until the enclosing commit. `oe-estm-compat` is exempt
    // from the outheritance clause: its E-STM mode releases child
    // protected sets by design (the paper's Fig. 1 pitfall); see
    // `elastic_cells_hold`.
    #[test]
    fn elastic_schedules_stay_relax_serializable_and_outherited(plans in schedule()) {
        elastic_cells_hold(&plans);
    }
}
