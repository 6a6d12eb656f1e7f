//! Implementation ↔ theory: record *live* OE-STM executions with the
//! `histories` recorder and check them against the paper's definitions.
//!
//! The scenario is Fig. 1 in miniature, with a real concurrent adversary
//! on a second thread (so the recorded history has two processes):
//!
//! * process 1 composes two children — read `y`, then write `x` —
//! * process 2 commits a write to `y` exactly between the two children
//!   (sequenced with channels, so the interleaving is deterministic).
//!
//! With outheritance ON, the recorded committed history must satisfy
//! Definition 4.1 and be weakly composable (Theorem 4.4 applied to a real
//! run). With outheritance OFF (E-STM mode), the recorded history must
//! violate Definition 4.1 and fail weak composability (the Theorem 4.3
//! phenomenon, observed in the wild rather than constructed).

use composing_relaxed_transactions::histories::{
    is_relax_serializable, is_weakly_composable, satisfies_outheritance, Composition, Event,
    Recorder,
};
use composing_relaxed_transactions::oe_stm::OeStm;
use composing_relaxed_transactions::stm_core::{Stm, StmConfig, TVar, Transaction, TxKind};
use std::sync::mpsc;
use std::sync::Arc;

/// Run the two-process scenario and return the recorder.
fn run_scenario(outheritance: bool) -> (Arc<Recorder>, (u64, u64)) {
    let recorder = Arc::new(Recorder::new());
    let config = StmConfig::default().with_trace_sink(recorder.clone());
    let stm = if outheritance {
        OeStm::with_config(config)
    } else {
        OeStm::estm_compat_with_config(config)
    };
    let stm = Arc::new(stm);

    let x = Arc::new(TVar::new(0u64));
    let y = Arc::new(TVar::new(0u64));

    let (to_adversary, adversary_go) = mpsc::channel::<()>();
    let (to_composer, composer_go) = mpsc::channel::<()>();

    let adversary = {
        let stm = Arc::clone(&stm);
        let y = Arc::clone(&y);
        std::thread::spawn(move || {
            adversary_go.recv().unwrap();
            stm.run(TxKind::Elastic, |tx| {
                let v = tx.read(&*y)?;
                tx.write(&*y, v + 1)
            });
            to_composer.send(()).unwrap();
        })
    };

    // The composition: child 1 reads y (the containment check of Fig. 1);
    // child 2 models the insert — like a list insert whose traversal
    // passes the node of y, it reads y again and then writes x.
    let mut first = true;
    let observed = stm.run(TxKind::Elastic, |tx| {
        let ry1 = tx.child(TxKind::Elastic, |tx| tx.read(&*y))?;
        if first {
            first = false;
            to_adversary.send(()).unwrap();
            composer_go.recv().unwrap();
        }
        let ry2 = tx.child(TxKind::Elastic, |tx| {
            let ry2 = tx.read(&*y)?;
            tx.write(&*x, 10 + ry2)?;
            Ok(ry2)
        })?;
        Ok((ry1, ry2))
    });
    adversary.join().unwrap();
    (recorder, observed)
}

/// The composition = the committed children of the composing process:
/// transactions that performed operations, executed by the process owning
/// the most transactions (process 1 runs parent + children).
fn committed_children(h: &composing_relaxed_transactions::histories::History) -> Composition {
    // The composing process is the one with the most begin events.
    let mut counts = std::collections::HashMap::new();
    for e in &h.events {
        if let Event::Begin { p, .. } = *e {
            *counts.entry(p).or_insert(0usize) += 1;
        }
    }
    let (&composer, _) = counts.iter().max_by_key(|&(_, c)| *c).unwrap();
    let committed = h.committed();
    let members: Vec<u32> = h
        .events
        .iter()
        .filter_map(|e| match *e {
            Event::Begin { t, p } if p == composer => Some(t),
            _ => None,
        })
        .filter(|t| committed.contains(t))
        .filter(|&t| {
            h.events
                .iter()
                .any(|e| matches!(*e, Event::Op { t: t2, .. } if t2 == t))
        })
        .collect();
    Composition::new(members)
}

#[test]
fn recorded_histories_are_well_formed() {
    for outherit in [true, false] {
        let (rec, _) = run_scenario(outherit);
        let h = rec.history().committed_projection();
        assert_eq!(
            h.well_formed(),
            Ok(()),
            "tracer must emit model-conformant events (outheritance={outherit})"
        );
        // The raw interleaving need not be relax-serial (invisible reads
        // overlap across processes); relax-SERIALIZABILITY is the property.
        assert!(
            is_relax_serializable(&h),
            "live histories are relax-serializable (outheritance={outherit})"
        );
    }
}

#[test]
fn oestm_run_satisfies_outheritance_and_is_weakly_composable() {
    let (rec, observed) = run_scenario(true);
    assert_eq!(
        observed,
        (1, 1),
        "OE-STM must retry; both children then observe the same y"
    );
    let h = rec.history().committed_projection();
    let c = committed_children(&h);
    assert!(c.is_valid(&h), "children form a composition: {c:?}");
    assert!(
        satisfies_outheritance(&h, &c),
        "OE-STM's outherit() must produce Definition 4.1 histories"
    );
    assert!(
        is_weakly_composable(&h, &c),
        "Theorem 4.4 on a live run: outheritance ⇒ weak composability"
    );
}

#[test]
fn estm_run_violates_outheritance_and_weak_composability() {
    let (rec, observed) = run_scenario(false);
    assert_eq!(
        observed,
        (0, 1),
        "E-STM commits a composition whose children saw different worlds"
    );
    let h = rec.history().committed_projection();
    let c = committed_children(&h);
    assert!(c.is_valid(&h));
    assert!(
        !satisfies_outheritance(&h, &c),
        "E-STM releases the child's protected set at child commit"
    );
    assert!(
        !is_weakly_composable(&h, &c),
        "the Fig. 1 interleaving is not weakly composable"
    );
}

#[test]
fn abort_events_are_recorded_and_filtered() {
    let (rec, _) = run_scenario(true);
    assert!(
        !rec.raw_history().aborted().is_empty(),
        "the OE-STM scenario aborts at least once"
    );
    let h = rec.history();
    assert!(h.aborted().is_empty(), "history() removes aborted attempts");
}
