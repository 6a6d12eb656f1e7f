//! Opacity checking: serializability of the committed transactions plus
//! consistency of what *aborted* transactions observed.
//!
//! The paper's correctness criterion is relax-serializability
//! ([`is_relax_serializable`](crate::search::is_relax_serializable)); its
//! baselines, however, promise the stronger classical criterion (Guerraoui
//! & Kapalka's opacity), and the schedule fuzzer holds the regular
//! (non-elastic) executions of every backend to it. The checker decides
//! three conditions on a recorded history:
//!
//! 1. **Committed serializability with real-time order** — there is a
//!    total order of the committed transactions, consistent with `<H`
//!    (commit before begin), under which every recorded response matches
//!    the objects' serial specifications.
//! 2. **No zombie reads** — each aborted transaction, considered alone,
//!    could also have been serialized among the committed ones: its
//!    external reads (reads of locations it did not itself write first)
//!    are explained by *some* committed state consistent with `<H`. A
//!    transaction that observed `x` from before a concurrent commit and
//!    `y` from after it fails this — the classic inconsistent snapshot a
//!    doomed transaction acts on.
//! 3. Real-time edges into aborted transactions count too: an aborted
//!    transaction that began after `commit(t)` must not have read state
//!    from before `t`.
//!
//! Scope, documented for honesty: aborted transactions are checked
//! through their *reads only* (their writes never took effect, and reads
//! of their own earlier writes are locally satisfied); mutator responses
//! (`Inc`, `Add`, …) of aborted transactions are not replayed. Recorded
//! word-STM histories only ever contain register reads and writes, so
//! nothing is lost on recorder output.
//!
//! A child whose provisional commit was revoked by its attempt's abort
//! (both a commit and an abort event) counts as aborted throughout.
//!
//! The witness search is a DFS over serialization prefixes with immediate
//! replay pruning and memoization on (chosen set, object states): it
//! stays tractable on fuzzer-sized histories (tens of transactions), and
//! it tries transactions in commit order first, so the common correct
//! case confirms in near-linear time. It is also the workspace's one
//! serializability check ([`is_serializable`](crate::search::is_serializable)).

use crate::event::{Event, ObjId, ObjState, OpKind, TxId, Val};
use crate::history::History;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Why a history is not opaque.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpacityViolation {
    /// No serialization of the committed transactions consistent with the
    /// real-time order explains the recorded responses.
    NotSerializable,
    /// The aborted transaction `t` observed an inconsistent snapshot: no
    /// committed state consistent with the real-time order explains its
    /// reads.
    ZombieRead {
        /// The aborted transaction holding the inconsistent reads.
        t: TxId,
    },
}

impl core::fmt::Display for OpacityViolation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            OpacityViolation::NotSerializable => {
                f.write_str("committed transactions admit no real-time-consistent serialization")
            }
            OpacityViolation::ZombieRead { t } => {
                write!(f, "aborted transaction t{t} read an inconsistent snapshot")
            }
        }
    }
}

/// Decide opacity of `h` (see the module docs for the exact conditions).
///
/// # Errors
/// Returns the first [`OpacityViolation`] found: committed
/// serializability is checked first, then each aborted transaction in
/// id order.
pub fn check_opacity(h: &History) -> Result<(), OpacityViolation> {
    if !serializes(h, None) {
        return Err(OpacityViolation::NotSerializable);
    }
    for &t in &h.aborted() {
        if !serializes(h, Some(t)) {
            return Err(OpacityViolation::ZombieRead { t });
        }
    }
    Ok(())
}

/// One replayable operation of a serialization unit.
type ReplayOp = (ObjId, OpKind, Val);

/// Is there a serialization of `h`'s committed transactions — plus, if
/// `ghost` is given, that aborted transaction reduced to its external
/// reads — that is consistent with `<H` and legal under the serial
/// specifications?
pub(crate) fn serializes(h: &History, ghost: Option<TxId>) -> bool {
    let committed = h.committed();
    let aborted = h.aborted();
    // Units in commit order (the natural witness order); a transaction
    // with *both* a commit and an abort event is a child whose
    // provisional commit the attempt's abort revoked — it counts as
    // aborted. The ghost goes last — it never commits, so nothing orders
    // after it.
    let mut units: Vec<TxId> = committed
        .iter()
        .copied()
        .filter(|t| !aborted.contains(t))
        .collect();
    units.sort_by_key(|&t| h.commit_index(t).unwrap_or(usize::MAX));
    let mut ops: HashMap<TxId, Vec<ReplayOp>> = units.iter().map(|&t| (t, Vec::new())).collect();
    for e in &h.events {
        if let Event::Op { t, o, op, val } = *e {
            if let Some(v) = ops.get_mut(&t) {
                v.push((o, op, val));
            }
        }
    }
    if let Some(g) = ghost {
        ops.insert(g, ghost_reads(h, g));
        units.push(g);
    }

    // `<H` restricted to the considered units (committed → any unit whose
    // begin follows the commit; the ghost only ever appears on the right).
    let index_of: HashMap<TxId, usize> = units.iter().enumerate().map(|(i, &t)| (t, i)).collect();
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); units.len()];
    for (a, b) in h.partial_order() {
        if let (Some(&ia), Some(&ib)) = (index_of.get(&a), index_of.get(&b)) {
            preds[ib].push(ia);
        }
    }

    let states: BTreeMap<ObjId, ObjState> =
        h.objects.iter().map(|(&o, &k)| (o, k.initial())).collect();
    let mut chosen = vec![false; units.len()];
    let mut seen = HashSet::new();
    dfs(&units, &ops, &preds, &mut chosen, &states, &mut seen)
}

/// The external reads of aborted transaction `g`, in program order:
/// writes are dropped (they never took effect) and reads of locations `g`
/// itself wrote earlier are dropped (locally satisfied).
fn ghost_reads(h: &History, g: TxId) -> Vec<ReplayOp> {
    let mut written: HashSet<ObjId> = HashSet::new();
    let mut out = Vec::new();
    for e in &h.events {
        let Event::Op { t, o, op, val } = *e else {
            continue;
        };
        if t != g {
            continue;
        }
        match op {
            OpKind::Write(_) => {
                written.insert(o);
            }
            OpKind::Read if !written.contains(&o) => out.push((o, op, val)),
            _ => {}
        }
    }
    out
}

/// Memoization key: the chosen set plus the object states it produced
/// along this path (different orders of one set can differ in state).
type MemoKey = (Vec<bool>, Vec<(ObjId, Vec<Val>)>);

fn state_key(chosen: &[bool], states: &BTreeMap<ObjId, ObjState>) -> MemoKey {
    let flat = states
        .iter()
        .map(|(&o, s)| {
            let vals = match s {
                ObjState::Register(v) | ObjState::Counter(v) => vec![*v],
                ObjState::IntSet(vs) => vs.clone(),
            };
            (o, vals)
        })
        .collect();
    (chosen.to_vec(), flat)
}

fn dfs(
    units: &[TxId],
    ops: &HashMap<TxId, Vec<ReplayOp>>,
    preds: &[Vec<usize>],
    chosen: &mut Vec<bool>,
    states: &BTreeMap<ObjId, ObjState>,
    seen: &mut HashSet<MemoKey>,
) -> bool {
    if chosen.iter().all(|&c| c) {
        return true;
    }
    if !seen.insert(state_key(chosen, states)) {
        return false;
    }
    'next: for i in 0..units.len() {
        if chosen[i] || !preds[i].iter().all(|&q| chosen[q]) {
            continue;
        }
        // Replay unit i's operations on a copy of the state; an illegal
        // response prunes this placement immediately.
        let mut next = states.clone();
        for &(o, op, val) in &ops[&units[i]] {
            let Some(s) = next.get_mut(&o) else {
                continue 'next;
            };
            if !s.step(op, val) {
                continue 'next;
            }
        }
        chosen[i] = true;
        if dfs(units, ops, preds, chosen, &next, seen) {
            return true;
        }
        chosen[i] = false;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ObjKind;
    use crate::search::is_relax_serializable;
    use crate::theorems::{fig3_history, section2_example, thm43_witness};

    const X: ObjId = 1;
    const Y: ObjId = 2;

    fn two_registers() -> History {
        History::new()
            .with_object(X, ObjKind::Register)
            .with_object(Y, ObjKind::Register)
    }

    #[test]
    fn sequential_writer_then_reader_is_opaque() {
        let h = two_registers()
            .begin(1, 1)
            .acquire(X, 1, 1)
            .op(1, X, OpKind::Write(5), 0)
            .commit(1, 1)
            .release(X, 1, 1)
            .begin(2, 2)
            .acquire(X, 2, 2)
            .op(2, X, OpKind::Read, 5)
            .commit(2, 2)
            .release(X, 2, 2);
        assert_eq!(check_opacity(&h), Ok(()));
    }

    #[test]
    fn zombie_read_is_rejected() {
        // t2 (aborted) reads x from before t1's commit and y from after
        // it: no committed state ever holds (x=0, y=1).
        let h = two_registers()
            .begin(2, 2)
            .acquire(X, 2, 2)
            .op(2, X, OpKind::Read, 0)
            .release(X, 2, 2)
            .begin(1, 1)
            .acquire(X, 1, 1)
            .op(1, X, OpKind::Write(1), 0)
            .acquire(Y, 1, 1)
            .op(1, Y, OpKind::Write(1), 0)
            .commit(1, 1)
            .release(X, 1, 1)
            .release(Y, 1, 1)
            .acquire(Y, 2, 2)
            .op(2, Y, OpKind::Read, 1)
            .abort(2, 2)
            .release(Y, 2, 2);
        assert_eq!(
            check_opacity(&h),
            Err(OpacityViolation::ZombieRead { t: 2 }),
            "the committed part alone is fine; the aborted reads are not"
        );
        // Dropping the aborted transaction's events restores opacity —
        // exactly the difference between `Recorder::history` and
        // `Recorder::raw_history`.
        assert_eq!(check_opacity(&h.committed_projection()), Ok(()));
    }

    #[test]
    fn zombie_read_of_own_write_is_fine() {
        // The aborted transaction re-reads its own eager write: locally
        // satisfied, not an external read — no violation.
        let h = two_registers()
            .begin(1, 1)
            .acquire(X, 1, 1)
            .op(1, X, OpKind::Write(9), 0)
            .op(1, X, OpKind::Read, 9)
            .abort(1, 1);
        assert_eq!(check_opacity(&h), Ok(()));
    }

    #[test]
    fn write_skew_is_rejected() {
        // Both transactions read both registers at 0 and each writes one:
        // either serial order makes the other's read of the written
        // register illegal.
        let h = two_registers()
            .begin(1, 1)
            .acquire(X, 1, 1)
            .op(1, X, OpKind::Read, 0)
            .acquire(Y, 1, 1)
            .op(1, Y, OpKind::Read, 0)
            .release(Y, 1, 1)
            .begin(2, 2)
            .acquire(X, 2, 2)
            .op(2, X, OpKind::Read, 0)
            .acquire(Y, 2, 2)
            .op(2, Y, OpKind::Read, 0)
            .op(2, Y, OpKind::Write(1), 0)
            .commit(2, 2)
            .release(X, 2, 2)
            .release(Y, 2, 2)
            .op(1, X, OpKind::Write(1), 0)
            .commit(1, 1)
            .release(X, 1, 1);
        assert_eq!(check_opacity(&h), Err(OpacityViolation::NotSerializable));
    }

    #[test]
    fn broken_real_time_order_is_rejected() {
        // t2 begins strictly after t1 committed x=1 yet reads the old
        // value: serializable in value terms only by ignoring `<H`.
        let h = two_registers()
            .begin(1, 1)
            .acquire(X, 1, 1)
            .op(1, X, OpKind::Write(1), 0)
            .commit(1, 1)
            .release(X, 1, 1)
            .begin(2, 2)
            .acquire(X, 2, 2)
            .op(2, X, OpKind::Read, 0)
            .commit(2, 2)
            .release(X, 2, 2);
        assert_eq!(check_opacity(&h), Err(OpacityViolation::NotSerializable));
    }

    #[test]
    fn real_time_order_into_aborted_transactions_counts() {
        // The aborted t2 began after t1's commit; reading pre-t1 state is
        // a zombie read even though the value was once real.
        let h = two_registers()
            .begin(1, 1)
            .acquire(X, 1, 1)
            .op(1, X, OpKind::Write(1), 0)
            .commit(1, 1)
            .release(X, 1, 1)
            .begin(2, 2)
            .acquire(X, 2, 2)
            .op(2, X, OpKind::Read, 0)
            .abort(2, 2)
            .release(X, 2, 2);
        assert_eq!(
            check_opacity(&h),
            Err(OpacityViolation::ZombieRead { t: 2 })
        );
    }

    #[test]
    fn theorem_histories_classify_as_relaxed_but_not_opaque() {
        // The paper's separations carry over: Fig. 3 and the Section II-B
        // example are relax-serializable yet fail opacity (they are not
        // serializable), while the Theorem 4.3 violating history is opaque
        // — opacity does not capture composition.
        for h in [fig3_history(), section2_example()] {
            assert!(is_relax_serializable(&h));
            assert_eq!(check_opacity(&h), Err(OpacityViolation::NotSerializable));
        }
        let (_, h_bad, _) = thm43_witness();
        assert_eq!(check_opacity(&h_bad), Ok(()));
    }

    #[test]
    fn violations_display() {
        assert!(OpacityViolation::NotSerializable
            .to_string()
            .contains("serialization"));
        assert!(OpacityViolation::ZombieRead { t: 7 }
            .to_string()
            .contains("t7"));
    }
}
