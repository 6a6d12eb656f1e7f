//! Witness search: the existential quantifiers of the paper's definitions,
//! made executable.
//!
//! Serializability, relax-serializability and (weak/strong) composability
//! all have the form "there *exists* a legal (relax-)serial history `S`
//! equivalent to `committed-ops(H)` with `<H ⊆ <S` such that …". For the
//! small histories of the theorems and tests we decide them exactly, by
//! exhaustive search:
//!
//! * [`find_relax_serial_witness`] enumerates every interleaving of the
//!   per-process event sequences of `H`'s committed projection (that *is*
//!   equivalence: same `H|p` for every `p`), pruning branches that violate
//!   relax-seriality (a protection element acquired while held), legality
//!   (an operation's recorded response contradicts the object's serial
//!   specification), or `<H ⊆ <S` (a transaction beginning before a
//!   `<H`-predecessor committed). An `accept` predicate then filters for
//!   the composability conditions.
//! * [`is_serializable`] is the opacity checker's memoised serialization
//!   search over the committed transactions (see [`crate::opacity`]).
//!
//! One restriction, documented for honesty: witnesses are searched within
//! the *protection structure* of `H` (`S` reuses `H`'s acquire/release
//! events rather than quantifying over all possible protection
//! placements). Every positive result is therefore sound; for the history
//! families exercised here — the paper's own constructions and recorder
//! output — the restriction is also complete, because protection episodes
//! in these histories exactly delimit where operations may move.

use crate::event::{Event, ObjId, ObjState, ProcId, TxId};
use crate::history::History;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Exhaustively search for a relax-serial, legal interleaving `S` of the
/// committed events of `h` with `<H ⊆ <S` satisfying `accept`. Returns the
/// first witness found.
pub fn find_relax_serial_witness(
    h: &History,
    mut accept: impl FnMut(&History) -> bool,
) -> Option<History> {
    let hp = h.committed_projection();
    let procs: Vec<ProcId> = hp.processes().into_iter().collect();
    let seqs: Vec<Vec<Event>> = procs.iter().map(|&p| hp.proc_projection(p)).collect();
    let order: BTreeSet<(TxId, TxId)> = {
        // <H over committed transactions only.
        let committed = hp.committed();
        h.partial_order()
            .into_iter()
            .filter(|(a, b)| committed.contains(a) && committed.contains(b))
            .collect()
    };
    let preds: HashMap<TxId, Vec<TxId>> = {
        let mut m: HashMap<TxId, Vec<TxId>> = HashMap::new();
        for &(a, b) in &order {
            m.entry(b).or_default().push(a);
        }
        m
    };

    struct Dfs<'a, F: FnMut(&History) -> bool> {
        seqs: &'a [Vec<Event>],
        preds: &'a HashMap<TxId, Vec<TxId>>,
        objects: &'a BTreeMap<ObjId, crate::event::ObjKind>,
        accept: F,
    }

    #[derive(Clone)]
    struct State {
        idx: Vec<usize>,
        holder: HashMap<ObjId, ProcId>,
        states: BTreeMap<ObjId, ObjState>,
        committed: BTreeSet<TxId>,
        built: Vec<Event>,
    }

    impl<F: FnMut(&History) -> bool> Dfs<'_, F> {
        fn run(&mut self, st: &mut State) -> Option<Vec<Event>> {
            if st
                .idx
                .iter()
                .enumerate()
                .all(|(i, &k)| k == self.seqs[i].len())
            {
                let candidate = History {
                    events: st.built.clone(),
                    objects: self.objects.clone(),
                };
                if (self.accept)(&candidate) {
                    return Some(st.built.clone());
                }
                return None;
            }
            for pi in 0..self.seqs.len() {
                let k = st.idx[pi];
                if k == self.seqs[pi].len() {
                    continue;
                }
                let e = self.seqs[pi][k];
                // Enabledness / pruning.
                let ok = match e {
                    Event::Begin { t, .. } => self
                        .preds
                        .get(&t)
                        .is_none_or(|ps| ps.iter().all(|q| st.committed.contains(q))),
                    Event::Acquire { o, .. } => !st.holder.contains_key(&o),
                    Event::Release { o, p, .. } => st.holder.get(&o) == Some(&p),
                    Event::Op { o, op, val, .. } => {
                        st.states.get(&o).is_some_and(|s| s.clone().step(op, val))
                    }
                    Event::Commit { .. } | Event::Abort { .. } => true,
                };
                if !ok {
                    continue;
                }
                // Apply.
                let mut next = st.clone();
                next.idx[pi] += 1;
                next.built.push(e);
                match e {
                    Event::Acquire { o, p, .. } => {
                        next.holder.insert(o, p);
                    }
                    Event::Release { o, .. } => {
                        next.holder.remove(&o);
                    }
                    Event::Op { o, op, val, .. } => {
                        let s = next.states.get_mut(&o).expect("pruned above");
                        let stepped = s.step(op, val);
                        debug_assert!(stepped);
                    }
                    Event::Commit { t, .. } => {
                        next.committed.insert(t);
                    }
                    _ => {}
                }
                if let Some(w) = self.run(&mut next) {
                    return Some(w);
                }
            }
            None
        }
    }

    let mut dfs = Dfs {
        seqs: &seqs,
        preds: &preds,
        objects: &hp.objects,
        accept: &mut accept,
    };
    let mut st = State {
        idx: vec![0; seqs.len()],
        holder: HashMap::new(),
        states: hp.objects.iter().map(|(&o, &k)| (o, k.initial())).collect(),
        committed: BTreeSet::new(),
        built: Vec::with_capacity(hp.events.len()),
    };
    dfs.run(&mut st).map(|events| History {
        events,
        objects: hp.objects.clone(),
    })
}

/// Is `h` relax-serializable (Section II-B)?
#[must_use]
pub fn is_relax_serializable(h: &History) -> bool {
    find_relax_serial_witness(h, |_| true).is_some()
}

/// Is `h` (strictly) serializable? There must be a total order of the
/// committed transactions, consistent with `<H`, whose serial replay
/// matches every recorded response. A child whose provisional commit was
/// revoked (it has both a commit and an abort event) counts as aborted,
/// as in [`check_opacity`](crate::opacity::check_opacity).
#[must_use]
pub fn is_serializable(h: &History) -> bool {
    crate::opacity::serializes(h, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ObjKind, OpKind};

    /// Two sequential transactions: trivially serializable.
    fn sequential() -> History {
        History::new()
            .with_object(1, ObjKind::Register)
            .begin(1, 1)
            .acquire(1, 1, 1)
            .op(1, 1, OpKind::Write(5), 0)
            .commit(1, 1)
            .release(1, 1, 1)
            .begin(2, 2)
            .acquire(1, 2, 2)
            .op(2, 1, OpKind::Read, 5)
            .commit(2, 2)
            .release(1, 2, 2)
    }

    #[test]
    fn sequential_history_serializable_and_relax_serializable() {
        let h = sequential();
        assert!(is_serializable(&h));
        assert!(is_relax_serializable(&h));
    }

    #[test]
    fn conflicting_reads_not_serializable() {
        // t1 reads x=0 then y=0; t2 writes x=1,y=1 and commits in between
        // in a way no serial order explains: t1 sees x BEFORE t2 but y
        // AFTER t2 would be required... here: t1 reads x=0, t2 writes
        // both to 1 (commits), t1 reads y=1. No serial order: t1 first →
        // y=0; t2 first → x=1.
        let h = History::new()
            .with_object(1, ObjKind::Register)
            .with_object(2, ObjKind::Register)
            .begin(1, 1)
            .acquire(1, 1, 1)
            .op(1, 1, OpKind::Read, 0)
            .release(1, 1, 1)
            .begin(2, 2)
            .acquire(1, 2, 2)
            .op(2, 1, OpKind::Write(1), 0)
            .acquire(2, 2, 2)
            .op(2, 2, OpKind::Write(1), 0)
            .commit(2, 2)
            .release(1, 2, 2)
            .release(2, 2, 2)
            .acquire(2, 1, 1)
            .op(1, 2, OpKind::Read, 1)
            .commit(1, 1)
            .release(2, 1, 1);
        assert_eq!(h.well_formed(), Ok(()));
        assert!(!is_serializable(&h));
        // It IS relax-serializable: the release of (x) lets the histories
        // interleave at protection granularity (t1 relaxed its read of x).
        assert!(is_relax_serializable(&h));
    }

    #[test]
    fn order_constraint_restricts_serialization() {
        // t2 begins after t1 commits (t1 <H t2), and the values force the
        // reverse order: unserializable because <H must be respected.
        let h = History::new()
            .with_object(1, ObjKind::Register)
            .begin(1, 1)
            .acquire(1, 1, 1)
            .op(1, 1, OpKind::Read, 7) // reads 7 — only legal AFTER t2's write
            .commit(1, 1)
            .release(1, 1, 1)
            .begin(2, 2)
            .acquire(1, 2, 2)
            .op(2, 1, OpKind::Write(7), 0)
            .commit(2, 2)
            .release(1, 2, 2);
        assert!(!is_serializable(&h), "t2 <S t1 would contradict t1 <H t2");
        assert!(!is_relax_serializable(&h));
    }

    #[test]
    fn revoked_child_counts_as_aborted() {
        // t2 committed provisionally, then its attempt aborted. Its read
        // of x = 7 matches no state, yet the history stays serializable:
        // the revoked child is no committed transaction. Opacity judges it
        // as what it is, an aborted reader of an inconsistent snapshot.
        let h = History::new()
            .with_object(1, ObjKind::Register)
            .begin(1, 1)
            .acquire(1, 1, 1)
            .op(1, 1, OpKind::Write(1), 0)
            .commit(1, 1)
            .release(1, 1, 1)
            .begin(2, 2)
            .acquire(1, 2, 2)
            .op(2, 1, OpKind::Read, 7)
            .commit(2, 2)
            .abort(2, 2)
            .release(1, 2, 2);
        assert!(is_serializable(&h));
        assert_eq!(
            crate::opacity::check_opacity(&h),
            Err(crate::opacity::OpacityViolation::ZombieRead { t: 2 })
        );
    }

    #[test]
    fn witness_preserves_per_process_order() {
        let h = sequential();
        let w = find_relax_serial_witness(&h, |_| true).unwrap();
        for p in h.processes() {
            assert_eq!(
                w.proc_projection(p),
                h.committed_projection().proc_projection(p)
            );
        }
        assert!(w.is_relax_serial());
        assert!(w.is_legal());
    }
}
