//! The full matrix: every collection under every STM, hammered
//! concurrently, with global invariants checked at the end.
//!
//! Invariants per (structure, STM) cell:
//! * **balance**: initial size + (successful adds − successful removes)
//!   equals the final size — no lost or duplicated updates;
//! * **membership**: a key is present iff its per-key net balance says so
//!   (each key is owned by one thread, so per-key history is sequential);
//! * **composed ops**: `add_all`/`remove_all` report change consistently
//!   with the final state.
//!
//! Keys are thread-disjoint but list nodes are not: thread t's range ends
//! where t+1's begins. So a composed op under the non-outheriting E-STM
//! mode is the paper's Fig. 1, and that cell runs single ops only; the
//! composed case is `fig1_composition_violation.rs`'s to show.

use composing_relaxed_transactions::cec::{HashSet, LinkedListSet, SetExt, SkipListSet, TxSet};
use composing_relaxed_transactions::oe_stm::OeStm;
use composing_relaxed_transactions::stm_core::api::{Atomic, AtomicBackend};
use composing_relaxed_transactions::stm_lsa::Lsa;
use composing_relaxed_transactions::stm_swiss::Swiss;
use composing_relaxed_transactions::stm_tl2::Tl2;
use std::sync::Arc;

use composing_relaxed_transactions::stm_core::parallel::worker_threads;

const MAX_THREADS: usize = 4;
const OPS_PER_THREAD: usize = 800;
/// Keys per thread (disjoint ranges → per-key sequential histories).
const KEYS_PER_THREAD: i64 = 16;

/// Which operations a cell's threads run.
#[derive(Clone, Copy)]
enum Ops {
    /// `add`, `remove`, `contains`, and composed `add_all`/`remove_all`.
    Composed,
    /// `add`, `remove` and `contains` only.
    Single,
}

fn stress<B, C>(stm: Arc<Atomic<B>>, set: Arc<C>, ops: Ops) -> (i64, Vec<(i64, bool)>)
where
    B: AtomicBackend + 'static,
    C: TxSet + Send + Sync + 'static,
{
    let mut handles = Vec::new();
    for t in 0..worker_threads(MAX_THREADS) {
        let stm = Arc::clone(&stm);
        let set = Arc::clone(&set);
        handles.push(std::thread::spawn(move || {
            let base = t as i64 * 1000;
            let mut net = 0i64;
            let mut present = vec![false; KEYS_PER_THREAD as usize];
            let mut state = 0x243F_6A88u64 ^ t as u64; // xorshift
            for i in 0..OPS_PER_THREAD {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let k_off = (state % KEYS_PER_THREAD as u64) as i64;
                let k = base + k_off;
                let op = match ops {
                    Ops::Composed => i % 4,
                    Ops::Single => i % 3,
                };
                match op {
                    0 => {
                        let added = set.add(&*stm, k);
                        assert_eq!(
                            added, !present[k_off as usize],
                            "add({k}) disagreed with per-key sequential history"
                        );
                        if added {
                            net += 1;
                            present[k_off as usize] = true;
                        }
                    }
                    1 => {
                        let removed = set.remove(&*stm, k);
                        assert_eq!(
                            removed, present[k_off as usize],
                            "remove({k}) disagreed with per-key sequential history"
                        );
                        if removed {
                            net -= 1;
                            present[k_off as usize] = false;
                        }
                    }
                    2 => {
                        assert_eq!(
                            set.contains(&*stm, k),
                            present[k_off as usize],
                            "contains({k}) disagreed with per-key sequential history"
                        );
                    }
                    _ => {
                        // Composed op across the thread's own keys.
                        let pair = [base + ((k_off + 1) % KEYS_PER_THREAD), k];
                        if i % 8 == 3 {
                            set.add_all(&*stm, &pair);
                            for p in pair {
                                let off = (p - base) as usize;
                                if !present[off] {
                                    net += 1;
                                    present[off] = true;
                                }
                            }
                        } else {
                            set.remove_all(&*stm, &pair);
                            for p in pair {
                                let off = (p - base) as usize;
                                if present[off] {
                                    net -= 1;
                                    present[off] = false;
                                }
                            }
                        }
                    }
                }
            }
            let finals: Vec<(i64, bool)> = (0..KEYS_PER_THREAD)
                .map(|o| (base + o, present[o as usize]))
                .collect();
            (net, finals)
        }));
    }
    let mut total_net = 0i64;
    let mut finals = Vec::new();
    for h in handles {
        let (net, f) = h.join().unwrap();
        total_net += net;
        finals.extend(f);
    }
    (total_net, finals)
}

fn check_cell<B, C>(stm: Atomic<B>, set: C, ops: Ops, name: &str)
where
    B: AtomicBackend + 'static,
    C: TxSet + Send + Sync + 'static,
{
    let stm = Arc::new(stm);
    let set = Arc::new(set);
    let (net, finals) = stress(Arc::clone(&stm), Arc::clone(&set), ops);
    assert_eq!(
        set.size(&*stm) as i64,
        net,
        "{name}: final size must equal the net of successful updates"
    );
    for (k, should_be_present) in finals {
        assert_eq!(
            set.contains(&*stm, k),
            should_be_present,
            "{name}: final membership of {k} wrong"
        );
    }
    assert!(stm.stats().commits > 0);
}

macro_rules! cell {
    ($test:ident, $stm:expr, $set:expr) => {
        cell!($test, $stm, $set, Ops::Composed);
    };
    ($test:ident, $stm:expr, $set:expr, $ops:expr) => {
        #[test]
        fn $test() {
            check_cell($stm, $set, $ops, stringify!($test));
        }
    };
}

cell!(
    linkedlist_under_tl2,
    Atomic::new(Tl2::new()),
    LinkedListSet::new()
);
cell!(
    linkedlist_under_lsa,
    Atomic::new(Lsa::new()),
    LinkedListSet::new()
);
cell!(
    linkedlist_under_swiss,
    Atomic::new(Swiss::new()),
    LinkedListSet::new()
);
cell!(
    linkedlist_under_oestm,
    Atomic::new(OeStm::new()),
    LinkedListSet::new()
);

cell!(
    skiplist_under_tl2,
    Atomic::new(Tl2::new()),
    SkipListSet::new()
);
cell!(
    skiplist_under_lsa,
    Atomic::new(Lsa::new()),
    SkipListSet::new()
);
cell!(
    skiplist_under_swiss,
    Atomic::new(Swiss::new()),
    SkipListSet::new()
);
cell!(
    skiplist_under_oestm,
    Atomic::new(OeStm::new()),
    SkipListSet::new()
);

cell!(hashset_under_tl2, Atomic::new(Tl2::new()), HashSet::new(4));
cell!(hashset_under_lsa, Atomic::new(Lsa::new()), HashSet::new(4));
cell!(
    hashset_under_swiss,
    Atomic::new(Swiss::new()),
    HashSet::new(4)
);
cell!(
    hashset_under_oestm,
    Atomic::new(OeStm::new()),
    HashSet::new(4)
);

// E-STM compatibility mode is safe for UNCOMPOSED single ops (each op is
// its own transaction; early release only affects children), so these
// cells run single ops only. All three structures walk through
// `listcore`'s repair paths, which that backend relies on.
cell!(
    linkedlist_under_estm,
    Atomic::new(OeStm::estm_compat()),
    LinkedListSet::new(),
    Ops::Single
);
cell!(
    skiplist_under_estm,
    Atomic::new(OeStm::estm_compat()),
    SkipListSet::new(),
    Ops::Single
);
cell!(
    hashset_under_estm,
    Atomic::new(OeStm::estm_compat()),
    HashSet::new(4),
    Ops::Single
);
