//! Recording live STM executions into the formal model.
//!
//! [`Recorder`] implements `stm_core::trace::TraceSink`: attach it to any
//! registry backend (`StmConfig::with_trace_sink`, or `OeStm::with_trace`
//! for a static instance) and every transaction emits the begin / op /
//! acquire / release / commit / abort events of the paper's model.
//! [`Recorder::history`] then yields a [`History`] whose objects are
//! registers (one per traced memory location), ready for the
//! relax-serializability / opacity / composability / outheritance
//! checkers — tying the implementation back to the theory.
//!
//! ## Per-thread batching
//!
//! Appends go to a *per-thread shard* (found through a small thread-local
//! cache), not a global mutex — a recorder serializing every event would
//! serialize the very schedules it is meant to observe. Each event is
//! tagged with a globally monotone **stamp** (one atomic `fetch_add`, the
//! only cross-thread touch on the append path); [`Recorder::history`]
//! merges the shards by stamp. Stamp order is a linear extension of each
//! thread's program order — exactly what a history needs — and the
//! eagerly reserved `begin` stamps (see `stm_core::trace`) keep the
//! merged order consistent with the snapshots transactions actually
//! took, so the checkers never see a phantom real-time edge.

use crate::event::{Event, ObjId, ObjKind, OpKind, TxId};
use crate::history::History;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use stm_core::trace::{TraceOp, TraceSink, TraceStamp};

/// One raw, stamp-tagged trace event as the sink received it (model ids
/// not yet assigned — those are densified at merge time).
#[derive(Debug, Clone, Copy)]
enum Raw {
    Begin { tx: u64, p: u64 },
    Op { tx: u64, loc: usize, op: TraceOp },
    Acquire { tx: u64, p: u64, loc: usize },
    Release { tx: u64, p: u64, loc: usize },
    Commit { tx: u64, p: u64 },
    Abort { tx: u64, p: u64 },
}

/// One thread's append buffer. Only its owning thread appends (so the
/// mutex is uncontended on the hot path); the merger locks it briefly
/// when a history is built.
#[derive(Debug, Default)]
struct Shard {
    events: Mutex<Vec<(u64, Raw)>>,
}

/// Identity for the thread-local shard cache: recorders are told apart
/// by a process-unique id, never by address (addresses get reused).
static NEXT_RECORDER_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Small bounded cache recorder-id → this thread's shard. Eviction
    /// is harmless: a re-registered thread gets a second shard, and the
    /// stamp merge keeps its program order intact across both.
    static SHARD_CACHE: RefCell<Vec<(u64, Arc<Shard>)>> = const { RefCell::new(Vec::new()) };
}

/// Maximum recorders the per-thread shard cache distinguishes at a time.
const SHARD_CACHE_CAP: usize = 8;

/// A thread-safe trace sink that accumulates the history of a run.
#[derive(Debug)]
pub struct Recorder {
    id: u64,
    next_stamp: AtomicU64,
    shards: Mutex<Vec<Arc<Shard>>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// Fresh, empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Self {
            id: NEXT_RECORDER_ID.fetch_add(1, Ordering::Relaxed),
            next_stamp: AtomicU64::new(0),
            shards: Mutex::new(Vec::new()),
        }
    }

    /// Draw the next globally monotone stamp.
    fn stamp(&self) -> u64 {
        self.next_stamp.fetch_add(1, Ordering::Relaxed)
    }

    /// The calling thread's shard for this recorder (registering a new
    /// one on first use — or after cache eviction, which is benign).
    fn shard(&self) -> Arc<Shard> {
        SHARD_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some((_, s)) = cache.iter().find(|(id, _)| *id == self.id) {
                return Arc::clone(s);
            }
            let s = Arc::new(Shard::default());
            self.shards
                .lock()
                .expect("recorder poisoned")
                .push(Arc::clone(&s));
            if cache.len() >= SHARD_CACHE_CAP {
                cache.remove(0);
            }
            cache.push((self.id, Arc::clone(&s)));
            s
        })
    }

    fn push(&self, stamp: u64, raw: Raw) {
        self.shard()
            .events
            .lock()
            .expect("recorder shard poisoned")
            .push((stamp, raw));
    }

    /// All raw events of all shards, merged into stamp order.
    fn merged(&self) -> Vec<Raw> {
        let shards = self.shards.lock().expect("recorder poisoned");
        let mut all: Vec<(u64, Raw)> = Vec::new();
        for s in shards.iter() {
            all.extend(
                s.events
                    .lock()
                    .expect("recorder shard poisoned")
                    .iter()
                    .copied(),
            );
        }
        // Stamps are unique (one fetch_add each), so this is a total
        // order; stamp gaps from reserved-but-unemitted begins are fine.
        all.sort_unstable_by_key(|&(stamp, _)| stamp);
        all.into_iter().map(|(_, raw)| raw).collect()
    }

    /// Every recorded event, aborted attempts included (diagnostics).
    /// Model ids (transactions, processes, objects) are assigned densely
    /// in merged order, identically to [`history`](Self::history).
    #[must_use]
    pub fn raw_history(&self) -> History {
        let mut densify = Densify::default();
        let events: Vec<Event> = self.merged().iter().map(|r| densify.event(r)).collect();
        History {
            events,
            objects: densify
                .objs
                .values()
                .map(|&o| (o, ObjKind::Register))
                .collect(),
        }
    }

    /// The recorded history with aborted transactions removed, as the
    /// paper's model prescribes ("we remove from histories all events
    /// involving aborted transactions"). An aborted *composition attempt*
    /// aborts its children too — the tracer emits abort events for each —
    /// so their provisional commits disappear here as well. All objects
    /// are registers (values are raw transactional words; `TVar`s start
    /// at 0, matching the register specification's initial state).
    #[must_use]
    pub fn history(&self) -> History {
        let raw = self.raw_history();
        let aborted = raw.aborted();
        History {
            events: raw
                .events
                .into_iter()
                .filter(|e| !aborted.contains(&e.tx()))
                .collect(),
            objects: raw.objects,
        }
    }

    /// Number of events recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        let shards = self.shards.lock().expect("recorder poisoned");
        shards
            .iter()
            .map(|s| s.events.lock().expect("recorder shard poisoned").len())
            .sum()
    }

    /// True if nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop everything recorded so far (the stamp counter keeps going).
    /// Used by `repro trace` to discard the prefill before recording the
    /// measured steps.
    pub fn clear(&self) {
        let shards = self.shards.lock().expect("recorder poisoned");
        for s in shards.iter() {
            s.events.lock().expect("recorder shard poisoned").clear();
        }
    }
}

/// Dense-id assignment state, applied in merged order.
#[derive(Debug, Default)]
struct Densify {
    objs: HashMap<usize, ObjId>,
    txs: HashMap<u64, TxId>,
    procs: HashMap<u64, u32>,
}

impl Densify {
    fn obj(&mut self, loc: usize) -> ObjId {
        let next = self.objs.len() as ObjId + 1;
        *self.objs.entry(loc).or_insert(next)
    }
    fn tx(&mut self, t: u64) -> TxId {
        let next = self.txs.len() as TxId + 1;
        *self.txs.entry(t).or_insert(next)
    }
    fn proc(&mut self, p: u64) -> u32 {
        let next = self.procs.len() as u32 + 1;
        *self.procs.entry(p).or_insert(next)
    }
    fn event(&mut self, raw: &Raw) -> Event {
        match *raw {
            Raw::Begin { tx, p } => Event::Begin {
                t: self.tx(tx),
                p: self.proc(p),
            },
            Raw::Op { tx, loc, op } => {
                let (t, o) = (self.tx(tx), self.obj(loc));
                match op {
                    TraceOp::Read(w) => Event::Op {
                        t,
                        o,
                        op: OpKind::Read,
                        val: w as i64,
                    },
                    TraceOp::Write(w) => Event::Op {
                        t,
                        o,
                        op: OpKind::Write(w as i64),
                        val: 0,
                    },
                }
            }
            Raw::Acquire { tx, p, loc } => Event::Acquire {
                o: self.obj(loc),
                p: self.proc(p),
                t: self.tx(tx),
            },
            Raw::Release { tx, p, loc } => Event::Release {
                o: self.obj(loc),
                p: self.proc(p),
                t: self.tx(tx),
            },
            Raw::Commit { tx, p } => Event::Commit {
                t: self.tx(tx),
                p: self.proc(p),
            },
            Raw::Abort { tx, p } => Event::Abort {
                t: self.tx(tx),
                p: self.proc(p),
            },
        }
    }
}

impl TraceSink for Recorder {
    fn reserve(&self) -> TraceStamp {
        TraceStamp(self.stamp())
    }

    fn begin(&self, at: TraceStamp, tx: u64, proc_id: u64) {
        self.push(at.0, Raw::Begin { tx, p: proc_id });
    }

    fn op(&self, tx: u64, _proc_id: u64, loc: usize, op: TraceOp) {
        self.push(self.stamp(), Raw::Op { tx, loc, op });
    }

    fn acquire(&self, tx: u64, proc_id: u64, loc: usize) {
        self.push(
            self.stamp(),
            Raw::Acquire {
                tx,
                p: proc_id,
                loc,
            },
        );
    }

    fn release(&self, tx: u64, proc_id: u64, loc: usize) {
        self.push(
            self.stamp(),
            Raw::Release {
                tx,
                p: proc_id,
                loc,
            },
        );
    }

    fn commit(&self, tx: u64, proc_id: u64) {
        self.push(self.stamp(), Raw::Commit { tx, p: proc_id });
    }

    fn abort(&self, tx: u64, proc_id: u64) {
        self.push(self.stamp(), Raw::Abort { tx, p: proc_id });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_assigns_dense_ids() {
        let r = Recorder::new();
        r.begin(r.reserve(), 100, 7);
        r.acquire(100, 7, 0xdead0);
        r.op(100, 7, 0xdead0, TraceOp::Read(0));
        r.commit(100, 7);
        r.release(100, 7, 0xdead0);
        let h = r.history();
        assert_eq!(h.events.len(), 5);
        assert_eq!(h.committed(), [1].into());
        assert_eq!(h.objects.len(), 1);
        assert_eq!(h.well_formed(), Ok(()));
    }

    #[test]
    fn aborted_transactions_are_filtered_from_history() {
        let r = Recorder::new();
        r.begin(r.reserve(), 1, 1);
        r.abort(1, 1);
        r.begin(r.reserve(), 2, 1);
        r.commit(2, 1);
        assert_eq!(r.raw_history().aborted(), [1].into());
        let h = r.history();
        assert_eq!(h.transactions(), [2].into());
    }

    #[test]
    fn revoked_child_commit_is_filtered_too() {
        // A child commits provisionally, then the whole attempt aborts:
        // the tracer emits an abort for the child as well, and history()
        // drops its events despite the commit event.
        let r = Recorder::new();
        r.begin(r.reserve(), 10, 1); // child
        r.op(10, 1, 0x40, TraceOp::Write(5));
        r.commit(10, 1);
        r.abort(10, 1); // attempt-wide revocation
        r.begin(r.reserve(), 11, 1);
        r.commit(11, 1);
        let h = r.history();
        assert_eq!(h.transactions(), [2].into(), "only the retry survives");
        assert!(h.events.iter().all(|e| !matches!(e, Event::Op { .. })));
    }

    #[test]
    fn eager_begin_stamp_orders_before_later_events() {
        // Reserve t1's begin stamp, let t2 fully run, then emit t1's
        // begin: the merged history must still place begin(t1) first —
        // the reservation point, not the emission point, is the order.
        let r = Recorder::new();
        let at = r.reserve();
        r.begin(r.reserve(), 2, 2);
        r.commit(2, 2);
        r.begin(at, 1, 1);
        r.commit(1, 1);
        let h = r.history();
        assert_eq!(
            h.events[0],
            Event::Begin { t: 1, p: 1 },
            "the eagerly reserved begin merges first despite late emission"
        );
        // And hence no real-time edge commit(t2) < begin(t1): the
        // reserved begin precedes the other transaction's commit.
        assert!(h.partial_order().is_empty());
    }

    #[test]
    fn shards_merge_across_threads_in_stamp_order() {
        let r = Arc::new(Recorder::new());
        let mut handles = Vec::new();
        for tx in 1..=4u64 {
            let r = Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                r.begin(r.reserve(), tx, tx);
                r.acquire(tx, tx, 0x10 + tx as usize);
                r.op(tx, tx, 0x10 + tx as usize, TraceOp::Read(0));
                r.commit(tx, tx);
                r.release(tx, tx, 0x10 + tx as usize);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.len(), 20);
        let h = r.history();
        assert_eq!(h.well_formed(), Ok(()), "merge preserves program order");
        assert_eq!(h.committed().len(), 4);
    }

    #[test]
    fn clear_discards_recorded_events() {
        let r = Recorder::new();
        r.begin(r.reserve(), 1, 1);
        r.commit(1, 1);
        assert!(!r.is_empty());
        r.clear();
        assert!(r.is_empty());
        r.begin(r.reserve(), 2, 1);
        r.commit(2, 1);
        assert_eq!(r.history().transactions(), [1].into());
    }
}
