//! Execution tracing: bridges live STM runs to the formal history model.
//!
//! The `histories` crate implements the paper's Sections II–IV as an
//! executable checker. To tie the *implementation* back to the *theory*,
//! an STM can be given a [`TraceSink`] (via
//! [`StmConfig::with_trace_sink`](crate::StmConfig::with_trace_sink)); it
//! then emits the begin / operation / acquire / release / commit / abort
//! events of the paper's model, and a recorded run can be checked for
//! relax-serializability, opacity, outheritance and weak composability.
//!
//! Tracing is strictly optional: the default is no sink at all, and the
//! backends keep their tracing state in an `Option` that is `None` — the
//! zero-allocation suite pins that a trace-capable configuration with the
//! sink absent adds nothing to the hot path.
//!
//! ## Event stamping
//!
//! Sinks that merge events from several threads order them by a *stamp*
//! drawn from [`TraceSink::reserve`]. Most events are stamped at emission,
//! but `begin` is special: backends emit it lazily (at a transaction's
//! first operation, so pure composition shells stay invisible) yet the
//! stamp must be *reserved eagerly* — before the attempt samples the
//! global clock. Otherwise a concurrent writer that commits between the
//! snapshot and the first read would be stamped before the reader's
//! begin, manufacturing a real-time edge the snapshot demonstrably does
//! not respect, and the opacity checker would report a phantom violation.
//! Dually, backends emit `commit` only after write-back has completed and
//! every lock is released, so any transaction whose begin stamp follows a
//! commit stamp is guaranteed to observe that commit's writes.
//!
//! ## Why children settle or merge
//!
//! The two stamping rules above are jointly satisfiable for a *child*
//! transaction only if nothing the child did still awaits write-back when
//! its commit event is stamped. On the lazy backends (TL2, LSA, Swiss,
//! OE) a child's writes are deferred to the *top-level* commit, so a
//! child that wrote cannot soundly appear as a committed model
//! transaction of its own: a foreign transaction beginning between the
//! child-commit stamp and the attempt's write-back would carry a
//! real-time edge obliging it to observe writes that are not yet there.
//! The [`AttemptTracer`] therefore buffers child events and decides at
//! the child's commit: a read-only child **settles** (it becomes a model
//! transaction — its snapshot-validated reads are final), while a child
//! that wrote **merges** into the enclosing transaction, whose commit
//! event does wait for write-back. Backends with *eager* writes under
//! strict two-phase locking (boost) use
//! [`AttemptTracer::commit_child_settled`], because their child effects
//! are already applied and stay protected until the attempt ends.

use std::collections::HashMap;
use std::sync::Arc;

/// The kind of a traced operation event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOp {
    /// A transactional read returning the given word.
    Read(u64),
    /// A transactional write of the given word.
    Write(u64),
}

/// An opaque ordering stamp for trace events (see the module docs on why
/// `begin` stamps are reserved before they are emitted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TraceStamp(pub u64);

/// Receives the events of the paper's history model from a live STM.
///
/// `tx` is the logical transaction identifier (stable across child
/// boundaries: children get their own ids), `proc_id` the executing
/// process/thread, and `loc` the location identity
/// ([`TVarCore::id`](crate::TVarCore::id)).
///
/// Implementations must be cheap and thread-safe; they are called from the
/// STM hot path.
pub trait TraceSink: Send + Sync {
    /// Reserve an ordering stamp. Called by the tracer *before* an
    /// attempt samples the clock; the stamp is handed back through
    /// [`begin`](Self::begin) when (if) the transaction becomes visible.
    /// Sinks that do not order events across threads may return a
    /// constant.
    fn reserve(&self) -> TraceStamp {
        TraceStamp(0)
    }
    /// Transaction `tx` began on process `proc_id`, ordered at the
    /// previously reserved stamp `at`.
    fn begin(&self, at: TraceStamp, tx: u64, proc_id: u64);
    /// Transaction `tx` performed `op` on location `loc`.
    fn op(&self, tx: u64, proc_id: u64, loc: usize, op: TraceOp);
    /// Process `proc_id` acquired the protection element of `loc`.
    fn acquire(&self, tx: u64, proc_id: u64, loc: usize);
    /// Process `proc_id` released the protection element of `loc`.
    fn release(&self, tx: u64, proc_id: u64, loc: usize);
    /// Transaction `tx` committed.
    fn commit(&self, tx: u64, proc_id: u64);
    /// Transaction `tx` aborted.
    fn abort(&self, tx: u64, proc_id: u64);
}

/// The no-op sink: tracing disabled.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoTrace;

impl TraceSink for NoTrace {
    #[inline(always)]
    fn begin(&self, _: TraceStamp, _: u64, _: u64) {}
    #[inline(always)]
    fn op(&self, _: u64, _: u64, _: usize, _: TraceOp) {}
    #[inline(always)]
    fn acquire(&self, _: u64, _: u64, _: usize) {}
    #[inline(always)]
    fn release(&self, _: u64, _: u64, _: usize) {}
    #[inline(always)]
    fn commit(&self, _: u64, _: u64) {}
    #[inline(always)]
    fn abort(&self, _: u64, _: u64) {}
}

/// A small, stable, per-thread process identifier for trace events (the
/// paper's process `p`). Assigned on first use, dense from 1.
#[must_use]
pub fn current_proc_id() -> u64 {
    use core::sync::atomic::{AtomicU64, Ordering};
    static NEXT_PROC: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static PROC_ID: u64 = NEXT_PROC.fetch_add(1, Ordering::Relaxed);
    }
    PROC_ID.with(|p| *p)
}

/// One buffered event of a child level, flushed when the child's fate
/// (settle / merge / abort) is known. `tx: None` means "attribute to the
/// transaction this buffer is eventually flushed as".
#[derive(Debug, Clone, Copy)]
enum Buffered {
    /// Begin of a settled descendant (explicit id, eagerly reserved stamp).
    Begin {
        tx: u64,
        at: TraceStamp,
    },
    Acquire {
        tx: Option<u64>,
        loc: usize,
    },
    Op {
        tx: Option<u64>,
        loc: usize,
        op: TraceOp,
    },
    Release {
        tx: Option<u64>,
        loc: usize,
    },
    /// Commit of a settled descendant.
    Commit {
        tx: u64,
    },
}

/// One nesting level of an [`AttemptTracer`].
#[derive(Debug, Clone)]
struct Level {
    id: u64,
    /// The begin stamp, reserved when the level was entered.
    at: TraceStamp,
    /// Top level: whether `begin` has been emitted (lazily, at the first
    /// op). Child levels: whether the child performed operations (i.e.
    /// would be visible as a model transaction).
    begun: bool,
    /// Whether this level (or a merged descendant) performed a write.
    wrote: bool,
    /// `attempt_begun.len()` when this level was entered — everything
    /// past it was begun inside this level.
    begun_mark: usize,
    /// `acquired.len()` when this level was entered.
    acquired_mark: usize,
    /// Buffered events (child levels only; the top level emits directly).
    buf: Vec<Buffered>,
}

/// Per-attempt tracing state shared by every backend: maps one live
/// attempt of a (possibly composed) transaction onto the *flat*
/// transactions of the paper's history model.
///
/// ## Mapping
///
/// The model has flat transactions: a composition is a sequence of
/// sibling transactions of one process, not a tree. The tracer therefore
/// buffers each child's events and emits:
///
/// * one model transaction per **settled child** — a child that performed
///   no writes and whose enclosing transaction is still invisible; its
///   buffered events flush at child commit (begin carrying the stamp
///   reserved at child entry, commit stamped now — sound, because a
///   read-only child awaits no write-back). These are the members of the
///   composition;
/// * children that **wrote** (on the lazy backends their effects await
///   the top-level write-back, see the module docs), or that follow
///   direct operations of the enclosing transaction (the flat model
///   cannot nest begins), **merge**: their events replay under the
///   enclosing transaction's id, with the enclosing begin stamped no
///   later than the child's entry;
/// * a model transaction for the **top level** if it performs operations
///   directly or absorbs a merged child (a pure composition shell of
///   settled children stays invisible);
/// * on a top-level abort, `abort` events for *every* transaction begun
///   by the attempt — including settled children whose provisional
///   commits the abort revokes; the recorder drops all of their events,
///   exactly like the paper removes aborted transactions from histories.
///
/// A per-location hold count keeps acquire/release alternating per
/// protection element even when a location is read several times.
///
/// Backends hold an `Option<AttemptTracer>` that stays `None` when
/// [`StmConfig::trace`](crate::StmConfig::trace) is unset, so the
/// disabled path costs one branch and no allocation.
#[derive(Clone)]
pub struct AttemptTracer {
    sink: Arc<dyn TraceSink>,
    /// Hold counts per location id; acquire on 0→1, release on 1→0.
    held: HashMap<usize, u32>,
    /// Stack of (sub)transaction levels; index 0 is the top level.
    stack: Vec<Level>,
    /// Every transaction id whose `begin` reached the sink during this
    /// attempt (for attempt-wide abort), in emission order.
    attempt_begun: Vec<u64>,
    /// Locations whose 0→1 acquire happened at each level, level-marked,
    /// so a child abort can retract its acquisitions.
    acquired: Vec<usize>,
    /// Releases that arrived while the top-level transaction was visible
    /// and live: the model forbids protection changes between a
    /// transaction's last operation and its commit, so these wait for the
    /// next operation — or follow the commit event (`None` = attribute to
    /// the top).
    pending_rel: Vec<(Option<u64>, usize)>,
    proc_id: u64,
}

impl core::fmt::Debug for AttemptTracer {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("AttemptTracer")
            .field("held", &self.held.len())
            .field("stack", &self.stack)
            .field("proc_id", &self.proc_id)
            .finish()
    }
}

impl AttemptTracer {
    /// Start tracing one attempt of a top-level transaction with id
    /// `tx_id`. Reserves the begin stamp immediately — call this *before*
    /// sampling the global clock for the attempt's snapshot.
    #[must_use]
    pub fn begin_top(sink: Arc<dyn TraceSink>, tx_id: u64) -> Self {
        let at = sink.reserve();
        Self {
            sink,
            held: HashMap::new(),
            stack: vec![Level {
                id: tx_id,
                at,
                begun: false,
                wrote: false,
                begun_mark: 0,
                acquired_mark: 0,
                buf: Vec::new(),
            }],
            attempt_begun: Vec::new(),
            acquired: Vec::new(),
            pending_rel: Vec::new(),
            proc_id: current_proc_id(),
        }
    }

    /// Flush one buffered event to the sink, attributing `tx: None`
    /// entries to `default_tx`. Begin entries of settled descendants are
    /// registered for attempt-wide abort as they reach the sink.
    fn flush_one(&mut self, e: Buffered, default_tx: u64) {
        match e {
            Buffered::Begin { tx, at } => {
                self.attempt_begun.push(tx);
                self.sink.begin(at, tx, self.proc_id);
            }
            Buffered::Acquire { tx, loc } => {
                self.sink
                    .acquire(tx.unwrap_or(default_tx), self.proc_id, loc);
            }
            Buffered::Op { tx, loc, op } => {
                self.sink
                    .op(tx.unwrap_or(default_tx), self.proc_id, loc, op);
            }
            Buffered::Release { tx, loc } => {
                self.sink
                    .release(tx.unwrap_or(default_tx), self.proc_id, loc);
            }
            Buffered::Commit { tx } => self.sink.commit(tx, self.proc_id),
        }
    }

    /// Emit `begin` for the top level if it has not happened yet.
    ///
    /// The stamp: with no settled children yet, the eager stamp reserved
    /// at [`begin_top`](Self::begin_top) (before the snapshot — sound by
    /// the module-doc argument). After a settled child, the eager stamp
    /// would *precede* that child's commit and nest the begins, so a
    /// merging child supplies its own entry stamp (reserved before the
    /// child's first read) and a direct operation reserves afresh (sound:
    /// the operation triggering it is snapshot-validated at this moment).
    fn ensure_begun_top(&mut self, merge_at: Option<TraceStamp>) -> u64 {
        debug_assert_eq!(self.stack.len(), 1);
        if self.stack[0].begun {
            return self.stack[0].id;
        }
        let at = if self.attempt_begun.is_empty() {
            self.stack[0].at
        } else {
            merge_at.unwrap_or_else(|| self.sink.reserve())
        };
        let top = &mut self.stack[0];
        top.begun = true;
        let id = top.id;
        self.attempt_begun.push(id);
        self.sink.begin(at, id, self.proc_id);
        id
    }

    /// Enter a child transaction with id `tx_id` (reserves its begin
    /// stamp; its events are buffered until the child's fate is known).
    pub fn begin_child(&mut self, tx_id: u64) {
        let at = self.sink.reserve();
        self.stack.push(Level {
            id: tx_id,
            at,
            begun: false,
            wrote: false,
            begun_mark: self.attempt_begun.len(),
            acquired_mark: self.acquired.len(),
            buf: Vec::new(),
        });
    }

    /// Child commit. A child that performed no writes — and whose
    /// enclosing transaction is still invisible — settles into a model
    /// transaction of its own; any other child merges into the enclosing
    /// transaction (see the module docs for why lazy write-back forces
    /// this). Returns the transaction id follow-up releases (E-STM mode)
    /// should be attributed to: the child's own id when it settled, the
    /// enclosing transaction's id when it merged. The child's
    /// acquisitions stay held by the enclosing level (outheritance /
    /// flat nesting).
    pub fn commit_child(&mut self) -> u64 {
        self.flush_pending_releases();
        let lvl = self.stack.pop().expect("child commit without child");
        let enclosing_begun = self.stack.last().is_some_and(|l| l.begun);
        if lvl.wrote || (lvl.begun && enclosing_begun) {
            self.merge_child(lvl)
        } else {
            self.settle_child(lvl)
        }
    }

    /// Child commit for backends with *eager* writes under strict
    /// two-phase locking (boost): the child's effects are already applied
    /// and stay protected until the attempt ends, so the child settles as
    /// a model transaction even when it wrote. Falls back to merging when
    /// the enclosing transaction is already visible (the flat model
    /// cannot nest begins).
    pub fn commit_child_settled(&mut self) -> u64 {
        self.flush_pending_releases();
        let lvl = self.stack.pop().expect("child commit without child");
        if self.stack.last().is_some_and(|l| l.begun) {
            self.merge_child(lvl)
        } else {
            self.settle_child(lvl)
        }
    }

    /// The popped child becomes a model transaction: begin (entry stamp),
    /// its buffered events, commit — flushed to the sink when the parent
    /// is the top level, forwarded into the parent's buffer otherwise.
    fn settle_child(&mut self, lvl: Level) -> u64 {
        if !lvl.begun && lvl.buf.is_empty() {
            return self.stack.last().expect("settle without parent").id;
        }
        if self.stack.len() == 1 {
            if lvl.begun {
                self.attempt_begun.push(lvl.id);
                self.sink.begin(lvl.at, lvl.id, self.proc_id);
            }
            for e in lvl.buf {
                self.flush_one(e, lvl.id);
            }
            if lvl.begun {
                self.sink.commit(lvl.id, self.proc_id);
            }
        } else {
            let id = lvl.id;
            let parent = self.stack.last_mut().expect("settle without parent");
            if lvl.begun {
                parent.buf.push(Buffered::Begin { tx: id, at: lvl.at });
            }
            for e in lvl.buf {
                parent.buf.push(match e {
                    Buffered::Acquire { tx: None, loc } => Buffered::Acquire { tx: Some(id), loc },
                    Buffered::Op { tx: None, loc, op } => Buffered::Op {
                        tx: Some(id),
                        loc,
                        op,
                    },
                    Buffered::Release { tx: None, loc } => Buffered::Release { tx: Some(id), loc },
                    other => other,
                });
            }
            if lvl.begun {
                parent.buf.push(Buffered::Commit { tx: id });
            }
        }
        if lvl.begun {
            lvl.id
        } else {
            self.stack.last().expect("settle without parent").id
        }
    }

    /// The popped child dissolves into the enclosing transaction: its
    /// events replay under the enclosing id (settled descendants inside
    /// the buffer are flattened along — nothing of them reached the sink
    /// yet). The enclosing begin, if still pending, is stamped at the
    /// child's entry so it does not postdate the child's reads.
    fn merge_child(&mut self, lvl: Level) -> u64 {
        if self.stack.len() == 1 {
            if !lvl.begun && lvl.buf.is_empty() {
                return self.stack[0].id;
            }
            let tx = self.ensure_begun_top(Some(lvl.at));
            for e in lvl.buf {
                match e {
                    Buffered::Begin { .. } | Buffered::Commit { .. } => {}
                    Buffered::Acquire { loc, .. } => self.sink.acquire(tx, self.proc_id, loc),
                    Buffered::Op { loc, op, .. } => self.sink.op(tx, self.proc_id, loc, op),
                    Buffered::Release { loc, .. } => self.sink.release(tx, self.proc_id, loc),
                }
            }
            tx
        } else {
            let parent = self.stack.last_mut().expect("merge without parent");
            parent.begun |= lvl.begun;
            parent.wrote |= lvl.wrote;
            for e in lvl.buf {
                match e {
                    Buffered::Begin { .. } | Buffered::Commit { .. } => {}
                    Buffered::Acquire { loc, .. } => {
                        parent.buf.push(Buffered::Acquire { tx: None, loc });
                    }
                    Buffered::Op { loc, op, .. } => {
                        parent.buf.push(Buffered::Op { tx: None, loc, op });
                    }
                    Buffered::Release { loc, .. } => {
                        parent.buf.push(Buffered::Release { tx: None, loc });
                    }
                }
            }
            parent.id
        }
    }

    /// Child abort: retracts the child's acquisitions (their acquire
    /// events vanish with the aborted transaction, so the hold counts
    /// must vanish too) and revokes any settled descendant that reached
    /// the sink. When the parent is a still invisible top level and the
    /// buffer holds no settled descendants, the child's own events are
    /// flushed followed by an `abort` — giving the opacity checker's
    /// zombie-read analysis the aborted child's reads; otherwise the
    /// buffer is discarded. Once the top is visible the child may have
    /// read the top's buffered writes, which no model transaction of its
    /// own could have seen.
    pub fn abort_child(&mut self) {
        self.flush_pending_releases();
        let lvl = self.stack.pop().expect("child abort without child");
        for id in self.attempt_begun.drain(lvl.begun_mark..).rev() {
            self.sink.abort(id, self.proc_id);
        }
        for loc in self.acquired.drain(lvl.acquired_mark..).rev() {
            self.held.remove(&loc);
        }
        let clean = !lvl
            .buf
            .iter()
            .any(|e| matches!(e, Buffered::Begin { .. } | Buffered::Commit { .. }));
        if lvl.begun && clean && self.stack.len() == 1 && !self.stack[0].begun {
            self.sink.begin(lvl.at, lvl.id, self.proc_id);
            for e in lvl.buf {
                self.flush_one(e, lvl.id);
            }
            self.sink.abort(lvl.id, self.proc_id);
        }
    }

    /// Record a read/write operation; acquires the protection element on
    /// first touch.
    pub fn op(&mut self, loc: usize, op: TraceOp) {
        self.flush_pending_releases();
        let count = self.held.entry(loc).or_insert(0);
        let first = *count == 0;
        *count += 1;
        if first {
            self.acquired.push(loc);
        }
        if self.stack.len() > 1 {
            let lvl = self.stack.last_mut().expect("tracer has no live level");
            lvl.begun = true;
            if matches!(op, TraceOp::Write(_)) {
                lvl.wrote = true;
            }
            if first {
                lvl.buf.push(Buffered::Acquire { tx: None, loc });
            }
            lvl.buf.push(Buffered::Op { tx: None, loc, op });
        } else {
            let tx = self.ensure_begun_top(None);
            if first {
                self.sink.acquire(tx, self.proc_id, loc);
            }
            self.sink.op(tx, self.proc_id, loc, op);
        }
    }

    /// Record an operation on a location whose protection element is
    /// already held and tracked elsewhere (read-after-write from the write
    /// set): no hold-count change.
    pub fn op_held(&mut self, loc: usize, op: TraceOp) {
        self.flush_pending_releases();
        if self.stack.len() > 1 {
            let lvl = self.stack.last_mut().expect("tracer has no live level");
            lvl.begun = true;
            if matches!(op, TraceOp::Write(_)) {
                lvl.wrote = true;
            }
            lvl.buf.push(Buffered::Op { tx: None, loc, op });
        } else {
            let tx = self.ensure_begun_top(None);
            self.sink.op(tx, self.proc_id, loc, op);
        }
    }

    /// One hold on `loc` lapsed (elastic window eviction); emits the
    /// release event when the last hold drops, attributed to the current
    /// (sub)transaction.
    pub fn drop_hold(&mut self, loc: usize) {
        self.drop_hold_impl(None, loc);
    }

    /// Like [`drop_hold`](Self::drop_hold) with explicit attribution —
    /// used for the E-STM child-commit releases, which belong to the
    /// transaction id [`commit_child`](Self::commit_child) returned.
    pub fn drop_hold_as(&mut self, tx: u64, loc: usize) {
        self.drop_hold_impl(Some(tx), loc);
    }

    fn drop_hold_impl(&mut self, tx: Option<u64>, loc: usize) {
        let Some(count) = self.held.get_mut(&loc) else {
            return;
        };
        *count -= 1;
        if *count != 0 {
            return;
        }
        self.held.remove(&loc);
        if self.stack.len() > 1 {
            let lvl = self.stack.last_mut().expect("tracer has no live level");
            lvl.buf.push(Buffered::Release { tx, loc });
        } else if self.stack[0].begun {
            // The top is a live, visible transaction: defer (see
            // `pending_rel`) so the release never lands between its last
            // operation and its commit.
            self.pending_rel.push((tx, loc));
        } else {
            let tx = tx.unwrap_or_else(|| self.top_attrib());
            self.sink.release(tx, self.proc_id, loc);
        }
    }

    /// Emit deferred top-level releases (see `pending_rel`). Must run
    /// before any subsequent acquire reaches the sink, so the per-element
    /// acquire/release alternation survives, and right after the top's
    /// commit event.
    fn flush_pending_releases(&mut self) {
        while let Some((tx, loc)) = self.pending_rel.pop() {
            let tx = tx.unwrap_or(self.stack[0].id);
            self.sink.release(tx, self.proc_id, loc);
        }
    }

    /// The transaction final top-level events should be attributed to: the
    /// top itself when visible, else the last settled child (an invisible
    /// shell's trailing releases must belong to a *committed* transaction,
    /// or the committed projection would drop them and the protection
    /// elements would appear held forever).
    fn top_attrib(&self) -> u64 {
        let top = &self.stack[0];
        if top.begun {
            top.id
        } else {
            self.attempt_begun.last().copied().unwrap_or(top.id)
        }
    }

    /// Commit the top level (if it became a transaction) and release
    /// everything still held. Call only after write-back has completed
    /// and every backend lock is released (see the module docs on commit
    /// stamping).
    pub fn commit_top(&mut self) {
        debug_assert_eq!(self.stack.len(), 1);
        let (id, begun) = (self.stack[0].id, self.stack[0].begun);
        if begun {
            self.sink.commit(id, self.proc_id);
        }
        self.flush_pending_releases();
        let releaser = self.top_attrib();
        for (loc, _) in self.held.drain() {
            self.sink.release(releaser, self.proc_id, loc);
        }
        self.attempt_begun.clear();
        self.acquired.clear();
    }

    /// Abort the whole attempt: every transaction that begun during it —
    /// children with provisional commits included — is aborted, innermost
    /// first. The recorder removes all of their events.
    pub fn abort_all(&mut self) {
        for id in self.attempt_begun.drain(..).rev() {
            self.sink.abort(id, self.proc_id);
        }
        self.stack.truncate(1);
        // Holds (and deferred releases) of an aborted attempt take no
        // effect; drop them silently (their events disappear with the
        // aborted transactions).
        self.held.clear();
        self.acquired.clear();
        self.pending_rel.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn proc_id_is_stable_per_thread() {
        let a = current_proc_id();
        let b = current_proc_id();
        assert_eq!(a, b);
        let other = std::thread::spawn(current_proc_id).join().unwrap();
        assert_ne!(a, other);
    }

    #[test]
    fn no_trace_is_callable() {
        let t = NoTrace;
        assert_eq!(t.reserve(), TraceStamp(0));
        t.begin(TraceStamp(0), 1, 1);
        t.op(1, 1, 0x10, TraceOp::Read(5));
        t.acquire(1, 1, 0x10);
        t.release(1, 1, 0x10);
        t.commit(1, 1);
        t.abort(1, 1);
    }

    /// A sink logging (stamp-reservation-order, event) pairs.
    #[derive(Default)]
    struct LogSink {
        reserved: std::sync::atomic::AtomicU64,
        log: Mutex<Vec<String>>,
    }

    impl LogSink {
        fn lines(&self) -> Vec<String> {
            self.log.lock().unwrap().clone()
        }
        fn push(&self, s: String) {
            self.log.lock().unwrap().push(s);
        }
    }

    impl TraceSink for LogSink {
        fn reserve(&self) -> TraceStamp {
            TraceStamp(
                self.reserved
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            )
        }
        fn begin(&self, at: TraceStamp, tx: u64, _p: u64) {
            self.push(format!("begin@{} t{tx}", at.0));
        }
        fn op(&self, tx: u64, _p: u64, loc: usize, op: TraceOp) {
            self.push(format!("op t{tx} l{loc} {op:?}"));
        }
        fn acquire(&self, tx: u64, _p: u64, loc: usize) {
            self.push(format!("acq t{tx} l{loc}"));
        }
        fn release(&self, tx: u64, _p: u64, loc: usize) {
            self.push(format!("rel t{tx} l{loc}"));
        }
        fn commit(&self, tx: u64, _p: u64) {
            self.push(format!("commit t{tx}"));
        }
        fn abort(&self, tx: u64, _p: u64) {
            self.push(format!("abort t{tx}"));
        }
    }

    #[test]
    fn begin_stamp_is_reserved_eagerly_emitted_lazily() {
        let sink = Arc::new(LogSink::default());
        let mut tr = AttemptTracer::begin_top(Arc::clone(&sink) as Arc<dyn TraceSink>, 1);
        // Stamp 0 was reserved at begin_top; nothing emitted yet.
        assert!(sink.lines().is_empty());
        tr.op(7, TraceOp::Read(0));
        assert_eq!(
            sink.lines(),
            vec!["begin@0 t1", "acq t1 l7", "op t1 l7 Read(0)"]
        );
        tr.commit_top();
        assert_eq!(sink.lines()[3..], ["commit t1", "rel t1 l7"]);
    }

    #[test]
    fn read_only_shell_child_settles_and_top_stays_invisible() {
        let sink = Arc::new(LogSink::default());
        let mut tr = AttemptTracer::begin_top(Arc::clone(&sink) as Arc<dyn TraceSink>, 1);
        tr.begin_child(2);
        tr.op(9, TraceOp::Read(0));
        assert_eq!(tr.commit_child(), 2);
        tr.commit_top();
        // The top level never performed an op: no begin/commit for t1; the
        // outherited hold is released attributed to the settled child (a
        // committed transaction — the committed projection keeps it).
        assert_eq!(
            sink.lines(),
            vec![
                "begin@1 t2",
                "acq t2 l9",
                "op t2 l9 Read(0)",
                "commit t2",
                "rel t2 l9"
            ]
        );
    }

    #[test]
    fn writing_shell_child_merges_into_the_top() {
        let sink = Arc::new(LogSink::default());
        let mut tr = AttemptTracer::begin_top(Arc::clone(&sink) as Arc<dyn TraceSink>, 1);
        tr.begin_child(2);
        tr.op(9, TraceOp::Write(4));
        // Lazy write-back: the child's write awaits the top-level commit,
        // so the child cannot commit as a model transaction of its own.
        // With no settled sibling yet, the top's eager stamp is used.
        assert_eq!(tr.commit_child(), 1);
        tr.commit_top();
        assert_eq!(
            sink.lines(),
            vec![
                "begin@0 t1",
                "acq t1 l9",
                "op t1 l9 Write(4)",
                "commit t1",
                "rel t1 l9"
            ]
        );
    }

    #[test]
    fn eager_backend_child_settles_even_with_writes() {
        let sink = Arc::new(LogSink::default());
        let mut tr = AttemptTracer::begin_top(Arc::clone(&sink) as Arc<dyn TraceSink>, 1);
        tr.begin_child(2);
        tr.op(9, TraceOp::Write(4));
        // Eager in-place writes under strict 2PL (boost): applied already.
        assert_eq!(tr.commit_child_settled(), 2);
        tr.commit_top();
        assert_eq!(
            sink.lines(),
            vec![
                "begin@1 t2",
                "acq t2 l9",
                "op t2 l9 Write(4)",
                "commit t2",
                "rel t2 l9"
            ]
        );
    }

    #[test]
    fn child_after_direct_top_ops_merges() {
        let sink = Arc::new(LogSink::default());
        let mut tr = AttemptTracer::begin_top(Arc::clone(&sink) as Arc<dyn TraceSink>, 1);
        tr.op(3, TraceOp::Read(0));
        tr.begin_child(2);
        tr.op(4, TraceOp::Read(0));
        // The top is already visible: a settled sibling would nest begins,
        // so even a read-only child merges.
        assert_eq!(tr.commit_child(), 1);
        tr.commit_top();
        let lines = sink.lines();
        assert!(lines.contains(&"op t1 l4 Read(0)".to_string()));
        assert!(!lines.iter().any(|l| l.contains("t2")));
    }

    #[test]
    fn child_abort_retracts_acquisitions_and_is_recorded() {
        let sink = Arc::new(LogSink::default());
        let mut tr = AttemptTracer::begin_top(Arc::clone(&sink) as Arc<dyn TraceSink>, 1);
        tr.begin_child(2);
        tr.op(5, TraceOp::Read(0));
        tr.abort_child();
        // The top is still invisible: the aborted child's buffered events
        // flush for the zombie-read analysis, closed by its abort.
        assert_eq!(sink.lines().last().unwrap(), "abort t2");
        assert!(sink.lines().contains(&"op t2 l5 Read(0)".to_string()));
        // l5's acquire belonged to the aborted child: the parent's touch
        // re-acquires it.
        tr.op(5, TraceOp::Read(0));
        assert!(sink.lines().contains(&"acq t1 l5".to_string()));
    }

    #[test]
    fn child_abort_under_a_visible_top_retracts_acquisitions_silently() {
        let sink = Arc::new(LogSink::default());
        let mut tr = AttemptTracer::begin_top(Arc::clone(&sink) as Arc<dyn TraceSink>, 1);
        tr.op(3, TraceOp::Write(7));
        tr.begin_child(2);
        tr.op(3, TraceOp::Read(7));
        tr.op(5, TraceOp::Read(0));
        tr.abort_child();
        // The child read the top's buffered write: as a model transaction
        // of its own that read would look like a zombie read, so the
        // child leaves no trace.
        assert!(!sink.lines().iter().any(|l| l.contains("t2")));
        // l5's acquire belonged to the aborted child; a fresh touch by the
        // parent must re-acquire, while l3 stays held.
        tr.op(5, TraceOp::Read(0));
        assert!(sink.lines().contains(&"acq t1 l5".to_string()));
        tr.commit_top();
        let lines = sink.lines();
        assert!(lines.contains(&"rel t1 l3".to_string()));
        assert!(lines.contains(&"rel t1 l5".to_string()));
    }

    #[test]
    fn abort_all_reverses_attempt_begun() {
        let sink = Arc::new(LogSink::default());
        let mut tr = AttemptTracer::begin_top(Arc::clone(&sink) as Arc<dyn TraceSink>, 1);
        tr.begin_child(2);
        tr.op(3, TraceOp::Read(0));
        tr.commit_child();
        tr.begin_child(4);
        tr.op(5, TraceOp::Read(0));
        tr.commit_child();
        tr.abort_all();
        let lines = sink.lines();
        // Settled children with provisional commits are revoked,
        // most recent first.
        assert_eq!(lines[lines.len() - 2..], ["abort t4", "abort t2"]);
    }
}
