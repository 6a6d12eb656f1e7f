//! Workload-independent layer probes of the traced run: the outside-in
//! cost ladder, `stm-core` and backend micro-costs, and two-thread
//! scaling of the CPU-bound streams.
//!
//! **Reading the ladder.** One fixed operation stream (80 % `contains`,
//! 10 % `add`, 10 % `remove`) is run at every layer of the stack, from a
//! benchmark-owned reference up to a durable `txkv` operation. A rung's
//! value is ns/op through everything below and including that layer; a
//! layer's *self* cost is its rung minus the rung below. Rungs are
//! interleaved within each repetition so a slow phase of the host hits
//! all of them alike, and the median over repetitions is reported.

use crate::ops::{self, Cursor, KvOp, SetOp, SET_RANGE};
use crate::reference::{CecSeq, RefList, RefSet};
use crate::stats::median;
use crate::trace;
use crate::workload::{kv, oe_backend, registry, sets_list};
use cec::seq::{SeqHashSet, SeqLinkedListSet};
use cec::{LinkedListSet, OpScratch, SetExt, SetOps, TxQueue, TxSet};
use durable::{MemVfs, StdVfs, Vfs};
use oe_stm::OeStm;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::Instant;
use stm_core::{Atomic, AtomicBackend, Backend, Policy, Stm, StmConfig, TVar, TxKind};
use txkv::{KeySpace, OpMix};

/// Repetitions of every probe; the median is reported.
pub const REPS: usize = 7;
/// Ladder operations per repetition on the list structure.
pub const LIST_OPS: usize = 2_000;
/// Ladder operations per repetition on the hash structure.
pub const HASH_OPS: usize = 20_000;
/// Of those, how many the rung that fsyncs runs.
pub const STDVFS_OPS: usize = 2_000;
/// Buckets of the ladder's hash sets: as many as the keyspace has in all
/// (8 shards of 64), so chains are as long as `txkv`'s.
const HASH_BUCKETS: usize = 512;

/// Every probe: the metrics, and one line per failed output check.
/// `out_dir` holds the one store that needs a real disk.
#[must_use]
pub fn all(out_dir: &Path, seed: u64) -> (Vec<(&'static str, f64)>, Vec<String>) {
    let mut out = list_ladder(seed);
    out.extend(hash_ladder(out_dir, seed));
    out.extend(stm_core_costs());
    out.extend(backend_costs());
    out.push(("stm-core.wait_handoff_us", wait_handoff_us()));
    let (queue, failures) = queue_handoff();
    out.extend(queue);
    out.push(("cec.pin_ns", pin_ns()));
    out.push(("txkv.sampler_ns", sampler_ns(seed)));
    out.push(("cec.scaling_2t", cec_scaling(seed)));
    out.push(("txkv.scaling_2t", txkv_scaling(seed)));
    (out, failures)
}

// ----------------------------------------------------------------------
// The ladder
// ----------------------------------------------------------------------

/// 80 % `contains`, 10 % `add`, 10 % `remove` over keys from `key`.
fn ladder_ops(seed: u64, n: usize, mut key: impl FnMut(&mut SmallRng) -> i64) -> Vec<SetOp> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x1ADD);
    (0..n)
        .map(|_| {
            let roll = rng.gen_range(0..10u32);
            let k = key(&mut rng);
            match roll {
                0..=7 => SetOp::Contains(k),
                8 => SetOp::Add(k),
                _ => SetOp::Remove(k),
            }
        })
        .collect()
}

/// Time `f` over `ops` as one root span and record ns/op.
fn rung(name: &'static str, ops: &[SetOp], out: &mut Vec<f64>, mut f: impl FnMut(SetOp) -> bool) {
    trace::child(name, || {
        let start = Instant::now();
        let mut acc = 0u64;
        for &op in ops {
            acc += u64::from(f(op));
        }
        out.push(start.elapsed().as_nanos() as f64 / ops.len() as f64);
        black_box(acc);
    });
}

/// Allocation bookkeeping of the rungs below `cec`: one scratch and one
/// epoch pin for a whole slice, where `SetExt` pays both per operation.
#[derive(Default)]
struct SliceScratch {
    op: OpScratch,
    retired: Vec<u64>,
}

impl SliceScratch {
    /// After a commit: the nodes it allocated are linked (forget them),
    /// the nodes it unlinked wait for the end of the slice.
    fn committed(&mut self) {
        self.op.allocated.clear();
        self.retired.append(&mut self.op.unlinked);
    }
}

/// The backend-SPI rung: `Stm::run` and `SetOps::*_in` on the backend's
/// own transaction type — no facade.
fn spi_op<S: SetOps>(stm: &OeStm, set: &S, op: SetOp, scratch: &mut SliceScratch) -> bool {
    let s = &mut scratch.op;
    let out = match op {
        SetOp::Contains(k) => stm.run(TxKind::Elastic, |t| SetOps::contains_in(set, t, k)),
        SetOp::Add(k) => stm.run(TxKind::Elastic, |t| {
            SetOps::release_unpublished(set, &mut s.allocated);
            SetOps::add_in(set, t, k, s)
        }),
        SetOp::Remove(k) => stm.run(TxKind::Elastic, |t| {
            s.unlinked.clear();
            SetOps::remove_in(set, t, k, s)
        }),
        SetOp::AddAll(_) | SetOp::RemoveAll(_) => unreachable!("the ladder has no composed ops"),
    };
    scratch.committed();
    out
}

/// The facade rungs: the same, through `Atomic::run` and the erased
/// `Tx` (statically typed or registry-erased runner).
fn facade_op<B: AtomicBackend, S: TxSet>(
    at: &Atomic<B>,
    set: &S,
    op: SetOp,
    scratch: &mut SliceScratch,
) -> bool {
    let s = &mut scratch.op;
    let out = match op {
        SetOp::Contains(k) => at.run(Policy::Elastic, |tx| TxSet::contains_in(set, tx, k)),
        SetOp::Add(k) => at.run(Policy::Elastic, |tx| {
            TxSet::release_unpublished(set, &mut s.allocated);
            TxSet::add_in(set, tx, k, s)
        }),
        SetOp::Remove(k) => at.run(Policy::Elastic, |tx| {
            s.unlinked.clear();
            TxSet::remove_in(set, tx, k, s)
        }),
        SetOp::AddAll(_) | SetOp::RemoveAll(_) => unreachable!("the ladder has no composed ops"),
    };
    scratch.committed();
    out
}

/// The `cec` rung: the user-facing `SetExt` operation (adds the per-op
/// epoch pin and scratch).
fn set_ext_op<B: AtomicBackend, S: TxSet>(at: &Atomic<B>, set: &S, op: SetOp) -> bool {
    match op {
        SetOp::Contains(k) => set.contains(at, k),
        SetOp::Add(k) => set.add(at, k),
        SetOp::Remove(k) => set.remove(at, k),
        SetOp::AddAll(_) | SetOp::RemoveAll(_) => unreachable!("the ladder has no composed ops"),
    }
}

/// The six rungs every structure has, each over its own instance.
struct SetRungs<R, Q, S> {
    names: [&'static str; 6],
    reference: R,
    seq: Q,
    spi: (Atomic<OeStm>, S),
    api_static: (Atomic<OeStm>, S),
    api_erased: (Atomic<Backend>, S),
    set_op: (Atomic<Backend>, S),
    ns: [Vec<f64>; 6],
}

impl<R: RefSet, Q: RefSet, S: SetOps> SetRungs<R, Q, S> {
    fn new(
        names: [&'static str; 6],
        mut reference: R,
        mut seq: Q,
        make: impl Fn() -> S,
        prefill: &[i64],
    ) -> Self {
        for &k in prefill {
            reference.add(k);
            seq.add(k);
        }
        let erased = || Atomic::new(oe_backend(StmConfig::default()));
        let me = Self {
            names,
            reference,
            seq,
            spi: (Atomic::new(OeStm::new()), make()),
            api_static: (Atomic::new(OeStm::new()), make()),
            api_erased: (erased(), make()),
            set_op: (erased(), make()),
            ns: Default::default(),
        };
        for &k in prefill {
            me.spi.1.add(&me.spi.0, k);
            me.api_static.1.add(&me.api_static.0, k);
            me.api_erased.1.add(&me.api_erased.0, k);
            me.set_op.1.add(&me.set_op.0, k);
        }
        me
    }

    fn rep(&mut self, ops: &[SetOp]) {
        let [n0, n1, n2, n3, n4, n5] = self.names;
        let [t0, t1, t2, t3, t4, t5] = &mut self.ns;
        rung(n0, ops, t0, |op| self.reference.apply(op) != 0);
        rung(n1, ops, t1, |op| self.seq.apply(op) != 0);
        // Below the `cec` rung the epoch is pinned once per slice and
        // removed nodes are retired when it ends.
        let mut scratch = SliceScratch::default();
        let guard = cec::arena::pin();
        let (at, set) = &self.spi;
        rung(n2, ops, t2, |op| {
            spi_op(at.backend(), set, op, &mut scratch)
        });
        SetOps::retire_unlinked(set, &mut scratch.retired, &guard);
        let (at, set) = &self.api_static;
        rung(n3, ops, t3, |op| facade_op(at, set, op, &mut scratch));
        SetOps::retire_unlinked(set, &mut scratch.retired, &guard);
        let (at, set) = &self.api_erased;
        rung(n4, ops, t4, |op| facade_op(at, set, op, &mut scratch));
        SetOps::retire_unlinked(set, &mut scratch.retired, &guard);
        drop(guard);
        let (at, set) = &self.set_op;
        rung(n5, ops, t5, |op| set_ext_op(at, set, op));
    }

    fn medians(&self) -> Vec<(&'static str, f64)> {
        self.names
            .iter()
            .zip(&self.ns)
            .map(|(&name, ns)| (name, median(ns)))
            .collect()
    }
}

fn list_ladder(seed: u64) -> Vec<(&'static str, f64)> {
    let pool = ladder_ops(seed, REPS * LIST_OPS, |rng| rng.gen_range(1..SET_RANGE + 1));
    let mut rungs = SetRungs::new(
        [
            "ladder.list_ref_ns",
            "cec.list_seq_ns",
            "oe-stm.list_spi_ns",
            "stm-core.list_api_static_ns",
            "stm-core.list_api_erased_ns",
            "cec.list_set_op_ns",
        ],
        RefList::new(),
        CecSeq(SeqLinkedListSet::new()),
        LinkedListSet::new,
        &ops::set_prefill(seed),
    );
    for ops in pool.chunks(LIST_OPS) {
        rungs.rep(ops);
    }
    rungs.medians()
}

/// The `txkv` and `durable` rungs: the same stream as keyspace
/// operations (`contains` → GET, `add` → SET, `remove` → DEL).
fn kv_op(ks: &KeySpace, at: &Atomic<Backend>, op: SetOp) -> bool {
    match op {
        SetOp::Contains(k) => ks.get(at, k).is_some(),
        SetOp::Add(k) => ks.set(at, k, k as u64).is_none(),
        SetOp::Remove(k) => ks.del(at, k).is_some(),
        SetOp::AddAll(_) | SetOp::RemoveAll(_) => unreachable!("the ladder has no composed ops"),
    }
}

fn hash_ladder(out_dir: &Path, seed: u64) -> Vec<(&'static str, f64)> {
    let sampler = ops::kv_sampler();
    let pool = ladder_ops(seed, REPS * HASH_OPS, |rng| sampler.sample(rng));
    let prefill = ops::kv_prefill(seed);
    let prefill_keys: Vec<i64> = prefill.iter().map(|&(k, _)| i64::from(k)).collect();
    let mut rungs = SetRungs::new(
        [
            "ladder.ref_ns",
            "cec.seq_ns",
            "oe-stm.spi_ns",
            "stm-core.api_static_ns",
            "stm-core.api_erased_ns",
            "cec.set_op_ns",
        ],
        std::collections::HashSet::<i64>::new(),
        CecSeq(SeqHashSet::new(HASH_BUCKETS)),
        || cec::HashSet::new(HASH_BUCKETS),
        &prefill_keys,
    );
    let dir = out_dir.join("ladder-store");
    let std_vfs: Arc<dyn Vfs> = Arc::new(StdVfs::new(&dir).expect("create the ladder store"));
    let mem = kv::prefilled_keyspace(&prefill, None, false);
    let mem_vfs = kv::prefilled_keyspace(&prefill, Some(Arc::new(MemVfs::new())), false);
    let on_disk = kv::prefilled_keyspace(&prefill, Some(std_vfs), false);
    let mut ns: [Vec<f64>; 3] = Default::default();
    for ops in pool.chunks(HASH_OPS) {
        rungs.rep(ops);
        let [t0, t1, t2] = &mut ns;
        rung("txkv.op_ns", ops, t0, |op| kv_op(&mem.1, &mem.0, op));
        rung("durable.memvfs_op_ns", ops, t1, |op| {
            kv_op(&mem_vfs.1, &mem_vfs.0, op)
        });
        rung("durable.stdvfs_op_ns", &ops[..STDVFS_OPS], t2, |op| {
            kv_op(&on_disk.1, &on_disk.0, op)
        });
    }
    drop(on_disk);
    // Best effort: the directory is inside the checkout either way.
    let _ = std::fs::remove_dir_all(&dir);
    let mut out = rungs.medians();
    out.push(("txkv.op_ns", median(&ns[0])));
    out.push(("durable.memvfs_op_ns", median(&ns[1])));
    out.push(("durable.stdvfs_op_ns", median(&ns[2])));
    out
}

// ----------------------------------------------------------------------
// Micro-costs
// ----------------------------------------------------------------------

/// Median over [`REPS`] of `f`, which returns ns per unit of work.
fn reps(mut f: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..REPS).map(|_| f()).collect();
    median(&samples)
}

/// ns per iteration of `f` over `n` iterations.
fn per_iter(n: u64, mut f: impl FnMut(u64)) -> f64 {
    let start = Instant::now();
    for i in 0..n {
        f(i);
    }
    start.elapsed().as_nanos() as f64 / n as f64
}

fn stm_core_costs() -> Vec<(&'static str, f64)> {
    let at = Atomic::new(OeStm::new());
    let vars: Vec<TVar<u64>> = (0..1024).map(TVar::new).collect();
    // A 1 024-read read-only elastic transaction, per read: what one
    // step of a `sets-list` traversal costs.
    let read = reps(|| {
        per_iter(200, |_| {
            black_box(at.run(Policy::Elastic, |tx| {
                let mut sum = 0u64;
                for v in &vars {
                    sum = sum.wrapping_add(tx.get(v)?);
                }
                Ok(sum)
            }));
        }) / vars.len() as f64
    });
    let empty = reps(|| per_iter(100_000, |_| at.run(Policy::Regular, |_| Ok(()))));
    // A 16-write transaction, per write (buffer, lock, write back).
    let write = reps(|| {
        per_iter(20_000, |i| {
            at.run(Policy::Regular, |tx| {
                for v in &vars[..16] {
                    tx.set(v, i)?;
                }
                Ok(())
            });
        }) / 16.0
    });
    vec![
        ("stm-core.tvar_read_ns", read),
        ("stm-core.empty_tx_ns", empty),
        ("stm-core.tvar_write_ns", write),
    ]
}

/// The same 8-read + 2-write transaction through the erased SPI of every
/// registry backend.
fn backend_costs() -> Vec<(&'static str, f64)> {
    const BACKENDS: [(&str, &str); 6] = [
        ("oe", "oe-stm.rw_tx_ns"),
        ("oe-estm-compat", "oe-stm.estm_compat_rw_tx_ns"),
        ("tl2", "stm-tl2.rw_tx_ns"),
        ("lsa", "stm-lsa.rw_tx_ns"),
        ("swiss", "stm-swiss.rw_tx_ns"),
        ("boost", "stm-boost.rw_tx_ns"),
    ];
    let registry = registry();
    BACKENDS
        .iter()
        .map(|&(key, metric)| {
            // Versions are stamped by the backend's own clock, so every
            // backend gets variables of its own.
            let vars: Vec<TVar<u64>> = (0..8).map(TVar::new).collect();
            let backend = registry
                .build_default(key)
                .expect("every backend of the ladder is registered");
            let ns = reps(|| {
                per_iter(50_000, |i| {
                    backend.run(TxKind::Regular, |tx| {
                        let mut sum = 0u64;
                        for v in &vars {
                            sum = sum.wrapping_add(tx.get(v)?);
                        }
                        tx.set(&vars[0], sum)?;
                        tx.set(&vars[1], i)
                    });
                })
            });
            (metric, ns)
        })
        .collect()
}

/// One-way handoff between two threads through bare `TVar`s and
/// `retry()`: the wait path without a queue on top. µs.
fn wait_handoff_us() -> f64 {
    const ROUND_TRIPS: u64 = 2_000;
    let at = Atomic::new(oe_backend(StmConfig::default()));
    let (ping, pong) = (TVar::new(0u64), TVar::new(0u64));
    let wait_for = |var: &TVar<u64>, at_least: u64| {
        at.run(Policy::Regular, |tx| {
            if tx.get(var)? < at_least {
                tx.retry()
            } else {
                Ok(())
            }
        });
    };
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for i in 1..=ROUND_TRIPS {
                wait_for(&ping, i);
                at.run(Policy::Regular, |tx| tx.set(&pong, i));
            }
        });
        let start = Instant::now();
        for i in 1..=ROUND_TRIPS {
            at.run(Policy::Regular, |tx| tx.set(&ping, i));
            wait_for(&pong, i);
        }
        start.elapsed().as_nanos() as f64 / (2 * ROUND_TRIPS) as f64 / 1e3
    })
}

/// Round trips of the queue hand-off probe.
pub const QUEUE_ROUND_TRIPS: i64 = 10_000;

/// Two `cec::TxQueue`s on the registry-erased `"oe"` backend, one item in
/// flight: this thread enqueues to A and blocking-dequeues from B while
/// a helper does the reverse. The only probe that reaches
/// `stm_core::wait` through a collection (register, revalidate, park,
/// `notify_commit`). Every call is a root span (`cec.enqueue`,
/// `cec.dequeue_blocking` — a full round trip through the helper); the
/// counters of the wait path come back as metrics.
///
/// Its output checks: FIFO on both legs, nothing lost, duplicated or
/// left behind, and every park accounted for by exactly one wake-up.
fn queue_handoff() -> (Vec<(&'static str, f64)>, Vec<String>) {
    const STOP: i64 = -1;
    let at = Atomic::new(oe_backend(StmConfig::default()));
    let (a, b) = (TxQueue::new(), TxQueue::new());
    let (disorder, echo_mismatches) = std::thread::scope(|scope| {
        let helper = scope.spawn(|| {
            let (mut expect, mut disorder) = (0i64, 0u64);
            loop {
                let v = a.dequeue_blocking(&at);
                if v == STOP {
                    return disorder;
                }
                disorder += u64::from(v != expect);
                expect = v + 1;
                b.enqueue(&at, v);
            }
        });
        let mut echo_mismatches = 0u64;
        for v in 0..QUEUE_ROUND_TRIPS {
            let id = trace::root_begin();
            let t0 = trace::now_ns();
            a.enqueue(&at, v);
            let t1 = trace::now_ns();
            trace::root_end(id, "cec.enqueue", t0, t1);
            let id = trace::root_begin();
            let got = b.dequeue_blocking(&at);
            trace::root_end(id, "cec.dequeue_blocking", t1, trace::now_ns());
            echo_mismatches += u64::from(got != v);
        }
        a.enqueue(&at, STOP);
        (
            helper.join().expect("the queue helper panicked"),
            echo_mismatches,
        )
    });
    let mut failures = Vec::new();
    if disorder > 0 {
        failures.push(format!(
            "queue hand-off: {disorder} items reached the helper out of order"
        ));
    }
    if echo_mismatches > 0 {
        failures.push(format!(
            "queue hand-off: {echo_mismatches} items came back different from what was sent"
        ));
    }
    let left = a.len(&at) + b.len(&at);
    if left > 0 {
        failures.push(format!("queue hand-off: {left} items left in the queues"));
    }
    let s = at.stats();
    if s.wakeups + s.spurious_wakeups != s.retry_parks {
        failures.push(format!(
            "queue hand-off: wakeups {} + spurious {} != retry_parks {}",
            s.wakeups, s.spurious_wakeups, s.retry_parks
        ));
    }
    let metrics = vec![
        ("stm-core.retry_parks", s.retry_parks as f64),
        ("stm-core.wakeups", s.wakeups as f64),
        ("stm-core.spurious_wakeups", s.spurious_wakeups as f64),
    ];
    (metrics, failures)
}

fn pin_ns() -> f64 {
    reps(|| per_iter(200_000, |_| drop(black_box(cec::arena::pin()))))
}

fn sampler_ns(seed: u64) -> f64 {
    let sampler = ops::kv_sampler();
    let mut rng = SmallRng::seed_from_u64(seed);
    reps(|| {
        per_iter(200_000, |_| {
            black_box(sampler.sample(&mut rng));
        })
    })
}

// ----------------------------------------------------------------------
// Two-thread scaling of the CPU-bound streams
// ----------------------------------------------------------------------

/// Median over [`REPS`] of two-client ÷ one-client slice throughput,
/// each client running `n` operations of its own pool on shared state.
fn scaling_2t<T: Copy + Sync>(pools: [&[T]; 2], n: usize, exec: impl Fn(T) + Sync) -> f64 {
    let mut cursors = [Cursor::default(); 2];
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            cursors[0].take(n, pools[0]).for_each(|&op| exec(op));
            let one = n as f64 / start.elapsed().as_secs_f64();
            let gate = Barrier::new(2);
            let took = std::thread::scope(|scope| {
                let clients: Vec<_> = cursors
                    .iter_mut()
                    .zip(pools)
                    .map(|(cursor, pool)| {
                        let (gate, exec) = (&gate, &exec);
                        scope.spawn(move || {
                            gate.wait();
                            let start = Instant::now();
                            cursor.take(n, pool).for_each(|&op| exec(op));
                            (start, Instant::now())
                        })
                    })
                    .collect();
                let spans: Vec<_> = clients
                    .into_iter()
                    .map(|c| c.join().expect("a scaling client panicked"))
                    .collect();
                let began = spans.iter().map(|s| s.0).min().expect("two clients");
                let ended = spans.iter().map(|s| s.1).max().expect("two clients");
                ended - began
            });
            (2 * n) as f64 / took.as_secs_f64() / one
        })
        .collect();
    median(&samples)
}

fn cec_scaling(seed: u64) -> f64 {
    let sys = sets_list::System {
        at: Atomic::new(OeStm::new()),
        set: LinkedListSet::new(),
    };
    for k in ops::set_prefill(seed) {
        sys.set.add(&sys.at, k);
    }
    let pools = [ops::set_ops(seed, 1 << 13), ops::set_ops(seed ^ 1, 1 << 13)];
    scaling_2t([&pools[0], &pools[1]], 1_000, |op| {
        black_box(sets_list::exec(&sys.set, &sys.at, op));
    })
}

fn txkv_scaling(seed: u64) -> f64 {
    let (at, ks, _) = kv::prefilled_keyspace(&ops::kv_prefill(seed), None, false);
    let sampler = ops::kv_sampler();
    let mix = OpMix::service();
    let pools: [Vec<KvOp>; 2] = [
        ops::kv_ops(seed, 1 << 17, &mix, &sampler),
        ops::kv_ops(seed ^ 1, 1 << 17, &mix, &sampler),
    ];
    scaling_2t([&pools[0], &pools[1]], 50_000, |op| {
        black_box(kv::exec(&ks, &at, op));
    })
}
