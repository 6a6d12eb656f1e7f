//! The measurement harness: timed multi-threaded runs producing the
//! throughput (ops/ms) and abort-rate (%) series of Figs. 6–8, driven
//! through the `atomic` facade.

use crate::workload::{thread_seed, Mix, OpGen, WorkOp, DEFAULT_INITIAL_SIZE};
use cec::seq::SeqSet;
use cec::{SetExt, TxSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};
use stm_core::api::{Atomic, AtomicBackend};

/// One measured data point.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// High-level operations completed per millisecond (the paper's
    /// y-axis).
    pub throughput: f64,
    /// aborts / (aborts + commits), in `[0, 1]` (the paper's right axis).
    pub abort_rate: f64,
    /// Total high-level operations completed.
    pub ops: u64,
    /// Transaction commits.
    pub commits: u64,
    /// Transaction conflict aborts (user-level explicit retries are
    /// counted separately, in [`explicit_retries`](Self::explicit_retries)).
    pub aborts: u64,
    /// User-level explicit retries (`tx.retry()` / `or_else` branch
    /// switches) — a control-flow category, not conflicts.
    pub explicit_retries: u64,
    /// Retry-time pacing steps executed (backoffs + yields) — how often
    /// conflict losers actually waited before retrying.
    pub cm_waits: u64,
    /// Times an `ExplicitRetry` attempt parked on its read set waiting
    /// for a committing writer (0 for workloads that never `retry()`).
    pub retry_parks: u64,
    /// Parked waiters woken by a commit to their read set.
    pub wakeups: u64,
    /// Parks that ended without a matching commit notification (bounded
    /// timeout or invalidated read set) — the liveness safety-net firing.
    pub spurious_wakeups: u64,
    /// Elastic cuts taken (OE-STM only; 0 elsewhere).
    pub elastic_cuts: u64,
    /// `outherit()` invocations — child protected sets passed to parents
    /// (OE-STM only; 0 elsewhere).
    pub outherits: u64,
    /// Median per-op latency in µs (0 for workloads that don't record
    /// latency — only the txkv service scenarios do).
    pub p50_us: f64,
    /// 99th-percentile per-op latency in µs (0 when not recorded).
    pub p99_us: f64,
    /// 99.9th-percentile per-op latency in µs (0 when not recorded).
    pub p999_us: f64,
    /// Wall-clock duration measured.
    pub elapsed: Duration,
}

impl Measurement {
    /// Build a measurement from raw op counts and a stats snapshot.
    #[must_use]
    pub fn from_run(ops: u64, elapsed: Duration, snap: &stm_core::StatsSnapshot) -> Self {
        Self {
            throughput: ops as f64 / elapsed.as_secs_f64() / 1e3,
            abort_rate: snap.abort_rate(),
            ops,
            commits: snap.commits,
            aborts: snap.aborts(),
            explicit_retries: snap.explicit_retries(),
            cm_waits: snap.cm_waits(),
            retry_parks: snap.retry_parks,
            wakeups: snap.wakeups,
            spurious_wakeups: snap.spurious_wakeups,
            elastic_cuts: snap.elastic_cuts,
            outherits: snap.outherits,
            p50_us: 0.0,
            p99_us: 0.0,
            p999_us: 0.0,
            elapsed,
        }
    }

    /// Attach a drained latency summary (txkv scenarios record per-op
    /// latency; everything else leaves the percentiles at 0).
    #[must_use]
    pub fn with_latency(mut self, latency: txkv::LatencySummary) -> Self {
        self.p50_us = latency.p50_us;
        self.p99_us = latency.p99_us;
        self.p999_us = latency.p999_us;
        self
    }
}

/// Execute one sampled operation against a transactional set.
pub fn apply_op<B: AtomicBackend, C: TxSet + ?Sized>(set: &C, at: &Atomic<B>, op: &WorkOp) {
    match *op {
        WorkOp::Contains(k) => {
            set.contains(at, k);
        }
        WorkOp::Add(k) => {
            set.add(at, k);
        }
        WorkOp::Remove(k) => {
            set.remove(at, k);
        }
        WorkOp::AddAll(ref ks) => {
            set.add_all(at, ks);
        }
        WorkOp::RemoveAll(ref ks) => {
            set.remove_all(at, ks);
        }
    }
}

/// Pre-fill `set` to `target` elements with keys from the mix's range,
/// deterministically per `seed`.
pub fn prefill<B: AtomicBackend, C: TxSet + ?Sized>(
    set: &C,
    at: &Atomic<B>,
    mix: Mix,
    target: usize,
    seed: u64,
) {
    let mut gen = OpGen::new(mix, seed);
    let mut inserted = 0usize;
    while inserted < target {
        if set.add(at, gen.next_key()) {
            inserted += 1;
        }
    }
}

/// Timed run: `threads` workers apply the mix to `set` through `at` for
/// `duration`; returns aggregate throughput and the backend's abort rate
/// over the run.
pub fn run_timed<B: AtomicBackend, C: TxSet>(
    at: &Atomic<B>,
    set: &C,
    threads: usize,
    duration: Duration,
    mix: Mix,
    seed: u64,
) -> Measurement {
    at.reset_stats();
    let stop = AtomicBool::new(false);
    let total_ops = AtomicU64::new(0);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let stop = &stop;
            let total_ops = &total_ops;
            let at = &*at;
            let set = &*set;
            scope.spawn(move || {
                let mut gen = OpGen::new(mix, thread_seed(seed, t));
                let mut ops = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let op = gen.next_op();
                    apply_op(set, at, &op);
                    ops += 1;
                }
                total_ops.fetch_add(ops, Ordering::Relaxed);
            });
        }
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
    });
    let elapsed = started.elapsed();
    let snap = at.stats();
    let ops = total_ops.load(Ordering::Relaxed);
    Measurement::from_run(ops, elapsed, &snap)
}

/// Fixed-work run for Criterion benches: every worker performs exactly
/// `ops_per_thread` operations; returns the wall-clock duration of the
/// parallel phase.
pub fn run_fixed<B: AtomicBackend, C: TxSet>(
    at: &Atomic<B>,
    set: &C,
    threads: usize,
    ops_per_thread: u64,
    mix: Mix,
    seed: u64,
) -> Duration {
    let started = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let at = &*at;
            let set = &*set;
            scope.spawn(move || {
                let mut gen = OpGen::new(mix, thread_seed(seed, t));
                for _ in 0..ops_per_thread {
                    let op = gen.next_op();
                    apply_op(set, at, &op);
                }
            });
        }
    });
    started.elapsed()
}

/// Timed single-threaded run of the uninstrumented sequential baseline.
pub fn run_sequential(
    set: &mut dyn SeqSet,
    duration: Duration,
    mix: Mix,
    seed: u64,
) -> Measurement {
    let mut gen = OpGen::new(mix, thread_seed(seed, 0));
    let started = Instant::now();
    let mut ops = 0u64;
    while started.elapsed() < duration {
        for _ in 0..256 {
            match gen.next_op() {
                WorkOp::Contains(k) => {
                    set.contains(k);
                }
                WorkOp::Add(k) => {
                    set.add(k);
                }
                WorkOp::Remove(k) => {
                    set.remove(k);
                }
                WorkOp::AddAll(ks) => {
                    set.add_all(&ks);
                }
                WorkOp::RemoveAll(ks) => {
                    set.remove_all(&ks);
                }
            }
            ops += 1;
        }
    }
    let elapsed = started.elapsed();
    Measurement {
        throughput: ops as f64 / elapsed.as_secs_f64() / 1e3,
        abort_rate: 0.0,
        ops,
        commits: ops,
        aborts: 0,
        explicit_retries: 0,
        cm_waits: 0,
        retry_parks: 0,
        wakeups: 0,
        spurious_wakeups: 0,
        elastic_cuts: 0,
        outherits: 0,
        p50_us: 0.0,
        p99_us: 0.0,
        p999_us: 0.0,
        elapsed,
    }
}

/// Pre-fill a sequential set, deterministically per `seed`.
pub fn prefill_sequential(set: &mut dyn SeqSet, mix: Mix, target: usize, seed: u64) {
    let mut gen = OpGen::new(mix, seed);
    let mut inserted = 0usize;
    while inserted < target {
        if set.add(gen.next_key()) {
            inserted += 1;
        }
    }
}

/// The paper's default pre-fill size.
#[must_use]
pub fn default_initial_size() -> usize {
    DEFAULT_INITIAL_SIZE
}
