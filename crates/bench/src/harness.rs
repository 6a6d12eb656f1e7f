//! The measurement record: one data point of the throughput (ops/ms) and
//! abort-rate (%) series of Figs. 6–8, plus the uninstrumented sequential
//! baseline's runner. The transactional runs that fill a [`Measurement`]
//! live in [`crate::scenario`].

use crate::workload::{thread_seed, Mix, OpGen, WorkOp};
use cec::seq::SeqSet;
use std::time::{Duration, Instant};

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
    /// Median latency in µs (0 for workloads that don't record latency —
    /// only `wake-storm` does, as wake-up latency).
    pub p50_us: f64,
    /// 99th-percentile latency in µs (0 when not recorded).
    pub p99_us: f64,
    /// 99.9th-percentile latency in µs (0 when not recorded).
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

    /// Attach a drained latency summary (`wake-storm` records wake-up
    /// latency; everything else leaves the percentiles at 0).
    #[must_use]
    pub fn with_latency(mut self, latency: txkv::LatencySummary) -> Self {
        self.p50_us = latency.p50_us;
        self.p99_us = latency.p99_us;
        self.p999_us = latency.p999_us;
        self
    }
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
