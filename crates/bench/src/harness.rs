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
    /// Transaction conflict aborts.
    pub aborts: u64,
    /// Retry-time pacing steps executed (backoffs + yields) — how often
    /// conflict losers actually waited before retrying.
    pub cm_waits: u64,
    /// Elastic cuts taken (OE-STM only; 0 elsewhere).
    pub elastic_cuts: u64,
    /// `outherit()` invocations — child protected sets passed to parents
    /// (OE-STM only; 0 elsewhere).
    pub outherits: u64,
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
            cm_waits: snap.cm_waits(),
            elastic_cuts: snap.elastic_cuts,
            outherits: snap.outherits,
            elapsed,
        }
    }

    /// The all-zero measurement of a run that made no progress in
    /// `elapsed` (a row the progress watchdog killed).
    #[must_use]
    pub fn zero(elapsed: Duration) -> Self {
        Self {
            throughput: 0.0,
            abort_rate: 0.0,
            ops: 0,
            commits: 0,
            aborts: 0,
            cm_waits: 0,
            elastic_cuts: 0,
            outherits: 0,
            elapsed,
        }
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
        ops,
        commits: ops,
        ..Measurement::zero(elapsed)
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
