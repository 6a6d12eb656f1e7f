//! `sets-list` — paper §VII-A on Fig. 6's structure: a
//! `cec::LinkedListSet` over the statically typed `Atomic<OeStm>`, one
//! client. An operation makes ~2 000 transactional reads, so the
//! per-read path does nearly all the work and the per-transaction fixed
//! cost almost none.

use super::{classify, run_ops, run_reference, Env, Finish, Latencies, Slice, Workload};
use crate::ops::{self, Cursor, SetOp, SET_RANGE};
use crate::reference::{RefList, RefSet, SetModel};
use cec::{LinkedListSet, SetExt};
use oe_stm::OeStm;
use stm_core::{Atomic, StatsSnapshot};

/// Operations per workload slice (≈ 65 ms).
pub const SLICE_OPS: usize = 2_000;
/// Operations per reference slice (≈ 60 ms on the sequential list).
pub const REF_SLICE_OPS: usize = 6_000;
const POOL_OPS: usize = 1 << 16;

/// Seeded inputs.
#[derive(Debug)]
pub struct Inputs {
    /// Keys the set starts with.
    pub prefill: Vec<i64>,
    /// The operation pool.
    pub pool: Vec<SetOp>,
}

/// Engine and structure.
#[derive(Debug)]
pub struct System {
    /// The runner.
    pub at: Atomic<OeStm>,
    /// The set.
    pub set: LinkedListSet,
}

/// Run `op` on the transactional set.
pub fn exec(set: &LinkedListSet, at: &Atomic<OeStm>, op: SetOp) -> u64 {
    u64::from(match op {
        SetOp::Contains(v) => set.contains(at, v),
        SetOp::Add(v) => set.add(at, v),
        SetOp::Remove(v) => set.remove(at, v),
        SetOp::AddAll(v) => set.add_all(at, &SetOp::pair(v)),
        SetOp::RemoveAll(v) => set.remove_all(at, &SetOp::pair(v)),
    })
}

/// The workload.
#[derive(Debug)]
pub struct SetsList {
    sys: System,
    inputs: Inputs,
    cursor: Cursor,
    oracle: SetModel,
    reference: RefList,
    ref_cursor: Cursor,
    expected: Vec<u64>,
    lat: Vec<u32>,
    corrupt: bool,
}

impl Workload for SetsList {
    const NAME: &'static str = "sets-list";
    const SPAN_NAMES: &'static [&'static str] = &[
        "cec.contains",
        "cec.add",
        "cec.remove",
        "cec.add_all",
        "cec.remove_all",
    ];

    type Inputs = Inputs;
    type System = System;

    fn generate(seed: u64) -> Inputs {
        Inputs {
            prefill: ops::set_prefill(seed),
            pool: ops::set_ops(seed, POOL_OPS),
        }
    }

    fn build(inputs: &Inputs, _env: &Env, _nth: usize) -> System {
        let at = Atomic::new(OeStm::new());
        let set = LinkedListSet::new();
        for &k in &inputs.prefill {
            set.add(&at, k);
        }
        System { at, set }
    }

    fn start(inputs: Inputs, sys: System, env: &Env) -> Self {
        let mut oracle = SetModel::new(SET_RANGE);
        let mut reference = RefList::new();
        for &k in &inputs.prefill {
            oracle.add(k);
            reference.add(k);
        }
        Self {
            sys,
            inputs,
            cursor: Cursor::default(),
            oracle,
            reference,
            ref_cursor: Cursor::default(),
            expected: Vec::with_capacity(SLICE_OPS),
            lat: Vec::with_capacity(SLICE_OPS),
            corrupt: env.corrupt_oracle,
        }
    }

    fn inputs(&self) -> &Inputs {
        &self.inputs
    }

    fn ref_slice(&mut self) -> Slice {
        let reference = &mut self.reference;
        run_reference(
            self.ref_cursor.take(REF_SLICE_OPS, &self.inputs.pool),
            |op| reference.apply(op),
        )
    }

    fn work_slice(&mut self, lat: &mut Latencies, traced: bool) -> Slice {
        let (mut replay, mut kinds) = (self.cursor, self.cursor);
        self.expected.clear();
        for &op in self.cursor.take(SLICE_OPS, &self.inputs.pool) {
            self.expected.push(self.oracle.apply(op));
        }
        if std::mem::take(&mut self.corrupt) {
            self.expected[0] ^= 1;
        }
        let name = |op: SetOp| Self::SPAN_NAMES[op.kind()];
        let (set, at) = (&self.sys.set, &self.sys.at);
        let slice = run_ops(
            replay.take(SLICE_OPS, &self.inputs.pool),
            &mut self.lat,
            Some(&self.expected),
            traced.then_some(&name as &dyn Fn(SetOp) -> &'static str),
            |op| exec(set, at, op),
        );
        let kinds = kinds.take(SLICE_OPS, &self.inputs.pool).map(|op| op.kind());
        classify(&self.lat, kinds, lat);
        slice
    }

    fn stats(&self) -> StatsSnapshot {
        self.sys.at.stats()
    }

    fn finish(self) -> Finish {
        let mut out = Finish::default();
        let (got, want) = (self.sys.set.size(&self.sys.at), self.oracle.len());
        if got != want {
            out.failures
                .push(format!("final size {got}, the oracle holds {want}"));
        }
        out
    }
}
