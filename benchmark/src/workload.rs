//! What a workload is to the protocol in `run`: seeded inputs, a timed
//! set-up of the system under test, a reference slice, a workload slice,
//! and the output checks at the end.

use crate::trace;
use std::path::PathBuf;
use std::time::Instant;
use stm_core::dynstm::BackendRegistry;
use stm_core::{Backend, StatsSnapshot, StmConfig};

pub mod kv;
pub mod sets_list;

/// Where and how a run executes.
#[derive(Debug, Clone)]
pub struct Env {
    /// Scratch directory for files the run creates (inside the checkout).
    pub dir: PathBuf,
    /// This is a traced run: install the timed seams and size slices
    /// for span recording.
    pub traced: bool,
    /// Test-only: falsify one oracle entry, to prove a failed check
    /// fails the run.
    pub corrupt_oracle: bool,
}

/// What one timed slice did.
#[derive(Debug, Clone, Copy, Default)]
pub struct Slice {
    /// Operations completed.
    pub ops: u64,
    /// Wall time of the slice.
    pub ns: u64,
    /// Operations whose result disagreed with the oracle.
    pub failed: u64,
}

impl Slice {
    /// Throughput of the slice.
    #[must_use]
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 * 1e9 / self.ns as f64
    }
}

/// Per-op latencies of one workload slice, split by class.
#[derive(Debug, Default)]
pub struct Latencies {
    /// Read-class latencies, ns.
    pub reads: Vec<u32>,
    /// Update-class latencies, ns.
    pub updates: Vec<u32>,
}

/// Results of the checks a workload makes after its last slice.
#[derive(Debug, Default)]
pub struct Finish {
    /// One line per failed check; empty when all passed.
    pub failures: Vec<String>,
    /// Per-layer metrics only this workload can measure.
    pub layer: Vec<(&'static str, f64)>,
}

/// One benchmark workload. See `README.md` for why each exists.
pub trait Workload: Sized {
    /// Name on the command line and in `BENCHMARK.json`.
    const NAME: &'static str;
    /// Span names per op kind, `<layer>.<kind>`.
    const SPAN_NAMES: &'static [&'static str];

    /// Everything generated from the seed; untimed, owned by the
    /// benchmark.
    type Inputs;
    /// The system under test, as `setup_s` times its construction.
    type System;

    /// Generate the inputs.
    fn generate(seed: u64) -> Self::Inputs;

    /// Build engine and structures and prefill them — the work
    /// `setup_s` measures. `nth` distinguishes repeated set-ups.
    fn build(inputs: &Self::Inputs, env: &Env, nth: usize) -> Self::System;

    /// Wrap a built system with the benchmark-side state (references,
    /// oracle, buffers).
    fn start(inputs: Self::Inputs, system: Self::System, env: &Env) -> Self;

    /// The inputs the workload was started with (for further set-ups).
    fn inputs(&self) -> &Self::Inputs;

    /// Run one reference slice.
    fn ref_slice(&mut self) -> Slice;

    /// Run one workload slice, leaving its per-op latencies in `lat`;
    /// with `traced`, every operation also becomes a root span.
    fn work_slice(&mut self, lat: &mut Latencies, traced: bool) -> Slice;

    /// The engine's counters.
    fn stats(&self) -> StatsSnapshot;

    /// Final output checks; consumes the workload.
    fn finish(self) -> Finish;
}

/// Every backend of the repo under its registry name.
#[must_use]
pub fn registry() -> BackendRegistry {
    let mut registry = BackendRegistry::new();
    oe_stm::register_backends(&mut registry);
    stm_lsa::register_backends(&mut registry);
    stm_tl2::register_backends(&mut registry);
    stm_swiss::register_backends(&mut registry);
    stm_boost::register_backends(&mut registry);
    registry
}

/// The registry-erased `"oe"` backend the `kv-*` and `queue-handoff`
/// workloads run on.
#[must_use]
pub fn oe_backend(config: StmConfig) -> Backend {
    registry()
        .build("oe", config)
        .expect("the oe backend is registered")
}

/// Run `ops` back to back on the calling thread and time each one.
///
/// Timestamps are chained — one clock read per operation, the end of one
/// is the start of the next — so the clock costs a 0.3 µs operation as
/// little as it can. `expected`, when given, is compared with every
/// result. With `span_name` set, each operation also becomes a root
/// span.
pub fn run_ops<'a, T: Copy + 'a>(
    ops: impl Iterator<Item = &'a T>,
    lat: &mut Vec<u32>,
    expected: Option<&[u64]>,
    span_name: Option<&dyn Fn(T) -> &'static str>,
    mut exec: impl FnMut(T) -> u64,
) -> Slice {
    lat.clear();
    let mut failed = 0u64;
    let start = Instant::now();
    let mut prev = start;
    for (i, &op) in ops.enumerate() {
        let span = span_name.map(|_| {
            let id = trace::root_begin();
            // The recorder's own work belongs to no operation.
            prev = Instant::now();
            id
        });
        let result = std::hint::black_box(exec(op));
        let now = Instant::now();
        lat.push(u32::try_from((now - prev).as_nanos()).unwrap_or(u32::MAX));
        if let Some(expected) = expected {
            failed += u64::from(result != expected[i]);
        }
        if let (Some(id), Some(name)) = (span, span_name) {
            trace::root_end(id, name(op), trace::ns_at(prev), trace::ns_at(now));
        }
        prev = now;
    }
    Slice {
        ops: lat.len() as u64,
        ns: (prev - start).as_nanos() as u64,
        failed,
    }
}

/// Run a reference slice: the same loop without per-op clock reads,
/// which would cost a 50 ns reference operation half its time again.
pub fn run_reference<'a, T: Copy + 'a>(
    ops: impl Iterator<Item = &'a T>,
    mut exec: impl FnMut(T) -> u64,
) -> Slice {
    let (mut n, mut acc) = (0u64, 0u64);
    let start = Instant::now();
    for &op in ops {
        acc = acc.wrapping_add(exec(op));
        n += 1;
    }
    let ns = start.elapsed().as_nanos() as u64;
    std::hint::black_box(acc);
    Slice {
        ops: n,
        ns,
        failed: 0,
    }
}

/// Split per-op latencies into the read class (kind 0) and the rest.
pub fn classify(lat: &[u32], kinds: impl Iterator<Item = usize>, out: &mut Latencies) {
    for (&ns, kind) in lat.iter().zip(kinds) {
        if kind == 0 {
            out.reads.push(ns);
        } else {
            out.updates.push(ns);
        }
    }
}
