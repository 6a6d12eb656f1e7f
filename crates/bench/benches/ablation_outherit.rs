//! Ablation: what does outheritance itself cost, and what does elasticity
//! buy?
//!
//! Two comparisons on the Fig. 6 (linked list) workload:
//!
//! 1. **OE-STM vs E-STM** on the composed workload — the price of the
//!    `outherit()` bookkeeping (merging child windows into the parent's
//!    read set and carrying it to commit). E-STM is *incorrect* under
//!    composition (Fig. 1); this measures only its speed.
//! 2. **OE-STM vs E-STM on a composition-free workload** (0% composed) —
//!    both behave identically there; any difference is framework noise,
//!    bounding the cost of having outheritance "on" when unused.

use bench::harness::{prefill, run_fixed};
use bench::workload::{Mix, DEFAULT_INITIAL_SIZE, DEFAULT_SEED};
use cec::LinkedListSet;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use oe_stm::OeStm;
use std::time::Duration;
use stm_core::api::Atomic;

const OPS: u64 = 300;
const THREADS: usize = 4;

fn bench_case(
    group: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>,
    id: BenchmarkId,
    at: &Atomic<OeStm>,
    mix: Mix,
) {
    let set = LinkedListSet::new();
    prefill(&set, at, mix, DEFAULT_INITIAL_SIZE, DEFAULT_SEED);
    group.bench_function(id, |b| {
        b.iter_custom(|iters| {
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                total += run_fixed(at, &set, THREADS, OPS, mix, DEFAULT_SEED);
            }
            total
        });
    });
}

fn ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_outherit");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(800));

    // 1. Outheritance cost under composition (15% composed ops).
    let composed = Mix::paper(15);
    bench_case(
        &mut group,
        BenchmarkId::new("composed15", "OE-STM"),
        &Atomic::new(OeStm::new()),
        composed,
    );
    bench_case(
        &mut group,
        BenchmarkId::new("composed15", "E-STM(no-outherit)"),
        &Atomic::new(OeStm::estm_compat()),
        composed,
    );

    // 2. Zero composed operations: outheritance has nothing to do.
    let flat = Mix::paper(0);
    bench_case(
        &mut group,
        BenchmarkId::new("composed0", "OE-STM"),
        &Atomic::new(OeStm::new()),
        flat,
    );
    bench_case(
        &mut group,
        BenchmarkId::new("composed0", "E-STM(no-outherit)"),
        &Atomic::new(OeStm::estm_compat()),
        flat,
    );
    group.finish();
}

criterion_group!(benches, ablation);
criterion_main!(benches);
