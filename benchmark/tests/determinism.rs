//! Same seed ⇒ same work. On the single-client workloads every engine
//! counter must repeat exactly (which is what lets a later change claim
//! a gain from a count); on `kv-durable` the interleaving of the two
//! clients is free, but every acknowledged update must still be exactly
//! one WAL record.

use benchmark::run::{default_out_dir, run, Budget, Report, RunConfig};
use benchmark::workload::kv::{KvDurable, KvMem, DURABLE_CLIENTS, DURABLE_SLICE_OPS};
use benchmark::workload::sets_list::SetsList;
use benchmark::workload::{Env, Latencies, Workload};

fn pairs<W: Workload>(seed: u64, n: usize) -> Report {
    run::<W>(&RunConfig {
        seed,
        budget: Budget::Pairs(n),
        traced: false,
        corrupt_oracle: false,
        out_dir: default_out_dir(),
    })
}

fn counters_repeat<W: Workload>() {
    let (a, b, other) = (pairs::<W>(11, 3), pairs::<W>(11, 3), pairs::<W>(12, 3));
    assert!(
        a.correct() && b.correct() && other.correct(),
        "{:?}",
        a.failures
    );
    assert_eq!(
        a.stats,
        b.stats,
        "{}: same seed, different counters",
        W::NAME
    );
    assert_eq!(a.attempted, b.attempted);
    assert_eq!(
        a.stats.aborts(),
        0,
        "one client cannot conflict with itself"
    );
    assert_eq!(a.pairs, 3);
    assert_ne!(
        (
            a.stats.child_commits,
            a.stats.elastic_cuts,
            a.stats.outherits
        ),
        (
            other.stats.child_commits,
            other.stats.elastic_cuts,
            other.stats.outherits
        ),
        "{}: another seed must give another stream",
        W::NAME
    );
}

#[test]
fn sets_list_counters_repeat_exactly() {
    counters_repeat::<SetsList>();
}

#[test]
fn kv_mem_counters_repeat_exactly() {
    counters_repeat::<KvMem>();
}

#[test]
fn kv_durable_logs_one_record_per_acknowledged_update() {
    let env = Env {
        dir: default_out_dir().join(format!("determinism-{}", std::process::id())),
        traced: false,
        corrupt_oracle: false,
    };
    let inputs = KvDurable::generate(5);
    let system = KvDurable::build(&inputs, &env, 0);
    let mut w = KvDurable::start(inputs, system, &env);
    let mut lat = Latencies::default();
    for _ in 0..3 {
        let slice = w.work_slice(&mut lat, false);
        assert_eq!(slice.ops as usize, DURABLE_CLIENTS * DURABLE_SLICE_OPS);
    }
    assert_eq!(w.wal_records(), w.acknowledged_updates());
    assert!(w.wal_records() > 0);
    let finish = w.finish();
    assert!(finish.failures.is_empty(), "{:?}", finish.failures);
    let _ = std::fs::remove_dir_all(&env.dir);
}
