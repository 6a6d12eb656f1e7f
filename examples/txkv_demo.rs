//! The txkv service layer in five minutes: a sharded transactional
//! keyspace, single-key ops, a cross-shard MULTI transfer, and the
//! open-loop load generator with latency percentiles.
//!
//! ```sh
//! cargo run --example txkv_demo
//! ```
//!
//! The keyspace is eight `cec::HashSet` shards plus one value slot and
//! one presence word per key, all reached through the `Atomic` facade,
//! so every operation — including the MULTI that touches two shards at
//! once — is one atomic transaction on whichever STM backend you hand
//! it. A GET reads the key's presence word and its value slot and
//! nothing else; the shards are walked only when a key is inserted or
//! deleted.

use composing_relaxed_transactions::oe_stm::OeStm;
use composing_relaxed_transactions::stm_core::api::Atomic;
use composing_relaxed_transactions::txkv::{
    loadgen, KeyDist, KeySpace, LatencyHistogram, LoadSpec, MultiOp, OpMix, ShardKind,
};
use std::time::Duration;

fn main() {
    let stm = Atomic::new(OeStm::new());
    let ks = KeySpace::new(ShardKind::Hash, 8, 1 << 13);
    println!(
        "keyspace: {} keys across {} hash shards, backend {}",
        ks.capacity(),
        ks.shard_count(),
        stm.name()
    );

    // --- single-key ops ---------------------------------------------------
    assert_eq!(ks.get(&stm, 7), None, "fresh keyspace is empty");
    assert_eq!(ks.set(&stm, 7, 100), None, "SET returns the old value");
    assert_eq!(ks.get(&stm, 7), Some(100));

    // CAS succeeds only against the expected current value.
    assert!(ks.cas(&stm, 7, Some(100), 150), "expected 100: applies");
    assert!(!ks.cas(&stm, 7, Some(100), 999), "stale expectation: no-op");
    assert_eq!(ks.get(&stm, 7), Some(150));

    assert_eq!(ks.del(&stm, 7), Some(150), "DEL returns the final value");
    assert_eq!(ks.get(&stm, 7), None);
    println!("GET/SET/CAS/DEL: ok");

    // --- a cross-shard MULTI transfer -------------------------------------
    // Find two accounts that live on *different* shards, so the MULTI
    // demonstrably crosses shard boundaries in one atomic step.
    let src: i64 = 11;
    let dst: i64 = (12..)
        .find(|&k| ks.shard_of(k) != ks.shard_of(src))
        .expect("8 shards: a key on another shard exists");
    ks.set(&stm, src, 1000);
    ks.set(&stm, dst, 0);
    let changed = ks.multi(&stm, &[src, dst], |i, cur| {
        // The closure sees each key's position in the slice: 0 = src.
        let v = cur.unwrap_or(0);
        if i == 0 {
            MultiOp::Put(v - 250)
        } else {
            MultiOp::Put(v + 250)
        }
    });
    assert_eq!(changed, 2, "both sides of the transfer were written");
    assert_eq!(ks.get(&stm, src), Some(750));
    assert_eq!(ks.get(&stm, dst), Some(250));
    println!(
        "MULTI transfer: moved 250 from key {src} (shard {}) to key {dst} (shard {}) atomically",
        ks.shard_of(src),
        ks.shard_of(dst)
    );

    // --- the open-loop load generator -------------------------------------
    // Four clients offer a fixed 2000 ops/s each (open loop: the recorded
    // latency includes queueing delay when the service lags the offered
    // rate), sampling keys zipfian-skewed, with the default service mix.
    loadgen::prefill(&ks, &stm, 61713);
    let spec = LoadSpec {
        clients: 4,
        duration: Duration::from_millis(500),
        rate_per_client: 2000.0,
        dist: KeyDist::Zipfian { theta: 0.99 },
        mix: OpMix::service(),
        multi_size: 4,
        seed: 61713,
    };
    let hist = LatencyHistogram::new();
    let report = loadgen::run_open_loop(&ks, &stm, &spec, &hist);
    println!(
        "open loop: {} ops in {:?} ({:.1} ops/ms offered-load-paced)",
        report.ops, report.elapsed, report.throughput
    );
    println!(
        "latency: p50 {:.0}us  p99 {:.0}us  p999 {:.0}us ({} samples)",
        report.latency.p50_us, report.latency.p99_us, report.latency.p999_us, report.latency.count
    );
}
