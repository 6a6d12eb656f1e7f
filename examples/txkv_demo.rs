//! The txkv service layer in five minutes: a transactional keyspace,
//! single-key ops and a two-key MULTI transfer. The repo benchmark's
//! `kv-mem` and `kv-durable` workloads measure the same keyspace under
//! load.
//!
//! ```sh
//! cargo run --example txkv_demo
//! ```
//!
//! The keyspace is one value slot and one presence word per key, all
//! reached through the `Atomic` facade, so every operation — including
//! the MULTI that touches two keys at once — is one atomic transaction on
//! whichever STM backend you hand it. A GET reads the key's presence word
//! and its value slot and nothing else; an insert or a delete writes the
//! presence word.

use composing_relaxed_transactions::oe_stm::OeStm;
use composing_relaxed_transactions::stm_core::api::Atomic;
use composing_relaxed_transactions::txkv::{KeySpace, MultiOp, ShardKind};

fn main() {
    let stm = Atomic::new(OeStm::new());
    let ks = KeySpace::new(ShardKind::Hash, 1, 1 << 13);
    println!("keyspace: {} keys, backend {}", ks.capacity(), stm.name());

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

    // --- a two-key MULTI transfer ----------------------------------------
    // Both accounts change in one atomic step: no observer sees the
    // money in flight.
    let (src, dst): (i64, i64) = (11, 12);
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
    println!("MULTI transfer: moved 250 from key {src} to key {dst} atomically");
}
