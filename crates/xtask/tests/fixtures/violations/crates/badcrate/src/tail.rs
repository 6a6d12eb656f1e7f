//! Seeded violations: a backend that grew its own commit tail and its own
//! park-on-retry instead of going through `stm-core`'s driver — it fires
//! the commit hook, notifies waiters and parks by hand. Each of the three
//! call sites must trip `commit-tail`; settling the contention manager
//! (`cm.on_commit()`) is ordinary backend code and must not.

/// A hand-rolled commit tail (the order contract now lives in one place).
pub fn rogue_commit(txn: &mut Txn) {
    if let Some(hook) = txn.config.commit_hook.as_deref() {
        hook.on_commit(&WriteRecord::new(txn.wv, txn.writes.len(), &txn.iter()));
    }
    wait::notify_commit(&|f| txn.writes.iter().for_each(|e| f(e.id)));
    txn.writes.write_back_and_release(txn.wv);
    txn.cm.on_commit();
}

/// A hand-rolled wait path (the park-or-pace policy lives in the driver).
pub fn rogue_retry(txn: &Txn, stats: &Stats) {
    let _ = wait::wait_for_locations(&mut txn.read_ids(), &|| txn.valid(), 1, stats);
}
