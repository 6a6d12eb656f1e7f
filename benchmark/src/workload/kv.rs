//! The two `txkv` workloads on the registry-erased `"oe"` backend.
//!
//! * `kv-mem` — ~8-node chains, so begin/commit, `arena::pin`,
//!   `OpScratch`, facade erasure and stats — the fixed cost `sets-list`
//!   amortises away — are the whole operation. One client, so every
//!   return value is checked against the reference.
//! * `kv-durable` — the same keyspace behind `DurableStore` + commit
//!   hook, writes beside reads, two clients: the only workload where
//!   encode, group commit, fsync and the hook-under-write-locks window
//!   dominate.

use super::{
    classify, oe_backend, run_ops, run_reference, Env, Finish, Latencies, Slice, Workload,
};
use crate::ops::{self, Cursor, KvOp, KV_CAPACITY, KV_SHARDS};
use crate::reference::{self, enc, RefKv};
use crate::trace::{self, TimedHook, TimedVfs};
use durable::{DurableStore, Recovery, StdVfs, Vfs, WalStats};
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::Instant;
use stm_core::{Atomic, AtomicBackend, Backend, StatsSnapshot, StmConfig};
use txkv::{KeySpace, MultiOp, OpMix, ShardKind};

const SPAN_NAMES: &[&str] = &["txkv.get", "txkv.set", "txkv.cas", "txkv.del", "txkv.multi"];

fn span_name(op: KvOp) -> &'static str {
    SPAN_NAMES[op.kind()]
}

/// Run `op` on the keyspace; results encoded as `RefKv::apply` does.
pub fn exec<B: AtomicBackend>(ks: &KeySpace, at: &Atomic<B>, op: KvOp) -> u64 {
    match op {
        KvOp::Get(k) => enc(ks.get(at, i64::from(k))),
        KvOp::Set(k, v) => enc(ks.set(at, i64::from(k), v)),
        KvOp::Cas(k, v) => {
            let cur = ks.get(at, i64::from(k));
            u64::from(ks.cas(at, i64::from(k), cur, v))
        }
        KvOp::Del(k) => enc(ks.del(at, i64::from(k))),
        KvOp::Multi(keys) => ks.multi(at, &keys.map(i64::from), |_, cur| {
            MultiOp::Put(cur.unwrap_or(0).wrapping_add(1))
        }),
    }
}

/// A keyspace on the registry-erased `"oe"` backend, filled to 50 %
/// through 16-key `MULTI`s. With `vfs`, it is durable: store opened,
/// slots registered, commit hook installed before the prefill (one WAL
/// record per 16 keys); `timed_hook` wraps the hook in the span seam.
#[must_use]
pub fn prefilled_keyspace(
    prefill: &[(u16, u64)],
    vfs: Option<Arc<dyn Vfs>>,
    timed_hook: bool,
) -> (Atomic<Backend>, KeySpace, Option<DurableStore>) {
    let ks = KeySpace::new(ShardKind::Hash, KV_SHARDS, KV_CAPACITY);
    let mut config = StmConfig::default();
    let store = vfs.map(|vfs| {
        let (store, _) = DurableStore::open(vfs).expect("open an empty store");
        ks.register_durable(store.heap());
        config = config.clone().with_commit_hook(if timed_hook {
            Arc::new(TimedHook(store.hook()))
        } else {
            store.hook()
        });
        store
    });
    let at = Atomic::new(oe_backend(config));
    for chunk in prefill.chunks(txkv::loadgen::MAX_MULTI_SIZE) {
        let keys: Vec<i64> = chunk.iter().map(|&(k, _)| i64::from(k)).collect();
        ks.multi(&at, &keys, |i, _| MultiOp::Put(chunk[i].1));
    }
    (at, ks, store)
}

// ----------------------------------------------------------------------
// kv-mem
// ----------------------------------------------------------------------

/// Operations per `kv-mem` workload slice (≈ 45 ms).
pub const MEM_SLICE_OPS: usize = 100_000;
/// Slice of a traced `kv-mem` run: a root span per operation is kept in
/// memory, so the traced slice is a tenth of the untraced one.
pub const MEM_TRACED_SLICE_OPS: usize = 10_000;
/// Operations per `kv-mem` reference slice (≈ 30 ms on a `HashMap`).
pub const MEM_REF_SLICE_OPS: usize = 1_600_000;
const MEM_POOL_OPS: usize = 1 << 18;

/// Seeded inputs of a `kv-*` workload.
#[derive(Debug)]
pub struct Inputs {
    /// Keys and values the keyspace starts with.
    pub prefill: Vec<(u16, u64)>,
    /// One operation pool per client.
    pub pools: Vec<Vec<KvOp>>,
}

fn generate(seed: u64, mix: &OpMix, clients: usize, pool_ops: usize) -> Inputs {
    let sampler = ops::kv_sampler();
    Inputs {
        prefill: ops::kv_prefill(seed),
        pools: (0..clients as u64)
            .map(|c| ops::kv_ops(seed ^ (c << 32), pool_ops, mix, &sampler))
            .collect(),
    }
}

/// Engine and keyspace of `kv-mem`.
#[derive(Debug)]
pub struct MemSystem {
    /// The runner.
    pub at: Atomic<Backend>,
    /// The keyspace.
    pub ks: KeySpace,
}

/// The `kv-mem` workload.
#[derive(Debug)]
pub struct KvMem {
    sys: MemSystem,
    inputs: Inputs,
    cursor: Cursor,
    oracle: RefKv,
    reference: RefKv,
    ref_cursor: Cursor,
    expected: Vec<u64>,
    lat: Vec<u32>,
    slice_ops: usize,
    corrupt: bool,
}

impl Workload for KvMem {
    const NAME: &'static str = "kv-mem";
    const SPAN_NAMES: &'static [&'static str] = SPAN_NAMES;

    type Inputs = Inputs;
    type System = MemSystem;

    fn generate(seed: u64) -> Inputs {
        generate(seed, &OpMix::service(), 1, MEM_POOL_OPS)
    }

    fn build(inputs: &Inputs, _env: &Env, _nth: usize) -> MemSystem {
        let (at, ks, _) = prefilled_keyspace(&inputs.prefill, None, false);
        MemSystem { at, ks }
    }

    fn start(inputs: Inputs, sys: MemSystem, env: &Env) -> Self {
        let (mut oracle, mut reference) = (RefKv::new(), RefKv::new());
        for &(k, v) in &inputs.prefill {
            oracle.set(k, v);
            reference.set(k, v);
        }
        let slice_ops = if env.traced {
            MEM_TRACED_SLICE_OPS
        } else {
            MEM_SLICE_OPS
        };
        Self {
            sys,
            inputs,
            cursor: Cursor::default(),
            oracle,
            reference,
            ref_cursor: Cursor::default(),
            expected: Vec::with_capacity(slice_ops),
            lat: Vec::with_capacity(slice_ops),
            slice_ops,
            corrupt: env.corrupt_oracle,
        }
    }

    fn inputs(&self) -> &Inputs {
        &self.inputs
    }

    fn ref_slice(&mut self) -> Slice {
        let reference = &mut self.reference;
        run_reference(
            self.ref_cursor
                .take(MEM_REF_SLICE_OPS, &self.inputs.pools[0]),
            |op| reference.apply(op),
        )
    }

    fn work_slice(&mut self, lat: &mut Latencies, traced: bool) -> Slice {
        let (mut replay, mut kinds) = (self.cursor, self.cursor);
        self.expected.clear();
        for &op in self.cursor.take(self.slice_ops, &self.inputs.pools[0]) {
            self.expected.push(self.oracle.apply(op));
        }
        if std::mem::take(&mut self.corrupt) {
            self.expected[0] ^= 1;
        }
        let (ks, at) = (&self.sys.ks, &self.sys.at);
        let slice = run_ops(
            replay.take(self.slice_ops, &self.inputs.pools[0]),
            &mut self.lat,
            Some(&self.expected),
            traced.then_some(&span_name as &dyn Fn(KvOp) -> &'static str),
            |op| exec(ks, at, op),
        );
        let kinds = kinds
            .take(self.slice_ops, &self.inputs.pools[0])
            .map(|op| op.kind());
        classify(&self.lat, kinds, lat);
        slice
    }

    fn stats(&self) -> StatsSnapshot {
        self.sys.at.stats()
    }

    fn finish(self) -> Finish {
        let mut out = Finish::default();
        let (got, want) = (self.sys.ks.len(&self.sys.at), self.oracle.len());
        if got != want {
            out.failures
                .push(format!("final len {got}, the reference holds {want}"));
        }
        out
    }
}

// ----------------------------------------------------------------------
// kv-durable
// ----------------------------------------------------------------------

/// Clients of `kv-durable`: its time goes to waiting for the disk, so
/// both of this host's processors are used.
pub const DURABLE_CLIENTS: usize = 2;
/// Operations per client per `kv-durable` slice.
pub const DURABLE_SLICE_OPS: usize = 1_000;
/// Raw append+fsync pairs per `kv-durable` reference slice.
pub const DURABLE_REF_SLICE_OPS: usize = 400;
const DURABLE_POOL_OPS: usize = 1 << 16;

/// Engine, keyspace and store of `kv-durable`.
pub struct DurableSystem {
    /// The runner, its commit hook installed.
    pub at: Atomic<Backend>,
    /// The keyspace, registered with the store's heap.
    pub ks: KeySpace,
    /// The store.
    pub store: DurableStore,
    /// The directory the store lives in.
    pub dir: PathBuf,
    /// The filesystem binding (the raw one, also when traced).
    pub vfs: Arc<dyn Vfs>,
}

/// The `kv-durable` workload.
pub struct KvDurable {
    sys: DurableSystem,
    inputs: Inputs,
    cursors: Vec<Cursor>,
    lats: Vec<Vec<u32>>,
    wal_at_start: WalStats,
    acknowledged_updates: u64,
}

impl KvDurable {
    /// WAL records appended since the workload started.
    #[must_use]
    pub fn wal_records(&self) -> u64 {
        self.sys.store.wal().stats().records - self.wal_at_start.records
    }

    /// Operations since the workload started whose result says they
    /// changed the keyspace. Which `DEL`s find their key depends on how
    /// the clients interleave, so this count does not repeat between
    /// runs — but each of these operations must be exactly one WAL
    /// record.
    #[must_use]
    pub fn acknowledged_updates(&self) -> u64 {
        self.acknowledged_updates
    }
}

/// Whether `op`, having returned `result`, committed a write.
fn changed_the_keyspace(op: KvOp, result: u64) -> bool {
    match op {
        KvOp::Get(_) => false,
        KvOp::Set(..) | KvOp::Multi(_) => true,
        KvOp::Cas(..) | KvOp::Del(_) => result != 0,
    }
}

/// Compare a recovered image with the live keyspace: every key's
/// presence and value must agree.
fn image_mismatches(ks: &KeySpace, at: &Atomic<Backend>, image: &Recovery) -> usize {
    (0..KV_CAPACITY)
        .filter(|&k| {
            let word = |key: usize| image.values.get(&(key as u64)).copied().unwrap_or(0);
            let recovered = (word(KV_CAPACITY + k) == 1).then(|| word(k));
            ks.get(at, k as i64) != recovered
        })
        .count()
}

impl Workload for KvDurable {
    const NAME: &'static str = "kv-durable";
    const SPAN_NAMES: &'static [&'static str] = SPAN_NAMES;

    type Inputs = Inputs;
    type System = DurableSystem;

    fn generate(seed: u64) -> Inputs {
        generate(seed, &ops::durable_mix(), DURABLE_CLIENTS, DURABLE_POOL_OPS)
    }

    fn build(inputs: &Inputs, env: &Env, nth: usize) -> DurableSystem {
        let dir = env.dir.join(format!("store-{nth}"));
        let raw: Arc<dyn Vfs> = Arc::new(StdVfs::new(&dir).expect("create the store directory"));
        let vfs: Arc<dyn Vfs> = if env.traced {
            Arc::new(TimedVfs(Arc::clone(&raw)))
        } else {
            Arc::clone(&raw)
        };
        let (at, ks, store) = prefilled_keyspace(&inputs.prefill, Some(vfs), env.traced);
        DurableSystem {
            at,
            ks,
            store: store.expect("a keyspace given a vfs has a store"),
            dir,
            vfs: raw,
        }
    }

    fn start(inputs: Inputs, sys: DurableSystem, _env: &Env) -> Self {
        let wal_at_start = sys.store.wal().stats();
        Self {
            cursors: vec![Cursor::default(); inputs.pools.len()],
            lats: inputs
                .pools
                .iter()
                .map(|_| Vec::with_capacity(DURABLE_SLICE_OPS))
                .collect(),
            inputs,
            sys,
            wal_at_start,
            acknowledged_updates: 0,
        }
    }

    fn inputs(&self) -> &Inputs {
        &self.inputs
    }

    fn ref_slice(&mut self) -> Slice {
        let start = Instant::now();
        reference::raw_log_slice(self.sys.vfs.as_ref(), DURABLE_REF_SLICE_OPS)
            .expect("the reference log is writable");
        Slice {
            ops: DURABLE_REF_SLICE_OPS as u64,
            ns: start.elapsed().as_nanos() as u64,
            failed: 0,
        }
    }

    fn work_slice(&mut self, lat: &mut Latencies, traced: bool) -> Slice {
        let (ks, at, slice_no) = (&self.sys.ks, &self.sys.at, trace::slice());
        let replays: Vec<Cursor> = self.cursors.clone();
        let gate = Barrier::new(self.inputs.pools.len());
        // Each client reports when it passed the gate, how long it ran
        // and how many of its operations changed the keyspace.
        let spans: Vec<(Instant, Slice, u64)> = std::thread::scope(|scope| {
            let clients: Vec<_> = self
                .inputs
                .pools
                .iter()
                .zip(&mut self.cursors)
                .zip(&mut self.lats)
                .map(|((pool, cursor), lat)| {
                    let gate = &gate;
                    scope.spawn(move || {
                        if traced {
                            trace::thread_begin(DURABLE_SLICE_OPS * 6);
                            trace::set_slice(slice_no);
                        }
                        gate.wait();
                        let mut updates = 0u64;
                        let began = Instant::now();
                        let slice = run_ops(
                            cursor.take(DURABLE_SLICE_OPS, pool),
                            lat,
                            None,
                            traced.then_some(&span_name as &dyn Fn(KvOp) -> &'static str),
                            |op| {
                                let result = exec(ks, at, op);
                                updates += u64::from(changed_the_keyspace(op, result));
                                result
                            },
                        );
                        trace::thread_end();
                        (began, slice, updates)
                    })
                })
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("a kv-durable client panicked"))
                .collect()
        });
        for ((pool, mut replay), client_lat) in
            self.inputs.pools.iter().zip(replays).zip(&self.lats)
        {
            let kinds = replay.take(DURABLE_SLICE_OPS, pool).map(|op| op.kind());
            classify(client_lat, kinds, lat);
        }
        self.acknowledged_updates += spans.iter().map(|c| c.2).sum::<u64>();
        let began = spans.iter().map(|c| c.0).min().expect("clients ran");
        let ended = spans
            .iter()
            .map(|c| c.0 + std::time::Duration::from_nanos(c.1.ns))
            .max()
            .expect("clients ran");
        Slice {
            ops: spans.iter().map(|c| c.1.ops).sum(),
            ns: (ended - began).as_nanos() as u64,
            failed: 0,
        }
    }

    fn stats(&self) -> StatsSnapshot {
        self.sys.at.stats()
    }

    /// Drop the store, reopen its directory, recover, and require the
    /// image to equal the live final state; then checkpoint the reopened
    /// store and require the same of the folded image.
    fn finish(self) -> Finish {
        let mut out = Finish::default();
        let wal = self.sys.store.wal().stats();
        let (records, flushes, bytes) = (
            wal.records - self.wal_at_start.records,
            wal.flushes - self.wal_at_start.flushes,
            wal.bytes - self.wal_at_start.bytes,
        );
        if let Some(err) = self.sys.store.io_error() {
            out.failures
                .push(format!("the WAL reported an IO error: {err}"));
        }
        if records != self.acknowledged_updates {
            out.failures.push(format!(
                "{} operations reported a change, the WAL holds {records} records",
                self.acknowledged_updates
            ));
        }
        let DurableSystem {
            at, ks, store, vfs, ..
        } = self.sys;
        drop(store);

        let reopen = Instant::now();
        let (reopened, image) = match DurableStore::open(Arc::clone(&vfs)) {
            Ok(opened) => opened,
            Err(err) => {
                out.failures
                    .push(format!("reopening the store failed: {err}"));
                return out;
            }
        };
        let recover_s = reopen.elapsed().as_secs_f64();
        let wrong = image_mismatches(&ks, &at, &image);
        if wrong > 0 {
            out.failures.push(format!(
                "{wrong} keys differ between the recovered image and the live state"
            ));
        }

        let fold = Instant::now();
        if let Err(err) = reopened.checkpoint() {
            out.failures.push(format!("checkpoint failed: {err}"));
        }
        let checkpoint_s = fold.elapsed().as_secs_f64();
        match durable::recover(vfs.as_ref()) {
            Ok(folded) => {
                let wrong = image_mismatches(&ks, &at, &folded);
                if wrong > 0 {
                    out.failures
                        .push(format!("{wrong} keys differ after the checkpoint"));
                }
            }
            Err(err) => out
                .failures
                .push(format!("recovery after the checkpoint failed: {err}")),
        }
        if let Some(err) = reopened.io_error() {
            out.failures
                .push(format!("the reopened WAL reported an IO error: {err}"));
        }

        out.layer = vec![
            ("durable.flushes", flushes as f64),
            (
                "durable.records_per_flush",
                records as f64 / flushes.max(1) as f64,
            ),
            (
                "durable.bytes_per_record",
                bytes as f64 / records.max(1) as f64,
            ),
            ("durable.recover_s", recover_s),
            ("durable.checkpoint_s", checkpoint_s),
        ];
        out
    }
}

impl std::fmt::Debug for KvDurable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvDurable")
            .field("dir", &self.sys.dir)
            .field("clients", &self.inputs.pools.len())
            .finish_non_exhaustive()
    }
}
