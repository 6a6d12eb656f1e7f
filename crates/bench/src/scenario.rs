//! The scenario registry: workloads written once against the `atomic`
//! facade, driven over every registered backend at runtime.
//!
//! Before this module existed, every figure sweep enumerated the four
//! STMs through generics — five near-identical monomorphized copies of the
//! same harness in `report.rs` and `figures.rs`, and adding a workload or
//! a backend meant touching each copy. Now a workload is one
//! [`Workload`] implementation over the facade-level collection layer
//! (`Box<dyn TxSet>` + [`Atomic`]), a backend is one [`BackendRegistry`]
//! entry, and the matrix runner sweeps `scenarios × backends × threads`
//! from runtime lists — exactly how the elastic-transaction lineage this
//! paper builds on was itself evaluated: one harness, N pluggable TMs.
//!
//! Registered scenarios:
//!
//! | name | structure | mix |
//! |---|---|---|
//! | `fig6` | `LinkedListSet` | paper §VII-A (80% contains, composed updates) |
//! | `fig7` | `SkipListSet` | paper §VII-A |
//! | `fig8` | `HashSet` @ load factor 512 | paper §VII-A |
//! | `bank-transfer` | 2 × `HashSet` | move-heavy: 30% cross-set `move_entry` |
//! | `queue-snapshot` | 2 × `TxQueue` | read-mostly: 80% peek/len snapshots |
//! | `or-else-fallback` | 2 × `TxQueue` | `or_else` drain: primary retries on empty, fallback serves |
//! | `contention-sweep` | 8 hot `TVar`s + gate | retry-storm pressure: hot RMWs + gated `or_else` retries |
//! | `fsync-batch` | 64 `TVar` slots | write-heavy: nearly every op commits an update (the `--durable` axis's group-commit showcase) |
//! | `wake-storm` | 4 mailbox `TVar`s | producers wake parked `retry()` consumers; rows carry wakeup-latency percentiles |
//! | `waiter-army` | 1 × `TxQueue` | 85% blocking dequeues park on the head links; 15% enqueue bursts wake the crowd |
//! | `txkv-uniform` | `KeySpace` | txkv service mix, uniform keys (the skew sweep's baseline) |
//! | `txkv-zipf` | `KeySpace` | txkv service mix, zipfian(0.99) keys |
//! | `txkv-hotspot` | `KeySpace` | txkv service mix, 90% of ops on 10% of keys |
//! | `txkv-multi4` | `KeySpace` | MULTI-heavy, 4 keys per transaction (the MULTI-size sweep) |
//! | `txkv-multi16` | `KeySpace` | MULTI-heavy, 16 keys per transaction |
//! | `txkv-read-heavy` | `KeySpace` | 95% GET (the read/write-mix sweep's read end) |
//! | `txkv-write-heavy` | `KeySpace` | 70% updates (the mix sweep's write end) |
//!
//! The `txkv-*` family drives the service layer (`crates/txkv`) and is the
//! reason rows carry latency percentiles: each step is timed and recorded
//! into the keyspace's lock-free histogram, and [`run_timed_dyn`] drains
//! the histogram into the measurement's `p50/p99/p999` fields per window.
//! The knobs (key distribution, op mix, MULTI size) are baked into the
//! scenario names because [`ScenarioSpec`] construction is a plain fn
//! pointer — each sweep point is its own named, reproducible row.

use crate::harness::Measurement;
use crate::report::{paper_hash_buckets, Structure};
use crate::workload::{thread_seed, Mix, WorkOp, DEFAULT_INITIAL_SIZE};
use cec::queue::{dequeue_or_else, transfer, TxQueue};
use cec::seq::{SeqHashSet, SeqLinkedListSet, SeqSet, SeqSkipListSet};
use cec::{move_entry, total_size, HashSet, LinkedListSet, SetExt, SkipListSet, TxSet};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use stm_core::api::{Atomic, Policy};
use stm_core::dynstm::{Backend, BackendRegistry};
use stm_core::{StmConfig, TVar};

/// A benchmark workload instance, bound to its data-structure state but
/// *not* to any STM: every operation goes through the `atomic` facade
/// over an erased [`Backend`].
///
/// One instance must only ever be driven by one backend (transactional
/// versions are clock-relative), so the matrix runner builds a fresh
/// instance per backend.
pub trait Workload: Sync {
    /// Populate the structure(s) before measuring, deterministically per
    /// `seed`.
    fn prefill(&self, at: &Atomic<Backend>, seed: u64);

    /// Execute one sampled high-level operation.
    fn step(&self, at: &Atomic<Backend>, rng: &mut SmallRng);

    /// Drain and return per-op latency percentiles recorded since the
    /// last call, for workloads that time their steps (the txkv family).
    /// The default — throughput-only workloads — records nothing.
    fn take_latency(&self) -> Option<txkv::LatencySummary> {
        None
    }
}

/// One registered scenario: a stable name, the structure label it runs
/// over, and a constructor for per-backend workload instances.
pub struct ScenarioSpec {
    name: &'static str,
    summary: &'static str,
    structure: &'static str,
    uses_composed_pct: bool,
    build: fn(Mix) -> Box<dyn Workload + Send + Sync>,
    /// Uninstrumented single-threaded reference, where one exists (the
    /// paper's "Sequential" line for the figure scenarios).
    sequential: Option<fn(Mix, Duration, u64) -> Measurement>,
}

impl core::fmt::Debug for ScenarioSpec {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ScenarioSpec")
            .field("name", &self.name)
            .field("structure", &self.structure)
            .finish()
    }
}

impl ScenarioSpec {
    /// The registry key ("fig6", "bank-transfer", …).
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// One-line description for `--list` style output.
    #[must_use]
    pub fn summary(&self) -> &'static str {
        self.summary
    }

    /// Label of the structure(s) the scenario exercises.
    #[must_use]
    pub fn structure(&self) -> &'static str {
        self.structure
    }

    /// Whether the paper's composed-update percentage applies (the figure
    /// scenarios sweep it; the non-paper scenarios fix their own mixes).
    #[must_use]
    pub fn uses_composed_pct(&self) -> bool {
        self.uses_composed_pct
    }

    /// Build a fresh workload instance for one backend.
    #[must_use]
    pub fn build(&self, mix: Mix) -> Box<dyn Workload + Send + Sync> {
        (self.build)(mix)
    }

    /// Run the sequential reference, if the scenario has one.
    #[must_use]
    pub fn run_sequential(&self, mix: Mix, duration: Duration, seed: u64) -> Option<Measurement> {
        self.sequential.map(|f| f(mix, duration, seed))
    }
}

// ---------------------------------------------------------------------
// Paper workload (Figs. 6–8) over a facade-erased set.
// ---------------------------------------------------------------------

struct SetMixWorkload {
    set: Box<dyn TxSet + Send + Sync>,
    mix: Mix,
}

impl Workload for SetMixWorkload {
    fn prefill(&self, at: &Atomic<Backend>, seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut inserted = 0usize;
        while inserted < DEFAULT_INITIAL_SIZE {
            if self.set.add(at, rng.gen_range(0..self.mix.key_range)) {
                inserted += 1;
            }
        }
    }

    fn step(&self, at: &Atomic<Backend>, rng: &mut SmallRng) {
        match self.mix.sample(rng) {
            WorkOp::Contains(k) => {
                self.set.contains(at, k);
            }
            WorkOp::Add(k) => {
                self.set.add(at, k);
            }
            WorkOp::Remove(k) => {
                self.set.remove(at, k);
            }
            WorkOp::AddAll(ks) => {
                self.set.add_all(at, &ks);
            }
            WorkOp::RemoveAll(ks) => {
                self.set.remove_all(at, &ks);
            }
        }
    }
}

/// The facade-erased paper workload for one figure structure (shared by
/// the scenario registry, `report::run_figure` and the Criterion benches).
#[must_use]
pub fn build_set_workload(structure: Structure, mix: Mix) -> Box<dyn Workload + Send + Sync> {
    let set: Box<dyn TxSet + Send + Sync> = match structure {
        Structure::LinkedList => Box::new(LinkedListSet::new()),
        Structure::SkipList => Box::new(SkipListSet::new()),
        Structure::HashSet => Box::new(HashSet::new(paper_hash_buckets())),
    };
    Box::new(SetMixWorkload { set, mix })
}

fn build_fig6(mix: Mix) -> Box<dyn Workload + Send + Sync> {
    build_set_workload(Structure::LinkedList, mix)
}

fn build_fig7(mix: Mix) -> Box<dyn Workload + Send + Sync> {
    build_set_workload(Structure::SkipList, mix)
}

fn build_fig8(mix: Mix) -> Box<dyn Workload + Send + Sync> {
    build_set_workload(Structure::HashSet, mix)
}

fn sequential_figure(structure: Structure, mix: Mix, duration: Duration, seed: u64) -> Measurement {
    let mut set: Box<dyn SeqSet> = match structure {
        Structure::LinkedList => Box::new(SeqLinkedListSet::new()),
        Structure::SkipList => Box::new(SeqSkipListSet::new()),
        Structure::HashSet => Box::new(SeqHashSet::new(paper_hash_buckets())),
    };
    crate::harness::prefill_sequential(set.as_mut(), mix, DEFAULT_INITIAL_SIZE, seed);
    crate::harness::run_sequential(set.as_mut(), duration, mix, seed)
}

fn sequential_fig6(mix: Mix, duration: Duration, seed: u64) -> Measurement {
    sequential_figure(Structure::LinkedList, mix, duration, seed)
}

fn sequential_fig7(mix: Mix, duration: Duration, seed: u64) -> Measurement {
    sequential_figure(Structure::SkipList, mix, duration, seed)
}

fn sequential_fig8(mix: Mix, duration: Duration, seed: u64) -> Measurement {
    sequential_figure(Structure::HashSet, mix, duration, seed)
}

// ---------------------------------------------------------------------
// Bank-transfer scenario: move-heavy cross-set composition.
// ---------------------------------------------------------------------

/// Accounts per bank set (half the paper's initial size in each of the
/// two sets, so total state matches the figure scenarios).
const BANK_ACCOUNTS_PER_SET: usize = DEFAULT_INITIAL_SIZE / 2;

struct BankWorkload {
    checking: HashSet,
    savings: HashSet,
    key_range: i64,
}

impl BankWorkload {
    fn new(mix: Mix) -> Self {
        Self {
            checking: HashSet::new(paper_hash_buckets()),
            savings: HashSet::new(paper_hash_buckets()),
            key_range: mix.key_range,
        }
    }
}

impl Workload for BankWorkload {
    fn prefill(&self, at: &Atomic<Backend>, seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for set in [&self.checking, &self.savings] {
            let mut inserted = 0usize;
            while inserted < BANK_ACCOUNTS_PER_SET {
                if set.add(at, rng.gen_range(0..self.key_range)) {
                    inserted += 1;
                }
            }
        }
    }

    fn step(&self, at: &Atomic<Backend>, rng: &mut SmallRng) {
        let roll = rng.gen_range(0..100u32);
        let k = rng.gen_range(0..self.key_range);
        if roll < 60 {
            // Balance lookup on either ledger.
            if roll % 2 == 0 {
                self.checking.contains(at, k);
            } else {
                self.savings.contains(at, k);
            }
        } else if roll < 90 {
            // The move-heavy part: an account hops ledgers atomically —
            // the paper's introduction example, impossible to compose
            // deadlock-free from a lock-based library.
            if rng.gen_bool(0.5) {
                move_entry(at, &self.checking, &self.savings, k, k);
            } else {
                move_entry(at, &self.savings, &self.checking, k, k);
            }
        } else if roll < 98 {
            // Open/close accounts to keep churn on both arenas.
            if rng.gen_bool(0.5) {
                self.checking.add(at, k);
            } else {
                self.savings.remove(at, k);
            }
        } else {
            // Cross-ledger audit: an atomic total no lock-free library
            // can provide.
            total_size(at, &self.checking, &self.savings);
        }
    }
}

fn build_bank(mix: Mix) -> Box<dyn Workload + Send + Sync> {
    Box::new(BankWorkload::new(mix))
}

// ---------------------------------------------------------------------
// Queue-snapshot scenario: read-mostly over composable FIFO queues.
// ---------------------------------------------------------------------

/// Elements prefilled into each queue. Deliberately smaller than the set
/// scenarios: `len` walks the whole queue in one regular transaction, so
/// the snapshot cost scales with this.
const QUEUE_PREFILL: i64 = 256;

struct QueueSnapshotWorkload {
    hot: TxQueue,
    archive: TxQueue,
    key_range: i64,
}

impl Workload for QueueSnapshotWorkload {
    fn prefill(&self, at: &Atomic<Backend>, seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for q in [&self.hot, &self.archive] {
            for _ in 0..QUEUE_PREFILL {
                q.enqueue(at, rng.gen_range(0..self.key_range));
            }
        }
    }

    fn step(&self, at: &Atomic<Backend>, rng: &mut SmallRng) {
        // The update flows are balanced in expectation (hot: +6% enqueue,
        // −6% transfer out; archive: +6% transfer in, −6% dequeue), so
        // queue length only random-walks around the prefill size instead
        // of drifting — `len` snapshots cost the same at every point of a
        // thread sweep and rows stay comparable across the thread axis.
        let roll = rng.gen_range(0..100u32);
        if roll < 47 {
            // Cheap read: front of either queue.
            if roll % 2 == 0 {
                self.hot.peek(at);
            } else {
                self.archive.peek(at);
            }
        } else if roll < 82 {
            // The snapshot: a *consistent* atomic count — the operation
            // the JDK's weakly consistent iterators cannot offer. A long
            // read-only transaction, which is where elastic reads shine.
            if roll % 2 == 0 {
                self.hot.len(at);
            } else {
                self.archive.len(at);
            }
        } else if roll < 88 {
            self.hot.enqueue(at, rng.gen_range(0..self.key_range));
        } else if roll < 94 {
            self.archive.dequeue(at);
        } else {
            // Composed cross-queue move: hot → archive.
            transfer(at, &self.hot, &self.archive);
        }
    }
}

fn build_queue_snapshot(mix: Mix) -> Box<dyn Workload + Send + Sync> {
    Box::new(QueueSnapshotWorkload {
        hot: TxQueue::new(),
        archive: TxQueue::new(),
        key_range: mix.key_range,
    })
}

// ---------------------------------------------------------------------
// Or-else-fallback scenario: the facade's alternative composition under
// load — the primary path retries (on emptiness), the fallback serves.
// ---------------------------------------------------------------------

/// Prefill of the (soon-starved) primary queue.
const ORELSE_PRIMARY_PREFILL: i64 = 64;
/// Prefill of the fallback queue the drain falls through to.
const ORELSE_FALLBACK_PREFILL: i64 = 512;

struct OrElseFallbackWorkload {
    primary: TxQueue,
    fallback: TxQueue,
    key_range: i64,
}

impl Workload for OrElseFallbackWorkload {
    fn prefill(&self, at: &Atomic<Backend>, seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..ORELSE_PRIMARY_PREFILL {
            self.primary.enqueue(at, rng.gen_range(0..self.key_range));
        }
        for _ in 0..ORELSE_FALLBACK_PREFILL {
            self.fallback.enqueue(at, rng.gen_range(0..self.key_range));
        }
    }

    fn step(&self, at: &Atomic<Backend>, rng: &mut SmallRng) {
        // Drains outnumber refills (55% vs 45%), so the primary queue
        // starves within the warmup: from then on most drains take the
        // `or_else` path — the primary branch explicit-retries on empty
        // and the fallback branch serves. This is the scenario's point:
        // `explicit_retries` shows up in the stats column while the
        // conflict abort rate stays near zero.
        let roll = rng.gen_range(0..100u32);
        if roll < 55 {
            dequeue_or_else(at, &self.primary, &self.fallback);
        } else if roll < 75 {
            self.primary.enqueue(at, rng.gen_range(0..self.key_range));
        } else {
            self.fallback.enqueue(at, rng.gen_range(0..self.key_range));
        }
    }
}

fn build_or_else_fallback(mix: Mix) -> Box<dyn Workload + Send + Sync> {
    Box::new(OrElseFallbackWorkload {
        primary: TxQueue::new(),
        fallback: TxQueue::new(),
        key_range: mix.key_range,
    })
}

// ---------------------------------------------------------------------
// Contention-sweep scenario: retry-storm pressure on the arbitration.
// ---------------------------------------------------------------------

/// Hot read-modify-write targets: few enough that concurrent workers
/// collide constantly, so the contention manager has conflicts to
/// arbitrate.
const SWEEP_HOT_VARS: usize = 8;

/// The forced-contention workload: retry-storm pressure on the
/// contention manager:
///
/// * 50% hot increments — read-modify-write on one of
///   [`SWEEP_HOT_VARS`] shared counters, the densest write-write
///   conflict surface the facade can produce;
/// * 25% gated `or_else` drains — the primary branch explicit-retries
///   whenever the gate is odd (which the remaining ops keep toggling),
///   so even a single-threaded run storms the retry path and exercises
///   CM pacing;
/// * 25% gate flips.
///
/// Unlike the set scenarios there is no structure to traverse: the
/// transactions are tiny and conflict-dense on purpose, putting the
/// arbitration — not the data structure — on the critical path.
struct ContentionSweepWorkload {
    hot: Vec<TVar<u64>>,
    gate: TVar<u64>,
}

impl ContentionSweepWorkload {
    fn new() -> Self {
        Self {
            hot: (0..SWEEP_HOT_VARS as u64).map(TVar::new).collect(),
            gate: TVar::new(0),
        }
    }
}

impl Workload for ContentionSweepWorkload {
    fn prefill(&self, at: &Atomic<Backend>, seed: u64) {
        // Start with the gate odd (closed) so the very first drains
        // already retry; the seed only perturbs the hot counters.
        at.run(Policy::Regular, |tx| {
            tx.set(&self.gate, 1)?;
            for (i, v) in self.hot.iter().enumerate() {
                tx.set(v, seed.wrapping_add(i as u64))?;
            }
            Ok(())
        });
    }

    fn step(&self, at: &Atomic<Backend>, rng: &mut SmallRng) {
        let roll = rng.gen_range(0..100u32);
        if roll < 50 {
            let i = rng.gen_range(0..SWEEP_HOT_VARS as i64) as usize;
            at.run(Policy::Regular, |tx| {
                tx.modify(&self.hot[i], |v| v.wrapping_add(1)).map(|_| ())
            });
        } else if roll < 75 {
            at.or_else(
                Policy::Regular,
                |tx| {
                    if tx.get(&self.gate)? % 2 == 1 {
                        // Gate closed: storm the retry path.
                        return tx.retry();
                    }
                    let mut acc = 0u64;
                    for v in &self.hot[..4] {
                        acc = acc.wrapping_add(tx.get(v)?);
                    }
                    Ok(acc)
                },
                |tx| tx.modify(&self.gate, |g| g.wrapping_add(1)),
            );
        } else {
            at.run(Policy::Regular, |tx| {
                tx.modify(&self.gate, |g| g ^ 1).map(|_| ())
            });
        }
    }
}

fn build_contention_sweep(_mix: Mix) -> Box<dyn Workload + Send + Sync> {
    Box::new(ContentionSweepWorkload::new())
}

// ---------------------------------------------------------------------
// Fsync-batch scenario: write-heavy commits for the durability axis.
// ---------------------------------------------------------------------

/// Independent write targets: enough that conflict aborts stay rare, so
/// nearly every op is a *successful update commit* — the event that costs
/// an fsync under `--durable`.
const FSYNC_BATCH_VARS: usize = 64;

/// The `--durable` axis's showcase: almost every operation commits a
/// small update, so with a commit hook installed every op pays the WAL
/// append and the group-commit protocol has a steady committer stream to
/// batch. Single-threaded, each commit tends to buy its own fsync; with
/// more committers one leader fsync covers a whole batch, which is the
/// amortization the thread sweep makes visible. Without `--durable` it is
/// simply a write-heavy low-conflict workload.
///
/// * 70% single-slot increments (one-word WAL records);
/// * 20% two-slot transfers (two-word records, varying the batch shape);
/// * 10% read-only sums over 8 slots — commits with an empty write set,
///   which the hook seam must skip for free.
struct FsyncBatchWorkload {
    slots: Vec<TVar<u64>>,
}

impl FsyncBatchWorkload {
    fn new() -> Self {
        Self {
            slots: (0..FSYNC_BATCH_VARS as u64).map(TVar::new).collect(),
        }
    }
}

impl Workload for FsyncBatchWorkload {
    fn prefill(&self, at: &Atomic<Backend>, seed: u64) {
        at.run(Policy::Regular, |tx| {
            for (i, v) in self.slots.iter().enumerate() {
                tx.set(v, seed.wrapping_add(i as u64))?;
            }
            Ok(())
        });
    }

    fn step(&self, at: &Atomic<Backend>, rng: &mut SmallRng) {
        let roll = rng.gen_range(0..100u32);
        let i = rng.gen_range(0..FSYNC_BATCH_VARS as i64) as usize;
        if roll < 70 {
            at.run(Policy::Regular, |tx| {
                tx.modify(&self.slots[i], |v| v.wrapping_add(1)).map(|_| ())
            });
        } else if roll < 90 {
            let j = (i + 1 + rng.gen_range(0..(FSYNC_BATCH_VARS - 1) as i64) as usize)
                % FSYNC_BATCH_VARS;
            at.run(Policy::Regular, |tx| {
                let take = tx.get(&self.slots[i])? & 0xF;
                tx.modify(&self.slots[i], |v| v.wrapping_sub(take))?;
                tx.modify(&self.slots[j], |v| v.wrapping_add(take))
                    .map(|_| ())
            });
        } else {
            at.run(Policy::Regular, |tx| {
                let mut acc = 0u64;
                for v in &self.slots[i.min(FSYNC_BATCH_VARS - 8)..][..8] {
                    acc = acc.wrapping_add(tx.get(v)?);
                }
                Ok(acc)
            });
        }
    }
}

fn build_fsync_batch(_mix: Mix) -> Box<dyn Workload + Send + Sync> {
    Box::new(FsyncBatchWorkload::new())
}

// ---------------------------------------------------------------------
// Wake-storm scenario: committing producers wake parked consumers.
// ---------------------------------------------------------------------

/// Mailbox slots the storm runs over: few enough that several consumers
/// pile up parked on the same slot, so one producing commit wakes a crowd.
const STORM_SLOTS: usize = 4;
/// Parks a consumer tolerates before giving its step up. Bounds the
/// produceless corner (a single-threaded row samples consumers far more
/// often than producers), so no step can block past its patience — and
/// keeps a failed consume cheap enough that producer steps still flow
/// at low thread counts.
const STORM_PATIENCE: u32 = 6;

/// The wake/notify subsystem's showcase: 40% of steps are *producers*
/// that publish a timestamped token into a random mailbox slot, 60% are
/// *consumers* that take the slot's token — or, finding it empty, call
/// `retry()` and park on the slot until a producing commit wakes them.
/// Consumers that actually parked record publish-to-consume time into
/// the latency histogram, so the row's p50/p99/p999 are *wakeup latency*
/// percentiles, not op service time. Between park and wake a consumer
/// burns no CPU — the throughput column measures the woken path, not a
/// spin loop.
struct WakeStormWorkload {
    slots: Vec<TVar<u64>>,
    epoch: Instant,
    hist: txkv::LatencyHistogram,
}

impl WakeStormWorkload {
    fn new() -> Self {
        Self {
            slots: (0..STORM_SLOTS).map(|_| TVar::new(0u64)).collect(),
            epoch: Instant::now(),
            hist: txkv::LatencyHistogram::new(),
        }
    }

    fn now_us(&self) -> u64 {
        // 0 marks "empty slot", so timestamps are forced odd.
        (self.epoch.elapsed().as_micros() as u64) | 1
    }
}

impl Workload for WakeStormWorkload {
    fn prefill(&self, _at: &Atomic<Backend>, _seed: u64) {
        // Slots start empty: the first consumers park immediately.
    }

    fn step(&self, at: &Atomic<Backend>, rng: &mut SmallRng) {
        let roll = rng.gen_range(0..100u32);
        let i = rng.gen_range(0..STORM_SLOTS as i64) as usize;
        if roll < 40 {
            // Producer: publish a token; the commit notifies every
            // consumer parked on this slot's wait list.
            let ts = self.now_us();
            at.run(Policy::Regular, |tx| tx.set(&self.slots[i], ts));
        } else {
            // Consumer: take the token or park on the slot.
            let mut left = STORM_PATIENCE;
            let taken = at.run(Policy::Regular, |tx| {
                let ts = tx.get(&self.slots[i])?;
                if ts == 0 {
                    if left == 0 {
                        return Ok(0);
                    }
                    left -= 1;
                    return tx.retry();
                }
                tx.set(&self.slots[i], 0)?;
                Ok(ts)
            });
            // Only consumers that really waited record latency: the gap
            // from the producer's publish to this consume is wake-up
            // latency, not slot dwell time.
            if taken != 0 && left < STORM_PATIENCE {
                self.hist.record_us(self.now_us().saturating_sub(taken));
            }
        }
    }

    fn take_latency(&self) -> Option<txkv::LatencySummary> {
        Some(self.hist.drain())
    }
}

fn build_wake_storm(_mix: Mix) -> Box<dyn Workload + Send + Sync> {
    Box::new(WakeStormWorkload::new())
}

// ---------------------------------------------------------------------
// Waiter-army scenario: a parked crowd over one blocking TxQueue.
// ---------------------------------------------------------------------

/// Parks an army consumer tolerates before abandoning its step (same
/// produceless-corner bound as [`STORM_PATIENCE`]).
const ARMY_PATIENCE: u32 = 8;
/// Elements per producer burst: each committed enqueue of the burst
/// wakes the whole crowd parked on the head links.
const ARMY_BURST: usize = 4;

/// The producer/consumer army: 85% of steps are blocking dequeues on one
/// shared [`TxQueue`], 15% are enqueue bursts. Consumption outpaces
/// production (0.85 vs 0.60 elements per step in expectation), so the
/// queue hovers around empty and most dequeues park on the head links —
/// across a timed multi-thread run the army racks up thousands of parked
/// waiter episodes (`retry_parks`), every one of them woken by a
/// producer's commit or a bounded-timeout backstop, never by spinning.
struct WaiterArmyWorkload {
    work: TxQueue,
    key_range: i64,
}

impl Workload for WaiterArmyWorkload {
    fn prefill(&self, at: &Atomic<Backend>, seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        // A small float of elements so the first consumers race real
        // producers instead of all parking at once on a cold queue.
        for _ in 0..ARMY_BURST {
            self.work.enqueue(at, rng.gen_range(0..self.key_range));
        }
    }

    fn step(&self, at: &Atomic<Backend>, rng: &mut SmallRng) {
        if rng.gen_range(0..100u32) < 15 {
            for _ in 0..ARMY_BURST {
                self.work.enqueue(at, rng.gen_range(0..self.key_range));
            }
        } else {
            self.work.dequeue_blocking_bounded(at, ARMY_PATIENCE);
        }
    }
}

fn build_waiter_army(mix: Mix) -> Box<dyn Workload + Send + Sync> {
    Box::new(WaiterArmyWorkload {
        work: TxQueue::new(),
        key_range: mix.key_range,
    })
}

// ---------------------------------------------------------------------
// The txkv service family: keyed traffic with latency percentiles.
// ---------------------------------------------------------------------

/// Key universe of the txkv scenarios (matches the paper mixes'
/// `DEFAULT_KEY_RANGE`; prefilled to 50%).
const TXKV_CAPACITY: usize = 1 << 13;

/// The service-layer workload: each step samples a key from the baked
/// distribution, runs one GET/SET/CAS/DEL/MULTI against the keyspace,
/// and records the op's service time into the lock-free histogram.
/// Latency is closed-loop here (service time, not queueing delay) so
/// rows stay comparable across backends of very different
/// capacity; the open-loop driver with arrival pacing lives in
/// `txkv::loadgen` and the `examples/txkv_demo.rs` walkthrough.
struct TxKvWorkload {
    ks: txkv::KeySpace,
    sampler: txkv::KeySampler,
    mix: txkv::OpMix,
    multi_size: usize,
    hist: txkv::LatencyHistogram,
}

impl TxKvWorkload {
    fn new(dist: txkv::KeyDist, mix: txkv::OpMix, multi_size: usize) -> Self {
        Self {
            ks: txkv::KeySpace::new(txkv::ShardKind::Hash, 1, TXKV_CAPACITY),
            sampler: txkv::KeySampler::new(dist, TXKV_CAPACITY),
            mix,
            multi_size,
            hist: txkv::LatencyHistogram::new(),
        }
    }
}

impl Workload for TxKvWorkload {
    fn prefill(&self, at: &Atomic<Backend>, seed: u64) {
        txkv::loadgen::prefill(&self.ks, at, seed);
    }

    fn step(&self, at: &Atomic<Backend>, rng: &mut SmallRng) {
        let started = Instant::now();
        txkv::loadgen::run_one_op(&self.ks, at, rng, &self.sampler, &self.mix, self.multi_size);
        self.hist.record_us(started.elapsed().as_micros() as u64);
    }

    fn take_latency(&self) -> Option<txkv::LatencySummary> {
        Some(self.hist.drain())
    }
}

/// A MULTI-heavy mix for the MULTI-size sweep: every fifth op is a
/// multi-key read-modify-write.
fn txkv_multi_mix() -> txkv::OpMix {
    txkv::OpMix {
        get_pct: 60,
        set_pct: 15,
        cas_pct: 3,
        del_pct: 2,
        multi_pct: 20,
    }
}

fn build_txkv_uniform(_mix: Mix) -> Box<dyn Workload + Send + Sync> {
    Box::new(TxKvWorkload::new(
        txkv::KeyDist::Uniform,
        txkv::OpMix::service(),
        4,
    ))
}

fn build_txkv_zipf(_mix: Mix) -> Box<dyn Workload + Send + Sync> {
    Box::new(TxKvWorkload::new(
        txkv::KeyDist::Zipfian { theta: 0.99 },
        txkv::OpMix::service(),
        4,
    ))
}

fn build_txkv_hotspot(_mix: Mix) -> Box<dyn Workload + Send + Sync> {
    Box::new(TxKvWorkload::new(
        txkv::KeyDist::Hotspot {
            hot_keys: 0.1,
            hot_ops: 0.9,
        },
        txkv::OpMix::service(),
        4,
    ))
}

fn build_txkv_multi4(_mix: Mix) -> Box<dyn Workload + Send + Sync> {
    Box::new(TxKvWorkload::new(
        txkv::KeyDist::Zipfian { theta: 0.99 },
        txkv_multi_mix(),
        4,
    ))
}

fn build_txkv_multi16(_mix: Mix) -> Box<dyn Workload + Send + Sync> {
    Box::new(TxKvWorkload::new(
        txkv::KeyDist::Zipfian { theta: 0.99 },
        txkv_multi_mix(),
        16,
    ))
}

fn build_txkv_read_heavy(_mix: Mix) -> Box<dyn Workload + Send + Sync> {
    Box::new(TxKvWorkload::new(
        txkv::KeyDist::Zipfian { theta: 0.99 },
        txkv::OpMix {
            get_pct: 95,
            set_pct: 3,
            cas_pct: 1,
            del_pct: 0,
            multi_pct: 1,
        },
        4,
    ))
}

fn build_txkv_write_heavy(_mix: Mix) -> Box<dyn Workload + Send + Sync> {
    // The write end of the mix sweep: most ops change a slot, and the
    // DELs and the inserts behind SETs change presence words.
    Box::new(TxKvWorkload::new(
        txkv::KeyDist::Zipfian { theta: 0.99 },
        txkv::OpMix {
            get_pct: 30,
            set_pct: 40,
            cas_pct: 10,
            del_pct: 10,
            multi_pct: 10,
        },
        4,
    ))
}

// ---------------------------------------------------------------------
// Registries.
// ---------------------------------------------------------------------

/// Every backend this workspace ships, wired from the individual crates'
/// `register_backends` hooks.
#[must_use]
pub fn backend_registry() -> BackendRegistry {
    let mut reg = BackendRegistry::new();
    oe_stm::register_backends(&mut reg);
    stm_lsa::register_backends(&mut reg);
    stm_tl2::register_backends(&mut reg);
    stm_swiss::register_backends(&mut reg);
    reg
}

/// The backends the paper's figures compare (everything except the
/// deliberately broken E-STM compatibility mode).
pub const FIGURE_BACKENDS: [&str; 4] = ["oe", "lsa", "tl2", "swiss"];

/// Every registered scenario, in display order.
#[must_use]
pub fn scenarios() -> Vec<ScenarioSpec> {
    vec![
        ScenarioSpec {
            name: "fig6",
            summary: "paper Fig. 6: LinkedListSet, §VII-A mix",
            structure: "LinkedListSet",
            uses_composed_pct: true,
            build: build_fig6,
            sequential: Some(sequential_fig6),
        },
        ScenarioSpec {
            name: "fig7",
            summary: "paper Fig. 7: SkipListSet, §VII-A mix",
            structure: "SkipListSet",
            uses_composed_pct: true,
            build: build_fig7,
            sequential: Some(sequential_fig7),
        },
        ScenarioSpec {
            name: "fig8",
            summary: "paper Fig. 8: HashSet @ load factor 512, §VII-A mix",
            structure: "HashSet",
            uses_composed_pct: true,
            build: build_fig8,
            sequential: Some(sequential_fig8),
        },
        ScenarioSpec {
            name: "bank-transfer",
            summary: "move-heavy: 30% atomic cross-set moves between two ledgers",
            structure: "2xHashSet",
            uses_composed_pct: false,
            build: build_bank,
            sequential: None,
        },
        ScenarioSpec {
            name: "queue-snapshot",
            summary: "read-mostly: 80% consistent peeks/counts over two TxQueues",
            structure: "2xTxQueue",
            uses_composed_pct: false,
            build: build_queue_snapshot,
            sequential: None,
        },
        ScenarioSpec {
            name: "or-else-fallback",
            summary: "or_else drain: starved primary retries, fallback queue serves",
            structure: "2xTxQueue",
            uses_composed_pct: false,
            build: build_or_else_fallback,
            sequential: None,
        },
        ScenarioSpec {
            name: "contention-sweep",
            summary: "retry-storm pressure: hot RMWs + gated or_else",
            structure: "8xTVar+gate",
            uses_composed_pct: false,
            build: build_contention_sweep,
            sequential: None,
        },
        ScenarioSpec {
            name: "fsync-batch",
            summary: "write-heavy update commits: group-commit batching (the --durable axis)",
            structure: "64xTVar",
            uses_composed_pct: false,
            build: build_fsync_batch,
            sequential: None,
        },
        ScenarioSpec {
            name: "wake-storm",
            summary: "producers wake parked retry() consumers; wakeup-latency percentiles",
            structure: "4xTVar-mailbox",
            uses_composed_pct: false,
            build: build_wake_storm,
            sequential: None,
        },
        ScenarioSpec {
            name: "waiter-army",
            summary: "blocking-dequeue army parks on one TxQueue; producer bursts wake the crowd",
            structure: "TxQueue",
            uses_composed_pct: false,
            build: build_waiter_army,
            sequential: None,
        },
        ScenarioSpec {
            name: "txkv-uniform",
            summary: "txkv service mix over uniform keys (skew sweep baseline)",
            structure: "KeySpace",
            uses_composed_pct: false,
            build: build_txkv_uniform,
            sequential: None,
        },
        ScenarioSpec {
            name: "txkv-zipf",
            summary: "txkv service mix over zipfian(0.99) keys (skew sweep)",
            structure: "KeySpace",
            uses_composed_pct: false,
            build: build_txkv_zipf,
            sequential: None,
        },
        ScenarioSpec {
            name: "txkv-hotspot",
            summary: "txkv service mix, 90% of ops on 10% of keys (skew sweep)",
            structure: "KeySpace",
            uses_composed_pct: false,
            build: build_txkv_hotspot,
            sequential: None,
        },
        ScenarioSpec {
            name: "txkv-multi4",
            summary: "txkv MULTI-heavy, 4 keys per txn (MULTI-size sweep)",
            structure: "KeySpace",
            uses_composed_pct: false,
            build: build_txkv_multi4,
            sequential: None,
        },
        ScenarioSpec {
            name: "txkv-multi16",
            summary: "txkv MULTI-heavy, 16 keys per txn (MULTI-size sweep)",
            structure: "KeySpace",
            uses_composed_pct: false,
            build: build_txkv_multi16,
            sequential: None,
        },
        ScenarioSpec {
            name: "txkv-read-heavy",
            summary: "txkv 95% GET (read end of the read/write-mix sweep)",
            structure: "KeySpace",
            uses_composed_pct: false,
            build: build_txkv_read_heavy,
            sequential: None,
        },
        ScenarioSpec {
            name: "txkv-write-heavy",
            summary: "txkv 70% updates (write end of the mix sweep)",
            structure: "KeySpace",
            uses_composed_pct: false,
            build: build_txkv_write_heavy,
            sequential: None,
        },
    ]
}

/// Look up a scenario by name.
#[must_use]
pub fn scenario(name: &str) -> Option<ScenarioSpec> {
    scenarios().into_iter().find(|s| s.name() == name)
}

// ---------------------------------------------------------------------
// The matrix runner.
// ---------------------------------------------------------------------

/// One measured data point of the matrix, with everything the machine-
/// comparable `BENCH.json` row needs.
#[derive(Debug, Clone)]
pub struct BenchRow {
    /// Scenario registry key ("fig6", "bank-transfer", …).
    pub scenario: String,
    /// Backend registry key ("tl2", "oe", …; "sequential" for the
    /// uninstrumented reference rows).
    pub backend: String,
    /// Backend display name ("TL2", "OE-STM", "Sequential", …).
    pub system: String,
    /// Structure label ("LinkedListSet", "2xTxQueue", …).
    pub structure: String,
    /// Worker threads.
    pub threads: usize,
    /// Composed-update percentage (0 for scenarios with fixed mixes).
    pub composed_pct: u32,
    /// `true` when the row's measurement subprocess exceeded the progress
    /// watchdog's wall-clock bound (`repro --max-run-secs`) and was
    /// killed: the measurement is zeroed and the row is a *livelock
    /// report*, not a data point. Always `false` for in-process runs.
    pub livelocked: bool,
    /// The measurement.
    pub m: Measurement,
}

impl BenchRow {
    /// Display name for tables: the system. Watchdog-killed rows carry a
    /// `LIVELOCK!` marker so a zeroed row can never be mistaken for a
    /// measured one.
    #[must_use]
    pub fn tagged_system(&self) -> String {
        if self.livelocked {
            format!("{} LIVELOCK!", self.system)
        } else {
            self.system.clone()
        }
    }
}

/// Timed facade run: `threads` workers drive `workload` over `at` for
/// `duration`; per-thread op streams derive from `seed`.
pub fn run_timed_dyn(
    at: &Atomic<Backend>,
    workload: &dyn Workload,
    threads: usize,
    duration: Duration,
    seed: u64,
) -> Measurement {
    at.reset_stats();
    let stop = AtomicBool::new(false);
    let total_ops = AtomicU64::new(0);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let stop = &stop;
            let total_ops = &total_ops;
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(thread_seed(seed, t));
                let mut ops = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    workload.step(at, &mut rng);
                    ops += 1;
                }
                total_ops.fetch_add(ops, Ordering::Relaxed);
            });
        }
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
    });
    let elapsed = started.elapsed();
    let m = Measurement::from_run(total_ops.load(Ordering::Relaxed), elapsed, &at.stats());
    // Per-window percentiles: draining here means a warmed workload
    // instance reused across thread counts reports each window's own
    // latency, not a running mixture.
    match workload.take_latency() {
        Some(latency) => m.with_latency(latency),
        None => m,
    }
}

/// Fixed-work facade run for the Criterion benches: every worker performs
/// exactly `ops_per_thread` operations.
pub fn run_fixed_dyn(
    at: &Atomic<Backend>,
    workload: &dyn Workload,
    threads: usize,
    ops_per_thread: u64,
    seed: u64,
) -> Duration {
    let started = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(thread_seed(seed, t));
                for _ in 0..ops_per_thread {
                    workload.step(at, &mut rng);
                }
            });
        }
    });
    started.elapsed()
}

/// What to sweep. Construct with [`MatrixPlan::new`] and adjust fields.
#[derive(Debug, Clone)]
pub struct MatrixPlan {
    /// Scenario names to run (must all be registered).
    pub scenarios: Vec<String>,
    /// Backend names to run (must all be registered).
    pub backends: Vec<String>,
    /// Thread counts per (scenario, backend) cell.
    pub threads: Vec<usize>,
    /// Wall-clock duration per data point.
    pub duration: Duration,
    /// Composed-update percentages for scenarios that sweep them.
    pub composed: Vec<u32>,
    /// Base seed (prefills and per-thread op streams derive from it).
    pub seed: u64,
    /// Include the uninstrumented sequential reference rows where a
    /// scenario has one.
    pub include_sequential: bool,
    /// Measure with durability on: every cell gets a fresh
    /// [`durable::DurableStore`] over a real temp directory (identity-mode
    /// heap — every committed write is WAL-logged at full fsync cost) and
    /// its hook installed via `StmConfig::with_commit_hook`. Sequential
    /// reference rows are unaffected (no STM, no commits to log).
    pub durable: bool,
}

impl MatrixPlan {
    /// A plan over every registered scenario and backend with the given
    /// sweep axes.
    #[must_use]
    pub fn new(threads: Vec<usize>, duration: Duration, composed: Vec<u32>, seed: u64) -> Self {
        Self {
            scenarios: scenarios().iter().map(|s| s.name().to_string()).collect(),
            backends: backend_registry()
                .names()
                .iter()
                .map(ToString::to_string)
                .collect(),
            threads,
            duration,
            composed,
            seed,
            include_sequential: true,
            durable: false,
        }
    }
}

/// The per-cell durability rig for [`run_matrix`]'s `--durable` axis: a
/// [`durable::DurableStore`] over a unique real-filesystem temp directory,
/// removed (store first, then directory) when the cell ends.
struct DurableCell {
    store: durable::DurableStore,
    dir: std::path::PathBuf,
}

impl DurableCell {
    fn open(cell_no: usize) -> Result<Self, String> {
        let dir =
            std::env::temp_dir().join(format!("repro-durable-{}-{cell_no}", std::process::id()));
        let vfs = durable::StdVfs::new(&dir)
            .map_err(|e| format!("cannot create durable dir {}: {e}", dir.display()))?;
        // Identity-mode heap: scenario workloads hide their TVars inside
        // data structures, so per-location registration is impossible —
        // and unnecessary, since the axis measures commit-time durability
        // cost, not restart-by-name recovery.
        let (store, _) = durable::DurableStore::open_identity(Arc::new(vfs))
            .map_err(|e| format!("cannot open durable store in {}: {e}", dir.display()))?;
        Ok(Self { store, dir })
    }

    fn hook(&self) -> Arc<dyn stm_core::hook::CommitHook> {
        self.store.hook()
    }
}

impl Drop for DurableCell {
    fn drop(&mut self) {
        if let Some(err) = self.store.io_error() {
            eprintln!(
                "warning: durable cell {} lost durability mid-measurement: {err}",
                self.dir.display()
            );
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Run the full `scenarios × composed × backends × threads` sweep.
///
/// Builds a fresh workload instance per (scenario, composed, backend)
/// cell — transactional state is never shared across backends — prefills
/// it once, and measures every thread count on the warmed instance.
/// Sequential reference rows are measured once per (scenario, composed).
///
/// # Errors
/// Returns `Err` with a message naming any unknown scenario or backend
/// (and the registered names for each).
pub fn run_matrix(plan: &MatrixPlan) -> Result<Vec<BenchRow>, String> {
    let registry = backend_registry();
    for name in &plan.backends {
        // Validate up front so a typo fails before any measurement runs;
        // the registry error lists the registered names. The spec lookup
        // is free — an instance is only built to obtain the error.
        if registry.get(name).is_none() {
            return Err(registry
                .build_default(name)
                .expect_err("get() returned None")
                .to_string());
        }
    }
    let specs: Vec<ScenarioSpec> = plan
        .scenarios
        .iter()
        .map(|name| {
            scenario(name).ok_or_else(|| {
                format!(
                    "unknown scenario {name:?}; registered: {}",
                    scenarios()
                        .iter()
                        .map(ScenarioSpec::name)
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            })
        })
        .collect::<Result<_, _>>()?;

    let mut rows = Vec::new();
    let mut cell_no = 0usize;
    for spec in &specs {
        let pcts: &[u32] = if spec.uses_composed_pct() {
            &plan.composed
        } else {
            &[0]
        };
        for &pct in pcts {
            let mix = if spec.uses_composed_pct() {
                Mix::paper(pct)
            } else {
                Mix::paper(0)
            };
            if plan.include_sequential {
                if let Some(m) = spec.run_sequential(mix, plan.duration, plan.seed) {
                    // The paper plots the sequential result as a flat
                    // reference across the thread axis; record it once per
                    // thread count for table symmetry.
                    for &t in &plan.threads {
                        rows.push(BenchRow {
                            scenario: spec.name().to_string(),
                            backend: "sequential".to_string(),
                            system: "Sequential".to_string(),
                            structure: spec.structure().to_string(),
                            threads: t,
                            composed_pct: pct,
                            livelocked: false,
                            m,
                        });
                    }
                }
            }
            for name in &plan.backends {
                // The durable rig lives exactly as long as the cell: a
                // fresh store (and temp dir) per (scenario, backend), torn
                // down before the next cell opens.
                let durable_cell = if plan.durable {
                    cell_no += 1;
                    Some(DurableCell::open(cell_no)?)
                } else {
                    None
                };
                let cfg = match &durable_cell {
                    Some(cell) => StmConfig::default().with_commit_hook(cell.hook()),
                    None => StmConfig::default(),
                };
                let at = Atomic::new(
                    registry
                        .build(name, cfg)
                        .expect("validated against the registry above"),
                );
                let workload = spec.build(mix);
                workload.prefill(&at, plan.seed);
                for &t in &plan.threads {
                    let m = run_timed_dyn(&at, &*workload, t, plan.duration, plan.seed);
                    rows.push(BenchRow {
                        scenario: spec.name().to_string(),
                        backend: at.backend().key().to_string(),
                        system: at.name().to_string(),
                        structure: spec.structure().to_string(),
                        threads: t,
                        composed_pct: pct,
                        livelocked: false,
                        m,
                    });
                }
            }
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_contains_all_shipped_backends() {
        let names = backend_registry().names();
        for expect in ["oe", "oe-estm-compat", "lsa", "tl2", "swiss"] {
            assert!(names.contains(&expect), "missing backend {expect}");
        }
        assert_eq!(names.len(), 5);
    }

    #[test]
    fn scenario_registry_covers_paper_and_new_workloads() {
        let names: Vec<_> = scenarios().iter().map(ScenarioSpec::name).collect();
        assert_eq!(
            names,
            vec![
                "fig6",
                "fig7",
                "fig8",
                "bank-transfer",
                "queue-snapshot",
                "or-else-fallback",
                "contention-sweep",
                "fsync-batch",
                "wake-storm",
                "waiter-army",
                "txkv-uniform",
                "txkv-zipf",
                "txkv-hotspot",
                "txkv-multi4",
                "txkv-multi16",
                "txkv-read-heavy",
                "txkv-write-heavy"
            ]
        );
        assert!(scenario("fig6").unwrap().uses_composed_pct());
        assert!(!scenario("bank-transfer").unwrap().uses_composed_pct());
        assert!(!scenario("contention-sweep").unwrap().uses_composed_pct());
        assert!(!scenario("fsync-batch").unwrap().uses_composed_pct());
        for s in scenarios() {
            assert_eq!(
                s.name().starts_with("txkv-"),
                s.structure() == "KeySpace",
                "{} structure {}",
                s.name(),
                s.structure()
            );
            if s.name().starts_with("txkv-") {
                assert!(!s.uses_composed_pct(), "{}", s.name());
            }
        }
        assert!(scenario("nope").is_none());
    }

    #[test]
    fn txkv_scenarios_report_latency_percentiles() {
        let plan = MatrixPlan {
            scenarios: vec!["txkv-zipf".into(), "txkv-multi4".into()],
            backends: vec!["oe".into(), "tl2".into()],
            threads: vec![1, 2],
            duration: Duration::from_millis(30),
            composed: vec![5],
            seed: 21,
            include_sequential: true,
            durable: false,
        };
        let rows = run_matrix(&plan).expect("valid plan");
        // No sequential reference: 2 scenarios × 2 backends × 2 threads.
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert!(r.m.ops > 0, "{}/{} produced no ops", r.scenario, r.backend);
            assert!(
                r.m.p50_us > 0.0 || r.m.p999_us > 0.0,
                "{}/{} @ {} threads: txkv rows must carry latency, got {:?}",
                r.scenario,
                r.backend,
                r.threads,
                r.m
            );
            assert!(r.m.p50_us <= r.m.p99_us && r.m.p99_us <= r.m.p999_us);
        }
        // The latency fields survive the JSON round trip (schema v2).
        let text = crate::json::render(&rows, 21);
        let back = crate::json::parse_rows(&text).expect("v2 rows round-trip");
        assert!(back.iter().any(|r| r.m.p99_us > 0.0));
    }

    #[test]
    fn non_txkv_scenarios_leave_latency_zeroed() {
        let plan = MatrixPlan {
            scenarios: vec!["fig8".into()],
            backends: vec!["tl2".into()],
            threads: vec![1],
            duration: Duration::from_millis(20),
            composed: vec![5],
            seed: 4,
            include_sequential: false,
            durable: false,
        };
        let rows = run_matrix(&plan).expect("valid plan");
        assert_eq!(rows[0].m.p50_us, 0.0);
        assert_eq!(rows[0].m.p999_us, 0.0);
    }

    #[test]
    fn tiny_matrix_covers_every_cell() {
        let plan = MatrixPlan {
            scenarios: vec![
                "fig8".into(),
                "bank-transfer".into(),
                "queue-snapshot".into(),
            ],
            backends: vec!["oe".into(), "tl2".into()],
            threads: vec![1, 2],
            duration: Duration::from_millis(25),
            composed: vec![5],
            seed: 42,
            include_sequential: true,
            durable: false,
        };
        let rows = run_matrix(&plan).expect("valid plan");
        // fig8: sequential + 2 backends; the other two scenarios: 2
        // backends each; times 2 thread counts.
        assert_eq!(rows.len(), (3 + 2 + 2) * 2);
        for r in &rows {
            assert!(r.m.ops > 0, "{}/{} produced no ops", r.scenario, r.backend);
            assert!((0.0..=1.0).contains(&r.m.abort_rate));
        }
        assert!(rows.iter().any(|r| r.backend == "sequential"));
    }

    #[test]
    fn unknown_names_are_reported() {
        let mut plan = MatrixPlan::new(vec![1], Duration::from_millis(5), vec![5], 1);
        plan.scenarios = vec!["nope".into()];
        assert!(run_matrix(&plan).unwrap_err().contains("unknown scenario"));
        let mut plan = MatrixPlan::new(vec![1], Duration::from_millis(5), vec![5], 1);
        plan.backends = vec!["nope".into()];
        let err = run_matrix(&plan).unwrap_err();
        assert!(err.contains("unknown backend"), "{err}");
        assert!(
            err.contains("tl2") && err.contains("oe-estm-compat"),
            "the error must list the registered backends: {err}"
        );
    }

    #[test]
    fn contention_sweep_storms_and_paces_the_retry_path() {
        let plan = MatrixPlan {
            scenarios: vec!["contention-sweep".into()],
            backends: vec!["tl2".into(), "oe".into()],
            threads: vec![1],
            duration: Duration::from_millis(30),
            composed: vec![5],
            seed: 9,
            include_sequential: true,
            durable: false,
        };
        let rows = run_matrix(&plan).expect("valid plan");
        // No sequential reference for this scenario: one row per backend.
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.m.ops > 0, "{} produced no ops", r.backend);
            assert!(
                r.m.explicit_retries > 0,
                "{}: the gated or_else must storm the retry path, got {:?}",
                r.backend,
                r.m
            );
            // An or_else alternation is paced like a conflict loss.
            assert!(r.m.cm_waits > 0, "{}: {:?}", r.backend, r.m);
        }
    }

    #[test]
    fn outherits_flow_through_to_measurements() {
        // OE-STM on a composed-heavy mix must report outherits > 0; the
        // classic STMs always report 0.
        let plan = MatrixPlan {
            scenarios: vec!["fig8".into()],
            backends: vec!["oe".into(), "tl2".into()],
            threads: vec![2],
            duration: Duration::from_millis(40),
            composed: vec![15],
            seed: 7,
            include_sequential: false,
            durable: false,
        };
        let rows = run_matrix(&plan).expect("valid plan");
        let oe = rows.iter().find(|r| r.backend == "oe").unwrap();
        let tl2 = rows.iter().find(|r| r.backend == "tl2").unwrap();
        assert!(oe.m.outherits > 0, "OE-STM must outherit on composed ops");
        assert_eq!(tl2.m.outherits, 0, "TL2 never outherits");
    }

    #[test]
    fn or_else_fallback_scenario_reports_explicit_retries() {
        // Once the primary queue starves, every drain explicit-retries
        // into the fallback branch — the retries must surface in the
        // measurement as their own category on every backend tested.
        let plan = MatrixPlan {
            scenarios: vec!["or-else-fallback".into()],
            backends: vec!["oe".into(), "tl2".into()],
            threads: vec![1],
            duration: Duration::from_millis(60),
            composed: vec![5],
            seed: 3,
            include_sequential: true,
            durable: false,
        };
        let rows = run_matrix(&plan).expect("valid plan");
        assert_eq!(rows.len(), 2, "no sequential reference for this scenario");
        for r in &rows {
            assert!(r.m.ops > 0, "{} produced no ops", r.backend);
            assert!(
                r.m.explicit_retries > 0,
                "{}: starved primary must surface explicit retries, got {:?}",
                r.backend,
                r.m
            );
        }
    }

    #[test]
    fn wake_scenarios_park_and_record_wakeups() {
        let plan = MatrixPlan {
            scenarios: vec!["wake-storm".into(), "waiter-army".into()],
            backends: vec!["tl2".into(), "oe".into()],
            threads: vec![2],
            duration: Duration::from_millis(80),
            composed: vec![5],
            seed: 17,
            include_sequential: true,
            durable: false,
        };
        let rows = run_matrix(&plan).expect("valid plan");
        assert_eq!(rows.len(), 4, "no sequential reference for either");
        for r in &rows {
            assert!(r.m.ops > 0, "{}/{} produced no ops", r.scenario, r.backend);
            assert!(
                r.m.retry_parks > 0,
                "{}/{}: consumers must park, got {:?}",
                r.scenario,
                r.backend,
                r.m
            );
            assert!(
                r.m.wakeups > 0,
                "{}/{}: producing commits must wake parked consumers, got {:?}",
                r.scenario,
                r.backend,
                r.m
            );
        }
        let storm = rows.iter().find(|r| r.scenario == "wake-storm").unwrap();
        assert!(
            storm.m.p999_us >= storm.m.p50_us,
            "wakeup percentiles must be ordered: {:?}",
            storm.m
        );
        // The wait counters survive the JSON round trip.
        let text = crate::json::render(&rows, 17);
        let back = crate::json::parse_rows(&text).expect("rows round-trip");
        assert!(back.iter().all(|r| r.m.retry_parks > 0 && r.m.wakeups > 0));
    }

    #[test]
    fn durable_axis_logs_commits_and_cleans_its_temp_dirs_up() {
        let plan = MatrixPlan {
            scenarios: vec!["fsync-batch".into()],
            backends: vec!["tl2".into(), "lsa".into()],
            threads: vec![1, 2],
            duration: Duration::from_millis(30),
            composed: vec![5],
            seed: 11,
            include_sequential: true,
            durable: true,
        };
        let rows = run_matrix(&plan).expect("valid plan");
        // No sequential reference for fsync-batch: 2 backends × 2 threads.
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(
                r.m.ops > 0,
                "{}/{} produced no ops under --durable",
                r.scenario,
                r.backend
            );
        }
        // Every per-cell store directory must be gone again.
        let pid = std::process::id();
        let leftovers: Vec<_> = std::fs::read_dir(std::env::temp_dir())
            .expect("temp dir listable")
            .filter_map(Result::ok)
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with(&format!("repro-durable-{pid}-")))
            .collect();
        assert!(leftovers.is_empty(), "leaked durable dirs: {leftovers:?}");
    }
}
