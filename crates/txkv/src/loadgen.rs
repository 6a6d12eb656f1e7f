//! Open-loop load generation for the keyspace: skewed key sampling, the
//! read/write/MULTI mix, and a paced multi-client driver.
//!
//! **Open loop** means arrivals are scheduled, not gated on completions:
//! each client computes its n-th op's intended start time from a fixed
//! interarrival interval and charges `completion − intended start` to
//! latency. When the service keeps up, that is service time; when it
//! falls behind, queueing delay accumulates into the percentiles instead
//! of silently throttling the offered load — the way a real front end
//! experiences an overloaded store. A non-finite rate degrades to a
//! closed loop (issue as fast as ops complete, latency = service time),
//! which is what the bench scenario family uses so rows stay comparable
//! across backends with very different capacities.

use crate::hist::{LatencyHistogram, LatencySummary};
use crate::keyspace::{KeySpace, MultiOp};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};
use stm_core::api::{Atomic, AtomicBackend};

/// Largest supported `MULTI` transaction size (keys per op). The op
/// buffer lives on the worker stack, so the record path allocates
/// nothing.
pub const MAX_MULTI_SIZE: usize = 16;

/// A uniform f64 in `[0, 1)` (53 random bits; the shim has no `gen`).
fn unit_f64(rng: &mut SmallRng) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Key-popularity distribution over `0..n`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// Every key equally likely.
    Uniform,
    /// Zipfian with parameter `theta` (YCSB-style; 0.99 ≈ web traffic).
    Zipfian {
        /// Skew parameter in `(0, 1)`; higher = more skewed.
        theta: f64,
    },
    /// A hot set of `hot_keys` (fraction of the keyspace) receives
    /// `hot_ops` (fraction of operations); the rest spread uniformly.
    Hotspot {
        /// Fraction of keys that are hot, in `(0, 1)`.
        hot_keys: f64,
        /// Fraction of ops aimed at the hot set, in `(0, 1)`.
        hot_ops: f64,
    },
}

/// A sampler binding a [`KeyDist`] to a concrete key range, with the
/// zipfian constants precomputed (Gray et al.'s method: O(n) setup, O(1)
/// per sample, no allocation).
#[derive(Debug, Clone)]
pub struct KeySampler {
    dist: KeyDist,
    n: u64,
    // Zipfian constants (zero when unused).
    zetan: f64,
    theta: f64,
    alpha: f64,
    eta: f64,
}

impl KeySampler {
    /// A sampler for `dist` over keys `0..n`.
    ///
    /// # Panics
    /// Panics on an empty range or out-of-range distribution parameters.
    #[must_use]
    pub fn new(dist: KeyDist, n: usize) -> Self {
        assert!(n > 0, "empty key range");
        let n = n as u64;
        let (mut zetan, mut theta, mut alpha, mut eta) = (0.0, 0.0, 0.0, 0.0);
        match dist {
            KeyDist::Uniform => {}
            KeyDist::Zipfian { theta: t } => {
                assert!((0.0..1.0).contains(&t), "zipfian theta must be in (0,1)");
                theta = t;
                zetan = (1..=n).map(|i| 1.0 / (i as f64).powf(t)).sum();
                let zeta2 = 1.0 + 1.0 / 2f64.powf(t);
                alpha = 1.0 / (1.0 - t);
                eta = (1.0 - (2.0 / n as f64).powf(1.0 - t)) / (1.0 - zeta2 / zetan);
            }
            KeyDist::Hotspot { hot_keys, hot_ops } => {
                assert!(
                    (0.0..1.0).contains(&hot_keys) && (0.0..1.0).contains(&hot_ops),
                    "hotspot fractions must be in (0,1)"
                );
            }
        }
        Self {
            dist,
            n,
            zetan,
            theta,
            alpha,
            eta,
        }
    }

    /// Sample one key in `0..n`.
    #[must_use]
    pub fn sample(&self, rng: &mut SmallRng) -> i64 {
        match self.dist {
            KeyDist::Uniform => rng.gen_range(0..self.n as i64),
            KeyDist::Zipfian { .. } => {
                let u = unit_f64(rng);
                let uz = u * self.zetan;
                let rank = if uz < 1.0 {
                    0
                } else if uz < 1.0 + 0.5f64.powf(self.theta) {
                    1
                } else {
                    let r =
                        (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
                    r.min(self.n - 1)
                };
                // Popularity rank ≠ key id: scatter ranks over the range
                // so hot keys are not neighbours (see `KeySpace::scatter`).
                (crate::keyspace::KeySpace::scatter(rank, self.n)) as i64
            }
            KeyDist::Hotspot { hot_keys, hot_ops } => {
                let hot_n = ((self.n as f64 * hot_keys) as u64).max(1);
                if unit_f64(rng) < hot_ops {
                    rng.gen_range(0..hot_n as i64)
                } else {
                    rng.gen_range(0..self.n as i64)
                }
            }
        }
    }
}

/// Operation mix, in percent (`get + set + cas + del + multi == 100`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpMix {
    /// `GET` percentage.
    pub get_pct: u32,
    /// `SET` percentage.
    pub set_pct: u32,
    /// `CAS` percentage (read, then compare-and-swap — deliberately
    /// racy across the two transactions, like a real optimistic client).
    pub cas_pct: u32,
    /// `DEL` percentage.
    pub del_pct: u32,
    /// `MULTI` percentage (multi-key read-modify-write).
    pub multi_pct: u32,
}

impl OpMix {
    /// A read-mostly service mix: 80% GET, 10% SET, 4% CAS, 3% DEL,
    /// 3% MULTI.
    #[must_use]
    pub fn service() -> Self {
        Self {
            get_pct: 80,
            set_pct: 10,
            cas_pct: 4,
            del_pct: 3,
            multi_pct: 3,
        }
    }

    fn assert_total(&self) {
        assert_eq!(
            self.get_pct + self.set_pct + self.cas_pct + self.del_pct + self.multi_pct,
            100,
            "op mix must sum to 100"
        );
    }
}

/// Everything one open-loop run needs.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Concurrent client threads.
    pub clients: usize,
    /// Wall-clock run length.
    pub duration: Duration,
    /// Offered load per client, ops/second. Non-finite = closed loop.
    pub rate_per_client: f64,
    /// Key-popularity distribution.
    pub dist: KeyDist,
    /// Operation mix.
    pub mix: OpMix,
    /// Keys per `MULTI` transaction (≤ [`MAX_MULTI_SIZE`]).
    pub multi_size: usize,
    /// Base seed; per-client streams derive from it.
    pub seed: u64,
}

/// What an open-loop run measured.
#[derive(Debug, Clone, Copy)]
pub struct LoadReport {
    /// Operations completed.
    pub ops: u64,
    /// Completed throughput, ops per millisecond.
    pub throughput: f64,
    /// Latency percentiles (open loop: includes queueing delay).
    pub latency: LatencySummary,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

/// Execute one sampled operation and return its result-independent
/// "work token" (consumed only so nothing is optimized away).
///
/// Exposed for the bench scenario family, which drives the same op
/// sampling closed-loop under its own harness.
pub fn run_one_op<B: AtomicBackend>(
    ks: &KeySpace,
    at: &Atomic<B>,
    rng: &mut SmallRng,
    sampler: &KeySampler,
    mix: &OpMix,
    multi_size: usize,
) {
    debug_assert!((1..=MAX_MULTI_SIZE).contains(&multi_size));
    let roll = rng.gen_range(0..100u32);
    let key = sampler.sample(rng);
    if roll < mix.get_pct {
        let _ = ks.get(at, key);
    } else if roll < mix.get_pct + mix.set_pct {
        let _ = ks.set(at, key, rng.next_u64());
    } else if roll < mix.get_pct + mix.set_pct + mix.cas_pct {
        let cur = ks.get(at, key);
        let _ = ks.cas(at, key, cur, rng.next_u64());
    } else if roll < mix.get_pct + mix.set_pct + mix.cas_pct + mix.del_pct {
        let _ = ks.del(at, key);
    } else {
        let mut keys = [0i64; MAX_MULTI_SIZE];
        for k in keys[..multi_size].iter_mut() {
            *k = sampler.sample(rng);
        }
        let _ = ks.multi(at, &keys[..multi_size], |_, cur| {
            MultiOp::Put(cur.unwrap_or(0).wrapping_add(1))
        });
    }
}

/// Prefill `ks` to 50% occupancy, deterministically per `seed`.
pub fn prefill<B: AtomicBackend>(ks: &KeySpace, at: &Atomic<B>, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let target = ks.capacity() / 2;
    let mut inserted = 0usize;
    while inserted < target {
        let key = rng.gen_range(0..ks.capacity() as i64);
        if ks.set(at, key, rng.next_u64()).is_none() {
            inserted += 1;
        }
    }
}

/// The `ops`-th arrival's offset from its client's start, `interval ×
/// ops`, in 128-bit nanoseconds so no op count wraps it.
fn arrival_offset(interval: Duration, ops: u64) -> Duration {
    let nanos = interval.as_nanos().saturating_mul(u128::from(ops));
    let secs = u64::try_from(nanos / 1_000_000_000).unwrap_or(u64::MAX);
    Duration::new(secs, (nanos % 1_000_000_000) as u32)
}

/// Run the open-loop driver: `spec.clients` threads issue ops against
/// `ks` through `at` for `spec.duration`, each paced at
/// `spec.rate_per_client`, recording per-op latency into `hist` (drained
/// into the report at the end).
pub fn run_open_loop<B: AtomicBackend + Sync>(
    ks: &KeySpace,
    at: &Atomic<B>,
    spec: &LoadSpec,
    hist: &LatencyHistogram,
) -> LoadReport {
    spec.mix.assert_total();
    assert!(
        spec.multi_size >= 1 && spec.multi_size <= MAX_MULTI_SIZE,
        "multi_size must be in 1..={MAX_MULTI_SIZE}"
    );
    let sampler = KeySampler::new(spec.dist, ks.capacity());
    let interval = if spec.rate_per_client.is_finite() && spec.rate_per_client > 0.0 {
        Some(Duration::from_secs_f64(1.0 / spec.rate_per_client))
    } else {
        None
    };
    let stop = AtomicBool::new(false);
    let total_ops = AtomicU64::new(0);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..spec.clients {
            let (stop, total_ops, sampler, hist) = (&stop, &total_ops, &sampler, hist);
            let spec = spec.clone();
            scope.spawn(move || {
                let mut rng =
                    SmallRng::seed_from_u64(spec.seed ^ (c as u64).wrapping_mul(0x9E37_79B9));
                let client_start = Instant::now();
                let mut ops = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // Intended start: scheduled arrival (open loop) or
                    // now (closed loop).
                    let intended = match interval {
                        Some(iv) => {
                            let intended = client_start + arrival_offset(iv, ops);
                            let now = Instant::now();
                            if intended > now {
                                std::thread::sleep(intended - now);
                            }
                            intended
                        }
                        None => Instant::now(),
                    };
                    run_one_op(ks, at, &mut rng, sampler, &spec.mix, spec.multi_size);
                    let us = intended.elapsed().as_micros() as u64;
                    hist.record_us(us);
                    ops += 1;
                }
                total_ops.fetch_add(ops, Ordering::Relaxed);
            });
        }
        std::thread::sleep(spec.duration);
        stop.store(true, Ordering::Relaxed);
    });
    let elapsed = started.elapsed();
    let ops = total_ops.load(Ordering::Relaxed);
    LoadReport {
        ops,
        throughput: ops as f64 / elapsed.as_secs_f64() / 1e3,
        latency: hist.drain(),
        elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keyspace::ShardKind;

    #[test]
    fn op_mix_must_sum_to_100() {
        OpMix::service().assert_total();
    }

    #[test]
    #[should_panic(expected = "sum to 100")]
    fn bad_mix_is_rejected() {
        OpMix {
            get_pct: 50,
            set_pct: 0,
            cas_pct: 0,
            del_pct: 0,
            multi_pct: 0,
        }
        .assert_total();
    }

    #[test]
    fn samplers_stay_in_range_and_are_deterministic() {
        for dist in [
            KeyDist::Uniform,
            KeyDist::Zipfian { theta: 0.99 },
            KeyDist::Hotspot {
                hot_keys: 0.1,
                hot_ops: 0.9,
            },
        ] {
            let s = KeySampler::new(dist, 1000);
            let mut a = SmallRng::seed_from_u64(7);
            let mut b = SmallRng::seed_from_u64(7);
            for _ in 0..10_000 {
                let k = s.sample(&mut a);
                assert!((0..1000).contains(&k), "{dist:?} sampled {k}");
                assert_eq!(k, s.sample(&mut b), "{dist:?} must be deterministic");
            }
        }
    }

    #[test]
    fn zipfian_is_actually_skewed() {
        let s = KeySampler::new(KeyDist::Zipfian { theta: 0.99 }, 1 << 13);
        let mut rng = SmallRng::seed_from_u64(42);
        let mut counts = std::collections::HashMap::new();
        let n = 100_000;
        for _ in 0..n {
            *counts.entry(s.sample(&mut rng)).or_insert(0u64) += 1;
        }
        let mut freqs: Vec<u64> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u64 = freqs.iter().take(10).sum();
        assert!(
            top10 as f64 / n as f64 > 0.3,
            "top-10 keys should draw >30% of zipf(0.99) traffic, got {top10}"
        );
        // Uniform for contrast.
        let u = KeySampler::new(KeyDist::Uniform, 1 << 13);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..n {
            *counts.entry(u.sample(&mut rng)).or_insert(0u64) += 1;
        }
        let max = counts.values().copied().max().unwrap();
        assert!(max < 60, "uniform top key should stay rare, got {max}");
    }

    #[test]
    fn hotspot_concentrates_traffic() {
        let s = KeySampler::new(
            KeyDist::Hotspot {
                hot_keys: 0.1,
                hot_ops: 0.9,
            },
            1000,
        );
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 50_000;
        let hot = (0..n).filter(|_| s.sample(&mut rng) < 100).count();
        let frac = hot as f64 / n as f64;
        assert!(
            (0.85..=0.95).contains(&frac),
            "hot fraction should be ≈ 0.9 (+10% uniform spillover hits it too), got {frac}"
        );
    }

    #[test]
    fn open_loop_records_latency_and_finishes() {
        let ks = KeySpace::new(ShardKind::Hash, 1, 256);
        let at = Atomic::new(oe_stm::OeStm::new());
        prefill(&ks, &at, 1);
        assert_eq!(ks.len(&at), 128);
        let hist = LatencyHistogram::new();
        let report = run_open_loop(
            &ks,
            &at,
            &LoadSpec {
                clients: 2,
                duration: Duration::from_millis(50),
                rate_per_client: f64::INFINITY,
                dist: KeyDist::Zipfian { theta: 0.9 },
                mix: OpMix::service(),
                multi_size: 4,
                seed: 99,
            },
            &hist,
        );
        assert!(report.ops > 0);
        assert_eq!(report.latency.count, report.ops);
        assert!(report.latency.p50_us <= report.latency.p99_us);
        assert!(report.latency.p99_us <= report.latency.p999_us);
        assert_eq!(hist.count(), 0, "the report drained the histogram");
    }

    #[test]
    fn arrival_offsets_keep_counting_past_u32_ops() {
        let iv = Duration::from_nanos(333_333);
        for ops in [(1u64 << 32) - 1, 1 << 32, (1 << 32) + 1] {
            let want = u128::from(ops) * 333_333;
            assert_eq!(arrival_offset(iv, ops).as_nanos(), want, "op {ops}");
        }
    }

    #[test]
    fn paced_open_loop_respects_the_offered_rate() {
        let ks = KeySpace::new(ShardKind::Hash, 1, 64);
        let at = Atomic::new(oe_stm::OeStm::new());
        let hist = LatencyHistogram::new();
        // 200 ops/s for ~100 ms ≈ 20 ops; far below capacity, so the
        // pacing (not the service) bounds throughput.
        let report = run_open_loop(
            &ks,
            &at,
            &LoadSpec {
                clients: 1,
                duration: Duration::from_millis(100),
                rate_per_client: 200.0,
                dist: KeyDist::Uniform,
                mix: OpMix::service(),
                multi_size: 2,
                seed: 5,
            },
            &hist,
        );
        assert!(
            report.ops >= 10 && report.ops <= 40,
            "pacing should bound ops near 20, got {}",
            report.ops
        );
    }
}
