//! Load shapes for the keyspace: skewed key sampling and the
//! read/write/MULTI operation mix. The repo benchmark's `kv-mem` and
//! `kv-durable` workloads draw their op streams from these.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore};

/// Largest `MULTI` transaction size (keys per op) a load shape asks
/// for, so a client can keep a MULTI's keys in a stack buffer of this
/// length and allocate nothing per op. It is the driver's short-update
/// capacity, so every MULTI a load shape asks for, and every 16-key
/// prefill chunk, runs as one short transaction (see
/// [`KeySpace::multi`](crate::KeySpace::multi)).
pub const MAX_MULTI_SIZE: usize = stm_core::driver::SHORT_CAPACITY;

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

    /// Check that the percentages sum to 100.
    ///
    /// # Panics
    /// Panics if they do not.
    pub fn assert_total(&self) {
        assert_eq!(
            self.get_pct + self.set_pct + self.cas_pct + self.del_pct + self.multi_pct,
            100,
            "op mix must sum to 100"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

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
}
