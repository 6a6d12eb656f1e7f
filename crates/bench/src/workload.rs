//! The paper's workload (Section VII-A), reproduced exactly.
//!
//! * data structure pre-filled to `2^12` elements;
//! * keys drawn uniformly from a range of `2^13` (so add/remove succeed
//!   with probability ≈ 1/2);
//! * 80% `contains`;
//! * a configurable fraction (5% or 15% in Figs. 6–8) of *composed*
//!   operations: each `addAll`/`removeAll` takes a value `v` and the
//!   closest integer to `v/2`;
//! * the remaining updates split evenly between plain `add` and `remove`.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Default initial size (paper: 2^12).
pub const DEFAULT_INITIAL_SIZE: usize = 1 << 12;
/// Default key range (paper: 2^13).
pub const DEFAULT_KEY_RANGE: i64 = 1 << 13;
/// Default base seed. Every run derives its per-thread and prefill seeds
/// from this unless the `--seed` flag overrides it, so default runs stay
/// bit-for-bit reproducible while seeded runs explore fresh schedules.
pub const DEFAULT_SEED: u64 = 0xF111;

/// SplitMix64 finalizer: a cheap, well-distributed `u64 → u64` mix used to
/// derive independent per-thread seeds from one base seed.
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The operation-generator seed for worker `thread` of a run seeded with
/// `base`. Distinct per thread, deterministic per `(base, thread)`.
#[must_use]
pub fn thread_seed(base: u64, thread: usize) -> u64 {
    splitmix64(base ^ (thread as u64).wrapping_add(1))
}

/// One sampled operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkOp {
    /// Membership test.
    Contains(i64),
    /// Plain insert.
    Add(i64),
    /// Plain remove.
    Remove(i64),
    /// Composed bulk insert of `{v, closest(v/2)}`.
    AddAll([i64; 2]),
    /// Composed bulk remove of `{v, closest(v/2)}`.
    RemoveAll([i64; 2]),
}

/// Workload mix, in percent. `contains + composed + add + remove = 100`.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Percentage of `contains` (paper: 80).
    pub contains_pct: u32,
    /// Percentage of composed `addAll`/`removeAll` (paper: 5 or 15).
    pub composed_pct: u32,
    /// Key range (keys are drawn from `0..range`).
    pub key_range: i64,
}

impl Mix {
    /// The paper's mix: 80% contains, 20% attempted updates of which
    /// `composed_pct` points are composed operations.
    #[must_use]
    pub fn paper(composed_pct: u32) -> Self {
        assert!(composed_pct <= 20, "updates are 20% of all operations");
        Self {
            contains_pct: 80,
            composed_pct,
            key_range: DEFAULT_KEY_RANGE,
        }
    }

    /// Sample one operation from this mix using `rng` (the sampling core
    /// of [`OpGen`], exposed so scenario workloads that own their RNG can
    /// draw from a mix directly).
    pub fn sample(&self, rng: &mut SmallRng) -> WorkOp {
        let roll = rng.gen_range(0..100u32);
        let v = rng.gen_range(0..self.key_range);
        if roll < self.contains_pct {
            WorkOp::Contains(v)
        } else if roll < self.contains_pct + self.composed_pct {
            if rng.gen_bool(0.5) {
                WorkOp::AddAll([v, half(v)])
            } else {
                WorkOp::RemoveAll([v, half(v)])
            }
        } else if rng.gen_bool(0.5) {
            WorkOp::Add(v)
        } else {
            WorkOp::Remove(v)
        }
    }
}

/// Per-thread operation generator (deterministic per seed).
#[derive(Debug)]
pub struct OpGen {
    rng: SmallRng,
    mix: Mix,
}

/// "The closest integer to v/2" of the paper.
#[must_use]
pub fn half(v: i64) -> i64 {
    // Round half away from zero, like Math.round on positives.
    (v + 1) / 2
}

impl OpGen {
    /// Generator with the given mix and seed.
    #[must_use]
    pub fn new(mix: Mix, seed: u64) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(seed),
            mix,
        }
    }

    /// Sample the next operation.
    pub fn next_op(&mut self) -> WorkOp {
        self.mix.sample(&mut self.rng)
    }

    /// Sample a key (for prefilling).
    pub fn next_key(&mut self) -> i64 {
        self.rng.gen_range(0..self.mix.key_range)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn half_rounds_to_closest() {
        assert_eq!(half(8), 4);
        assert_eq!(half(9), 5);
        assert_eq!(half(0), 0);
        assert_eq!(half(1), 1);
    }

    #[test]
    fn mix_proportions_roughly_hold() {
        let mut g = OpGen::new(Mix::paper(15), 42);
        let mut counts = [0usize; 3]; // contains, composed, plain updates
        let n = 100_000;
        for _ in 0..n {
            match g.next_op() {
                WorkOp::Contains(_) => counts[0] += 1,
                WorkOp::AddAll(_) | WorkOp::RemoveAll(_) => counts[1] += 1,
                _ => counts[2] += 1,
            }
        }
        let pct = |c: usize| c * 100 / n;
        assert!((78..=82).contains(&pct(counts[0])), "contains ~80%");
        assert!((13..=17).contains(&pct(counts[1])), "composed ~15%");
        assert!((3..=7).contains(&pct(counts[2])), "plain updates ~5%");
    }

    #[test]
    fn keys_stay_in_range() {
        let mut g = OpGen::new(Mix::paper(5), 7);
        for _ in 0..10_000 {
            let op = g.next_op();
            let keys: Vec<i64> = match op {
                WorkOp::Contains(k) | WorkOp::Add(k) | WorkOp::Remove(k) => vec![k],
                WorkOp::AddAll(ks) | WorkOp::RemoveAll(ks) => ks.to_vec(),
            };
            for k in keys {
                assert!((0..DEFAULT_KEY_RANGE).contains(&k));
            }
        }
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let mut a = OpGen::new(Mix::paper(5), 1);
        let mut b = OpGen::new(Mix::paper(5), 1);
        for _ in 0..100 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    #[should_panic(expected = "20%")]
    fn composed_beyond_updates_rejected() {
        let _ = Mix::paper(25);
    }

    #[test]
    fn thread_seeds_are_distinct_and_deterministic() {
        for base in [DEFAULT_SEED, 0, 42] {
            let mut seen = std::collections::HashSet::new();
            for t in 0..64 {
                assert_eq!(thread_seed(base, t), thread_seed(base, t));
                assert!(seen.insert(thread_seed(base, t)), "collision at {base}/{t}");
            }
        }
        // Different bases must change every thread's stream.
        assert_ne!(thread_seed(1, 0), thread_seed(2, 0));
    }
}
