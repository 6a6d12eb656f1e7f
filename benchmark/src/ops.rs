//! Seeded operation streams. The program under test only ever sees the
//! generated operations; the seed is an argument of the benchmark.
//!
//! Streams are generated once per run into a pool that slices walk
//! cyclically, so no generator cost (the zipfian sampler is as expensive
//! as a reference operation) lands inside a timed slice.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use txkv::{KeyDist, KeySampler, OpMix};

/// Key range of the `sets-list` workload: keys are `1..=SET_RANGE`.
pub const SET_RANGE: i64 = 1 << 13;
/// Key universe of the two `kv-*` workloads.
pub const KV_CAPACITY: usize = 1 << 13;
/// Shards of the `kv-*` keyspace.
pub const KV_SHARDS: usize = 8;
/// Keys per `MULTI`.
pub const MULTI_KEYS: usize = 4;

/// One `sets-list` operation (paper §VII-A on Fig. 6's structure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOp {
    /// `contains(v)` — the read class.
    Contains(i64),
    /// `add(v)`.
    Add(i64),
    /// `remove(v)`.
    Remove(i64),
    /// Composed `add_all({v, (v+1)/2})`.
    AddAll(i64),
    /// Composed `remove_all({v, (v+1)/2})`.
    RemoveAll(i64),
}

impl SetOp {
    /// Names of the op kinds, indexed by [`SetOp::kind`].
    pub const KINDS: [&'static str; 5] = ["contains", "add", "remove", "add_all", "remove_all"];

    /// Index into [`SetOp::KINDS`]; kind 0 is the read class.
    #[must_use]
    pub fn kind(self) -> usize {
        match self {
            SetOp::Contains(_) => 0,
            SetOp::Add(_) => 1,
            SetOp::Remove(_) => 2,
            SetOp::AddAll(_) => 3,
            SetOp::RemoveAll(_) => 4,
        }
    }

    /// The two keys a composed operation on `v` touches.
    #[must_use]
    pub fn pair(v: i64) -> [i64; 2] {
        [v, (v + 1) / 2]
    }
}

/// 80 % `contains`, 15 % composed (`add_all`/`remove_all` evenly), 5 %
/// single updates (`add`/`remove` evenly), keys uniform in the range.
#[must_use]
pub fn set_ops(seed: u64, n: usize) -> Vec<SetOp> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let roll = rng.gen_range(0..200u32);
            let v = rng.gen_range(1..SET_RANGE + 1);
            match roll {
                0..=159 => SetOp::Contains(v),
                160..=174 => SetOp::AddAll(v),
                175..=189 => SetOp::RemoveAll(v),
                190..=194 => SetOp::Add(v),
                _ => SetOp::Remove(v),
            }
        })
        .collect()
}

/// The distinct keys a set is prefilled with: half the range, in a
/// seeded random order.
#[must_use]
pub fn set_prefill(seed: u64) -> Vec<i64> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5E75);
    let mut keys: Vec<i64> = (1..=SET_RANGE).collect();
    shuffle(&mut keys, &mut rng);
    keys.truncate(SET_RANGE as usize / 2);
    keys
}

/// One `kv-*` operation. Keys are stored narrow to keep the pool small:
/// the pool is part of the benchmark's resident set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvOp {
    /// `GET key` — the read class.
    Get(u16),
    /// `SET key value`.
    Set(u16, u64),
    /// Read the key, then `CAS key <read> value` (an optimistic client).
    Cas(u16, u64),
    /// `DEL key`.
    Del(u16),
    /// `MULTI`: increment each of the four keys (absent counts as 0).
    Multi([u16; MULTI_KEYS]),
}

impl KvOp {
    /// Names of the op kinds, indexed by [`KvOp::kind`].
    pub const KINDS: [&'static str; 5] = ["get", "set", "cas", "del", "multi"];

    /// Index into [`KvOp::KINDS`]; kind 0 is the read class.
    #[must_use]
    pub fn kind(self) -> usize {
        match self {
            KvOp::Get(_) => 0,
            KvOp::Set(..) => 1,
            KvOp::Cas(..) => 2,
            KvOp::Del(_) => 3,
            KvOp::Multi(_) => 4,
        }
    }
}

/// The `kv-durable` mix: writes beside reads, no CAS.
#[must_use]
pub fn durable_mix() -> OpMix {
    OpMix {
        get_pct: 50,
        set_pct: 40,
        cas_pct: 0,
        del_pct: 5,
        multi_pct: 5,
    }
}

/// The zipfian(0.99) sampler both `kv-*` workloads draw keys from.
#[must_use]
pub fn kv_sampler() -> KeySampler {
    KeySampler::new(KeyDist::Zipfian { theta: 0.99 }, KV_CAPACITY)
}

/// `n` operations drawn from `mix` with keys from `sampler`. Values stay
/// below 2^62 so that `Option<u64>` results encode losslessly into one
/// word (see `reference::enc`).
#[must_use]
pub fn kv_ops(seed: u64, n: usize, mix: &OpMix, sampler: &KeySampler) -> Vec<KvOp> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let key = |rng: &mut SmallRng| sampler.sample(rng) as u16;
    let value = |rng: &mut SmallRng| rng.next_u64() >> 2;
    let (get, set, cas, del) = (
        mix.get_pct,
        mix.get_pct + mix.set_pct,
        mix.get_pct + mix.set_pct + mix.cas_pct,
        mix.get_pct + mix.set_pct + mix.cas_pct + mix.del_pct,
    );
    (0..n)
        .map(|_| {
            let roll = rng.gen_range(0..100u32);
            if roll < get {
                KvOp::Get(key(&mut rng))
            } else if roll < set {
                KvOp::Set(key(&mut rng), value(&mut rng))
            } else if roll < cas {
                KvOp::Cas(key(&mut rng), value(&mut rng))
            } else if roll < del {
                KvOp::Del(key(&mut rng))
            } else {
                let mut keys = [0u16; MULTI_KEYS];
                for k in &mut keys {
                    *k = key(&mut rng);
                }
                KvOp::Multi(keys)
            }
        })
        .collect()
}

/// The keys a keyspace is prefilled with (half the universe, seeded
/// order) and their initial values.
#[must_use]
pub fn kv_prefill(seed: u64) -> Vec<(u16, u64)> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x4B56);
    let mut keys: Vec<u16> = (0..KV_CAPACITY as u16).collect();
    shuffle(&mut keys, &mut rng);
    keys.truncate(KV_CAPACITY / 2);
    keys.into_iter().map(|k| (k, rng.next_u64() >> 2)).collect()
}

fn shuffle<T>(items: &mut [T], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

/// A position in a pool that slices walk cyclically.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cursor(usize);

impl Cursor {
    /// The next `n` operations of `pool`, wrapping around its end. No
    /// division per element: this iterator runs inside timed slices.
    pub fn take<'a, T>(&mut self, n: usize, pool: &'a [T]) -> impl Iterator<Item = &'a T> + 'a {
        let start = self.0;
        self.0 = (start + n) % pool.len();
        pool[start..].iter().chain(pool.iter().cycle()).take(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        assert_eq!(set_ops(7, 4096), set_ops(7, 4096));
        assert_ne!(set_ops(7, 4096), set_ops(8, 4096));
        let s = kv_sampler();
        let mix = OpMix::service();
        assert_eq!(kv_ops(7, 4096, &mix, &s), kv_ops(7, 4096, &mix, &s));
        assert_ne!(kv_ops(7, 4096, &mix, &s), kv_ops(8, 4096, &mix, &s));
        assert_eq!(set_prefill(7), set_prefill(7));
        assert_ne!(kv_prefill(7), kv_prefill(8));
    }

    #[test]
    fn mixes_are_as_documented() {
        let ops = set_ops(1, 100_000);
        let share = |k: usize| ops.iter().filter(|o| o.kind() == k).count() as f64 / 1e5;
        assert!((share(0) - 0.80).abs() < 0.01);
        assert!((share(3) + share(4) - 0.15).abs() < 0.01);
        assert!((share(1) + share(2) - 0.05).abs() < 0.01);
        let kv = kv_ops(1, 100_000, &durable_mix(), &kv_sampler());
        let share = |k: usize| kv.iter().filter(|o| o.kind() == k).count() as f64 / 1e5;
        assert!((share(0) - 0.50).abs() < 0.01);
        assert_eq!(share(2), 0.0, "kv-durable has no CAS");
    }

    #[test]
    fn prefill_is_half_the_range_and_distinct() {
        let mut keys = set_prefill(3);
        assert_eq!(keys.len(), 1 << 12);
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 1 << 12);
        assert_eq!(kv_prefill(3).len(), KV_CAPACITY / 2);
    }

    #[test]
    fn cursor_wraps() {
        let pool = [0, 1, 2, 3];
        let mut c = Cursor::default();
        assert_eq!(c.take(3, &pool).copied().collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(c.take(3, &pool).copied().collect::<Vec<_>>(), [3, 0, 1]);
        assert_eq!(c.take(9, &pool).count(), 9, "a slice may lap the pool");
    }
}
