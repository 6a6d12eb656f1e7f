// lint:hot-path
//! Bounded randomized exponential backoff for the retry loop.
//!
//! Aborted transactions back off before retrying so that conflicting
//! transactions desynchronize instead of livelocking; `cm::pace_retry`
//! executes the schedule drawn here. The implementation is
//! self-contained (a xorshift generator seeded per instance) to keep
//! `stm-core` dependency-free and the hot path allocation-free.

/// Randomized exponential backoff state, one per transaction retry loop.
#[derive(Debug)]
pub struct Backoff {
    attempt: u32,
    min_spins: u32,
    max_spins: u32,
    rng: u64,
}

impl Backoff {
    /// Create a backoff with the given bounds, seeded from `seed`
    /// (the driver seeds each run from its thread's random stream, so
    /// threads decorrelate).
    #[must_use]
    pub fn new(min_spins: u32, max_spins: u32, seed: u64) -> Self {
        Self {
            attempt: 0,
            min_spins: min_spins.max(1),
            max_spins: max_spins.max(min_spins.max(1)),
            rng: seed | 1,
        }
    }

    #[inline]
    fn next_rand(&mut self) -> u64 {
        // xorshift64* — tiny, decent quality, never zero.
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Number of retries performed so far.
    #[must_use]
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// Draw the next step of the schedule without executing it: a random
    /// spin count in `[min, min * 2^attempt]` (capped at the max), plus
    /// whether the exponential ceiling has saturated — the signal that
    /// spinning is no longer productive and the waiter should yield.
    /// Advances the attempt counter and the RNG.
    pub fn plan(&mut self) -> (u32, bool) {
        let ceiling = self
            .min_spins
            .saturating_mul(1u32.checked_shl(self.attempt.min(20)).unwrap_or(u32::MAX))
            .min(self.max_spins);
        let spins = if ceiling <= self.min_spins {
            self.min_spins
        } else {
            self.min_spins + (self.next_rand() % u64::from(ceiling - self.min_spins)) as u32
        };
        self.attempt = self.attempt.saturating_add(1);
        (spins, ceiling >= self.max_spins)
    }

    /// Restart the schedule at its first step.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attempts_increment_and_reset() {
        let mut b = Backoff::new(1, 4, 42);
        assert_eq!(b.attempts(), 0);
        b.plan();
        b.plan();
        assert_eq!(b.attempts(), 2);
        b.reset();
        assert_eq!(b.attempts(), 0);
    }

    #[test]
    fn zero_min_is_clamped() {
        let mut b = Backoff::new(0, 0, 1);
        // Must not divide by zero: both bounds clamp to one spin.
        assert_eq!(b.plan(), (1, true));
        assert_eq!(b.attempts(), 1);
    }

    #[test]
    fn rng_streams_differ_by_seed() {
        let mut a = Backoff::new(1, 1 << 20, 1);
        let mut b = Backoff::new(1, 1 << 20, 2);
        let ra: Vec<u64> = (0..8).map(|_| a.next_rand()).collect();
        let rb: Vec<u64> = (0..8).map(|_| b.next_rand()).collect();
        assert_ne!(ra, rb);
    }

    #[test]
    fn plan_reports_saturation_and_stays_in_bounds() {
        let mut b = Backoff::new(4, 16, 9);
        let (first, saturated) = b.plan();
        assert!((4..=16).contains(&first));
        assert!(!saturated, "attempt 0 ceiling (4) is below the max");
        // Ceiling doubles per attempt: 4, 8, 16 → saturates on attempt 2.
        let (_, s1) = b.plan();
        assert!(!s1);
        let (spins, s2) = b.plan();
        assert!(s2, "ceiling must have reached the max");
        assert!((4..=16).contains(&spins));
    }

    #[test]
    fn many_waits_terminate() {
        let mut b = Backoff::new(2, 64, 7);
        for _ in 0..100 {
            let (spins, _) = b.plan();
            assert!((2..=64).contains(&spins));
        }
        assert_eq!(b.attempts(), 100);
    }
}
