// lint:hot-path
//! The elastic window: the sliding set of recent reads an elastic
//! transaction keeps protected before its first write.
//!
//! Felber et al.'s elastic transactions ignore conflicts on their read-only
//! prefix by protecting only the *immediate past reads* during traversal:
//! when a new read arrives, the oldest windowed read is released — in the
//! paper's vocabulary, its protection element leaves the transaction's
//! protected set, so a concurrent writer to it no longer conflicts. The
//! window (default size 2: previous and current read) is what remains of
//! the prefix in the minimal protected set.
//!
//! The window sits on the hot path of every elastic read, so it is a
//! fixed-capacity inline ring buffer — no heap allocation per transaction.
//! At the default capacity 2 the per-read check is O(1): the slot the next
//! push overwrites *is* the previous read. Capacities 3..=[`MAX_WINDOW`]
//! scan the ring, off the inlined path.

use stm_core::readset::{ReadEntry, ReadSet};
use stm_core::tvar::TVarCore;
use stm_core::vlock::LockState;

/// Hard upper bound on the window capacity (configurations are clamped).
pub const MAX_WINDOW: usize = 8;

/// The sliding window of an elastic transaction's most recent reads.
#[derive(Debug)]
pub struct Window<'env> {
    slots: [Option<ReadEntry<'env>>; MAX_WINDOW],
    /// Ring position receiving the next push.
    next: usize,
    len: usize,
    cap: usize,
}

#[inline]
fn entry_valid(e: &ReadEntry<'_>) -> bool {
    matches!(
        e.core.lock().load(),
        LockState::Unlocked { version } if version == e.version
    )
}

impl<'env> Window<'env> {
    /// An empty window holding at most `cap` entries (clamped to
    /// `2..=MAX_WINDOW`).
    #[must_use]
    pub fn new(cap: usize) -> Self {
        Self {
            slots: Default::default(),
            next: 0,
            len: 0,
            cap: cap.clamp(2, MAX_WINDOW),
        }
    }

    /// Record a read, releasing (returning) the oldest entry if the window
    /// is full. A returned entry is a *relaxation event*: that read's
    /// protection element has left the protected set.
    #[inline]
    pub fn push(&mut self, core: &'env TVarCore, version: u64) -> Option<ReadEntry<'env>> {
        // `next < cap <= MAX_WINDOW` always; the mask tells the compiler.
        let evicted = self.slots[self.next % MAX_WINDOW].replace(ReadEntry { core, version });
        self.next = if self.next + 1 == self.cap {
            0
        } else {
            self.next + 1
        };
        if self.len < self.cap {
            self.len += 1;
        }
        evicted
    }

    /// Check that every windowed read is still at its recorded version
    /// (the "cut" check: the last reads form a consistent anchor even if
    /// earlier prefix reads changed).
    #[must_use]
    pub fn validate(&self) -> bool {
        self.slots[..self.cap].iter().flatten().all(entry_valid)
    }

    /// Validate every windowed read *except* the most recently pushed one
    /// (which a consistent read just produced). This is E-STM's per-read
    /// check of the immediate past reads, one atomic load per entry.
    #[inline]
    #[must_use]
    pub fn validate_previous(&self) -> bool {
        if self.cap == 2 {
            // Two slots: the one the next push overwrites is the previous
            // read (vacant until the second push).
            return self.slots[self.next % 2].as_ref().is_none_or(entry_valid);
        }
        self.validate_previous_wide()
    }

    /// [`validate_previous`](Self::validate_previous) for capacities above
    /// two: every occupied slot but the newest.
    #[cold]
    fn validate_previous_wide(&self) -> bool {
        if self.len <= 1 {
            return true;
        }
        let newest = if self.next == 0 {
            self.cap - 1
        } else {
            self.next - 1
        };
        for (i, slot) in self.slots[..self.cap].iter().enumerate() {
            if i == newest {
                continue;
            }
            if let Some(e) = slot {
                if !entry_valid(e) {
                    return false;
                }
            }
        }
        true
    }

    /// Move every windowed entry into `reads` (oldest first) and empty the
    /// window. Used when the transaction *hardens* (first write: the
    /// immediate past reads become permanently tracked, Section V) and by
    /// `outherit()` (the child's last-read entries pass to the parent).
    pub fn drain_into(&mut self, reads: &mut ReadSet<'env>) {
        let start = (self.next + self.cap - self.len) % self.cap;
        for k in 0..self.len {
            if let Some(e) = self.slots[(start + k) % self.cap].take() {
                reads.push(e.core, e.version);
            }
        }
        self.len = 0;
        self.next = 0;
    }

    /// Drop everything (E-STM child commit: the child's window is released
    /// instead of outherited; attempt restart). An empty window has every
    /// slot vacant and `next` at 0 already, so clearing one costs a test.
    pub fn clear(&mut self) {
        if self.len != 0 {
            self.slots = Default::default();
            self.len = 0;
            self.next = 0;
        }
    }

    /// Number of protected reads currently windowed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the window holds no reads.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate over the windowed entries (oldest first).
    pub fn iter(&self) -> impl Iterator<Item = &ReadEntry<'env>> {
        let start = (self.next + self.cap - self.len) % self.cap;
        (0..self.len).filter_map(move |k| self.slots[(start + k) % self.cap].as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_core::TVar;

    #[test]
    fn push_drops_oldest_beyond_cap() {
        let a = TVar::new(1u64);
        let b = TVar::new(2u64);
        let c = TVar::new(3u64);
        let mut w = Window::new(2);
        assert!(w.push(a.core(), 0).is_none());
        assert!(w.push(b.core(), 0).is_none());
        let dropped = w.push(c.core(), 0).expect("third push must evict");
        assert_eq!(dropped.core.id(), a.core().id());
        assert_eq!(w.len(), 2);
        let ids: Vec<usize> = w.iter().map(|e| e.core.id()).collect();
        assert_eq!(
            ids,
            vec![b.core().id(), c.core().id()],
            "oldest-first order"
        );
    }

    #[test]
    fn validate_detects_changed_entry() {
        let a = TVar::new(1u64);
        let b = TVar::new(2u64);
        let mut w = Window::new(2);
        w.push(a.core(), 0);
        w.push(b.core(), 0);
        assert!(w.validate());
        a.store_atomic(9, 5);
        assert!(!w.validate());
        // a is the previous entry relative to b: the per-read check sees it.
        assert!(!w.validate_previous());
    }

    #[test]
    fn validate_previous_skips_newest() {
        let a = TVar::new(1u64);
        let b = TVar::new(2u64);
        let mut w = Window::new(2);
        w.push(a.core(), 0);
        w.push(b.core(), 0);
        // Invalidate only the NEWEST entry: validate_previous ignores it.
        b.store_atomic(9, 5);
        assert!(w.validate_previous());
        assert!(!w.validate());
    }

    #[test]
    fn validate_ignores_evicted_entry() {
        // The essence of elasticity: changes to reads that slid out of the
        // window do not invalidate the transaction.
        let a = TVar::new(1u64);
        let b = TVar::new(2u64);
        let c = TVar::new(3u64);
        let mut w = Window::new(2);
        w.push(a.core(), 0);
        w.push(b.core(), 0);
        w.push(c.core(), 0); // evicts a
        a.store_atomic(9, 5);
        assert!(w.validate(), "evicted reads must be relaxed");
    }

    #[test]
    fn drain_into_moves_entries_to_read_set() {
        let a = TVar::new(1u64);
        let b = TVar::new(2u64);
        let mut w = Window::new(2);
        w.push(a.core(), 0);
        w.push(b.core(), 0);
        let mut rs = ReadSet::new();
        w.drain_into(&mut rs);
        assert!(w.is_empty());
        assert_eq!(rs.len(), 2);
        assert!(rs.validate(None, |_| None));
    }

    #[test]
    fn moved_window_keeps_contents() {
        // Child frames park the parent's window by value (no allocation);
        // moving a window must preserve order and versions.
        let a = TVar::new(1u64);
        let b = TVar::new(2u64);
        let mut w = Window::new(2);
        w.push(a.core(), 0);
        w.push(b.core(), 3);
        let saved = w; // move, as Frame::saved_window does
        let mut w = Window::new(2);
        w.push(b.core(), 9);
        w.clear();
        let w = saved;
        assert_eq!(w.len(), 2);
        let versions: Vec<u64> = w.iter().map(|e| e.version).collect();
        assert_eq!(versions, vec![0, 3]);
    }

    #[test]
    fn capacity_is_clamped() {
        let w = Window::new(1);
        assert_eq!(w.cap, 2);
        let w = Window::new(100);
        assert_eq!(w.cap, MAX_WINDOW);
    }

    #[test]
    fn larger_windows_cycle_correctly() {
        let vars: Vec<TVar<u64>> = (0..10u64).map(TVar::new).collect();
        let mut w = Window::new(4);
        let mut evictions = 0;
        for v in &vars {
            if w.push(v.core(), 0).is_some() {
                evictions += 1;
            }
        }
        assert_eq!(w.len(), 4);
        assert_eq!(evictions, 6);
        let ids: Vec<usize> = w.iter().map(|e| e.core.id()).collect();
        let expect: Vec<usize> = vars[6..].iter().map(|v| v.core().id()).collect();
        assert_eq!(ids, expect);
    }

    #[test]
    fn locked_entry_fails_validation() {
        let a = TVar::new(1u64);
        let mut w = Window::new(2);
        w.push(a.core(), 0);
        assert!(a.core().lock().try_lock_at(0, 3));
        assert!(!w.validate());
        a.core().lock().unlock_to(0);
        assert!(w.validate());
    }

    /// The window against a plain model — a queue of `(variable, version
    /// recorded)` — over every capacity, driven by seeded sequences of
    /// pushes, out-of-band overwrites and lock/unlock of the variables.
    #[test]
    fn window_agrees_with_a_queue_model() {
        use std::collections::VecDeque;

        const VARS: usize = 6;
        const OWNER: u64 = 77;

        // xorshift64*: seeded, dependency-free.
        fn next(state: &mut u64) -> usize {
            *state ^= *state >> 12;
            *state ^= *state << 25;
            *state ^= *state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize
        }

        for cap in 2..=MAX_WINDOW {
            for seed in 1..=8u64 {
                let vars: Vec<TVar<u64>> = (0..VARS as u64).map(TVar::new).collect();
                // Ground truth per variable: committed version, locked?
                let mut version = [0u64; VARS];
                let mut locked = [false; VARS];
                let mut model: VecDeque<(usize, u64)> = VecDeque::new();
                let mut w = Window::new(cap);
                let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                for step in 0..400 {
                    let i = next(&mut rng) % VARS;
                    match next(&mut rng) % 16 {
                        // A consistent read of an unlocked variable.
                        0..=8 if !locked[i] => {
                            let expect = (model.len() == cap).then(|| model.pop_front().unwrap());
                            model.push_back((i, version[i]));
                            let evicted = w.push(vars[i].core(), version[i]);
                            assert_eq!(
                                evicted.map(|e| (e.core.id(), e.version)),
                                expect.map(|(v, ver)| (vars[v].core().id(), ver)),
                                "cap {cap} seed {seed} step {step}: oldest-first eviction"
                            );
                        }
                        9..=11 if !locked[i] => {
                            version[i] += 1;
                            vars[i].store_atomic(step, version[i]);
                        }
                        12..=13 if !locked[i] => {
                            assert!(vars[i].core().lock().try_lock_at(version[i], OWNER));
                            locked[i] = true;
                        }
                        12..=14 if locked[i] => {
                            vars[i].core().lock().unlock_to(version[i]);
                            locked[i] = false;
                        }
                        15 => {
                            let mut rs = ReadSet::new();
                            w.drain_into(&mut rs);
                            let drained: Vec<(usize, u64)> =
                                rs.iter().map(|e| (e.core.id(), e.version)).collect();
                            let expect: Vec<(usize, u64)> = model
                                .drain(..)
                                .map(|(v, ver)| (vars[v].core().id(), ver))
                                .collect();
                            assert_eq!(drained, expect, "cap {cap} seed {seed} step {step}");
                        }
                        _ => {}
                    }
                    let current = |&(v, ver): &(usize, u64)| !locked[v] && version[v] == ver;
                    let ctx = format!("cap {cap} seed {seed} step {step}");
                    assert_eq!(w.len(), model.len(), "{ctx}");
                    assert_eq!(w.is_empty(), model.is_empty(), "{ctx}");
                    assert_eq!(
                        w.iter()
                            .map(|e| (e.core.id(), e.version))
                            .collect::<Vec<_>>(),
                        model
                            .iter()
                            .map(|&(v, ver)| (vars[v].core().id(), ver))
                            .collect::<Vec<_>>(),
                        "{ctx}: iter is oldest-first"
                    );
                    assert_eq!(w.validate(), model.iter().all(current), "{ctx}");
                    assert_eq!(
                        w.validate_previous(),
                        model.iter().rev().skip(1).all(current),
                        "{ctx}: every windowed entry but the newest"
                    );
                }
            }
        }
    }
}
