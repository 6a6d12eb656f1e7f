//! Tunables shared by the STM implementations.

use crate::cm::CmPolicy;
use crate::hook::CommitHook;
use crate::trace::TraceSink;
use std::sync::Arc;

/// Configuration for an STM instance.
///
/// Defaults reproduce the paper's setup; the benchmark harness sweeps some
/// of these for the ablation studies.
#[derive(Clone)]
pub struct StmConfig {
    /// Number of busy-wait spins for the first backoff step after an abort.
    pub backoff_min_spins: u32,
    /// Backoff cap: the exponential backoff never exceeds this many spins
    /// before falling through to `thread::yield_now`.
    pub backoff_max_spins: u32,
    /// Size of the elastic window (the number of most recent reads an
    /// elastic transaction keeps protected before its first write). The
    /// paper and the original E-STM keep the immediate past read, i.e. a
    /// window of 2 (previous and current).
    pub elastic_window: usize,
    /// The contention-management policy: how conflict losers pace their
    /// retries, and how encounter-time conflicts (SwissTM's write locks)
    /// are arbitrated. The default, [`CmPolicy::TwoPhase`], reproduces the
    /// stack's historical pacing on every backend (see the `cm` module
    /// docs for the one deliberate divergence at backoff saturation).
    pub cm: CmPolicy,
    /// Two-phase contention-manager knob (used by [`CmPolicy::TwoPhase`]):
    /// transactions that have performed fewer writes than this are "timid"
    /// and abort themselves on any write-write conflict; beyond it they
    /// compare greedy priorities. Historically this was a SwissTM-only
    /// hardcoded rule; it is now one parameter of one pluggable policy.
    pub cm_write_threshold: usize,
    /// Upper bound on commit-time lock-acquisition spin iterations before
    /// declaring a lock conflict.
    pub lock_spin_limit: u32,
    /// Progress backstop: after this many *consecutive* lost attempts of
    /// one `run` call, the retry loop starts parking the loser between
    /// retries (escalating bounded sleeps via the parking shim) instead of
    /// only spinning/yielding. The sleeps guarantee some competitor an
    /// uncontended window, which bounds livelock under every CM policy —
    /// see [`driver::run`](crate::driver::run) and DESIGN.md ("Scalable clocks
    /// and progress"). Low enough to break conflict storms quickly, high
    /// enough that ordinary contention never sleeps.
    pub progress_park_after: u32,
    /// Optional cap on retries per `run` call; `None` retries forever.
    /// `try_run` reports `RunError::RetriesExhausted` when exceeded.
    pub max_retries: Option<u64>,
    /// Optional execution-trace sink (see [`crate::trace`]): when set,
    /// the backend emits the begin / op / acquire / release / commit /
    /// abort events of the paper's history model into it. Every registry
    /// backend honours this; `None` (the default) keeps the hot path
    /// entirely trace-free — pinned by the zero-allocation suite.
    pub trace: Option<Arc<dyn TraceSink>>,
    /// Optional commit hook (see [`crate::hook`]): when set, every
    /// backend fires [`CommitHook::on_commit`] once per committed
    /// top-level update transaction, after validation succeeds and
    /// before its write locks release — the seam the opt-in durable
    /// mode (WAL + snapshot) plugs into. Every registry backend honours
    /// this; `None` (the default) is a single predictable branch per
    /// commit, pinned allocation-free by the zero-allocation suite.
    pub commit_hook: Option<Arc<dyn CommitHook>>,
}

impl core::fmt::Debug for StmConfig {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("StmConfig")
            .field("backoff_min_spins", &self.backoff_min_spins)
            .field("backoff_max_spins", &self.backoff_max_spins)
            .field("elastic_window", &self.elastic_window)
            .field("cm", &self.cm)
            .field("cm_write_threshold", &self.cm_write_threshold)
            .field("lock_spin_limit", &self.lock_spin_limit)
            .field("progress_park_after", &self.progress_park_after)
            .field("max_retries", &self.max_retries)
            .field("trace", &self.trace.as_ref().map(|_| "Some(<sink>)"))
            .field(
                "commit_hook",
                &self.commit_hook.as_ref().map(|_| "Some(<hook>)"),
            )
            .finish()
    }
}

impl Default for StmConfig {
    fn default() -> Self {
        Self {
            backoff_min_spins: 32,
            backoff_max_spins: 1 << 14,
            elastic_window: 2,
            cm: CmPolicy::default(),
            cm_write_threshold: 4,
            lock_spin_limit: 64,
            progress_park_after: 64,
            max_retries: None,
            trace: None,
            commit_hook: None,
        }
    }
}

impl StmConfig {
    /// Config with a bounded number of retries (useful in tests that must
    /// terminate even if a bug causes livelock).
    #[must_use]
    pub fn with_max_retries(mut self, retries: u64) -> Self {
        self.max_retries = Some(retries);
        self
    }

    /// Override the elastic window size.
    #[must_use]
    pub fn with_elastic_window(mut self, window: usize) -> Self {
        assert!(window >= 2, "elastic window must hold at least 2 entries");
        self.elastic_window = window;
        self
    }

    /// Select the contention-management policy (see [`CmPolicy`]).
    #[must_use]
    pub fn with_cm(mut self, cm: CmPolicy) -> Self {
        self.cm = cm;
        self
    }

    /// Override the progress backstop's consecutive-loss threshold (see
    /// [`progress_park_after`](Self::progress_park_after)).
    #[must_use]
    pub fn with_progress_park_after(mut self, losses: u32) -> Self {
        self.progress_park_after = losses;
        self
    }

    /// Attach an execution-trace sink (see [`crate::trace`]): the backend
    /// built from this config records every run into it.
    #[must_use]
    pub fn with_trace_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Attach a commit hook (see [`crate::hook`]): backends built from
    /// this config fire it once per committed top-level update
    /// transaction, after validation and before lock release.
    #[must_use]
    pub fn with_commit_hook(mut self, hook: Arc<dyn CommitHook>) -> Self {
        self.commit_hook = Some(hook);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_window_matches_paper() {
        assert_eq!(StmConfig::default().elastic_window, 2);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn window_below_two_rejected() {
        let _ = StmConfig::default().with_elastic_window(1);
    }

    #[test]
    fn builders_compose() {
        let c = StmConfig::default()
            .with_max_retries(5)
            .with_elastic_window(4)
            .with_cm(CmPolicy::Karma);
        assert_eq!(c.max_retries, Some(5));
        assert_eq!(c.elastic_window, 4);
        assert_eq!(c.cm, CmPolicy::Karma);
    }

    #[test]
    fn trace_defaults_off_and_attaches() {
        let c = StmConfig::default();
        assert!(c.trace.is_none(), "tracing must be opt-in");
        let c = c.with_trace_sink(Arc::new(crate::trace::NoTrace));
        assert!(c.trace.is_some());
        // The sink is debug-opaque but the config must stay debuggable.
        assert!(format!("{c:?}").contains("trace"));
    }

    #[test]
    fn commit_hook_defaults_off_and_attaches() {
        struct Nop;
        impl CommitHook for Nop {
            fn on_commit(&self, _record: &crate::hook::WriteRecord<'_>) {}
        }
        let c = StmConfig::default();
        assert!(c.commit_hook.is_none(), "durability must be opt-in");
        let c = c.with_commit_hook(Arc::new(Nop));
        assert!(c.commit_hook.is_some());
        assert!(format!("{c:?}").contains("commit_hook"));
    }

    #[test]
    fn default_cm_is_two_phase() {
        // The default must reproduce the pre-CM stack: exponential backoff
        // pacing everywhere plus the SwissTM encounter rule.
        assert_eq!(StmConfig::default().cm, CmPolicy::TwoPhase);
    }
}
