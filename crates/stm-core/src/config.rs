//! Tunables shared by the STM implementations.

use crate::hook::{CommitHook, InstalledHook};
use crate::trace::TraceSink;
use std::sync::Arc;

/// Configuration for an STM instance.
///
/// The pacing of conflict losers is not configurable: it is the one
/// contention-management policy and its constants in [`crate::cm`].
#[derive(Clone, Default)]
pub struct StmConfig {
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
    /// before its write locks release, and every commit then awaits what
    /// the hook deferred after the release — the seam the opt-in durable
    /// mode (WAL + snapshot) plugs into. Every registry backend honours
    /// this; `None` (the default) is a single predictable branch per
    /// commit, pinned allocation-free by the zero-allocation suite.
    pub commit_hook: Option<Arc<InstalledHook>>,
}

impl core::fmt::Debug for StmConfig {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("StmConfig")
            .field("max_retries", &self.max_retries)
            .field("trace", &self.trace.as_ref().map(|_| "Some(<sink>)"))
            .field(
                "commit_hook",
                &self.commit_hook.as_ref().map(|_| "Some(<hook>)"),
            )
            .finish()
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
        self.commit_hook = Some(Arc::new(InstalledHook::new(hook)));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let c = StmConfig::default()
            .with_max_retries(5)
            .with_trace_sink(Arc::new(crate::trace::NoTrace));
        assert_eq!(c.max_retries, Some(5));
        assert!(c.trace.is_some());
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
}
