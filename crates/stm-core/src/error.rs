//! Abort causes and user-visible errors.

/// Why a transaction attempt aborted. Used both to drive the retry loop and
/// for the per-cause abort statistics the paper's evaluation reports.
///
/// Word-sized, so a read's `Result<u64, Abort>` is a pair of words that a
/// call returns in two registers; with a one-byte reason the two variants'
/// payloads sit at different offsets and every read result made a round
/// trip through memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u64)]
pub enum AbortReason {
    /// A location we needed was write-locked by another transaction.
    LockConflict,
    /// Read-set validation failed (a location we read was overwritten).
    ReadValidation,
    /// A lazy-snapshot / timestamp extension failed.
    ExtensionFailed,
    /// The contention manager decided this transaction should yield.
    ContentionManager,
    /// A consistent snapshot of a single location could not be obtained
    /// (the location churned during the read protocol).
    UnstableRead,
    /// The elastic cut could not be taken: a location in the elastic window
    /// changed under us.
    ElasticCut,
    /// A programmatic abort-and-rerun: code observed a state it cannot
    /// proceed from (e.g. the collection layer hitting a node another
    /// transaction retired) and restarts the attempt.
    Explicit,
    /// A defensive traversal bound was exceeded (used by the collection
    /// layer to guarantee termination even under pathological interleaving).
    StepBound,
    /// A *user-level* retry ([`Tx::retry`](crate::api::Tx::retry) /
    /// [`Transaction::retry`](crate::stm::Transaction::retry)): the body
    /// asked to be re-run because a precondition does not hold yet. This is
    /// the Haskell-STM `retry` of the `atomic` facade — it drives
    /// [`Atomic::or_else`](crate::api::Atomic::or_else) branch alternation
    /// and is counted as its own statistics category, **not** as a
    /// conflict abort.
    ExplicitRetry,
}

impl AbortReason {
    /// Stable index for per-cause counters.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            AbortReason::LockConflict => 0,
            AbortReason::ReadValidation => 1,
            AbortReason::ExtensionFailed => 2,
            AbortReason::ContentionManager => 3,
            AbortReason::UnstableRead => 4,
            AbortReason::ElasticCut => 5,
            AbortReason::Explicit => 6,
            AbortReason::StepBound => 7,
            AbortReason::ExplicitRetry => 8,
        }
    }

    /// Number of distinct abort causes (size of the counter array).
    pub const COUNT: usize = 9;

    /// All causes, in `index` order.
    pub const ALL: [AbortReason; Self::COUNT] = [
        AbortReason::LockConflict,
        AbortReason::ReadValidation,
        AbortReason::ExtensionFailed,
        AbortReason::ContentionManager,
        AbortReason::UnstableRead,
        AbortReason::ElasticCut,
        AbortReason::Explicit,
        AbortReason::StepBound,
        AbortReason::ExplicitRetry,
    ];

    /// True for the user-level retry, which the statistics layer reports
    /// as its own category instead of a conflict abort.
    #[must_use]
    pub fn is_explicit_retry(self) -> bool {
        matches!(self, AbortReason::ExplicitRetry)
    }

    /// True for aborts decided by a contention manager (encounter-time
    /// self-aborts like SwissTM's timid phase). Always a *conflict* abort
    /// — disjoint from [`is_explicit_retry`](Self::is_explicit_retry) by
    /// construction, which the statistics tests pin down.
    #[must_use]
    pub fn is_contention(self) -> bool {
        matches!(self, AbortReason::ContentionManager)
    }
}

impl core::fmt::Display for AbortReason {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            AbortReason::LockConflict => "lock conflict",
            AbortReason::ReadValidation => "read validation",
            AbortReason::ExtensionFailed => "snapshot extension failed",
            AbortReason::ContentionManager => "contention manager",
            AbortReason::UnstableRead => "unstable read",
            AbortReason::ElasticCut => "elastic cut failed",
            AbortReason::Explicit => "explicit",
            AbortReason::StepBound => "step bound exceeded",
            AbortReason::ExplicitRetry => "explicit retry",
        };
        f.write_str(s)
    }
}

/// The in-flight abort signal. Transaction bodies propagate this with `?`;
/// the STM's retry loop consumes it and re-runs the body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Abort {
    /// Why the attempt must be abandoned.
    pub reason: AbortReason,
}

impl Abort {
    /// Construct an abort with the given cause.
    #[must_use]
    pub fn new(reason: AbortReason) -> Self {
        Self { reason }
    }
}

impl From<AbortReason> for Abort {
    fn from(reason: AbortReason) -> Self {
        Self { reason }
    }
}

impl core::fmt::Display for Abort {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "transaction aborted: {}", self.reason)
    }
}

impl std::error::Error for Abort {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_unique() {
        let mut seen = [false; AbortReason::COUNT];
        for r in AbortReason::ALL {
            assert!(!seen[r.index()], "duplicate index for {r:?}");
            seen[r.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn contention_and_retry_categories_are_disjoint() {
        for r in AbortReason::ALL {
            assert!(
                !(r.is_contention() && r.is_explicit_retry()),
                "{r:?} claims both categories"
            );
        }
        assert!(AbortReason::ContentionManager.is_contention());
        assert!(!AbortReason::ContentionManager.is_explicit_retry());
    }

    #[test]
    fn display_is_nonempty() {
        for r in AbortReason::ALL {
            assert!(!r.to_string().is_empty());
        }
        assert!(Abort::new(AbortReason::Explicit)
            .to_string()
            .contains("explicit"));
    }
}
