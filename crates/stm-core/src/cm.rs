//! Pluggable contention management.
//!
//! Until this module existed, every conflict in the stack was arbitrated
//! the same way: the aborted transaction backed off with one fixed
//! randomized exponential schedule ([`Backoff`]), and SwissTM's two-phase
//! encounter-time rule lived as a hardcoded special case inside its write
//! path. Contention management is a *policy*, though — the paper's elastic
//! transactions win precisely in high-contention search structures, and
//! how losers wait (or don't) interacts with elastic sections, `or_else`
//! alternation and retry storms in ways worth measuring. This module makes
//! the policy a first-class, swappable axis:
//!
//! * [`ContentionManager`] — the object-safe decision interface. Three
//!   decision points: [`on_start`](ContentionManager::on_start) (a new
//!   attempt begins), [`on_conflict`](ContentionManager::on_conflict)
//!   (a conflict happened; decide an [`Arbitrate`] action), and
//!   [`on_commit`](ContentionManager::on_commit) (the transaction won).
//! * [`Arbitrate`] — what the loser does: `Abort` (retry immediately),
//!   `Backoff(spins)` (busy-wait, then retry), or `Yield` (give the OS
//!   scheduler a turn — essential on core-starved hosts).
//! * [`CmPolicy`] — the named, [`StmConfig`]-carried policy selector the
//!   registry and the `repro --cm` flag speak:
//!
//! | name | on conflict | encounter-time (owner known) |
//! |---|---|---|
//! | `suicide` | abort self, retry immediately | abort self |
//! | `backoff` | randomized exponential backoff | politely spin-wait, bounded |
//! | `karma` | backoff shrinking with accrued work | spend accrued karma waiting |
//! | `two-phase` | randomized exponential backoff | SwissTM rule: timid below the write threshold, greedy ticket-order above |
//!
//! `two-phase` is the default: it generalizes the rule that used to be
//! hardwired into SwissTM (`cm_write_threshold` in [`StmConfig`]) into one
//! policy instance, and on backends without encounter-time arbitration it
//! degenerates to the old exponential backoff (same schedule, same RNG
//! stream, same spin counts below saturation) — so the default
//! configuration reproduces the pre-CM pacing on every backend, with one
//! deliberate divergence: once the exponential ceiling saturates, the
//! loser yields the core immediately instead of spinning a final random
//! burst first (on the contended hosts where saturation happens, the
//! yield dominates the pacing either way).
//!
//! ## Two call sites, one state
//!
//! A policy instance ([`CmState`]) is owned by the
//! [`Attempt`](crate::driver::Attempt) state of a `run` call's
//! transaction object, so the same accumulated state (e.g. Karma's priority)
//! serves both decision points:
//!
//! * **retry-time** — the shared [`driver::run`](crate::driver::run) loop
//!   asks the CM how to pace the next attempt after an abort
//!   ([`ConflictCtx::owner`] is 0: the enemy is unknown);
//! * **encounter-time** — a backend that detects conflicts eagerly
//!   (SwissTM's write-lock table) consults the CM *at the conflict site*
//!   with the owner's ticket, the write-set size and the spins already
//!   burned, and interprets the decision in place.
//!
//! [`CmState`] is an inline enum (no heap allocation — the zero-alloc
//! suite pins CM bookkeeping down on all four backends) that dispatches to
//! the four policy structs, each of which also implements the trait
//! individually.

use crate::backoff::Backoff;
use crate::config::StmConfig;
use crate::error::AbortReason;

/// What a conflict loser does before (or instead of) its next try.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arbitrate {
    /// Abandon the attempt and retry immediately (abort self). At an
    /// encounter-time conflict site this aborts the whole attempt.
    Abort,
    /// Busy-wait this many spin iterations, then retry.
    Backoff(u32),
    /// Yield the thread to the OS scheduler, then retry. The decision of
    /// choice once spinning saturates — on a core-starved host a yield is
    /// what actually lets the conflicting transaction finish.
    Yield,
}

/// Everything a policy may consult when arbitrating one conflict.
///
/// Retry-time conflicts (the shared retry loop pacing the next attempt)
/// have `owner == 0` and `spins == 0`; encounter-time conflicts (a backend
/// consulting the CM at the conflict site) carry the owner's ticket and
/// the spins already burned waiting at this site.
#[derive(Debug, Clone, Copy)]
pub struct ConflictCtx {
    /// Why the attempt aborted (retry-time) or would abort (encounter).
    pub reason: AbortReason,
    /// 1-based attempt number of this `run` call.
    pub attempt: u64,
    /// The deciding transaction's ticket.
    pub ticket: u64,
    /// The conflicting owner's ticket, or 0 when unknown (retry-time).
    pub owner: u64,
    /// Write-set size of the deciding transaction at the conflict.
    pub writes: usize,
    /// Spin iterations already burned at this conflict site.
    pub spins: u32,
    /// Accesses (reads + writes) the failed attempt had performed — the
    /// "work done" that Karma-style policies convert into priority.
    pub work: u64,
}

impl ConflictCtx {
    /// True when the conflicting owner is known (encounter-time).
    #[must_use]
    pub fn is_encounter(&self) -> bool {
        self.owner != 0
    }
}

/// The object-safe contention-management interface.
///
/// Implementations are **per-`run`-call state machines**: a fresh instance
/// is built for every top-level `run` (from [`CmPolicy::build`]) and sees
/// that run's attempts in order. They must not allocate in steady state —
/// the workspace zero-alloc suite counts them as part of the hot path.
pub trait ContentionManager: Send + core::fmt::Debug {
    /// The policy's registry name ("suicide", "two-phase", …).
    fn name(&self) -> &'static str;

    /// A new attempt (1-based) is starting.
    fn on_start(&mut self, attempt: u64);

    /// A conflict happened; decide what the loser does.
    fn on_conflict(&mut self, ctx: &ConflictCtx) -> Arbitrate;

    /// The transaction committed; settle any accumulated priority.
    fn on_commit(&mut self);
}

// ---------------------------------------------------------------------
// The four shipped policies.
// ---------------------------------------------------------------------

/// Abort self, retry immediately — conflict arbitration reduced to its
/// simplest form (the "suicide" manager of the CM literature). No pacing
/// at all: under real contention this spins the retry loop hot, which is
/// exactly why it is worth having as a measurable baseline.
#[derive(Debug, Default, Clone, Copy)]
pub struct Suicide;

impl ContentionManager for Suicide {
    fn name(&self) -> &'static str {
        "suicide"
    }
    fn on_start(&mut self, _attempt: u64) {}
    fn on_conflict(&mut self, _ctx: &ConflictCtx) -> Arbitrate {
        Arbitrate::Abort
    }
    fn on_commit(&mut self) {}
}

/// The pre-CM behaviour as a policy: randomized exponential backoff
/// between attempts (wrapping [`Backoff`], same schedule and RNG stream),
/// and polite bounded spin-waiting at encounter-time conflicts.
#[derive(Debug)]
pub struct BackoffCm {
    backoff: Backoff,
    lock_spin_limit: u32,
}

impl BackoffCm {
    /// Build from the config's backoff bounds, seeded per run.
    #[must_use]
    pub fn new(cfg: &StmConfig, seed: u64) -> Self {
        Self {
            backoff: Backoff::new(cfg.backoff_min_spins, cfg.backoff_max_spins, seed),
            lock_spin_limit: cfg.lock_spin_limit,
        }
    }
}

impl ContentionManager for BackoffCm {
    fn name(&self) -> &'static str {
        "backoff"
    }
    fn on_start(&mut self, _attempt: u64) {}
    fn on_conflict(&mut self, ctx: &ConflictCtx) -> Arbitrate {
        if ctx.is_encounter() {
            // Wait for the owner regardless of priority, but give up once
            // the bounded budget is spent (the owner may be descheduled).
            if ctx.spins > self.lock_spin_limit {
                Arbitrate::Abort
            } else {
                Arbitrate::Backoff(1)
            }
        } else {
            let (spins, saturated) = self.backoff.plan();
            if saturated {
                Arbitrate::Yield
            } else {
                Arbitrate::Backoff(spins)
            }
        }
    }
    fn on_commit(&mut self) {
        self.backoff.reset();
    }
}

/// Karma: priority accumulated from work done. Every aborted attempt
/// deposits the work it had performed (reads + writes) as karma; the more
/// work a transaction has already lost, the *less* it backs off — it has
/// earned the right to retry aggressively — while fresh transactions wait
/// the full exponential schedule. A losing streak of 10+ attempts yields
/// the core instead of spinning (spinning that long is not working, and a
/// core-starved host needs the other thread to run). At encounter-time
/// conflicts the karma is spent waiting for the lock: a transaction waits
/// one spin per karma unit (bounded by the lock-spin limit) before giving
/// up.
#[derive(Debug)]
pub struct Karma {
    karma: u64,
    min_spins: u32,
    max_spins: u32,
    lock_spin_limit: u32,
}

impl Karma {
    /// Build from the config's pacing bounds.
    #[must_use]
    pub fn new(cfg: &StmConfig) -> Self {
        Self {
            karma: 0,
            min_spins: cfg.backoff_min_spins.max(1),
            max_spins: cfg.backoff_max_spins.max(cfg.backoff_min_spins.max(1)),
            lock_spin_limit: cfg.lock_spin_limit,
        }
    }

    /// Accumulated priority (tests and diagnostics).
    #[must_use]
    pub fn karma(&self) -> u64 {
        self.karma
    }
}

impl ContentionManager for Karma {
    fn name(&self) -> &'static str {
        "karma"
    }
    fn on_start(&mut self, _attempt: u64) {}
    fn on_conflict(&mut self, ctx: &ConflictCtx) -> Arbitrate {
        if ctx.is_encounter() {
            // Spend karma waiting in place; paupers abort immediately.
            let budget = self.karma.min(u64::from(self.lock_spin_limit));
            if u64::from(ctx.spins) < budget {
                Arbitrate::Backoff(1)
            } else {
                Arbitrate::Abort
            }
        } else {
            // The failed attempt's work becomes priority.
            self.karma = self.karma.saturating_add(ctx.work.max(1));
            // A long losing streak means spinning is not working (e.g. a
            // retry waiter whose wake-up needs another thread to run):
            // cede the core, like the backoff policies do at saturation.
            // Essential on core-starved hosts, where a karma-rich loser
            // would otherwise shrink its backoff toward a hot spin and
            // starve the very thread it is waiting for.
            if ctx.attempt >= 10 {
                return Arbitrate::Yield;
            }
            // Exponential ceiling as in plain backoff, scaled down by
            // ~log2(karma): the loser backs off proportionally to the
            // conflict streak and inversely to the work it has invested.
            let streak = u32::try_from(ctx.attempt).expect("bounded above");
            let ceiling = self
                .min_spins
                .saturating_mul(1u32 << streak)
                .min(self.max_spins);
            let credit = 63 - (self.karma | 1).leading_zeros();
            Arbitrate::Backoff((ceiling >> credit.min(16)).max(1))
        }
    }
    fn on_commit(&mut self) {
        // The win consumes the accumulated priority.
        self.karma = 0;
    }
}

/// The SwissTM two-phase contention manager, generalized from the rule
/// that used to be hardwired into the SwissTM write path:
///
/// * **phase 1 (timid)**: transactions with fewer writes than
///   [`StmConfig::cm_write_threshold`] abort themselves on any
///   encounter-time conflict — they have little to lose;
/// * **phase 2 (greedy)**: past the threshold, the *older* attempt
///   (smaller ticket) spin-waits for the lock, bounded by
///   [`StmConfig::lock_spin_limit`]; the younger aborts.
///
/// Between attempts it paces with the same randomized exponential backoff
/// as [`BackoffCm`], which is why this policy is the default: on backends
/// without encounter-time arbitration it is indistinguishable from the
/// pre-CM stack.
#[derive(Debug)]
pub struct TwoPhase {
    write_threshold: usize,
    lock_spin_limit: u32,
    backoff: Backoff,
}

impl TwoPhase {
    /// Build from the config's threshold, spin limit and backoff bounds.
    #[must_use]
    pub fn new(cfg: &StmConfig, seed: u64) -> Self {
        Self {
            write_threshold: cfg.cm_write_threshold,
            lock_spin_limit: cfg.lock_spin_limit,
            backoff: Backoff::new(cfg.backoff_min_spins, cfg.backoff_max_spins, seed),
        }
    }
}

impl ContentionManager for TwoPhase {
    fn name(&self) -> &'static str {
        "two-phase"
    }
    fn on_start(&mut self, _attempt: u64) {}
    fn on_conflict(&mut self, ctx: &ConflictCtx) -> Arbitrate {
        if ctx.is_encounter() {
            if ctx.writes < self.write_threshold {
                // Phase 1 (timid): short transactions yield immediately.
                return Arbitrate::Abort;
            }
            // Phase 2 (greedy): the older attempt may wait for the lock;
            // the younger yields.
            if ctx.ticket < ctx.owner {
                if ctx.spins > self.lock_spin_limit {
                    Arbitrate::Abort
                } else {
                    Arbitrate::Backoff(1)
                }
            } else {
                Arbitrate::Abort
            }
        } else {
            let (spins, saturated) = self.backoff.plan();
            if saturated {
                Arbitrate::Yield
            } else {
                Arbitrate::Backoff(spins)
            }
        }
    }
    fn on_commit(&mut self) {
        self.backoff.reset();
    }
}

// ---------------------------------------------------------------------
// Policy selection.
// ---------------------------------------------------------------------

/// The named policy selector carried by [`StmConfig`] and spoken by the
/// backend registry and the `repro --cm` flag.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmPolicy {
    /// [`Suicide`]: abort self, no pacing.
    Suicide,
    /// [`BackoffCm`]: the classic randomized exponential backoff.
    Backoff,
    /// [`Karma`]: priority accumulated from work done.
    Karma,
    /// [`TwoPhase`]: the SwissTM rule, generalized (the default).
    #[default]
    TwoPhase,
}

impl CmPolicy {
    /// Every shipped policy, in display order.
    pub const ALL: [CmPolicy; 4] = [
        CmPolicy::Suicide,
        CmPolicy::Backoff,
        CmPolicy::Karma,
        CmPolicy::TwoPhase,
    ];

    /// The stable registry name ("suicide", "backoff", "karma",
    /// "two-phase").
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CmPolicy::Suicide => "suicide",
            CmPolicy::Backoff => "backoff",
            CmPolicy::Karma => "karma",
            CmPolicy::TwoPhase => "two-phase",
        }
    }

    /// One-line description for `--list` style output.
    #[must_use]
    pub fn summary(self) -> &'static str {
        match self {
            CmPolicy::Suicide => "abort self on conflict, retry immediately (no pacing)",
            CmPolicy::Backoff => "randomized exponential backoff between attempts",
            CmPolicy::Karma => "priority from work done; losers back off proportionally",
            CmPolicy::TwoPhase => {
                "SwissTM rule: timid below write threshold, greedy above (default)"
            }
        }
    }

    /// Build a fresh per-run state machine for this policy.
    #[must_use]
    pub fn build(self, cfg: &StmConfig, seed: u64) -> CmState {
        match self {
            CmPolicy::Suicide => CmState::Suicide(Suicide),
            CmPolicy::Backoff => CmState::Backoff(BackoffCm::new(cfg, seed)),
            CmPolicy::Karma => CmState::Karma(Karma::new(cfg)),
            CmPolicy::TwoPhase => CmState::TwoPhase(TwoPhase::new(cfg, seed)),
        }
    }
}

impl core::fmt::Display for CmPolicy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned by [`FromStr`](core::str::FromStr) parsing of a [`CmPolicy`] for an unknown policy name;
/// its `Display` lists the valid names, so CLI flags fail actionably.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownCm {
    name: String,
}

impl UnknownCm {
    /// The name that failed to resolve.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl core::fmt::Display for UnknownCm {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "unknown contention manager {:?}; known policies: {}",
            self.name,
            CmPolicy::ALL.map(CmPolicy::name).join(", ")
        )
    }
}

impl std::error::Error for UnknownCm {}

impl core::str::FromStr for CmPolicy {
    type Err = UnknownCm;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        CmPolicy::ALL
            .into_iter()
            .find(|p| p.name() == s)
            .ok_or_else(|| UnknownCm {
                name: s.to_string(),
            })
    }
}

/// The per-run policy state, stored inline (no heap allocation) in every
/// backend's transaction object. Dispatches [`ContentionManager`] to the
/// selected policy.
#[derive(Debug)]
pub enum CmState {
    /// See [`Suicide`].
    Suicide(Suicide),
    /// See [`BackoffCm`].
    Backoff(BackoffCm),
    /// See [`Karma`].
    Karma(Karma),
    /// See [`TwoPhase`].
    TwoPhase(TwoPhase),
}

impl ContentionManager for CmState {
    fn name(&self) -> &'static str {
        match self {
            CmState::Suicide(p) => p.name(),
            CmState::Backoff(p) => p.name(),
            CmState::Karma(p) => p.name(),
            CmState::TwoPhase(p) => p.name(),
        }
    }
    fn on_start(&mut self, attempt: u64) {
        match self {
            CmState::Suicide(p) => p.on_start(attempt),
            CmState::Backoff(p) => p.on_start(attempt),
            CmState::Karma(p) => p.on_start(attempt),
            CmState::TwoPhase(p) => p.on_start(attempt),
        }
    }
    fn on_conflict(&mut self, ctx: &ConflictCtx) -> Arbitrate {
        match self {
            CmState::Suicide(p) => p.on_conflict(ctx),
            CmState::Backoff(p) => p.on_conflict(ctx),
            CmState::Karma(p) => p.on_conflict(ctx),
            CmState::TwoPhase(p) => p.on_conflict(ctx),
        }
    }
    fn on_commit(&mut self) {
        match self {
            CmState::Suicide(p) => p.on_commit(),
            CmState::Backoff(p) => p.on_commit(),
            CmState::Karma(p) => p.on_commit(),
            CmState::TwoPhase(p) => p.on_commit(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn retry_ctx(attempt: u64, work: u64) -> ConflictCtx {
        ConflictCtx {
            reason: AbortReason::LockConflict,
            attempt,
            ticket: 7,
            owner: 0,
            writes: 0,
            spins: 0,
            work,
        }
    }

    fn encounter_ctx(ticket: u64, owner: u64, writes: usize, spins: u32) -> ConflictCtx {
        ConflictCtx {
            reason: AbortReason::ContentionManager,
            attempt: 1,
            ticket,
            owner,
            writes,
            spins,
            work: 0,
        }
    }

    #[test]
    fn names_roundtrip_through_from_str() {
        for p in CmPolicy::ALL {
            assert_eq!(p.name().parse::<CmPolicy>().unwrap(), p);
            assert_eq!(p.to_string(), p.name());
            assert!(!p.summary().is_empty());
        }
        let err = "nope".parse::<CmPolicy>().unwrap_err();
        assert_eq!(err.name(), "nope");
        assert!(
            err.to_string().contains("two-phase"),
            "error must list the valid names: {err}"
        );
    }

    #[test]
    fn default_policy_is_two_phase() {
        assert_eq!(CmPolicy::default(), CmPolicy::TwoPhase);
        assert_eq!(StmConfig::default().cm, CmPolicy::TwoPhase);
    }

    #[test]
    fn suicide_always_aborts() {
        let mut cm = CmPolicy::Suicide.build(&StmConfig::default(), 1);
        assert_eq!(cm.on_conflict(&retry_ctx(1, 10)), Arbitrate::Abort);
        assert_eq!(
            cm.on_conflict(&encounter_ctx(1, 2, 100, 0)),
            Arbitrate::Abort
        );
        assert_eq!(cm.name(), "suicide");
    }

    #[test]
    fn backoff_policy_grows_then_yields() {
        let cfg = StmConfig {
            backoff_min_spins: 2,
            backoff_max_spins: 8,
            ..StmConfig::default()
        };
        let mut cm = CmPolicy::Backoff.build(&cfg, 7);
        // First decisions spin within the (growing) ceiling…
        match cm.on_conflict(&retry_ctx(1, 0)) {
            Arbitrate::Backoff(n) => assert!((2..=8).contains(&n)),
            other => panic!("expected Backoff, got {other:?}"),
        }
        // …and once the ceiling saturates the policy yields.
        let mut saw_yield = false;
        for a in 2..10 {
            if cm.on_conflict(&retry_ctx(a, 0)) == Arbitrate::Yield {
                saw_yield = true;
                break;
            }
        }
        assert!(saw_yield, "saturated backoff must switch to yielding");
    }

    #[test]
    fn backoff_policy_waits_politely_at_encounter() {
        let cfg = StmConfig::default(); // lock_spin_limit 64
        let mut cm = CmPolicy::Backoff.build(&cfg, 7);
        assert_eq!(
            cm.on_conflict(&encounter_ctx(5, 2, 0, 0)),
            Arbitrate::Backoff(1)
        );
        assert_eq!(
            cm.on_conflict(&encounter_ctx(5, 2, 0, cfg.lock_spin_limit + 1)),
            Arbitrate::Abort,
            "the wait must stay bounded"
        );
    }

    #[test]
    fn karma_accrues_work_and_shrinks_backoff() {
        let cfg = StmConfig {
            backoff_min_spins: 64,
            backoff_max_spins: 1 << 14,
            ..StmConfig::default()
        };
        let mut rich = Karma::new(&cfg);
        let mut poor = Karma::new(&cfg);
        let rich_spins = match rich.on_conflict(&retry_ctx(4, 1024)) {
            Arbitrate::Backoff(n) => n,
            other => panic!("expected Backoff, got {other:?}"),
        };
        let poor_spins = match poor.on_conflict(&retry_ctx(4, 0)) {
            Arbitrate::Backoff(n) => n,
            other => panic!("expected Backoff, got {other:?}"),
        };
        assert!(
            rich_spins < poor_spins,
            "work invested must shorten the backoff ({rich_spins} !< {poor_spins})"
        );
        assert_eq!(rich.karma(), 1024);
        rich.on_commit();
        assert_eq!(rich.karma(), 0, "a win consumes the karma");
    }

    #[test]
    fn karma_yields_after_a_long_losing_streak() {
        // A karma-rich waiter must not hot-spin forever on a starved
        // core: once the losing streak saturates the exponential window,
        // the policy cedes the core like the backoff policies do.
        let cfg = StmConfig::default();
        let mut cm = Karma::new(&cfg);
        for attempt in 1..10 {
            assert!(
                matches!(
                    cm.on_conflict(&retry_ctx(attempt, 64)),
                    Arbitrate::Backoff(_)
                ),
                "attempt {attempt} still spins"
            );
        }
        assert_eq!(cm.on_conflict(&retry_ctx(10, 64)), Arbitrate::Yield);
        assert_eq!(cm.on_conflict(&retry_ctx(37, 64)), Arbitrate::Yield);
    }

    #[test]
    fn karma_spends_priority_at_encounter() {
        let cfg = StmConfig::default();
        let mut cm = Karma::new(&cfg);
        // No karma yet: abort immediately.
        assert_eq!(cm.on_conflict(&encounter_ctx(5, 2, 0, 0)), Arbitrate::Abort);
        // Invest some work, then the same conflict is worth waiting for.
        let _ = cm.on_conflict(&retry_ctx(1, 16));
        assert_eq!(
            cm.on_conflict(&encounter_ctx(5, 2, 0, 0)),
            Arbitrate::Backoff(1)
        );
        // …until the karma budget is burned.
        assert_eq!(
            cm.on_conflict(&encounter_ctx(5, 2, 0, 17)),
            Arbitrate::Abort
        );
    }

    #[test]
    fn two_phase_reproduces_the_swiss_rule() {
        let cfg = StmConfig::default(); // threshold 4, spin limit 64
        let mut cm = TwoPhase::new(&cfg, 3);
        // Timid: fewer writes than the threshold → abort self.
        assert_eq!(cm.on_conflict(&encounter_ctx(1, 9, 3, 0)), Arbitrate::Abort);
        // Greedy, older than the owner → wait in place…
        assert_eq!(
            cm.on_conflict(&encounter_ctx(1, 9, 4, 0)),
            Arbitrate::Backoff(1)
        );
        // …bounded by the spin limit…
        assert_eq!(
            cm.on_conflict(&encounter_ctx(1, 9, 4, cfg.lock_spin_limit + 1)),
            Arbitrate::Abort
        );
        // …and greedy-but-younger yields.
        assert_eq!(cm.on_conflict(&encounter_ctx(9, 1, 4, 0)), Arbitrate::Abort);
    }

    #[test]
    fn two_phase_retry_pacing_matches_plain_backoff() {
        // Between attempts the default policy must pace exactly like the
        // pre-CM exponential backoff: same seed → same spin sequence.
        let cfg = StmConfig::default();
        let mut tp = TwoPhase::new(&cfg, 42);
        let mut reference = Backoff::new(cfg.backoff_min_spins, cfg.backoff_max_spins, 42);
        for attempt in 1..6 {
            let (expect, saturated) = reference.plan();
            let got = tp.on_conflict(&retry_ctx(attempt, 0));
            if saturated {
                assert_eq!(got, Arbitrate::Yield);
            } else {
                assert_eq!(got, Arbitrate::Backoff(expect));
            }
        }
    }

    #[test]
    fn cm_state_dispatches_to_every_policy() {
        let cfg = StmConfig::default();
        for p in CmPolicy::ALL {
            let mut cm = p.build(&cfg, 11);
            assert_eq!(cm.name(), p.name());
            cm.on_start(1);
            let _ = cm.on_conflict(&retry_ctx(1, 4));
            cm.on_commit();
        }
    }

    #[test]
    fn every_builtin_policy_terminates_encounter_waits() {
        // Livelock guard: for every policy, a conflict site that polls the
        // CM with monotonically growing `spins` must eventually be told to
        // abort (the win case — the owner releasing — is the backends'
        // job; the policy only has to keep the wait finite).
        let cfg = StmConfig::default();
        for p in CmPolicy::ALL {
            let mut cm = p.build(&cfg, 5);
            // Give Karma something to spend so the test exercises the
            // bounded-wait path, not just the instant abort.
            let _ = cm.on_conflict(&retry_ctx(1, 1000));
            let mut spins = 0u32;
            let mut aborted = false;
            for _ in 0..1_000_000 {
                match cm.on_conflict(&encounter_ctx(1, 9, 100, spins)) {
                    Arbitrate::Abort => {
                        aborted = true;
                        break;
                    }
                    Arbitrate::Backoff(n) => spins = spins.saturating_add(n.max(1)),
                    Arbitrate::Yield => spins = spins.saturating_add(1),
                }
            }
            assert!(aborted, "{}: encounter wait never terminated", p.name());
        }
    }
}
