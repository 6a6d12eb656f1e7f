//! Runtime-erased STM backends: the `dyn`-compatible twin of the [`Stm`]
//! trait, plus the name-based backend factory the benchmark pipeline
//! selects implementations from at runtime.
//!
//! ## Why erasure
//!
//! [`Stm`] is generic (a GAT transaction type, a generic `try_run`), so
//! every workload written against it is monomorphized once *per STM*.
//! That is the right call on the hot path, but it forces harness code to
//! enumerate backends at compile time — the five-fold duplication this
//! module removes. The transaction side needs no twin:
//! [`Transaction`](crate::Transaction) is already `dyn`-compatible (its
//! typed and generic methods are `where Self: Sized`), so an erased body
//! receives the facade's [`Tx`], a sized wrapper around
//! `&mut dyn Transaction` that implements the full typed trait again.
//! Collections and workloads written against the static API run
//! unchanged over an erased backend, and each word operation is one
//! indirect call straight into the backend's own `Transaction` impl.
//!
//! * [`DynStm`] / [`Backend`] — the erased STM instance and its owning
//!   handle. Any `S: Stm` erases with [`Backend::from_stm`]; its name
//!   and its [`Instance`] (clock, counters, configuration) are all the
//!   erased surface needs besides the run itself.
//! * [`BackendSpec`] / [`BackendRegistry`] — the name → constructor
//!   factory ("tl2", "lsa", "swiss", "oe", "oe-estm-compat", "boost");
//!   each backend crate registers its constructors, and callers build
//!   instances from runtime strings (CLI flags, config files, scenario
//!   lists).
//!
//! The `'env` lifetime discipline of the static traits carries over
//! verbatim: every accessed location must outlive the `run` call, enforced
//! by the borrow checker — erasure does not open a use-after-free hole and
//! the crate stays `#![forbid(unsafe_code)]`.

use crate::api::Tx;
use crate::clock::GlobalClock;
use crate::config::StmConfig;
use crate::error::Abort;
use crate::stats::StatsSnapshot;
use crate::stm::{Instance, RunError, Stm, TxKind};

/// The erased transaction body passed across the `dyn DynStm` boundary.
///
/// Bodies communicate a single `u64` result word; richer results are
/// smuggled through the caller's environment (see [`Backend::try_run`]).
pub type DynBody<'env, 'b> = dyn for<'a> FnMut(&mut Tx<'env, 'a>) -> Result<u64, Abort> + 'b;

/// Object-safe twin of [`Stm`]: what a [`Backend`] owns.
///
/// Implemented for every `S: Stm` by a blanket impl; user code normally
/// interacts with the ergonomic [`Backend`] handle instead.
pub trait DynStm: Send + Sync {
    /// Human-readable algorithm name ("TL2", "LSA", "SwissTM", "OE-STM",
    /// "E-STM").
    fn name(&self) -> &'static str;
    /// The instance's clock, counters and configuration.
    fn instance(&self) -> &Instance;
    /// Run `body` transactionally with the shared retry loop, erased to
    /// the word level. Prefer [`Backend::try_run`].
    fn try_run_dyn<'env>(
        &'env self,
        kind: TxKind,
        body: &mut DynBody<'env, '_>,
    ) -> Result<u64, RunError>;
}

impl<S: Stm> DynStm for S {
    fn name(&self) -> &'static str {
        Stm::name(self)
    }
    fn instance(&self) -> &Instance {
        Stm::instance(self)
    }
    fn try_run_dyn<'env>(
        &'env self,
        kind: TxKind,
        body: &mut DynBody<'env, '_>,
    ) -> Result<u64, RunError> {
        self.try_run(kind, |tx: &mut S::Txn<'env>| body(&mut Tx::new(tx)))
    }
}

/// An owned, runtime-selected STM backend.
///
/// A `Backend` pairs an erased STM instance with the registry key it was
/// built from, and offers a typed `run`/`try_run` mirroring [`Stm`] — the
/// closure receives a [`Tx`], which implements
/// [`Transaction`](crate::Transaction), so all
/// collection code runs unchanged.
pub struct Backend {
    key: String,
    inner: Box<dyn DynStm>,
}

impl core::fmt::Debug for Backend {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Backend")
            .field("key", &self.key)
            .field("name", &self.inner.name())
            .finish()
    }
}

impl Backend {
    /// Erase a concrete STM instance. The registry key defaults to the
    /// instance's display name.
    pub fn from_stm(stm: impl Stm + 'static) -> Self {
        let key = DynStm::name(&stm).to_string();
        Self {
            key,
            inner: Box::new(stm),
        }
    }

    /// Override the registry key (done by [`BackendRegistry::build`]).
    #[must_use]
    pub fn with_key(mut self, key: impl Into<String>) -> Self {
        self.key = key.into();
        self
    }

    /// The registry key this backend was built from ("tl2", "oe", …).
    #[must_use]
    pub fn key(&self) -> &str {
        &self.key
    }

    /// The algorithm's display name ("TL2", "OE-STM", …).
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.inner.name()
    }

    /// The instance's clock, counters and configuration.
    #[must_use]
    pub fn instance(&self) -> &Instance {
        self.inner.instance()
    }

    /// Snapshot of the commit/abort counters.
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        self.instance().stats.snapshot()
    }

    /// Zero the counters (between benchmark phases).
    pub fn reset_stats(&self) {
        self.instance().stats.reset();
    }

    /// The instance's global version clock.
    #[must_use]
    pub fn clock(&self) -> &GlobalClock {
        &self.instance().clock
    }

    /// The instance's configuration.
    #[must_use]
    pub fn config(&self) -> &StmConfig {
        &self.instance().config
    }

    /// Run `f` transactionally, retrying on aborts, until commit or until
    /// the retry budget is exceeded — the erased [`Stm::try_run`].
    pub fn try_run<'env, R>(
        &'env self,
        kind: TxKind,
        mut f: impl for<'a> FnMut(&mut Tx<'env, 'a>) -> Result<R, Abort>,
    ) -> Result<R, RunError> {
        let mut out: Option<R> = None;
        self.inner.try_run_dyn(kind, &mut |tx| {
            out = Some(f(tx)?);
            Ok(0)
        })?;
        Ok(out.expect("committed transaction body must have produced a value"))
    }

    /// Like [`try_run`](Backend::try_run) but panics if the retry budget
    /// is exhausted (the default, unbounded configuration never panics).
    pub fn run<'env, R>(
        &'env self,
        kind: TxKind,
        f: impl for<'a> FnMut(&mut Tx<'env, 'a>) -> Result<R, Abort>,
    ) -> R {
        match self.try_run(kind, f) {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }
}

/// One registered backend: a stable name, a one-line summary, and a
/// configuration-taking constructor.
#[derive(Clone)]
pub struct BackendSpec {
    name: &'static str,
    summary: &'static str,
    build: fn(StmConfig) -> Box<dyn DynStm>,
}

impl core::fmt::Debug for BackendSpec {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("BackendSpec")
            .field("name", &self.name)
            .field("summary", &self.summary)
            .finish()
    }
}

impl BackendSpec {
    /// Describe a backend constructor.
    #[must_use]
    pub fn new(
        name: &'static str,
        summary: &'static str,
        build: fn(StmConfig) -> Box<dyn DynStm>,
    ) -> Self {
        Self {
            name,
            summary,
            build,
        }
    }

    /// The registry key ("tl2", "oe-estm-compat", …).
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// One-line description for `--list` style output.
    #[must_use]
    pub fn summary(&self) -> &'static str {
        self.summary
    }

    /// Build an instance with `config`.
    #[must_use]
    pub fn build(&self, config: StmConfig) -> Backend {
        Backend {
            key: self.name.to_string(),
            inner: (self.build)(config),
        }
    }
}

/// Error returned by [`BackendRegistry::build`] for a name no backend was
/// registered under. Its `Display` lists the registered names, so the
/// message is directly actionable from a CLI or a config file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownBackend {
    name: String,
    registered: Vec<&'static str>,
}

impl UnknownBackend {
    /// The name that failed to resolve.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The names that were registered at lookup time.
    #[must_use]
    pub fn registered(&self) -> &[&'static str] {
        &self.registered
    }
}

impl core::fmt::Display for UnknownBackend {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "unknown backend {:?}; registered backends: {}",
            self.name,
            self.registered.join(", ")
        )
    }
}

impl std::error::Error for UnknownBackend {}

/// The name → constructor factory runtime callers (the `repro` CLI, the
/// scenario registry, library users) select backends from.
///
/// `stm-core` only defines the registry; the backend crates each export a
/// `register_backends` function that fills it in, and the umbrella crate /
/// benchmark harness assemble the full set.
#[derive(Debug, Default)]
pub struct BackendRegistry {
    specs: Vec<BackendSpec>,
}

impl BackendRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a backend constructor.
    ///
    /// # Panics
    /// Panics on a duplicate name — that is always a wiring bug.
    pub fn register(&mut self, spec: BackendSpec) {
        assert!(
            self.get(spec.name()).is_none(),
            "backend {:?} registered twice",
            spec.name()
        );
        self.specs.push(spec);
    }

    /// All registered specs, in registration order.
    #[must_use]
    pub fn specs(&self) -> &[BackendSpec] {
        &self.specs
    }

    /// All registered names, in registration order.
    #[must_use]
    pub fn names(&self) -> Vec<&'static str> {
        self.specs.iter().map(BackendSpec::name).collect()
    }

    /// Look up a spec by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&BackendSpec> {
        self.specs.iter().find(|s| s.name() == name)
    }

    /// Build `name` with `config`.
    ///
    /// # Errors
    /// Returns [`UnknownBackend`] — whose `Display` lists every registered
    /// name — when `name` is not registered, so CLI flags and config files
    /// fail with an actionable message.
    pub fn build(&self, name: &str, config: StmConfig) -> Result<Backend, UnknownBackend> {
        self.get(name)
            .map(|s| s.build(config))
            .ok_or_else(|| UnknownBackend {
                name: name.to_string(),
                registered: self.names(),
            })
    }

    /// Build `name` with the default configuration.
    ///
    /// # Errors
    /// Returns [`UnknownBackend`] (listing the registered names) when
    /// `name` is not registered.
    pub fn build_default(&self, name: &str) -> Result<Backend, UnknownBackend> {
        self.build(name, StmConfig::default())
    }

    /// Build every registered backend with the default configuration.
    #[must_use]
    pub fn build_all(&self) -> Vec<Backend> {
        self.specs
            .iter()
            .map(|s| s.build(StmConfig::default()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::toy::ToyStm;
    use crate::error::AbortReason;
    use crate::stm::Transaction;
    use crate::tvar::TVar;

    fn toy_backend() -> Backend {
        Backend::from_stm(ToyStm::default())
    }

    #[test]
    fn erased_read_write_roundtrip() {
        let b = toy_backend();
        let v = TVar::new(41i64);
        let out = b.run(TxKind::Regular, |tx| {
            let x = tx.read(&v)?;
            tx.write(&v, x + 1)?;
            tx.read(&v)
        });
        assert_eq!(out, 42);
        assert_eq!(v.load_atomic(), 42);
        assert_eq!(b.stats().commits, 1);
    }

    #[test]
    fn erased_child_composition_counts() {
        let b = toy_backend();
        let a = TVar::new(0u64);
        let c = TVar::new(0u64);
        b.run(TxKind::Regular, |tx| {
            tx.child(TxKind::Elastic, |t| t.write(&a, 1))?;
            tx.child(TxKind::Regular, |t| t.write(&c, 2))
        });
        assert_eq!((a.load_atomic(), c.load_atomic()), (1, 2));
        assert_eq!(b.stats().child_commits, 2);
    }

    #[test]
    fn erased_abort_propagates_and_retries() {
        let b = toy_backend();
        let v = TVar::new(0u64);
        let mut failed_once = false;
        b.run(TxKind::Regular, |tx| {
            tx.write(&v, 9)?;
            if !failed_once {
                failed_once = true;
                return Err(Abort::new(AbortReason::Explicit));
            }
            Ok(())
        });
        assert_eq!(v.load_atomic(), 9);
        assert_eq!(b.stats().aborts(), 1);
        assert_eq!(b.stats().commits, 1);
    }

    #[test]
    fn try_run_surfaces_retry_exhaustion() {
        let stm = ToyStm {
            inst: Instance::new(StmConfig::default().with_max_retries(1)),
        };
        let b = Backend::from_stm(stm);
        let r: Result<(), _> = b.try_run(TxKind::Regular, |_tx| {
            Err(Abort::new(AbortReason::LockConflict))
        });
        assert!(matches!(r, Err(RunError::RetriesExhausted { .. })));
    }

    #[test]
    fn registry_builds_by_name() {
        let mut reg = BackendRegistry::new();
        reg.register(BackendSpec::new(
            "toy",
            "naive single-threaded STM",
            |config| {
                Box::new(ToyStm {
                    inst: Instance::new(config),
                })
            },
        ));
        assert_eq!(reg.names(), vec!["toy"]);
        let b = reg.build_default("toy").expect("registered");
        assert_eq!(b.key(), "toy");
        assert_eq!(b.name(), "Toy");
        let err = reg.build_default("nope").unwrap_err();
        assert_eq!(err.name(), "nope");
        assert_eq!(err.registered(), ["toy"]);
        assert!(
            err.to_string().contains("registered backends: toy"),
            "error must list the registered names: {err}"
        );
        assert_eq!(reg.build_all().len(), 1);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_panics() {
        fn make(_: StmConfig) -> Box<dyn DynStm> {
            Box::new(ToyStm::default())
        }
        let mut reg = BackendRegistry::new();
        reg.register(BackendSpec::new("toy", "", make));
        reg.register(BackendSpec::new("toy", "", make));
    }
}
