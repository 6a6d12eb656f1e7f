//! The matrix runner: the paper's §VII workload over the three figure
//! structures, driven over every registered backend at runtime.
//!
//! A figure's set is one facade-level collection (`Box<dyn TxSet>` over
//! [`Atomic`]`<`[`Backend`]`>`), a backend is one [`BackendRegistry`]
//! entry, and a [`MatrixPlan`] sweeps `figures × composed × backends ×
//! threads` from runtime lists — exactly how the elastic-transaction
//! lineage this paper builds on was itself evaluated: one harness, N
//! pluggable TMs.
//!
//! | scenario | structure | mix |
//! |---|---|---|
//! | `fig6` | `LinkedListSet` | paper §VII-A (80% contains, composed updates) |
//! | `fig7` | `SkipListSet` | paper §VII-A |
//! | `fig8` | `HashSet` @ load factor 512 | paper §VII-A |
//!
//! `sweep` is the one loop over a plan's cells; [`run_matrix`] measures
//! each cell in this process, and the progress watchdog
//! ([`crate::watchdog`]) each in a bounded subprocess. The txkv keyspace
//! and the durable commit path are measured by the repo benchmark's
//! `kv-mem` and `kv-durable` workloads.

use crate::harness::Measurement;
use crate::report::{paper_hash_buckets, Structure};
use crate::workload::{thread_seed, Mix, WorkOp, DEFAULT_INITIAL_SIZE};
use cec::seq::{SeqHashSet, SeqLinkedListSet, SeqSet, SeqSkipListSet};
use cec::{HashSet, LinkedListSet, SetExt, SkipListSet, TxSet};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};
use stm_core::api::Atomic;
use stm_core::dynstm::{Backend, BackendRegistry};
use stm_core::StmConfig;

// ---------------------------------------------------------------------
// The paper's workload (Figs. 6–8) over a facade-erased set.
// ---------------------------------------------------------------------

/// A fresh, empty transactional set of `structure`. One set must only
/// ever be driven by one backend (transactional versions are
/// clock-relative), so the runner builds one per backend.
#[must_use]
pub fn new_set(structure: Structure) -> Box<dyn TxSet> {
    match structure {
        Structure::LinkedList => Box::new(LinkedListSet::new()),
        Structure::SkipList => Box::new(SkipListSet::new()),
        Structure::HashSet => Box::new(HashSet::new(paper_hash_buckets())),
    }
}

/// Fill `set` to the paper's initial size with keys drawn from `mix`'s
/// range, deterministically per `seed`.
pub fn prefill(set: &dyn TxSet, at: &Atomic<Backend>, mix: Mix, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut inserted = 0usize;
    while inserted < DEFAULT_INITIAL_SIZE {
        if set.add(at, rng.gen_range(0..mix.key_range)) {
            inserted += 1;
        }
    }
}

/// Execute one operation sampled from `mix` on `set`.
pub fn step(set: &dyn TxSet, at: &Atomic<Backend>, mix: Mix, rng: &mut SmallRng) {
    match mix.sample(rng) {
        WorkOp::Contains(k) => {
            set.contains(at, k);
        }
        WorkOp::Add(k) => {
            set.add(at, k);
        }
        WorkOp::Remove(k) => {
            set.remove(at, k);
        }
        WorkOp::AddAll(ks) => {
            set.add_all(at, &ks);
        }
        WorkOp::RemoveAll(ks) => {
            set.remove_all(at, &ks);
        }
    }
}

/// The uninstrumented single-threaded reference of `structure` (the
/// paper's "Sequential" line).
fn run_sequential_reference(
    structure: Structure,
    mix: Mix,
    duration: Duration,
    seed: u64,
) -> Measurement {
    let mut set: Box<dyn SeqSet> = match structure {
        Structure::LinkedList => Box::new(SeqLinkedListSet::new()),
        Structure::SkipList => Box::new(SeqSkipListSet::new()),
        Structure::HashSet => Box::new(SeqHashSet::new(paper_hash_buckets())),
    };
    crate::harness::prefill_sequential(set.as_mut(), mix, DEFAULT_INITIAL_SIZE, seed);
    crate::harness::run_sequential(set.as_mut(), duration, mix, seed)
}

// ---------------------------------------------------------------------
// Backends.
// ---------------------------------------------------------------------

/// Every backend this workspace ships, wired from the individual crates'
/// `register_backends` hooks.
#[must_use]
pub fn backend_registry() -> BackendRegistry {
    let mut reg = BackendRegistry::new();
    oe_stm::register_backends(&mut reg);
    stm_lsa::register_backends(&mut reg);
    stm_tl2::register_backends(&mut reg);
    stm_swiss::register_backends(&mut reg);
    reg
}

/// The backends the paper's figures compare (everything except the
/// deliberately broken E-STM compatibility mode).
pub const FIGURE_BACKENDS: [&str; 4] = ["oe", "lsa", "tl2", "swiss"];

/// The `backend` key of the uninstrumented sequential reference's rows
/// and cells.
pub const SEQUENTIAL: &str = "sequential";

// ---------------------------------------------------------------------
// The matrix runner.
// ---------------------------------------------------------------------

/// One measured data point of the matrix, with everything the machine-
/// comparable `BENCH.json` row needs.
#[derive(Debug, Clone)]
pub struct BenchRow {
    /// The figure (its `scenario` and `structure` fields in JSON).
    pub structure: Structure,
    /// Backend registry key ("tl2", "oe", …; [`SEQUENTIAL`] for the
    /// uninstrumented reference rows).
    pub backend: String,
    /// Backend display name ("TL2", "OE-STM", "Sequential", …).
    pub system: String,
    /// Worker threads.
    pub threads: usize,
    /// Composed-update percentage.
    pub composed_pct: u32,
    /// `true` when the row's measurement subprocess exceeded the progress
    /// watchdog's wall-clock bound (`repro --max-run-secs`) and was
    /// killed: the measurement is zeroed and the row is a *livelock
    /// report*, not a data point. Always `false` for in-process runs.
    pub livelocked: bool,
    /// The measurement.
    pub m: Measurement,
}

impl BenchRow {
    /// Display name for tables: the system. Watchdog-killed rows carry a
    /// `LIVELOCK!` marker so a zeroed row can never be mistaken for a
    /// measured one.
    #[must_use]
    pub fn tagged_system(&self) -> String {
        if self.livelocked {
            format!("{} LIVELOCK!", self.system)
        } else {
            self.system.clone()
        }
    }
}

/// Timed facade run: `threads` workers drive `mix` on `set` over `at` for
/// `duration`; per-thread op streams derive from `seed`.
fn run_timed_dyn(
    at: &Atomic<Backend>,
    set: &dyn TxSet,
    mix: Mix,
    threads: usize,
    duration: Duration,
    seed: u64,
) -> Measurement {
    at.reset_stats();
    let stop = AtomicBool::new(false);
    let total_ops = AtomicU64::new(0);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let stop = &stop;
            let total_ops = &total_ops;
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(thread_seed(seed, t));
                let mut ops = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    step(set, at, mix, &mut rng);
                    ops += 1;
                }
                total_ops.fetch_add(ops, Ordering::Relaxed);
            });
        }
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
    });
    let elapsed = started.elapsed();
    Measurement::from_run(total_ops.load(Ordering::Relaxed), elapsed, &at.stats())
}

/// What to sweep. Construct with [`MatrixPlan::new`] and adjust fields.
#[derive(Debug, Clone)]
pub struct MatrixPlan {
    /// Figures to run.
    pub scenarios: Vec<Structure>,
    /// Backend names to run (must all be registered).
    pub backends: Vec<String>,
    /// Thread counts per (figure, backend) cell.
    pub threads: Vec<usize>,
    /// Wall-clock duration per data point.
    pub duration: Duration,
    /// Composed-update percentages.
    pub composed: Vec<u32>,
    /// Base seed (prefills and per-thread op streams derive from it).
    pub seed: u64,
    /// Include the uninstrumented sequential reference rows.
    pub include_sequential: bool,
}

impl MatrixPlan {
    /// A plan over every figure and registered backend with the given
    /// sweep axes.
    #[must_use]
    pub fn new(threads: Vec<usize>, duration: Duration, composed: Vec<u32>, seed: u64) -> Self {
        Self {
            scenarios: Structure::ALL.to_vec(),
            backends: backend_registry()
                .names()
                .iter()
                .map(ToString::to_string)
                .collect(),
            threads,
            duration,
            composed,
            seed,
            include_sequential: true,
        }
    }
}

/// One cell of a plan: one system on one figure at one composed
/// percentage, measured at every thread count of the plan.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cell<'a> {
    /// The figure.
    pub structure: Structure,
    /// Composed-update percentage.
    pub composed_pct: u32,
    /// Backend registry key, or [`SEQUENTIAL`].
    pub backend: &'a str,
    /// The backend's display name.
    pub system: &'static str,
}

impl Cell<'_> {
    /// This cell's row at `threads`.
    #[must_use]
    pub(crate) fn row(&self, threads: usize, m: Measurement) -> BenchRow {
        BenchRow {
            structure: self.structure,
            backend: self.backend.to_string(),
            system: self.system.to_string(),
            threads,
            composed_pct: self.composed_pct,
            livelocked: false,
            m,
        }
    }
}

/// The one loop over a plan: for every figure and composed percentage,
/// the sequential reference (if included) and then each backend, in that
/// order, with `measure` returning the cell's rows and `on_cell` seeing
/// them as soon as the cell is measured.
///
/// # Errors
/// Returns `Err` naming an unknown backend (and the registered names)
/// before anything is measured, or the first error `measure` returns.
pub(crate) fn sweep(
    plan: &MatrixPlan,
    mut measure: impl FnMut(&Cell<'_>) -> Result<Vec<BenchRow>, String>,
    mut on_cell: impl FnMut(&[BenchRow]),
) -> Result<Vec<BenchRow>, String> {
    let registry = backend_registry();
    let mut systems = Vec::with_capacity(plan.backends.len() + 1);
    if plan.include_sequential {
        systems.push((SEQUENTIAL, "Sequential"));
    }
    for name in &plan.backends {
        let backend = registry.build_default(name).map_err(|e| e.to_string())?;
        systems.push((name.as_str(), backend.name()));
    }
    let mut rows = Vec::new();
    for &structure in &plan.scenarios {
        for &composed_pct in &plan.composed {
            for &(backend, system) in &systems {
                let cell = measure(&Cell {
                    structure,
                    composed_pct,
                    backend,
                    system,
                })?;
                on_cell(&cell);
                rows.extend(cell);
            }
        }
    }
    Ok(rows)
}

/// Measure `cell` in this process. The sequential reference runs once
/// and is reported at every thread count (the paper plots it as a flat
/// line); a backend gets a fresh set, prefilled once and warmed across
/// the thread counts.
fn measure_in_process(
    registry: &BackendRegistry,
    plan: &MatrixPlan,
    cell: &Cell<'_>,
) -> Vec<BenchRow> {
    let mix = Mix::paper(cell.composed_pct);
    if cell.backend == SEQUENTIAL {
        let m = run_sequential_reference(cell.structure, mix, plan.duration, plan.seed);
        return plan.threads.iter().map(|&t| cell.row(t, m)).collect();
    }
    let at = Atomic::new(
        registry
            .build(cell.backend, StmConfig::default())
            .expect("sweep resolved every backend"),
    );
    let set = new_set(cell.structure);
    prefill(&*set, &at, mix, plan.seed);
    plan.threads
        .iter()
        .map(|&t| {
            cell.row(
                t,
                run_timed_dyn(&at, &*set, mix, t, plan.duration, plan.seed),
            )
        })
        .collect()
}

/// Run the full `figures × composed × backends × threads` sweep in this
/// process, handing each cell's rows to `on_cell` as soon as the cell is
/// measured.
///
/// # Errors
/// Returns `Err` with a message naming any unknown backend (and the
/// registered names).
pub fn run_matrix(
    plan: &MatrixPlan,
    on_cell: impl FnMut(&[BenchRow]),
) -> Result<Vec<BenchRow>, String> {
    let registry = backend_registry();
    sweep(
        plan,
        |cell| Ok(measure_in_process(&registry, plan, cell)),
        on_cell,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_contains_all_shipped_backends() {
        let names = backend_registry().names();
        for expect in ["oe", "oe-estm-compat", "lsa", "tl2", "swiss"] {
            assert!(names.contains(&expect), "missing backend {expect}");
        }
        assert_eq!(names.len(), 5);
    }

    #[test]
    fn scenario_registry_covers_paper_and_new_workloads() {
        // The scenarios are exactly the paper's three figures, and a
        // default plan sweeps all of them over every backend.
        let names: Vec<_> = Structure::ALL.iter().map(|s| s.scenario_name()).collect();
        assert_eq!(names, vec!["fig6", "fig7", "fig8"]);
        let plan = MatrixPlan::new(vec![1], Duration::from_millis(5), vec![5], 1);
        assert_eq!(plan.scenarios, Structure::ALL.to_vec());
        assert_eq!(plan.backends.len(), 5);
        assert!("fig9".parse::<Structure>().is_err());
    }

    #[test]
    fn sweep_enumerates_figure_then_pct_then_system() {
        let plan = MatrixPlan {
            scenarios: vec![Structure::SkipList, Structure::HashSet],
            backends: vec!["tl2".into(), "oe".into()],
            threads: vec![1, 4],
            duration: Duration::ZERO,
            composed: vec![0, 15],
            seed: 1,
            include_sequential: true,
        };
        let mut seen = Vec::new();
        let rows = sweep(
            &plan,
            |cell| {
                seen.push((
                    cell.structure,
                    cell.composed_pct,
                    cell.backend.to_string(),
                    cell.system,
                ));
                Ok(vec![cell.row(1, Measurement::zero(Duration::ZERO))])
            },
            |_| {},
        )
        .expect("valid plan");
        assert_eq!(rows.len(), seen.len());
        let mut want = Vec::new();
        for s in [Structure::SkipList, Structure::HashSet] {
            for pct in [0, 15] {
                for (backend, system) in
                    [(SEQUENTIAL, "Sequential"), ("tl2", "TL2"), ("oe", "OE-STM")]
                {
                    want.push((s, pct, backend.to_string(), system));
                }
            }
        }
        assert_eq!(seen, want);
    }

    #[test]
    fn tiny_matrix_covers_every_cell() {
        let plan = MatrixPlan {
            scenarios: vec![Structure::HashSet, Structure::SkipList],
            backends: vec!["oe".into(), "tl2".into()],
            threads: vec![1, 2],
            duration: Duration::from_millis(25),
            composed: vec![5],
            seed: 42,
            include_sequential: true,
        };
        let rows = run_matrix(&plan, |_| {}).expect("valid plan");
        // Each figure: sequential + 2 backends, times 2 thread counts.
        assert_eq!(rows.len(), 2 * (1 + 2) * 2);
        for r in &rows {
            assert!(
                r.m.ops > 0,
                "{}/{} produced no ops",
                r.structure.scenario_name(),
                r.backend
            );
            assert!((0.0..=1.0).contains(&r.m.abort_rate));
        }
        for s in [Structure::HashSet, Structure::SkipList] {
            for backend in [SEQUENTIAL, "oe", "tl2"] {
                for t in [1, 2] {
                    assert!(
                        rows.iter()
                            .any(|r| r.structure == s && r.backend == backend && r.threads == t),
                        "no {}/{backend} row at {t} thread(s)",
                        s.scenario_name()
                    );
                }
            }
        }
    }

    #[test]
    fn unknown_names_are_reported() {
        assert!("nope"
            .parse::<Structure>()
            .unwrap_err()
            .contains("unknown scenario"));
        let mut plan = MatrixPlan::new(vec![1], Duration::from_millis(5), vec![5], 1);
        plan.backends = vec!["nope".into()];
        let err = run_matrix(&plan, |_| {}).unwrap_err();
        assert!(err.contains("unknown backend"), "{err}");
        assert!(
            err.contains("tl2") && err.contains("oe-estm-compat"),
            "the error must list the registered backends: {err}"
        );
    }

    #[test]
    fn outherits_flow_through_to_measurements() {
        // OE-STM on a composed-heavy mix must report outherits > 0; the
        // classic STMs always report 0.
        let plan = MatrixPlan {
            scenarios: vec![Structure::HashSet],
            backends: vec!["oe".into(), "tl2".into()],
            threads: vec![2],
            duration: Duration::from_millis(40),
            composed: vec![15],
            seed: 7,
            include_sequential: false,
        };
        let rows = run_matrix(&plan, |_| {}).expect("valid plan");
        let oe = rows.iter().find(|r| r.backend == "oe").unwrap();
        let tl2 = rows.iter().find(|r| r.backend == "tl2").unwrap();
        assert!(oe.m.outherits > 0, "OE-STM must outherit on composed ops");
        assert_eq!(tl2.m.outherits, 0, "TL2 never outherits");
    }

    #[test]
    fn outheritance_ablation_separates_oe_from_estm() {
        // The ablation (`repro fig6 --stm oe,oe-estm-compat --composed
        // 0,15`): OE-STM outherits on composed operations, the E-STM mode
        // never does, and with no composed operations neither has
        // anything to outherit.
        let plan = MatrixPlan {
            scenarios: vec![Structure::LinkedList],
            backends: vec!["oe".into(), "oe-estm-compat".into()],
            threads: vec![1],
            duration: Duration::from_millis(20),
            composed: vec![0, 15],
            seed: 5,
            include_sequential: false,
        };
        let rows = run_matrix(&plan, |_| {}).expect("valid plan");
        assert_eq!(rows.len(), 4, "2 backends x 2 composed ratios");
        let row = |backend: &str, pct: u32| {
            rows.iter()
                .find(|r| r.backend == backend && r.composed_pct == pct)
                .unwrap_or_else(|| panic!("no {backend} row at {pct}%"))
        };
        for r in &rows {
            assert!(
                r.m.ops > 0,
                "{} at {}% produced no ops",
                r.backend,
                r.composed_pct
            );
        }
        assert!(
            row("oe", 15).m.outherits > 0,
            "OE-STM must outherit on composed ops"
        );
        assert_eq!(
            row("oe-estm-compat", 15).m.outherits,
            0,
            "E-STM never outherits"
        );
        assert_eq!(row("oe", 0).m.outherits, 0, "nothing to outherit at 0%");
        assert_eq!(row("oe-estm-compat", 0).m.outherits, 0);
    }
}
