//! `repro` — regenerate the paper's evaluation figures (§VII, Figs. 6–8)
//! over every registered backend.
//!
//! ```text
//! repro [fig6|fig7|fig8|summary|all|list]
//!       [--stm tl2,lsa,swiss,oe,oe-estm-compat] [--scenario fig6,fig8]
//!       [--threads 1,2,4] [--duration-ms 500] [--composed 5,15]
//!       [--seed N] [--json BENCH.json] [--max-run-secs N]
//! repro trace [--stm oe] [--scenario fig6] [--steps 3]
//! repro validate-json BENCH.json [--require-full-coverage]
//! repro recover /path/to/durable/store
//! ```
//!
//! Tables print throughput (ops/ms), abort rate, and the relaxation /
//! composition counters (elastic cuts, outherits). `--json` additionally
//! writes every measured row as schema-checked JSON (`bench::json`), the
//! artifact CI archives; `validate-json` checks such a file and, with
//! `--require-full-coverage`, that every registered backend and figure
//! is represented.

use bench::cli::{parse_args, Options, USAGE};
use bench::report::{Structure, Tables};
use bench::scenario::{
    backend_registry, new_set, prefill, run_matrix, step, BenchRow, MatrixPlan, FIGURE_BACKENDS,
    SEQUENTIAL,
};
use bench::workload::{thread_seed, Mix};
use bench::{out, outln};
use cec::TxSet;
use histories::Recorder;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use stm_core::{Atomic, Backend, TVar, Transaction, TxKind};

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn print_list() {
    let registry = backend_registry();
    outln!("backends:");
    for spec in registry.specs() {
        outln!("  {:<16} {}", spec.name(), spec.summary());
    }
    outln!("\nscenarios:");
    for s in Structure::ALL {
        outln!("  {:<16} {}", s.scenario_name(), s.summary());
    }
}

/// Run `figures` over the `--stm` subset or `default_backends`, at
/// `composed`, and print one table per figure and composed mix, each
/// cell's rows as soon as the cell is measured. The run
/// is in-process, or — when `--max-run-secs` arms the progress watchdog
/// — one bounded subprocess per measured row, with killed rows reported
/// as livelocked instead of hanging the sweep.
fn run_figures(
    figures: Vec<Structure>,
    default_backends: &[&str],
    composed: Vec<u32>,
    opts: &Options,
    all_rows: &mut Vec<BenchRow>,
) {
    let plan = MatrixPlan {
        scenarios: figures,
        backends: opts
            .stm
            .clone()
            .unwrap_or_else(|| default_backends.iter().map(ToString::to_string).collect()),
        threads: opts.threads.clone(),
        duration: opts.duration,
        composed,
        seed: opts.seed,
        include_sequential: true,
    };
    let mut tables = Tables::new(opts.duration);
    let on_cell = |rows: &[BenchRow]| tables.cell(rows);
    let rows = match opts.max_run_secs {
        None => run_matrix(&plan, on_cell),
        Some(secs) => {
            let exe = std::env::current_exe().unwrap_or_else(|e| {
                die(&format!("cannot locate own binary for --max-run-secs: {e}"))
            });
            bench::watchdog::run_matrix_watchdogged(
                &plan,
                std::time::Duration::from_secs(secs),
                &exe,
                on_cell,
            )
        }
    }
    .unwrap_or_else(|e| die(&e));
    tables.finish();
    all_rows.extend(rows);
}

/// One figure target: the paper's four systems at every `--composed` mix.
fn figure(structure: Structure, opts: &Options, all_rows: &mut Vec<BenchRow>) {
    run_figures(
        vec![structure],
        &FIGURE_BACKENDS,
        opts.composed.clone(),
        opts,
        all_rows,
    );
}

/// `summary`: the `--scenario` figures over every registered backend at
/// the last `--composed` mix (the paper's headline numbers use 15%).
fn summary(opts: &Options, all_rows: &mut Vec<BenchRow>) {
    run_figures(
        opts.scenario
            .clone()
            .unwrap_or_else(|| Structure::ALL.to_vec()),
        &backend_registry().names(),
        vec![opts.composed.last().copied().unwrap_or(15)],
        opts,
        all_rows,
    );
}

/// Record one deterministic two-process composition on `backend`: the
/// composing process runs a single elastic transaction with `steps`
/// children (child `i` reads then bumps `vars[i]`), and an adversary
/// thread increments `vars[i + 1]` — the variable the *next* child will
/// read — exactly once after each child, sequenced with channels so the
/// recorded interleaving reproduces run to run. Touching only a variable
/// the composer has not reached yet keeps the handoff deadlock-free; the
/// backends observe the adversary's commit as an elastic cut (oe), a
/// snapshot extension (lsa), or a recorded abort-and-retry (tl2, swiss) —
/// which is exactly the per-backend contrast the dump is for.
fn record_composition(backend: &Backend, steps: usize) {
    let vars: Vec<TVar<u64>> = (0..=steps).map(|_| TVar::new(0u64)).collect();
    let (to_adversary, adversary_go) = mpsc::channel::<()>();
    let (to_composer, composer_go) = mpsc::channel::<()>();
    std::thread::scope(|s| {
        let vars = &vars;
        s.spawn(move || {
            for i in 0..steps {
                if adversary_go.recv().is_err() {
                    return;
                }
                backend.run(TxKind::Elastic, |tx| {
                    let v = tx.get(&vars[i + 1])?;
                    tx.set(&vars[i + 1], v + 1)
                });
                to_composer
                    .send(())
                    .expect("composer waits for every adversary round");
            }
        });
        // Hand off once per step even if the top transaction retries.
        let mut handoffs = 0;
        backend.run(TxKind::Elastic, |tx| {
            for (step, var) in vars.iter().enumerate().take(steps) {
                tx.child(TxKind::Elastic, |tx| {
                    let v = tx.get(var)?;
                    tx.set(var, v + 100)
                })?;
                if step == handoffs {
                    handoffs += 1;
                    to_adversary
                        .send(())
                        .expect("adversary runs exactly `steps` rounds");
                    composer_go.recv().expect("adversary answers every handoff");
                }
            }
            Ok(())
        });
    });
}

/// Record `steps` sampled operations of a figure's workload on each of
/// two racing worker threads. The prefill runs with the recorder already
/// attached (the backend's clock has advanced past the prefill versions,
/// so a separately built untraced instance would not see a consistent
/// structure); it is wiped from the recording before the measured steps
/// so the dump covers only the sampled window.
fn record_scenario(
    at: &Atomic<Backend>,
    set: &dyn TxSet,
    mix: Mix,
    steps: usize,
    seed: u64,
    recorder: &Recorder,
) {
    prefill(set, at, mix, seed);
    recorder.clear();
    let barrier = Barrier::new(2);
    std::thread::scope(|s| {
        for t in 0..2 {
            let barrier = &barrier;
            let mut rng = SmallRng::seed_from_u64(thread_seed(seed, t));
            s.spawn(move || {
                barrier.wait();
                for _ in 0..steps {
                    step(set, at, mix, &mut rng);
                }
            });
        }
    });
}

/// `repro trace`: dump recorded histories in the paper's notation — by
/// default one deterministic two-process composition per chosen backend;
/// with `--scenario`, `--steps` racing operations of each named figure
/// instead.
fn trace(opts: &Options) -> ! {
    let registry = backend_registry();
    // `None` = the built-in composition; `Some(figure)` = a figure's
    // workload.
    let cells: Vec<Option<Structure>> = match &opts.scenario {
        None => vec![None],
        Some(figures) => figures.iter().copied().map(Some).collect(),
    };
    for name in opts.stm.clone().unwrap_or_else(|| vec!["oe".to_string()]) {
        for &cell in &cells {
            let recorder = Arc::new(Recorder::new());
            let config = stm_core::StmConfig::default().with_trace_sink(recorder.clone());
            let backend = registry
                .build(&name, config)
                .unwrap_or_else(|e| die(&e.to_string()));
            let what = match cell {
                None => {
                    record_composition(&backend, opts.steps);
                    "composition".to_string()
                }
                Some(structure) => {
                    let mix = Mix::paper(opts.composed.last().copied().unwrap_or(15));
                    let set = new_set(structure);
                    let at = Atomic::new(backend);
                    record_scenario(&at, &*set, mix, opts.steps, opts.seed, &recorder);
                    format!("scenario {}", structure.scenario_name())
                }
            };
            let raw = recorder.raw_history();
            let committed = recorder.history();
            outln!("== {name} · {what}: {} step(s)/proc ==", opts.steps);
            outln!("-- raw attempt history ({} events) --", raw.events.len());
            outln!("{raw:#}");
            outln!(
                "-- committed projection ({} events) --",
                committed.events.len()
            );
            outln!("{committed:#}");
            outln!();
        }
    }
    std::process::exit(0);
}

/// `repro validate-json <path>`: schema-check a benchmark artifact.
fn validate_json(opts: &Options) -> ! {
    let Some(path) = opts.targets.get(1) else {
        die("validate-json needs a path; try --help");
    };
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    let ids =
        bench::json::validate(&text).unwrap_or_else(|e| die(&format!("{path}: INVALID: {e}")));
    if opts.require_full_coverage {
        let mut missing = Vec::new();
        for backend in backend_registry().names() {
            if !ids.iter().any(|(_, b)| b == backend) {
                missing.push(format!("backend {backend}"));
            }
        }
        for s in Structure::ALL {
            if !ids.iter().any(|(sc, _)| sc == s.scenario_name()) {
                missing.push(format!("scenario {}", s.scenario_name()));
            }
        }
        if !missing.is_empty() {
            die(&format!(
                "{path}: INVALID: rows do not cover: {}",
                missing.join(", ")
            ));
        }
    }
    outln!("{path}: OK ({} rows)", ids.len());
    std::process::exit(0);
}

/// `repro __cell`: the progress watchdog's hidden re-entry point — run
/// exactly the matrix cell the flags select (`--stm sequential` selects
/// the sequential reference) with no tables, and hand the measured rows
/// back through the `--json` artifact. The parent process
/// (`bench::watchdog`) kills this process if it exceeds the bound.
fn cell(opts: &Options) -> ! {
    let (Some(scenarios), Some(backends), Some(json_path)) =
        (&opts.scenario, &opts.stm, &opts.json)
    else {
        die("__cell needs --scenario, --stm and --json (internal watchdog target)");
    };
    let plan = MatrixPlan {
        scenarios: scenarios.clone(),
        backends: backends
            .iter()
            .filter(|b| *b != SEQUENTIAL)
            .cloned()
            .collect(),
        threads: opts.threads.clone(),
        duration: opts.duration,
        composed: opts.composed.clone(),
        seed: opts.seed,
        include_sequential: backends.iter().any(|b| b == SEQUENTIAL),
    };
    let rows = run_matrix(&plan, |_| {}).unwrap_or_else(|e| die(&e));
    let text = bench::json::render(&rows, opts.seed);
    std::fs::write(json_path, &text)
        .unwrap_or_else(|e| die(&format!("cannot write {json_path}: {e}")));
    std::process::exit(0);
}

/// `repro recover <dir>`: replay a durable store directory (snapshot +
/// WAL segments), repairing torn tails in place, and print the recovered
/// image plus every diagnostic note. This is the operator-facing face of
/// `durable::recover` — what you run after a crash to see exactly what
/// survived.
fn recover(opts: &Options) -> ! {
    let Some(dir) = opts.targets.get(1) else {
        die("recover needs a store directory; try --help");
    };
    if !std::path::Path::new(dir).is_dir() {
        die(&format!("recover: {dir} is not a directory"));
    }
    let vfs = durable::StdVfs::new(dir)
        .unwrap_or_else(|e| die(&format!("recover: cannot open {dir}: {e}")));
    let recovery = durable::recover(&vfs).unwrap_or_else(|e| die(&format!("recover: {dir}: {e}")));
    outln!(
        "{dir}: recovered {} location(s) ({} from snapshot, {} WAL record(s) replayed, \
         last commit version {})",
        recovery.values.len(),
        recovery.snapshot_entries,
        recovery.records_applied,
        recovery.last_version,
    );
    for note in &recovery.notes {
        outln!("  note: {note}");
    }
    for (key, word) in &recovery.values {
        outln!("  {key:>20} = {word}");
    }
    std::process::exit(0);
}

/// A measuring target's run: it prints its tables and appends its rows.
type Run = fn(&Options, &mut Vec<BenchRow>);

/// The run of the measuring target `name`, if there is one.
fn measure(name: &str) -> Option<Run> {
    Some(match name {
        "fig6" => |o, rows| figure(Structure::LinkedList, o, rows),
        "fig7" => |o, rows| figure(Structure::SkipList, o, rows),
        "fig8" => |o, rows| figure(Structure::HashSet, o, rows),
        "summary" => summary,
        "all" => |o, rows| {
            for s in Structure::ALL {
                figure(s, o, rows);
            }
        },
        _ => return None,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&argv).unwrap_or_else(|e| die(&e));
    if opts.help {
        out!("{USAGE}");
        return;
    }
    if opts.list || opts.targets.first().map(String::as_str) == Some("list") {
        print_list();
        return;
    }
    if opts.targets.first().map(String::as_str) == Some("trace") {
        trace(&opts);
    }
    if opts.targets.first().map(String::as_str) == Some("validate-json") {
        validate_json(&opts);
    }
    if opts.targets.first().map(String::as_str) == Some("recover") {
        recover(&opts);
    }
    if opts.targets.first().map(String::as_str) == Some("__cell") {
        cell(&opts);
    }

    let mut targets = opts.targets.clone();
    if targets.is_empty() {
        targets.push("all".to_string());
    }
    // Resolve every target before any runs: a typo late in the list
    // fails at once, not after the sweep ahead of it.
    let runs: Vec<Run> = targets
        .iter()
        .map(|w| measure(w).unwrap_or_else(|| die(&format!("unknown target {w}; try --help"))))
        .collect();
    outln!(
        "Composing Relaxed Transactions (IPDPS 2013) — evaluation reproduction\n\
         workload: 2^12 elements, 2^13 key range, 80% contains (Section VII-A)\n\
         seed: {}\n\
         host parallelism: {} core(s) — see README.md \"Scaling caveats\" before comparing",
        opts.seed,
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );

    let mut all_rows: Vec<BenchRow> = Vec::new();
    for run in runs {
        run(&opts, &mut all_rows);
    }

    if let Some(path) = &opts.json {
        let text = bench::json::render(&all_rows, opts.seed);
        std::fs::write(path, &text).unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        outln!("\nwrote {} rows to {path}", all_rows.len());
    }
}
