//! `repro` — regenerate the paper's evaluation figures and drive the
//! scenario × backend benchmark matrix.
//!
//! ```text
//! repro [fig6|fig7|fig8|summary|txkv|all|list]
//!       [--stm tl2,lsa,swiss,oe,oe-estm-compat] [--scenario fig6,bank-transfer,...]
//!       [--threads 1,2,4] [--duration-ms 500] [--composed 5,15]
//!       [--seed N] [--json BENCH.json]
//! repro trace [--stm oe] [--scenario bank-transfer] [--steps 3]
//! repro validate-json BENCH.json [--require-full-coverage]
//! repro recover /path/to/durable/store
//! ```
//!
//! Tables print throughput (ops/ms), abort rate, and the relaxation /
//! composition counters (elastic cuts, outherits). `--json` additionally
//! writes every measured row as schema-checked JSON (`bench::json`), the
//! artifact CI archives; `validate-json` checks such a file and, with
//! `--require-full-coverage`, that every registered backend and scenario
//! is represented.

use bench::cli::{parse_args, Options, USAGE};
use bench::report::{print_bench_rows, print_summary, Row, Structure};
use bench::scenario::Workload;
use bench::scenario::{
    backend_registry, run_matrix, scenarios, BenchRow, MatrixPlan, FIGURE_BACKENDS,
};
use bench::workload::{thread_seed, Mix};
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
    println!("backends:");
    for spec in registry.specs() {
        println!("  {:<16} {}", spec.name(), spec.summary());
    }
    println!("\nscenarios:");
    for s in scenarios() {
        println!("  {:<16} {}", s.name(), s.summary());
    }
}

/// Backends to run: the `--stm` subset, or `default` (the figure targets
/// default to the paper's four systems; `summary` to everything
/// registered, including the E-STM ablation mode).
fn chosen_backends(opts: &Options, default: &[&str]) -> Vec<String> {
    opts.stm
        .clone()
        .unwrap_or_else(|| default.iter().map(ToString::to_string).collect())
}

fn figure_rows(r: &BenchRow) -> Row {
    Row {
        system: r.tagged_system(),
        threads: r.threads,
        m: r.m,
    }
}

/// Run a plan in-process, or — when `--max-run-secs` arms the progress
/// watchdog — one bounded subprocess per measured row, with killed rows
/// reported as livelocked instead of hanging the sweep.
fn run_plan(plan: &MatrixPlan, opts: &Options) -> Vec<BenchRow> {
    match opts.max_run_secs {
        None => run_matrix(plan).unwrap_or_else(|e| die(&e)),
        Some(secs) => {
            let exe = std::env::current_exe().unwrap_or_else(|e| {
                die(&format!("cannot locate own binary for --max-run-secs: {e}"))
            });
            bench::watchdog::run_matrix_watchdogged(
                plan,
                std::time::Duration::from_secs(secs),
                &exe,
            )
            .unwrap_or_else(|e| die(&e))
        }
    }
}

/// Run one figure target and print its per-composed-pct tables.
fn figure(structure: Structure, fig_no: u32, opts: &Options, all_rows: &mut Vec<BenchRow>) {
    let plan = MatrixPlan {
        scenarios: vec![structure.scenario_name().to_string()],
        backends: chosen_backends(opts, &FIGURE_BACKENDS),
        threads: opts.threads.clone(),
        duration: opts.duration,
        composed: opts.composed.clone(),
        seed: opts.seed,
        include_sequential: true,
        durable: opts.durable,
    };
    let rows = run_plan(&plan, opts);
    for &pct in &opts.composed {
        let block: Vec<Row> = rows
            .iter()
            .filter(|r| r.composed_pct == pct)
            .map(figure_rows)
            .collect();
        bench::report::print_figure(
            &format!(
                "Fig. {fig_no}: {} — {pct}% addAll/removeAll (duration {:?}/point)",
                structure.name(),
                opts.duration
            ),
            &block,
        );
        print_summary(structure, &block);
    }
    all_rows.extend(rows);
}

/// Run the full scenario × backend matrix and print compact tables plus
/// the headline speedups.
fn summary(opts: &Options, all_rows: &mut Vec<BenchRow>) {
    let plan = MatrixPlan {
        scenarios: opts
            .scenario
            .clone()
            .unwrap_or_else(|| scenarios().iter().map(|s| s.name().to_string()).collect()),
        backends: chosen_backends(opts, &backend_registry().names()),
        threads: opts.threads.clone(),
        duration: opts.duration,
        // The paper's headline numbers use the 15% composed mix.
        composed: vec![opts.composed.last().copied().unwrap_or(15)],
        seed: opts.seed,
        include_sequential: true,
        durable: opts.durable,
    };
    let rows = run_plan(&plan, opts);
    print_bench_rows(&rows);
    for s in [
        Structure::LinkedList,
        Structure::SkipList,
        Structure::HashSet,
    ] {
        let block: Vec<Row> = rows
            .iter()
            .filter(|r| r.scenario == s.scenario_name())
            .map(figure_rows)
            .collect();
        if !block.is_empty() {
            print_summary(s, &block);
        }
    }
    all_rows.extend(rows);
}

/// `repro txkv`: the service-layer sweep — `summary` restricted to the
/// `txkv-*` scenario family (all of it unless `--scenario` narrows the
/// selection further). Rows carry the latency percentiles the service
/// histogram records, so the tables grow p50/p99/p999 columns.
fn txkv(opts: &Options, all_rows: &mut Vec<BenchRow>) {
    let mut opts = opts.clone();
    if opts.scenario.is_none() {
        opts.scenario = Some(
            scenarios()
                .iter()
                .filter(|s| s.name().starts_with("txkv-"))
                .map(|s| s.name().to_string())
                .collect(),
        );
    }
    summary(&opts, all_rows);
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

/// Record `steps` sampled operations of a registered scenario on each of
/// two racing worker threads. The prefill runs with the recorder already
/// attached (the backend's clock has advanced past the prefill versions,
/// so a separately built untraced instance would not see a consistent
/// structure); it is wiped from the recording before the measured steps
/// so the dump covers only the sampled window.
fn record_scenario(
    at: &Atomic<Backend>,
    workload: &dyn Workload,
    steps: usize,
    seed: u64,
    recorder: &Recorder,
) {
    workload.prefill(at, seed);
    recorder.clear();
    let barrier = Barrier::new(2);
    std::thread::scope(|s| {
        for t in 0..2 {
            let barrier = &barrier;
            let mut rng = SmallRng::seed_from_u64(thread_seed(seed, t));
            s.spawn(move || {
                barrier.wait();
                for _ in 0..steps {
                    workload.step(at, &mut rng);
                }
            });
        }
    });
}

/// `repro trace`: dump recorded histories in the paper's notation — by
/// default one deterministic two-process composition per chosen backend;
/// with `--scenario`, `--steps` racing operations of each named
/// registered scenario instead.
fn trace(opts: &Options) -> ! {
    let registry = backend_registry();
    let specs = scenarios();
    for name in chosen_backends(opts, &["oe"]) {
        // `None` = the built-in composition; `Some(spec)` = a registered
        // scenario cell.
        let cells: Vec<Option<&bench::scenario::ScenarioSpec>> = match &opts.scenario {
            None => vec![None],
            Some(names) => names
                .iter()
                .map(|want| {
                    Some(
                        specs
                            .iter()
                            .find(|s| s.name() == want)
                            .unwrap_or_else(|| die(&format!("unknown scenario {want}; try list"))),
                    )
                })
                .collect(),
        };
        for spec in cells {
            let recorder = Arc::new(Recorder::new());
            let config = stm_core::StmConfig::default().with_trace_sink(recorder.clone());
            let backend = registry
                .build(&name, config)
                .unwrap_or_else(|e| die(&e.to_string()));
            let what = match spec {
                None => {
                    record_composition(&backend, opts.steps);
                    "composition".to_string()
                }
                Some(spec) => {
                    let mix = Mix::paper(opts.composed.last().copied().unwrap_or(15));
                    let workload = spec.build(mix);
                    let at = Atomic::new(backend);
                    record_scenario(&at, &*workload, opts.steps, opts.seed, &recorder);
                    format!("scenario {}", spec.name())
                }
            };
            let raw = recorder.raw_history();
            let committed = recorder.history();
            println!("== {name} · {what}: {} step(s)/proc ==", opts.steps);
            println!("-- raw attempt history ({} events) --", raw.events.len());
            println!("{raw:#}");
            println!(
                "-- committed projection ({} events) --",
                committed.events.len()
            );
            println!("{committed:#}");
            println!();
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
        for s in scenarios() {
            if !ids.iter().any(|(sc, _)| sc == s.name()) {
                missing.push(format!("scenario {}", s.name()));
            }
        }
        if !missing.is_empty() {
            die(&format!(
                "{path}: INVALID: rows do not cover: {}",
                missing.join(", ")
            ));
        }
    }
    println!("{path}: OK ({} rows)", ids.len());
    std::process::exit(0);
}

/// `repro __cell`: the progress watchdog's hidden re-entry point — run
/// exactly the matrix cell the flags select (no sequential references, no
/// tables) and hand the measured rows back through the `--json` artifact.
/// The parent process (`run_plan` with `--max-run-secs`) kills this
/// process if it exceeds the bound.
fn cell(opts: &Options) -> ! {
    let (Some(scenarios), Some(backends), Some(json_path)) =
        (&opts.scenario, &opts.stm, &opts.json)
    else {
        die("__cell needs --scenario, --stm and --json (internal watchdog target)");
    };
    let plan = MatrixPlan {
        scenarios: scenarios.clone(),
        backends: backends.clone(),
        threads: opts.threads.clone(),
        duration: opts.duration,
        composed: opts.composed.clone(),
        seed: opts.seed,
        include_sequential: false,
        durable: opts.durable,
    };
    let rows = run_matrix(&plan).unwrap_or_else(|e| die(&e));
    let text = bench::json::render(&rows, opts.seed);
    std::fs::write(json_path, &text)
        .unwrap_or_else(|e| die(&format!("cannot write {json_path}: {e}")));
    std::process::exit(0);
}

/// `repro recover <dir>`: replay a durable store directory (snapshot +
/// WAL segments), repairing torn tails in place, and print the recovered
/// image plus every diagnostic note. This is the operator-facing face of
/// `durable::recover` — what you run after a crash (or to inspect a
/// `--durable` bench cell's leftovers) to see exactly what survived.
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
    println!(
        "{dir}: recovered {} location(s) ({} from snapshot, {} WAL record(s) replayed, \
         last commit version {})",
        recovery.values.len(),
        recovery.snapshot_entries,
        recovery.records_applied,
        recovery.last_version,
    );
    for note in &recovery.notes {
        println!("  note: {note}");
    }
    for (key, word) in &recovery.values {
        println!("  {key:>20} = {word}");
    }
    std::process::exit(0);
}

/// A measuring target's run: it prints its tables and appends its rows.
type Run = fn(&Options, &mut Vec<BenchRow>);

/// The run of the measuring target `name`, if there is one.
fn measure(name: &str) -> Option<Run> {
    Some(match name {
        "fig6" => |o, rows| figure(Structure::LinkedList, 6, o, rows),
        "fig7" => |o, rows| figure(Structure::SkipList, 7, o, rows),
        "fig8" => |o, rows| figure(Structure::HashSet, 8, o, rows),
        "summary" => summary,
        "txkv" => txkv,
        "all" => |o, rows| {
            figure(Structure::LinkedList, 6, o, rows);
            figure(Structure::SkipList, 7, o, rows);
            figure(Structure::HashSet, 8, o, rows);
        },
        _ => return None,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&argv).unwrap_or_else(|e| die(&e));
    if opts.help {
        print!("{USAGE}");
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
    println!(
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
        println!("\nwrote {} rows to {path}", all_rows.len());
    }
}
