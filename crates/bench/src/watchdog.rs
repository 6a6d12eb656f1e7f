//! The progress watchdog: run each matrix row in a bounded subprocess.
//!
//! The multi-thread sweeps measure cells that have historically been able
//! to livelock (two threads in a hot conflict storm; see DESIGN.md
//! "Scalable clocks and progress"). The STM core now carries a parking
//! backstop that bounds such storms, but a *benchmark run* must stay
//! bounded even if a future regression reintroduces one — CI cannot hang
//! for 25 minutes to find out. Stuck scoped worker threads cannot be
//! killed in-process, so the bound is a process boundary:
//!
//! * the parent ([`run_matrix_watchdogged`]) measures the uninstrumented
//!   sequential references in-process (no conflicts, nothing to bound)
//!   and spawns one `repro __cell … --json <tmp>` subprocess per measured
//!   `(scenario, composed, backend, threads)` row;
//! * a child that exits within the bound hands its row back through the
//!   JSON artifact ([`crate::json::parse_rows`] — the reason the schema
//!   carries the `system`/`commits`/`aborts` fields);
//! * a child that exceeds the bound is killed and the row is synthesized
//!   with a zeroed measurement and `livelocked: true`, so the sweep
//!   completes, the table shows `LIVELOCK!`, and the JSON records which
//!   cell hung.

use crate::json;
use crate::scenario::{scenario, BenchRow, MatrixPlan};
use crate::workload::Mix;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// How often the parent polls a running child against the bound.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// One measured cell of the matrix: everything the parent needs to spawn
/// the child and to synthesize a livelocked row if it must kill it.
#[derive(Debug, Clone)]
struct Cell {
    scenario: String,
    structure: String,
    composed_pct: u32,
    backend: String,
    threads: usize,
}

impl Cell {
    /// The child's argument vector: the hidden `__cell` target restricted
    /// to exactly this row, writing its artifact to `json_path`.
    fn child_args(&self, plan: &MatrixPlan, json_path: &Path) -> Vec<String> {
        vec![
            "__cell".to_string(),
            "--scenario".to_string(),
            self.scenario.clone(),
            "--stm".to_string(),
            self.backend.clone(),
            "--threads".to_string(),
            self.threads.to_string(),
            "--composed".to_string(),
            self.composed_pct.to_string(),
            "--duration-ms".to_string(),
            plan.duration.as_millis().to_string(),
            "--seed".to_string(),
            plan.seed.to_string(),
            "--json".to_string(),
            json_path.display().to_string(),
        ]
    }

    /// The zeroed livelock report standing in for the row the watchdog
    /// had to kill.
    fn livelocked_row(&self, system: &str, bound: Duration) -> BenchRow {
        BenchRow {
            scenario: self.scenario.clone(),
            backend: self.backend.clone(),
            system: system.to_string(),
            structure: self.structure.clone(),
            threads: self.threads,
            composed_pct: self.composed_pct,
            livelocked: true,
            m: crate::harness::Measurement {
                throughput: 0.0,
                abort_rate: 0.0,
                ops: 0,
                commits: 0,
                aborts: 0,
                explicit_retries: 0,
                cm_waits: 0,
                retry_parks: 0,
                wakeups: 0,
                spurious_wakeups: 0,
                elastic_cuts: 0,
                outherits: 0,
                p50_us: 0.0,
                p99_us: 0.0,
                p999_us: 0.0,
                elapsed: bound,
            },
        }
    }
}

/// A fresh temp-file path for one child's JSON artifact, unique per
/// parent process and call.
fn temp_json_path(n: usize) -> PathBuf {
    std::env::temp_dir().join(format!("repro-watchdog-{}-{n}.json", std::process::id()))
}

/// Spawn `exe` with `args`, wait at most `bound`, and report whether the
/// child finished in time. A child that exceeds the bound is killed and
/// reaped.
///
/// # Errors
/// Returns a message when the child cannot be spawned or its exit status
/// is a failure (a child that *crashes* is an error, not a livelock — it
/// means the cell could not run at all).
fn run_bounded(exe: &Path, args: &[String], bound: Duration) -> Result<bool, String> {
    let mut child = Command::new(exe)
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", exe.display()))?;
    let deadline = Instant::now() + bound;
    loop {
        match child.try_wait() {
            Ok(Some(status)) => {
                if status.success() {
                    return Ok(true);
                }
                return Err(format!("cell subprocess failed: {status} ({args:?})"));
            }
            Ok(None) => {
                if Instant::now() >= deadline {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Ok(false);
                }
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(e) => return Err(format!("cannot wait for cell subprocess: {e}")),
        }
    }
}

/// Run `plan` with every measured row bounded by `bound` wall-clock
/// seconds of subprocess time. `exe` is the `repro` binary itself
/// (`std::env::current_exe()`), re-entered through the hidden `__cell`
/// target. Row order matches [`crate::scenario::run_matrix`], so tables
/// and JSON artifacts are shaped identically with and without the
/// watchdog.
///
/// # Errors
/// Returns a message for unknown scenario/backend names (same
/// validation as `run_matrix`), for a child that crashes outright, or for
/// an unreadable child artifact.
pub fn run_matrix_watchdogged(
    plan: &MatrixPlan,
    bound: Duration,
    exe: &Path,
) -> Result<Vec<BenchRow>, String> {
    let registry = crate::scenario::backend_registry();
    // Validate names and resolve display labels up front, exactly like
    // run_matrix: a typo must fail before any subprocess runs, and a
    // killed cell's synthesized row still needs its system name.
    let mut systems = Vec::with_capacity(plan.backends.len());
    for name in &plan.backends {
        systems.push(
            registry
                .build_default(name)
                .map_err(|e| e.to_string())?
                .name(),
        );
    }

    let mut rows = Vec::new();
    let mut cell_no = 0usize;
    for scenario_name in &plan.scenarios {
        let spec =
            scenario(scenario_name).ok_or_else(|| format!("unknown scenario {scenario_name:?}"))?;
        let pcts: &[u32] = if spec.uses_composed_pct() {
            &plan.composed
        } else {
            &[0]
        };
        for &pct in pcts {
            let mix = if spec.uses_composed_pct() {
                Mix::paper(pct)
            } else {
                Mix::paper(0)
            };
            if plan.include_sequential {
                if let Some(m) = spec.run_sequential(mix, plan.duration, plan.seed) {
                    for &t in &plan.threads {
                        rows.push(BenchRow {
                            scenario: spec.name().to_string(),
                            backend: "sequential".to_string(),
                            system: "Sequential".to_string(),
                            structure: spec.structure().to_string(),
                            threads: t,
                            composed_pct: pct,
                            livelocked: false,
                            m,
                        });
                    }
                }
            }
            for (backend, system) in plan.backends.iter().zip(&systems) {
                for &t in &plan.threads {
                    let cell = Cell {
                        scenario: spec.name().to_string(),
                        structure: spec.structure().to_string(),
                        composed_pct: pct,
                        backend: backend.clone(),
                        threads: t,
                    };
                    cell_no += 1;
                    let json_path = temp_json_path(cell_no);
                    let finished = run_bounded(exe, &cell.child_args(plan, &json_path), bound)?;
                    if finished {
                        let text = std::fs::read_to_string(&json_path).map_err(|e| {
                            format!("cannot read cell artifact {}: {e}", json_path.display())
                        })?;
                        let cell_rows = json::parse_rows(&text)
                            .map_err(|e| format!("cell artifact invalid: {e}"))?;
                        rows.extend(cell_rows);
                    } else {
                        eprintln!(
                            "watchdog: {}/{} @ {t} thread(s) exceeded {bound:?} — \
                             killed, reporting LIVELOCK",
                            cell.scenario, cell.backend,
                        );
                        rows.push(cell.livelocked_row(system, bound));
                    }
                    let _ = std::fs::remove_file(&json_path);
                }
            }
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_args_restrict_to_one_row() {
        let cell = Cell {
            scenario: "fig6".into(),
            structure: "LinkedListSet".into(),
            composed_pct: 15,
            backend: "tl2".into(),
            threads: 4,
        };
        let plan = MatrixPlan::new(vec![4], Duration::from_millis(250), vec![15], 99);
        let args = cell.child_args(&plan, Path::new("/tmp/x.json"));
        let joined = args.join(" ");
        assert!(joined.starts_with("__cell "), "{joined}");
        for want in [
            "--scenario fig6",
            "--stm tl2",
            "--threads 4",
            "--composed 15",
            "--duration-ms 250",
            "--seed 99",
            "--json /tmp/x.json",
        ] {
            assert!(joined.contains(want), "missing {want} in {joined}");
        }
        // The child's argv must itself parse cleanly.
        let opts = crate::cli::parse_args(&args).expect("child argv parses");
        assert_eq!(opts.targets, vec!["__cell"]);
        assert_eq!(opts.threads, vec![4]);
    }

    #[test]
    fn livelocked_rows_are_zeroed_and_marked() {
        let cell = Cell {
            scenario: "contention-sweep".into(),
            structure: "8xTVar+gate".into(),
            composed_pct: 0,
            backend: "swiss".into(),
            threads: 2,
        };
        let row = cell.livelocked_row("SwissTM", Duration::from_secs(30));
        assert!(row.livelocked);
        assert_eq!(row.m.ops, 0);
        assert_eq!(row.m.throughput, 0.0);
        assert_eq!(row.m.elapsed, Duration::from_secs(30));
        assert_eq!(row.tagged_system(), "SwissTM LIVELOCK!");
        // A livelock report must survive the JSON pipeline.
        let text = json::render(&[row], 1);
        let back = json::parse_rows(&text).expect("valid");
        assert!(back[0].livelocked);
    }

    #[test]
    fn unknown_names_fail_before_spawning() {
        let mut plan = MatrixPlan::new(vec![1], Duration::from_millis(5), vec![5], 1);
        plan.backends = vec!["nope".into()];
        let err = run_matrix_watchdogged(&plan, Duration::from_secs(1), Path::new("/nonexistent"))
            .unwrap_err();
        assert!(err.contains("unknown backend"), "{err}");
    }
}
