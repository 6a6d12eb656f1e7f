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
//! * the parent ([`run_matrix_watchdogged`]) walks the same cells as
//!   [`crate::scenario::run_matrix`] (`scenario::sweep`) and
//!   spawns one `repro __cell … --json <tmp>` subprocess per backend row
//!   `(figure, composed, backend, threads)`, and one per sequential
//!   reference, which is a single measurement reported at every thread
//!   count;
//! * a child that exits within the bound hands its rows back through the
//!   JSON artifact ([`crate::json::parse_rows`] — the reason the schema
//!   carries the `system`/`commits`/`aborts` fields);
//! * a child that exceeds the bound is killed and its rows are
//!   synthesized with a zeroed measurement and `livelocked: true`, so the
//!   sweep completes, the table shows `LIVELOCK!`, and the JSON records
//!   which cell hung.

use crate::harness::Measurement;
use crate::json;
use crate::scenario::{sweep, BenchRow, Cell, MatrixPlan, SEQUENTIAL};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// How often the parent polls a running child against the bound.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// The child's argument vector: the hidden `__cell` target restricted to
/// `cell` at `threads`, writing its artifact to `json_path`.
fn child_args(
    plan: &MatrixPlan,
    cell: &Cell<'_>,
    threads: &[usize],
    json_path: &Path,
) -> Vec<String> {
    let threads: Vec<String> = threads.iter().map(ToString::to_string).collect();
    vec![
        "__cell".to_string(),
        "--scenario".to_string(),
        cell.structure.scenario_name().to_string(),
        "--stm".to_string(),
        cell.backend.to_string(),
        "--threads".to_string(),
        threads.join(","),
        "--composed".to_string(),
        cell.composed_pct.to_string(),
        "--duration-ms".to_string(),
        plan.duration.as_millis().to_string(),
        "--seed".to_string(),
        plan.seed.to_string(),
        "--json".to_string(),
        json_path.display().to_string(),
    ]
}

/// The zeroed livelock report standing in for `cell`'s row at `threads`,
/// which the watchdog had to kill after `bound`.
fn livelocked_row(cell: &Cell<'_>, threads: usize, bound: Duration) -> BenchRow {
    BenchRow {
        livelocked: true,
        ..cell.row(threads, Measurement::zero(bound))
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
/// target. The cells and their order are `scenario::sweep`'s,
/// so tables and JSON artifacts are shaped identically with and without
/// the watchdog, and `on_cell` sees each cell's rows as soon as its
/// children have ended.
///
/// # Errors
/// Returns a message for an unknown backend name (before any subprocess
/// runs), for a child that crashes outright, or for an unreadable child
/// artifact.
pub fn run_matrix_watchdogged(
    plan: &MatrixPlan,
    bound: Duration,
    exe: &Path,
    on_cell: impl FnMut(&[BenchRow]),
) -> Result<Vec<BenchRow>, String> {
    let mut child_no = 0usize;
    let measure = |cell: &Cell<'_>| {
        // The sequential reference is one measurement, so one child; a
        // backend gets one child per thread count.
        let runs: Vec<&[usize]> = if cell.backend == SEQUENTIAL {
            vec![&plan.threads]
        } else {
            plan.threads.chunks(1).collect()
        };
        let mut rows = Vec::new();
        for threads in runs {
            child_no += 1;
            let json_path = temp_json_path(child_no);
            let finished = run_bounded(exe, &child_args(plan, cell, threads, &json_path), bound)?;
            if finished {
                let text = std::fs::read_to_string(&json_path).map_err(|e| {
                    format!("cannot read cell artifact {}: {e}", json_path.display())
                })?;
                rows.extend(
                    json::parse_rows(&text).map_err(|e| format!("cell artifact invalid: {e}"))?,
                );
            } else {
                eprintln!(
                    "watchdog: {}/{} @ {threads:?} thread(s) exceeded {bound:?} — \
                     killed, reporting LIVELOCK",
                    cell.structure.scenario_name(),
                    cell.backend,
                );
                rows.extend(threads.iter().map(|&t| livelocked_row(cell, t, bound)));
            }
            let _ = std::fs::remove_file(&json_path);
        }
        Ok(rows)
    };
    sweep(plan, measure, on_cell)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Structure;

    #[test]
    fn child_args_restrict_to_one_row() {
        let cell = Cell {
            structure: Structure::LinkedList,
            composed_pct: 15,
            backend: "tl2",
            system: "TL2",
        };
        let plan = MatrixPlan::new(vec![4], Duration::from_millis(250), vec![15], 99);
        let args = child_args(&plan, &cell, &[4], Path::new("/tmp/x.json"));
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
        assert_eq!(opts.scenario, Some(vec![Structure::LinkedList]));
    }

    #[test]
    fn livelocked_rows_are_zeroed_and_marked() {
        let cell = Cell {
            structure: Structure::HashSet,
            composed_pct: 15,
            backend: "swiss",
            system: "SwissTM",
        };
        let row = livelocked_row(&cell, 2, Duration::from_secs(30));
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
        let err = run_matrix_watchdogged(
            &plan,
            Duration::from_secs(1),
            Path::new("/nonexistent"),
            |_| {},
        )
        .unwrap_err();
        assert!(err.contains("unknown backend"), "{err}");
    }
}
