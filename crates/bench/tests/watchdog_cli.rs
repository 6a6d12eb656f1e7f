//! End-to-end tests of the progress watchdog (`repro --max-run-secs`):
//! the real binary, real subprocesses, both the completes-in-time path
//! and the kill path.

use std::process::Command;
use std::time::{Duration, Instant};

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn temp_json(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "repro-watchdog-test-{}-{tag}.json",
        std::process::id()
    ))
}

#[test]
fn watchdogged_sweep_completes_and_rows_round_trip() {
    let json = temp_json("ok");
    let out = repro()
        .args([
            "fig8",
            "--stm",
            "tl2",
            "--threads",
            "1,2",
            "--duration-ms",
            "30",
            "--composed",
            "5",
            "--seed",
            "1",
            "--max-run-secs",
            "60",
            "--json",
        ])
        .arg(&json)
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "stdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&json).expect("artifact written");
    let _ = std::fs::remove_file(&json);
    let rows = bench::json::parse_rows(&text).expect("artifact validates");
    // Sequential reference + tl2, 2 thread counts each, every cell in a
    // subprocess — identical shape to an unwatchdogged run.
    assert_eq!(rows.len(), 4, "{text}");
    assert!(rows.iter().any(|r| r.backend == "sequential"));
    assert!(rows.iter().any(|r| r.backend == "tl2" && r.threads == 2));
    for r in &rows {
        assert!(
            !r.livelocked,
            "{}/{} must not be livelocked",
            r.backend, r.threads
        );
        assert!(
            r.m.ops > 0,
            "{}/{} lost its measurement",
            r.backend,
            r.threads
        );
    }
    let tl2 = rows.iter().find(|r| r.backend == "tl2").unwrap();
    assert_eq!(
        tl2.system, "TL2",
        "display name must survive the subprocess"
    );
    assert!(tl2.m.commits > 0, "commits must survive the subprocess");
}

#[test]
fn watchdog_kills_overrunning_cells_and_reports_livelock() {
    let json = temp_json("kill");
    // An 8-second cell under a 1-second bound: the watchdog must kill the
    // subprocess and synthesize a livelocked row instead of waiting. The
    // sequential reference runs in a bounded subprocess too, so it is
    // killed the same way and nothing long runs in the parent.
    let started = Instant::now();
    let out = repro()
        .args([
            "summary",
            "--scenario",
            "fig8",
            "--stm",
            "tl2",
            "--threads",
            "2",
            "--duration-ms",
            "8000",
            "--seed",
            "1",
            "--max-run-secs",
            "1",
            "--json",
        ])
        .arg(&json)
        .output()
        .expect("repro runs");
    let elapsed = started.elapsed();
    assert!(
        out.status.success(),
        "stdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        elapsed < Duration::from_secs(6),
        "the bound must cut both 8s cells short, took {elapsed:?}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("TL2 LIVELOCK!"),
        "table must mark the killed row:\n{stdout}"
    );
    let text = std::fs::read_to_string(&json).expect("artifact written");
    let _ = std::fs::remove_file(&json);
    let rows = bench::json::parse_rows(&text).expect("a livelock report still validates");
    // The sequential reference, then tl2: both overran the bound.
    assert_eq!(rows.len(), 2, "{text}");
    assert_eq!(rows[0].backend, "sequential");
    assert!(rows[0].livelocked);
    let tl2 = &rows[1];
    assert!(tl2.livelocked);
    assert_eq!(tl2.m.ops, 0);
    assert_eq!(tl2.backend, "tl2");
    assert_eq!(tl2.system, "TL2");
}
