//! End-to-end tests of `repro`'s target and scenario names: every
//! measuring target and scenario is resolved before any runs,
//! `--help`/`--list` win over a bad name, the scenarios are the paper's
//! three figures, and a closed stdout ends a listing quietly and a sweep
//! at its next cell.

use std::io::{BufRead, BufReader};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn a_typo_late_in_the_target_list_fails_before_anything_runs() {
    let json = std::env::temp_dir().join(format!("repro-target-test-{}.json", std::process::id()));
    let out = repro(&["fig6", "fig7x", "--json", json.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{}", text(&out.stderr));
    assert!(
        text(&out.stderr).contains("unknown target fig7x"),
        "{}",
        text(&out.stderr)
    );
    // No banner, no fig6 table, no artifact: nothing was measured.
    assert!(out.stdout.is_empty(), "{}", text(&out.stdout));
    assert!(!json.exists(), "a rejected command line wrote {json:?}");

    let out = repro(&["compare-json", "a.json", "b.json"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "{}", text(&out.stdout));
}

#[test]
fn an_unknown_scenario_fails_before_anything_runs() {
    let json =
        std::env::temp_dir().join(format!("repro-scenario-test-{}.json", std::process::id()));
    let out = repro(&[
        "summary",
        "--scenario",
        "bank-transfer",
        "--json",
        json.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "{}", text(&out.stderr));
    assert!(
        text(&out.stderr).contains("bank-transfer"),
        "{}",
        text(&out.stderr)
    );
    assert!(out.stdout.is_empty(), "{}", text(&out.stdout));
    assert!(!json.exists(), "a rejected command line wrote {json:?}");
}

#[test]
fn the_scenarios_are_the_three_figures() {
    let out = repro(&["list"]);
    assert!(out.status.success(), "{}", text(&out.stderr));
    let listing = text(&out.stdout);
    let (_, scenarios) = listing
        .split_once("scenarios:\n")
        .unwrap_or_else(|| panic!("no scenario section:\n{listing}"));
    let names: Vec<&str> = scenarios
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(names, ["fig6", "fig7", "fig8"], "{listing}");
}

#[test]
fn help_and_list_win_over_an_unknown_target() {
    let out = repro(&["bogus", "--help"]);
    assert!(out.status.success(), "{}", text(&out.stderr));
    assert!(
        text(&out.stdout).starts_with("usage: repro"),
        "{}",
        text(&out.stdout)
    );

    let out = repro(&["--list", "bogus"]);
    assert!(out.status.success(), "{}", text(&out.stderr));
    assert!(
        text(&out.stdout).starts_with("backends:"),
        "{}",
        text(&out.stdout)
    );
}

#[test]
fn a_reader_that_has_gone_ends_the_listing_quietly() {
    // The read end is closed before `repro` starts, so its first write
    // meets a broken pipe every time, as `repro list | head` can.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("list")
        .stdout(writer)
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "{:?}: {}",
        out.status,
        text(&out.stderr)
    );
    assert!(
        !text(&out.stderr).contains("panicked"),
        "{}",
        text(&out.stderr)
    );
}

#[test]
fn a_reader_that_has_gone_ends_a_sweep_at_its_next_cell() {
    // The sweep measures the sequential reference once and four backends
    // at two thread counts, `POINT` each: at least nine points in all.
    // The reader takes the banner and goes. The first cell's rows meet
    // the broken pipe, so the process ends about one point later.
    const POINT: Duration = Duration::from_millis(400);
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig8", "--stm", "oe,lsa,tl2,swiss", "--threads", "1,2"])
        .args([
            "--duration-ms",
            &POINT.as_millis().to_string(),
            "--composed",
            "5",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("repro runs");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped"));
    let mut banner = String::new();
    for _ in 0..4 {
        stdout.read_line(&mut banner).expect("banner line");
    }
    assert!(
        banner.starts_with("Composing Relaxed Transactions"),
        "{banner}"
    );
    drop(stdout);
    let closed = Instant::now();
    let out = child.wait_with_output().expect("repro ends");
    let took = closed.elapsed();
    assert!(
        out.status.success(),
        "{:?}: {}",
        out.status,
        text(&out.stderr)
    );
    let sweep = 9 * POINT;
    assert!(
        took < sweep / 2,
        "ran on {took:?} after its reader went, of a sweep of at least {sweep:?}"
    );
}
