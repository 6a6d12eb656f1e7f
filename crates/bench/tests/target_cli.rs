//! End-to-end tests of `repro`'s target names: every measuring target is
//! resolved before any runs, and `--help`/`--list` win over a bad name.

use std::process::{Command, Output};

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
