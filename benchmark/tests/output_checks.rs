//! The command-line contract: a clean run exits 0 and ends with the
//! result line; a failed output check exits non-zero; a bad command line
//! prints no result.

use std::process::{Command, Output};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .output()
        .expect("run the benchmark binary")
}

fn last_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .unwrap_or_default()
        .to_string()
}

#[test]
fn a_clean_smoke_run_ends_with_the_result_line() {
    let out = bench(&[
        "--workload",
        "kv-mem",
        "--seed",
        "9",
        "--trace",
        "0",
        "--smoke",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = last_line(&out);
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert!(line.contains("\"failed\": 0, \"metrics\": {\"speedup_vs_ref\": {\"value\": "));
    let metrics = benchmark::selfcheck::parse_metrics(&line);
    let names: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
    let expected: Vec<&str> = benchmark::spec::END_TO_END.iter().map(|m| m.name).collect();
    assert_eq!(names, expected, "exactly the end-to-end metrics, in order");
    assert!(
        metrics.iter().all(|&(_, v)| v > 0.0),
        "no metric reads 0: {line}"
    );
}

#[test]
fn a_corrupted_oracle_fails_the_run() {
    for workload in ["sets-list", "kv-mem"] {
        let out = bench(&["--workload", workload, "--smoke", "--corrupt-oracle"]);
        assert!(!out.status.success(), "{workload} must exit non-zero");
        let line = last_line(&out);
        assert!(line.starts_with("{\"correct\": false"), "{line}");
        assert!(line.contains("\"failed\": 1,"), "{line}");
    }
}

#[test]
fn a_bad_command_line_prints_no_result() {
    for args in [
        &["--workload", "no-such-workload"][..],
        &["--workload", "kv-mem", "--trace", "2"],
        &["--seed", "1"],
        &["--workload", "kv-mem", "--seconds", "0"],
    ] {
        let out = bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
