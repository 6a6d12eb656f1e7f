//! `self-check`: the acceptance test for the benchmark itself, runnable
//! locally. Two interleaved sets of runs of the same build must agree:
//! within each set the quartile spread of every end-to-end metric stays
//! inside the metric's bound (except `setup_s`), and the second set's
//! median is not worse than the first's by more than the bound.
//!
//! Every run is a fresh process, because `rss_mb` is a process-wide
//! peak.

use crate::spec::{Better, EndToEnd, END_TO_END, WORKLOADS};
use crate::stats::{median, spread};
use std::path::Path;
use std::process::Command;

/// Extract `name → value` from a result line as `Report::json_line`
/// prints it.
#[must_use]
pub fn parse_metrics(line: &str) -> Vec<(String, f64)> {
    let Some((_, metrics)) = line.split_once("\"metrics\": {") else {
        return Vec::new();
    };
    metrics
        .split("}, ")
        .filter_map(|entry| {
            let (name, rest) = entry.split_once("\": {\"value\": ")?;
            let value = rest.split(',').next()?.trim_end_matches('}');
            Some((
                name.trim_start_matches('"').to_string(),
                value.parse().ok()?,
            ))
        })
        .collect()
}

/// One end-to-end run in a child process; its metrics, or why it failed.
fn child_run(
    exe: &Path,
    workload: &str,
    seed: u64,
    budget: &[String],
) -> Result<Vec<(String, f64)>, String> {
    let out = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--trace",
            "0",
        ])
        .args(budget)
        .output()
        .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    if !out.status.success() || !last.contains("\"correct\": true") {
        return Err(format!(
            "{workload} seed {seed} exited with {} and said: {last}",
            out.status
        ));
    }
    Ok(parse_metrics(last))
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worse_by(m: &EndToEnd, a: f64, b: f64) -> f64 {
    match m.better {
        Better::Higher => (a - b) / a,
        Better::Lower => (b - a) / a,
    }
}

/// Run the check and print the table; `true` when every row passes.
/// `budget` is passed through to each run (`--seconds N` or `--smoke`).
#[must_use]
pub fn self_check(exe: &Path, runs: usize, budget: &[String]) -> bool {
    let mut all_pass = true;
    for (workload, _) in WORKLOADS {
        let mut sets: [Vec<Vec<(String, f64)>>; 2] = Default::default();
        for i in 0..runs as u64 {
            for (set, base) in sets.iter_mut().zip([1_000u64, 2_000]) {
                match child_run(exe, workload, base + i, budget) {
                    Ok(metrics) => set.push(metrics),
                    Err(why) => {
                        println!("FAIL {why}");
                        all_pass = false;
                    }
                }
            }
        }
        println!(
            "{workload}: two interleaved sets of {runs} runs\n  {:<16} {:>14} {:>14} {:>9} {:>9} {:>9} {:>6}",
            "metric", "median A", "median B", "B worse", "spread A", "spread B", "bound"
        );
        for m in &END_TO_END {
            let values = |set: &Vec<Vec<(String, f64)>>| -> Vec<f64> {
                set.iter()
                    .filter_map(|run| run.iter().find(|(n, _)| n == m.name).map(|&(_, v)| v))
                    .collect()
            };
            let (a, b) = (values(&sets[0]), values(&sets[1]));
            if a.len() < 2 || b.len() < 2 {
                println!("  {:<16} too few runs to judge", m.name);
                all_pass = false;
                continue;
            }
            let (ma, mb) = (median(&a), median(&b));
            let (sa, sb) = (spread(&a), spread(&b));
            let gap = worse_by(m, ma, mb);
            let spread_ok = m.name == "setup_s" || (sa <= m.bound && sb <= m.bound);
            let pass = spread_ok && gap <= m.bound;
            let steady = sa.max(sb) < m.bound / 3.0;
            all_pass &= pass;
            println!(
                "  {:<16} {:>14.4} {:>14.4} {:>8.2}% {:>8.2}% {:>8.2}% {:>5.0}% {}{}",
                m.name,
                ma,
                mb,
                gap * 100.0,
                sa * 100.0,
                sb * 100.0,
                m.bound * 100.0,
                if pass { "PASS" } else { "FAIL" },
                if pass && !steady {
                    " (spread above a third of the bound)"
                } else {
                    ""
                }
            );
            let list = |v: &[f64]| {
                v.iter()
                    .map(|x| format!("{x:.4}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            println!("    A: {}\n    B: {}", list(&a), list(&b));
        }
    }
    all_pass
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_what_the_report_prints() {
        let line = "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"ops_per_s\": {\"value\": 29541.25, \"unit\": \"1/s\"}, \"setup_s\": {\"value\": 0.0651, \"unit\": \"s\"}}}";
        assert_eq!(
            parse_metrics(line),
            [
                ("ops_per_s".to_string(), 29541.25),
                ("setup_s".to_string(), 0.0651)
            ]
        );
        assert!(parse_metrics("no result").is_empty());
    }

    #[test]
    fn worse_by_follows_the_direction() {
        let (hi, lo) = (END_TO_END[0], END_TO_END[2]);
        assert!(worse_by(&hi, 100.0, 90.0) > 0.09);
        assert!(worse_by(&hi, 100.0, 110.0) < 0.0);
        assert!(worse_by(&lo, 100.0, 110.0) > 0.09);
    }
}
