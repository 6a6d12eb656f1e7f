//! Command line of the benchmark.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! benchmark self-check [--runs N] [--seconds S | --smoke]
//! benchmark spec
//! ```

use benchmark::run::{default_out_dir, run_named, Budget, RunConfig, SMOKE_PAIRS};
use benchmark::selfcheck::self_check;
use benchmark::spec::{benchmark_json, RUN_SECONDS, WORKLOADS};
use std::process::ExitCode;

const USAGE: &str = "usage:
  benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke]
      one run: --trace 0 prints every end-to-end metric, --trace 1 every
      per-layer metric and writes out/<workload>.trace.jsonl; --smoke runs
      20 pairs (same code path, a few seconds). The last line printed is
      the result as one JSON object. Exits non-zero if a check fails.
  benchmark self-check [--runs N] [--seconds S | --smoke]
      two interleaved sets of N runs per workload, judged by the bounds
  benchmark spec
      print BENCHMARK.json";

/// Parsed flags. `--corrupt-oracle` is deliberately absent from the
/// usage text: it exists so a test can prove that a failed output check
/// fails the run.
struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    corrupt_oracle: bool,
    runs: usize,
}

fn parse(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        smoke: false,
        corrupt_oracle: false,
        runs: 10,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &String| format!("{flag}: cannot read '{v}'");
        match flag.as_str() {
            "--workload" => flags.workload = Some(value()?.clone()),
            "--seed" => flags.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                flags.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if !(flags.seconds > 0.0 && flags.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                flags.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--runs" => {
                flags.runs = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if flags.runs < 2 {
                    return Err("--runs must be at least 2".into());
                }
            }
            "--smoke" => flags.smoke = true,
            "--corrupt-oracle" => flags.corrupt_oracle = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(flags)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(cmd @ ("self-check" | "spec")) => (cmd, &args[1..]),
        Some("--help" | "-h") | None => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => ("run", &args[..]),
    };
    let flags = match parse(rest) {
        Ok(flags) => flags,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match command {
        "spec" => {
            print!("{}", benchmark_json());
            ExitCode::SUCCESS
        }
        "self-check" => {
            let exe = std::env::current_exe().expect("the benchmark knows its own path");
            let budget = if flags.smoke {
                vec!["--smoke".to_string()]
            } else {
                vec!["--seconds".to_string(), flags.seconds.to_string()]
            };
            if self_check(&exe, flags.runs, &budget) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        _ => {
            let Some(workload) = flags.workload else {
                eprintln!("--workload is required\n{USAGE}");
                return ExitCode::from(2);
            };
            let cfg = RunConfig {
                seed: flags.seed,
                budget: if flags.smoke {
                    Budget::Pairs(SMOKE_PAIRS)
                } else {
                    Budget::Seconds(flags.seconds)
                },
                traced: flags.trace,
                corrupt_oracle: flags.corrupt_oracle,
                out_dir: default_out_dir(),
            };
            let Some(report) = run_named(&workload, &cfg) else {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
                eprintln!(
                    "unknown workload '{workload}'; one of: {}",
                    names.join(", ")
                );
                return ExitCode::from(2);
            };
            report.print();
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}
