//! Shared command-line parsing for the `repro` binary.
//!
//! Parsing is pure (`argv` slice in, [`Options`] or an error message out)
//! so every flag is unit-testable without spawning the binary; `repro`'s
//! `main` maps `Err` to a usage error and exit code 2.

use crate::report::Structure;
use crate::workload::DEFAULT_SEED;
use std::time::Duration;

/// The usage text printed by `--help` (kept in one place so tests can
/// assert every flag is documented).
pub const USAGE: &str = "\
usage: repro [TARGET]... [FLAGS]
       repro validate-json <path> [--require-full-coverage]
       repro recover <dir> (replay a durable store's snapshot + WAL, print
                            the recovered image and any repair diagnostics)

targets:
  fig6 | fig7 | fig8   regenerate one figure's tables
  all                  fig6 + fig7 + fig8 (default)
  summary              the figures x every registered backend (the E-STM
                       ablation mode included), one composed mix, plus
                       the headline speedups
  trace                record a deterministic two-process composition per
                       backend (--stm; default oe) — or --steps racing ops
                       of each --scenario — and dump the history in the
                       paper's notation
  list                 list registered backends and scenarios, then exit

flags:
  --stm a,b,...        backends to run (default: all registered; see list)
  --scenario a,b,...   figures (fig6, fig7, fig8) for `summary` / `trace`
                       (default: all three / the built-in composition)
  --threads 1,2,4      worker thread counts (default: 1,2,4,8,16,32,64)
  --duration-ms 500    wall-clock milliseconds per data point
  --composed 5,15      composed-update percentages (paper: 5 and 15)
  --seed N             base seed for prefills and op streams (default: 61713)
  --steps N            trace: composed children per recorded process
                       (default: 3)
  --json PATH          write every measured row as schema-stable JSON
  --max-run-secs N     watchdog: measure each matrix row in a subprocess
                       and kill it after N seconds; killed rows are
                       reported as LIVELOCK (tables) / livelocked (JSON)
                       instead of hanging the whole run
  --list               alias for the `list` target
  -h, --help           this text
";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Positional targets (`fig6`, `summary`, `validate-json`, paths…).
    pub targets: Vec<String>,
    /// Worker thread counts.
    pub threads: Vec<usize>,
    /// Wall-clock duration per data point.
    pub duration: Duration,
    /// Composed-update percentages.
    pub composed: Vec<u32>,
    /// Backend subset (`None` = all registered).
    pub stm: Option<Vec<String>>,
    /// Figure subset (`None` = all three).
    pub scenario: Option<Vec<Structure>>,
    /// Base seed.
    pub seed: u64,
    /// `--steps` (for `trace`): composed children per recorded process.
    pub steps: usize,
    /// JSON output path.
    pub json: Option<String>,
    /// `--max-run-secs`: the progress watchdog's per-row wall-clock bound.
    /// When set, every measured matrix row runs in its own subprocess and
    /// is killed (and reported as livelocked) if it exceeds the bound.
    /// `None` (the default) measures in-process with no bound.
    pub max_run_secs: Option<u64>,
    /// `--list` / `list`: print registries and exit.
    pub list: bool,
    /// `--require-full-coverage` (for `validate-json`).
    pub require_full_coverage: bool,
    /// `-h` / `--help`.
    pub help: bool,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            targets: Vec::new(),
            threads: vec![1, 2, 4, 8, 16, 32, 64],
            duration: Duration::from_millis(500),
            composed: vec![5, 15],
            stm: None,
            scenario: None,
            seed: DEFAULT_SEED,
            steps: 3,
            json: None,
            max_run_secs: None,
            list: false,
            require_full_coverage: false,
            help: false,
        }
    }
}

/// Fetch the value of `--flag` at `argv[i + 1]`.
///
/// # Errors
/// Returns a usage message when the value is missing.
pub fn flag_value<'a>(argv: &'a [String], i: usize, flag: &str) -> Result<&'a str, String> {
    argv.get(i + 1)
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} requires a value; try --help"))
}

/// Parse a comma-separated list.
///
/// # Errors
/// Returns a usage message naming the offending element.
pub fn parse_list<T: std::str::FromStr>(raw: &str, what: &str) -> Result<Vec<T>, String> {
    raw.split(',')
        .map(|s| {
            s.trim()
                .parse()
                .map_err(|_| format!("bad {what} {s:?}; try --help"))
        })
        .collect()
}

/// Parse the full argument vector (without the program name).
///
/// # Errors
/// Returns a usage message on any malformed flag or value.
pub fn parse_args(argv: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--threads" => {
                opts.threads = parse_list(flag_value(argv, i, "--threads")?, "thread count")?;
                i += 1;
            }
            "--duration-ms" => {
                let raw = flag_value(argv, i, "--duration-ms")?;
                let ms: u64 = raw
                    .parse()
                    .map_err(|_| format!("bad duration {raw:?}; try --help"))?;
                opts.duration = Duration::from_millis(ms);
                i += 1;
            }
            "--composed" => {
                opts.composed = parse_list(flag_value(argv, i, "--composed")?, "composed pct")?;
                i += 1;
            }
            "--stm" => {
                opts.stm = Some(parse_list(flag_value(argv, i, "--stm")?, "backend name")?);
                i += 1;
            }
            "--scenario" => {
                opts.scenario = Some(parse_list(flag_value(argv, i, "--scenario")?, "scenario")?);
                i += 1;
            }
            "--seed" => {
                let raw = flag_value(argv, i, "--seed")?;
                opts.seed = raw
                    .parse()
                    .map_err(|_| format!("bad seed {raw:?}; try --help"))?;
                i += 1;
            }
            "--steps" => {
                let raw = flag_value(argv, i, "--steps")?;
                opts.steps = raw
                    .parse()
                    .map_err(|_| format!("bad steps {raw:?}; try --help"))?;
                if opts.steps == 0 {
                    return Err("--steps needs a nonzero count; try --help".to_string());
                }
                i += 1;
            }
            "--json" => {
                opts.json = Some(flag_value(argv, i, "--json")?.to_string());
                i += 1;
            }
            "--max-run-secs" => {
                let raw = flag_value(argv, i, "--max-run-secs")?;
                let secs: u64 = raw
                    .parse()
                    .map_err(|_| format!("bad max-run-secs {raw:?}; try --help"))?;
                if secs == 0 {
                    return Err("--max-run-secs needs a nonzero bound; try --help".to_string());
                }
                opts.max_run_secs = Some(secs);
                i += 1;
            }
            "--list" => opts.list = true,
            "--require-full-coverage" => opts.require_full_coverage = true,
            "--help" | "-h" => opts.help = true,
            w if w.starts_with("--") => {
                return Err(format!("unknown flag {w}; try --help"));
            }
            w => opts.targets.push(w.to_string()),
        }
        i += 1;
    }
    if opts.threads.is_empty() || opts.threads.contains(&0) {
        return Err("--threads needs at least one nonzero count; try --help".to_string());
    }
    // Mix::paper requires composed <= 20 (updates are 20% of all ops).
    if opts.composed.iter().any(|&pct| pct > 20) {
        return Err(
            "--composed percentages must be <= 20 (updates are 20% of all operations)".to_string(),
        );
    }
    Ok(opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(ToString::to_string).collect()
    }

    #[test]
    fn defaults_without_arguments() {
        let o = parse_args(&[]).unwrap();
        assert_eq!(o, Options::default());
    }

    #[test]
    fn new_flags_parse() {
        let o = parse_args(&args(
            "summary --stm tl2,oe --scenario fig6,fig8 --seed 99 --json out.json --list",
        ))
        .unwrap();
        assert_eq!(o.targets, vec!["summary"]);
        assert_eq!(o.stm.as_deref(), Some(&["tl2".into(), "oe".into()][..]));
        assert_eq!(
            o.scenario,
            Some(vec![Structure::LinkedList, Structure::HashSet])
        );
        assert_eq!(o.seed, 99);
        assert_eq!(o.json.as_deref(), Some("out.json"));
        assert!(o.list);
    }

    #[test]
    fn legacy_flags_parse() {
        let o = parse_args(&args("fig7 --threads 1,2 --duration-ms 50 --composed 15")).unwrap();
        assert_eq!(o.targets, vec!["fig7"]);
        assert_eq!(o.threads, vec![1, 2]);
        assert_eq!(o.duration, Duration::from_millis(50));
        assert_eq!(o.composed, vec![15]);
    }

    #[test]
    fn max_run_secs_flag_parses_and_rejects_zero() {
        let o = parse_args(&args("summary --max-run-secs 30")).unwrap();
        assert_eq!(o.max_run_secs, Some(30));
        assert_eq!(parse_args(&[]).unwrap().max_run_secs, None);
        assert!(parse_args(&args("--max-run-secs 0"))
            .unwrap_err()
            .contains("nonzero"));
        assert!(parse_args(&args("--max-run-secs banana"))
            .unwrap_err()
            .contains("max-run-secs"));
        assert!(parse_args(&args("--max-run-secs"))
            .unwrap_err()
            .contains("--max-run-secs"));
    }

    #[test]
    fn recover_subcommand_shape() {
        let o = parse_args(&args("recover /var/lib/app/store")).unwrap();
        assert_eq!(o.targets, vec!["recover", "/var/lib/app/store"]);
    }

    #[test]
    fn trace_subcommand_shape() {
        let o = parse_args(&args("trace --stm tl2 --steps 5")).unwrap();
        assert_eq!(o.targets, vec!["trace"]);
        assert_eq!(o.stm.as_deref(), Some(&["tl2".into()][..]));
        assert_eq!(o.steps, 5);
        assert_eq!(parse_args(&args("trace")).unwrap().steps, 3);
        assert!(parse_args(&args("trace --steps 0"))
            .unwrap_err()
            .contains("nonzero"));
        assert!(parse_args(&args("trace --steps banana"))
            .unwrap_err()
            .contains("steps"));
    }

    #[test]
    fn validate_json_subcommand_shape() {
        let o = parse_args(&args("validate-json bench.json --require-full-coverage")).unwrap();
        assert_eq!(o.targets, vec!["validate-json", "bench.json"]);
        assert!(o.require_full_coverage);
    }

    #[test]
    fn bad_values_are_usage_errors() {
        assert!(parse_args(&args("--threads"))
            .unwrap_err()
            .contains("--threads"));
        assert!(parse_args(&args("--threads 0"))
            .unwrap_err()
            .contains("nonzero"));
        assert!(parse_args(&args("--threads x"))
            .unwrap_err()
            .contains("thread count"));
        assert!(parse_args(&args("--composed 25"))
            .unwrap_err()
            .contains("<= 20"));
        assert!(parse_args(&args("--seed banana"))
            .unwrap_err()
            .contains("seed"));
        assert!(parse_args(&args("summary --scenario fig6,fig9"))
            .unwrap_err()
            .contains("bad scenario \"fig9\""));
        assert!(parse_args(&args("--frobnicate"))
            .unwrap_err()
            .contains("unknown flag"));
    }

    #[test]
    fn help_flag_sets_help() {
        assert!(parse_args(&args("-h")).unwrap().help);
        assert!(parse_args(&args("--help")).unwrap().help);
    }

    #[test]
    fn usage_documents_every_flag() {
        // `--help` coverage: each public flag (notably the new registry
        // flags) must appear in the usage text.
        for flag in [
            "--stm",
            "--scenario",
            "--threads",
            "--duration-ms",
            "--composed",
            "--seed",
            "--steps",
            "--json",
            "--max-run-secs",
            "--list",
            "--require-full-coverage",
            "validate-json",
            "recover",
            "summary",
            "trace",
        ] {
            assert!(USAGE.contains(flag), "usage text is missing {flag}");
        }
    }
}
