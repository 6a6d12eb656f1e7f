//! The measurement protocol.
//!
//! A run is a sequence of *slice pairs*: a reference slice (an STM-free
//! implementation of the same operation stream, owned by the benchmark)
//! immediately followed by a workload slice of 40–90 ms. Slices are fixed
//! operation counts; `--seconds` decides how many pairs are run. Every
//! metric is computed per slice and reported as the median over slices,
//! so a slow phase of the host shorter than half the run drops out;
//! `speedup_vs_ref` is the median of the per-pair ratios, so a slow phase
//! as long as the whole run cancels.

use crate::probes;
use crate::spec::{ABORT_CAUSES, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile_ns};
use crate::trace;
use crate::workload::kv::{KvDurable, KvMem};
use crate::workload::sets_list::SetsList;
use crate::workload::{Env, Latencies, Workload};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;
use stm_core::StatsSnapshot;

/// How long a run measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Run whole pairs until this many seconds have passed.
    Seconds(f64),
    /// Run exactly this many pairs (`--smoke`, tests).
    Pairs(usize),
}

/// Pairs of a `--smoke` run.
pub const SMOKE_PAIRS: usize = 20;
/// Pairs of a traced run (each an untraced and a traced workload slice).
pub const TRACED_PAIRS: usize = 30;
/// Fresh set-ups timed before the first slice; the last one is used.
pub const SETUPS_UP_FRONT: usize = 9;
/// An end-to-end run times one more fresh set-up after every this many
/// pairs.
pub const SETUP_EVERY_PAIRS: usize = 8;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seed of the operation streams.
    pub seed: u64,
    /// How long to measure.
    pub budget: Budget,
    /// Traced run (per-layer metrics) instead of an end-to-end run.
    pub traced: bool,
    /// Test-only, see [`Env::corrupt_oracle`].
    pub corrupt_oracle: bool,
    /// Directory for scratch files and the span file.
    pub out_dir: PathBuf,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Result of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Every end-to-end metric (untraced) or every per-layer metric
    /// (traced), in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Workload operations executed in measured slices.
    pub attempted: u64,
    /// Operations whose result disagreed with the oracle, plus failed
    /// final checks.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Informational lines (host-dependent numbers without a bound).
    pub notes: Vec<String>,
    /// Slice pairs measured.
    pub pairs: usize,
    /// Read-class and update-class latency samples behind the medians.
    pub samples: (u64, u64),
    /// Engine counters over the measured workload slices.
    pub stats: StatsSnapshot,
    /// Where the span file was written (traced runs).
    pub trace_file: Option<PathBuf>,
}

impl Report {
    /// The value of metric `name`.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Whether every output check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line the driver reads: one JSON object with exactly the
    /// keys `correct`, `attempted`, `failed` and `metrics`.
    #[must_use]
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Print every metric by name with its unit, the sample counts, the
    /// failed checks, and last the result line.
    pub fn print(&self) {
        println!(
            "workload {}: {} pairs, {} ops attempted, {} failed; {} read and {} update latency samples",
            self.workload, self.pairs, self.attempted, self.failed, self.samples.0, self.samples.1
        );
        for m in &self.metrics {
            println!("  {:<44} {:>16.6} {}", m.name, m.value, m.unit);
        }
        for note in &self.notes {
            println!("  note: {note}");
        }
        for f in &self.failures {
            println!("  CHECK FAILED: {f}");
        }
        if let Some(path) = &self.trace_file {
            println!("  spans written to {}", path.display());
        }
        println!("{}", self.json_line());
    }
}

/// Run the workload called `name`; `None` for an unknown name.
#[must_use]
pub fn run_named(name: &str, cfg: &RunConfig) -> Option<Report> {
    Some(match name {
        SetsList::NAME => run::<SetsList>(cfg),
        KvMem::NAME => run::<KvMem>(cfg),
        KvDurable::NAME => run::<KvDurable>(cfg),
        _ => return None,
    })
}

/// Peak resident set of this process so far, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One fresh, timed set-up; `times` gets its duration in seconds.
fn timed_setup<W: Workload>(inputs: &W::Inputs, env: &Env, times: &mut Vec<f64>) -> W::System {
    let start = Instant::now();
    let system = W::build(inputs, env, times.len());
    times.push(start.elapsed().as_secs_f64());
    system
}

/// Per-pair series of an end-to-end run.
#[derive(Default)]
struct Series {
    speedup: Vec<f64>,
    read_p50: Vec<f64>,
    update_p50: Vec<f64>,
    read_p99: Vec<f64>,
    /// Absolute throughput, for the informational line only.
    ops_per_s: Vec<f64>,
}

fn budget_left(budget: Budget, started: Instant, pairs: usize) -> bool {
    match budget {
        Budget::Seconds(s) => started.elapsed().as_secs_f64() < s,
        Budget::Pairs(n) => pairs < n,
    }
}

/// Run workload `W` as `cfg` says.
pub fn run<W: Workload>(cfg: &RunConfig) -> Report {
    // Unique per run, also when tests run several in one process.
    static RUNS: AtomicU32 = AtomicU32::new(0);
    let nth = RUNS.fetch_add(1, Ordering::Relaxed);
    let dir = cfg
        .out_dir
        .join(format!("run-{}-{nth}", std::process::id()));
    let env = Env {
        dir: dir.clone(),
        traced: cfg.traced,
        corrupt_oracle: cfg.corrupt_oracle,
    };
    let inputs = W::generate(cfg.seed);
    let mut setups = Vec::new();
    let mut system = timed_setup::<W>(&inputs, &env, &mut setups);
    while setups.len() < SETUPS_UP_FRONT {
        // Tear the previous one down outside the timed window.
        drop(system);
        system = timed_setup::<W>(&inputs, &env, &mut setups);
    }
    let mut w = W::start(inputs, system, &env);
    let mut lat = Latencies::default();

    // One pair whose timings are discarded: first-touch page faults,
    // lazy thread-locals, the scratch pool's first allocation. Its
    // results are still checked.
    w.ref_slice();
    let warm_up_failed = w.work_slice(&mut lat, false).failed;

    let mut report = if cfg.traced {
        traced_run(w, cfg, lat, &dir)
    } else {
        end_to_end_run(w, cfg, &env, lat, setups)
    };
    report.failed += warm_up_failed;
    // Best effort: the scratch files are inside the checkout either way.
    let _ = std::fs::remove_dir_all(&dir);
    report
}

fn end_to_end_run<W: Workload>(
    mut w: W,
    cfg: &RunConfig,
    env: &Env,
    mut lat: Latencies,
    mut setups: Vec<f64>,
) -> Report {
    let mut series = Series::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut samples = (0u64, 0u64);
    let stats_before = w.stats();
    let started = Instant::now();
    while budget_left(cfg.budget, started, series.speedup.len()) {
        let reference = w.ref_slice();
        lat.reads.clear();
        lat.updates.clear();
        let slice = w.work_slice(&mut lat, false);
        attempted += slice.ops;
        failed += slice.failed;
        samples.0 += lat.reads.len() as u64;
        samples.1 += lat.updates.len() as u64;
        // Everything timed is divided by the adjacent reference slice.
        let ref_op_ns = reference.ns as f64 / reference.ops as f64;
        series
            .speedup
            .push(slice.ops_per_s() / reference.ops_per_s());
        series
            .read_p50
            .push(percentile_ns(&mut lat.reads, 50.0) / ref_op_ns);
        series
            .update_p50
            .push(percentile_ns(&mut lat.updates, 50.0) / ref_op_ns);
        series
            .read_p99
            .push(percentile_ns(&mut lat.reads, 99.0) / ref_op_ns);
        series.ops_per_s.push(slice.ops_per_s());
        // One more fresh set-up, discarded: the set-up median then spans
        // the whole run, like every other median, and not its first
        // second.
        if series.speedup.len() % SETUP_EVERY_PAIRS == 0 {
            drop(timed_setup::<W>(w.inputs(), env, &mut setups));
        }
    }
    // Before the output checks: what they allocate is not the system's.
    let rss_mb = peak_rss_mb();
    let stats = w.stats().delta_since(&stats_before);
    let finish = w.finish();
    failed += finish.failures.len() as u64;
    let notes = vec![format!(
        "{:.1} ops/s median slice throughput (host-dependent, no bound); {} set-ups timed",
        median(&series.ops_per_s),
        setups.len()
    )];

    let value = |name: &str| match name {
        "speedup_vs_ref" => median(&series.speedup),
        "read_p50_vs_ref" => median(&series.read_p50),
        "update_p50_vs_ref" => median(&series.update_p50),
        "read_p99_vs_ref" => median(&series.read_p99),
        "rss_mb" => rss_mb,
        "setup_s" => median(&setups),
        other => unreachable!("end-to-end metric {other} has no measurement"),
    };
    Report {
        workload: W::NAME,
        metrics: END_TO_END
            .iter()
            .map(|m| Metric {
                name: m.name,
                value: value(m.name),
                unit: m.unit,
            })
            .collect(),
        attempted,
        failed,
        failures: finish.failures,
        notes,
        pairs: series.speedup.len(),
        samples,
        stats,
        trace_file: None,
    }
}

/// `pct`-th percentile in µs of the durations of the spans called
/// `name`; 0 when there are none.
fn span_p(spans: &[trace::Span], name: &str, pct: f64) -> f64 {
    percentile_ns(&mut trace::durations(spans, name), pct) / 1e3
}

/// The per-layer metrics that come out of the span tree: per-op-kind
/// medians, the seams' medians, and self times.
fn span_metrics(
    spans: &[trace::Span],
    own: &[u64],
    op_spans: &[&'static str],
) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    for name in op_spans {
        let metric = PER_LAYER
            .iter()
            .find(|m| m.name.strip_suffix("_p50_us") == Some(name))
            .expect("every op kind has a per-layer latency metric");
        out.push((metric.name, span_p(spans, name, 50.0)));
    }
    for (metric, span) in [
        ("cec.enqueue_p50_us", "cec.enqueue"),
        ("cec.dequeue_blocking_p50_us", "cec.dequeue_blocking"),
        ("durable.hook_p50_us", "durable.hook"),
        ("durable.vfs_append_p50_us", "durable.vfs_append"),
        ("durable.fsync_p50_us", "durable.vfs_sync"),
    ] {
        out.push((metric, span_p(spans, span, 50.0)));
    }
    out.push((
        "durable.fsync_p99_us",
        span_p(spans, "durable.vfs_sync", 99.0),
    ));
    let self_p50 = |pick: &dyn Fn(&trace::Span) -> bool| {
        let mut ns: Vec<u32> = spans
            .iter()
            .zip(own)
            .filter(|(s, _)| pick(s))
            .map(|(_, &ns)| u32::try_from(ns).unwrap_or(u32::MAX))
            .collect();
        percentile_ns(&mut ns, 50.0) / 1e3
    };
    out.push((
        "txkv.op_self_p50_us",
        self_p50(&|s| s.parent == 0 && s.name.starts_with("txkv.")),
    ));
    out.push((
        "durable.hook_self_p50_us",
        self_p50(&|s| s.name == "durable.hook"),
    ));
    out
}

/// The engine's counters over the workload's slices.
fn stats_metrics(stats: &StatsSnapshot) -> Vec<(&'static str, f64)> {
    let mut out = vec![
        ("oe-stm.commits", stats.commits as f64),
        ("oe-stm.aborts", stats.aborts() as f64),
        ("oe-stm.abort_share", stats.abort_rate()),
        ("oe-stm.child_commits", stats.child_commits as f64),
        ("oe-stm.outherits", stats.outherits as f64),
        ("oe-stm.elastic_cuts", stats.elastic_cuts as f64),
    ];
    for (name, &count) in ABORT_CAUSES.iter().zip(&stats.aborts_by_cause) {
        out.push((name, count as f64));
    }
    out
}

fn traced_run<W: Workload>(
    mut w: W,
    cfg: &RunConfig,
    mut lat: Latencies,
    scratch_dir: &Path,
) -> Report {
    let pairs_wanted = match cfg.budget {
        Budget::Seconds(_) => TRACED_PAIRS,
        Budget::Pairs(n) => n,
    };
    let mut layer: Vec<(&'static str, f64)> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut samples = (0u64, 0u64);
    let mut overhead = Vec::new();
    let mut plain_series = Series::default();
    let stats_before = w.stats();
    let started = Instant::now();

    trace::thread_begin(1 << 20);
    // Traced pair: the same slice untraced, then with span recording on.
    while overhead.len() < pairs_wanted && budget_left(cfg.budget, started, overhead.len()) {
        lat.reads.clear();
        lat.updates.clear();
        let plain = w.work_slice(&mut lat, false);
        plain_series.ops_per_s.push(plain.ops_per_s());
        plain_series
            .read_p50
            .push(percentile_ns(&mut lat.reads, 50.0) / 1e3);
        plain_series
            .update_p50
            .push(percentile_ns(&mut lat.updates, 50.0) / 1e3);
        plain_series
            .read_p99
            .push(percentile_ns(&mut lat.reads, 99.0) / 1e3);
        samples.0 += lat.reads.len() as u64;
        samples.1 += lat.updates.len() as u64;
        trace::set_slice(overhead.len() as u32);
        let recorded = w.work_slice(&mut lat, true);
        attempted += plain.ops + recorded.ops;
        failed += plain.failed + recorded.failed;
        overhead.push(1.0 - recorded.ops_per_s() / plain.ops_per_s());
    }
    let stats = w.stats().delta_since(&stats_before);
    let finish = w.finish();
    failed += finish.failures.len() as u64;
    layer.extend(finish.layer);

    // The workload-independent probes, as sibling root spans.
    let (probed, probe_failures) = probes::all(scratch_dir, cfg.seed);
    layer.extend(probed);
    trace::thread_end();
    let spans = trace::drain();

    layer.push(("trace.overhead_share", median(&overhead)));
    layer.push(("workload.ops_per_s", median(&plain_series.ops_per_s)));
    layer.push(("workload.read_p50_us", median(&plain_series.read_p50)));
    layer.push(("workload.update_p50_us", median(&plain_series.update_p50)));
    layer.push(("workload.read_p99_us", median(&plain_series.read_p99)));
    let own = trace::self_times(&spans);
    layer.extend(span_metrics(&spans, &own, W::SPAN_NAMES));
    layer.extend(stats_metrics(&stats));

    let trace_file = cfg.out_dir.join(format!("{}.trace.jsonl", W::NAME));
    let written = trace::write_jsonl(&trace_file, &spans, &own);
    let mut failures = finish.failures;
    failed += probe_failures.len() as u64;
    failures.extend(probe_failures);
    if let Err(err) = &written {
        failed += 1;
        failures.push(format!("writing {}: {err}", trace_file.display()));
    }

    for (name, _) in &layer {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.name == *name),
            "{name} is not in the per-layer table"
        );
    }
    Report {
        workload: W::NAME,
        // Every per-layer metric is reported; a layer this workload
        // never reaches reads 0.
        metrics: PER_LAYER
            .iter()
            .map(|m| Metric {
                name: m.name,
                value: layer
                    .iter()
                    .find(|(name, _)| *name == m.name)
                    .map_or(0.0, |&(_, v)| v),
                unit: m.unit,
            })
            .collect(),
        attempted,
        failed,
        failures,
        notes: Vec::new(),
        pairs: overhead.len(),
        samples,
        stats,
        trace_file: written.is_ok().then_some(trace_file),
    }
}

/// The directory the benchmark writes into: `out/` beside its
/// `Cargo.toml`, inside the checkout.
#[must_use]
pub fn default_out_dir() -> PathBuf {
    let manifest = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from);
    Path::new(&manifest).join("out")
}
