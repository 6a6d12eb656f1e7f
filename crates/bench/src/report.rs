//! Figure regeneration: sweeps and table printing for Figs. 6–8 plus the
//! summary comparisons the paper's abstract quotes.
//!
//! The sweeps themselves are one call into the scenario registry
//! ([`crate::scenario`]); this module owns the figure-shaped views: the
//! `Structure` axis, the paper's table format, and the headline speedup
//! summaries.

use crate::harness::Measurement;
use crate::scenario::{run_matrix, BenchRow, MatrixPlan, FIGURE_BACKENDS};
use crate::workload::{DEFAULT_INITIAL_SIZE, DEFAULT_SEED};
use std::time::Duration;

/// Which figure's data structure to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Structure {
    /// Fig. 6: `LinkedListSet`.
    LinkedList,
    /// Fig. 7: `SkipListSet`.
    SkipList,
    /// Fig. 8: `HashSet`, load factor 512 (8 buckets at 2^12 elements).
    HashSet,
}

impl Structure {
    /// Display name matching the paper.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Structure::LinkedList => "LinkedListSet",
            Structure::SkipList => "SkipListSet",
            Structure::HashSet => "HashSet",
        }
    }

    /// The scenario registry key regenerating this figure.
    #[must_use]
    pub fn scenario_name(self) -> &'static str {
        match self {
            Structure::LinkedList => "fig6",
            Structure::SkipList => "fig7",
            Structure::HashSet => "fig8",
        }
    }
}

/// The systems of Figs. 6–8.
pub const SYSTEMS: [&str; 5] = ["Sequential", "OE-STM", "LSA", "TL2", "SwissTM"];

/// One row of a figure table.
#[derive(Debug, Clone)]
pub struct Row {
    /// System name ("OE-STM", "TL2", …).
    pub system: String,
    /// Worker threads.
    pub threads: usize,
    /// The measurement.
    pub m: Measurement,
}

/// Paper's Fig. 8 geometry: 2^12 elements at load factor 512.
#[must_use]
pub fn paper_hash_buckets() -> usize {
    DEFAULT_INITIAL_SIZE / 512
}

/// Run one figure's full sweep: the four STMs plus the sequential
/// baseline, over `threads`, with the paper's mix at `composed_pct`.
#[must_use]
pub fn run_figure(
    structure: Structure,
    threads: &[usize],
    duration: Duration,
    composed_pct: u32,
) -> Vec<Row> {
    run_figure_rows(structure, threads, duration, composed_pct, DEFAULT_SEED)
        .into_iter()
        .map(|r| Row {
            system: r.system,
            threads: r.threads,
            m: r.m,
        })
        .collect()
}

/// Like [`run_figure`] but seeded, returning the machine-comparable
/// [`BenchRow`]s (what `repro --json` serializes).
#[must_use]
pub fn run_figure_rows(
    structure: Structure,
    threads: &[usize],
    duration: Duration,
    composed_pct: u32,
    seed: u64,
) -> Vec<BenchRow> {
    let plan = MatrixPlan {
        scenarios: vec![structure.scenario_name().to_string()],
        backends: FIGURE_BACKENDS.iter().map(ToString::to_string).collect(),
        threads: threads.to_vec(),
        duration,
        composed: vec![composed_pct],
        seed,
        include_sequential: true,
    };
    run_matrix(&plan).expect("figure scenarios and backends are registered")
}

/// Print a figure's rows in the paper's two-panel format (throughput and
/// abort rate per thread count), plus the relaxation/composition counters.
/// Blocks where any row recorded latency (`wake-storm`'s wake-up
/// latency) gain three percentile columns; the paper-figure tables keep
/// their original shape.
pub fn print_figure(title: &str, rows: &[Row]) {
    let with_latency = rows.iter().any(|r| r.m.p999_us > 0.0);
    outln!("\n=== {title} ===");
    out!(
        "{:<20} {:>8} {:>16} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "system",
        "threads",
        "ops/ms",
        "abort-rate",
        "commits",
        "aborts",
        "cuts",
        "outherits",
        "retries",
        "cm-waits"
    );
    if with_latency {
        out!(" {:>9} {:>9} {:>9}", "p50(us)", "p99(us)", "p999(us)");
    }
    outln!();
    for r in rows {
        out!(
            "{:<20} {:>8} {:>16.1} {:>11.1}% {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
            r.system,
            r.threads,
            r.m.throughput,
            r.m.abort_rate * 100.0,
            r.m.commits,
            r.m.aborts,
            r.m.elastic_cuts,
            r.m.outherits,
            r.m.explicit_retries,
            r.m.cm_waits
        );
        if with_latency {
            out!(
                " {:>9.0} {:>9.0} {:>9.0}",
                r.m.p50_us,
                r.m.p99_us,
                r.m.p999_us
            );
        }
        outln!();
    }
}

/// Print scenario-registry rows (any scenario, any backend mix) in the
/// same table format, one block per scenario.
pub fn print_bench_rows(rows: &[BenchRow]) {
    let mut seen: Vec<(&str, u32)> = Vec::new();
    for r in rows {
        if !seen.contains(&(r.scenario.as_str(), r.composed_pct)) {
            seen.push((r.scenario.as_str(), r.composed_pct));
        }
    }
    for (scenario, pct) in seen {
        let block: Vec<Row> = rows
            .iter()
            .filter(|r| r.scenario == scenario && r.composed_pct == pct)
            .map(|r| Row {
                system: r.tagged_system(),
                threads: r.threads,
                m: r.m,
            })
            .collect();
        let structure = rows
            .iter()
            .find(|r| r.scenario == scenario)
            .map_or("", |r| r.structure.as_str());
        print_figure(
            &format!("{scenario}: {structure} — {pct}% composed"),
            &block,
        );
    }
}

/// Cross-system summary at the highest thread count: speedup of OE-STM
/// over each classic STM (the abstract's "up to 2.7×"; "at least 6.6×" on
/// the linked list).
pub fn print_summary(structure: Structure, rows: &[Row]) {
    let max_t = rows.iter().map(|r| r.threads).max().unwrap_or(1);
    let tp = |name: &str| {
        rows.iter()
            .find(|r| r.system == name && r.threads == max_t)
            .map(|r| r.m.throughput)
    };
    let Some(oe) = tp("OE-STM") else {
        return;
    };
    outln!(
        "\n--- {} @ {} threads: OE-STM speedups ---",
        structure.name(),
        max_t
    );
    for sys in ["LSA", "TL2", "SwissTM"] {
        if let Some(other) = tp(sys) {
            outln!("  vs {sys:<8}: {:.2}x", oe / other);
        }
    }
    if let Some(seq) = tp("Sequential") {
        outln!("  vs Sequential(1-thread reference): {:.2}x", oe / seq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_geometry_matches_paper() {
        assert_eq!(paper_hash_buckets(), 8, "2^12 elements / load factor 512");
    }

    #[test]
    fn tiny_figure_run_produces_all_rows() {
        // Smoke test: 5 systems' worth of rows exist, measurements sane.
        let rows = run_figure(Structure::HashSet, &[1, 2], Duration::from_millis(40), 5);
        assert_eq!(rows.len(), 5 * 2, "5 systems x 2 thread counts");
        for r in &rows {
            assert!(r.m.throughput > 0.0, "{} produced no ops", r.system);
            assert!((0.0..=1.0).contains(&r.m.abort_rate));
        }
        for sys in SYSTEMS {
            assert!(
                rows.iter().any(|r| r.system == sys),
                "system {sys} missing from the figure sweep"
            );
        }
    }
}
