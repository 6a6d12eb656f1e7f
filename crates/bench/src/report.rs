//! The figures' names and tables: the `Structure` axis (one value per
//! scenario), the paper's table format, and the headline speedup
//! summaries the abstract quotes. The sweeps themselves run in
//! [`crate::scenario`].

use crate::scenario::BenchRow;
use crate::workload::DEFAULT_INITIAL_SIZE;
use std::time::Duration;

/// Which figure's data structure to run: the one name of a scenario.
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
    /// The three figures, in display order.
    pub const ALL: [Structure; 3] = [
        Structure::LinkedList,
        Structure::SkipList,
        Structure::HashSet,
    ];

    /// Display name matching the paper.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Structure::LinkedList => "LinkedListSet",
            Structure::SkipList => "SkipListSet",
            Structure::HashSet => "HashSet",
        }
    }

    /// The scenario name regenerating this figure (`--scenario`, and the
    /// `scenario` field of a JSON row).
    #[must_use]
    pub fn scenario_name(self) -> &'static str {
        match self {
            Structure::LinkedList => "fig6",
            Structure::SkipList => "fig7",
            Structure::HashSet => "fig8",
        }
    }

    /// One-line description for `repro list`.
    #[must_use]
    pub fn summary(self) -> &'static str {
        match self {
            Structure::LinkedList => "paper Fig. 6: LinkedListSet, §VII-A mix",
            Structure::SkipList => "paper Fig. 7: SkipListSet, §VII-A mix",
            Structure::HashSet => "paper Fig. 8: HashSet @ load factor 512, §VII-A mix",
        }
    }
}

impl std::str::FromStr for Structure {
    type Err = String;

    /// Parse a scenario name (`fig6`, `fig7`, `fig8`).
    fn from_str(name: &str) -> Result<Self, String> {
        Structure::ALL
            .into_iter()
            .find(|s| s.scenario_name() == name)
            .ok_or_else(|| format!("unknown scenario {name:?}; registered: fig6, fig7, fig8"))
    }
}

/// The systems of Figs. 6–8.
pub const SYSTEMS: [&str; 5] = ["Sequential", "OE-STM", "LSA", "TL2", "SwissTM"];

/// Paper's Fig. 8 geometry: 2^12 elements at load factor 512.
#[must_use]
pub fn paper_hash_buckets() -> usize {
    DEFAULT_INITIAL_SIZE / 512
}

/// `repro`'s tables, printed as the sweep measures them: one block per
/// (figure, composed percentage) in the paper's two-panel format
/// (throughput and abort rate per thread count, plus the relaxation and
/// composition counters), each cell's rows written as soon as the cell
/// is measured, and OE-STM's speedups once the block's last cell is. So
/// once stdout's reader has gone, the sweep ends at the next cell's
/// write (see [`out!`](crate::out)). Watchdog-killed rows carry their
/// `LIVELOCK!` marker.
#[derive(Debug)]
pub struct Tables {
    duration: Duration,
    /// The rows of the block being printed, for its speedups.
    block: Vec<BenchRow>,
}

impl Tables {
    /// Tables for a sweep that measures each point for `duration`.
    #[must_use]
    pub fn new(duration: Duration) -> Self {
        Self {
            duration,
            block: Vec::new(),
        }
    }

    /// Print one measured cell's rows, opening a new block at a new
    /// figure or composed percentage.
    pub fn cell(&mut self, rows: &[BenchRow]) {
        for r in rows {
            let key = |r: &BenchRow| (r.structure, r.composed_pct);
            if self.block.first().is_some_and(|b| key(b) != key(r)) {
                self.end_block();
            }
            if self.block.is_empty() {
                print_header(r.structure, r.composed_pct, self.duration);
            }
            print_row(r);
            self.block.push(r.clone());
        }
    }

    /// Print the last block's speedups.
    pub fn finish(mut self) {
        self.end_block();
    }

    fn end_block(&mut self) {
        if let Some(first) = self.block.first() {
            print_summary(first.structure, &self.block);
        }
        self.block.clear();
    }
}

/// A block's title and column heads.
fn print_header(structure: Structure, pct: u32, duration: Duration) {
    outln!(
        "\n=== {}: {} — {pct}% addAll/removeAll (duration {duration:?}/point) ===",
        structure.scenario_name(),
        structure.name(),
    );
    outln!(
        "{:<20} {:>8} {:>16} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "system",
        "threads",
        "ops/ms",
        "abort-rate",
        "commits",
        "aborts",
        "cuts",
        "outherits",
        "cm-waits"
    );
}

/// One row of a block.
fn print_row(r: &BenchRow) {
    outln!(
        "{:<20} {:>8} {:>16.1} {:>11.1}% {:>12} {:>12} {:>12} {:>12} {:>12}",
        r.tagged_system(),
        r.threads,
        r.m.throughput,
        r.m.abort_rate * 100.0,
        r.m.commits,
        r.m.aborts,
        r.m.elastic_cuts,
        r.m.outherits,
        r.m.cm_waits
    );
}

/// Cross-system summary at the highest thread count: speedup of OE-STM
/// over each classic STM (the abstract's "up to 2.7×"; "at least 6.6×" on
/// the linked list). Watchdog-killed rows take no part.
fn print_summary(structure: Structure, rows: &[BenchRow]) {
    let max_t = rows.iter().map(|r| r.threads).max().unwrap_or(1);
    let tp = |name: &str| {
        rows.iter()
            .find(|r| r.system == name && r.threads == max_t && !r.livelocked)
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
    use crate::scenario::{run_matrix, MatrixPlan, FIGURE_BACKENDS};

    #[test]
    fn hash_geometry_matches_paper() {
        assert_eq!(paper_hash_buckets(), 8, "2^12 elements / load factor 512");
    }

    #[test]
    fn scenario_names_round_trip() {
        for s in Structure::ALL {
            assert_eq!(s.scenario_name().parse::<Structure>(), Ok(s));
        }
        let err = "fig9".parse::<Structure>().unwrap_err();
        assert!(err.contains("fig9") && err.contains("fig8"), "{err}");
    }

    #[test]
    fn tiny_figure_run_produces_all_rows() {
        // Smoke test: 5 systems' worth of rows exist, measurements sane.
        let plan = MatrixPlan {
            scenarios: vec![Structure::HashSet],
            backends: FIGURE_BACKENDS.iter().map(ToString::to_string).collect(),
            threads: vec![1, 2],
            duration: Duration::from_millis(40),
            composed: vec![5],
            seed: crate::workload::DEFAULT_SEED,
            include_sequential: true,
        };
        let rows = run_matrix(&plan, |_| {}).expect("figure backends are registered");
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
