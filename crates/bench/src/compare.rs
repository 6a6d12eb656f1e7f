//! Comparison of two `BENCH.json` perf artifacts — the regression gate of
//! the tracked performance trajectory.
//!
//! Rows are matched by their full identity `(scenario, backend,
//! structure, threads, composed_pct)` and compared on throughput. A row
//! counts as a *regression*
//! when the candidate's throughput falls below the baseline's by more than
//! the configured threshold (percent). Rows present in only one artifact
//! are reported but are never an error: thread counts and scenario sets
//! legitimately differ between a committed baseline and a CI smoke run.
//!
//! Rows the progress watchdog killed (`livelocked: 1` in the artifact)
//! are **not data points** — their measurement is zeroed by construction,
//! so diffing them would manufacture a 100% "regression" (or mask a real
//! one in the other direction). Any key whose baseline *or* candidate row
//! is livelocked is excluded from the delta set, reported in
//! [`Comparison::skipped_livelocked`], and surfaced as a warning by
//! [`render_table`]; `repro compare-json` signals the skip with its own
//! exit code so CI can tell "clean pass" from "passed, but some cells
//! never produced data".

use crate::json::{self, Value};
use std::collections::BTreeMap;

/// Default regression threshold, in percent of baseline throughput.
pub const DEFAULT_THRESHOLD_PCT: f64 = 10.0;

/// Full identity of a measured row: `(scenario, backend, structure,
/// threads, composed_pct)`.
pub type RowKey = (String, String, String, u64, u64);

/// One matched row with its throughput delta.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// `(scenario, backend, structure, threads, composed_pct)`.
    pub key: RowKey,
    /// Baseline throughput (ops/ms).
    pub base: f64,
    /// Candidate throughput (ops/ms).
    pub cand: f64,
    /// Relative change in percent (positive = candidate faster).
    pub delta_pct: f64,
}

impl Delta {
    /// True if this row regresses by more than `threshold_pct`.
    #[must_use]
    pub fn regresses(&self, threshold_pct: f64) -> bool {
        self.delta_pct < -threshold_pct
    }
}

/// The result of comparing two artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Matched rows, in key order.
    pub deltas: Vec<Delta>,
    /// Rows only the baseline has.
    pub only_in_base: Vec<RowKey>,
    /// Rows only the candidate has.
    pub only_in_cand: Vec<RowKey>,
    /// Rows excluded because the baseline or candidate side was a
    /// watchdog-killed livelock report (zeroed measurement, not a data
    /// point), in key order.
    pub skipped_livelocked: Vec<RowKey>,
}

impl Comparison {
    /// The matched rows regressing past `threshold_pct`.
    #[must_use]
    pub fn regressions(&self, threshold_pct: f64) -> Vec<&Delta> {
        self.deltas
            .iter()
            .filter(|d| d.regresses(threshold_pct))
            .collect()
    }
}

/// Parse a validated artifact into `key -> throughput`.
///
/// # Errors
/// Returns the schema violation `json::validate` found, or a message for a
/// duplicate row identity.
pub fn parse_rows(text: &str) -> Result<BTreeMap<RowKey, f64>, String> {
    Ok(parse_full_rows(text)?
        .into_iter()
        .map(|(key, (fields, _))| (key, fields[THROUGHPUT_FIELD]))
        .collect())
}

/// The numeric per-row fields that `merge` medians over, in schema order.
/// `explicit_retries`, `cm_waits`, the wait trio
/// (`retry_parks`/`wakeups`/`spurious_wakeups`) and the v2 `latency_*`
/// trio are optional in the schema (older artifacts predate them) and
/// default to 0 when absent — so artifacts from every schema era flow
/// through the same merge/compare machinery.
const MERGE_FIELDS: [&str; 14] = [
    "ops",
    "throughput",
    "abort_rate",
    "elastic_cuts",
    "outherits",
    "explicit_retries",
    "cm_waits",
    "retry_parks",
    "wakeups",
    "spurious_wakeups",
    "latency_p50_us",
    "latency_p99_us",
    "latency_p999_us",
    "elapsed_ms",
];

/// Index of `throughput` within [`MERGE_FIELDS`] (the field `compare`
/// matches rows on).
const THROUGHPUT_FIELD: usize = 1;

/// Median of a non-empty sample (mean of the two middle elements for even
/// sizes).
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Merge several runs of the *same* benchmark configuration into one
/// artifact by taking the per-row median of every numeric field. This is
/// the noise-taming half of the tracked-baseline protocol: on hosts with
/// multi-minute load epochs (shared runners, small containers), interleave
/// N runs per binary and commit the medians.
///
/// Every input must be schema-valid and carry exactly the same row
/// identities; the envelope (seed, host parallelism) is taken from the
/// first input.
///
/// # Errors
/// Returns a message on any schema violation or row-identity mismatch.
pub fn merge(texts: &[&str]) -> Result<String, String> {
    if texts.len() < 2 {
        return Err("needs at least two input artifacts".to_string());
    }
    let mut samples: BTreeMap<RowKey, Vec<Vec<f64>>> = BTreeMap::new();
    for (i, text) in texts.iter().enumerate() {
        let doc_rows = parse_full_rows(text).map_err(|e| format!("input {}: {e}", i + 1))?;
        if i > 0 && doc_rows.len() != samples.len() {
            return Err(format!(
                "input {} has {} row(s), expected {} — merge inputs must cover \
                 identical configurations",
                i + 1,
                doc_rows.len(),
                samples.len()
            ));
        }
        for (key, (fields, _)) in doc_rows {
            if i == 0 {
                samples.insert(key, vec![fields]);
            } else {
                samples
                    .get_mut(&key)
                    .ok_or_else(|| format!("input {} adds unknown row {key:?}", i + 1))?
                    .push(fields);
            }
        }
    }
    let envelope = json::parse(texts[0]).expect("validated above");
    let env = envelope.as_obj().expect("validated above");
    let num = |f: &str| env[f].as_num().unwrap_or_default();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"schema_version\": {},\n  \"seed\": {},\n  \"host_parallelism\": {},\n  \"rows\": [\n",
        num("schema_version") as u64,
        num("seed") as u64,
        num("host_parallelism") as u64
    ));
    let total = samples.len();
    for (i, (key, rows)) in samples.iter().enumerate() {
        let (scenario, backend, structure, threads, composed) = key;
        let med = |f: usize| median(rows.iter().map(|r| r[f]).collect());
        out.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"backend\": \"{}\", \
             \"structure\": \"{}\", \"threads\": {threads}, \
             \"composed_pct\": {composed}, \"ops\": {}, \"throughput\": {:.6}, \
             \"abort_rate\": {:.6}, \"elastic_cuts\": {}, \"outherits\": {}, \
             \"explicit_retries\": {}, \"cm_waits\": {}, \
             \"retry_parks\": {}, \"wakeups\": {}, \"spurious_wakeups\": {}, \
             \"latency_p50_us\": {:.6}, \"latency_p99_us\": {:.6}, \
             \"latency_p999_us\": {:.6}, \"elapsed_ms\": {:.6}}}{}\n",
            json::escape(scenario),
            json::escape(backend),
            json::escape(structure),
            med(0) as u64,
            med(1),
            med(2),
            med(3) as u64,
            med(4) as u64,
            med(5) as u64,
            med(6) as u64,
            med(7) as u64,
            med(8) as u64,
            med(9) as u64,
            med(10),
            med(11),
            med(12),
            med(13),
            if i + 1 == total { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    json::validate(&out).map_err(|e| format!("merged artifact failed validation: {e}"))?;
    Ok(out)
}

/// Parse a validated artifact into `key -> ([MERGE_FIELDS values],
/// livelocked)`.
fn parse_full_rows(text: &str) -> Result<BTreeMap<RowKey, (Vec<f64>, bool)>, String> {
    json::validate(text)?;
    let doc = json::parse(text)?;
    let rows = doc
        .as_obj()
        .and_then(|o| o.get("rows"))
        .and_then(Value::as_arr);
    let mut out = BTreeMap::new();
    for row in rows.unwrap_or_default() {
        let row = row.as_obj().expect("validated row is an object");
        let s = |f: &str| {
            row.get(f)
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string()
        };
        // Missing numeric fields default to 0 — that is how the optional
        // `explicit_retries`/`cm_waits` read from pre-facade artifacts.
        let n = |f: &str| row.get(f).and_then(Value::as_num).unwrap_or_default();
        let key = (
            s("scenario"),
            s("backend"),
            s("structure"),
            n("threads") as u64,
            n("composed_pct") as u64,
        );
        let fields = MERGE_FIELDS.iter().map(|f| n(f)).collect();
        let livelocked = n("livelocked") != 0.0;
        if out.insert(key.clone(), (fields, livelocked)).is_some() {
            return Err(format!(
                "duplicate row {key:?} — artifacts must have one row per identity"
            ));
        }
    }
    Ok(out)
}

/// Compare two artifact documents (text form).
///
/// # Errors
/// Returns a message naming the offending artifact on any schema error.
pub fn compare(base_text: &str, cand_text: &str) -> Result<Comparison, String> {
    let base = parse_full_rows(base_text).map_err(|e| format!("baseline: {e}"))?;
    let cand = parse_full_rows(cand_text).map_err(|e| format!("candidate: {e}"))?;
    let mut deltas = Vec::new();
    let mut only_in_base = Vec::new();
    let mut only_in_cand = Vec::new();
    let mut skipped_livelocked = Vec::new();
    for (key, (b_fields, b_livelocked)) in &base {
        let b = b_fields[THROUGHPUT_FIELD];
        match cand.get(key) {
            Some((c_fields, c_livelocked)) => {
                // A livelock report on either side has a zeroed
                // measurement by construction — diffing it would
                // manufacture a ±100% delta out of no data.
                if *b_livelocked || *c_livelocked {
                    skipped_livelocked.push(key.clone());
                    continue;
                }
                let c = c_fields[THROUGHPUT_FIELD];
                let delta_pct = if b > 0.0 { (c - b) / b * 100.0 } else { 0.0 };
                deltas.push(Delta {
                    key: key.clone(),
                    base: b,
                    cand: c,
                    delta_pct,
                });
            }
            None if *b_livelocked => skipped_livelocked.push(key.clone()),
            None => only_in_base.push(key.clone()),
        }
    }
    for (key, (_, c_livelocked)) in &cand {
        if !base.contains_key(key) {
            if *c_livelocked {
                skipped_livelocked.push(key.clone());
            } else {
                only_in_cand.push(key.clone());
            }
        }
    }
    skipped_livelocked.sort();
    Ok(Comparison {
        deltas,
        only_in_base,
        only_in_cand,
        skipped_livelocked,
    })
}

/// Render the per-row delta table (plus unmatched-row notes) as text.
#[must_use]
pub fn render_table(c: &Comparison, threshold_pct: f64) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16} {:<16} {:<16} {:>7} {:>9} {:>12} {:>12} {:>9}\n",
        "scenario",
        "backend",
        "structure",
        "threads",
        "composed",
        "base op/ms",
        "cand op/ms",
        "delta"
    ));
    for d in &c.deltas {
        let (scenario, backend, structure, threads, composed) = &d.key;
        let flag = if d.regresses(threshold_pct) {
            "  REGRESSION"
        } else {
            ""
        };
        out.push_str(&format!(
            "{scenario:<16} {backend:<16} {structure:<16} {threads:>7} {composed:>9} {:>12.1} {:>12.1} {:>+8.1}%{flag}\n",
            d.base, d.cand, d.delta_pct
        ));
    }
    if !c.only_in_base.is_empty() {
        out.push_str(&format!(
            "({} row(s) only in baseline — not compared)\n",
            c.only_in_base.len()
        ));
    }
    if !c.only_in_cand.is_empty() {
        out.push_str(&format!(
            "({} row(s) only in candidate — not compared)\n",
            c.only_in_cand.len()
        ));
    }
    if !c.skipped_livelocked.is_empty() {
        out.push_str(&format!(
            "WARNING: {} livelocked row(s) skipped — watchdog-killed cells carry no \
             measurement and are excluded from the deltas:\n",
            c.skipped_livelocked.len()
        ));
        for (scenario, backend, _, threads, composed) in &c.skipped_livelocked {
            out.push_str(&format!(
                "  {scenario}/{backend} threads={threads} composed={composed}\n"
            ));
        }
    }
    let regressions = c.regressions(threshold_pct).len();
    out.push_str(&format!(
        "{} row(s) compared, {} regression(s) beyond {threshold_pct}%\n",
        c.deltas.len(),
        regressions
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Measurement;
    use crate::scenario::BenchRow;
    use std::time::Duration;

    fn row(scenario: &str, backend: &str, threads: usize, throughput: f64) -> BenchRow {
        BenchRow {
            scenario: scenario.into(),
            backend: backend.into(),
            system: backend.to_uppercase(),
            structure: "LinkedListSet".into(),
            threads,
            composed_pct: 15,
            livelocked: false,
            m: Measurement {
                throughput,
                abort_rate: 0.1,
                ops: 1000,
                commits: 900,
                aborts: 100,
                explicit_retries: 0,
                cm_waits: 0,
                retry_parks: 0,
                wakeups: 0,
                spurious_wakeups: 0,
                elastic_cuts: 0,
                outherits: 0,
                p50_us: 0.0,
                p99_us: 0.0,
                p999_us: 0.0,
                elapsed: Duration::from_millis(100),
            },
        }
    }

    fn doc(rows: &[BenchRow]) -> String {
        crate::json::render(rows, 42)
    }

    #[test]
    fn identical_artifacts_have_no_regressions() {
        let text = doc(&[row("fig6", "tl2", 1, 100.0), row("fig6", "oe", 1, 200.0)]);
        let c = compare(&text, &text).unwrap();
        assert_eq!(c.deltas.len(), 2);
        assert!(c.regressions(DEFAULT_THRESHOLD_PCT).is_empty());
        assert!(c.only_in_base.is_empty() && c.only_in_cand.is_empty());
        for d in &c.deltas {
            assert_eq!(d.delta_pct, 0.0);
        }
    }

    #[test]
    fn regression_beyond_threshold_is_flagged() {
        let base = doc(&[row("fig6", "tl2", 1, 100.0)]);
        let cand = doc(&[row("fig6", "tl2", 1, 80.0)]); // -20%
        let c = compare(&base, &cand).unwrap();
        assert_eq!(c.regressions(10.0).len(), 1);
        assert!(c.regressions(25.0).is_empty(), "threshold is configurable");
        let d = &c.deltas[0];
        assert!((d.delta_pct + 20.0).abs() < 1e-9);
        assert!(render_table(&c, 10.0).contains("REGRESSION"));
    }

    #[test]
    fn improvement_is_not_a_regression() {
        let base = doc(&[row("fig6", "tl2", 1, 100.0)]);
        let cand = doc(&[row("fig6", "tl2", 1, 150.0)]);
        let c = compare(&base, &cand).unwrap();
        assert!(c.regressions(0.0).is_empty());
        assert!((c.deltas[0].delta_pct - 50.0).abs() < 1e-9);
    }

    #[test]
    fn rows_match_on_full_identity() {
        // Same scenario/backend but different thread count must NOT match.
        let base = doc(&[row("fig6", "tl2", 1, 100.0)]);
        let cand = doc(&[row("fig6", "tl2", 2, 10.0)]);
        let c = compare(&base, &cand).unwrap();
        assert!(c.deltas.is_empty());
        assert_eq!(c.only_in_base.len(), 1);
        assert_eq!(c.only_in_cand.len(), 1);
        assert!(c.regressions(10.0).is_empty(), "unmatched rows never fail");
        let table = render_table(&c, 10.0);
        assert!(table.contains("only in baseline"));
        assert!(table.contains("only in candidate"));
    }

    #[test]
    fn untagged_rows_match_pre_cm_baselines() {
        // A pre-CM artifact (no cm_waits, no explicit_retries) must match
        // a new artifact row-for-row.
        let old = doc(&[row("fig6", "tl2", 1, 100.0)])
            .replace("\"cm_waits\": 0, ", "")
            .replace("\"explicit_retries\": 0, ", "");
        crate::json::validate(&old).expect("pre-CM artifacts stay schema-valid");
        let new = doc(&[row("fig6", "tl2", 1, 98.0)]);
        let c = compare(&old, &new).unwrap();
        assert_eq!(c.deltas.len(), 1, "the rows must pair up");
        assert!(c.only_in_base.is_empty() && c.only_in_cand.is_empty());
        assert!(c.regressions(10.0).is_empty());
    }

    #[test]
    fn merge_medians_cm_waits() {
        let mut a_row = row("contention-sweep", "oe", 1, 100.0);
        a_row.m.cm_waits = 10;
        let mut b_row = row("contention-sweep", "oe", 1, 120.0);
        b_row.m.cm_waits = 30;
        let merged = merge(&[&doc(&[a_row]), &doc(&[b_row])]).unwrap();
        crate::json::validate(&merged).expect("merged rows must validate");
        let rows = parse_full_rows(&merged).unwrap();
        let (key, (fields, _)) = rows.iter().next().unwrap();
        assert_eq!(key.0, "contention-sweep");
        assert!((fields[1] - 110.0).abs() < 1e-6, "throughput median");
        assert!((fields[6] - 20.0).abs() < 1e-6, "cm_waits median");
    }

    #[test]
    fn merge_takes_per_row_medians() {
        let a = doc(&[row("fig6", "tl2", 1, 100.0)]);
        let b = doc(&[row("fig6", "tl2", 1, 300.0)]);
        let c = doc(&[row("fig6", "tl2", 1, 120.0)]);
        let merged = merge(&[&a, &b, &c]).unwrap();
        let rows = parse_rows(&merged).unwrap();
        let tp = rows[&(
            "fig6".to_string(),
            "tl2".to_string(),
            "LinkedListSet".to_string(),
            1,
            15,
        )];
        assert!(
            (tp - 120.0).abs() < 1e-6,
            "median of 100/300/120 is 120, got {tp}"
        );
        // Even count: mean of the two middle samples.
        let merged2 = merge(&[&a, &b]).unwrap();
        let rows2 = parse_rows(&merged2).unwrap();
        let tp2 = rows2.values().next().copied().unwrap();
        assert!(
            (tp2 - 200.0).abs() < 1e-6,
            "median of 100/300 is 200, got {tp2}"
        );
    }

    #[test]
    fn merge_output_is_schema_valid_and_comparable() {
        let a = doc(&[row("fig6", "tl2", 1, 100.0), row("fig7", "oe", 2, 50.0)]);
        let b = doc(&[row("fig6", "tl2", 1, 110.0), row("fig7", "oe", 2, 40.0)]);
        let merged = merge(&[&a, &b]).unwrap();
        crate::json::validate(&merged).expect("merged doc must validate");
        let cmp = compare(&a, &merged).unwrap();
        assert_eq!(cmp.deltas.len(), 2);
    }

    #[test]
    fn merge_rejects_mismatched_rows() {
        let a = doc(&[row("fig6", "tl2", 1, 100.0)]);
        let b = doc(&[row("fig6", "oe", 1, 100.0)]);
        let err = merge(&[&a, &b]).unwrap_err();
        assert!(err.contains("unknown row"), "{err}");
        let err = merge(&[&a]).unwrap_err();
        assert!(err.contains("at least two"), "{err}");
        let c = doc(&[row("fig6", "tl2", 1, 1.0), row("fig7", "tl2", 1, 1.0)]);
        let err = merge(&[&a, &c]).unwrap_err();
        assert!(err.contains("identical configurations"), "{err}");
    }

    #[test]
    fn schema_errors_name_the_offending_artifact() {
        let good = doc(&[row("fig6", "tl2", 1, 100.0)]);
        let err = compare("not json", &good).unwrap_err();
        assert!(err.starts_with("baseline:"), "{err}");
        let err = compare(&good, "{}").unwrap_err();
        assert!(err.starts_with("candidate:"), "{err}");
    }

    #[test]
    fn duplicate_row_identity_is_rejected() {
        let text = doc(&[row("fig6", "tl2", 1, 100.0), row("fig6", "tl2", 1, 90.0)]);
        let err = parse_rows(&text).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }

    fn livelocked_row(scenario: &str, backend: &str, threads: usize) -> BenchRow {
        let mut r = row(scenario, backend, threads, 0.0);
        r.livelocked = true;
        r.m.ops = 0;
        r
    }

    #[test]
    fn livelocked_rows_are_skipped_not_compared() {
        // Candidate livelocked: without the skip this would read as a
        // -100% "regression" of a cell that produced no data at all.
        let base = doc(&[row("fig6", "tl2", 2, 100.0), row("fig6", "oe", 2, 80.0)]);
        let cand = doc(&[livelocked_row("fig6", "tl2", 2), row("fig6", "oe", 2, 82.0)]);
        let c = compare(&base, &cand).unwrap();
        assert_eq!(c.deltas.len(), 1, "only the measured pair is compared");
        assert_eq!(c.deltas[0].key.1, "oe");
        assert_eq!(c.skipped_livelocked.len(), 1);
        assert_eq!(c.skipped_livelocked[0].1, "tl2");
        assert!(
            c.regressions(10.0).is_empty(),
            "a killed cell is not a regression"
        );
        assert!(c.only_in_base.is_empty() && c.only_in_cand.is_empty());

        // Baseline livelocked: equally not a data point (and not a free
        // pass for the candidate either way).
        let c = compare(&cand, &base).unwrap();
        assert_eq!(c.deltas.len(), 1);
        assert_eq!(c.skipped_livelocked.len(), 1);
    }

    #[test]
    fn unmatched_livelocked_rows_count_as_skipped_not_unmatched() {
        let base = doc(&[row("fig6", "tl2", 1, 100.0)]);
        let cand = doc(&[
            row("fig6", "tl2", 1, 100.0),
            livelocked_row("fig7", "oe", 2),
        ]);
        let c = compare(&base, &cand).unwrap();
        assert!(
            c.only_in_cand.is_empty(),
            "a killed extra cell is noise, not coverage"
        );
        assert_eq!(c.skipped_livelocked.len(), 1);
        let c = compare(&cand, &base).unwrap();
        assert!(c.only_in_base.is_empty());
        assert_eq!(c.skipped_livelocked.len(), 1);
    }

    #[test]
    fn render_table_warns_about_skipped_livelocked_rows() {
        let base = doc(&[row("fig6", "tl2", 2, 100.0)]);
        let cand = doc(&[livelocked_row("fig6", "tl2", 2)]);
        let c = compare(&base, &cand).unwrap();
        let table = render_table(&c, 10.0);
        assert!(table.contains("WARNING"), "{table}");
        assert!(table.contains("livelocked row(s) skipped"), "{table}");
        assert!(table.contains("fig6/tl2"), "{table}");
        assert!(table.contains("0 regression(s)"), "{table}");
    }

    /// Downgrade a rendered (v2) document to a faithful v1 artifact: old
    /// version stamp, no latency fields.
    fn as_v1(text: &str) -> String {
        let v1 = text
            .replace("\"schema_version\": 2", "\"schema_version\": 1")
            .replace("\"latency_p50_us\": 0.000000, ", "")
            .replace("\"latency_p99_us\": 0.000000, ", "")
            .replace("\"latency_p999_us\": 0.000000, ", "");
        assert!(!v1.contains("latency_"), "downgrade left latency fields");
        v1
    }

    #[test]
    fn v1_baselines_compare_against_v2_candidates() {
        // The committed pre-txkv baselines are v1; CI compares them
        // against freshly emitted v2 artifacts. Identity matching and the
        // throughput delta must work across the version pair, both ways.
        let base = as_v1(&doc(&[row("fig6", "tl2", 1, 100.0)]));
        let cand = doc(&[row("fig6", "tl2", 1, 95.0)]);
        let c = compare(&base, &cand).unwrap();
        assert_eq!(c.deltas.len(), 1, "v1/v2 rows must pair up");
        assert!((c.deltas[0].delta_pct + 5.0).abs() < 1e-9);
        assert!(c.regressions(10.0).is_empty());
        let c = compare(&cand, &base).unwrap();
        assert_eq!(c.deltas.len(), 1, "v2/v1 order works too");
    }

    #[test]
    fn merge_medians_the_latency_trio_and_accepts_v1_inputs() {
        let mut a_row = row("txkv-zipf", "oe", 4, 100.0);
        a_row.m.p50_us = 10.0;
        a_row.m.p99_us = 100.0;
        a_row.m.p999_us = 1000.0;
        let mut b_row = row("txkv-zipf", "oe", 4, 120.0);
        b_row.m.p50_us = 20.0;
        b_row.m.p99_us = 300.0;
        b_row.m.p999_us = 3000.0;
        let merged = merge(&[&doc(&[a_row]), &doc(&[b_row])]).unwrap();
        crate::json::validate(&merged).expect("merged v2 rows must validate");
        let rows = parse_full_rows(&merged).unwrap();
        let (_, (fields, _)) = rows.iter().next().unwrap();
        assert!((fields[10] - 15.0).abs() < 1e-6, "p50 median");
        assert!((fields[11] - 200.0).abs() < 1e-6, "p99 median");
        assert!((fields[12] - 2000.0).abs() < 1e-6, "p999 median");
        // Merging v1 inputs still works — latency reads as 0 throughout.
        let a = as_v1(&doc(&[row("fig6", "tl2", 1, 100.0)]));
        let b = as_v1(&doc(&[row("fig6", "tl2", 1, 300.0)]));
        let merged = merge(&[&a, &b]).unwrap();
        crate::json::validate(&merged).expect("merged v1 inputs validate");
        let rows = parse_full_rows(&merged).unwrap();
        let (_, (fields, _)) = rows.iter().next().unwrap();
        assert!((fields[1] - 200.0).abs() < 1e-6, "throughput median");
        assert_eq!(fields[10], 0.0, "absent latency medians to 0");
    }

    #[test]
    fn merge_medians_the_wait_trio_and_defaults_it_on_old_inputs() {
        // The BENCH_pr10 protocol: wake-scenario baselines are 5-run
        // medians, and the park accounting must survive the merge (the
        // first merged wake baseline silently zeroed it).
        let mut a_row = row("wake-storm", "tl2", 2, 100.0);
        a_row.m.retry_parks = 10;
        a_row.m.wakeups = 4;
        a_row.m.spurious_wakeups = 6;
        let mut b_row = row("wake-storm", "tl2", 2, 120.0);
        b_row.m.retry_parks = 30;
        b_row.m.wakeups = 12;
        b_row.m.spurious_wakeups = 18;
        let merged = merge(&[&doc(&[a_row]), &doc(&[b_row])]).unwrap();
        crate::json::validate(&merged).expect("merged wake rows must validate");
        assert!(merged.contains("\"retry_parks\": 20"), "{merged}");
        assert!(merged.contains("\"wakeups\": 8"), "{merged}");
        assert!(merged.contains("\"spurious_wakeups\": 12"), "{merged}");
        // Artifacts from before the trio merge with it defaulting to 0.
        let a = doc(&[row("fig6", "tl2", 1, 100.0)]);
        let stripped = a
            .replace("\"retry_parks\": 0, ", "")
            .replace("\"wakeups\": 0, ", "")
            .replace("\"spurious_wakeups\": 0, ", "");
        let merged = merge(&[&stripped, &a]).unwrap();
        let rows = parse_full_rows(&merged).unwrap();
        let (_, (fields, _)) = rows.iter().next().unwrap();
        assert_eq!(fields[7], 0.0, "absent retry_parks medians to 0");
    }

    #[test]
    fn zero_baseline_throughput_never_divides() {
        let base = doc(&[row("fig6", "tl2", 1, 0.0)]);
        let cand = doc(&[row("fig6", "tl2", 1, 50.0)]);
        let c = compare(&base, &cand).unwrap();
        assert_eq!(c.deltas[0].delta_pct, 0.0);
        assert!(c.regressions(10.0).is_empty());
    }
}
