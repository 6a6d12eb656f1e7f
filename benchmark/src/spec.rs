//! The benchmark's contract in one place: workload names and reasons,
//! metric names, units, directions and regression bounds.
//! `BENCHMARK.json` at the repo root is [`benchmark_json`] verbatim (a
//! test keeps them equal).

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

/// An end-to-end metric: what a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name, the same on every workload.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

/// A per-layer metric (no bound; explains the end-to-end numbers).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// `<layer>.<what>`, layer = crate name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

/// Seconds one run measures for.
pub const RUN_SECONDS: u32 = 36;

/// Workload names and why each exists.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "sets-list",
        "~2000 transactional reads per op on cec::LinkedListSet over static Atomic<OeStm>: the per-read path is all the work, per-transaction fixed cost none",
    ),
    (
        "kv-mem",
        "txkv on ~8-node hash chains over erased Atomic<Backend>: begin/commit, pin, scratch, facade and stats - the fixed cost sets-list amortises away - are the whole op",
    ),
    (
        "kv-durable",
        "same keyspace behind DurableStore + commit hook, 2 clients, writes beside reads: only here do encode, group commit, fsync and the hook-under-locks window dominate",
    ),
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics, reported by every workload.
///
/// Every time-based one is a ratio to the adjacent reference slice: on
/// this host absolute throughput and latency move 10–30 % between runs
/// of the same binary, ratios 1–9 % (see README, "Evidence"). The
/// absolute values are per-layer metrics (`workload.*`), without a bound.
pub const END_TO_END: [EndToEnd; 6] = [
    e2e("speedup_vs_ref", "ratio", Better::Higher, 0.20),
    e2e("read_p50_vs_ref", "ratio", Better::Lower, 0.25),
    e2e("update_p50_vs_ref", "ratio", Better::Lower, 0.25),
    e2e("read_p99_vs_ref", "ratio", Better::Lower, 0.25),
    e2e("rss_mb", "MB", Better::Lower, 0.10),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Names of `StatsSnapshot::aborts_by_cause`, in `AbortReason::index`
/// order, as they appear in `oe-stm.aborts_by_cause.<reason>`.
pub const ABORT_CAUSES: [&str; 9] = [
    "oe-stm.aborts_by_cause.lock_conflict",
    "oe-stm.aborts_by_cause.read_validation",
    "oe-stm.aborts_by_cause.extension_failed",
    "oe-stm.aborts_by_cause.contention_manager",
    "oe-stm.aborts_by_cause.unstable_read",
    "oe-stm.aborts_by_cause.elastic_cut",
    "oe-stm.aborts_by_cause.explicit",
    "oe-stm.aborts_by_cause.step_bound",
    "oe-stm.aborts_by_cause.explicit_retry",
];

/// The per-layer metrics of the traced run. A workload that never
/// reaches a layer reports that layer's workload-derived metrics as 0.
pub const PER_LAYER: [PerLayer; 75] = [
    // Cost ladder over the hash structure, ns/op per rung.
    lower("ladder.ref_ns", "ns"),
    lower("cec.seq_ns", "ns"),
    lower("oe-stm.spi_ns", "ns"),
    lower("stm-core.api_static_ns", "ns"),
    lower("stm-core.api_erased_ns", "ns"),
    lower("cec.set_op_ns", "ns"),
    lower("txkv.op_ns", "ns"),
    lower("durable.memvfs_op_ns", "ns"),
    lower("durable.stdvfs_op_ns", "ns"),
    // The same ladder over the list structure (txkv has no list shard).
    lower("ladder.list_ref_ns", "ns"),
    lower("cec.list_seq_ns", "ns"),
    lower("oe-stm.list_spi_ns", "ns"),
    lower("stm-core.list_api_static_ns", "ns"),
    lower("stm-core.list_api_erased_ns", "ns"),
    lower("cec.list_set_op_ns", "ns"),
    // stm-core.
    lower("stm-core.tvar_read_ns", "ns"),
    lower("stm-core.empty_tx_ns", "ns"),
    lower("stm-core.tvar_write_ns", "ns"),
    lower("stm-core.wait_handoff_us", "us"),
    lower("stm-core.retry_parks", "count"),
    lower("stm-core.wakeups", "count"),
    lower("stm-core.spurious_wakeups", "count"),
    // Backends: the same 8-read + 2-write transaction through the SPI.
    lower("oe-stm.rw_tx_ns", "ns"),
    lower("oe-stm.estm_compat_rw_tx_ns", "ns"),
    lower("stm-tl2.rw_tx_ns", "ns"),
    lower("stm-lsa.rw_tx_ns", "ns"),
    lower("stm-swiss.rw_tx_ns", "ns"),
    lower("stm-boost.rw_tx_ns", "ns"),
    // The workload's absolute numbers (untraced slices of the traced
    // run): what the end-to-end ratios are ratios of. Host-dependent.
    higher("workload.ops_per_s", "1/s"),
    lower("workload.read_p50_us", "us"),
    lower("workload.update_p50_us", "us"),
    lower("workload.read_p99_us", "us"),
    // Engine counters over the workload's slices.
    higher("oe-stm.commits", "count"),
    lower("oe-stm.aborts", "count"),
    lower("oe-stm.abort_share", "ratio"),
    lower(ABORT_CAUSES[0], "count"),
    lower(ABORT_CAUSES[1], "count"),
    lower(ABORT_CAUSES[2], "count"),
    lower(ABORT_CAUSES[3], "count"),
    lower(ABORT_CAUSES[4], "count"),
    lower(ABORT_CAUSES[5], "count"),
    lower(ABORT_CAUSES[6], "count"),
    lower(ABORT_CAUSES[7], "count"),
    lower(ABORT_CAUSES[8], "count"),
    higher("oe-stm.child_commits", "count"),
    higher("oe-stm.outherits", "count"),
    higher("oe-stm.elastic_cuts", "count"),
    // cec.
    lower("cec.contains_p50_us", "us"),
    lower("cec.add_p50_us", "us"),
    lower("cec.remove_p50_us", "us"),
    lower("cec.add_all_p50_us", "us"),
    lower("cec.remove_all_p50_us", "us"),
    lower("cec.pin_ns", "ns"),
    lower("cec.enqueue_p50_us", "us"),
    lower("cec.dequeue_blocking_p50_us", "us"),
    higher("cec.scaling_2t", "ratio"),
    // txkv.
    lower("txkv.get_p50_us", "us"),
    lower("txkv.set_p50_us", "us"),
    lower("txkv.cas_p50_us", "us"),
    lower("txkv.del_p50_us", "us"),
    lower("txkv.multi_p50_us", "us"),
    lower("txkv.sampler_ns", "ns"),
    higher("txkv.scaling_2t", "ratio"),
    // durable, through the timed seams.
    lower("durable.hook_p50_us", "us"),
    lower("durable.fsync_p50_us", "us"),
    lower("durable.fsync_p99_us", "us"),
    lower("durable.vfs_append_p50_us", "us"),
    lower("durable.flushes", "count"),
    higher("durable.records_per_flush", "ratio"),
    lower("durable.bytes_per_record", "B"),
    lower("durable.recover_s", "s"),
    lower("durable.checkpoint_s", "s"),
    // Self times from the span tree (span minus covered children).
    lower("txkv.op_self_p50_us", "us"),
    lower("durable.hook_self_p50_us", "us"),
    // The traced run itself.
    lower("trace.overhead_share", "ratio"),
];

fn better_str(b: Better) -> &'static str {
    match b {
        Better::Higher => "higher",
        Better::Lower => "lower",
    }
}

/// The text of `BENCHMARK.json`.
#[must_use]
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better_str(m.better),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better_str(m.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = HashSet::new();
        for (name, why) in WORKLOADS {
            assert!(name_ok(name) && seen.insert(name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why too long"
            );
        }
        let units = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in units {
            assert!(name_ok(name) && seen.insert(name), "{name}");
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{name}: unit {unit}"
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(PER_LAYER.len() <= 128);
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn benchmark_json_at_the_repo_root_is_this_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `cargo run --release -- spec > ../BENCHMARK.json`"
        );
    }
}
