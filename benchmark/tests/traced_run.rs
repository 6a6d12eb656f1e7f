//! The traced run: every per-layer metric is reported, the span file is
//! well formed (unique ids, children inside their parents, one request
//! id per tree), and the seams really recorded the `durable` layer.
//!
//! One test function: the span collector is process-wide.

use benchmark::run::{default_out_dir, run, Budget, RunConfig};
use benchmark::spec::PER_LAYER;
use benchmark::workload::kv::KvDurable;
use std::collections::HashMap;

/// The unsigned field `key` of a span line.
fn field(line: &str, key: &str) -> u64 {
    let (_, rest) = line
        .split_once(&format!("\"{key}\":"))
        .unwrap_or_else(|| panic!("no {key} in {line}"));
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits
        .parse()
        .unwrap_or_else(|_| panic!("bad {key} in {line}"))
}

fn name(line: &str) -> &str {
    let (_, rest) = line.split_once("\"name\":\"").expect("span has a name");
    rest.split('"').next().expect("name is closed")
}

#[test]
fn traced_kv_durable_reports_every_layer_metric_and_well_formed_spans() {
    let report = run::<KvDurable>(&RunConfig {
        seed: 4,
        budget: Budget::Pairs(2),
        traced: true,
        corrupt_oracle: false,
        out_dir: default_out_dir(),
    });
    assert!(report.correct(), "{:?}", report.failures);

    let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
    let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    assert_eq!(names, expected);
    for must_be_measured in [
        "ladder.ref_ns",
        "durable.stdvfs_op_ns",
        "cec.list_set_op_ns",
        "stm-core.tvar_read_ns",
        "stm-boost.rw_tx_ns",
        "stm-core.wait_handoff_us",
        "oe-stm.commits",
        "txkv.get_p50_us",
        "txkv.op_self_p50_us",
        "durable.hook_p50_us",
        "durable.fsync_p99_us",
        "durable.records_per_flush",
        "durable.recover_s",
        "cec.scaling_2t",
        "cec.dequeue_blocking_p50_us",
        "stm-core.retry_parks",
        "workload.ops_per_s",
        "workload.read_p99_us",
    ] {
        assert!(
            report.metric(must_be_measured).unwrap() > 0.0,
            "{must_be_measured} reads 0"
        );
    }
    assert_eq!(
        report.metric("cec.contains_p50_us"),
        Some(0.0),
        "kv-durable never calls a set"
    );

    let path = report.trace_file.expect("the traced run wrote its spans");
    let text = std::fs::read_to_string(&path).expect("read the span file");
    let spans: HashMap<u64, &str> = text.lines().map(|l| (field(l, "id"), l)).collect();
    assert_eq!(spans.len(), text.lines().count(), "span ids are unique");
    let mut seam_children = 0;
    for line in text.lines() {
        let (start, end) = (field(line, "start_ns"), field(line, "end_ns"));
        assert!(start <= end, "{line}");
        assert!(field(line, "self_ns") <= end - start, "{line}");
        match field(line, "parent") {
            0 => assert_eq!(
                field(line, "op"),
                field(line, "id"),
                "a root is its own request"
            ),
            parent => {
                let p = spans
                    .get(&parent)
                    .unwrap_or_else(|| panic!("orphan: {line}"));
                assert!(
                    field(p, "start_ns") <= start && end <= field(p, "end_ns"),
                    "child outside its parent:\n{line}\n{p}"
                );
                assert_eq!(field(p, "op"), field(line, "op"), "one request id per tree");
                assert_eq!(field(p, "id") >> 40, field(line, "id") >> 40, "same thread");
                seam_children += 1;
            }
        }
    }
    assert!(seam_children > 0, "the hook and vfs seams recorded nothing");
    let hooks_under_ops = text
        .lines()
        .filter(|l| name(l) == "durable.hook")
        .all(|l| name(spans[&field(l, "parent")]).starts_with("txkv."));
    assert!(
        hooks_under_ops,
        "every hook span hangs under a txkv operation"
    );
    assert!(text.lines().any(|l| name(l) == "durable.vfs_sync"));
    assert!(text
        .lines()
        .any(|l| name(l) == "ladder.ref_ns" && field(l, "parent") == 0));
}
