//! The lint gate, both directions: the seeded violation fixtures MUST
//! fail (each rule demonstrably fires) and the real workspace MUST pass
//! (the gate CI runs is green at head).

use std::path::{Path, PathBuf};
use xtask::lint_workspace;

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/violations")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("two levels up")
        .to_path_buf()
}

#[test]
fn seeded_fixtures_trip_every_rule() {
    let violations = lint_workspace(&fixture_root()).expect("fixture tree is readable");
    let rules: Vec<&str> = violations.iter().map(|v| v.rule).collect();
    for rule in [
        "unsafe-forbid",
        "hot-path",
        "clock-discipline",
        "commit-tail",
        "shim-isolation",
        "test-sleep",
    ] {
        assert!(
            rules.contains(&rule),
            "rule {rule} did not fire on its fixture; got: {violations:?}"
        );
    }
    // The dropped forbid(unsafe_code) is reported against the crate root.
    assert!(violations
        .iter()
        .any(|v| v.rule == "unsafe-forbid" && v.file == Path::new("crates/badcrate/src/lib.rs")));
    // hot.rs: both the Instant and the format! land; the lint:allow line
    // does not. histo.rs (the allocating histogram): the Box::new and the
    // vec! on the record path each fire — proof a hot-path-tagged
    // recorder would be caught touching the allocator. waity.rs (the
    // wait-registry shape): an Instant park deadline and a per-episode
    // vec! each fire — the pins that keep `stm-core::wait` allocation-
    // and timing-free under its own hot-path tag.
    let hot: Vec<_> = violations.iter().filter(|v| v.rule == "hot-path").collect();
    assert_eq!(
        hot.len(),
        6,
        "Instant + format! + Box::new + vec! + wait Instant + wait vec!, \
         waived vec stays quiet: {hot:?}"
    );
    assert_eq!(
        hot.iter()
            .filter(|v| v.file == Path::new("crates/badcrate/src/waity.rs"))
            .count(),
        2,
        "the wait-registry fixture must trip twice (Instant, vec!): {hot:?}"
    );
    assert_eq!(
        hot.iter()
            .filter(|v| v.file == Path::new("crates/badcrate/src/histo.rs"))
            .count(),
        2,
        "the allocating histogram must trip twice (Box::new, vec!): {hot:?}"
    );
    // All three clock read entry points trip outside the blessed modules:
    // the legacy `.now()` in lib.rs, the `.tick()` and lazy-clock
    // `.stamp()` call sites seeded in clocky.rs, plus the CommitHook impl
    // in hook.rs that ticks the clock from inside `on_commit` — the
    // durability-seam abuse the rule exists to catch.
    let clock: Vec<_> = violations
        .iter()
        .filter(|v| v.rule == "clock-discipline")
        .collect();
    assert_eq!(
        clock.len(),
        5,
        "now + tick + stamp + hook tick + wait-registry now: {clock:?}"
    );
    assert_eq!(
        clock
            .iter()
            .filter(|v| v.file == Path::new("crates/badcrate/src/waity.rs"))
            .count(),
        1,
        "a wait registry sampling the clock must fire: {clock:?}"
    );
    assert_eq!(
        clock
            .iter()
            .filter(|v| v.file == Path::new("crates/badcrate/src/clocky.rs"))
            .count(),
        2,
        "tick and stamp must each fire: {clock:?}"
    );
    assert_eq!(
        clock
            .iter()
            .filter(|v| v.file == Path::new("crates/badcrate/src/hook.rs"))
            .count(),
        1,
        "a CommitHook impl ticking the clock must fire: {clock:?}"
    );
    // tail.rs (a backend with its own commit tail and wait path): firing
    // the hook, notifying and parking each trip; `cm.on_commit()` stays
    // quiet.
    let tail: Vec<_> = violations
        .iter()
        .filter(|v| v.rule == "commit-tail")
        .collect();
    assert_eq!(
        tail.len(),
        3,
        "WriteRecord::new + notify_commit + wait_for_locations: {tail:?}"
    );
    assert!(
        tail.iter()
            .all(|v| v.file == Path::new("crates/badcrate/src/tail.rs")),
        "only the rogue tail fixture fires: {tail:?}"
    );
    // Test code that sleeps: the integration test's rendezvous and the
    // unit test's fire; the waived poll interval and the sleep outside
    // the test module stay quiet.
    let sleeps: Vec<_> = violations
        .iter()
        .filter(|v| v.rule == "test-sleep")
        .map(|v| (v.file.clone(), v.line))
        .collect();
    assert_eq!(
        sleeps,
        [
            (PathBuf::from("crates/badcrate/src/sleepy.rs"), 13),
            (PathBuf::from("crates/badcrate/tests/sleepy.rs"), 7),
        ],
        "{sleeps:?}"
    );
}

#[test]
fn the_real_workspace_is_clean() {
    let violations = lint_workspace(&workspace_root()).expect("workspace tree is readable");
    assert!(
        violations.is_empty(),
        "workspace lint must be clean at head:\n{}",
        violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
