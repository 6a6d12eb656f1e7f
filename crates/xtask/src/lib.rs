//! # xtask — the workspace's static lint pass
//!
//! `cargo run -p xtask -- lint` enforces the repository invariants that
//! rustc and clippy cannot express, all purely textual so the pass runs
//! in milliseconds with no dependencies:
//!
//! 1. **unsafe-forbid** — every crate root (`src/lib.rs`,
//!    `crates/*/src/lib.rs`, `shims/*/src/lib.rs`) carries
//!    `#![forbid(unsafe_code)]`. The whole workspace is safe Rust; a
//!    crate silently dropping the attribute would erode that guarantee.
//! 2. **hot-path** — files tagged with a `lint:hot-path` marker in their
//!    header must not mention `Instant`/`SystemTime` (timing belongs to
//!    the bench harness) nor allocate (`format!`, `vec!`, `Box::new`,
//!    `String::from`, `.to_string(`, `.to_owned(`) outside their
//!    `#[cfg(test)]` tail. This is the static shadow of the dynamic
//!    `zero_alloc` suite: the counting allocator proves the paths it
//!    runs, the lint covers every line of the tagged files. A line may
//!    carry `lint:allow` with a justification for cold-path exceptions
//!    (backend construction, tracer arming).
//! 3. **blessed call sites** — one table ([`BLESSED_CALL_SITES`]) of
//!    calls that may appear only in named files:
//!    * `clock-discipline` — global-clock reads (`clock…now()` /
//!      `clock…tick()` / `clock…stamp()`) appear only in the blessed
//!      backend modules; the clock protocol (when to sample, when to
//!      tick) is the correctness core of every STM here and must not leak
//!      into helper code;
//!    * `commit-tail` — firing the commit hook (building its
//!      `WriteRecord`), `wait::notify_commit` and
//!      `wait::wait_for_locations` appear only in `stm-core`'s `driver`
//!      module, which alone owns the order hook → notify → release →
//!      trace event and the park-or-pace policy; a backend growing its
//!      own copy is how the five hand-threaded tails came about.
//! 4. **shim-isolation** — `shims/*/Cargo.toml` declare no dependencies:
//!    the shims exist so the workspace builds offline, so a shim that
//!    grows a dependency defeats its purpose.
//! 5. **test-sleep** — test code (every file under a `tests/` directory
//!    of the workspace, a crate or a shim, and the `#[cfg(test)]` tail of
//!    every source file) calls `thread::sleep` only on a line carrying a
//!    `lint:allow` justification. A sleep that waits for another thread
//!    to get somewhere is a rendezvous by timing, which a loaded host
//!    breaks; wait for something the other thread makes observable
//!    instead.
//!
//! The checks operate on a root directory, so the integration tests run
//! them against seeded violation fixtures as well as the real workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// File the violation is in, relative to the linted root.
    pub file: PathBuf,
    /// 1-based line number (0 for whole-file findings).
    pub line: usize,
    /// Which rule fired: `unsafe-forbid`, `hot-path`, `clock-discipline`,
    /// `commit-tail`, `shim-isolation` or `test-sleep`.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.msg
        )
    }
}

/// Marker a file opts into the hot-path rule with (put it in the header
/// comment).
pub const HOT_PATH_MARKER: &str = "lint:hot-path";

/// Per-line waiver for the hot-path rule; follow it with a justification.
pub const ALLOW_MARKER: &str = "lint:allow";

/// Global-clock reads may only appear in these files (workspace-relative).
pub const BLESSED_CLOCK_FILES: &[&str] = &[
    "crates/stm-core/src/clock.rs",
    "crates/stm-tl2/src/lib.rs",
    "crates/stm-lsa/src/lib.rs",
    "crates/stm-swiss/src/lib.rs",
    "crates/oe-stm/src/lib.rs",
    "crates/oe-stm/src/txn.rs",
    // The short update (`driver::short_update`) is one algorithm for
    // every backend, which the runner calls rather than each backend
    // writing its own: it takes its commit stamp there.
    "crates/stm-core/src/driver.rs",
    // The durable layer's IO-path modules: they handle commit *versions*
    // (WAL records carry them, recovery re-installs them) and so sit next
    // to the clock protocol — but they must never mint one. Blessing them
    // documents the seam; a CommitHook impl anywhere else that calls
    // tick()/stamp() still trips the rule (see the hook fixture).
    "crates/durable/src/wal.rs",
    "crates/durable/src/snapshot.rs",
    "crates/durable/src/recover.rs",
    "crates/durable/src/store.rs",
];

/// One row of the blessed-call-sites table: calls that may appear only
/// in the listed files.
#[derive(Debug)]
pub struct BlessedCallSites {
    /// The rule name violations are reported under.
    pub rule: &'static str,
    /// Human-readable explanation of a violation.
    pub msg: &'static str,
    /// A line is only considered when it mentions one of these (empty:
    /// every line is).
    pub context: &'static [&'static str],
    /// The guarded callees; a line calls one when it contains the name
    /// followed by `(` (appended at match time, so this table never
    /// matches itself).
    pub calls: &'static [&'static str],
    /// The files (workspace-relative) the calls are allowed in.
    pub files: &'static [&'static str],
}

/// The blessed-call-sites table.
pub const BLESSED_CALL_SITES: &[BlessedCallSites] = &[
    BlessedCallSites {
        rule: "clock-discipline",
        msg: "global-clock read outside the blessed backend modules",
        context: &["clock", "Clock"],
        // `stamp` is the lazy clock's CAS-or-adopt tick (`CommitStamp`):
        // backends must take their write-versions through it, and nothing
        // outside the blessed modules may mint one.
        calls: &[".now", ".tick", ".stamp"],
        files: BLESSED_CLOCK_FILES,
    },
    BlessedCallSites {
        rule: "commit-tail",
        msg: "commit hook / waiter notify / waiter park outside stm-core's driver module",
        context: &[],
        calls: &[
            "WriteRecord::new",
            "wait::notify_commit",
            "wait::wait_for_locations",
        ],
        files: &["crates/stm-core/src/driver.rs"],
    },
];

/// Substrings banned in hot-path-tagged files (timing and allocation).
const HOT_PATH_BANNED: &[&str] = &[
    "Instant",
    "SystemTime",
    "format!",
    "vec!",
    "Box::new",
    "String::from",
    ".to_string(",
    ".to_owned(",
];

/// Run every check against the workspace at `root`.
///
/// # Errors
/// Propagates I/O failures reading the tree (a missing expected file is a
/// violation, not an error).
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Violation>> {
    let mut v = Vec::new();
    check_unsafe_forbid(root, &mut v)?;
    let sources = source_files(root)?;
    for file in &sources {
        let text = fs::read_to_string(root.join(file))?;
        check_hot_path(file, &text, &mut v);
        check_blessed_call_sites(file, &text, &mut v);
        check_test_sleep(file, test_tail(&text), &mut v);
    }
    for file in &test_files(root)? {
        let text = fs::read_to_string(root.join(file))?;
        check_test_sleep(
            file,
            text.lines().enumerate().map(|(i, l)| (i + 1, l)),
            &mut v,
        );
    }
    check_shim_isolation(root, &mut v)?;
    v.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(v)
}

/// The crate roots the unsafe-forbid rule covers: `src/lib.rs` plus every
/// `crates/*/src/lib.rs` and `shims/*/src/lib.rs` that exists.
fn crate_roots(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    if root.join("src/lib.rs").is_file() {
        out.push(PathBuf::from("src/lib.rs"));
    }
    for family in ["crates", "shims"] {
        let dir = root.join(family);
        if !dir.is_dir() {
            continue;
        }
        let mut entries: Vec<_> = fs::read_dir(&dir)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .collect();
        entries.sort();
        for entry in entries {
            let lib = entry.join("src/lib.rs");
            if lib.is_file() {
                out.push(
                    lib.strip_prefix(root)
                        .expect("crate root under linted root")
                        .to_path_buf(),
                );
            }
        }
    }
    Ok(out)
}

fn check_unsafe_forbid(root: &Path, v: &mut Vec<Violation>) -> io::Result<()> {
    for file in crate_roots(root)? {
        let text = fs::read_to_string(root.join(&file))?;
        if !text.contains("#![forbid(unsafe_code)]") {
            v.push(Violation {
                file,
                line: 0,
                rule: "unsafe-forbid",
                msg: "crate root does not carry #![forbid(unsafe_code)]".into(),
            });
        }
    }
    Ok(())
}

/// Every `.rs` file under the workspace's source directories (`src/`,
/// `crates/*/src/`, `shims/*/src/`) — deliberately not `tests/`,
/// `benches/` or `examples/`, and therefore never the lint fixtures.
fn source_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut dirs = vec![root.join("src")];
    for family in ["crates", "shims"] {
        let dir = root.join(family);
        if !dir.is_dir() {
            continue;
        }
        for entry in fs::read_dir(&dir)? {
            let src = entry?.path().join("src");
            if src.is_dir() {
                dirs.push(src);
            }
        }
    }
    let mut out = Vec::new();
    while let Some(dir) = dirs.pop() {
        if !dir.is_dir() {
            continue;
        }
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(
                    path.strip_prefix(root)
                        .expect("source under linted root")
                        .to_path_buf(),
                );
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Every `.rs` file under a `tests/` directory (`tests/`,
/// `crates/*/tests/`, `shims/*/tests/`), except lint fixtures: a
/// directory named `fixtures` is a tree linted on its own.
fn test_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut dirs = vec![root.join("tests")];
    for family in ["crates", "shims"] {
        let dir = root.join(family);
        if dir.is_dir() {
            for entry in fs::read_dir(&dir)? {
                dirs.push(entry?.path().join("tests"));
            }
        }
    }
    let mut out = Vec::new();
    while let Some(dir) = dirs.pop() {
        if !dir.is_dir() || dir.file_name().is_some_and(|n| n == "fixtures") {
            continue;
        }
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(
                    path.strip_prefix(root)
                        .expect("test under linted root")
                        .to_path_buf(),
                );
            }
        }
    }
    out.sort();
    Ok(out)
}

/// The `#[cfg(test)]` tail of a source file: every line from the first
/// `#[cfg(test)]` on (the repo convention puts the test module last).
fn test_tail(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines()
        .enumerate()
        .skip_while(|(_, l)| l.trim() != "#[cfg(test)]")
        .map(|(i, l)| (i + 1, l))
}

/// The call the test-sleep rule looks for (its `(` is appended at match
/// time, so this file never matches itself).
const SLEEP_CALL: &str = "thread::sleep";

fn check_test_sleep<'a>(
    file: &Path,
    lines: impl Iterator<Item = (usize, &'a str)>,
    v: &mut Vec<Violation>,
) {
    let call = format!("{SLEEP_CALL}(");
    for (line, l) in lines {
        let code = !l.trim_start().starts_with("//");
        if code && l.contains(&call) && !l.contains(ALLOW_MARKER) {
            v.push(Violation {
                file: file.to_path_buf(),
                line,
                rule: "test-sleep",
                msg: "thread::sleep in test code without a lint:allow justification \
                      (rendezvous on something observable instead)"
                    .into(),
            });
        }
    }
}

/// The lines of `text` the source rules look at: everything up to the
/// first `#[cfg(test)]` (the repo convention puts the test module last),
/// minus comment-only lines and lines carrying a `lint:allow` waiver.
fn effective_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines()
        .enumerate()
        .take_while(|(_, l)| l.trim() != "#[cfg(test)]")
        .filter(|(_, l)| !l.trim_start().starts_with("//"))
        .filter(|(_, l)| !l.contains(ALLOW_MARKER))
        .map(|(i, l)| (i + 1, l))
}

fn check_hot_path(file: &Path, text: &str, v: &mut Vec<Violation>) {
    // The tag is a whole comment line of its own, so prose *mentioning*
    // the marker (like this crate's docs) does not opt a file in.
    let tagged = text
        .lines()
        .take(30)
        .any(|l| l.trim() == format!("// {HOT_PATH_MARKER}"));
    if !tagged {
        return;
    }
    for (line, l) in effective_lines(text) {
        for banned in HOT_PATH_BANNED {
            if l.contains(banned) {
                v.push(Violation {
                    file: file.to_path_buf(),
                    line,
                    rule: "hot-path",
                    msg: format!("hot-path-tagged file uses `{banned}`"),
                });
            }
        }
    }
}

fn check_blessed_call_sites(file: &Path, text: &str, v: &mut Vec<Violation>) {
    let rel = file.to_string_lossy().replace('\\', "/");
    for row in BLESSED_CALL_SITES {
        if row.files.contains(&rel.as_str()) {
            continue;
        }
        let calls: Vec<String> = row.calls.iter().map(|c| format!("{c}(")).collect();
        for (line, l) in effective_lines(text) {
            let in_context = row.context.is_empty() || row.context.iter().any(|c| l.contains(c));
            if in_context && calls.iter().any(|c| l.contains(c.as_str())) {
                v.push(Violation {
                    file: file.to_path_buf(),
                    line,
                    rule: row.rule,
                    msg: row.msg.into(),
                });
            }
        }
    }
}

fn check_shim_isolation(root: &Path, v: &mut Vec<Violation>) -> io::Result<()> {
    let dir = root.join("shims");
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<_> = fs::read_dir(&dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for entry in entries {
        let manifest = entry.join("Cargo.toml");
        if !manifest.is_file() {
            continue;
        }
        let text = fs::read_to_string(&manifest)?;
        let rel = manifest
            .strip_prefix(root)
            .expect("manifest under linted root")
            .to_path_buf();
        let mut in_deps = false;
        for (i, l) in text.lines().enumerate() {
            let t = l.trim();
            if t.starts_with('[') {
                in_deps = t.starts_with("[dependencies")
                    || t.starts_with("[dev-dependencies")
                    || t.starts_with("[build-dependencies")
                    || t.starts_with("[target.");
                continue;
            }
            if in_deps && !t.is_empty() && !t.starts_with('#') {
                v.push(Violation {
                    file: rel.clone(),
                    line: i + 1,
                    rule: "shim-isolation",
                    msg: format!("shim declares a dependency: `{t}`"),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_lines_strip_test_tail_comments_and_waivers() {
        let text = "use a;\n// Instant in a comment\nlet x = 1; // lint:allow cold\n#[cfg(test)]\nmod tests { Instant }\n";
        let lines: Vec<usize> = effective_lines(text).map(|(i, _)| i).collect();
        assert_eq!(lines, vec![1]);
    }

    #[test]
    fn hot_path_flags_banned_tokens_only_when_tagged() {
        let mut v = Vec::new();
        check_hot_path(
            Path::new("a.rs"),
            "// lint:hot-path\nlet t = Instant::now();\n",
            &mut v,
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "hot-path");
        v.clear();
        check_hot_path(Path::new("a.rs"), "let t = Instant::now();\n", &mut v);
        assert!(v.is_empty(), "untagged files are not checked");
    }

    #[test]
    fn clock_discipline_blesses_the_backend_modules() {
        let mut v = Vec::new();
        let line = "let rv = self.clock.now();\n";
        check_blessed_call_sites(Path::new("crates/stm-tl2/src/lib.rs"), line, &mut v);
        assert!(v.is_empty());
        check_blessed_call_sites(Path::new("crates/durable/src/wal.rs"), line, &mut v);
        assert!(v.is_empty(), "the durable IO modules are blessed");
        check_blessed_call_sites(Path::new("crates/cec/src/lib.rs"), line, &mut v);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "clock-discipline");
        // A hook crate is NOT blessed: the durability seam must not let a
        // CommitHook impl elsewhere mint versions.
        v.clear();
        check_blessed_call_sites(
            Path::new("crates/someplugin/src/hook.rs"),
            "impl CommitHook for H { fn on_commit(&self) { self.clock.tick(); } }\n",
            &mut v,
        );
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn commit_tail_calls_are_blessed_in_the_driver_only() {
        let tail = "hook.on_commit(&WriteRecord::new(wv, n, &iter));\n\
                    wait::notify_commit(&|f| f(1));\n\
                    let _ = wait::wait_for_locations(&mut it, &|| true, 1, stats);\n\
                    self.cm.on_commit();\n";
        let mut v = Vec::new();
        check_blessed_call_sites(Path::new("crates/stm-core/src/driver.rs"), tail, &mut v);
        assert!(v.is_empty(), "the driver owns the tail: {v:?}");
        check_blessed_call_sites(Path::new("crates/stm-tl2/src/lib.rs"), tail, &mut v);
        let lines: Vec<usize> = v.iter().map(|x| x.line).collect();
        assert_eq!(lines, [1, 2, 3], "cm.on_commit() must not match: {v:?}");
        assert!(v.iter().all(|x| x.rule == "commit-tail"));
    }

    #[test]
    fn test_sleep_fires_in_test_code_only_without_a_waiver() {
        let text = format!(
            "fn f() {{ std::{SLEEP_CALL}(d); }}\n\
             #[cfg(test)]\n\
             mod tests {{\n\
             // std::{SLEEP_CALL}(d) in a comment\n\
             fn a() {{ std::{SLEEP_CALL}(d); }}\n\
             fn b() {{ std::{SLEEP_CALL}(d); }} // lint:allow poll interval\n\
             }}\n"
        );
        let mut v = Vec::new();
        check_test_sleep(Path::new("a.rs"), test_tail(&text), &mut v);
        let lines: Vec<usize> = v.iter().map(|x| x.line).collect();
        assert_eq!(lines, [5], "only the un-waived test-tail sleep: {v:?}");
        assert_eq!(v[0].rule, "test-sleep");
    }

    #[test]
    fn violations_render_with_location_and_rule() {
        let v = Violation {
            file: PathBuf::from("x.rs"),
            line: 3,
            rule: "hot-path",
            msg: "m".into(),
        };
        assert_eq!(v.to_string(), "x.rs:3: [hot-path] m");
    }
}
