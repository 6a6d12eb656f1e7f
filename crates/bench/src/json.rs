//! Schema-checked JSON for the benchmark pipeline — hand-rolled writer,
//! minimal parser, and the `BENCH.json` validator CI gates on.
//!
//! The build environment is offline (no serde), so this module implements
//! exactly the JSON subset the pipeline needs. [`render`] writes one
//! schema version and [`validate`] accepts exactly that version and
//! requires every field `render` always writes ([`ROW_FIELDS`]); a change
//! to the field list bumps [`SCHEMA_VERSION`].
//!
//! ```json
//! {
//!   "schema_version": 3,
//!   "seed": 61713,
//!   "host_parallelism": 8,
//!   "rows": [
//!     {
//!       "scenario": "fig6", "backend": "oe", "system": "OE-STM",
//!       "structure": "LinkedListSet", "threads": 2, "composed_pct": 5,
//!       "ops": 12345, "throughput": 123.4, "abort_rate": 0.01,
//!       "commits": 12400, "aborts": 125,
//!       "elastic_cuts": 17, "outherits": 42, "cm_waits": 9,
//!       "elapsed_ms": 500.2
//!     }
//!   ]
//! }
//! ```
//!
//! A row the progress watchdog killed also carries `"livelocked": 1`;
//! measured rows never carry the field.

use crate::report::Structure;
use crate::scenario::BenchRow;
use std::collections::BTreeMap;

/// Current schema version of the emitted document.
pub const SCHEMA_VERSION: u64 = 3;

/// Fields every row carries, with `true` when the value is a number —
/// exactly what [`render`] always writes. `system`, `commits` and
/// `aborts` exist so a row round-trips losslessly through JSON: the
/// watchdog measures each row in a subprocess and reassembles the
/// [`BenchRow`] from the child's artifact ([`parse_rows`]). The one
/// field outside this list is `livelocked`, written (as `1`) only on
/// rows the progress watchdog killed and type-checked when present.
pub const ROW_FIELDS: [(&str, bool); 15] = [
    ("scenario", false),
    ("backend", false),
    ("system", false),
    ("structure", false),
    ("threads", true),
    ("composed_pct", true),
    ("ops", true),
    ("throughput", true),
    ("abort_rate", true),
    ("commits", true),
    ("aborts", true),
    ("elastic_cuts", true),
    ("outherits", true),
    ("cm_waits", true),
    ("elapsed_ms", true),
];

pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Format an `f64` so it round-trips as a JSON number (never NaN/inf —
/// callers only pass rates and millisecond durations).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "0.0".to_string()
    }
}

/// Serialize a full benchmark document.
#[must_use]
pub fn render(rows: &[BenchRow], seed: u64) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema_version\": {SCHEMA_VERSION},\n"));
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!(
        "  \"host_parallelism\": {},\n",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    ));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let livelocked_field = if r.livelocked {
            "\"livelocked\": 1, "
        } else {
            ""
        };
        out.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"backend\": \"{}\", \"system\": \"{}\", \
             \"structure\": \"{}\", \
             \"threads\": {}, \"composed_pct\": {}, {livelocked_field}\"ops\": {}, \
             \"throughput\": {}, \
             \"abort_rate\": {}, \"commits\": {}, \"aborts\": {}, \
             \"elastic_cuts\": {}, \"outherits\": {}, \"cm_waits\": {}, \
             \"elapsed_ms\": {}}}{}\n",
            r.structure.scenario_name(),
            escape(&r.backend),
            escape(&r.system),
            r.structure.name(),
            r.threads,
            r.composed_pct,
            r.m.ops,
            num(r.m.throughput),
            num(r.m.abort_rate),
            r.m.commits,
            r.m.aborts,
            r.m.elastic_cuts,
            r.m.outherits,
            r.m.cm_waits,
            num(r.m.elapsed.as_secs_f64() * 1e3),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// A parsed JSON value (the subset this pipeline emits).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, as `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. `BTreeMap` keeps iteration deterministic.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The object map, if this is an object.
    #[must_use]
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is a number.
    #[must_use]
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Nesting bound for the recursive-descent parser: deeper inputs get a
/// clean error instead of a stack overflow. The pipeline's own documents
/// nest 3 levels; 128 leaves generous headroom.
const MAX_DEPTH: u32 = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: u32,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("JSON parse error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn eat_lit(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected {lit:?}")))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.eat_lit("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.eat_lit("false").map(|()| Value::Bool(false)),
            Some(b'n') => self.eat_lit("null").map(|()| Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn nested(&mut self, f: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Value, String> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let s = core::str::from_utf8(hex)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let cp = u32::from_str_radix(s, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // boundaries are valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        core::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid utf-8"))?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'+' || c == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        core::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| self.err("bad number"))
    }
}

/// Parse a JSON document.
///
/// # Errors
/// Returns a positioned message on malformed input.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

/// A validated row's identity: `(scenario, backend)`.
pub type RowId = (String, String);

/// Validate a benchmark document against the schema: the envelope fields,
/// at least one row, and every row carrying all [`ROW_FIELDS`] with the
/// right types. Returns the `(scenario, backend)` pair of every row so
/// callers can check coverage.
///
/// # Errors
/// Returns a message describing the first schema violation.
pub fn validate(text: &str) -> Result<Vec<RowId>, String> {
    let doc = parse(text)?;
    let obj = doc.as_obj().ok_or("top level must be an object")?;
    let version = obj
        .get("schema_version")
        .and_then(Value::as_num)
        .ok_or("missing numeric \"schema_version\"")?;
    if version != SCHEMA_VERSION as f64 {
        return Err(format!(
            "schema_version {version} is not the supported {SCHEMA_VERSION}"
        ));
    }
    obj.get("seed")
        .and_then(Value::as_num)
        .ok_or("missing numeric \"seed\"")?;
    obj.get("host_parallelism")
        .and_then(Value::as_num)
        .ok_or("missing numeric \"host_parallelism\"")?;
    let rows = obj
        .get("rows")
        .and_then(Value::as_arr)
        .ok_or("missing \"rows\" array")?;
    if rows.is_empty() {
        return Err("\"rows\" is empty — the run produced no measurements".to_string());
    }
    let mut ids = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let row = row
            .as_obj()
            .ok_or_else(|| format!("row {i} is not an object"))?;
        for (field, numeric) in ROW_FIELDS {
            let v = row
                .get(field)
                .ok_or_else(|| format!("row {i} is missing \"{field}\""))?;
            let type_ok = if numeric {
                v.as_num().is_some()
            } else {
                v.as_str().is_some()
            };
            if !type_ok {
                return Err(format!(
                    "row {i} field \"{field}\" has the wrong type (expected {})",
                    if numeric { "number" } else { "string" }
                ));
            }
        }
        if row.get("livelocked").is_some_and(|v| v.as_num().is_none()) {
            return Err(format!(
                "row {i} field \"livelocked\" has the wrong type (expected number)"
            ));
        }
        let rate = row["abort_rate"].as_num().unwrap_or(-1.0);
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("row {i} abort_rate {rate} outside [0, 1]"));
        }
        ids.push((
            row["scenario"].as_str().unwrap_or_default().to_string(),
            row["backend"].as_str().unwrap_or_default().to_string(),
        ));
    }
    Ok(ids)
}

/// Reconstruct the measured [`BenchRow`]s from a validated artifact — the
/// inverse of [`render`].
///
/// # Errors
/// Returns the [`validate`] error on any schema violation, or names a row
/// whose `scenario` is not one of the figures.
pub fn parse_rows(text: &str) -> Result<Vec<BenchRow>, String> {
    validate(text)?;
    let doc = parse(text)?;
    let rows = doc.as_obj().expect("validated")["rows"]
        .as_arr()
        .expect("validated");
    rows.iter()
        .enumerate()
        .map(|(i, row)| {
            let row = row.as_obj().expect("validated");
            let get_num = |field: &str| row[field].as_num().expect("validated");
            let str_field = |field: &str| row[field].as_str().expect("validated");
            Ok(BenchRow {
                structure: str_field("scenario")
                    .parse::<Structure>()
                    .map_err(|e| format!("row {i}: {e}"))?,
                backend: str_field("backend").to_string(),
                system: str_field("system").to_string(),
                threads: get_num("threads") as usize,
                composed_pct: get_num("composed_pct") as u32,
                livelocked: row
                    .get("livelocked")
                    .and_then(Value::as_num)
                    .is_some_and(|v| v != 0.0),
                m: crate::harness::Measurement {
                    throughput: get_num("throughput"),
                    abort_rate: get_num("abort_rate"),
                    ops: get_num("ops") as u64,
                    commits: get_num("commits") as u64,
                    aborts: get_num("aborts") as u64,
                    cm_waits: get_num("cm_waits") as u64,
                    elastic_cuts: get_num("elastic_cuts") as u64,
                    outherits: get_num("outherits") as u64,
                    elapsed: std::time::Duration::from_secs_f64(
                        get_num("elapsed_ms").max(0.0) / 1e3,
                    ),
                },
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Measurement;
    use std::time::Duration;

    fn sample_row() -> BenchRow {
        BenchRow {
            structure: Structure::LinkedList,
            backend: "oe".into(),
            system: "OE-STM".into(),
            threads: 2,
            composed_pct: 5,
            livelocked: false,
            m: Measurement {
                throughput: 123.456,
                abort_rate: 0.25,
                ops: 1000,
                commits: 990,
                aborts: 330,
                cm_waits: 21,
                elastic_cuts: 7,
                outherits: 13,
                elapsed: Duration::from_millis(50),
            },
        }
    }

    #[test]
    fn render_then_validate_roundtrips() {
        let text = render(&[sample_row()], 42);
        let ids = validate(&text).expect("own output must validate");
        assert_eq!(ids, vec![("fig6".to_string(), "oe".to_string())]);
        let doc = parse(&text).unwrap();
        let row = &doc.as_obj().unwrap()["rows"].as_arr().unwrap()[0];
        let row = row.as_obj().unwrap();
        assert_eq!(row["outherits"].as_num(), Some(13.0));
        assert_eq!(row["elastic_cuts"].as_num(), Some(7.0));
        assert_eq!(row["cm_waits"].as_num(), Some(21.0));
        assert!((row["elapsed_ms"].as_num().unwrap() - 50.0).abs() < 1e-6);
    }

    #[test]
    fn parse_rows_inverts_render() {
        let mut killed = sample_row();
        killed.backend = "swiss".into();
        killed.system = "SwissTM".into();
        killed.livelocked = true;
        killed.structure = Structure::HashSet;
        killed.m = Measurement::zero(Duration::from_secs(30));
        let rows = vec![sample_row(), killed];
        let back = parse_rows(&render(&rows, 42)).expect("own output parses");
        assert_eq!(back.len(), 2);
        for (orig, got) in rows.iter().zip(&back) {
            assert_eq!(got.structure, orig.structure);
            assert_eq!(got.backend, orig.backend);
            assert_eq!(got.system, orig.system, "display names must round-trip");
            assert_eq!(got.threads, orig.threads);
            assert_eq!(got.composed_pct, orig.composed_pct);
            assert_eq!(got.livelocked, orig.livelocked);
            assert_eq!(got.m.ops, orig.m.ops);
            assert_eq!(got.m.commits, orig.m.commits);
            assert_eq!(got.m.aborts, orig.m.aborts);
            assert_eq!(got.m.cm_waits, orig.m.cm_waits);
            assert_eq!(got.m.elastic_cuts, orig.m.elastic_cuts);
            assert_eq!(got.m.outherits, orig.m.outherits);
            assert!((got.m.throughput - orig.m.throughput).abs() < 1e-6);
            assert!((got.m.abort_rate - orig.m.abort_rate).abs() < 1e-6);
            assert!(
                (got.m.elapsed.as_secs_f64() - orig.m.elapsed.as_secs_f64()).abs() < 1e-6,
                "{:?} vs {:?}",
                got.m.elapsed,
                orig.m.elapsed
            );
        }
        // The watchdog marker is emitted only when set.
        let text = render(&rows, 42);
        assert_eq!(text.matches("\"livelocked\"").count(), 1);
    }

    #[test]
    fn optional_fields_may_be_absent_but_must_be_well_typed() {
        // `livelocked` is the one optional field: measured rows omit it.
        let text = render(&[sample_row()], 1);
        assert!(!text.contains("livelocked"));
        validate(&text).expect("rows without `livelocked` are valid");
        // A present-but-mistyped `livelocked` is an error.
        let mistyped = text.replace("\"ops\"", "\"livelocked\": \"x\", \"ops\"");
        let err = validate(&mistyped).unwrap_err();
        assert!(err.contains("livelocked"), "{err}");
        // Every other field `render` writes is required, and a mistyped
        // one is named in the error.
        for (from, to, field) in [
            ("\"cm_waits\": 21, ", "\"cm_waits\": \"x\", ", "cm_waits"),
            (
                "\"throughput\": 123.456000, ",
                "\"throughput\": \"fast\", ",
                "throughput",
            ),
            ("\"commits\": 990, ", "\"commits\": \"lots\", ", "commits"),
        ] {
            assert!(text.contains(from), "sample row lacks {from}");
            let err = validate(&text.replace(from, to)).unwrap_err();
            assert!(err.contains(field) && err.contains("wrong type"), "{err}");
        }
        let err =
            validate(&text.replace("\"scenario\": \"", "\"scenario\": 7, \"x\": \"")).unwrap_err();
        assert!(
            err.contains("scenario") && err.contains("wrong type"),
            "{err}"
        );
    }

    #[test]
    fn v3_documents_carry_no_latency_or_wait_fields() {
        let text = render(&[sample_row()], 42);
        assert!(text.contains("\"schema_version\": 3"));
        let doc = parse(&text).unwrap();
        let row = doc.as_obj().unwrap()["rows"].as_arr().unwrap()[0]
            .as_obj()
            .unwrap()
            .clone();
        let mut keys: Vec<&str> = row.keys().map(String::as_str).collect();
        let mut want: Vec<&str> = ROW_FIELDS.iter().map(|(f, _)| *f).collect();
        keys.sort_unstable();
        want.sort_unstable();
        assert_eq!(keys, want, "a measured row carries exactly ROW_FIELDS");
        // A v2 artifact (with the latency trio) is refused, not misread.
        let v2 = text.replace("\"schema_version\": 3", "\"schema_version\": 2");
        assert!(validate(&v2).unwrap_err().contains("schema_version"));
    }

    #[test]
    fn unknown_scenarios_do_not_parse_into_rows() {
        let text = render(&[sample_row()], 1).replace("\"fig6\"", "\"fig9\"");
        validate(&text).expect("the schema does not restrict scenario names");
        let err = parse_rows(&text).unwrap_err();
        assert!(err.contains("fig9"), "{err}");
    }

    #[test]
    fn empty_rows_fail_validation() {
        let text = render(&[], 1);
        let err = validate(&text).unwrap_err();
        assert!(err.contains("empty"), "{err}");
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(validate("not json").is_err());
        assert!(validate("{}").is_err());
        assert!(validate("{\"schema_version\": 1}").is_err());
        assert!(validate("[1, 2, 3]").is_err());
        // Wrong version.
        assert!(validate(
            "{\"schema_version\": 99, \"seed\": 0, \"host_parallelism\": 1, \"rows\": [{}]}"
        )
        .unwrap_err()
        .contains("schema_version"));
    }

    #[test]
    fn missing_row_field_is_named() {
        let mut text = render(&[sample_row()], 1);
        text = text.replace("\"outherits\": 13, ", "");
        let err = validate(&text).unwrap_err();
        assert!(err.contains("outherits"), "{err}");
    }

    #[test]
    fn string_escapes_roundtrip() {
        let v = parse("\"a\\n\\\"b\\\\c\\u0041\"").unwrap();
        assert_eq!(v.as_str(), Some("a\n\"b\\cA"));
    }

    #[test]
    fn parser_handles_nested_structures() {
        let v = parse("{\"a\": [1, {\"b\": true}, null, -2.5e1]}").unwrap();
        let a = v.as_obj().unwrap()["a"].as_arr().unwrap();
        assert_eq!(a[0].as_num(), Some(1.0));
        assert_eq!(a[1].as_obj().unwrap()["b"], Value::Bool(true));
        assert_eq!(a[2], Value::Null);
        assert_eq!(a[3].as_num(), Some(-25.0));
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse("{} x").is_err());
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing() {
        let evil = "[".repeat(100_000);
        let err = parse(&evil).unwrap_err();
        assert!(err.contains("nesting too deep"), "{err}");
        // Reasonable nesting still parses.
        let ok = format!("{}1{}", "[".repeat(64), "]".repeat(64));
        assert!(parse(&ok).is_ok());
    }
}
