//! Exportable run reports: one JSON document bundling stage latency
//! distributions, counter and gauge values, and arbitrary embedded
//! structures (e.g. the network-cost metrics of an experiment run).
//!
//! The workspace depends on no data-format crate, so this module
//! carries its own minimal JSON value type ([`Json`]) and writer; every
//! report type renders through it.

use std::collections::BTreeMap;

use crate::hist::Snapshot;
use crate::recorder::{counters_snapshot, gauges_snapshot, histograms_snapshot};

/// A minimal JSON value for report embedding.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    UInt(u64),
    /// A signed integer.
    Int(i64),
    /// A floating-point number (non-finite values print as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with deterministically ordered keys.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>, I: IntoIterator<Item = (K, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Renders the value as compact JSON text.
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(n) => out.push_str(&n.to_string()),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Num(f) => {
                if f.is_finite() {
                    out.push_str(&f.to_string());
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::UInt(v)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_owned())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

/// The latency digest of one named pipeline stage (all times in
/// nanoseconds).
#[derive(Debug, Clone, PartialEq)]
pub struct StageReport {
    /// Number of recorded spans.
    pub count: u64,
    /// Sum of all span durations.
    pub total_ns: u64,
    /// Mean span duration.
    pub mean_ns: f64,
    /// Median (bucket upper bound, clamped to `max_ns`).
    pub p50_ns: u64,
    /// 90th percentile.
    pub p90_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// 99.9th percentile.
    pub p999_ns: u64,
    /// Largest recorded span.
    pub max_ns: u64,
    /// Smallest recorded span (0 when no span was recorded).
    pub min_ns: u64,
}

impl From<&Snapshot> for StageReport {
    /// Digests a histogram snapshot.
    fn from(s: &Snapshot) -> StageReport {
        StageReport {
            count: s.count,
            total_ns: s.sum,
            mean_ns: s.mean(),
            p50_ns: s.percentile(0.50),
            p90_ns: s.percentile(0.90),
            p99_ns: s.percentile(0.99),
            p999_ns: s.p999(),
            max_ns: s.max(),
            min_ns: if s.count == 0 { 0 } else { s.min },
        }
    }
}

impl StageReport {
    fn to_json_value(&self) -> Json {
        Json::obj([
            ("count", Json::UInt(self.count)),
            ("total_ns", Json::UInt(self.total_ns)),
            ("mean_ns", Json::Num(self.mean_ns)),
            ("p50_ns", Json::UInt(self.p50_ns)),
            ("p90_ns", Json::UInt(self.p90_ns)),
            ("p99_ns", Json::UInt(self.p99_ns)),
            ("p999_ns", Json::UInt(self.p999_ns)),
            ("max_ns", Json::UInt(self.max_ns)),
            ("min_ns", Json::UInt(self.min_ns)),
        ])
    }
}

/// One run's complete telemetry: stage latency digests, counters,
/// gauges and embedded documents, exportable as a single JSON object.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// A caller-chosen run label, e.g. `"repro.fig8"`.
    pub name: String,
    /// Per-stage latency digests, keyed by stage name.
    pub stages: BTreeMap<String, StageReport>,
    /// Counter values, keyed by counter name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values, keyed by gauge name.
    pub gauges: BTreeMap<String, i64>,
    /// Embedded documents (e.g. `"net_metrics"`), keyed by label.
    pub embedded: BTreeMap<String, Json>,
}

impl RunReport {
    /// Captures the global recorder's current state under `name`.
    pub fn capture(name: impl Into<String>) -> RunReport {
        RunReport {
            name: name.into(),
            stages: histograms_snapshot()
                .into_iter()
                .map(|(n, s)| (n, StageReport::from(&s)))
                .collect(),
            counters: counters_snapshot().into_iter().collect(),
            gauges: gauges_snapshot().into_iter().collect(),
            embedded: BTreeMap::new(),
        }
    }

    /// Attaches an embedded document under `key`.
    pub fn embed(&mut self, key: impl Into<String>, value: Json) {
        self.embedded.insert(key.into(), value);
    }

    /// Renders the report as one JSON object.
    pub fn to_json(&self) -> String {
        Json::obj([
            ("name", Json::Str(self.name.clone())),
            (
                "stages",
                Json::Obj(
                    self.stages
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json_value()))
                        .collect(),
                ),
            ),
            (
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::UInt(*v)))
                        .collect(),
                ),
            ),
            (
                "gauges",
                Json::Obj(
                    self.gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Int(*v)))
                        .collect(),
                ),
            ),
            ("embedded", Json::Obj(self.embedded.clone())),
        ])
        .to_json_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;

    /// A tiny structural validator: enough JSON grammar to reject
    /// malformed writer output in tests.
    fn validate_json(s: &str) -> Result<(), String> {
        let bytes: Vec<char> = s.chars().collect();
        let mut i = 0usize;
        fn skip_ws(b: &[char], i: &mut usize) {
            while *i < b.len() && b[*i].is_whitespace() {
                *i += 1;
            }
        }
        fn value(b: &[char], i: &mut usize) -> Result<(), String> {
            skip_ws(b, i);
            match b.get(*i) {
                Some('{') => {
                    *i += 1;
                    skip_ws(b, i);
                    if b.get(*i) == Some(&'}') {
                        *i += 1;
                        return Ok(());
                    }
                    loop {
                        string(b, i)?;
                        skip_ws(b, i);
                        if b.get(*i) != Some(&':') {
                            return Err(format!("expected ':' at {i:?}"));
                        }
                        *i += 1;
                        value(b, i)?;
                        skip_ws(b, i);
                        match b.get(*i) {
                            Some(',') => *i += 1,
                            Some('}') => {
                                *i += 1;
                                return Ok(());
                            }
                            other => return Err(format!("expected ',' or '}}', got {other:?}")),
                        }
                    }
                }
                Some('[') => {
                    *i += 1;
                    skip_ws(b, i);
                    if b.get(*i) == Some(&']') {
                        *i += 1;
                        return Ok(());
                    }
                    loop {
                        value(b, i)?;
                        skip_ws(b, i);
                        match b.get(*i) {
                            Some(',') => *i += 1,
                            Some(']') => {
                                *i += 1;
                                return Ok(());
                            }
                            other => return Err(format!("expected ',' or ']', got {other:?}")),
                        }
                    }
                }
                Some('"') => string(b, i),
                Some('t') => literal(b, i, "true"),
                Some('f') => literal(b, i, "false"),
                Some('n') => literal(b, i, "null"),
                Some(c) if *c == '-' || c.is_ascii_digit() => {
                    *i += 1;
                    while *i < b.len()
                        && (b[*i].is_ascii_digit()
                            || b[*i] == '.'
                            || b[*i] == 'e'
                            || b[*i] == 'E'
                            || b[*i] == '+'
                            || b[*i] == '-')
                    {
                        *i += 1;
                    }
                    Ok(())
                }
                other => Err(format!("unexpected {other:?}")),
            }
        }
        fn string(b: &[char], i: &mut usize) -> Result<(), String> {
            skip_ws(b, i);
            if b.get(*i) != Some(&'"') {
                return Err(format!("expected string at {i:?}"));
            }
            *i += 1;
            while let Some(&c) = b.get(*i) {
                *i += 1;
                match c {
                    '"' => return Ok(()),
                    '\\' => *i += 1,
                    _ => {}
                }
            }
            Err("unterminated string".to_owned())
        }
        fn literal(b: &[char], i: &mut usize, lit: &str) -> Result<(), String> {
            for c in lit.chars() {
                if b.get(*i) != Some(&c) {
                    return Err(format!("bad literal {lit}"));
                }
                *i += 1;
            }
            Ok(())
        }
        value(&bytes, &mut i)?;
        skip_ws(&bytes, &mut i);
        if i != bytes.len() {
            return Err(format!("trailing garbage at {i}"));
        }
        Ok(())
    }

    #[test]
    fn json_writer_escapes_and_nests() {
        let v = Json::obj([
            ("plain", Json::from("x")),
            ("quote\"backslash\\", Json::from("a\nb\tc\u{1}")),
            (
                "arr",
                Json::Arr(vec![Json::Null, Json::from(true), Json::from(-3i64)]),
            ),
            ("num", Json::from(1.5f64)),
            ("nan", Json::Num(f64::NAN)),
        ]);
        let s = v.to_json_string();
        validate_json(&s).unwrap();
        assert!(s.contains("\\u0001"));
        assert!(s.contains("\\n"));
        assert!(s.contains("null"));
    }

    #[test]
    fn stage_report_digest_is_consistent() {
        let h = Histogram::new();
        for v in [10u64, 20, 30, 40, 1000] {
            h.record(v);
        }
        let r = StageReport::from(&h.snapshot());
        assert_eq!(r.count, 5);
        assert_eq!(r.total_ns, 1100);
        assert!(r.p50_ns <= r.p90_ns && r.p90_ns <= r.p99_ns && r.p99_ns <= r.max_ns);
        assert!(r.p99_ns <= r.p999_ns && r.p999_ns <= r.max_ns);
        assert_eq!(r.max_ns, 1000);
        assert_eq!(r.min_ns, 10);
    }

    #[test]
    fn run_report_round_trips_to_valid_json() {
        // Raw handles record unconditionally; only the `Stage`/`Count`
        // wrappers consult the global flag (left untouched here so this
        // test cannot race the flag-flipping tests in `recorder`).
        crate::histogram("test.report.stage").record(500);
        crate::counter("test.report.counter").add(7);
        crate::gauge("test.report.gauge").set(-2);
        let mut report = RunReport::capture("unit-test");
        report.embed(
            "net_metrics",
            Json::obj([
                ("messages", Json::from(3u64)),
                (
                    "per_broker",
                    Json::Arr(vec![Json::from(1u64), Json::from(2u64)]),
                ),
            ]),
        );
        let text = report.to_json();
        validate_json(&text).unwrap();
        assert!(text.contains("\"name\":\"unit-test\""));
        assert!(text.contains("\"test.report.stage\""));
        // Value assertions would race with the global-reset unit test in
        // `recorder`; key presence is stable (registration persists).
        assert!(text.contains("\"test.report.counter\""));
        assert!(text.contains("\"net_metrics\""));
    }
}
