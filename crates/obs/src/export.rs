//! Telemetry exporters: JSONL event log and Chrome `trace_event` JSON
//! (loadable in `chrome://tracing` / Perfetto), plus the validators CI uses
//! to reject malformed exports.
//!
//! Wire formats (golden-pinned by `tests/golden_wire.rs`):
//!
//! JSONL — one JSON object per line, spans and events first (sorted by
//! `ts_ns`), then aggregates:
//! ```text
//! {"type":"span","name":"dk.iteration","tid":0,"ts_ns":100,"dur_ns":50,"fields":{"iter":1}}
//! {"type":"event","name":"board.fault","tid":0,"ts_ns":150,"fields":{"kind":"spike"}}
//! {"type":"counter","name":"optimizer.hw_steps","total":12}
//! {"type":"gauge","name":"optimizer.hw_ema_exd","value":1.5}
//! {"type":"hist","name":"runtime.invoke_ns","count":2,"sum":7000,"min":2000,"max":5000,"buckets":[{"le":1000,"count":0},...]}
//! ```
//!
//! Chrome trace — a single `{"displayTimeUnit":"ms","traceEvents":[...]}`
//! document: spans as complete (`"ph":"X"`) events, point events as thread
//! instants (`"ph":"i","s":"t"`), timestamps in microseconds with
//! nanosecond precision (3 decimals). Aggregate metrics are JSONL-only.

use std::borrow::Cow;
use std::fmt::Write;

use crate::json::{self, Json, JsonError, Lexeme};
use crate::mem::{Entry, Field, OwnedValue, Snapshot};

/// Current JSONL schema version, stamped into every export's header
/// record. Version 1 introduced the header itself; headerless ("v0")
/// streams are rejected by [`validate_jsonl_meta`].
pub const JSONL_SCHEMA_VERSION: u64 = 1;

/// Run metadata stamped as the first record of every JSONL export:
/// `{"type":"meta","name":"run","schema_version":1,"seed":…,"scheme":"…","quick":…}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunMeta {
    /// Wire schema version ([`JSONL_SCHEMA_VERSION`] for fresh exports).
    pub schema_version: u64,
    /// Experiment seed the run was keyed on (0 when not seed-driven).
    pub seed: u64,
    /// Scheme label or producing binary name.
    pub scheme: String,
    /// Whether the run was a `--quick` smoke pass.
    pub quick: bool,
}

impl RunMeta {
    /// Metadata for a fresh export at the current schema version.
    pub fn new(seed: u64, scheme: &str, quick: bool) -> Self {
        Self {
            schema_version: JSONL_SCHEMA_VERSION,
            seed,
            scheme: scheme.to_string(),
            quick,
        }
    }

    /// Appends the header's JSONL line (no trailing newline) to `out`.
    fn line_into(&self, out: &mut String) {
        out.push_str("{\"type\":\"meta\",\"name\":\"run\",\"schema_version\":");
        int_into(out, self.schema_version);
        out.push_str(",\"seed\":");
        int_into(out, self.seed);
        out.push_str(",\"scheme\":");
        str_into(out, &self.scheme);
        out.push_str(",\"quick\":");
        out.push_str(if self.quick { "true" } else { "false" });
        out.push('}');
    }
}

/// Typed header-validation error from [`validate_jsonl_meta`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetaError {
    /// The stream has no `meta` header record — a pre-versioning ("v0")
    /// export.
    MissingHeader,
    /// The header's schema version is not one this reader supports.
    UnsupportedSchema { found: u64, supported: u64 },
    /// The header record is present but malformed, or the body failed
    /// validation.
    Invalid(String),
}

impl std::fmt::Display for MetaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::MissingHeader => write!(
                f,
                "missing run-metadata header (v0 stream): line 1 must be a \
                 {{\"type\":\"meta\",\"name\":\"run\",…}} record"
            ),
            Self::UnsupportedSchema { found, supported } => write!(
                f,
                "unsupported schema_version {found} (this reader supports {supported})"
            ),
            Self::Invalid(why) => write!(f, "{why}"),
        }
    }
}

impl std::error::Error for MetaError {}

/// Appends an f64 as a strict JSON token. JSON has no NaN/Infinity, so
/// non-finite values become `null` (consumers treat them as absent).
fn f64_into(out: &mut String, v: f64) {
    if v.is_finite() {
        write!(out, "{v}").expect("writing to a String cannot fail");
    } else {
        out.push_str("null");
    }
}

/// Appends an integer token.
fn int_into(out: &mut String, v: impl std::fmt::Display) {
    write!(out, "{v}").expect("writing to a String cannot fail");
}

/// Appends `s` escaped for embedding inside JSON quotes.
fn escape_into(out: &mut String, s: &str) {
    if !s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
        out.push_str(s);
        return;
    }
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
}

/// Appends `"s"`, escaped.
fn str_into(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

fn value_into(out: &mut String, v: &OwnedValue) {
    match v {
        OwnedValue::U64(x) => int_into(out, x),
        OwnedValue::I64(x) => int_into(out, x),
        OwnedValue::F64(x) => f64_into(out, *x),
        OwnedValue::Str(s) => str_into(out, s),
        OwnedValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
    }
}

/// Appends `{"k":v,…}`.
fn fields_into(out: &mut String, fields: &[Field]) {
    out.push('{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        str_into(out, k);
        out.push(':');
        value_into(out, v);
    }
    out.push('}');
}

/// A buffer sized for `snap`'s spans and events, so the writers rarely
/// regrow it.
fn buffer_for(snap: &Snapshot) -> String {
    String::with_capacity(128 * snap.entries.len() + 24 * snap.fields.len() + 1024)
}

fn jsonl_entry_into(out: &mut String, e: &Entry, fields: &[Field]) {
    out.push_str(match e.dur_ns {
        Some(_) => "{\"type\":\"span\",\"name\":",
        None => "{\"type\":\"event\",\"name\":",
    });
    str_into(out, e.name);
    out.push_str(",\"tid\":");
    int_into(out, e.tid);
    out.push_str(",\"ts_ns\":");
    int_into(out, e.ts_ns);
    if let Some(dur) = e.dur_ns {
        out.push_str(",\"dur_ns\":");
        int_into(out, dur);
    }
    if !fields.is_empty() {
        out.push_str(",\"fields\":");
        fields_into(out, fields);
    }
    out.push_str("}\n");
}

/// Renders a snapshot as a JSONL event log headed by the run-metadata
/// record — the production export format ([`validate_jsonl_meta`]
/// requires the header).
pub fn to_jsonl_with_meta(snap: &Snapshot, meta: &RunMeta) -> String {
    let mut out = buffer_for(snap);
    meta.line_into(&mut out);
    out.push('\n');
    jsonl_into(&mut out, snap);
    out
}

/// Renders a snapshot's body as a JSONL event log (trailing newline
/// included when non-empty). No metadata header is attached; production
/// exports go through [`to_jsonl_with_meta`].
pub fn to_jsonl(snap: &Snapshot) -> String {
    let mut out = buffer_for(snap);
    jsonl_into(&mut out, snap);
    out
}

fn jsonl_into(out: &mut String, snap: &Snapshot) {
    for e in &snap.entries {
        jsonl_entry_into(out, e, snap.fields_of(e));
    }
    for (name, total) in &snap.counters {
        out.push_str("{\"type\":\"counter\",\"name\":");
        str_into(out, name);
        out.push_str(",\"total\":");
        int_into(out, total);
        out.push_str("}\n");
    }
    for (name, value) in &snap.gauges {
        out.push_str("{\"type\":\"gauge\",\"name\":");
        str_into(out, name);
        out.push_str(",\"value\":");
        f64_into(out, *value);
        out.push_str("}\n");
    }
    for (name, h) in &snap.hists {
        out.push_str("{\"type\":\"hist\",\"name\":");
        str_into(out, name);
        out.push_str(",\"count\":");
        int_into(out, h.count());
        out.push_str(",\"sum\":");
        f64_into(out, h.sum());
        out.push_str(",\"min\":");
        f64_into(out, h.min().unwrap_or(f64::NAN));
        out.push_str(",\"max\":");
        f64_into(out, h.max().unwrap_or(f64::NAN));
        out.push_str(",\"buckets\":[");
        let bounds = h.bounds().iter().copied().chain(std::iter::once(f64::NAN));
        for (i, (le, count)) in bounds.zip(h.counts()).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"le\":");
            f64_into(out, le);
            out.push_str(",\"count\":");
            int_into(out, count);
            out.push('}');
        }
        out.push_str("]}\n");
    }
}

/// Appends microseconds with nanosecond precision, the unit Chrome's trace
/// viewer expects.
fn us_into(out: &mut String, ns: u64) {
    write!(out, "{:.3}", ns as f64 / 1000.0).expect("writing to a String cannot fail");
}

/// Renders a snapshot in Chrome `trace_event` format. Only spans and point
/// events appear; aggregate counters/gauges/histograms are JSONL-only.
pub fn to_chrome_trace(snap: &Snapshot) -> String {
    let mut out = buffer_for(snap);
    out.push_str(
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n\
         {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"yukta\"}}",
    );
    for e in &snap.entries {
        out.push_str(",\n{\"name\":");
        str_into(&mut out, e.name);
        out.push_str(match e.dur_ns {
            Some(_) => ",\"ph\":\"X\",\"pid\":1,\"tid\":",
            None => ",\"ph\":\"i\",\"pid\":1,\"tid\":",
        });
        int_into(&mut out, e.tid);
        out.push_str(",\"ts\":");
        us_into(&mut out, e.ts_ns);
        match e.dur_ns {
            Some(dur) => {
                out.push_str(",\"dur\":");
                us_into(&mut out, dur);
            }
            None => out.push_str(",\"s\":\"t\""),
        }
        let fields = snap.fields_of(e);
        if !fields.is_empty() {
            out.push_str(",\"args\":");
            fields_into(&mut out, fields);
        }
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

/// Summary of a validated JSONL log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JsonlStats {
    pub spans: usize,
    pub events: usize,
    pub counters: usize,
    pub gauges: usize,
    pub hists: usize,
}

/// The top-level members the JSONL validators read from one line, each
/// the first occurrence of its key (as [`Json::get`] finds it).
#[derive(Default)]
struct Members<'a> {
    ty: Option<Lexeme<'a>>,
    name: Option<Lexeme<'a>>,
    schema_version: Option<Lexeme<'a>>,
    seed: Option<Lexeme<'a>>,
    scheme: Option<Lexeme<'a>>,
    quick: Option<Lexeme<'a>>,
    ts_ns: Option<Lexeme<'a>>,
    dur_ns: Option<Lexeme<'a>>,
    total: Option<Lexeme<'a>>,
    value: Option<Lexeme<'a>>,
    buckets: Option<Lexeme<'a>>,
}

impl<'a> Members<'a> {
    /// Checks `line` as one JSON document and picks out its members.
    fn read(line: &'a str) -> Result<Self, JsonError> {
        let mut m = Self::default();
        json::scan(line, |key, value| {
            let slot = match &*key.decode() {
                "type" => &mut m.ty,
                "name" => &mut m.name,
                "schema_version" => &mut m.schema_version,
                "seed" => &mut m.seed,
                "scheme" => &mut m.scheme,
                "quick" => &mut m.quick,
                "ts_ns" => &mut m.ts_ns,
                "dur_ns" => &mut m.dur_ns,
                "total" => &mut m.total,
                "value" => &mut m.value,
                "buckets" => &mut m.buckets,
                _ => return,
            };
            slot.get_or_insert(value);
        })?;
        Ok(m)
    }
}

fn as_str(m: Option<Lexeme<'_>>) -> Option<Cow<'_, str>> {
    match m {
        Some(Lexeme::Str(s)) => Some(s.decode()),
        _ => None,
    }
}

fn as_f64(m: Option<Lexeme<'_>>) -> Option<f64> {
    match m {
        Some(Lexeme::Num(x)) => x.as_f64(),
        _ => None,
    }
}

/// Validates a JSONL telemetry log: every line is a JSON object carrying a
/// known `type`, a `name`, and (for spans/events) non-negative `ts_ns` /
/// `dur_ns` with `ts_ns` non-decreasing within the span/event prefix.
pub fn validate_jsonl(text: &str) -> Result<JsonlStats, String> {
    let mut stats = JsonlStats::default();
    let mut last_ts: f64 = 0.0;
    let mut aggregates_started = false;
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        if line.trim().is_empty() {
            return Err(format!("line {n}: blank line in JSONL log"));
        }
        let v = Members::read(line).map_err(|e| format!("line {n}: {e}"))?;
        let ty = as_str(v.ty).ok_or_else(|| format!("line {n}: missing \"type\""))?;
        if !matches!(v.name, Some(Lexeme::Str(_))) {
            return Err(format!("line {n}: missing \"name\""));
        }
        match &*ty {
            "meta" => {
                if n != 1 {
                    return Err(format!(
                        "line {n}: meta record only allowed as the first line"
                    ));
                }
                if as_f64(v.schema_version).is_none() {
                    return Err(format!("line {n}: meta missing numeric \"schema_version\""));
                }
            }
            "span" | "event" => {
                if aggregates_started {
                    return Err(format!("line {n}: span/event after aggregate section"));
                }
                let ts = as_f64(v.ts_ns)
                    .ok_or_else(|| format!("line {n}: missing numeric \"ts_ns\""))?;
                if ts < 0.0 {
                    return Err(format!("line {n}: negative ts_ns"));
                }
                if ts < last_ts {
                    return Err(format!("line {n}: ts_ns not monotonically non-decreasing"));
                }
                last_ts = ts;
                if ty == "span" {
                    let dur = as_f64(v.dur_ns)
                        .ok_or_else(|| format!("line {n}: span missing numeric \"dur_ns\""))?;
                    if dur < 0.0 {
                        return Err(format!("line {n}: negative dur_ns"));
                    }
                    stats.spans += 1;
                } else {
                    stats.events += 1;
                }
            }
            "counter" => {
                aggregates_started = true;
                if as_f64(v.total).is_none() {
                    return Err(format!("line {n}: counter missing \"total\""));
                }
                stats.counters += 1;
            }
            "gauge" => {
                aggregates_started = true;
                if v.value.is_none() {
                    return Err(format!("line {n}: gauge missing \"value\""));
                }
                stats.gauges += 1;
            }
            "hist" => {
                aggregates_started = true;
                if v.buckets != Some(Lexeme::Arr) {
                    return Err(format!("line {n}: hist missing \"buckets\""));
                }
                stats.hists += 1;
            }
            other => return Err(format!("line {n}: unknown type {other:?}")),
        }
    }
    Ok(stats)
}

/// A header integer, read exactly from its token: a plain non-negative
/// integer that fits in a `u64`.
fn header_u64(m: Option<Lexeme<'_>>, key: &str) -> Result<u64, MetaError> {
    match m {
        Some(Lexeme::Num(x)) => x.as_u64().ok_or_else(|| {
            MetaError::Invalid(format!(
                "meta \"{key}\" is {}, not an integer in 0..=u64::MAX",
                x.as_str()
            ))
        }),
        _ => Err(MetaError::Invalid(format!(
            "meta missing numeric \"{key}\""
        ))),
    }
}

/// Validates a JSONL telemetry log *and* its run-metadata header: the
/// first line must be a `meta` record at a supported schema version
/// carrying `seed`, `scheme`, and `quick`. Headerless v0 streams are
/// rejected with [`MetaError::MissingHeader`]. On success returns the
/// parsed header alongside the body statistics.
pub fn validate_jsonl_meta(text: &str) -> Result<(RunMeta, JsonlStats), MetaError> {
    let first = text.lines().next().ok_or(MetaError::MissingHeader)?;
    let v = Members::read(first).map_err(|e| MetaError::Invalid(format!("line 1: {e}")))?;
    if as_str(v.ty).as_deref() != Some("meta") {
        return Err(MetaError::MissingHeader);
    }
    let schema_version = header_u64(v.schema_version, "schema_version")?;
    if schema_version != JSONL_SCHEMA_VERSION {
        return Err(MetaError::UnsupportedSchema {
            found: schema_version,
            supported: JSONL_SCHEMA_VERSION,
        });
    }
    let seed = header_u64(v.seed, "seed")?;
    let scheme = as_str(v.scheme)
        .ok_or_else(|| MetaError::Invalid("meta missing string \"scheme\"".into()))?
        .into_owned();
    let Some(Lexeme::Bool(quick)) = v.quick else {
        return Err(MetaError::Invalid("meta missing boolean \"quick\"".into()));
    };
    let stats = validate_jsonl(text).map_err(MetaError::Invalid)?;
    Ok((
        RunMeta {
            schema_version,
            seed,
            scheme,
            quick,
        },
        stats,
    ))
}

/// Summary of a validated Chrome trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChromeStats {
    pub complete: usize,
    pub instants: usize,
}

/// Validates a Chrome `trace_event` document: well-formed JSON, a
/// `traceEvents` array, and for every timed event strictly non-negative,
/// monotonically non-decreasing `ts` plus non-negative `dur`.
pub fn validate_chrome(text: &str) -> Result<ChromeStats, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or_else(|| "missing \"traceEvents\" array".to_string())?;
    let mut stats = ChromeStats::default();
    let mut last_ts: f64 = 0.0;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing \"ph\""))?;
        if ev.get("name").and_then(Json::as_str).is_none() {
            return Err(format!("event {i}: missing \"name\""));
        }
        if ph == "M" {
            continue; // metadata records carry no timestamp
        }
        let ts = ev
            .get("ts")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i}: missing numeric \"ts\""))?;
        if ts < 0.0 {
            return Err(format!("event {i}: negative ts"));
        }
        if ts < last_ts {
            return Err(format!("event {i}: ts not monotonically non-decreasing"));
        }
        last_ts = ts;
        match ph {
            "X" => {
                let dur = ev
                    .get("dur")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("event {i}: complete event missing \"dur\""))?;
                if dur < 0.0 {
                    return Err(format!("event {i}: negative dur"));
                }
                stats.complete += 1;
            }
            "i" => stats.instants += 1,
            other => return Err(format!("event {i}: unexpected phase {other:?}")),
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemRecorder;
    use crate::{Recorder, Value, span};

    fn sample() -> Snapshot {
        let rec = MemRecorder::manual();
        rec.set_time_ns(100);
        let s = span(&rec, "dk.iteration");
        rec.advance_ns(50);
        s.end_with(&[("iter", Value::U64(1))]);
        rec.event("board.fault", &[("kind", Value::Str("spike"))]);
        rec.counter_add("optimizer.hw_steps", 12);
        rec.gauge_set("optimizer.hw_ema_exd", 1.5);
        rec.hist_record("runtime.invoke_ns", 2000.0);
        rec.snapshot()
    }

    #[test]
    fn jsonl_export_validates() {
        let text = to_jsonl(&sample());
        let stats = validate_jsonl(&text).unwrap();
        assert_eq!(
            stats,
            JsonlStats {
                spans: 1,
                events: 1,
                counters: 1,
                gauges: 1,
                hists: 1
            }
        );
    }

    #[test]
    fn chrome_export_validates() {
        let text = to_chrome_trace(&sample());
        let stats = validate_chrome(&text).unwrap();
        assert_eq!(
            stats,
            ChromeStats {
                complete: 1,
                instants: 1
            }
        );
    }

    #[test]
    fn validators_reject_corruption() {
        let good = to_jsonl(&sample());
        let truncated = &good[..good.len() - 10];
        assert!(validate_jsonl(truncated).is_err());
        assert!(validate_chrome("{\"traceEvents\":{}}").is_err());
        assert!(
            validate_chrome(
                "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"X\",\"ts\":-1.0,\"dur\":0}]}"
            )
            .is_err()
        );
        assert!(validate_chrome(
            "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"X\",\"ts\":5.0,\"dur\":1},{\"name\":\"y\",\"ph\":\"i\",\"ts\":1.0}]}"
        )
        .is_err());
    }

    #[test]
    fn meta_export_roundtrips_and_validates() {
        // Seeds past 2^53 have no exact f64, so they test the exact read.
        for seed in [0x5EED, 0, (1 << 53) + 1, u64::MAX - 1, u64::MAX] {
            let meta = RunMeta::new(seed, "yukta_hw_ssv+os_ssv", true);
            let text = to_jsonl_with_meta(&sample(), &meta);
            // The plain validator accepts a leading header…
            validate_jsonl(&text).unwrap();
            // …and the meta validator parses it back exactly.
            let (parsed, stats) = validate_jsonl_meta(&text).unwrap();
            assert_eq!(parsed, meta);
            assert_eq!(stats.spans, 1);
            assert_eq!(stats.hists, 1);
        }
    }

    #[test]
    fn meta_validator_rejects_v0_streams_with_typed_error() {
        let v0 = to_jsonl(&sample());
        assert_eq!(validate_jsonl_meta(&v0), Err(MetaError::MissingHeader));
        assert_eq!(validate_jsonl_meta(""), Err(MetaError::MissingHeader));
        let msg = MetaError::MissingHeader.to_string();
        assert!(msg.contains("v0"), "{msg}");
    }

    #[test]
    fn meta_validator_rejects_future_schema_and_malformed_headers() {
        let body = to_jsonl(&sample());
        let future = format!(
            "{{\"type\":\"meta\",\"name\":\"run\",\"schema_version\":2,\"seed\":1,\"scheme\":\"x\",\"quick\":false}}\n{body}"
        );
        assert_eq!(
            validate_jsonl_meta(&future),
            Err(MetaError::UnsupportedSchema {
                found: 2,
                supported: JSONL_SCHEMA_VERSION
            })
        );
        let incomplete = format!(
            "{{\"type\":\"meta\",\"name\":\"run\",\"schema_version\":1,\"seed\":1}}\n{body}"
        );
        assert!(matches!(
            validate_jsonl_meta(&incomplete),
            Err(MetaError::Invalid(_))
        ));
        // Header integers are plain non-negative integer tokens, never
        // rounded or truncated into one.
        for (version, seed) in [
            ("1.7", "1"),
            ("1", "-5"),
            ("1", "2.5"),
            ("1", "18446744073709551616"),
        ] {
            let bad = format!(
                "{{\"type\":\"meta\",\"name\":\"run\",\"schema_version\":{version},\"seed\":{seed},\"scheme\":\"x\",\"quick\":false}}\n{body}"
            );
            assert!(
                matches!(validate_jsonl_meta(&bad), Err(MetaError::Invalid(_))),
                "accepted schema_version {version}, seed {seed}"
            );
        }
    }

    #[test]
    fn meta_record_rejected_mid_stream() {
        let meta = RunMeta::new(1, "x", false);
        let mut text = to_jsonl(&sample());
        meta.line_into(&mut text);
        text.push('\n');
        let err = validate_jsonl(&text).unwrap_err();
        assert!(err.contains("first line"), "{err}");
    }

    #[test]
    fn non_finite_values_become_null() {
        let rec = MemRecorder::manual();
        rec.event("e", &[("bad", Value::F64(f64::NAN))]);
        rec.gauge_set("g", f64::INFINITY);
        let text = to_jsonl(&rec.snapshot());
        assert!(text.contains("\"bad\":null"));
        assert!(text.contains("\"value\":null"));
        validate_jsonl(&text).unwrap();
    }

    #[test]
    fn strings_are_escaped() {
        let rec = MemRecorder::manual();
        rec.event("e", &[("msg", Value::Str("a\"b\\c\nd\u{1}"))]);
        let text = to_jsonl(&rec.snapshot());
        validate_jsonl(&text).unwrap();
        assert!(text.contains("a\\\"b\\\\c\\nd\\u0001"));
    }

    /// The tree-based validators [`validate_jsonl`] and
    /// [`validate_jsonl_meta`] replaced, kept as the reference the scan
    /// must match: the same stats, or the same error text.
    mod reference {
        use super::super::*;

        pub fn validate_jsonl(text: &str) -> Result<JsonlStats, String> {
            let mut stats = JsonlStats::default();
            let mut last_ts: f64 = 0.0;
            let mut aggregates_started = false;
            for (i, line) in text.lines().enumerate() {
                let n = i + 1;
                if line.trim().is_empty() {
                    return Err(format!("line {n}: blank line in JSONL log"));
                }
                let v = json::parse(line).map_err(|e| format!("line {n}: {e}"))?;
                let ty = v
                    .get("type")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("line {n}: missing \"type\""))?;
                if v.get("name").and_then(Json::as_str).is_none() {
                    return Err(format!("line {n}: missing \"name\""));
                }
                match ty {
                    "meta" => {
                        if n != 1 {
                            return Err(format!(
                                "line {n}: meta record only allowed as the first line"
                            ));
                        }
                        if v.get("schema_version").and_then(Json::as_f64).is_none() {
                            return Err(format!(
                                "line {n}: meta missing numeric \"schema_version\""
                            ));
                        }
                    }
                    "span" | "event" => {
                        if aggregates_started {
                            return Err(format!("line {n}: span/event after aggregate section"));
                        }
                        let ts = v
                            .get("ts_ns")
                            .and_then(Json::as_f64)
                            .ok_or_else(|| format!("line {n}: missing numeric \"ts_ns\""))?;
                        if ts < 0.0 {
                            return Err(format!("line {n}: negative ts_ns"));
                        }
                        if ts < last_ts {
                            return Err(format!(
                                "line {n}: ts_ns not monotonically non-decreasing"
                            ));
                        }
                        last_ts = ts;
                        if ty == "span" {
                            let dur = v.get("dur_ns").and_then(Json::as_f64).ok_or_else(|| {
                                format!("line {n}: span missing numeric \"dur_ns\"")
                            })?;
                            if dur < 0.0 {
                                return Err(format!("line {n}: negative dur_ns"));
                            }
                            stats.spans += 1;
                        } else {
                            stats.events += 1;
                        }
                    }
                    "counter" => {
                        aggregates_started = true;
                        if v.get("total").and_then(Json::as_f64).is_none() {
                            return Err(format!("line {n}: counter missing \"total\""));
                        }
                        stats.counters += 1;
                    }
                    "gauge" => {
                        aggregates_started = true;
                        if v.get("value").is_none() {
                            return Err(format!("line {n}: gauge missing \"value\""));
                        }
                        stats.gauges += 1;
                    }
                    "hist" => {
                        aggregates_started = true;
                        if v.get("buckets").and_then(Json::as_arr).is_none() {
                            return Err(format!("line {n}: hist missing \"buckets\""));
                        }
                        stats.hists += 1;
                    }
                    other => return Err(format!("line {n}: unknown type {other:?}")),
                }
            }
            Ok(stats)
        }

        pub fn validate_jsonl_meta(text: &str) -> Result<(RunMeta, JsonlStats), MetaError> {
            let first = text.lines().next().ok_or(MetaError::MissingHeader)?;
            let v = json::parse(first).map_err(|e| MetaError::Invalid(format!("line 1: {e}")))?;
            if v.get("type").and_then(Json::as_str) != Some("meta") {
                return Err(MetaError::MissingHeader);
            }
            let int = |key: &str| -> Result<u64, MetaError> {
                v.get(key)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| MetaError::Invalid(format!("meta missing numeric \"{key}\"")))?;
                // The tree holds numbers as f64, which cannot carry every
                // u64, so the integer is read from the member's token text.
                let token = first_token(first, key);
                token
                    .bytes()
                    .all(|b| b.is_ascii_digit())
                    .then(|| token.parse::<u64>().ok())
                    .flatten()
                    .ok_or_else(|| {
                        MetaError::Invalid(format!(
                            "meta \"{key}\" is {token}, not an integer in 0..=u64::MAX"
                        ))
                    })
            };
            let schema_version = int("schema_version")?;
            if schema_version != JSONL_SCHEMA_VERSION {
                return Err(MetaError::UnsupportedSchema {
                    found: schema_version,
                    supported: JSONL_SCHEMA_VERSION,
                });
            }
            let seed = int("seed")?;
            let scheme = v
                .get("scheme")
                .and_then(Json::as_str)
                .ok_or_else(|| MetaError::Invalid("meta missing string \"scheme\"".into()))?
                .to_string();
            let quick = v
                .get("quick")
                .and_then(Json::as_bool)
                .ok_or_else(|| MetaError::Invalid("meta missing boolean \"quick\"".into()))?;
            let stats = validate_jsonl(text).map_err(MetaError::Invalid)?;
            Ok((
                RunMeta {
                    schema_version,
                    seed,
                    scheme,
                    quick,
                },
                stats,
            ))
        }

        /// The text of the first top-level member named `key`.
        fn first_token<'a>(line: &'a str, key: &str) -> &'a str {
            let mut token = None;
            json::scan(line, |k, v| {
                if let (None, Lexeme::Num(x)) = (token, v) {
                    if k.decode() == key {
                        token = Some(x.as_str());
                    }
                }
            })
            .expect("the line parsed as a tree");
            token.expect("the tree found a number under the key")
        }
    }

    mod props {
        use proptest::prelude::*;

        use super::*;
        use crate::json::Json;

        const NAMES: [&str; 8] = [
            "runtime.invoke",
            "dk.k_step",
            "",
            "q\"uote",
            "back\\slash",
            "ctl\u{1}\u{1f}",
            "tab\tnew\nline",
            "é✓😀",
        ];
        const KEYS: [&str; 8] = [
            "step", "t_sim", "mode", "", "k\"q", "é", "ctl\u{7}", "ts_ns",
        ];
        /// Characters for recorded strings: plain, escaped and non-ASCII.
        const TEXT: [char; 16] = [
            'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{1}', '\u{7f}', 'é', '✓',
            '😀', '\u{2028}',
        ];
        const SPECIAL_F64: [f64; 7] = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            1e300,
            5e-324,
            0.1,
        ];

        /// One recorded entry: `(span?, name, time step, fields)`, each
        /// field `(key, kind, bits, chars)`.
        type EntryRecipe = (u8, usize, u64, Vec<(usize, u8, u64, Vec<usize>)>);

        fn entry_recipes() -> impl Strategy<Value = Vec<EntryRecipe>> {
            let field = (
                0..KEYS.len(),
                0u8..5,
                0..u64::MAX,
                prop::collection::vec(0..TEXT.len(), 0..6),
            );
            prop::collection::vec(
                (
                    0u8..2,
                    0..NAMES.len(),
                    0u64..1 << 40,
                    prop::collection::vec(field, 0..4),
                ),
                0..8,
            )
        }

        fn f64_of(bits: u64) -> f64 {
            if bits.is_multiple_of(3) {
                SPECIAL_F64[(bits / 3 % SPECIAL_F64.len() as u64) as usize]
            } else {
                f64::from_bits(bits)
            }
        }

        fn record(recipes: &[EntryRecipe], aggregates: (u64, u64)) -> Snapshot {
            let rec = MemRecorder::manual();
            for (span, name, step, fields) in recipes {
                let strings: Vec<String> = fields
                    .iter()
                    .map(|(_, _, _, cs)| cs.iter().map(|&c| TEXT[c]).collect())
                    .collect();
                let values: Vec<(&'static str, Value<'_>)> = fields
                    .iter()
                    .zip(&strings)
                    .map(|((k, kind, bits, _), s)| {
                        let v = match kind {
                            0 => Value::U64(*bits),
                            1 => Value::I64(*bits as i64),
                            2 => Value::F64(f64_of(*bits)),
                            3 => Value::Str(s),
                            _ => Value::Bool(bits % 2 == 1),
                        };
                        (KEYS[*k], v)
                    })
                    .collect();
                let name = NAMES[*name];
                if *span == 1 {
                    let token = rec.span_begin(name);
                    rec.advance_ns(*step);
                    rec.span_end(name, token, &values);
                } else {
                    rec.advance_ns(*step);
                    rec.event(name, &values);
                }
            }
            let (total, bits) = aggregates;
            rec.counter_add(NAMES[(total % 8) as usize], total);
            rec.gauge_set(NAMES[(bits % 8) as usize], f64_of(bits));
            rec.hist_record("runtime.invoke_ns", f64_of(bits));
            rec.snapshot()
        }

        fn expected(v: &OwnedValue) -> Json {
            match v {
                OwnedValue::U64(x) => Json::Num(*x as f64),
                OwnedValue::I64(x) => Json::Num(*x as f64),
                OwnedValue::F64(x) if x.is_finite() => Json::Num(*x),
                OwnedValue::F64(_) => Json::Null,
                OwnedValue::Str(s) => Json::Str(s.to_string()),
                OwnedValue::Bool(b) => Json::Bool(*b),
            }
        }

        fn expected_fields(fields: &[Field]) -> Json {
            Json::Obj(
                fields
                    .iter()
                    .map(|(k, v)| (k.to_string(), expected(v)))
                    .collect(),
            )
        }

        fn scheme_of(chars: &[usize]) -> String {
            chars.iter().map(|&c| TEXT[c]).collect()
        }

        /// Characters a mutation writes: JSON punctuation, number and
        /// literal pieces, whitespace, control and non-ASCII characters.
        const NOISE: [char; 30] = [
            '{', '}', '[', ']', '"', ':', ',', '\\', 'u', '0', '1', '9', '-', '.', 'e', 'E', '+',
            't', 'f', 'n', ' ', '\n', '\r', '\t', '\u{0}', '\u{1f}', 'a', 'é', '😀', 'D',
        ];
        const DUP_KEYS: [&str; 11] = [
            "type",
            "name",
            "ts_ns",
            "dur_ns",
            "schema_version",
            "seed",
            "scheme",
            "quick",
            "total",
            "value",
            "buckets",
        ];
        const DUP_VALUES: [&str; 15] = [
            "\"span\"",
            "\"meta\"",
            "\"hist\"",
            "1",
            "2",
            "-1",
            "2.5",
            "1e3",
            "null",
            "[]",
            "{\"a\":[1]}",
            "true",
            "9007199254740993",
            "18446744073709551615",
            "18446744073709551616",
        ];
        const ESCAPABLE: [&str; 8] = [
            "\"type\"",
            "\"name\"",
            "\"ts_ns\"",
            "\"seed\"",
            "\"quick\"",
            "\"span\"",
            "\"meta\"",
            "\"event\"",
        ];

        /// Byte offset of char `i` of `s`, or its length.
        fn at(s: &str, i: usize) -> usize {
            s.char_indices().nth(i).map_or(s.len(), |(b, _)| b)
        }

        fn mutate(text: &mut String, (op, a, b, c): (u8, usize, usize, usize)) {
            let chars = text.chars().count();
            let mut lines: Vec<String> = text.split('\n').map(String::from).collect();
            let n = lines.len();
            match op {
                // Truncation.
                0 => text.truncate(at(text, a % (chars + 1))),
                // Character flip.
                1 if chars > 0 => {
                    let i = at(text, a % chars);
                    let len = text[i..].chars().next().map_or(0, char::len_utf8);
                    text.replace_range(i..i + len, NOISE[b % NOISE.len()].encode_utf8(&mut [0; 4]));
                }
                // Line swap.
                2 => {
                    lines.swap(a % n, b % n);
                    *text = lines.join("\n");
                }
                // Line deletion.
                3 => {
                    lines.remove(a % n);
                    *text = lines.join("\n");
                }
                // Character-range deletion.
                4 => {
                    let i = at(text, a % (chars + 1));
                    let j = at(text, (a % (chars + 1) + b % 8).min(chars));
                    text.replace_range(i..j, "");
                }
                // A duplicated key, before (so it wins) or after the original.
                5 => {
                    // Half of them land in the header.
                    let line = &mut lines[if a % 2 == 0 { 0 } else { a / 2 % n }];
                    let member = format!(
                        "\"{}\":{}",
                        DUP_KEYS[b % DUP_KEYS.len()],
                        DUP_VALUES[c % DUP_VALUES.len()]
                    );
                    match (c / DUP_VALUES.len() % 2, line.find('{'), line.rfind('}')) {
                        (0, Some(i), _) => line.insert_str(i + 1, &format!("{member},")),
                        (_, _, Some(i)) => line.insert_str(i, &format!(",{member}")),
                        _ => line.push_str(&member),
                    }
                    *text = lines.join("\n");
                }
                // An escaped spelling of a key or label the validators read.
                6 => {
                    let word = ESCAPABLE[b % ESCAPABLE.len()];
                    let first = word.as_bytes()[1];
                    let escaped = format!("\"\\u{first:04x}{}", &word[2..]);
                    *text = text.replacen(word, &escaped, 1 + c % 2);
                }
                // Arbitrary text.
                _ => {
                    let noise: String = (0..b % 12)
                        .map(|k| NOISE[(c.wrapping_mul(31).wrapping_add(k * 7)) % NOISE.len()])
                        .collect();
                    text.insert_str(at(text, a % (chars + 1)), &noise);
                }
            }
        }

        fn mutations() -> impl Strategy<Value = Vec<(u8, usize, usize, usize)>> {
            prop::collection::vec(
                (0u8..8, 0usize..1 << 20, 0usize..1 << 20, 0usize..1 << 20),
                1..4,
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Mutated exports get the reference's verdict from the scan,
            /// and no reader panics on them.
            #[test]
            fn scan_validator_matches_tree_reference(
                recipes in entry_recipes(),
                aggregates in (0..u64::MAX, 0..u64::MAX),
                header in (0..u64::MAX, prop::collection::vec(0..TEXT.len(), 0..6), 0u8..2),
                ops in mutations(),
            ) {
                let snap = record(&recipes, aggregates);
                let meta = RunMeta::new(header.0, &scheme_of(&header.1), header.2 == 1);
                let mut text = to_jsonl_with_meta(&snap, &meta);
                let mut chrome = to_chrome_trace(&snap);
                for &op in &ops {
                    mutate(&mut text, op);
                    mutate(&mut chrome, op);
                }
                prop_assert_eq!(validate_jsonl(&text), reference::validate_jsonl(&text), "{:?}", text);
                prop_assert_eq!(
                    validate_jsonl_meta(&text),
                    reference::validate_jsonl_meta(&text),
                    "{:?}",
                    text
                );
                for line in text.lines() {
                    let _ = json::parse(line);
                }
                let _ = validate_chrome(&text);
                let _ = validate_chrome(&chrome);
                let _ = json::parse(&chrome);
            }

            /// Every exported line, and the Chrome document, parses back to
            /// the snapshot's values.
            #[test]
            fn exports_parse_back_to_the_snapshot(
                recipes in entry_recipes(),
                aggregates in (0..u64::MAX, 0..u64::MAX),
                header in (0..u64::MAX, prop::collection::vec(0..TEXT.len(), 0..6), 0u8..2),
            ) {
                let snap = record(&recipes, aggregates);
                let meta = RunMeta::new(header.0, &scheme_of(&header.1), header.2 == 1);
                let text = to_jsonl_with_meta(&snap, &meta);
                let (parsed, _) = validate_jsonl_meta(&text).expect("a fresh export validates");
                prop_assert_eq!(parsed, meta);
                let lines: Vec<Json> = text
                    .lines()
                    .map(|l| json::parse(l).expect("every line parses"))
                    .collect();
                prop_assert_eq!(lines.len(), 1 + snap.entries.len() + 3);
                for (e, line) in snap.entries.iter().zip(&lines[1..]) {
                    let kind = if e.dur_ns.is_some() { "span" } else { "event" };
                    prop_assert_eq!(line.get("type"), Some(&Json::Str(kind.into())));
                    prop_assert_eq!(line.get("name"), Some(&Json::Str(e.name.into())));
                    prop_assert_eq!(line.get("ts_ns"), Some(&Json::Num(e.ts_ns as f64)));
                    prop_assert_eq!(line.get("dur_ns"), e.dur_ns.map(|d| Json::Num(d as f64)).as_ref());
                    let fields = snap.fields_of(e);
                    let want = (!fields.is_empty()).then(|| expected_fields(fields));
                    prop_assert_eq!(line.get("fields"), want.as_ref());
                }
                let doc = json::parse(&to_chrome_trace(&snap)).expect("the chrome trace parses");
                let events = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents");
                prop_assert_eq!(events.len(), 1 + snap.entries.len());
                for (e, ev) in snap.entries.iter().zip(&events[1..]) {
                    prop_assert_eq!(ev.get("name"), Some(&Json::Str(e.name.into())));
                    let fields = snap.fields_of(e);
                    let want = (!fields.is_empty()).then(|| expected_fields(fields));
                    prop_assert_eq!(ev.get("args"), want.as_ref());
                }
            }
        }
    }
}
