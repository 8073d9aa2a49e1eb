//! Hand-rolled JSON for event journals and flight dumps.
//!
//! No JSON dependency is available offline, so (exactly like
//! `dce-obs`' `MetricsReport::to_json`) this module writes JSON by hand
//! and parses it with a small recursive-descent [`Value`] parser. Events
//! serialize flat — the five coordinates plus the kind's payload fields
//! prefixed per family (`req_site`/`req_seq`, `admin_version`,
//! `wait_*`, …) — so the output greps well and external tools can load
//! it without knowing the enum.

use dce_obs::{json_escape, DeferReason, Event, EventKind, ReqId};
use std::fmt::Write as _;

/// A parsed JSON value. Integers that fit `u64` stay exact (`Int`);
/// everything else numeric falls back to `Float`.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits `u64` exactly.
    Int(u64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object; `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. Journals, flight
/// dumps and `BENCHMARK.json` nest fewer than 6 levels; the cap keeps a
/// hostile file from overflowing the stack of the recursive parser.
const MAX_DEPTH: usize = 64;

/// Parses one JSON document (trailing whitespace allowed). Nesting
/// deeper than 64 arrays/objects is an error.
pub fn parse(input: &str) -> Result<Value, String> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let v = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", ch as char, *pos))
    }
}

/// Parses the value at `pos`, which sits inside `depth` arrays/objects.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos))
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(members));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                expect(b, pos, b':')?;
                let val = parse_value(b, pos, depth + 1)?;
                members.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    if let Ok(n) = text.parse::<u64>() {
        return Ok(Value::Int(n));
    }
    text.parse::<f64>()
        .map(Value::Float)
        .map_err(|_| format!("bad number {text:?} at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {}", *pos));
    }
    *pos += 1;
    let mut out = Vec::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => {
                return String::from_utf8(out).map_err(|e| e.to_string());
            }
            b'\\' => {
                let esc = b.get(*pos).copied().ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push(b'"'),
                    b'\\' => out.push(b'\\'),
                    b'/' => out.push(b'/'),
                    b'n' => out.push(b'\n'),
                    b't' => out.push(b'\t'),
                    b'r' => out.push(b'\r'),
                    b'b' => out.push(0x08),
                    b'f' => out.push(0x0c),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        *pos += 4;
                        let ch = char::from_u32(code).ok_or("bad \\u code point")?;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
                    }
                    other => return Err(format!("bad escape \\{}", other as char)),
                }
            }
            other => out.push(other),
        }
    }
    Err("unterminated string".to_string())
}

/// Escapes and quotes `s` as a JSON string literal.
pub fn quote(s: &str) -> String {
    format!("\"{}\"", json_escape(s))
}

/// Serializes a journal as a JSON array, one flat object per event.
pub fn events_to_json(events: &[Event]) -> String {
    let mut out = String::from("[\n");
    for (i, ev) in events.iter().enumerate() {
        out.push_str("  ");
        out.push_str(&event_to_json(ev));
        out.push_str(if i + 1 < events.len() { ",\n" } else { "\n" });
    }
    out.push(']');
    out
}

fn event_to_json(ev: &Event) -> String {
    let mut f = String::from("{");
    let _ = write!(
        f,
        "\"site\": {}, \"seq\": {}, \"version\": {}, \"lamport\": {}, \"at\": {}, \"kind\": {}",
        ev.site,
        ev.seq,
        ev.version,
        ev.lamport,
        ev.at,
        quote(ev.kind.name())
    );
    // The document tag is written only when set, so single-document
    // journals keep their pre-sharding shape (and old readers keep
    // working); absent on read means doc 0.
    if ev.doc != 0 {
        let _ = write!(f, ", \"doc\": {}", ev.doc);
    }
    let req = |f: &mut String, id: ReqId| {
        let _ = write!(f, ", \"req_site\": {}, \"req_seq\": {}", id.site, id.seq);
    };
    let wait = |f: &mut String, reason: &DeferReason| match reason {
        DeferReason::MissingVersion(v) => {
            let _ = write!(f, ", \"wait\": \"version\", \"wait_version\": {v}");
        }
        DeferReason::MissingRequest(id) => {
            let _ = write!(
                f,
                ", \"wait\": \"request\", \"wait_site\": {}, \"wait_seq\": {}",
                id.site, id.seq
            );
        }
    };
    match &ev.kind {
        EventKind::ReqGenerated { id }
        | EventKind::ReqReceived { id }
        | EventKind::ReqDuplicate { id }
        | EventKind::ReqExecuted { id }
        | EventKind::ReqInert { id }
        | EventKind::ReqDenied { id }
        | EventKind::ReqUndone { id }
        | EventKind::ReqStable { id } => req(&mut f, *id),
        EventKind::ReqDeferred { id, reason } => {
            req(&mut f, *id);
            wait(&mut f, reason);
        }
        EventKind::CheckLocalDenied { user } => {
            let _ = write!(f, ", \"user\": {user}");
        }
        EventKind::AdminReceived { version } => {
            let _ = write!(f, ", \"admin_version\": {version}");
        }
        EventKind::AdminDeferred { version, reason } => {
            let _ = write!(f, ", \"admin_version\": {version}");
            wait(&mut f, reason);
        }
        EventKind::AdminApplied { version, restrictive } => {
            let _ = write!(f, ", \"admin_version\": {version}, \"restrictive\": {restrictive}");
        }
        EventKind::ValidationIssued { id, version }
        | EventKind::ValidationConsumed { id, version } => {
            req(&mut f, *id);
            let _ = write!(f, ", \"admin_version\": {version}");
        }
        EventKind::StreamRetransmit { src, dest, stream_seq, req: carried } => {
            let _ = write!(f, ", \"src\": {src}, \"dest\": {dest}, \"stream_seq\": {stream_seq}");
            if let Some(id) = carried {
                req(&mut f, *id);
            }
        }
        EventKind::LegDropped { src, dest } | EventKind::LegDuplicated { src, dest } => {
            let _ = write!(f, ", \"src\": {src}, \"dest\": {dest}");
        }
        EventKind::PartitionHealed { at_ms } => {
            let _ = write!(f, ", \"at_ms\": {at_ms}");
        }
        EventKind::SiteCrashed { site } | EventKind::SiteRejoined { site } => {
            let _ = write!(f, ", \"t_site\": {site}");
        }
    }
    f.push('}');
    f
}

/// Parses a journal previously written by [`events_to_json`] (or any
/// JSON array of objects in that shape).
pub fn events_from_json(input: &str) -> Result<Vec<Event>, String> {
    let root = parse(input)?;
    let items = root.as_arr().ok_or("expected a JSON array of events")?;
    items.iter().map(event_from_value).collect()
}

/// Decodes one event object (shared with the flight-dump reader). Site
/// and user fields are `u32`: a larger value is an error, not truncated.
pub fn event_from_value(v: &Value) -> Result<Event, String> {
    let field = |k: &str| -> Result<u64, String> {
        v.get(k).and_then(Value::as_u64).ok_or_else(|| format!("missing field {k:?}"))
    };
    let field32 = |k: &str| -> Result<u32, String> {
        u32::try_from(field(k)?).map_err(|_| format!("field {k:?} exceeds u32"))
    };
    let req =
        || -> Result<ReqId, String> { Ok(ReqId::new(field32("req_site")?, field("req_seq")?)) };
    let wait = || -> Result<DeferReason, String> {
        match v.get("wait").and_then(Value::as_str) {
            Some("version") => Ok(DeferReason::MissingVersion(field("wait_version")?)),
            Some("request") => Ok(DeferReason::MissingRequest(ReqId::new(
                field32("wait_site")?,
                field("wait_seq")?,
            ))),
            other => Err(format!("bad wait discriminant {other:?}")),
        }
    };
    let kind_name = v.get("kind").and_then(Value::as_str).ok_or("missing field \"kind\"")?;
    let kind = match kind_name {
        "req_generated" => EventKind::ReqGenerated { id: req()? },
        "req_received" => EventKind::ReqReceived { id: req()? },
        "req_duplicate" => EventKind::ReqDuplicate { id: req()? },
        "req_deferred" => EventKind::ReqDeferred { id: req()?, reason: wait()? },
        "req_executed" => EventKind::ReqExecuted { id: req()? },
        "req_inert" => EventKind::ReqInert { id: req()? },
        "req_denied" => EventKind::ReqDenied { id: req()? },
        "req_undone" => EventKind::ReqUndone { id: req()? },
        "req_stable" => EventKind::ReqStable { id: req()? },
        "check_local_denied" => EventKind::CheckLocalDenied { user: field32("user")? },
        "admin_received" => EventKind::AdminReceived { version: field("admin_version")? },
        "admin_deferred" => {
            EventKind::AdminDeferred { version: field("admin_version")?, reason: wait()? }
        }
        "admin_applied" => EventKind::AdminApplied {
            version: field("admin_version")?,
            restrictive: matches!(v.get("restrictive"), Some(Value::Bool(true))),
        },
        "validation_issued" => {
            EventKind::ValidationIssued { id: req()?, version: field("admin_version")? }
        }
        "validation_consumed" => {
            EventKind::ValidationConsumed { id: req()?, version: field("admin_version")? }
        }
        "stream_retransmit" => EventKind::StreamRetransmit {
            src: field32("src")?,
            dest: field32("dest")?,
            stream_seq: field("stream_seq")?,
            req: if v.get("req_site").is_some() { Some(req()?) } else { None },
        },
        "leg_dropped" => EventKind::LegDropped { src: field32("src")?, dest: field32("dest")? },
        "leg_duplicated" => {
            EventKind::LegDuplicated { src: field32("src")?, dest: field32("dest")? }
        }
        "partition_healed" => EventKind::PartitionHealed { at_ms: field("at_ms")? },
        "site_crashed" => EventKind::SiteCrashed { site: field32("t_site")? },
        "site_rejoined" => EventKind::SiteRejoined { site: field32("t_site")? },
        other => return Err(format!("unknown event kind {other:?}")),
    };
    Ok(Event {
        site: field32("site")?,
        doc: v.get("doc").and_then(Value::as_u64).unwrap_or(0),
        seq: field("seq")?,
        version: field("version")?,
        lamport: field("lamport")?,
        at: field("at")?,
        kind,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(site: u32, seq: u64) -> ReqId {
        ReqId::new(site, seq)
    }

    /// One event of every kind, exercising every payload shape.
    fn one_of_each() -> Vec<Event> {
        let kinds = vec![
            EventKind::ReqGenerated { id: rid(1, 1) },
            EventKind::ReqReceived { id: rid(1, 1) },
            EventKind::ReqDuplicate { id: rid(1, 1) },
            EventKind::ReqDeferred { id: rid(1, 2), reason: DeferReason::MissingVersion(3) },
            EventKind::ReqDeferred {
                id: rid(1, 3),
                reason: DeferReason::MissingRequest(rid(2, 1)),
            },
            EventKind::ReqExecuted { id: rid(1, 1) },
            EventKind::ReqInert { id: rid(1, 1) },
            EventKind::ReqDenied { id: rid(1, 1) },
            EventKind::ReqUndone { id: rid(1, 1) },
            EventKind::ReqStable { id: rid(1, 1) },
            EventKind::CheckLocalDenied { user: 7 },
            EventKind::AdminReceived { version: 4 },
            EventKind::AdminDeferred { version: 5, reason: DeferReason::MissingVersion(4) },
            EventKind::AdminApplied { version: 5, restrictive: true },
            EventKind::AdminApplied { version: 6, restrictive: false },
            EventKind::ValidationIssued { id: rid(1, 1), version: 7 },
            EventKind::ValidationConsumed { id: rid(1, 1), version: 7 },
            EventKind::StreamRetransmit { src: 0, dest: 2, stream_seq: 9, req: Some(rid(1, 1)) },
            EventKind::StreamRetransmit { src: 2, dest: 0, stream_seq: 10, req: None },
            EventKind::LegDropped { src: 0, dest: 1 },
            EventKind::LegDuplicated { src: 1, dest: 0 },
            EventKind::PartitionHealed { at_ms: 123 },
            EventKind::SiteCrashed { site: 2 },
            EventKind::SiteRejoined { site: 2 },
        ];
        kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| Event {
                site: (i % 3) as u32,
                doc: (i % 2) as u64 * 11,
                seq: i as u64 + 1,
                version: 2,
                lamport: i as u64 + 1,
                at: i as u64 * 10,
                kind,
            })
            .collect()
    }

    #[test]
    fn every_kind_round_trips() {
        let events = one_of_each();
        let json = events_to_json(&events);
        let back = events_from_json(&json).unwrap();
        assert_eq!(events, back);
    }

    #[test]
    fn u64_extremes_stay_exact() {
        let events = vec![Event {
            site: u32::MAX,
            doc: u64::MAX,
            seq: u64::MAX,
            version: u64::MAX,
            lamport: u64::MAX,
            at: u64::MAX,
            kind: EventKind::ReqStable { id: rid(u32::MAX, u64::MAX) },
        }];
        let back = events_from_json(&events_to_json(&events)).unwrap();
        assert_eq!(events, back);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "line1\nline2\t\"quoted\" \\ \u{1} ünïcode";
        let parsed = parse(&quote(s)).unwrap();
        assert_eq!(parsed.as_str(), Some(s));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\": 1} trailing").is_err());
        assert!(events_from_json("{\"not\": \"an array\"}").is_err());
        assert!(events_from_json("[{\"kind\": \"nonsense\"}]").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let nested = |open: &str, close: &str, n: usize| open.repeat(n) + "0" + &close.repeat(n);
        // Far past any thread's stack: without the cap the recursive
        // parser aborts the process here.
        for input in ["[".repeat(100_000), nested("[", "]", 100_000), "{\"a\": ".repeat(100_000)] {
            assert!(parse(&input).unwrap_err().contains("nesting"));
            assert!(events_from_json(&input).is_err());
        }
        assert!(parse(&nested("[", "]", MAX_DEPTH)).is_ok());
        assert!(parse(&nested("{\"a\": ", "}", MAX_DEPTH)).is_ok());
        assert!(parse(&nested("[", "]", MAX_DEPTH + 1)).is_err());
        assert!(parse(&nested("{\"a\": ", "}", MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn out_of_range_32_bit_fields_are_rejected_not_truncated() {
        // Each 32-bit field in turn is set to 2^32, which `as u32` would
        // have read back as 0.
        let cases = [
            (EventKind::ReqGenerated { id: rid(1, 1) }, "site"),
            (EventKind::ReqGenerated { id: rid(1, 1) }, "req_site"),
            (
                EventKind::ReqDeferred {
                    id: rid(1, 2),
                    reason: DeferReason::MissingRequest(rid(2, 1)),
                },
                "wait_site",
            ),
            (EventKind::CheckLocalDenied { user: 3 }, "user"),
            (EventKind::LegDropped { src: 4, dest: 5 }, "src"),
            (EventKind::LegDuplicated { src: 4, dest: 5 }, "dest"),
            (EventKind::StreamRetransmit { src: 4, dest: 5, stream_seq: 9, req: None }, "dest"),
            (EventKind::SiteCrashed { site: 6 }, "t_site"),
            (EventKind::SiteRejoined { site: 6 }, "t_site"),
        ];
        let too_big = u64::from(u32::MAX) + 1;
        for (kind, key) in cases {
            let ev = Event { site: 7, doc: 0, seq: 1, version: 0, lamport: 1, at: 0, kind };
            let json = events_to_json(&[ev]);
            let old = parse(&json).unwrap().as_arr().unwrap()[0].get(key).unwrap().clone();
            let old = format!("\"{key}\": {}", old.as_u64().unwrap());
            assert!(json.contains(&old), "{json} lacks {old}");
            let json = json.replacen(&old, &format!("\"{key}\": {too_big}"), 1);
            let err = events_from_json(&json).unwrap_err();
            assert!(err.contains(key), "{key}: {err}");
        }
    }

    #[test]
    fn parser_reads_report_style_documents() {
        // The flight dump embeds a MetricsReport rendered by dce-obs;
        // make sure floats and nested maps parse.
        let doc =
            "{\n  \"counters\": { \"a\": 1 },\n  \"histograms\": { \"h\": { \"mean\": 1.5 } }\n}\n";
        let v = parse(doc).unwrap();
        assert_eq!(v.get("counters").unwrap().get("a").unwrap().as_u64(), Some(1));
        assert_eq!(
            v.get("histograms").unwrap().get("h").unwrap().get("mean"),
            Some(&Value::Float(1.5))
        );
    }
}
