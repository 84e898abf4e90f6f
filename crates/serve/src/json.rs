//! Minimal JSON value type, parser and writer.
//!
//! The wire protocol is JSON-lines and the offline build has no
//! serialisation crate, so the service carries its own small JSON
//! implementation.
//! Objects use [`BTreeMap`] so rendering is deterministic — the same
//! requirement that drives the canonical request encodings — and numbers are
//! kept as `f64` with integral values rendered without a fractional part.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Map a wire field name to its static spelling, so object keys on the hot
/// path are stored and compared without per-key heap allocations.
fn intern_key(key: &str) -> Option<&'static str> {
    Some(match key {
        "ok" => "ok",
        "op" => "op",
        "served" => "served",
        "result" => "result",
        "results" => "results",
        "error" => "error",
        "stats" => "stats",
        "n" => "n",
        "requests" => "requests",
        "defaults" => "defaults",
        "timeout_ms" => "timeout_ms",
        "parallelism" => "parallelism",
        "request" => "request",
        "loop" => "loop",
        "machine" => "machine",
        "config" => "config",
        "key" => "key",
        "name" => "name",
        "n_ops" => "n_ops",
        "ideal_ii" => "ideal_ii",
        "clustered_ii" => "clustered_ii",
        "n_copies" => "n_copies",
        "n_hoisted" => "n_hoisted",
        "ideal_ipc" => "ideal_ipc",
        "clustered_ipc" => "clustered_ipc",
        "normalized" => "normalized",
        "spills" => "spills",
        "mve_unroll" => "mve_unroll",
        "peak_float_pressure" => "peak_float_pressure",
        "spill_rounds" => "spill_rounds",
        "sim_ok" => "sim_ok",
        "diagnostics" => "diagnostics",
        "code" => "code",
        "slug" => "slug",
        "severity" => "severity",
        "stage" => "stage",
        "message" => "message",
        "vreg" => "vreg",
        "cycle" => "cycle",
        "cluster" => "cluster",
        "mem_hits" => "mem_hits",
        "disk_hits" => "disk_hits",
        "hits" => "hits",
        "misses" => "misses",
        "compiles" => "compiles",
        "dedup_waits" => "dedup_waits",
        "timeouts" => "timeouts",
        "errors" => "errors",
        "batches" => "batches",
        "evictions" => "evictions",
        "samples" => "samples",
        "p50_us" => "p50_us",
        "p90_us" => "p90_us",
        "p99_us" => "p99_us",
        "accepts" => "accepts",
        "conns_rejected" => "conns_rejected",
        "idle_closed" => "idle_closed",
        "oversize_closed" => "oversize_closed",
        "queue_samples" => "queue_samples",
        "queue_p50_us" => "queue_p50_us",
        "queue_p99_us" => "queue_p99_us",
        "latency_hist" => "latency_hist",
        "queue_hist" => "queue_hist",
        _ => return None,
    })
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; integral values render without a decimal point.
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is sorted, so rendering is deterministic. Keys
    /// are `Cow` so the fixed wire vocabulary (see `intern_key`) is
    /// stored allocation-free.
    Obj(BTreeMap<Cow<'static, str>, Json>),
    /// A pre-rendered JSON document, spliced verbatim into the output.
    /// Invariant: holds one valid single-line JSON value. Produced only by
    /// response assembly around cached result envelopes, never by the
    /// parser; cheap to clone so renderings can be shared across responses.
    Raw(std::sync::Arc<str>),
}

impl Json {
    /// Build an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            pairs
                .into_iter()
                .map(|(k, v)| (Cow::Borrowed(k), v))
                .collect(),
        )
    }

    /// The string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a `Num`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Member lookup, if this is an `Obj`.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The element list, if this is an `Arr`.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Render as a single-line JSON document.
    pub fn render(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(*n, out),
            Json::Str(s) => write_str(s, out),
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
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
            Json::Raw(doc) => out.push_str(doc),
        }
    }
}

fn write_num(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no NaN/Inf; the envelopes never produce them, but degrade
        // to null rather than emitting an unparseable token.
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n:?}");
    }
}

/// Escape `s` as a quoted JSON string into `out`. Crate-visible so hot
/// paths (batch entry encoding, response assembly) can render without
/// building a [`Json`] tree first.
pub(crate) fn write_str(s: &str, out: &mut String) {
    out.push('"');
    // Copy unescaped runs wholesale; every byte that needs escaping is
    // ASCII, so slicing at those positions stays on char boundaries.
    let bytes = s.as_bytes();
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.push_str(&s[start..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{:04x}", b);
            }
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// A JSON parse failure, with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonParseError {}

/// Parse a complete JSON document; trailing non-whitespace is an error.
pub fn parse_json(text: &str) -> Result<Json, JsonParseError> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(fail(pos, "trailing characters after document"));
    }
    Ok(value)
}

pub(crate) fn fail(offset: usize, message: impl Into<String>) -> JsonParseError {
    JsonParseError {
        offset,
        message: message.into(),
    }
}

pub(crate) fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

pub(crate) fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), JsonParseError> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(fail(*pos, format!("expected `{}`", b as char)))
    }
}

pub(crate) fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonParseError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(fail(*pos, "unexpected end of input")),
        Some(b'{') => parse_obj(bytes, pos),
        Some(b'[') => parse_arr(bytes, pos),
        Some(b'"') => parse_str(bytes, pos).map(Json::Str),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_num(bytes, pos),
    }
}

fn parse_lit(
    bytes: &[u8],
    pos: &mut usize,
    lit: &str,
    value: Json,
) -> Result<Json, JsonParseError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(fail(*pos, format!("expected `{lit}`")))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonParseError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let token = &bytes[start..*pos];
    // Small integers dominate the wire (counters, IIs, op counts); build
    // them directly instead of going through the general float parser.
    let (neg, digits) = match token.split_first() {
        Some((b'-', rest)) => (true, rest),
        _ => (false, token),
    };
    if !digits.is_empty() && digits.len() <= 15 && digits.iter().all(u8::is_ascii_digit) {
        let mut v: i64 = 0;
        for &d in digits {
            v = v * 10 + i64::from(d - b'0');
        }
        return Ok(Json::Num(if neg { -v as f64 } else { v as f64 }));
    }
    let text = std::str::from_utf8(token).expect("ascii slice");
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| fail(start, format!("bad number `{text}`")))
}

fn parse_str(bytes: &[u8], pos: &mut usize) -> Result<String, JsonParseError> {
    expect(bytes, pos, b'"')?;
    // Pre-scan to the closing quote: escape-free strings (object keys, most
    // payloads) copy out in one shot, and escaped ones get a right-sized
    // buffer instead of a realloc chain.
    let mut end = *pos;
    let mut escaped = false;
    while end < bytes.len() && bytes[end] != b'"' {
        if bytes[end] == b'\\' {
            escaped = true;
            end += 2;
        } else {
            end += 1;
        }
    }
    if !escaped && end < bytes.len() {
        let chunk =
            std::str::from_utf8(&bytes[*pos..end]).map_err(|_| fail(*pos, "invalid utf-8"))?;
        *pos = end + 1;
        return Ok(chunk.to_string());
    }
    let mut out = String::with_capacity(end.min(bytes.len()).saturating_sub(*pos));
    loop {
        match bytes.get(*pos) {
            None => return Err(fail(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| fail(*pos, "truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| fail(*pos, "non-ascii \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| fail(*pos, "bad \\u escape"))?;
                        // Surrogate pairs are not produced by our writer;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(fail(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume the whole run up to the next quote or escape in
                // one go — validating per character re-scans the rest of
                // the input and turns big payloads quadratic.
                let start = *pos;
                while *pos < bytes.len() && bytes[*pos] != b'"' && bytes[*pos] != b'\\' {
                    *pos += 1;
                }
                let chunk = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| fail(start, "invalid utf-8"))?;
                out.push_str(chunk);
            }
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonParseError> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(fail(*pos, "expected `,` or `]`")),
        }
    }
}

/// Parse an object key: escape-free keys (all of our wire vocabulary) are
/// matched against the intern table straight from the input slice, with no
/// allocation at all for known names.
pub(crate) fn parse_key(
    bytes: &[u8],
    pos: &mut usize,
) -> Result<Cow<'static, str>, JsonParseError> {
    if bytes.get(*pos) == Some(&b'"') {
        let start = *pos + 1;
        let mut end = start;
        while end < bytes.len() && bytes[end] != b'"' && bytes[end] != b'\\' {
            end += 1;
        }
        if bytes.get(end) == Some(&b'"') {
            let s = std::str::from_utf8(&bytes[start..end])
                .map_err(|_| fail(start, "invalid utf-8"))?;
            *pos = end + 1;
            return Ok(match intern_key(s) {
                Some(k) => Cow::Borrowed(k),
                None => Cow::Owned(s.to_string()),
            });
        }
    }
    parse_str(bytes, pos).map(Cow::Owned)
}

/// Outcome of [`scan_value`] over a possibly-truncated buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Scan {
    /// A complete value spans `start..end` (exclusive); `end` is the first
    /// byte after it.
    Complete(usize),
    /// The buffer ends before the value does; read more and retry.
    Partial,
}

/// Find the extent of one JSON value starting at `start`, without parsing
/// it. This is what lets the reactor's connection state machine dispatch
/// each batch entry the moment its closing brace arrives, while the rest of
/// the batch is still on the wire. The scan is structural only (string- and
/// escape-aware bracket matching); the dispatched slice still goes through
/// the real parser, which reports mismatched brackets and other nonsense.
///
/// `Err` means the first non-whitespace byte cannot start a JSON value.
/// A bare scalar that runs to the end of the buffer is `Partial` — it might
/// continue — so scalars only complete at a delimiter, which the JSON-lines
/// framing guarantees eventually arrives.
pub(crate) fn scan_value(bytes: &[u8], start: usize) -> Result<Scan, JsonParseError> {
    let mut pos = start;
    skip_ws(bytes, &mut pos);
    let Some(&first) = bytes.get(pos) else {
        return Ok(Scan::Partial);
    };
    match first {
        b'{' | b'[' => {
            let mut depth = 0usize;
            let mut in_str = false;
            let mut escape = false;
            while pos < bytes.len() {
                let b = bytes[pos];
                if in_str {
                    if escape {
                        escape = false;
                    } else if b == b'\\' {
                        escape = true;
                    } else if b == b'"' {
                        in_str = false;
                    }
                } else {
                    match b {
                        b'"' => in_str = true,
                        b'{' | b'[' => depth += 1,
                        b'}' | b']' => {
                            depth -= 1;
                            if depth == 0 {
                                return Ok(Scan::Complete(pos + 1));
                            }
                        }
                        _ => {}
                    }
                }
                pos += 1;
            }
            Ok(Scan::Partial)
        }
        b'"' => {
            pos += 1;
            let mut escape = false;
            while pos < bytes.len() {
                let b = bytes[pos];
                if escape {
                    escape = false;
                } else if b == b'\\' {
                    escape = true;
                } else if b == b'"' {
                    return Ok(Scan::Complete(pos + 1));
                }
                pos += 1;
            }
            Ok(Scan::Partial)
        }
        b't' | b'f' | b'n' | b'-' | b'+' | b'.' | b'0'..=b'9' => {
            while pos < bytes.len()
                && !matches!(
                    bytes[pos],
                    b',' | b'}' | b']' | b' ' | b'\t' | b'\n' | b'\r'
                )
            {
                pos += 1;
            }
            if pos == bytes.len() {
                Ok(Scan::Partial)
            } else {
                Ok(Scan::Complete(pos))
            }
        }
        _ => Err(fail(pos, "expected a JSON value")),
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonParseError> {
    expect(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_key(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(fail(*pos, "expected `,` or `}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_document() {
        let doc = Json::obj([
            ("op", Json::Str("compile".into())),
            ("n", Json::Num(42.0)),
            ("ratio", Json::Num(2.5)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            (
                "items",
                Json::Arr(vec![Json::Num(1.0), Json::Str("a\"b\\c\nd".into())]),
            ),
        ]);
        let text = doc.render();
        let back = parse_json(&text).unwrap();
        assert_eq!(back, doc);
        // Deterministic: rendering is a fixed point.
        assert_eq!(back.render(), text);
    }

    #[test]
    fn integral_numbers_have_no_fraction() {
        assert_eq!(Json::Num(3.0).render(), "3");
        assert_eq!(Json::Num(-7.0).render(), "-7");
        assert_eq!(Json::Num(2.5).render(), "2.5");
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = parse_json(" { \"a\" : [ 1 , \"x\\u0041\\t\" ] } ").unwrap();
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[1].as_str(),
            Some("xA\t")
        );
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_json("").is_err());
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("\"abc").is_err());
        assert!(parse_json("{\"a\":1} trailing").is_err());
        assert!(parse_json("truue").is_err());
    }

    #[test]
    fn scan_value_finds_extents_and_reports_partials() {
        let doc = br#"{"loop":"a[}\"]b","n":[1,2]} ,tail"#;
        assert_eq!(scan_value(doc, 0).unwrap(), Scan::Complete(28));
        // Every proper prefix of the object is partial, never an error.
        for cut in 1..28 {
            assert_eq!(
                scan_value(&doc[..cut], 0).unwrap(),
                Scan::Partial,
                "cut={cut}"
            );
        }
        // Scalars complete only at a delimiter.
        assert_eq!(scan_value(b"123", 0).unwrap(), Scan::Partial);
        assert_eq!(scan_value(b"123,", 0).unwrap(), Scan::Complete(3));
        assert_eq!(scan_value(b" true]", 0).unwrap(), Scan::Complete(5));
        assert_eq!(scan_value(b"\"ab\\\"c\"", 0).unwrap(), Scan::Complete(7));
        // A byte that cannot start a value is an error, not a stall.
        assert!(scan_value(b"}", 0).is_err());
        assert!(scan_value(b":1", 0).is_err());
        // Whitespace-only input is partial (the value hasn't started yet).
        assert_eq!(scan_value(b"  ", 0).unwrap(), Scan::Partial);
    }

    #[test]
    fn control_chars_escape_and_round_trip() {
        let s = Json::Str("\u{1}\u{1f}".into());
        let text = s.render();
        assert_eq!(text, "\"\\u0001\\u001f\"");
        assert_eq!(parse_json(&text).unwrap(), s);
    }
}
