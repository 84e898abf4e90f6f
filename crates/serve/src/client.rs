//! Blocking client for the JSON-lines compile protocol.
//!
//! Failures are typed ([`ClientError`]) so callers can distinguish a dead
//! peer (connection refused, reset, or closed — [`ClientError::is_transport`])
//! from a live server rejecting a request. The sharded client's failover
//! path retries transport errors on the next ring successor and surfaces
//! everything else unchanged.

use crate::envelope::{CompileRequest, CompileResult};
use crate::json::{parse_json, Json};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// A connected protocol client. One request/response pair in flight at a
/// time; the connection is reused across calls.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// A protocol failure, split by where it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// The peer is unreachable or hung up: connect failure, a read that
    /// returned 0 bytes, or a broken-pipe/reset write. Distinct from
    /// [`ClientError::Malformed`] so failover can tell "peer down" from
    /// "peer replied garbage".
    Disconnected(String),
    /// Transport-level IO failure other than a disconnect.
    Io(String),
    /// The reply arrived but violated the protocol.
    Malformed(String),
    /// The server processed the request and reported an error.
    Server(String),
    /// The server shed the request under load (`error_kind: "shed"`): the
    /// request is fine, the moment is not. `retry_after_ms` is the
    /// server's backoff hint; [`Client::compile_with_retry`] honors it.
    Shed {
        /// The server's backoff hint, in milliseconds.
        retry_after_ms: u64,
    },
    /// The server rejected the request as permanently over its resource
    /// limits (`error_kind: "rejected"`); retrying cannot help.
    Rejected(String),
    /// The request was invalid before it ever reached the wire (client-side
    /// canonicalisation failure in the sharded path).
    BadRequest(String),
}

impl ClientError {
    /// Whether retrying on another peer could help (the peer, not the
    /// request, is the problem).
    pub fn is_transport(&self) -> bool {
        matches!(self, ClientError::Disconnected(_) | ClientError::Io(_))
    }

    /// Whether retrying the same peer later could help.
    pub fn is_shed(&self) -> bool {
        matches!(self, ClientError::Shed { .. })
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Disconnected(m) => write!(f, "peer disconnected: {m}"),
            ClientError::Io(m) => write!(f, "io error: {m}"),
            ClientError::Malformed(m) => write!(f, "malformed reply: {m}"),
            ClientError::Server(m) => write!(f, "{m}"),
            ClientError::Shed { retry_after_ms } => {
                write!(f, "server overloaded, retry after {retry_after_ms} ms")
            }
            ClientError::Rejected(m) => write!(f, "{m}"),
            ClientError::BadRequest(m) => write!(f, "bad request: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

fn write_error(e: std::io::Error) -> ClientError {
    match e.kind() {
        std::io::ErrorKind::BrokenPipe
        | std::io::ErrorKind::ConnectionReset
        | std::io::ErrorKind::ConnectionAborted
        | std::io::ErrorKind::NotConnected => ClientError::Disconnected(e.to_string()),
        _ => ClientError::Io(e.to_string()),
    }
}

/// A compile response: the result plus how the server satisfied it
/// (`"cache"`, `"compiled"` or `"deduped"`).
#[derive(Debug, Clone, PartialEq)]
pub struct ServedResult {
    /// The artifact set.
    pub result: CompileResult,
    /// The server's `served` label.
    pub served: String,
}

impl ServedResult {
    /// Whether the server answered from its cache.
    pub fn is_cache_hit(&self) -> bool {
        self.served == "cache"
    }
}

fn served_from_entry(entry: &Json) -> Result<ServedResult, String> {
    let result = entry
        .get("result")
        .ok_or("compile response missing `result`")?;
    let result = CompileResult::from_json(result)?;
    let served = entry
        .get("served")
        .and_then(Json::as_str)
        .ok_or("compile response missing `served`")?
        .to_string();
    Ok(ServedResult { result, served })
}

/// Decode one batch response entry into its per-request slot.
fn decode_batch_entry(entry: &Json) -> Result<Result<ServedResult, String>, ClientError> {
    match entry.get("ok").and_then(Json::as_bool) {
        Some(true) => served_from_entry(entry)
            .map(Ok)
            .map_err(ClientError::Malformed),
        Some(false) => Ok(Err(entry
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("unknown server error")
            .to_string())),
        None => Err(ClientError::Malformed("batch entry missing `ok`".into())),
    }
}

/// Decode a canonical batch response by walking the line directly: each
/// entry is parsed, decoded, and dropped before the next, instead of
/// materialising the whole multi-hundred-KB response tree first. Returns
/// `None` when the line doesn't match the canonical ok-envelope shape;
/// the caller re-parses it as a tree for a precise error.
fn decode_batch_stream(line: &str) -> Option<Vec<Result<ServedResult, String>>> {
    use crate::json as js;
    let bytes = line.as_bytes();
    let mut pos = 0usize;
    js::skip_ws(bytes, &mut pos);
    js::expect(bytes, &mut pos, b'{').ok()?;
    let mut ok_flag = false;
    let mut out: Option<Vec<Result<ServedResult, String>>> = None;
    loop {
        js::skip_ws(bytes, &mut pos);
        let key = js::parse_key(bytes, &mut pos).ok()?;
        js::skip_ws(bytes, &mut pos);
        js::expect(bytes, &mut pos, b':').ok()?;
        if key.as_ref() == "results" {
            js::skip_ws(bytes, &mut pos);
            js::expect(bytes, &mut pos, b'[').ok()?;
            let mut v = Vec::new();
            js::skip_ws(bytes, &mut pos);
            if bytes.get(pos) == Some(&b']') {
                pos += 1;
            } else {
                loop {
                    let entry = js::parse_value(bytes, &mut pos).ok()?;
                    v.push(decode_batch_entry(&entry).ok()?);
                    js::skip_ws(bytes, &mut pos);
                    match bytes.get(pos) {
                        Some(b',') => pos += 1,
                        Some(b']') => {
                            pos += 1;
                            break;
                        }
                        _ => return None,
                    }
                }
            }
            out = Some(v);
        } else {
            let value = js::parse_value(bytes, &mut pos).ok()?;
            if key.as_ref() == "ok" {
                ok_flag = value.as_bool()?;
            }
        }
        js::skip_ws(bytes, &mut pos);
        match bytes.get(pos) {
            Some(b',') => pos += 1,
            Some(b'}') => {
                pos += 1;
                break;
            }
            _ => return None,
        }
    }
    js::skip_ws(bytes, &mut pos);
    if !ok_flag || pos != bytes.len() {
        return None;
    }
    out
}

/// Spread `ms` to a uniform-ish value in `[75%, 125%)` of itself, seeded
/// from the clock's sub-second nanos (no RNG dependency): enough to
/// de-synchronise shed clients backing off from the same hint.
fn jitter(ms: u64) -> u64 {
    let mut x = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| u64::from(d.subsec_nanos()))
        .unwrap_or(0)
        | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    let span = (ms / 2).max(1);
    ms - ms / 4 + x % span
}

impl Client {
    /// Connect to `addr` (e.g. `127.0.0.1:7878`).
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // One-line request/response turnarounds stall badly under Nagle's
        // algorithm (~40ms delayed-ACK pauses per round trip).
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            writer,
            reader: BufReader::new(stream),
        })
    }

    /// Write one request line and read back the matching response line.
    fn exchange(&mut self, request: &str) -> Result<String, ClientError> {
        writeln!(self.writer, "{request}").map_err(write_error)?;
        self.writer.flush().map_err(write_error)?;
        let mut line = String::new();
        loop {
            line.clear();
            match self.reader.read_line(&mut line) {
                // 0 bytes is EOF, not an empty line: the peer hung up.
                Ok(0) => {
                    return Err(ClientError::Disconnected(
                        "connection closed mid-exchange".into(),
                    ))
                }
                Ok(_) if line.trim().is_empty() => continue,
                Ok(_) => break,
                Err(e) => return Err(write_error(e)),
            }
        }
        Ok(line)
    }

    /// Check a parsed response's `ok` envelope. Typed overload errors
    /// (`error_kind` of `shed`/`rejected`) map to their own variants so
    /// callers can back off or give up instead of treating them as
    /// request failures.
    fn envelope_ok(doc: Json) -> Result<Json, ClientError> {
        match doc.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(doc),
            Some(false) => {
                let error = doc
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown server error")
                    .to_string();
                Err(match doc.get("error_kind").and_then(Json::as_str) {
                    Some("shed") => ClientError::Shed {
                        retry_after_ms: doc
                            .get("retry_after_ms")
                            .and_then(Json::as_f64)
                            .map(|v| v as u64)
                            .unwrap_or(100),
                    },
                    Some("rejected") => ClientError::Rejected(error),
                    _ => ClientError::Server(error),
                })
            }
            None => Err(ClientError::Malformed("response missing `ok`".into())),
        }
    }

    fn round_trip(&mut self, request: &Json) -> Result<Json, ClientError> {
        let line = self.exchange(&request.render())?;
        let doc = parse_json(line.trim()).map_err(|e| ClientError::Malformed(e.to_string()))?;
        Self::envelope_ok(doc)
    }

    /// Liveness check.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.round_trip(&Json::obj([("op", Json::Str("ping".into()))]))
            .map(|_| ())
    }

    /// Submit one compile job. `timeout_ms` bounds the server-side solve
    /// and any wait on an identical compile already in flight, never this
    /// request's own compile; `None` uses the server default.
    pub fn compile(
        &mut self,
        req: &CompileRequest,
        timeout_ms: Option<u64>,
    ) -> Result<ServedResult, ClientError> {
        let mut pairs = vec![
            ("op", Json::Str("compile".into())),
            ("request", req.to_json()),
        ];
        if let Some(ms) = timeout_ms {
            pairs.push(("timeout_ms", Json::Num(ms as f64)));
        }
        let doc = self.round_trip(&Json::obj(pairs))?;
        served_from_entry(&doc).map_err(ClientError::Malformed)
    }

    /// [`Client::compile`], but honoring shed responses: on
    /// [`ClientError::Shed`] the call sleeps out the server's
    /// `retry_after_ms` hint — doubled per attempt and jittered ±25% so a
    /// herd of shed clients does not re-arrive in lockstep — and resends,
    /// up to `max_retries` times. Returns the served result plus how many
    /// retries it took; any other error (including `Rejected`) surfaces
    /// immediately.
    pub fn compile_with_retry(
        &mut self,
        req: &CompileRequest,
        timeout_ms: Option<u64>,
        max_retries: u32,
    ) -> Result<(ServedResult, u32), ClientError> {
        let mut attempt = 0u32;
        loop {
            match self.compile(req, timeout_ms) {
                Ok(served) => return Ok((served, attempt)),
                Err(ClientError::Shed { retry_after_ms }) if attempt < max_retries => {
                    let backoff = retry_after_ms
                        .max(1)
                        .saturating_mul(1 << attempt.min(6))
                        .min(5_000);
                    std::thread::sleep(std::time::Duration::from_millis(jitter(backoff)));
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Submit many compile jobs as one `compile_batch` wire round trip.
    /// Returns one slot per request, in order: `Ok` with the served result,
    /// or `Err` with the server's per-entry error (a bad entry never fails
    /// its batch-mates). `parallelism` caps the server-side fan-out for
    /// this batch; `None` uses the server default.
    pub fn compile_batch(
        &mut self,
        reqs: &[CompileRequest],
        timeout_ms: Option<u64>,
        parallelism: Option<usize>,
    ) -> Result<Vec<Result<ServedResult, String>>, ClientError> {
        // Hoist the most common machine/config text into batch-level
        // defaults; matching entries omit those sections. A corpus-grid
        // sweep repeats a handful of machine models over hundreds of loops,
        // so this cuts roughly a third of the encoded batch.
        let modal = |section: fn(&CompileRequest) -> &str| -> Option<&str> {
            let mut counts: std::collections::HashMap<&str, usize> =
                std::collections::HashMap::new();
            for r in reqs {
                *counts.entry(section(r)).or_default() += 1;
            }
            counts
                .into_iter()
                // Tie-break on the text itself: max over bare counts would
                // resolve ties by HashMap iteration order and make the
                // encoded batch line nondeterministic across runs.
                .max_by_key(|&(s, n)| (n, s))
                .filter(|&(_, n)| n > 1)
                .map(|(s, _)| s)
        };
        let default_machine = modal(|r| &r.machine_text);
        let default_config = modal(|r| &r.config_text);
        // Hand-render the batch line in the canonical field order — `op`
        // first, `requests` last — so the server can stream the control
        // fields off the wire and then serve entries as they parse, and
        // each entry is one escape pass with no tree build.
        let payload: usize = reqs.iter().map(|r| r.loop_text.len() + 96).sum();
        let mut line = String::with_capacity(payload + 256);
        line.push_str("{\"op\":\"compile_batch\"");
        if let Some(ms) = timeout_ms {
            line.push_str(",\"timeout_ms\":");
            line.push_str(&ms.to_string());
        }
        if let Some(p) = parallelism {
            line.push_str(",\"parallelism\":");
            line.push_str(&p.to_string());
        }
        if default_machine.is_some() || default_config.is_some() {
            line.push_str(",\"defaults\":{");
            if let Some(c) = default_config {
                line.push_str("\"config\":");
                crate::json::write_str(c, &mut line);
            }
            if let Some(m) = default_machine {
                if default_config.is_some() {
                    line.push(',');
                }
                line.push_str("\"machine\":");
                crate::json::write_str(m, &mut line);
            }
            line.push('}');
        }
        line.push_str(",\"requests\":[");
        for (i, r) in reqs.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str("{\"loop\":");
            crate::json::write_str(&r.loop_text, &mut line);
            if default_machine != Some(r.machine_text.as_str()) {
                line.push_str(",\"machine\":");
                crate::json::write_str(&r.machine_text, &mut line);
            }
            if default_config != Some(r.config_text.as_str()) {
                line.push_str(",\"config\":");
                crate::json::write_str(&r.config_text, &mut line);
            }
            line.push('}');
        }
        line.push_str("]}");
        let resp = self.exchange(&line)?;
        let trimmed = resp.trim();
        // Fast path: decode the canonical response shape entry by entry
        // without materialising the full tree.
        let entries = match decode_batch_stream(trimmed) {
            Some(entries) => entries,
            None => {
                // Anything unexpected — batch-level errors included — goes
                // through the general parser for a precise diagnosis.
                let doc = Self::envelope_ok(
                    parse_json(trimmed).map_err(|e| ClientError::Malformed(e.to_string()))?,
                )?;
                let entries = doc.get("results").and_then(Json::as_arr).ok_or_else(|| {
                    ClientError::Malformed("batch response missing `results`".into())
                })?;
                entries
                    .iter()
                    .map(decode_batch_entry)
                    .collect::<Result<Vec<_>, _>>()?
            }
        };
        if entries.len() != reqs.len() {
            return Err(ClientError::Malformed(format!(
                "batch response has {} entries for {} requests",
                entries.len(),
                reqs.len()
            )));
        }
        Ok(entries)
    }

    /// Fetch the server's counters as a JSON object.
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        let doc = self.round_trip(&Json::obj([("op", Json::Str("stats".into()))]))?;
        doc.get("stats")
            .cloned()
            .ok_or_else(|| ClientError::Malformed("stats response missing `stats`".into()))
    }

    /// Ask the server to drain and stop.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.round_trip(&Json::obj([("op", Json::Str("shutdown".into()))]))
            .map(|_| ())
    }
}
