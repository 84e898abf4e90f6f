//! Per-connection protocol state machine for the reactor core.
//!
//! A [`Conn`] owns a connection's buffered wire bytes and pending response
//! bytes but never touches a socket or the compile engine: the reactor
//! feeds it raw bytes ([`Conn::push_bytes`]), asks it to make progress
//! ([`Conn::advance`]), and gets back [`Action`]s describing work to
//! dispatch. That split keeps every protocol edge case — partial lines,
//! pipelined requests, batches, oversized lines — unit-testable without
//! sockets or threads.
//!
//! One reader frames every line by its newline, under the line-length
//! limit. A complete line whose top-level `op` is `compile_batch` is split
//! into entries by one walk over it ([`walk`]): the control fields are
//! parsed and checked, the entries are only scanned, so no entry is parsed
//! on the reactor thread, and a malformed batch is answered before any of
//! its entries leaves. The entries then dispatch in request order, at most
//! `min(parallelism, batch_parallelism)` in flight, each finding its lane
//! on its own; their results come back out of order into
//! request-order slots, and the aggregate response renders once every slot
//! is filled. While a batch is active the connection reads nothing more,
//! so a line pipelined behind it is answered after it. Every other line is
//! handed to the reactor whole ([`Action::Line`]).

use crate::json::{self as js, Json};
use crate::server::{error_response, ServeOptions};
use crate::stats::StatsRegistry;
use std::sync::Arc;
use std::time::Instant;

/// Per-connection parsing limits and dispatch knobs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ConnLimits {
    /// Request-level options (default timeout, batch fan-out cap).
    pub opts: ServeOptions,
    /// Longest tolerated request line, batch lines included, in bytes.
    pub max_line_bytes: usize,
}

/// Batch-level defaults shared by every entry job of one batch.
#[derive(Debug, Default)]
pub(crate) struct BatchDefaults {
    /// `defaults.machine`, spliced into entries that omit `machine`.
    pub machine: Option<String>,
    /// `defaults.config`, spliced into entries that omit `config`.
    pub config: Option<String>,
}

/// Work the state machine hands back to the reactor.
#[derive(Debug)]
pub(crate) enum Action {
    /// A complete stand-alone request line (trimmed, non-empty). At most
    /// one per [`Conn::advance`] call: the reactor marks the connection
    /// busy and dispatches it to a worker.
    Line(String),
    /// One entry of the connection's active batch, to compile into result
    /// slot `idx`.
    Entry {
        /// Result slot index, in request order.
        idx: usize,
        /// The entry's raw JSON text.
        text: String,
        /// Batch-level `timeout_ms`, if the client sent one.
        timeout_ms: Option<u64>,
        /// Batch-level defaults for entries omitting machine/config.
        defaults: Arc<BatchDefaults>,
    },
    /// A fatal guard tripped (oversized line); the typed error response is
    /// already queued — flush it, then close the connection.
    CloseAfterFlush,
}

/// A batch line split into entries, while its entries are answered.
#[derive(Debug)]
struct Batch {
    /// The batch line; each entry leaves as a copy of its span.
    line: Vec<u8>,
    /// Byte span of each entry in `line`, in request order.
    entries: Vec<(usize, usize)>,
    timeout_ms: Option<u64>,
    /// In-flight entry cap: `min(parallelism, batch_parallelism)`. The cap
    /// deliberately exceeds the worker count so the queue stays non-empty
    /// and a worker can start the next entry without waiting for the
    /// reactor to observe the previous completion first.
    cap: usize,
    defaults: Arc<BatchDefaults>,
    /// Request-ordered result slots; `None` until the entry is answered.
    results: Vec<Option<Arc<str>>>,
    /// Entries dispatched so far: `entries[sent]` leaves next.
    sent: usize,
    /// Entries answered so far.
    done: usize,
}

impl Batch {
    /// Hand out entries in request order while the in-flight cap allows.
    fn dispatch(&mut self, actions: &mut Vec<Action>) {
        while self.sent < self.entries.len() && self.sent - self.done < self.cap {
            let (start, end) = self.entries[self.sent];
            actions.push(Action::Entry {
                idx: self.sent,
                text: String::from_utf8_lossy(&self.line[start..end]).into_owned(),
                timeout_ms: self.timeout_ms,
                defaults: Arc::clone(&self.defaults),
            });
            self.sent += 1;
        }
    }

    /// Queue the aggregate response: keys in sorted order, as every other
    /// response renders, and the results in request order.
    fn respond(self, out: &mut Vec<u8>) {
        let body: usize = self.results.iter().flatten().map(|d| d.len() + 1).sum();
        out.reserve(body + 64);
        out.extend_from_slice(b"{\"n\":");
        out.extend_from_slice(self.results.len().to_string().as_bytes());
        out.extend_from_slice(b",\"ok\":true,\"op\":\"compile_batch\",\"results\":[");
        for (i, slot) in self.results.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            out.extend_from_slice(slot.as_deref().expect("every entry answered").as_bytes());
        }
        out.extend_from_slice(b"]}\n");
    }
}

/// One connection's protocol state.
pub(crate) struct Conn {
    /// Unconsumed wire bytes.
    buf: Vec<u8>,
    /// Leading bytes of `buf` already searched for a newline.
    scanned: usize,
    /// Pending response bytes.
    out: Vec<u8>,
    /// How much of `out` has been written to the socket.
    out_pos: usize,
    /// The batch whose entries are being answered, if any.
    batch: Option<Batch>,
    /// A stand-alone line job is in flight on a worker.
    pub(crate) busy: bool,
    /// Close once `out` drains.
    pub(crate) closing: bool,
    /// The peer half-closed; finish outstanding work, flush, then close.
    pub(crate) peer_closed: bool,
    /// Last wire activity (read bytes or write progress), for idle sweeps.
    pub(crate) last_activity: Instant,
}

fn push_doc(out: &mut Vec<u8>, doc: &Json) {
    out.extend_from_slice(doc.render().as_bytes());
    out.push(b'\n');
}

impl Conn {
    pub(crate) fn new() -> Conn {
        Conn {
            buf: Vec::new(),
            scanned: 0,
            out: Vec::new(),
            out_pos: 0,
            batch: None,
            busy: false,
            closing: false,
            peer_closed: false,
            last_activity: Instant::now(),
        }
    }

    /// Buffer freshly read wire bytes.
    pub(crate) fn push_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
        self.last_activity = Instant::now();
    }

    /// Mark non-read activity (write progress) for the idle sweep.
    pub(crate) fn note_activity(&mut self) {
        self.last_activity = Instant::now();
    }

    /// Response bytes not yet written, if any.
    pub(crate) fn pending_write(&self) -> Option<&[u8]> {
        let rest = &self.out[self.out_pos..];
        (!rest.is_empty()).then_some(rest)
    }

    /// Whether any response bytes await the socket.
    pub(crate) fn has_pending_write(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// Record `n` response bytes as written.
    pub(crate) fn consume_written(&mut self, n: usize) {
        self.out_pos += n;
        debug_assert!(self.out_pos <= self.out.len());
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
    }

    /// Whether the reactor should keep READ interest: back-pressure pauses
    /// reads while a response is unflushed, a line job is in flight, or a
    /// batch is being answered.
    pub(crate) fn wants_read(&self) -> bool {
        !(self.closing
            || self.peer_closed
            || self.busy
            || self.batch.is_some()
            || self.has_pending_write())
    }

    /// Whether the server itself owes this connection work (a line job or
    /// a batch in flight). Such connections are exempt from the idle sweep
    /// — the slowness is ours, not the client's.
    pub(crate) fn waiting_on_server(&self) -> bool {
        self.busy || self.batch.is_some()
    }

    /// Queue a rendered response for a stand-alone line and clear `busy`.
    pub(crate) fn on_line_response(&mut self, doc: &str) {
        self.out.extend_from_slice(doc.as_bytes());
        self.out.push(b'\n');
        self.busy = false;
    }

    /// Queue a typed error response and close once it flushes.
    pub(crate) fn fail_and_close(&mut self, message: &str) {
        push_doc(&mut self.out, &error_response(message));
        self.closing = true;
    }

    /// Deliver one batch entry's rendered result. Call [`Conn::advance`]
    /// afterwards: the freed in-flight slot lets the next entry leave, and
    /// the last result queues the aggregate response.
    pub(crate) fn on_entry_result(&mut self, idx: usize, doc: Arc<str>) {
        if let Some(batch) = self.batch.as_mut() {
            if let Some(slot @ None) = batch.results[..batch.sent].get_mut(idx) {
                *slot = Some(doc);
                batch.done += 1;
            }
        }
    }

    /// Drive the state machine over the buffered bytes, returning dispatch
    /// actions. Stops at the first [`Action::Line`] (it is answered before
    /// more lines are parsed) and when more input, a free in-flight slot,
    /// or an entry result is needed.
    pub(crate) fn advance(&mut self, limits: &ConnLimits, stats: &StatsRegistry) -> Vec<Action> {
        let mut actions = Vec::new();
        while !self.closing && !self.busy {
            if let Some(batch) = self.batch.as_mut() {
                batch.dispatch(&mut actions);
                if batch.done < batch.entries.len() {
                    break;
                }
                if let Some(batch) = self.batch.take() {
                    batch.respond(&mut self.out);
                }
                continue;
            }
            let Some(line) = self.next_line(limits, stats, &mut actions) else {
                break;
            };
            match read_line(line, limits) {
                Read::Line(line) => {
                    let line = String::from_utf8_lossy(&line).trim().to_string();
                    if !line.is_empty() {
                        actions.push(Action::Line(line));
                        break;
                    }
                }
                Read::Batch(batch) => {
                    stats.batch();
                    self.batch = Some(batch);
                }
                Read::Fault(message) => {
                    stats.error();
                    push_doc(&mut self.out, &error_response(message));
                }
            }
        }
        actions
    }

    /// Take the next complete line off the wire bytes, without its newline,
    /// skipping blank space between lines. `None` when no line is complete
    /// yet, or when the line is longer than the limit: the typed error is
    /// then queued and the connection closes after it.
    fn next_line(
        &mut self,
        limits: &ConnLimits,
        stats: &StatsRegistry,
        actions: &mut Vec<Action>,
    ) -> Option<Vec<u8>> {
        if self.scanned == 0 {
            let lead = self
                .buf
                .iter()
                .take_while(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n'))
                .count();
            self.buf.drain(..lead);
        }
        let newline = self.buf[self.scanned..]
            .iter()
            .position(|&b| b == b'\n')
            .map(|i| self.scanned + i);
        if newline.unwrap_or(self.buf.len()) > limits.max_line_bytes {
            stats.oversize_close();
            push_doc(
                &mut self.out,
                &error_response("request line exceeds the server's length limit"),
            );
            self.closing = true;
            actions.push(Action::CloseAfterFlush);
            return None;
        }
        let Some(end) = newline else {
            self.scanned = self.buf.len();
            return None;
        };
        self.scanned = 0;
        let rest = self.buf.split_off(end + 1);
        let mut line = std::mem::replace(&mut self.buf, rest);
        line.truncate(end);
        Some(line)
    }
}

/// What one complete line is, as [`read_line`] reads it.
enum Read {
    /// Not a batch: the line goes to a worker whole.
    Line(Vec<u8>),
    /// A batch, checked and split into entries.
    Batch(Batch),
    /// A batch answered with this error; none of its entries runs.
    Fault(String),
}

/// Read a complete line. It is a batch when its top-level `op`, decoded as
/// `parse_json` decodes it, is `compile_batch`. A line the walk cannot
/// finish is a batch only if an `op` read before the fault said so;
/// otherwise it goes to a worker, whose parser reports the fault.
fn read_line(line: Vec<u8>, limits: &ConnLimits) -> Read {
    let mut head = Head::default();
    let walked = walk(&line, &mut head);
    if !head.batch {
        return Read::Line(line);
    }
    match walked {
        Err(message) => Read::Fault(message),
        Ok(()) => match head.into_batch(line, limits) {
            Ok(batch) => Read::Batch(batch),
            Err(message) => Read::Fault(message.to_string()),
        },
    }
}

/// The top-level fields [`walk`] read. A later duplicate key replaces an
/// earlier one, as `parse_json` keeps the last.
#[derive(Default)]
struct Head {
    /// The last `op` read names `compile_batch`.
    batch: bool,
    timeout_ms: Option<Json>,
    parallelism: Option<Json>,
    defaults: Option<Json>,
    /// Entry spans of `requests`; `None` when it is missing or no array.
    requests: Option<Vec<(usize, usize)>>,
}

impl Head {
    /// Check the fields of a batch line in one fixed order, so that every
    /// spelling of a batch fails alike, and set the batch up.
    fn into_batch(self, line: Vec<u8>, limits: &ConnLimits) -> Result<Batch, &'static str> {
        let timeout_ms = match self.timeout_ms.as_ref().map(Json::as_f64) {
            None => None,
            Some(Some(ms)) if ms >= 0.0 => Some(ms as u64),
            Some(_) => return Err("bad `timeout_ms`"),
        };
        let parallelism = match self.parallelism.as_ref().map(Json::as_f64) {
            None => limits.opts.batch_parallelism,
            Some(Some(p)) if p >= 1.0 => p as usize,
            Some(_) => return Err("bad `parallelism`"),
        };
        let entries = self
            .requests
            .ok_or("compile_batch op missing `requests` array")?;
        let default = |key| {
            let value = self.defaults.as_ref()?.get(key)?;
            value.as_str().map(str::to_string)
        };
        Ok(Batch {
            line,
            results: vec![None; entries.len()],
            entries,
            timeout_ms,
            cap: parallelism.min(limits.opts.batch_parallelism).max(1),
            defaults: Arc::new(BatchDefaults {
                machine: default("machine"),
                config: default("config"),
            }),
            sent: 0,
            done: 0,
        })
    }
}

/// One walk over a line's top-level object. `op` and the control fields
/// are parsed, `requests` is split into entry spans, and every other value
/// is skipped unparsed. A first key `op` naming another op settles the
/// line at once, so a `compile` line costs one short decode. Keys and
/// parsed values follow `parse_json`'s grammar, so a syntax error there
/// reads as `parse_json` reports it; skipped values are only scanned.
fn walk(line: &[u8], head: &mut Head) -> Result<(), String> {
    let syntax = |e: js::JsonParseError| e.to_string();
    let parse = |pos: &mut usize| js::parse_value(line, pos).map_err(syntax);
    let mut pos = 0;
    js::expect(line, &mut pos, b'{').map_err(syntax)?;
    let mut first = true;
    loop {
        js::skip_ws(line, &mut pos);
        let key = js::parse_key(line, &mut pos).map_err(syntax)?;
        js::skip_ws(line, &mut pos);
        js::expect(line, &mut pos, b':').map_err(syntax)?;
        js::skip_ws(line, &mut pos);
        match key.as_ref() {
            "op" => {
                head.batch = parse(&mut pos)?.as_str() == Some("compile_batch");
                if first && !head.batch {
                    return Ok(());
                }
            }
            "timeout_ms" => head.timeout_ms = Some(parse(&mut pos)?),
            "parallelism" => head.parallelism = Some(parse(&mut pos)?),
            "defaults" => head.defaults = Some(parse(&mut pos)?),
            "requests" => head.requests = entry_spans(line, &mut pos)?,
            _ => pos = js::scan_value(line, pos).map_err(syntax)?,
        }
        first = false;
        js::skip_ws(line, &mut pos);
        match line.get(pos) {
            Some(b',') => pos += 1,
            Some(b'}') => break,
            _ => return Err(syntax(js::fail(pos, "expected `,` or `}`"))),
        }
    }
    pos += 1;
    js::skip_ws(line, &mut pos);
    if pos != line.len() {
        return Err(syntax(js::fail(pos, "trailing characters after document")));
    }
    Ok(())
}

/// Split the `requests` value at `pos` into entry spans with
/// [`js::scan_value`], leaving `pos` after it; `None` when the value is
/// not an array. The entries are scanned, never parsed.
fn entry_spans(line: &[u8], pos: &mut usize) -> Result<Option<Vec<(usize, usize)>>, String> {
    if line.get(*pos) != Some(&b'[') {
        *pos = js::scan_value(line, *pos).map_err(|e| e.to_string())?;
        return Ok(None);
    }
    *pos += 1;
    let mut spans = Vec::new();
    loop {
        js::skip_ws(line, pos);
        if line.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Some(spans));
        }
        let end = js::scan_value(line, *pos).map_err(|_| "malformed `requests` array")?;
        spans.push((*pos, end));
        *pos = end;
        js::skip_ws(line, pos);
        match line.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Some(spans));
            }
            _ => return Err("expected `,` or `]` in `requests`".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn limits() -> ConnLimits {
        ConnLimits {
            opts: ServeOptions {
                default_timeout: Duration::from_secs(10),
                batch_parallelism: 8,
            },
            max_line_bytes: 1 << 20,
        }
    }

    fn out_str(conn: &Conn) -> String {
        String::from_utf8_lossy(conn.pending_write().unwrap_or(b"")).into_owned()
    }

    #[test]
    fn plain_line_emits_once_complete() {
        let (limits, stats) = (limits(), StatsRegistry::new());
        let mut conn = Conn::new();
        let line = b"{\"op\":\"ping\"}\n";
        // Byte-at-a-time: nothing fires until the newline lands.
        for &b in &line[..line.len() - 1] {
            conn.push_bytes(&[b]);
            assert!(conn.advance(&limits, &stats).is_empty());
        }
        conn.push_bytes(b"\n");
        let actions = conn.advance(&limits, &stats);
        assert!(
            matches!(actions.as_slice(), [Action::Line(l)] if l == "{\"op\":\"ping\"}"),
            "{actions:?}"
        );
    }

    #[test]
    fn pipelined_lines_come_one_per_advance() {
        let (limits, stats) = (limits(), StatsRegistry::new());
        let mut conn = Conn::new();
        conn.push_bytes(b"{\"op\":\"ping\"}\n{\"op\":\"stats\"}\n");
        let first = conn.advance(&limits, &stats);
        assert!(matches!(first.as_slice(), [Action::Line(l)] if l.contains("ping")));
        // The reactor answered inline; the next line parses on re-entry.
        conn.on_line_response("{\"ok\":true}");
        let second = conn.advance(&limits, &stats);
        assert!(matches!(second.as_slice(), [Action::Line(l)] if l.contains("stats")));
    }

    #[test]
    fn busy_connection_defers_parsing() {
        let (limits, stats) = (limits(), StatsRegistry::new());
        let mut conn = Conn::new();
        conn.push_bytes(b"{\"op\":\"ping\"}\n");
        conn.busy = true;
        assert!(conn.advance(&limits, &stats).is_empty());
        assert!(!conn.wants_read());
        conn.on_line_response("{\"ok\":true}"); // clears busy
        conn.consume_written(conn.pending_write().unwrap().len());
        assert_eq!(conn.advance(&limits, &stats).len(), 1);
    }

    #[test]
    fn streamed_batch_dispatches_entries_under_cap_and_assembles_in_order() {
        let (limits, stats) = (limits(), StatsRegistry::new());
        let mut conn = Conn::new();
        conn.push_bytes(
            b"{\"op\":\"compile_batch\",\"timeout_ms\":100,\"parallelism\":2,\
              \"defaults\":{\"config\":\"c\",\"machine\":\"m\"},\
              \"requests\":[{\"loop\":\"a\"},{\"loop\":\"b\"},{\"loop\":\"c\"}]}\n",
        );
        // parallelism=2 caps in-flight entries at 2, so only two dispatch now.
        let actions = conn.advance(&limits, &stats);
        let entries: Vec<_> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Entry {
                    idx,
                    text,
                    timeout_ms,
                    defaults,
                } => Some((*idx, text.clone(), *timeout_ms, Arc::clone(defaults))),
                _ => None,
            })
            .collect();
        assert_eq!(entries.len(), 2, "{actions:?}");
        assert_eq!(entries[0].0, 0);
        assert_eq!(entries[0].1, "{\"loop\":\"a\"}");
        assert_eq!(entries[0].2, Some(100));
        assert_eq!(entries[0].3.machine.as_deref(), Some("m"));
        assert_eq!(entries[0].3.config.as_deref(), Some("c"));
        assert!(!conn.wants_read(), "an active batch pauses reads");
        // Completing slot 1 first exercises out-of-order reassembly and
        // frees budget for the third entry.
        conn.on_entry_result(1, Arc::from("{\"r\":1}"));
        let more = conn.advance(&limits, &stats);
        assert!(
            matches!(more.as_slice(), [Action::Entry { idx: 2, .. }]),
            "{more:?}"
        );
        conn.on_entry_result(0, Arc::from("{\"r\":0}"));
        conn.on_entry_result(2, Arc::from("{\"r\":2}"));
        assert!(conn.advance(&limits, &stats).is_empty());
        assert_eq!(
            out_str(&conn),
            "{\"n\":3,\"ok\":true,\"op\":\"compile_batch\",\
             \"results\":[{\"r\":0},{\"r\":1},{\"r\":2}]}\n"
        );
        assert_eq!(stats.snapshot().batches, 1);
    }

    #[test]
    fn empty_batch_answers_immediately() {
        let (limits, stats) = (limits(), StatsRegistry::new());
        let mut conn = Conn::new();
        conn.push_bytes(b"{\"op\":\"compile_batch\",\"requests\":[]}\n");
        assert!(conn.advance(&limits, &stats).is_empty());
        assert_eq!(
            out_str(&conn),
            "{\"n\":0,\"ok\":true,\"op\":\"compile_batch\",\"results\":[]}\n"
        );
    }

    /// One dispatched batch entry: slot, parsed text, timeout, defaults.
    type Dispatched = (usize, Json, Option<u64>, Option<String>, Option<String>);

    /// Drive one batch line through a fresh connection, delivered whole or
    /// one byte at a time. Entries are answered `{"r":idx}` only once the
    /// wire side has stalled, so the peak in-flight count is the cap.
    /// Returns the dispatched entries, that peak, the response bytes and
    /// the `batches` count.
    fn stream_batch(line: &[u8], bytewise: bool) -> (Vec<Dispatched>, usize, String, u64) {
        let (limits, stats) = (limits(), StatsRegistry::new());
        let mut conn = Conn::new();
        let mut dispatched = Vec::new();
        let mut pending = Vec::new();
        let mut peak = 0;
        let mut take = |actions: Vec<Action>, pending: &mut Vec<usize>| {
            for action in actions {
                match action {
                    Action::Entry {
                        idx,
                        text,
                        timeout_ms,
                        defaults,
                    } => {
                        dispatched.push((
                            idx,
                            js::parse_json(&text).expect("entry text is one JSON value"),
                            timeout_ms,
                            defaults.machine.clone(),
                            defaults.config.clone(),
                        ));
                        pending.push(idx);
                    }
                    other => panic!("expected only entries, got {other:?}"),
                }
            }
        };
        let chunks: Vec<&[u8]> = if bytewise {
            line.chunks(1).collect()
        } else {
            vec![line]
        };
        for chunk in chunks {
            conn.push_bytes(chunk);
            take(conn.advance(&limits, &stats), &mut pending);
            peak = peak.max(pending.len());
        }
        while !pending.is_empty() {
            let idx = pending.remove(0);
            conn.on_entry_result(idx, Arc::from(format!("{{\"r\":{idx}}}")));
            take(conn.advance(&limits, &stats), &mut pending);
            peak = peak.max(pending.len());
        }
        (dispatched, peak, out_str(&conn), stats.snapshot().batches)
    }

    #[test]
    fn non_canonical_batches_stream_like_the_canonical_line() {
        let canonical: &[u8] = b"{\"op\":\"compile_batch\",\"timeout_ms\":100,\"parallelism\":2,\
            \"defaults\":{\"config\":\"c\",\"machine\":\"m\"},\
            \"requests\":[{\"loop\":\"a\"},{\"loop\":\"b\"},{\"loop\":\"c\"}]}\n";
        let spellings: [&[u8]; 4] = [
            // `requests` first, the control fields and `op` after it.
            b"{\"requests\":[{\"loop\":\"a\"},{\"loop\":\"b\"},{\"loop\":\"c\"}],\
              \"timeout_ms\":100,\"parallelism\":2,\
              \"defaults\":{\"config\":\"c\",\"machine\":\"m\"},\"op\":\"compile_batch\"}\n",
            // Spaced JSON, as Python's default `json.dumps` writes it.
            b"{\"op\": \"compile_batch\", \"timeout_ms\": 100, \"parallelism\": 2, \
              \"defaults\": {\"config\": \"c\", \"machine\": \"m\"}, \
              \"requests\": [{\"loop\": \"a\"}, {\"loop\": \"b\"}, {\"loop\": \"c\"}]}\n",
            // An unknown control field after the canonical prefix.
            b"{\"op\":\"compile_batch\",\"zzz\":1,\"timeout_ms\":100,\"parallelism\":2,\
              \"defaults\":{\"config\":\"c\",\"machine\":\"m\"},\
              \"requests\":[{\"loop\":\"a\"},{\"loop\":\"b\"},{\"loop\":\"c\"}]}\n",
            // The canonical prefix with a control field after `requests`.
            b"{\"op\":\"compile_batch\",\"parallelism\":2,\
              \"defaults\":{\"config\":\"c\",\"machine\":\"m\"},\
              \"requests\":[{\"loop\":\"a\"},{\"loop\":\"b\"},{\"loop\":\"c\"}],\
              \"timeout_ms\":100}\n",
        ];
        let expected = stream_batch(canonical, false);
        let (entries, peak, out, batches) = &expected;
        assert_eq!(entries.len(), 3);
        for (i, (idx, _, timeout_ms, machine, config)) in entries.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*timeout_ms, Some(100));
            assert_eq!(machine.as_deref(), Some("m"));
            assert_eq!(config.as_deref(), Some("c"));
        }
        assert_eq!(*peak, 2, "parallelism caps the entries in flight");
        assert_eq!(
            out,
            "{\"n\":3,\"ok\":true,\"op\":\"compile_batch\",\
             \"results\":[{\"r\":0},{\"r\":1},{\"r\":2}]}\n"
        );
        assert_eq!(*batches, 1);
        for line in spellings {
            for bytewise in [false, true] {
                assert_eq!(
                    stream_batch(line, bytewise),
                    expected,
                    "{} (bytewise: {bytewise})",
                    String::from_utf8_lossy(line)
                );
            }
        }
    }

    #[test]
    fn non_batch_lines_stay_whole_lines() {
        let (limits, stats) = (limits(), StatsRegistry::new());
        for line in [
            // A non-batch line whose `op` is not first.
            "{\"request\":{\"loop\":\"x\"},\"op\":\"compile\"}",
            "{\"op\": \"ping\"}",
            // `parse_json` keeps the last of duplicate keys: not a batch.
            "{\"op\":\"compile_batch\",\"op\":\"ping\",\"requests\":[]}",
            // A first key `op` naming another op settles the line; the
            // worker answers the later duplicate as an unknown op.
            "{\"op\":\"ping\",\"op\":\"compile_batch\",\"requests\":[]}",
            "not json",
        ] {
            let mut conn = Conn::new();
            conn.push_bytes(format!("{line}\n").as_bytes());
            let actions = conn.advance(&limits, &stats);
            assert!(
                matches!(actions.as_slice(), [Action::Line(l)] if l == line),
                "{line}: {actions:?}"
            );
        }
        assert_eq!(stats.snapshot().batches, 0);
    }

    #[test]
    fn non_canonical_batches_keep_the_bad_field_errors() {
        let (limits, stats) = (limits(), StatsRegistry::new());
        for (line, error) in [
            (
                "{\"timeout_ms\":-3,\"requests\":[],\"op\":\"compile_batch\"}",
                "bad `timeout_ms`",
            ),
            (
                "{\"requests\":[], \"parallelism\": 0, \"op\": \"compile_batch\"}",
                "bad `parallelism`",
            ),
            (
                "{\"requests\":5,\"op\":\"compile_batch\"}",
                "compile_batch op missing `requests` array",
            ),
            // No `requests` key at all, in both spellings: an error, never a
            // whole line for a worker.
            (
                "{\"op\": \"compile_batch\"}",
                "compile_batch op missing `requests` array",
            ),
            (
                "{\"op\":\"compile_batch\",\"timeout_ms\":5}",
                "compile_batch op missing `requests` array",
            ),
        ] {
            let mut conn = Conn::new();
            conn.push_bytes(format!("{line}\n{{\"op\":\"ping\"}}\n").as_bytes());
            let actions = conn.advance(&limits, &stats);
            let out = out_str(&conn);
            assert_eq!(
                out,
                format!("{{\"error\":\"{error}\",\"ok\":false}}\n"),
                "{line}"
            );
            // The connection survives: the next line is a plain request.
            assert!(
                matches!(actions.as_slice(), [Action::Line(l)] if l.contains("ping")),
                "{line}: {actions:?}"
            );
        }
        assert_eq!(stats.snapshot().errors, 5);
        assert_eq!(stats.snapshot().batches, 0);
    }

    #[test]
    fn bad_timeout_in_header_errors_and_drains_the_line() {
        let (limits, stats) = (limits(), StatsRegistry::new());
        let mut conn = Conn::new();
        conn.push_bytes(b"{\"op\":\"compile_batch\",\"timeout_ms\":-3,\"requests\":[");
        assert!(conn.advance(&limits, &stats).is_empty());
        assert_eq!(out_str(&conn), "", "nothing is answered before the newline");
        // The line completes: it errors, and the next line works.
        conn.push_bytes(b"{\"loop\":\"x\"}]}\n{\"op\":\"ping\"}\n");
        let actions = conn.advance(&limits, &stats);
        assert!(out_str(&conn).contains("bad `timeout_ms`"));
        assert!(
            matches!(actions.as_slice(), [Action::Line(l)] if l.contains("ping")),
            "{actions:?}"
        );
    }

    #[test]
    fn malformed_batch_dispatches_no_entry() {
        let (limits, stats) = (limits(), StatsRegistry::new());
        let mut conn = Conn::new();
        conn.push_bytes(b"{\"op\":\"compile_batch\",\"requests\":[{\"loop\":\"a\"},");
        assert!(conn.advance(&limits, &stats).is_empty());
        // Garbage where the next entry should be: the batch is answered
        // with its error, and entry 0 never leaves.
        conn.push_bytes(b":::\n");
        assert!(conn.advance(&limits, &stats).is_empty());
        assert_eq!(
            out_str(&conn),
            "{\"error\":\"malformed `requests` array\",\"ok\":false}\n"
        );
        assert_eq!(stats.snapshot().errors, 1);
        assert_eq!(stats.snapshot().batches, 0);
        conn.consume_written(conn.pending_write().unwrap().len());
        conn.push_bytes(b"{\"op\":\"ping\"}\n");
        assert_eq!(conn.advance(&limits, &stats).len(), 1);
    }

    #[test]
    fn pipelined_line_waits_for_the_batch_response() {
        let (limits, stats) = (limits(), StatsRegistry::new());
        let mut conn = Conn::new();
        conn.push_bytes(
            b"{\"op\":\"compile_batch\",\"requests\":[{\"loop\":\"a\"},{\"loop\":\"b\"}]}\n\
              {\"op\":\"ping\"}\n",
        );
        let actions = conn.advance(&limits, &stats);
        assert!(
            matches!(
                actions.as_slice(),
                [Action::Entry { idx: 0, .. }, Action::Entry { idx: 1, .. }]
            ),
            "{actions:?}"
        );
        conn.on_entry_result(1, Arc::from("{\"r\":1}"));
        assert!(conn.advance(&limits, &stats).is_empty(), "entry 0 pends");
        assert_eq!(out_str(&conn), "");
        conn.on_entry_result(0, Arc::from("{\"r\":0}"));
        let actions = conn.advance(&limits, &stats);
        assert_eq!(
            out_str(&conn),
            "{\"n\":2,\"ok\":true,\"op\":\"compile_batch\",\
             \"results\":[{\"r\":0},{\"r\":1}]}\n",
            "the batch response is queued first"
        );
        assert!(
            matches!(actions.as_slice(), [Action::Line(l)] if l == "{\"op\":\"ping\"}"),
            "{actions:?}"
        );
    }

    #[test]
    fn oversized_line_gets_typed_error_then_close() {
        let (mut limits, stats) = (limits(), StatsRegistry::new());
        limits.max_line_bytes = 64;
        let mut conn = Conn::new();
        conn.push_bytes(&[b'x'; 100]);
        let actions = conn.advance(&limits, &stats);
        assert!(
            matches!(actions.as_slice(), [Action::CloseAfterFlush]),
            "{actions:?}"
        );
        assert!(conn.closing);
        assert!(out_str(&conn).contains("length limit"));
        assert_eq!(stats.snapshot().oversize_closed, 1);
    }

    #[test]
    fn oversized_batch_entry_is_guarded_too() {
        let mut huge_entry = b"{\"op\":\"compile_batch\",\"requests\":[{\"loop\":\"".to_vec();
        huge_entry.extend_from_slice(&[b'y'; 100]);
        // Every entry is small; the whole line is over the limit.
        let small_entries = b"{\"op\":\"compile_batch\",\"requests\":[{\"loop\":\"a\"},\
            {\"loop\":\"b\"},{\"loop\":\"c\"},{\"loop\":\"d\"}]}\n";
        for line in [&huge_entry[..], &small_entries[..]] {
            let (mut limits, stats) = (limits(), StatsRegistry::new());
            limits.max_line_bytes = 64;
            let mut conn = Conn::new();
            conn.push_bytes(line);
            let actions = conn.advance(&limits, &stats);
            assert!(
                matches!(actions.as_slice(), [Action::CloseAfterFlush]),
                "{actions:?}"
            );
            assert!(conn.closing);
            assert!(out_str(&conn).contains("length limit"));
            assert_eq!(stats.snapshot().oversize_closed, 1);
        }
    }

    #[test]
    fn back_pressure_pauses_reads_while_writes_pend() {
        let mut conn = Conn::new();
        assert!(conn.wants_read());
        conn.on_line_response("{\"ok\":true}");
        assert!(!conn.wants_read(), "unflushed response pauses reads");
        let n = conn.pending_write().unwrap().len();
        conn.consume_written(n);
        assert!(conn.wants_read());
    }
}
