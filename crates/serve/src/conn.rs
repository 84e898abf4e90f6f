//! Per-connection protocol state machine for the reactor core.
//!
//! A [`Conn`] owns a connection's buffered wire bytes and pending response
//! bytes but never touches a socket or the compile engine: the reactor
//! feeds it raw bytes ([`Conn::push_bytes`]), asks it to make progress
//! ([`Conn::advance`]), and gets back [`Action`]s describing work to
//! dispatch. That split keeps every protocol edge case — partial lines,
//! pipelined requests, streamed batches, oversized lines — unit-testable
//! without sockets or threads.
//!
//! The interesting state is the **streamed batch**. A canonical
//! `compile_batch` line (`op` first, `requests` last) is recognised from
//! its first bytes; the control fields are parsed as they arrive, and each
//! entry of `requests` is handed to the compile workers the moment its
//! closing brace lands — entry `k` compiles while entry `k+1` is still on
//! the wire. Entry dispatch stops while `inflight == cap`, which (via
//! [`Conn::wants_read`]) pauses read interest and lets TCP back-pressure
//! throttle a fast client. Results come back out of order and are
//! reassembled into request-order slots; the aggregate response renders
//! once the wire side is fully parsed and every slot is filled.
//!
//! Every other line waits for its newline. If it is a batch in another
//! spelling — `requests` before `op`, whitespace between tokens — it is
//! rewritten into the canonical spelling (`canonical_batch`) and streamed
//! exactly like a canonical line, so each entry of every batch gets its
//! own lane, admission decision and worker-pool slot. Any other line is
//! handed to the reactor whole ([`Action::Line`]).

use crate::json::{self as js, Json, JsonParseError, Scan};
use crate::server::{error_response, ServeOptions};
use crate::stats::StatsRegistry;
use std::sync::Arc;
use std::time::Instant;

/// The exact first bytes of a canonical batch line. Every other spelling
/// of a batch is rewritten to start with them before it streams.
const BATCH_PREFIX: &[u8] = b"{\"op\":\"compile_batch\"";

/// Per-connection parsing limits and dispatch knobs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ConnLimits {
    /// Request-level options (default timeout, batch fan-out cap).
    pub opts: ServeOptions,
    /// Longest tolerated request line / unconsumed residue, in bytes.
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
    /// one per [`Conn::advance`] call: the reactor either answers it inline
    /// or marks the connection busy and dispatches it to a worker.
    Line(String),
    /// One complete batch entry to compile into result slot `idx` of batch
    /// generation `gen` (stale generations are dropped on completion).
    Entry {
        /// Batch generation the entry belongs to.
        gen: u64,
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Accumulating a line; still deciding whether it streams as a batch.
    Line,
    /// The line does not open with the canonical batch prefix: wait for its
    /// newline, then rewrite it if it is a batch, else emit it whole.
    WholeLine,
    /// Streaming a canonical batch body (state in `Conn::batch`).
    Batch,
    /// A batch aborted mid-line: the error response is queued; discard wire
    /// bytes until the terminating newline, then resume `Line`.
    DrainLine,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Inside `requests`, expecting an entry value or `]`.
    Entry,
    /// After an entry, expecting `,` or `]`.
    Separator,
    /// After `]`, expecting `}` and the line's newline.
    Tail,
    /// Wire side fully parsed; waiting for outstanding entry results.
    Await,
}

#[derive(Debug)]
struct BatchState {
    phase: Phase,
    timeout_ms: Option<u64>,
    /// In-flight entry cap: `min(parallelism, batch_parallelism)`. The cap
    /// deliberately exceeds the worker count so the queue stays non-empty
    /// and a worker can start the next entry without waiting for the
    /// reactor to observe the previous completion first.
    cap: usize,
    defaults: Arc<BatchDefaults>,
    next_idx: usize,
    /// Request-ordered result slots; `None` while the entry is compiling.
    results: Vec<Option<Arc<str>>>,
    done: usize,
    inflight: usize,
    /// Entry count, known once `]` is parsed.
    total: Option<usize>,
}

/// Outcome of one header-parse attempt over buffered (possibly truncated)
/// bytes.
enum Header {
    /// Undecidable yet; wait for more bytes.
    NeedMore,
    /// A second `op` key names another op. `parse_json` keeps the last of
    /// duplicate keys, so the whole line decides what this request is.
    Fallback,
    /// A batch-level protocol error; respond and drain the line.
    Error(Json),
    /// Canonical: control fields parsed, `requests` array opened.
    Commit {
        /// Bytes consumed through the `[` of `requests`.
        consumed: usize,
        state: BatchState,
    },
}

/// One connection's protocol state.
pub(crate) struct Conn {
    /// Unconsumed wire bytes.
    buf: Vec<u8>,
    /// Pending response bytes.
    out: Vec<u8>,
    /// How much of `out` has been written to the socket.
    out_pos: usize,
    mode: Mode,
    batch: Option<BatchState>,
    /// A stand-alone line job is in flight on a worker.
    pub(crate) busy: bool,
    /// Close once `out` drains.
    pub(crate) closing: bool,
    /// The peer half-closed; finish outstanding work, flush, then close.
    pub(crate) peer_closed: bool,
    /// Last wire activity (read bytes or write progress), for idle sweeps.
    pub(crate) last_activity: Instant,
    /// Batch generation; bumped on abort/finish so late entry results from
    /// a dead batch are dropped.
    gen: u64,
}

fn push_doc(out: &mut Vec<u8>, doc: &Json) {
    out.extend_from_slice(doc.render().as_bytes());
    out.push(b'\n');
}

fn find_newline(buf: &[u8]) -> Option<usize> {
    buf.iter().position(|&b| b == b'\n')
}

impl Conn {
    pub(crate) fn new() -> Conn {
        Conn {
            buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            mode: Mode::Line,
            batch: None,
            busy: false,
            closing: false,
            peer_closed: false,
            last_activity: Instant::now(),
            gen: 0,
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
    /// batch has no free in-flight slot.
    pub(crate) fn wants_read(&self) -> bool {
        if self.closing || self.peer_closed || self.busy || self.has_pending_write() {
            return false;
        }
        match self.mode {
            Mode::Line | Mode::WholeLine | Mode::DrainLine => true,
            Mode::Batch => match &self.batch {
                Some(st) => st.phase != Phase::Await && st.inflight < st.cap,
                None => true,
            },
        }
    }

    /// Whether the server itself owes this connection work (a line job or
    /// batch entries in flight). Such connections are exempt from the idle
    /// sweep — the slowness is ours, not the client's.
    pub(crate) fn waiting_on_server(&self) -> bool {
        self.busy || self.batch.as_ref().is_some_and(|st| st.inflight > 0)
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

    /// Deliver one batch entry's rendered result. Stale generations (from
    /// an aborted batch) are dropped. Call [`Conn::advance`] afterwards:
    /// the freed in-flight slot may unblock parsing, and the last result
    /// triggers the aggregate response.
    pub(crate) fn on_entry_result(&mut self, gen: u64, idx: usize, doc: Arc<str>) {
        if gen != self.gen {
            return;
        }
        if let Some(st) = self.batch.as_mut() {
            if let Some(slot @ None) = st.results.get_mut(idx) {
                *slot = Some(doc);
                st.done += 1;
                st.inflight -= 1;
            }
        }
    }

    /// Drive the state machine over the buffered bytes, returning dispatch
    /// actions. Stops at the first [`Action::Line`] (the reactor decides
    /// how to serve it before more lines are parsed) and when more input,
    /// a free in-flight slot, or an entry result is needed.
    pub(crate) fn advance(&mut self, limits: &ConnLimits, stats: &StatsRegistry) -> Vec<Action> {
        let mut actions = Vec::new();
        loop {
            if self.closing {
                break;
            }
            let progressed = match self.mode {
                Mode::Line => self.step_line(limits, stats, &mut actions),
                Mode::WholeLine => self.step_whole_line(limits, stats, &mut actions),
                Mode::Batch => self.step_batch(limits, stats, &mut actions),
                Mode::DrainLine => self.step_drain(),
            };
            if matches!(actions.last(), Some(Action::Line(_))) || !progressed {
                break;
            }
        }
        actions
    }

    fn oversize(&mut self, stats: &StatsRegistry, actions: &mut Vec<Action>) {
        stats.oversize_close();
        push_doc(
            &mut self.out,
            &error_response("request line exceeds the server's length limit"),
        );
        self.closing = true;
        actions.push(Action::CloseAfterFlush);
    }

    fn step_line(
        &mut self,
        limits: &ConnLimits,
        stats: &StatsRegistry,
        actions: &mut Vec<Action>,
    ) -> bool {
        if self.busy {
            return false;
        }
        // Blank space between lines (including the newlines themselves) is
        // skipped.
        let lead = self
            .buf
            .iter()
            .take_while(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n'))
            .count();
        if lead > 0 {
            self.buf.drain(..lead);
        }
        if self.buf.is_empty() {
            return false;
        }
        let probe = self.buf.len().min(BATCH_PREFIX.len());
        if self.buf[..probe] != BATCH_PREFIX[..probe] {
            self.mode = Mode::WholeLine;
            return true;
        }
        if self.buf.len() < BATCH_PREFIX.len() {
            return false; // prefix still undecided — a handful of bytes
        }
        let header = match find_newline(&self.buf) {
            // The whole line is here: every outcome is decidable now.
            Some(i) => header_of(&self.buf[..i], limits, true),
            None => header_of(&self.buf, limits, false),
        };
        match header {
            Header::NeedMore => {
                if self.buf.len() > limits.max_line_bytes {
                    self.oversize(stats, actions);
                    return true;
                }
                false
            }
            Header::Fallback => {
                self.mode = Mode::WholeLine;
                true
            }
            Header::Error(doc) => {
                stats.error();
                push_doc(&mut self.out, &doc);
                self.mode = Mode::DrainLine;
                true
            }
            Header::Commit { consumed, state } => {
                self.buf.drain(..consumed);
                stats.batch();
                self.batch = Some(state);
                self.mode = Mode::Batch;
                true
            }
        }
    }

    fn step_whole_line(
        &mut self,
        limits: &ConnLimits,
        stats: &StatsRegistry,
        actions: &mut Vec<Action>,
    ) -> bool {
        if self.busy {
            return false;
        }
        match find_newline(&self.buf) {
            None => {
                if self.buf.len() > limits.max_line_bytes {
                    self.oversize(stats, actions);
                    return true;
                }
                false
            }
            Some(i) => {
                self.mode = Mode::Line;
                if let Some(canonical) = canonical_batch(&self.buf[..i]) {
                    // Never longer than the line it replaces; `step_line`
                    // streams it on the next turn.
                    self.buf.splice(..i, canonical);
                    return true;
                }
                let line = String::from_utf8_lossy(&self.buf[..i]).trim().to_string();
                self.buf.drain(..=i);
                if !line.is_empty() {
                    actions.push(Action::Line(line));
                }
                true
            }
        }
    }

    fn step_batch(
        &mut self,
        limits: &ConnLimits,
        stats: &StatsRegistry,
        actions: &mut Vec<Action>,
    ) -> bool {
        enum Fate {
            More,
            Stall,
            StallMaybeOversize,
            Abort { doc: Json, line_consumed: bool },
            Finish,
        }
        let gen = self.gen;
        let fate = {
            let Some(st) = self.batch.as_mut() else {
                self.mode = Mode::Line;
                return true;
            };
            let buf = &mut self.buf;
            match st.phase {
                Phase::Entry => {
                    let mut pos = 0;
                    js::skip_ws(buf, &mut pos);
                    if pos > 0 {
                        buf.drain(..pos);
                    }
                    match buf.first() {
                        None => Fate::Stall,
                        Some(b']') => {
                            buf.drain(..1);
                            st.total = Some(st.next_idx);
                            st.phase = Phase::Tail;
                            Fate::More
                        }
                        Some(_) if st.inflight >= st.cap => Fate::Stall,
                        Some(_) => match js::scan_value(buf, 0) {
                            Err(_) => Fate::Abort {
                                doc: error_response("malformed `requests` array"),
                                line_consumed: false,
                            },
                            Ok(Scan::Partial) => Fate::StallMaybeOversize,
                            Ok(Scan::Complete(end)) => {
                                let text = String::from_utf8_lossy(&buf[..end]).into_owned();
                                buf.drain(..end);
                                actions.push(Action::Entry {
                                    gen,
                                    idx: st.next_idx,
                                    text,
                                    timeout_ms: st.timeout_ms,
                                    defaults: Arc::clone(&st.defaults),
                                });
                                st.results.push(None);
                                st.next_idx += 1;
                                st.inflight += 1;
                                st.phase = Phase::Separator;
                                Fate::More
                            }
                        },
                    }
                }
                Phase::Separator => {
                    let mut pos = 0;
                    js::skip_ws(buf, &mut pos);
                    if pos > 0 {
                        buf.drain(..pos);
                    }
                    match buf.first() {
                        None => Fate::Stall,
                        Some(b',') => {
                            buf.drain(..1);
                            st.phase = Phase::Entry;
                            Fate::More
                        }
                        Some(b']') => {
                            buf.drain(..1);
                            st.total = Some(st.next_idx);
                            st.phase = Phase::Tail;
                            Fate::More
                        }
                        Some(_) => Fate::Abort {
                            doc: error_response("expected `,` or `]` in `requests`"),
                            line_consumed: false,
                        },
                    }
                }
                Phase::Tail => match find_newline(buf) {
                    None => Fate::StallMaybeOversize,
                    Some(i) => {
                        let line = &buf[..i];
                        let mut pos = 0;
                        js::skip_ws(line, &mut pos);
                        let fate = if line.get(pos) != Some(&b'}') {
                            Fate::Abort {
                                doc: error_response(
                                    "compile_batch fields after `requests` are not supported",
                                ),
                                line_consumed: true,
                            }
                        } else {
                            pos += 1;
                            js::skip_ws(line, &mut pos);
                            if pos != line.len() {
                                Fate::Abort {
                                    doc: error_response("trailing characters after document"),
                                    line_consumed: true,
                                }
                            } else {
                                st.phase = Phase::Await;
                                Fate::More
                            }
                        };
                        buf.drain(..=i);
                        fate
                    }
                },
                Phase::Await => {
                    if st.total == Some(st.done) {
                        Fate::Finish
                    } else {
                        Fate::Stall
                    }
                }
            }
        };
        match fate {
            Fate::More => true,
            Fate::Stall => false,
            Fate::StallMaybeOversize => {
                if self.buf.len() > limits.max_line_bytes {
                    self.batch = None;
                    self.gen += 1;
                    self.oversize(stats, actions);
                    return true;
                }
                false
            }
            Fate::Abort { doc, line_consumed } => {
                self.batch = None;
                self.gen += 1;
                stats.error();
                push_doc(&mut self.out, &doc);
                self.mode = if line_consumed {
                    Mode::Line
                } else {
                    Mode::DrainLine
                };
                true
            }
            Fate::Finish => {
                let st = self.batch.take().expect("finishing batch state");
                self.gen += 1;
                self.mode = Mode::Line;
                let n = st.results.len();
                let body: usize = st
                    .results
                    .iter()
                    .map(|r| r.as_ref().map_or(0, |d| d.len() + 1))
                    .sum();
                // Keys in sorted order, as every other response renders.
                let mut out = String::with_capacity(body + 64);
                out.push_str("{\"n\":");
                out.push_str(&n.to_string());
                out.push_str(",\"ok\":true,\"op\":\"compile_batch\",\"results\":[");
                for (i, slot) in st.results.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(slot.as_deref().expect("all batch slots filled"));
                }
                out.push_str("]}\n");
                self.out.extend_from_slice(out.as_bytes());
                true
            }
        }
    }

    fn step_drain(&mut self) -> bool {
        match find_newline(&self.buf) {
            Some(i) => {
                self.buf.drain(..=i);
                self.mode = Mode::Line;
                true
            }
            None => {
                // Everything buffered belongs to the doomed line.
                self.buf.clear();
                false
            }
        }
    }
}

/// Parse the control-field prefix of a canonical batch line. `strict` means
/// the slice is a complete line (a newline followed it), so parse failures
/// are final; otherwise failures mean "wait for more bytes". The walk
/// follows `parse_json`'s grammar, so a syntax error reads as `parse_json`
/// would report it. Unknown control fields are skipped unparsed. A complete
/// line always commits or errors, unless a second `op` key names another op.
fn header_of(bytes: &[u8], limits: &ConnLimits, strict: bool) -> Header {
    let syntax = |e: JsonParseError| {
        if strict {
            Header::Error(error_response(e.to_string()))
        } else {
            Header::NeedMore
        }
    };
    let missing_requests =
        || Header::Error(error_response("compile_batch op missing `requests` array"));
    let mut pos = BATCH_PREFIX.len();
    let mut timeout_ms: Option<u64> = None;
    let mut requested = limits.opts.batch_parallelism;
    let mut defaults = BatchDefaults::default();
    loop {
        js::skip_ws(bytes, &mut pos);
        match bytes.get(pos) {
            Some(b',') => pos += 1,
            Some(b'}') => {
                pos += 1;
                js::skip_ws(bytes, &mut pos);
                return match (strict, pos == bytes.len()) {
                    (false, _) => Header::NeedMore,
                    (true, true) => missing_requests(),
                    (true, false) => syntax(js::fail(pos, "trailing characters after document")),
                };
            }
            _ => return syntax(js::fail(pos, "expected `,` or `}`")),
        }
        js::skip_ws(bytes, &mut pos);
        let key = match js::parse_key(bytes, &mut pos) {
            Ok(k) => k,
            Err(e) => return syntax(e),
        };
        js::skip_ws(bytes, &mut pos);
        if let Err(e) = js::expect(bytes, &mut pos, b':') {
            return syntax(e);
        }
        if key.as_ref() == "requests" {
            js::skip_ws(bytes, &mut pos);
            return match bytes.get(pos) {
                None => syntax(js::fail(pos, "unexpected end of input")),
                Some(b'[') => {
                    let cap = requested.min(limits.opts.batch_parallelism).max(1);
                    Header::Commit {
                        consumed: pos + 1,
                        state: BatchState {
                            phase: Phase::Entry,
                            timeout_ms,
                            cap,
                            defaults: Arc::new(defaults),
                            next_idx: 0,
                            results: Vec::new(),
                            done: 0,
                            inflight: 0,
                            total: None,
                        },
                    }
                }
                Some(_) => missing_requests(),
            };
        }
        let control = matches!(
            key.as_ref(),
            "op" | "timeout_ms" | "parallelism" | "defaults"
        );
        // A value must be complete before it is interpreted or skipped; on
        // a complete line the parser below reports what is wrong with it.
        match js::scan_value(bytes, pos) {
            Ok(Scan::Complete(end)) if !control => {
                pos = end;
                continue;
            }
            Ok(Scan::Complete(_)) => {}
            _ if !strict => return Header::NeedMore,
            _ => {}
        }
        let value = match js::parse_value(bytes, &mut pos) {
            Ok(v) => v,
            Err(e) => return syntax(e),
        };
        match key.as_ref() {
            "op" if value.as_str() != Some("compile_batch") => return Header::Fallback,
            "timeout_ms" => match value.as_f64() {
                Some(ms) if ms >= 0.0 => timeout_ms = Some(ms as u64),
                _ => return Header::Error(error_response("bad `timeout_ms`")),
            },
            "parallelism" => match value.as_f64() {
                Some(p) if p >= 1.0 => requested = p as usize,
                _ => return Header::Error(error_response("bad `parallelism`")),
            },
            "defaults" => {
                defaults = BatchDefaults {
                    machine: value
                        .get("machine")
                        .and_then(Json::as_str)
                        .map(str::to_string),
                    config: value
                        .get("config")
                        .and_then(Json::as_str)
                        .map(str::to_string),
                };
            }
            _ => {}
        }
    }
}

/// The canonical spelling of a complete `compile_batch` line written with
/// another key order or layout, or `None` when the line is not a batch.
///
/// The top-level values are found with [`js::scan_value`] and copied as
/// bytes, so only `op` is parsed here; [`header_of`] then checks the
/// control values as it does on a canonical line. `op` is decoded as
/// `parse_json` decodes it, the last of duplicate keys winning, except that
/// a first key `op` naming another op settles the line at once: a
/// `{"op":"compile",…}` line costs one short decode, not a pass. The kept
/// fields follow [`BATCH_PREFIX`] with `requests` last; other keys are
/// dropped. The result is never longer than `line` and holds one `op` key,
/// so [`header_of`] commits or errors on it and never hands it back.
fn canonical_batch(line: &[u8]) -> Option<Vec<u8>> {
    const KEPT: [&str; 4] = ["timeout_ms", "parallelism", "defaults", "requests"];
    let mut spans: [Option<(usize, usize)>; 4] = [None; 4];
    let mut is_batch = false;
    let mut first = true;
    let mut pos = 0;
    js::skip_ws(line, &mut pos);
    js::expect(line, &mut pos, b'{').ok()?;
    loop {
        js::skip_ws(line, &mut pos);
        let key = js::parse_key(line, &mut pos).ok()?;
        js::skip_ws(line, &mut pos);
        js::expect(line, &mut pos, b':').ok()?;
        js::skip_ws(line, &mut pos);
        let start = pos;
        if key.as_ref() == "op" {
            is_batch = js::parse_value(line, &mut pos).ok()?.as_str() == Some("compile_batch");
            if first && !is_batch {
                return None;
            }
        } else {
            match js::scan_value(line, pos) {
                Ok(Scan::Complete(end)) => pos = end,
                _ => return None,
            }
        }
        if let Some(k) = KEPT.iter().position(|k| *k == key.as_ref()) {
            spans[k] = Some((start, pos));
        }
        first = false;
        js::skip_ws(line, &mut pos);
        match line.get(pos) {
            Some(b',') => pos += 1,
            Some(b'}') => break,
            _ => return None,
        }
    }
    pos += 1;
    js::skip_ws(line, &mut pos);
    if !is_batch || pos != line.len() {
        return None;
    }
    let mut out = Vec::with_capacity(line.len());
    out.extend_from_slice(BATCH_PREFIX);
    for (name, span) in KEPT.iter().zip(spans) {
        if let Some((a, b)) = span {
            out.extend_from_slice(b",\"");
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(b"\":");
            out.extend_from_slice(&line[a..b]);
        }
    }
    out.push(b'}');
    Some(out)
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
                    gen,
                    idx,
                    text,
                    timeout_ms,
                    defaults,
                } => Some((*gen, *idx, text.clone(), *timeout_ms, Arc::clone(defaults))),
                _ => None,
            })
            .collect();
        assert_eq!(entries.len(), 2, "{actions:?}");
        assert_eq!(entries[0].1, 0);
        assert_eq!(entries[0].2, "{\"loop\":\"a\"}");
        assert_eq!(entries[0].3, Some(100));
        assert_eq!(entries[0].4.machine.as_deref(), Some("m"));
        assert_eq!(entries[0].4.config.as_deref(), Some("c"));
        assert!(!conn.wants_read(), "cap reached: reads pause");
        // Completing slot 1 first exercises out-of-order reassembly and
        // frees budget for the third entry.
        let gen = entries[0].0;
        conn.on_entry_result(gen, 1, Arc::from("{\"r\":1}"));
        let more = conn.advance(&limits, &stats);
        assert!(
            matches!(more.as_slice(), [Action::Entry { idx: 2, .. }]),
            "{more:?}"
        );
        conn.on_entry_result(gen, 0, Arc::from("{\"r\":0}"));
        conn.on_entry_result(gen, 2, Arc::from("{\"r\":2}"));
        assert!(conn.advance(&limits, &stats).is_empty());
        assert_eq!(
            out_str(&conn),
            "{\"n\":3,\"ok\":true,\"op\":\"compile_batch\",\
             \"results\":[{\"r\":0},{\"r\":1},{\"r\":2}]}\n"
        );
        assert_eq!(stats.snapshot().batches, 1);
    }

    #[test]
    fn batch_streams_before_the_line_completes() {
        let (limits, stats) = (limits(), StatsRegistry::new());
        let mut conn = Conn::new();
        // Header plus one complete entry — the `]` is still on the wire.
        conn.push_bytes(b"{\"op\":\"compile_batch\",\"requests\":[{\"loop\":\"a\"},");
        let actions = conn.advance(&limits, &stats);
        assert!(
            matches!(actions.as_slice(), [Action::Entry { idx: 0, .. }]),
            "entry dispatched mid-line: {actions:?}"
        );
        // Rest of the line arrives; result lands; response renders.
        conn.push_bytes(b"{\"loop\":\"b\"}]}\n");
        let actions = conn.advance(&limits, &stats);
        assert!(matches!(actions.as_slice(), [Action::Entry { idx: 1, .. }]));
        conn.on_entry_result(conn.gen, 0, Arc::from("{\"r\":0}"));
        conn.on_entry_result(conn.gen, 1, Arc::from("{\"r\":1}"));
        assert!(conn.advance(&limits, &stats).is_empty());
        assert!(out_str(&conn).starts_with("{\"n\":2,"));
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
        let mut take = |actions: Vec<Action>, pending: &mut Vec<(u64, usize)>| {
            for action in actions {
                match action {
                    Action::Entry {
                        gen,
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
                        pending.push((gen, idx));
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
            let (gen, idx) = pending.remove(0);
            conn.on_entry_result(gen, idx, Arc::from(format!("{{\"r\":{idx}}}")));
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
        let spellings: [&[u8]; 3] = [
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
            // whole line for a worker and never a rewrite loop.
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
    fn control_fields_after_requests_are_rejected() {
        let (limits, stats) = (limits(), StatsRegistry::new());
        let mut conn = Conn::new();
        conn.push_bytes(b"{\"op\":\"compile_batch\",\"requests\":[],\"timeout_ms\":5}\n");
        assert!(conn.advance(&limits, &stats).is_empty());
        let out = out_str(&conn);
        assert!(out.contains("\"ok\":false"), "{out}");
        assert!(out.contains("after `requests`"), "{out}");
        assert_eq!(stats.snapshot().errors, 1);
        // The connection survives: a later line still parses.
        conn.consume_written(conn.pending_write().unwrap().len());
        conn.push_bytes(b"{\"op\":\"ping\"}\n");
        assert_eq!(conn.advance(&limits, &stats).len(), 1);
    }

    #[test]
    fn bad_timeout_in_header_errors_and_drains_the_line() {
        let (limits, stats) = (limits(), StatsRegistry::new());
        let mut conn = Conn::new();
        conn.push_bytes(b"{\"op\":\"compile_batch\",\"timeout_ms\":-3,\"requests\":[");
        assert!(conn.advance(&limits, &stats).is_empty());
        assert!(out_str(&conn).contains("bad `timeout_ms`"));
        // The rest of the doomed line is discarded; the next line works.
        conn.consume_written(conn.pending_write().unwrap().len());
        conn.push_bytes(b"{\"loop\":\"x\"}]}\n{\"op\":\"ping\"}\n");
        let actions = conn.advance(&limits, &stats);
        assert!(
            matches!(actions.as_slice(), [Action::Line(l)] if l.contains("ping")),
            "{actions:?}"
        );
    }

    #[test]
    fn aborted_batch_drops_stale_entry_results() {
        let (limits, stats) = (limits(), StatsRegistry::new());
        let mut conn = Conn::new();
        conn.push_bytes(b"{\"op\":\"compile_batch\",\"requests\":[{\"loop\":\"a\"},");
        let actions = conn.advance(&limits, &stats);
        let gen = match actions.as_slice() {
            [Action::Entry { gen, .. }] => *gen,
            other => panic!("expected entry, got {other:?}"),
        };
        // Garbage where the next entry should be: batch aborts.
        conn.push_bytes(b":::\n");
        assert!(conn.advance(&limits, &stats).is_empty());
        assert!(out_str(&conn).contains("\"ok\":false"));
        // The late result from the aborted batch is silently dropped.
        conn.on_entry_result(gen, 0, Arc::from("{\"r\":0}"));
        conn.consume_written(conn.pending_write().unwrap().len());
        conn.push_bytes(b"{\"op\":\"ping\"}\n");
        assert_eq!(conn.advance(&limits, &stats).len(), 1);
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
        let (mut limits, stats) = (limits(), StatsRegistry::new());
        limits.max_line_bytes = 64;
        let mut conn = Conn::new();
        conn.push_bytes(b"{\"op\":\"compile_batch\",\"requests\":[{\"loop\":\"");
        conn.push_bytes(&[b'y'; 100]);
        let actions = conn.advance(&limits, &stats);
        assert!(matches!(actions.as_slice(), [Action::CloseAfterFlush]));
        assert_eq!(stats.snapshot().oversize_closed, 1);
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
