//! Thread-pool TCP compile server.
//!
//! The wire protocol is JSON-lines over plain TCP: each request is one JSON
//! object on one line, each response one JSON object on one line, and a
//! connection carries any number of request/response pairs in order.
//!
//! | request                                             | response                                             |
//! |-----------------------------------------------------|------------------------------------------------------|
//! | `{"op":"ping"}`                                     | `{"ok":true,"op":"ping"}`                            |
//! | `{"op":"compile","request":{...},"timeout_ms":N}`   | `{"ok":true,"op":"compile","served":S,"result":{..}}`|
//! | `{"op":"compile_batch","requests":[...],`           | `{"ok":true,"op":"compile_batch","n":N,`             |
//! | ` "timeout_ms":N,"parallelism":P}`                  | ` "results":[{"ok":true,"served":S,"result":{..}}    |
//! |                                                     |   \| {"ok":false,"error":"..."} , ...]}`             |
//! | `{"op":"stats"}`                                    | `{"ok":true,"op":"stats","stats":{...}}`             |
//! | `{"op":"shutdown"}`                                 | `{"ok":true,"op":"shutdown"}`, then the server stops |
//!
//! `served` is `"cache"`, `"compiled"` or `"deduped"`. Failures are
//! `{"ok":false,"error":"..."}` (the connection stays open). `timeout_ms`
//! is optional and clamps this request's wait, not the execution.
//!
//! A `compile_batch` carries any number of requests in one line and returns
//! one aggregated response with per-entry `served` labels in request order;
//! a malformed entry fails alone, never its batch-mates. Entries fan out
//! over a scoped worker set bounded by `min(parallelism, batch_parallelism
//! cap, n)`; identical keys inside one batch collapse through the engine's
//! in-flight table (first entry compiles, concurrent twins dedup, later
//! twins hit the cache).
//!
//! Canonical batch lines put `op` first and `requests` last (control fields
//! in between). A server that has no fan-out to offer (one core, or a
//! parallelism cap of 1) serves such lines by streaming: each entry is
//! parsed, served, and its response rendered before the next is read, so
//! only one entry is ever resident. Field order is otherwise free — any
//! shape the streaming pass can't take falls back to the tree handler —
//! but control fields after `requests` are rejected on the streaming path,
//! since the entries they would govern have already been served.
//!
//! Two serving cores share this protocol (selected by
//! [`ServerConfig::core`]). The default [`ServerCore::Reactor`] multiplexes
//! every connection over an epoll readiness loop on one thread and
//! runs compiles on a small worker pool (see [`crate::reactor`]), so
//! thousands of mostly-idle connections cost file descriptors rather than
//! threads. [`ServerCore::ThreadPool`] is the original
//! thread-per-connection core, kept as a benchmark baseline; its accept
//! loop blocks in the poller (no sleeps) and is interrupted by the same
//! [`ShutdownHandle`] wake. Either way a drain is graceful: the listener
//! stops accepting, in-flight requests finish and flush, and the engine's
//! disk store is synced before `run` returns.

use crate::compile::{CachedCompiler, CompileError};
use crate::envelope::CompileRequest;
use crate::json::{parse_json, Json};
use crate::reactor;
use crate::stats::StatsSnapshot;
use crate::sys::{Interest, Poller, Waker};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use vliw_governor::{Governor, Lane, PoolError, ShedPolicy};

/// Stats fields that are additive across peers — the sharded client's
/// `stats --aggregate` sums exactly these (latency percentiles are not
/// additive and are merged by max instead).
pub const AGGREGATE_SUM_FIELDS: &[&str] = &[
    "mem_hits",
    "disk_hits",
    "canon_hits",
    "hits",
    "misses",
    "compiles",
    "dedup_waits",
    "timeouts",
    "joint_truncated",
    "exact_truncated",
    "errors",
    "batches",
    "evictions",
    "samples",
    "accepts",
    "conns_rejected",
    "idle_closed",
    "oversize_closed",
    "queue_samples",
    "sheds",
    "rejects",
    "queue_depth_interactive",
    "queue_depth_heavy",
    "inflight_grants",
    "pool_bytes_used",
    "pool_bytes_limit",
];

/// Selects the connection-serving engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServerCore {
    /// Event-driven readiness loop over epoll: one reactor thread
    /// multiplexes every connection and `workers` pool threads run the
    /// compiles. Idle connections cost a file descriptor, not a thread.
    #[default]
    Reactor,
    /// The original blocking core: a worker thread owns each connection
    /// for its lifetime. Kept as a benchmark baseline.
    ThreadPool,
}

/// Tunables for [`Server::bind`].
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:0` for an ephemeral port.
    pub addr: String,
    /// Compile worker threads (reactor core) / connection worker threads
    /// (thread-pool core).
    pub workers: usize,
    /// Per-request wait deadline applied when the client sends none.
    pub default_timeout: Duration,
    /// Upper bound on per-batch fan-out; a client's `parallelism` is
    /// clamped to this.
    pub batch_parallelism: usize,
    /// Which serving core drives connections.
    pub core: ServerCore,
    /// Reactor core: close connections idle longer than this with a typed
    /// error (`None` disables the sweep). Connections waiting on their own
    /// compiles are never swept.
    pub idle_timeout: Option<Duration>,
    /// Reactor core: longest accepted request line in bytes; beyond it the
    /// connection gets a typed error and is closed (slowloris guard).
    pub max_line_bytes: usize,
    /// Reactor core: concurrent-connection cap; excess accepts receive a
    /// typed error and are closed immediately.
    pub max_conns: usize,
    /// Reactor core: global solver-memory budget in bytes (the governor's
    /// resource pool). Heavy solves charge their working sets against it;
    /// exhaustion truncates solves and sheds admissions instead of growing
    /// the process.
    pub mem_budget: u64,
    /// Reactor core: worker threads allowed to run heavy-lane work
    /// concurrently. `0` means auto (half the workers, at least one). The
    /// remaining workers always have interactive work to themselves.
    pub heavy_lane_workers: usize,
    /// Reactor core: when to shed heavy requests at admission.
    pub shed_policy: ShedPolicy,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            default_timeout: Duration::from_secs(30),
            batch_parallelism: 8,
            core: ServerCore::Reactor,
            idle_timeout: None,
            max_line_bytes: 8 << 20,
            max_conns: 4096,
            mem_budget: 256 << 20,
            heavy_lane_workers: 0,
            shed_policy: ShedPolicy::Adaptive,
        }
    }
}

/// Per-request knobs threaded from [`ServerConfig`] into the dispatcher.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Deadline applied when the client sends no `timeout_ms`.
    pub default_timeout: Duration,
    /// Cap on per-batch fan-out.
    pub batch_parallelism: usize,
}

/// What the serving core knows about a request by the time a worker runs
/// it: how long it queued (subtracted from its deadline so the joint
/// solver's clamped budget reflects time actually remaining), which lane
/// admitted it, and the governor that grants heavy work its resource
/// budget. [`RequestCtx::default`] is the ungoverned path (thread-pool
/// core, in-process tests): zero wait, interactive, no governor.
#[derive(Clone, Default)]
pub struct RequestCtx {
    /// Measured time between enqueue and a worker picking the job up.
    pub queue_wait: Duration,
    /// Lane the admission classifier routed this request to.
    pub lane: Option<Lane>,
    /// The server's governor, when the serving core runs one.
    pub governor: Option<Arc<Governor>>,
}

/// A bound compile server, ready to [`Server::run`].
pub struct Server {
    listener: TcpListener,
    engine: Arc<CachedCompiler>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
    waker: Arc<Waker>,
}

/// A cloneable handle that stops a running [`Server`].
///
/// [`ShutdownHandle::signal`] sets the shutdown flag *and* wakes the
/// serving loop through a socketpair, so a sleeping server reacts
/// immediately — nothing polls the flag. The wake is one atomic store plus
/// one `write(2)` on a pre-opened fd, so calling it from a signal handler
/// is safe.
#[derive(Clone)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
    waker: Arc<Waker>,
}

impl ShutdownHandle {
    /// Request shutdown and wake the serving loop.
    pub fn signal(&self) {
        self.flag.store(true, Ordering::SeqCst);
        self.waker.wake();
    }

    /// Whether shutdown has been requested.
    pub fn is_signalled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

impl Server {
    /// Bind the listener and prepare the serving core.
    pub fn bind(config: ServerConfig, engine: Arc<CachedCompiler>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            listener,
            engine,
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
            waker: Arc::new(Waker::new()?),
        })
    }

    /// The actually-bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that stops the server (wire `shutdown` op uses the same
    /// flag; this handle serves signal handlers and tests).
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            flag: Arc::clone(&self.shutdown),
            waker: Arc::clone(&self.waker),
        }
    }

    /// Serve until shutdown is signalled, then drain in-flight work and
    /// sync the engine's disk store.
    pub fn run(self) {
        let options = ServeOptions {
            default_timeout: self.config.default_timeout,
            batch_parallelism: self.config.batch_parallelism.max(1),
        };
        match self.config.core {
            ServerCore::Reactor => {
                let workers = self.config.workers.max(1);
                let heavy_workers = match self.config.heavy_lane_workers {
                    0 => (workers / 2).max(1),
                    n => n.min(workers),
                };
                let governor = Arc::new(Governor::new(
                    self.config.mem_budget.max(1),
                    heavy_workers,
                    self.config.shed_policy,
                ));
                let config = reactor::ReactorConfig {
                    opts: options,
                    workers,
                    idle_timeout: self.config.idle_timeout,
                    max_line_bytes: self.config.max_line_bytes.max(1024),
                    max_conns: self.config.max_conns.max(1),
                    governor,
                };
                if let Err(e) = reactor::run(
                    self.listener,
                    self.engine,
                    self.shutdown,
                    self.waker,
                    config,
                ) {
                    eprintln!("vliw-serve: reactor core failed: {e}");
                }
            }
            ServerCore::ThreadPool => self.run_thread_pool(options),
        }
    }

    fn run_thread_pool(self, options: ServeOptions) {
        let (tx, rx) = channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let workers: Vec<_> = (0..self.config.workers.max(1))
            .map(|_| {
                let rx = Arc::clone(&rx);
                let engine = Arc::clone(&self.engine);
                let shutdown = Arc::clone(&self.shutdown);
                std::thread::spawn(move || worker_loop(&rx, &engine, &shutdown, options))
            })
            .collect();

        // Readiness-driven accept: block in the poller until the listener
        // is ready or a ShutdownHandle wakes us. The finite tick exists
        // only to observe a shutdown flag set without a wake (the wire
        // `shutdown` op lands on a worker thread, which has no waker).
        let mut poller = match Poller::new() {
            Ok(p) => p,
            Err(e) => {
                eprintln!("vliw-serve: poller init failed: {e}");
                return;
            }
        };
        let _ = poller.register(self.listener.as_raw_fd(), 0, Interest::READ);
        let _ = poller.register(self.waker.fd(), 1, Interest::READ);
        let mut events = Vec::new();
        'accept: while !self.shutdown.load(Ordering::SeqCst) {
            if poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .is_err()
            {
                break;
            }
            if events.iter().any(|ev| ev.token == 1) {
                self.waker.drain();
            }
            loop {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        self.engine.stats().accept();
                        if tx.send(stream).is_err() {
                            break 'accept;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    // Transient accept failure (e.g. aborted connection);
                    // keep serving.
                    Err(_) => break,
                }
            }
        }
        drop(tx); // closes the channel: idle workers exit
        for w in workers {
            let _ = w.join();
        }
        // Flush-on-shutdown: every compile whose response was sent is on
        // disk before the listener goes away.
        self.engine.flush();
    }
}

fn worker_loop(
    rx: &Arc<Mutex<Receiver<TcpStream>>>,
    engine: &Arc<CachedCompiler>,
    shutdown: &Arc<AtomicBool>,
    options: ServeOptions,
) {
    loop {
        let stream = {
            let guard = rx.lock().expect("connection queue poisoned");
            match guard.recv_timeout(Duration::from_millis(100)) {
                Ok(s) => s,
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                    if shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    continue;
                }
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return,
            }
        };
        serve_connection(stream, engine, shutdown, options);
    }
}

fn serve_connection(
    stream: TcpStream,
    engine: &Arc<CachedCompiler>,
    shutdown: &Arc<AtomicBool>,
    options: ServeOptions,
) {
    // A finite read timeout lets the worker notice shutdown between
    // requests on an idle connection. Nagle off: responses are single
    // lines that must turn around immediately.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return, // client closed
            Ok(_) => {
                if line.trim().is_empty() {
                    continue;
                }
                let response = handle_line(line.trim(), engine, shutdown, options);
                let stop = response.get("op").and_then(Json::as_str) == Some("shutdown");
                if writeln!(writer, "{}", response.render()).is_err() {
                    return;
                }
                let _ = writer.flush();
                if stop {
                    return;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

pub(crate) fn error_response(message: impl Into<String>) -> Json {
    Json::obj([
        ("ok", Json::Bool(false)),
        ("error", Json::Str(message.into())),
    ])
}

/// Typed shed response: `error_kind` distinguishes "correct request,
/// wrong moment" from malformed input, and `retry_after_ms` tells the
/// client how long to back off (vliw-client honors it).
pub(crate) fn shed_response(retry_after_ms: u64) -> Json {
    Json::obj([
        ("ok", Json::Bool(false)),
        (
            "error",
            Json::Str(format!(
                "server overloaded, retry after {retry_after_ms} ms"
            )),
        ),
        ("error_kind", Json::Str("shed".into())),
        ("retry_after_ms", Json::Num(retry_after_ms as f64)),
    ])
}

/// Typed rejection: the request can never fit the server's resource
/// limits, so retrying is pointless.
pub(crate) fn reject_response() -> Json {
    Json::obj([
        ("ok", Json::Bool(false)),
        (
            "error",
            Json::Str("request exceeds server resource limits".into()),
        ),
        ("error_kind", Json::Str("rejected".into())),
    ])
}

/// Parse the optional `timeout_ms` field, falling back to the default.
fn request_timeout(doc: &Json, default_timeout: Duration) -> Result<Duration, Json> {
    match doc.get("timeout_ms") {
        None => Ok(default_timeout),
        Some(v) => match v.as_f64() {
            Some(ms) if ms >= 0.0 => Ok(Duration::from_millis(ms as u64)),
            _ => Err(error_response("bad `timeout_ms`")),
        },
    }
}

/// Splice the hot-path success response by hand around the engine's
/// pre-rendered result JSON: no tree build, no re-escape. Every spliced
/// piece is fixed text or already valid JSON.
fn render_ok(op: &str, rendered: &str, served: &str) -> Json {
    let mut doc = String::with_capacity(rendered.len() + 64);
    doc.push_str("{\"ok\":true,\"op\":\"");
    doc.push_str(op);
    doc.push_str("\",\"result\":");
    doc.push_str(rendered);
    doc.push_str(",\"served\":\"");
    doc.push_str(served);
    doc.push_str("\"}");
    Json::Raw(doc.into())
}

/// Whether `req` will run a budgeted (exact/joint) solver on a cache
/// miss. Syntactic, matching the lane classifier's token test — the lane
/// alone is not enough: small or warm-demoted exact/joint shapes are
/// classified interactive but still solve on a miss, and they must not
/// escape the pool's accounting.
fn runs_governed_solver(req: &CompileRequest) -> bool {
    req.config_text.contains("partitioner exact") || req.config_text.contains("partitioner joint")
}

/// [`compile_entry`] with the serving core's request context applied:
///
/// * the measured queue wait is subtracted from the client deadline, so
///   the joint solver's clamped budget is ¾ of the time *remaining* —
///   not ¾ of a deadline that queueing already consumed;
/// * heavy-lane requests — and interactive exact/joint requests, whose
///   solvers are just as unbounded in principle — first probe every cache
///   tier (a warm hit of a hard instance needs no grant), then open a
///   [`TrackedBudget`] from the governor's pool: heavies against the
///   heavy share, interactive compiles against the full pool including
///   the reserve kept for them. A pool refusal becomes a typed
///   shed/reject response instead of an untracked solve, so
///   `--mem-budget` caps solver memory on every lane.
pub(crate) fn compile_entry_ctx(
    engine: &Arc<CachedCompiler>,
    req: &CompileRequest,
    timeout: Duration,
    op: &str,
    ctx: &RequestCtx,
) -> Json {
    let started = Instant::now();
    let effective = timeout.saturating_sub(ctx.queue_wait);
    let budget = match (&ctx.governor, ctx.lane) {
        (Some(gov), Some(lane)) if lane == Lane::Heavy || runs_governed_solver(req) => {
            if let Some(rendered) = engine.probe_rendered(req) {
                engine
                    .stats()
                    .observe_latency_us(started.elapsed().as_micros() as u64);
                return render_ok(op, &rendered, "cache");
            }
            let deadline_ms = (effective.as_millis() as u64).max(1);
            let opened = match lane {
                Lane::Heavy => gov.open_budget(deadline_ms),
                Lane::Interactive => gov.open_budget_interactive(deadline_ms),
            };
            match opened {
                Ok(b) => Some(b),
                Err(PoolError::Shed { retry_after_ms }) => {
                    return shed_response(retry_after_ms);
                }
                Err(PoolError::Rejected) => return reject_response(),
            }
        }
        _ => None,
    };
    let outcome = engine.serve_rendered_governed(req, Some(effective), budget);
    engine
        .stats()
        .observe_latency_us(started.elapsed().as_micros() as u64);
    match outcome {
        Ok((rendered, source)) => render_ok(op, &rendered, source.label()),
        Err(CompileError::Shed { retry_after_ms }) => shed_response(retry_after_ms),
        Err(CompileError::Rejected) => reject_response(),
        Err(e) => {
            if !matches!(e, CompileError::Timeout) {
                engine.stats().error();
            }
            error_response(e.to_string())
        }
    }
}

/// Serve a `compile_batch`: fan the entries over up to `cap` scoped worker
/// threads pulling from a shared index. Per-entry failures (parse or
/// compile) land in that entry's slot; the batch itself always succeeds.
fn handle_batch(
    doc: Json,
    engine: &Arc<CachedCompiler>,
    options: ServeOptions,
    ctx: &RequestCtx,
) -> Json {
    if doc.get("requests").and_then(Json::as_arr).is_none() {
        engine.stats().error();
        return error_response("compile_batch op missing `requests` array");
    }
    let timeout = match request_timeout(&doc, options.default_timeout) {
        Ok(t) => t,
        Err(resp) => {
            engine.stats().error();
            return resp;
        }
    };
    let requested_cap = match doc.get("parallelism") {
        None => options.batch_parallelism,
        Some(v) => match v.as_f64() {
            Some(p) if p >= 1.0 => p as usize,
            _ => {
                engine.stats().error();
                return error_response("bad `parallelism`");
            }
        },
    };
    engine.stats().batch();
    // Dismantle the owned document so defaults and entries move rather
    // than clone; the `requests` array was validated above.
    let mut top = match doc {
        Json::Obj(m) => m,
        _ => unreachable!("batch doc is an object"),
    };
    let defaults = top.remove("defaults");
    let default_machine = defaults
        .as_ref()
        .and_then(|d| d.get("machine"))
        .and_then(Json::as_str);
    let default_config = defaults
        .as_ref()
        .and_then(|d| d.get("config"))
        .and_then(Json::as_str);
    let entries = match top.remove("requests") {
        Some(Json::Arr(v)) => v,
        _ => unreachable!("batch requests validated above"),
    };
    let jobs: Vec<Result<CompileRequest, String>> = entries
        .into_iter()
        .map(|e| CompileRequest::take_from_json(e, default_machine, default_config))
        .collect();
    let n = jobs.len();
    // Fan-out beyond the machine's cores only adds contention; on a
    // single-core host the whole batch runs inline.
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let cap = requested_cap
        .min(options.batch_parallelism)
        .min(cores)
        .min(n.max(1));

    let run_one = |job: &Result<CompileRequest, String>| -> Json {
        match job {
            Ok(req) => compile_entry_ctx(engine, req, timeout, "compile", ctx),
            Err(m) => {
                engine.stats().error();
                error_response(m.clone())
            }
        }
    };

    let results: Vec<Json> = if cap <= 1 {
        jobs.iter().map(run_one).collect()
    } else {
        let slots: Vec<Mutex<Json>> = (0..n).map(|_| Mutex::new(Json::Null)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..cap {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        return;
                    }
                    *slots[i].lock().expect("batch slot poisoned") = run_one(&jobs[i]);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("batch slot poisoned"))
            .collect()
    };

    Json::obj([
        ("ok", Json::Bool(true)),
        ("op", Json::Str("compile_batch".into())),
        ("n", Json::Num(n as f64)),
        ("results", Json::Arr(results)),
    ])
}

/// Serve a canonical `compile_batch` line without materialising the full
/// request tree. The canonical encoder writes `op` first and `requests`
/// last, so the control fields stream in before the entries and each entry
/// can be parsed, served, and its response rendered with only one entry
/// resident at a time — on a 400-entry grid that keeps the working set
/// cache-hot instead of walking a multi-hundred-KB document three times.
///
/// Returns `None` (always before any entry has been served) when the line
/// doesn't match the canonical shape; the caller falls back to the
/// tree-based [`handle_batch`]. The streaming path only engages when the
/// effective fan-out is one worker: with real parallelism available,
/// materialise-and-fan-out wins.
fn handle_batch_streaming(
    line: &str,
    engine: &Arc<CachedCompiler>,
    options: ServeOptions,
    ctx: &RequestCtx,
) -> Option<Json> {
    use crate::json as js;
    let bytes = line.as_bytes();
    let mut pos = 0usize;
    js::skip_ws(bytes, &mut pos);
    js::expect(bytes, &mut pos, b'{').ok()?;
    let mut timeout = options.default_timeout;
    let mut requested_cap = options.batch_parallelism;
    let mut defaults: Option<Json> = None;
    let mut saw_op = false;
    loop {
        js::skip_ws(bytes, &mut pos);
        let key = js::parse_key(bytes, &mut pos).ok()?;
        js::skip_ws(bytes, &mut pos);
        js::expect(bytes, &mut pos, b':').ok()?;
        if key.as_ref() == "requests" {
            break;
        }
        let value = js::parse_value(bytes, &mut pos).ok()?;
        match key.as_ref() {
            "op" => {
                if value.as_str() != Some("compile_batch") {
                    return None;
                }
                saw_op = true;
            }
            "timeout_ms" => match value.as_f64() {
                Some(ms) if ms >= 0.0 => timeout = Duration::from_millis(ms as u64),
                _ => {
                    engine.stats().error();
                    return Some(error_response("bad `timeout_ms`"));
                }
            },
            "parallelism" => match value.as_f64() {
                Some(p) if p >= 1.0 => requested_cap = p as usize,
                _ => {
                    engine.stats().error();
                    return Some(error_response("bad `parallelism`"));
                }
            },
            "defaults" => defaults = Some(value),
            // Unrecognised control field: let the tree handler decide.
            _ => return None,
        }
        js::skip_ws(bytes, &mut pos);
        match bytes.get(pos) {
            Some(b',') => pos += 1,
            // Object ended without `requests`; the tree handler reports it.
            _ => return None,
        }
    }
    if !saw_op {
        return None;
    }
    // Streaming trades fan-out for locality, which only pays off when
    // there is no fan-out to be had.
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    if requested_cap.min(options.batch_parallelism).min(cores) > 1 {
        return None;
    }
    js::skip_ws(bytes, &mut pos);
    if bytes.get(pos) != Some(&b'[') {
        engine.stats().error();
        return Some(error_response("compile_batch op missing `requests` array"));
    }
    pos += 1;
    let default_machine = defaults
        .as_ref()
        .and_then(|d| d.get("machine"))
        .and_then(Json::as_str);
    let default_config = defaults
        .as_ref()
        .and_then(|d| d.get("config"))
        .and_then(Json::as_str);
    engine.stats().batch();
    let mut results = String::with_capacity(1024);
    let mut n = 0usize;
    js::skip_ws(bytes, &mut pos);
    if bytes.get(pos) == Some(&b']') {
        pos += 1;
    } else {
        loop {
            let entry = match js::parse_value(bytes, &mut pos) {
                Ok(e) => e,
                Err(e) => {
                    engine.stats().error();
                    return Some(error_response(e.to_string()));
                }
            };
            if n > 0 {
                results.push(',');
            }
            let resp = match CompileRequest::take_from_json(entry, default_machine, default_config)
            {
                Ok(req) => compile_entry_ctx(engine, &req, timeout, "compile", ctx),
                Err(m) => {
                    engine.stats().error();
                    error_response(m)
                }
            };
            match resp {
                Json::Raw(doc) => results.push_str(&doc),
                other => results.push_str(&other.render()),
            }
            n += 1;
            js::skip_ws(bytes, &mut pos);
            match bytes.get(pos) {
                Some(b',') => pos += 1,
                Some(b']') => {
                    pos += 1;
                    break;
                }
                _ => {
                    engine.stats().error();
                    return Some(error_response(format!(
                        "offset {pos}: expected `,` or `]` in `requests`"
                    )));
                }
            }
        }
    }
    js::skip_ws(bytes, &mut pos);
    if bytes.get(pos) != Some(&b'}') {
        // Entries are already served, so control fields can no longer
        // apply; reject rather than silently mis-serve.
        engine.stats().error();
        return Some(error_response(
            "compile_batch fields after `requests` are not supported",
        ));
    }
    pos += 1;
    js::skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        engine.stats().error();
        return Some(error_response(format!(
            "offset {pos}: trailing characters after document"
        )));
    }
    // Assemble the aggregate response in the same key order the tree
    // handler's sorted-map rendering produces.
    let mut out = String::with_capacity(results.len() + 64);
    out.push_str("{\"n\":");
    out.push_str(&n.to_string());
    out.push_str(",\"ok\":true,\"op\":\"compile_batch\",\"results\":[");
    out.push_str(&results);
    out.push_str("]}");
    Some(Json::Raw(out.into()))
}

/// Dispatch one protocol line. Public for the in-process tests; the wire
/// path goes through [`Server::run`].
pub fn handle_line(
    line: &str,
    engine: &Arc<CachedCompiler>,
    shutdown: &Arc<AtomicBool>,
    options: ServeOptions,
) -> Json {
    handle_line_ctx(line, engine, shutdown, options, &RequestCtx::default())
}

/// [`handle_line`] with the serving core's request context (queue wait,
/// lane, governor) threaded into the compile paths.
pub fn handle_line_ctx(
    line: &str,
    engine: &Arc<CachedCompiler>,
    shutdown: &Arc<AtomicBool>,
    options: ServeOptions,
    ctx: &RequestCtx,
) -> Json {
    // Canonical batch lines (op first, requests last) stream straight off
    // the wire bytes; anything else takes the general tree path below.
    if line.starts_with("{\"op\":\"compile_batch\"") {
        if let Some(resp) = handle_batch_streaming(line, engine, options, ctx) {
            return resp;
        }
    }
    let doc = match parse_json(line) {
        Ok(d) => d,
        Err(e) => {
            engine.stats().error();
            return error_response(e.to_string());
        }
    };
    // The batch handler consumes the document (entries move out of it), so
    // it dispatches before the borrowing match below.
    if doc.get("op").and_then(Json::as_str) == Some("compile_batch") {
        return handle_batch(doc, engine, options, ctx);
    }
    match doc.get("op").and_then(Json::as_str) {
        Some("ping") => Json::obj([("ok", Json::Bool(true)), ("op", Json::Str("ping".into()))]),
        Some("stats") => Json::obj([
            ("ok", Json::Bool(true)),
            ("op", Json::Str("stats".into())),
            (
                "stats",
                stats_json_governed(
                    &engine.stats().snapshot(),
                    engine.evictions(),
                    ctx.governor.as_deref(),
                ),
            ),
        ]),
        Some("shutdown") => {
            shutdown.store(true, Ordering::SeqCst);
            Json::obj([
                ("ok", Json::Bool(true)),
                ("op", Json::Str("shutdown".into())),
            ])
        }
        Some("compile") => {
            let req = match doc.get("request").map(CompileRequest::from_json) {
                Some(Ok(r)) => r,
                Some(Err(m)) => {
                    engine.stats().error();
                    return error_response(m);
                }
                None => {
                    engine.stats().error();
                    return error_response("compile op missing `request` object");
                }
            };
            let timeout = match request_timeout(&doc, options.default_timeout) {
                Ok(t) => t,
                Err(resp) => {
                    engine.stats().error();
                    return resp;
                }
            };
            compile_entry_ctx(engine, &req, timeout, "compile", ctx)
        }
        _ => {
            engine.stats().error();
            error_response("missing or unknown `op`")
        }
    }
}

/// Render a stats snapshot for the `stats` endpoint.
pub fn stats_json(snap: &StatsSnapshot, evictions: u64) -> Json {
    stats_json_governed(snap, evictions, None)
}

/// [`stats_json`] including the governor's live gauges. The fields are
/// always present (zero without a governor) so the sharded aggregator's
/// summed keys stay consistent across peers and cores.
pub fn stats_json_governed(
    snap: &StatsSnapshot,
    evictions: u64,
    governor: Option<&Governor>,
) -> Json {
    let relaxed = std::sync::atomic::Ordering::Relaxed;
    let (depth_i, depth_h, inflight, sheds, rejects, pool_used, pool_limit) = match governor {
        Some(g) => {
            let ga = g.gauges();
            (
                ga.queue_depth_interactive.load(relaxed),
                ga.queue_depth_heavy.load(relaxed),
                ga.inflight_grants.load(relaxed),
                ga.sheds.load(relaxed),
                ga.rejects.load(relaxed),
                g.pool().used(),
                g.pool().limit(),
            )
        }
        None => (0, 0, 0, 0, 0, 0, 0),
    };
    let mut fields = base_stats_fields(snap, evictions);
    fields.extend([
        ("queue_depth_interactive", Json::Num(depth_i as f64)),
        ("queue_depth_heavy", Json::Num(depth_h as f64)),
        ("inflight_grants", Json::Num(inflight as f64)),
        ("sheds", Json::Num(sheds as f64)),
        ("rejects", Json::Num(rejects as f64)),
        ("pool_bytes_used", Json::Num(pool_used as f64)),
        ("pool_bytes_limit", Json::Num(pool_limit as f64)),
    ]);
    Json::obj(fields)
}

fn base_stats_fields(snap: &StatsSnapshot, evictions: u64) -> Vec<(&'static str, Json)> {
    Vec::from([
        ("mem_hits", Json::Num(snap.mem_hits as f64)),
        ("disk_hits", Json::Num(snap.disk_hits as f64)),
        ("canon_hits", Json::Num(snap.canon_hits as f64)),
        ("hits", Json::Num(snap.hits() as f64)),
        ("misses", Json::Num(snap.misses as f64)),
        ("compiles", Json::Num(snap.compiles as f64)),
        ("dedup_waits", Json::Num(snap.dedup_waits as f64)),
        ("timeouts", Json::Num(snap.timeouts as f64)),
        ("joint_truncated", Json::Num(snap.joint_truncated as f64)),
        ("exact_truncated", Json::Num(snap.exact_truncated as f64)),
        ("errors", Json::Num(snap.errors as f64)),
        ("batches", Json::Num(snap.batches as f64)),
        ("evictions", Json::Num(evictions as f64)),
        ("samples", Json::Num(snap.samples as f64)),
        ("p50_us", Json::Num(snap.p50_us as f64)),
        ("p90_us", Json::Num(snap.p90_us as f64)),
        ("p99_us", Json::Num(snap.p99_us as f64)),
        ("accepts", Json::Num(snap.accepts as f64)),
        ("conns_rejected", Json::Num(snap.conns_rejected as f64)),
        ("idle_closed", Json::Num(snap.idle_closed as f64)),
        ("oversize_closed", Json::Num(snap.oversize_closed as f64)),
        ("queue_samples", Json::Num(snap.queue_samples as f64)),
        ("queue_p50_us", Json::Num(snap.queue_p50_us as f64)),
        ("queue_p99_us", Json::Num(snap.queue_p99_us as f64)),
        ("latency_hist", hist_json(&snap.latency_hist)),
        ("queue_hist", hist_json(&snap.queue_hist)),
    ])
}

/// Whether a rendered response document is a typed shed (the serving core
/// counts these per lane and never sheds interactive work).
pub(crate) fn doc_is_shed(doc: &str) -> bool {
    doc.contains("\"error_kind\":\"shed\"")
}

/// Render a sparse histogram as `[[bucket, count], ...]` for the stats
/// wire; the sharded aggregator sums these across peers and recomputes
/// honest fleet-wide percentiles.
fn hist_json(sparse: &[(u32, u64)]) -> Json {
    Json::Arr(
        sparse
            .iter()
            .map(|&(i, c)| Json::Arr(vec![Json::Num(i as f64), Json::Num(c as f64)]))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::TieredCache;

    fn engine() -> Arc<CachedCompiler> {
        CachedCompiler::new(TieredCache::new(64, None))
    }

    fn test_options() -> ServeOptions {
        ServeOptions {
            default_timeout: Duration::from_secs(10),
            batch_parallelism: 4,
        }
    }

    fn dispatch(line: &str, engine: &Arc<CachedCompiler>) -> Json {
        let shutdown = Arc::new(AtomicBool::new(false));
        handle_line(line, engine, &shutdown, test_options())
    }

    #[test]
    fn ping_and_unknown_ops() {
        let engine = engine();
        let pong = dispatch("{\"op\":\"ping\"}", &engine);
        assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true));
        let bad = dispatch("{\"op\":\"frobnicate\"}", &engine);
        assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));
        let nojson = dispatch("not json", &engine);
        assert_eq!(nojson.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(engine.stats().snapshot().errors, 2);
    }

    #[test]
    fn shutdown_op_sets_flag() {
        let engine = engine();
        let shutdown = Arc::new(AtomicBool::new(false));
        let resp = handle_line("{\"op\":\"shutdown\"}", &engine, &shutdown, test_options());
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
        assert!(shutdown.load(Ordering::SeqCst));
    }

    #[test]
    fn stats_op_reports_counters() {
        let engine = engine();
        let resp = dispatch("{\"op\":\"stats\"}", &engine);
        let stats = resp.get("stats").expect("stats object");
        assert_eq!(stats.get("hits").and_then(Json::as_f64), Some(0.0));
        assert_eq!(stats.get("evictions").and_then(Json::as_f64), Some(0.0));
    }

    #[test]
    fn compile_op_requires_request_object() {
        let engine = engine();
        let resp = dispatch("{\"op\":\"compile\"}", &engine);
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    }
}
