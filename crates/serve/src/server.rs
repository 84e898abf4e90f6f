//! The TCP compile server.
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
//! is optional. It bounds an exact or joint solve, which stops at ¾ of
//! the time left, and the wait on an identical compile that another
//! request is running, never the request's own compile: a request that
//! compiles is answered with its result, however long that takes.
//!
//! A `compile_batch` carries any number of requests in one line and returns
//! one aggregated response with per-entry `served` labels in request order;
//! a malformed entry fails alone, never its batch-mates. Once the line's
//! newline arrives, the connection layer checks its fields, in any order,
//! and hands its entries to the worker pool in request order, at most
//! `min(parallelism, batch_parallelism)` entries of one batch in flight; a
//! malformed batch is answered before any entry compiles. Each entry, like
//! each stand-alone request, finds its lane on its own (see
//! [`crate::reactor`]). Identical keys inside one batch collapse through
//! the engine's in-flight table (first entry compiles, concurrent twins
//! dedup, later twins hit the cache).
//!
//! [`Server::run`] drives the reactor core ([`crate::reactor`]): one thread
//! multiplexes every connection over epoll while a small worker pool runs
//! the compiles, so thousands of mostly-idle connections cost file
//! descriptors rather than threads. A drain is graceful: the listener stops
//! accepting, in-flight requests finish and flush, and the engine's disk
//! store is synced before `run` returns.

use crate::compile::{CachedCompiler, CompileError};
use crate::envelope::CompileRequest;
use crate::json::{parse_json, Json};
use crate::reactor;
use crate::stats::StatsSnapshot;
use crate::sys::Waker;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vliw_governor::{Budget, Governor, Lane, ShedPolicy};

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

/// Tunables for [`Server::bind`].
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:0` for an ephemeral port.
    pub addr: String,
    /// Compile worker threads.
    pub workers: usize,
    /// Deadline of a request that sends no `timeout_ms`: it bounds the solve
    /// and any wait on an identical in-flight compile.
    pub default_timeout: Duration,
    /// Most entries of one batch in flight at once; a client's
    /// `parallelism` is clamped to this.
    pub batch_parallelism: usize,
    /// Close connections idle longer than this with a typed error (`None`
    /// disables the sweep). Connections waiting on their own compiles are
    /// never swept.
    pub idle_timeout: Option<Duration>,
    /// Longest accepted request line in bytes, a `compile_batch` line as a
    /// whole included; beyond it the connection gets a typed error and is
    /// closed (slowloris guard).
    pub max_line_bytes: usize,
    /// Concurrent-connection cap; excess accepts receive a typed error and
    /// are closed immediately.
    pub max_conns: usize,
    /// Global solver-memory budget in bytes (the governor's resource
    /// pool). Heavy solves charge their working sets against it;
    /// exhaustion truncates solves and sheds admissions instead of growing
    /// the process.
    pub mem_budget: u64,
    /// Worker threads allowed to run heavy-lane work concurrently. `0`
    /// means auto (half the workers, at least one). The remaining workers
    /// always have interactive work to themselves.
    pub heavy_lane_workers: usize,
    /// When to shed heavy requests at admission.
    pub shed_policy: ShedPolicy,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            default_timeout: Duration::from_secs(30),
            batch_parallelism: 8,
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
    /// Cap on one batch's entries in flight.
    pub batch_parallelism: usize,
}

/// What the serving core knows about a request by the time a worker runs
/// it: how long it queued (subtracted from its deadline, so a compile's
/// solve and its wait on someone else's compile get only the time
/// actually left), which lane it runs on, and the governor that grants
/// exact and joint solves their pool budget.
pub(crate) struct RequestCtx {
    /// Measured time between the request's arrival and a worker picking
    /// it up, on the heavy lane the time it spent on the interactive lane
    /// included.
    pub queue_wait: Duration,
    /// The lane this run is on. Every request starts on the interactive
    /// lane; a miss the lane rule makes heavy is moved to the heavy lane
    /// and runs again there.
    pub lane: Lane,
    /// The server's governor.
    pub governor: Arc<Governor>,
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
            opts: ServeOptions {
                default_timeout: self.config.default_timeout,
                batch_parallelism: self.config.batch_parallelism.max(1),
            },
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
fn render_ok(rendered: &str, served: &str) -> Json {
    let mut doc = String::with_capacity(rendered.len() + 64);
    doc.push_str("{\"ok\":true,\"op\":\"compile\",\"result\":");
    doc.push_str(rendered);
    doc.push_str(",\"served\":\"");
    doc.push_str(served);
    doc.push_str("\"}");
    Json::Raw(doc.into())
}

/// Serve one compile request under its request context:
///
/// * the measured queue wait is subtracted from the client deadline, and
///   on a miss the engine's [`Budget`] stops an exact or joint search at
///   ¾ of the time *then* left — not ¾ of a deadline that queueing
///   already consumed;
/// * on a miss the engine asks the lane rule what the decoded request is.
///   A heavy solve on the interactive lane comes back unserved (`None`)
///   for the worker to move to the heavy lane; no latency is recorded for
///   that run. A solve on its own lane gets a pool grant from the
///   governor, opened by the one request that compiles it: heavies
///   against the heavy share, interactive solves against the full pool
///   including the reserve kept for them. Other compiles get none. A pool
///   refusal becomes a typed shed/reject response instead of an untracked
///   solve, so `--mem-budget` caps solver memory on every lane.
pub(crate) fn compile_entry(
    engine: &Arc<CachedCompiler>,
    req: &CompileRequest,
    timeout: Duration,
    ctx: &RequestCtx,
) -> Option<Json> {
    let started = Instant::now();
    let open = |solve: Option<Lane>| match solve {
        Some(lane) => ctx.governor.open_budget(lane),
        None => Ok(Budget::default()),
    };
    let deadline = timeout.saturating_sub(ctx.queue_wait);
    let outcome = engine
        .serve_rendered_governed(req, Some(deadline), ctx.lane, open)
        .transpose()?;
    engine
        .stats()
        .observe_latency_us(started.elapsed().as_micros() as u64);
    Some(match outcome {
        Ok((rendered, source)) => render_ok(&rendered, source.label()),
        Err(CompileError::Shed { retry_after_ms }) => shed_response(retry_after_ms),
        Err(CompileError::Rejected) => reject_response(),
        Err(e) => {
            if !matches!(e, CompileError::Timeout) {
                engine.stats().error();
            }
            error_response(e.to_string())
        }
    })
}

/// Dispatch one stand-alone protocol line on a pool worker; `None` when
/// it is a heavy miss to move to the heavy lane (see [`compile_entry`]).
/// Batch lines never get here: the connection layer splits every
/// `compile_batch` line into its entries, so a `compile_batch` op reaching
/// this function can only come from a line whose first key `op` names
/// another op, with a later duplicate `op`, and is rejected like any
/// unknown op.
pub(crate) fn handle_line(
    line: &str,
    engine: &Arc<CachedCompiler>,
    shutdown: &Arc<AtomicBool>,
    options: ServeOptions,
    ctx: &RequestCtx,
) -> Option<Json> {
    let mut doc = match parse_json(line) {
        Ok(d) => d,
        Err(e) => {
            engine.stats().error();
            return Some(error_response(e.to_string()));
        }
    };
    let reply = match doc.get("op").and_then(Json::as_str) {
        Some("ping") => Json::obj([("ok", Json::Bool(true)), ("op", Json::Str("ping".into()))]),
        Some("stats") => Json::obj([
            ("ok", Json::Bool(true)),
            ("op", Json::Str("stats".into())),
            (
                "stats",
                stats_json(
                    &engine.stats().snapshot(),
                    engine.evictions(),
                    &ctx.governor,
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
            let decoded = doc
                .take("request")
                .map(|r| CompileRequest::take_from_json(r, None, None));
            let req = match decoded {
                Some(Ok(r)) => r,
                Some(Err(m)) => {
                    engine.stats().error();
                    return Some(error_response(m));
                }
                None => {
                    engine.stats().error();
                    return Some(error_response("compile op missing `request` object"));
                }
            };
            let timeout = match request_timeout(&doc, options.default_timeout) {
                Ok(t) => t,
                Err(resp) => {
                    engine.stats().error();
                    return Some(resp);
                }
            };
            return compile_entry(engine, &req, timeout, ctx);
        }
        _ => {
            engine.stats().error();
            error_response("missing or unknown `op`")
        }
    };
    Some(reply)
}

/// Render a stats snapshot plus the governor's live gauges for the `stats`
/// endpoint.
fn stats_json(snap: &StatsSnapshot, evictions: u64, governor: &Governor) -> Json {
    let relaxed = Ordering::Relaxed;
    let gauges = governor.gauges();
    Json::obj([
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
        (
            "queue_depth_interactive",
            Json::Num(gauges.queue_depth_interactive.load(relaxed) as f64),
        ),
        (
            "queue_depth_heavy",
            Json::Num(gauges.queue_depth_heavy.load(relaxed) as f64),
        ),
        (
            "inflight_grants",
            Json::Num(gauges.inflight_grants.load(relaxed) as f64),
        ),
        ("sheds", Json::Num(gauges.sheds.load(relaxed) as f64)),
        ("rejects", Json::Num(gauges.rejects.load(relaxed) as f64)),
        ("pool_bytes_used", Json::Num(governor.pool().used() as f64)),
        (
            "pool_bytes_limit",
            Json::Num(governor.pool().limit() as f64),
        ),
    ])
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

    fn ctx() -> RequestCtx {
        RequestCtx {
            queue_wait: Duration::ZERO,
            lane: Lane::Interactive,
            governor: Arc::new(Governor::new(1 << 20, 1, ShedPolicy::Never)),
        }
    }

    fn dispatch(line: &str, engine: &Arc<CachedCompiler>) -> Json {
        let shutdown = Arc::new(AtomicBool::new(false));
        handle_line(line, engine, &shutdown, test_options(), &ctx()).expect("answered")
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
        let resp = handle_line(
            "{\"op\":\"shutdown\"}",
            &engine,
            &shutdown,
            test_options(),
            &ctx(),
        )
        .expect("answered");
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
        assert_eq!(
            stats.get("pool_bytes_limit").and_then(Json::as_f64),
            Some((1u64 << 20) as f64)
        );
    }

    #[test]
    fn compile_op_requires_request_object() {
        let engine = engine();
        let resp = dispatch("{\"op\":\"compile\"}", &engine);
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    }
}
