//! The event-driven serve core: one reactor thread multiplexing every
//! connection over an OS readiness facility ([`crate::sys::Poller`]), plus
//! a small compile worker pool.
//!
//! The thread-per-connection core holds a thread (and its stack) hostage
//! for every open socket, so a few hundred idle clients exhaust the pool
//! while zero compiles run. Here sockets are non-blocking and registered
//! with epoll; the reactor thread owns all socket I/O and protocol parsing
//! (via `crate::conn::Conn`), and hands complete compile jobs to `workers`
//! pool threads through a queue. Completions come back through a
//! wake-list drained after each poll round, woken by a socketpair
//! [`crate::sys::Waker`] — which is also how `shutdown` (the wire op or a
//! signal via [`crate::server::ShutdownHandle`]) interrupts a sleeping
//! reactor with no polling loop anywhere.
//!
//! Connection slots live in a slab; tokens encode `(epoch << 32) | slot+2`
//! so a completion addressed to a closed-and-recycled slot is recognised
//! by its stale epoch and dropped. Back-pressure is interest-driven: a
//! connection with an unflushed response, an in-flight line job, or a
//! maxed-out batch keeps READ interest off and lets the kernel's TCP
//! window throttle the client.

use crate::compile::CachedCompiler;
use crate::conn::{Action, BatchDefaults, Conn, ConnLimits};
use crate::envelope::CompileRequest;
use crate::json as js;
use crate::server::{
    compile_entry_ctx, doc_is_shed, error_response, handle_line_ctx, reject_response,
    shed_response, RequestCtx, ServeOptions,
};
use crate::sys::{Interest, Poller, Waker};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use vliw_governor::{Admission, DwrrQueue, Governor, Lane};

/// Poller token of the listening socket.
const LISTENER_TOKEN: u64 = 0;
/// Poller token of the wake pipe.
const WAKER_TOKEN: u64 = 1;
/// Most bytes pulled off one socket per readiness event; level-triggered
/// polling re-fires for the rest, so one firehose client cannot starve the
/// other connections.
const READ_BUDGET: usize = 256 * 1024;

fn conn_token(slot: usize, epoch: u32) -> u64 {
    ((epoch as u64) << 32) | (slot as u64 + 2)
}

fn split_token(token: u64) -> (usize, u32) {
    (((token & 0xFFFF_FFFF) as usize) - 2, (token >> 32) as u32)
}

/// Reactor tuning, assembled by the server front-end from `ServerConfig`.
pub(crate) struct ReactorConfig {
    /// Request-level options forwarded to the dispatcher.
    pub opts: ServeOptions,
    /// Compile worker pool size.
    pub workers: usize,
    /// Close connections idle longer than this (`None` = never).
    pub idle_timeout: Option<Duration>,
    /// Oversize guard for request lines.
    pub max_line_bytes: usize,
    /// Concurrent connection cap; excess accepts get a typed error.
    pub max_conns: usize,
    /// Resource governor: lane classification, admission policy, and the
    /// memory pool heavy compiles draw budgets from.
    pub governor: Arc<Governor>,
}

/// One streamed batch entry inside a [`Job::Entries`] group.
struct EntryJob {
    gen: u64,
    idx: usize,
    text: String,
    timeout_ms: Option<u64>,
    defaults: Arc<BatchDefaults>,
}

/// A parsed unit of work bound for the worker pool.
enum Job {
    /// One complete stand-alone request line.
    Line {
        slot: usize,
        epoch: u32,
        line: String,
        enqueued: Instant,
    },
    /// A group of streamed batch entries from one connection, executed
    /// sequentially by one worker. Entries that become ready together are
    /// chunked across the pool, so a bulk arrival pays one queue handoff
    /// per worker instead of one per entry, while entries that trickle in
    /// off the wire still dispatch individually.
    Entries {
        slot: usize,
        epoch: u32,
        entries: Vec<EntryJob>,
        enqueued: Instant,
    },
}

/// A finished job's rendered response, routed back by slot+epoch.
enum Done {
    Line {
        slot: usize,
        epoch: u32,
        doc: String,
    },
    Entry {
        slot: usize,
        epoch: u32,
        gen: u64,
        idx: usize,
        doc: Arc<str>,
    },
}

/// The two-lane job queue. Each lane is a deficit-weighted round-robin
/// queue keyed by connection slot, so one client flooding a lane gets one
/// queue's worth of service per rotation instead of the whole pool.
/// `heavy_inflight` counts heavy jobs currently held by workers; it is
/// capped by [`PoolShared::heavy_quota`] so heavy solves can never occupy
/// every worker while interactive requests queue behind them.
struct LaneQueues {
    interactive: DwrrQueue<Job>,
    heavy: DwrrQueue<Job>,
    heavy_inflight: usize,
    /// Consecutive interactive dequeues since a heavy job was last served
    /// while heavy work sat backlogged. Drives [`serve_heavy_first`].
    interactive_streak: u32,
}

/// After this many consecutive interactive dequeues, a backlogged heavy job
/// is served first. Strict interactive priority would let an *admitted*
/// heavy job — one the governor already granted memory — wait unboundedly
/// behind a steady interactive stream; letting one heavy job through every
/// ninth dequeue bounds that wait while keeping interactive latency
/// dominated by the interactive lane.
const HEAVY_AGING_RATIO: u32 = 8;

/// Whether a worker should try the heavy lane before the interactive one.
/// `heavy_ready` means heavy work is queued *and* under the inflight quota.
fn serve_heavy_first(interactive_streak: u32, heavy_ready: bool) -> bool {
    heavy_ready && interactive_streak >= HEAVY_AGING_RATIO
}

/// State shared between the reactor and the worker threads.
struct PoolShared {
    lanes: Mutex<LaneQueues>,
    cv: Condvar,
    stop: AtomicBool,
    completions: Mutex<Vec<Done>>,
    waker: Arc<Waker>,
    governor: Arc<Governor>,
    /// Most workers that may simultaneously run heavy-lane jobs.
    heavy_quota: usize,
}

impl PoolShared {
    fn submit(&self, lane: Lane, client: u64, cost: u64, job: Job) {
        {
            let mut q = self.lanes.lock().unwrap();
            let gauges = self.governor.gauges();
            match lane {
                Lane::Interactive => {
                    q.interactive.push(client, cost, job);
                    gauges
                        .queue_depth_interactive
                        .store(q.interactive.len() as u64, Ordering::Relaxed);
                }
                Lane::Heavy => {
                    q.heavy.push(client, cost, job);
                    gauges
                        .queue_depth_heavy
                        .store(q.heavy.len() as u64, Ordering::Relaxed);
                }
            }
        }
        self.cv.notify_one();
    }

    /// Heavy-lane queue depth, the admission policy's congestion signal.
    fn heavy_depth(&self) -> usize {
        self.lanes.lock().unwrap().heavy.len()
    }

    fn complete(&self, done: Done) {
        let was_empty = {
            let mut c = self.completions.lock().unwrap();
            let was_empty = c.is_empty();
            c.push(done);
            was_empty
        };
        // One wake per drain cycle: while the vec is non-empty a wake is
        // already pending (the reactor swaps the whole vec under the lock,
        // so a push after the swap sees an empty vec and wakes again).
        if was_empty {
            self.waker.wake();
        }
    }
}

fn worker_loop(
    shared: Arc<PoolShared>,
    engine: Arc<CachedCompiler>,
    shutdown: Arc<AtomicBool>,
    opts: ServeOptions,
) {
    loop {
        // Workers prefer the interactive lane, with two carve-outs for
        // heavy work: at most `heavy_quota` heavy jobs run at once (leaving
        // `workers - heavy_quota` threads always answerable to interactive
        // traffic), and after `HEAVY_AGING_RATIO` consecutive interactive
        // dequeues one backlogged heavy job is served first so an admitted
        // heavy job cannot wait forever behind a steady interactive stream.
        let picked = {
            let mut q = shared.lanes.lock().unwrap();
            loop {
                let heavy_ready = q.heavy_inflight < shared.heavy_quota && !q.heavy.is_empty();
                if serve_heavy_first(q.interactive_streak, heavy_ready) {
                    if let Some(j) = q.heavy.pop() {
                        q.heavy_inflight += 1;
                        q.interactive_streak = 0;
                        shared
                            .governor
                            .gauges()
                            .queue_depth_heavy
                            .store(q.heavy.len() as u64, Ordering::Relaxed);
                        break Some((j, Lane::Heavy));
                    }
                }
                if let Some(j) = q.interactive.pop() {
                    q.interactive_streak = q.interactive_streak.saturating_add(1);
                    shared
                        .governor
                        .gauges()
                        .queue_depth_interactive
                        .store(q.interactive.len() as u64, Ordering::Relaxed);
                    break Some((j, Lane::Interactive));
                }
                if q.heavy_inflight < shared.heavy_quota {
                    if let Some(j) = q.heavy.pop() {
                        q.heavy_inflight += 1;
                        q.interactive_streak = 0;
                        shared
                            .governor
                            .gauges()
                            .queue_depth_heavy
                            .store(q.heavy.len() as u64, Ordering::Relaxed);
                        break Some((j, Lane::Heavy));
                    }
                }
                if shared.stop.load(Ordering::Acquire) {
                    break None;
                }
                q = shared.cv.wait(q).unwrap();
            }
        };
        let Some((job, lane)) = picked else { return };
        match job {
            Job::Line {
                slot,
                epoch,
                line,
                enqueued,
            } => {
                let wait = enqueued.elapsed();
                engine.stats().observe_queue_us(wait.as_micros() as u64);
                let ctx = RequestCtx {
                    queue_wait: wait,
                    lane: Some(lane),
                    governor: Some(Arc::clone(&shared.governor)),
                };
                let served = Instant::now();
                let doc = handle_line_ctx(&line, &engine, &shutdown, opts, &ctx).render();
                // A shed renders in microseconds; feeding that to the
                // classifier would demote genuinely heavy shapes into the
                // interactive lane.
                if !doc_is_shed(&doc) {
                    shared
                        .governor
                        .observe_service(&line, lane, served.elapsed());
                }
                shared.complete(Done::Line { slot, epoch, doc });
            }
            Job::Entries {
                slot,
                epoch,
                entries,
                enqueued,
            } => {
                let wait = enqueued.elapsed();
                engine.stats().observe_queue_us(wait.as_micros() as u64);
                let ctx = RequestCtx {
                    queue_wait: wait,
                    lane: Some(lane),
                    governor: Some(Arc::clone(&shared.governor)),
                };
                for e in entries {
                    let served = Instant::now();
                    let doc = run_entry(&engine, opts, &e.text, e.timeout_ms, &e.defaults, &ctx);
                    if !doc_is_shed(&doc) {
                        shared
                            .governor
                            .observe_service(&e.text, lane, served.elapsed());
                    }
                    shared.complete(Done::Entry {
                        slot,
                        epoch,
                        gen: e.gen,
                        idx: e.idx,
                        doc,
                    });
                }
            }
        }
        if lane == Lane::Heavy {
            {
                let mut q = shared.lanes.lock().unwrap();
                q.heavy_inflight -= 1;
            }
            // A queued heavy job may be runnable now that a slot freed.
            shared.cv.notify_one();
        }
    }
}

/// Compile one streamed batch entry into its rendered slot document.
/// Per-entry failures (parse or compile) fail that entry alone, matching
/// the tree batch handler's contract.
fn run_entry(
    engine: &Arc<CachedCompiler>,
    opts: ServeOptions,
    text: &str,
    timeout_ms: Option<u64>,
    defaults: &BatchDefaults,
    ctx: &RequestCtx,
) -> Arc<str> {
    let entry = match js::parse_json(text) {
        Ok(v) => v,
        Err(e) => {
            engine.stats().error();
            return error_response(e.to_string()).render().into();
        }
    };
    let resp = match CompileRequest::take_from_json(
        entry,
        defaults.machine.as_deref(),
        defaults.config.as_deref(),
    ) {
        Ok(req) => {
            let timeout = timeout_ms
                .map(Duration::from_millis)
                .unwrap_or(opts.default_timeout);
            compile_entry_ctx(engine, &req, timeout, "compile", ctx)
        }
        Err(m) => {
            engine.stats().error();
            error_response(m)
        }
    };
    match resp {
        js::Json::Raw(doc) => doc,
        other => other.render().into(),
    }
}

struct Slot {
    stream: TcpStream,
    conn: Conn,
    epoch: u32,
    interest: Interest,
}

struct Reactor {
    poller: Poller,
    listener: TcpListener,
    engine: Arc<CachedCompiler>,
    shutdown: Arc<AtomicBool>,
    pool: Arc<PoolShared>,
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    next_epoch: u32,
    live: usize,
    limits: ConnLimits,
    /// Pool size; sizes the entry-group chunking in [`Reactor::drive`].
    workers: usize,
    idle_timeout: Option<Duration>,
    max_conns: usize,
    draining: bool,
    /// Lane classification and admission policy for incoming requests.
    governor: Arc<Governor>,
}

/// Run the reactor core on `listener` until a shutdown is signalled and
/// every in-flight connection drains. Blocks the calling thread.
pub(crate) fn run(
    listener: TcpListener,
    engine: Arc<CachedCompiler>,
    shutdown: Arc<AtomicBool>,
    waker: Arc<Waker>,
    config: ReactorConfig,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let mut poller = Poller::new()?;
    poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
    poller.register(waker.fd(), WAKER_TOKEN, Interest::READ)?;
    let workers = config.workers.max(1);
    let pool = Arc::new(PoolShared {
        lanes: Mutex::new(LaneQueues {
            interactive: DwrrQueue::new(1),
            heavy: DwrrQueue::new(1),
            heavy_inflight: 0,
            interactive_streak: 0,
        }),
        cv: Condvar::new(),
        stop: AtomicBool::new(false),
        completions: Mutex::new(Vec::new()),
        waker: Arc::clone(&waker),
        governor: Arc::clone(&config.governor),
        heavy_quota: config.governor.heavy_workers().clamp(1, workers),
    });
    let handles: Vec<_> = (0..workers)
        .map(|i| {
            let shared = Arc::clone(&pool);
            let engine = Arc::clone(&engine);
            let shutdown = Arc::clone(&shutdown);
            let opts = config.opts;
            std::thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_loop(shared, engine, shutdown, opts))
                .expect("spawn worker thread")
        })
        .collect();

    let mut reactor = Reactor {
        poller,
        listener,
        engine,
        shutdown,
        pool: Arc::clone(&pool),
        slots: Vec::new(),
        free: Vec::new(),
        next_epoch: 0,
        live: 0,
        limits: ConnLimits {
            opts: config.opts,
            max_line_bytes: config.max_line_bytes,
        },
        workers,
        idle_timeout: config.idle_timeout,
        max_conns: config.max_conns.max(1),
        draining: false,
        governor: Arc::clone(&config.governor),
    };
    let result = reactor.event_loop(&waker);

    // Stop the pool: jobs for closed connections would be dropped on
    // completion anyway, so clear them instead of compiling into the void.
    {
        let mut q = pool.lanes.lock().unwrap();
        q.interactive.clear();
        q.heavy.clear();
    }
    pool.stop.store(true, Ordering::Release);
    pool.cv.notify_all();
    for h in handles {
        let _ = h.join();
    }
    reactor.engine.flush();
    result
}

impl Reactor {
    fn event_loop(&mut self, waker: &Waker) -> io::Result<()> {
        let mut events = Vec::with_capacity(128);
        loop {
            // With no idle timeout the loop sleeps until a socket or the
            // waker fires; with one it ticks often enough to sweep.
            let timeout = if self.draining {
                Some(Duration::from_millis(100))
            } else {
                self.idle_timeout
                    .map(|t| (t / 4).clamp(Duration::from_millis(10), Duration::from_secs(1)))
            };
            self.poller.wait(&mut events, timeout)?;
            let round = std::mem::take(&mut events);
            for ev in &round {
                match ev.token {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKER_TOKEN => waker.drain(),
                    token => {
                        let (slot, epoch) = split_token(token);
                        let valid = self
                            .slots
                            .get(slot)
                            .and_then(Option::as_ref)
                            .is_some_and(|s| s.epoch == epoch);
                        if !valid {
                            continue;
                        }
                        if ev.hangup && !ev.readable && !ev.writable {
                            // Pure error/hangup with nothing to read: the
                            // peer is gone and nothing more can flush.
                            self.close(slot);
                            continue;
                        }
                        if ev.readable {
                            self.on_readable(slot);
                        }
                        if ev.writable {
                            self.settle(slot);
                        }
                    }
                }
            }
            events = round;
            self.drain_completions();
            if !self.draining && self.shutdown.load(Ordering::SeqCst) {
                self.begin_drain();
            }
            self.sweep_idle();
            if self.draining && self.live == 0 {
                return Ok(());
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let (stream, _addr) = match self.listener.accept() {
                Ok(pair) => pair,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return, // transient (e.g. peer reset mid-accept)
            };
            self.engine.stats().accept();
            if self.live >= self.max_conns || self.draining {
                self.engine.stats().conn_rejected();
                // Best-effort courtesy error on the still-blocking socket;
                // a full send buffer on a brand-new connection is not worth
                // waiting for.
                let mut stream = stream;
                let _ = stream.set_nonblocking(true);
                let doc = error_response("server at connection capacity").render();
                let _ = stream.write_all(doc.as_bytes());
                let _ = stream.write_all(b"\n");
                continue; // drop => close
            }
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let slot = self.free.pop().unwrap_or_else(|| {
                self.slots.push(None);
                self.slots.len() - 1
            });
            let epoch = self.next_epoch;
            self.next_epoch = self.next_epoch.wrapping_add(1);
            let token = conn_token(slot, epoch);
            if self
                .poller
                .register(stream.as_raw_fd(), token, Interest::READ)
                .is_err()
            {
                self.free.push(slot);
                continue;
            }
            self.slots[slot] = Some(Slot {
                stream,
                conn: Conn::new(),
                epoch,
                interest: Interest::READ,
            });
            self.live += 1;
        }
    }

    fn on_readable(&mut self, idx: usize) {
        let mut scratch = [0u8; 64 * 1024];
        let mut taken = 0usize;
        loop {
            let Some(slot) = self.slots[idx].as_mut() else {
                return;
            };
            match slot.stream.read(&mut scratch) {
                Ok(0) => {
                    slot.conn.peer_closed = true;
                    break;
                }
                Ok(n) => {
                    slot.conn.push_bytes(&scratch[..n]);
                    taken += n;
                    if taken >= READ_BUDGET {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(idx);
                    return;
                }
            }
        }
        self.drive(idx);
    }

    /// Run the connection's state machine and dispatch the work it yields,
    /// then flush, close, and recompute poller interest as appropriate.
    fn drive(&mut self, idx: usize) {
        loop {
            let actions = {
                let stats = self.engine.stats();
                let Some(slot) = self.slots[idx].as_mut() else {
                    return;
                };
                slot.conn.advance(&self.limits, stats)
            };
            if actions.is_empty() {
                break;
            }
            let epoch = match self.slots[idx].as_ref() {
                Some(s) => s.epoch,
                None => return,
            };
            let mut group_interactive: Vec<EntryJob> = Vec::new();
            let mut group_heavy: Vec<EntryJob> = Vec::new();
            for action in actions {
                match action {
                    Action::Line(line) => {
                        let lane = self.governor.classify(&line);
                        match self.governor.admit(lane, self.pool.heavy_depth()) {
                            Admission::Admit => {
                                if let Some(s) = self.slots[idx].as_mut() {
                                    s.conn.busy = true;
                                }
                                self.pool.submit(
                                    lane,
                                    idx as u64,
                                    1,
                                    Job::Line {
                                        slot: idx,
                                        epoch,
                                        line,
                                        enqueued: Instant::now(),
                                    },
                                );
                            }
                            // Shed/reject on the reactor thread: the typed
                            // response goes straight onto the connection
                            // without touching a worker or the pool.
                            Admission::Shed { retry_after_ms } => {
                                if let Some(s) = self.slots[idx].as_mut() {
                                    s.conn.busy = true;
                                    s.conn
                                        .on_line_response(&shed_response(retry_after_ms).render());
                                }
                            }
                            Admission::Reject => {
                                if let Some(s) = self.slots[idx].as_mut() {
                                    s.conn.busy = true;
                                    s.conn.on_line_response(&reject_response().render());
                                }
                            }
                        }
                    }
                    Action::Entry {
                        gen,
                        idx: entry_idx,
                        text,
                        timeout_ms,
                        defaults,
                    } => {
                        let lane = self.governor.classify(&text);
                        // Count this round's still-ungrouped heavy entries
                        // toward the depth the policy sees, since they are
                        // only enqueued after the loop.
                        let depth = self.pool.heavy_depth() + group_heavy.len();
                        match self.governor.admit(lane, depth) {
                            Admission::Admit => {
                                let e = EntryJob {
                                    gen,
                                    idx: entry_idx,
                                    text,
                                    timeout_ms,
                                    defaults,
                                };
                                match lane {
                                    Lane::Interactive => group_interactive.push(e),
                                    Lane::Heavy => group_heavy.push(e),
                                }
                            }
                            Admission::Shed { retry_after_ms } => {
                                if let Some(s) = self.slots[idx].as_mut() {
                                    s.conn.on_entry_result(
                                        gen,
                                        entry_idx,
                                        shed_response(retry_after_ms).render().into(),
                                    );
                                }
                            }
                            Admission::Reject => {
                                if let Some(s) = self.slots[idx].as_mut() {
                                    s.conn.on_entry_result(
                                        gen,
                                        entry_idx,
                                        reject_response().render().into(),
                                    );
                                }
                            }
                        }
                    }
                    Action::CloseAfterFlush => {} // `closing` is already set
                }
            }
            self.submit_entry_group(idx, epoch, Lane::Interactive, group_interactive);
            self.submit_entry_group(idx, epoch, Lane::Heavy, group_heavy);
        }
        self.settle(idx);
    }

    /// Chunk one lane's ready entries across that lane's workers: enough
    /// jobs to occupy every worker the lane may hold, as few queue
    /// handoffs as that allows.
    fn submit_entry_group(&self, idx: usize, epoch: u32, lane: Lane, group: Vec<EntryJob>) {
        if group.is_empty() {
            return;
        }
        let lane_workers = match lane {
            Lane::Interactive => self.workers,
            Lane::Heavy => self.pool.heavy_quota,
        };
        let jobs = lane_workers.max(1).min(group.len());
        let per = group.len().div_ceil(jobs);
        let mut it = group.into_iter();
        loop {
            let chunk: Vec<EntryJob> = it.by_ref().take(per).collect();
            if chunk.is_empty() {
                break;
            }
            // DWRR cost = entry count, so a bulk batch pays for its size.
            let cost = chunk.len() as u64;
            self.pool.submit(
                lane,
                idx as u64,
                cost,
                Job::Entries {
                    slot: idx,
                    epoch,
                    entries: chunk,
                    enqueued: Instant::now(),
                },
            );
        }
    }

    /// Flush pending response bytes, close if the connection is finished,
    /// otherwise reconcile poller interest with the connection's state.
    fn settle(&mut self, idx: usize) {
        self.try_flush(idx);
        let Some(slot) = self.slots[idx].as_ref() else {
            return;
        };
        let conn = &slot.conn;
        let flushed = !conn.has_pending_write();
        let finished =
            conn.closing || ((conn.peer_closed || self.draining) && !conn.waiting_on_server());
        if finished && flushed {
            self.close(idx);
            return;
        }
        let want = Interest {
            readable: !self.draining && conn.wants_read(),
            writable: conn.has_pending_write(),
        };
        if want != slot.interest {
            let fd = slot.stream.as_raw_fd();
            let token = conn_token(idx, slot.epoch);
            if self.poller.reregister(fd, token, want).is_err() {
                self.close(idx);
                return;
            }
            if let Some(s) = self.slots[idx].as_mut() {
                s.interest = want;
            }
        }
    }

    fn try_flush(&mut self, idx: usize) {
        loop {
            let Some(slot) = self.slots[idx].as_mut() else {
                return;
            };
            let Some(bytes) = slot.conn.pending_write() else {
                return;
            };
            match slot.stream.write(bytes) {
                Ok(0) => {
                    self.close(idx);
                    return;
                }
                Ok(n) => {
                    slot.conn.consume_written(n);
                    slot.conn.note_activity();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(idx);
                    return;
                }
            }
        }
    }

    fn close(&mut self, idx: usize) {
        if let Some(slot) = self.slots[idx].take() {
            let _ = self.poller.deregister(slot.stream.as_raw_fd());
            self.free.push(idx);
            self.live -= 1;
            // `slot.stream` drops here, closing the fd after deregistration.
        }
    }

    /// Route finished jobs back to their connections; stale epochs (the
    /// slot was closed and possibly recycled) and stale batch generations
    /// are dropped on the floor.
    fn drain_completions(&mut self) {
        let done: Vec<Done> = std::mem::take(&mut *self.pool.completions.lock().unwrap());
        for d in done {
            let (slot_idx, epoch) = match &d {
                Done::Line { slot, epoch, .. } | Done::Entry { slot, epoch, .. } => (*slot, *epoch),
            };
            let live = self
                .slots
                .get_mut(slot_idx)
                .and_then(Option::as_mut)
                .filter(|s| s.epoch == epoch);
            let Some(slot) = live else { continue };
            match d {
                Done::Line { doc, .. } => slot.conn.on_line_response(&doc),
                Done::Entry { gen, idx, doc, .. } => slot.conn.on_entry_result(gen, idx, doc),
            }
            slot.conn.note_activity();
            self.drive(slot_idx);
        }
    }

    /// Shutdown observed: stop accepting, let in-flight work finish, flush
    /// and close everything else.
    fn begin_drain(&mut self) {
        self.draining = true;
        let _ = self.poller.deregister(self.listener.as_raw_fd());
        for idx in 0..self.slots.len() {
            if self.slots[idx].is_some() {
                self.settle(idx);
            }
        }
    }

    /// Close connections idle past the configured timeout. Connections the
    /// *server* owes work to are exempt — the slowness is ours. A closing
    /// connection that still cannot flush a tick later is dropped hard.
    fn sweep_idle(&mut self) {
        let Some(limit) = self.idle_timeout else {
            return;
        };
        for idx in 0..self.slots.len() {
            enum Verdict {
                Keep,
                Courtesy,
                Hard,
            }
            let verdict = match self.slots[idx].as_ref() {
                Some(s)
                    if !s.conn.waiting_on_server() && s.conn.last_activity.elapsed() > limit =>
                {
                    if s.conn.closing {
                        Verdict::Hard
                    } else {
                        Verdict::Courtesy
                    }
                }
                _ => Verdict::Keep,
            };
            match verdict {
                Verdict::Keep => {}
                Verdict::Hard => self.close(idx),
                Verdict::Courtesy => {
                    self.engine.stats().idle_close();
                    if let Some(s) = self.slots[idx].as_mut() {
                        s.conn.fail_and_close("idle timeout: closing connection");
                    }
                    self.settle(idx);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{serve_heavy_first, HEAVY_AGING_RATIO};

    #[test]
    fn interactive_wins_until_the_streak_ages() {
        for streak in 0..HEAVY_AGING_RATIO {
            assert!(!serve_heavy_first(streak, true));
        }
        assert!(serve_heavy_first(HEAVY_AGING_RATIO, true));
        assert!(serve_heavy_first(HEAVY_AGING_RATIO + 100, true));
    }

    #[test]
    fn aging_never_fires_without_ready_heavy_work() {
        // Quota exhausted or an empty heavy queue both clear `heavy_ready`;
        // the streak alone must never divert a worker.
        assert!(!serve_heavy_first(HEAVY_AGING_RATIO, false));
        assert!(!serve_heavy_first(u32::MAX, false));
    }

    #[test]
    fn heavy_wait_is_bounded_under_interactive_flood() {
        // Simulate the worker pick loop's streak bookkeeping with both
        // lanes permanently backlogged: heavy must be served at least once
        // every `HEAVY_AGING_RATIO + 1` dequeues, so an admitted heavy job
        // waits a bounded number of service slots, never unboundedly.
        let mut streak = 0u32;
        let mut since_heavy = 0u32;
        for _ in 0..1000 {
            if serve_heavy_first(streak, true) {
                streak = 0;
                since_heavy = 0;
            } else {
                streak += 1;
                since_heavy += 1;
            }
            assert!(since_heavy <= HEAVY_AGING_RATIO);
        }
    }
}
