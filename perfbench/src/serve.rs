//! `serve-mixed`: the compile service under a seeded open-loop request mix.
//!
//! The server is `vliw-served`'s reactor core (the same `ServerConfig` its
//! `main` builds for `--workers 2 --cache-dir DIR`) in a child process of
//! this binary, on loopback, with the disk tier in a fresh directory. Set-up
//! fills the cache with the corpus × {4×4-embedded, 4×4-copy-unit}, then
//! restarts the server over the same store, so the disk tier is read on
//! first touch. One generator process drives two connections from two
//! threads: the interactive mix on one, the heavy lane on the other.
//!
//! Request classes (a seeded draw in blocks of fixed class counts):
//!
//! * `warm` — a repeat of a filled corpus entry;
//! * `variant` — a fresh `vliw_normal::variant` of a corpus entry (an
//!   exact-key miss served through the semantic alias);
//! * `cold` — a loop never seen before: compile, cache write, journal;
//! * `batch` — one canonical `compile_batch` line of distinct warm entries;
//! * `heavy` — a fresh pressure-slice loop under the joint partitioner,
//!   which the governor routes to the heavy lane.
//!
//! Every request is timed from when it was due. The nominal-rate phase
//! gives the latency metrics; a ladder of faster phases gives
//! `max_rate_per_s`, interpolated where the tail crosses the limit. Set-up,
//! nominal phase and ladder run three times on identically prepared
//! servers with the same schedule, and each request (and ladder rate) keeps
//! its best replay.

use crate::report::{Metrics, Outcome};
use crate::trace::{self, span, Totals};
use crate::util::{beyond, derive, median, ms, out_dir, peak_rss_mb, percentile, Rng};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vliw_machine::MachineDesc;
use vliw_pipeline::{run_loop, PartitionerKind, PipelineConfig};
use vliw_serve::{
    parse_json, CachedCompiler, Client, CompileRequest, CompileResult, DiskStore, Json, Server,
    ServerConfig, TieredCache,
};

/// First argument that turns this binary into the server child.
pub const CHILD_ARG: &str = "serve-child";
/// Server compile workers.
pub const WORKERS: usize = 2;
/// Generator connections (and threads): interactive and heavy.
pub const CONNECTIONS: usize = 2;
/// Offered rate of the nominal phase, requests per second: about 7% of the
/// capacity the ladder finds on a 2-vCPU host, so the latency metrics read
/// the request path of a lightly loaded server and queueing shows in
/// `max_rate_per_s`.
pub const NOMINAL_RATE: f64 = 400.0;
/// Latency limit on the tail percentile: over twenty times the low-load
/// tail, so only a queue that builds (not a slow cold compile or a host
/// scheduling stall) crosses it.
pub const LIMIT_MS: f64 = 50.0;
/// Tail percentile. Its rank sits inside the cold-compile class (the top
/// 8% of requests are cold and heavy compiles), so the tail reads the write
/// path; at p99 it would read the host's scheduling jitter instead.
pub const TAIL_PCT: f64 = 95.0;
/// Entries per batch request.
pub const BATCH: usize = 8;
/// Requests per block of the class draw: each block holds every class at
/// its exact share (40 warm, 4 variant, 3 cold, 2 batch, 1 heavy).
pub const BLOCK: usize = 50;
/// Offered rates of the capacity ladder above the nominal rate (steps of
/// 1.25×, up to past where the interactive connection saturates).
pub const LADDER: [f64; 11] = [
    1000.0, 1250.0, 1560.0, 1950.0, 2440.0, 3050.0, 3810.0, 4770.0, 5960.0, 7450.0, 9310.0,
];
/// Seconds per ladder phase.
pub const LADDER_PHASE_S: f64 = 0.5;
/// Joint budget of heavy requests: far above any solve in the pool.
pub const HEAVY_BUDGET_MS: u64 = 20_000;
/// Trip counts of cold loops: disjoint from the corpus, and close to it,
/// since compile cost grows with the trip count (array extents).
pub const COLD_TRIPS: (u32, u32) = (81, 200);
/// Trip counts of heavy loops (above the pressure slice's own range).
pub const HEAVY_TRIPS: (u32, u32) = (65, 400);
/// Requests a generator connection keeps outstanding at most: past it the
/// generator reads before it sends (and falls behind) rather than filling
/// both socket buffers.
pub const MAX_OUTSTANDING: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    Warm,
    Variant,
    Cold,
    Batch,
    Heavy,
}

impl Class {
    const ALL: [Class; 5] = [
        Class::Warm,
        Class::Variant,
        Class::Cold,
        Class::Batch,
        Class::Heavy,
    ];
    pub fn name(self) -> &'static str {
        match self {
            Class::Warm => "warm",
            Class::Variant => "variant",
            Class::Cold => "cold",
            Class::Batch => "batch",
            Class::Heavy => "heavy",
        }
    }
    /// Share of requests drawn in this class. No traffic record exists to
    /// take these from, so they are assumptions, except that cold + heavy =
    /// 8% puts the p95 rank in the middle of the cold class.
    pub fn share(self) -> f64 {
        match self {
            Class::Warm => 0.80,
            Class::Variant => 0.08,
            Class::Cold => 0.06,
            Class::Batch => 0.04,
            Class::Heavy => 0.02,
        }
    }
    fn conn(self) -> usize {
        usize::from(self == Class::Heavy)
    }
}

// ---------------------------------------------------------------------------
// The server child.

/// Entry point of the server child: `serve-child --cache-dir DIR`.
pub fn child_main(args: &[String]) {
    let dir = match args {
        [flag, dir] if flag == "--cache-dir" => PathBuf::from(dir),
        _ => {
            eprintln!("usage: perfbench {CHILD_ARG} --cache-dir DIR");
            std::process::exit(2);
        }
    };
    let engine = CachedCompiler::new(TieredCache::new(4096, Some(DiskStore::new(dir))));
    let server = Server::bind(server_config(), engine).expect("bind loopback listener");
    let addr = server.local_addr().expect("bound listener has an address");
    println!("listening on {addr}");
    std::io::stdout().flush().expect("stdout is writable");
    server.run();
}

/// What `vliw-served --workers 2` configures (its other flags at their
/// defaults).
fn server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: WORKERS,
        default_timeout: Duration::from_millis(30_000),
        batch_parallelism: 8,
        idle_timeout: Some(Duration::from_millis(300_000)),
        ..ServerConfig::default()
    }
}

/// A running server child. Dropping it kills and reaps the process.
struct ServerProc {
    child: Child,
    addr: String,
}

impl ServerProc {
    fn start(dir: &Path) -> ServerProc {
        let exe = std::env::current_exe().expect("own executable path");
        let mut child = Command::new(exe)
            .arg(CHILD_ARG)
            .arg("--cache-dir")
            .arg(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn server child");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read server address");
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected server banner {line:?}"))
            .to_string();
        ServerProc { child, addr }
    }

    fn connect(&self) -> TcpStream {
        let s = TcpStream::connect(&self.addr).expect("connect to server");
        s.set_nodelay(true).expect("set TCP_NODELAY");
        s
    }

    fn client(&self) -> Client {
        Client::connect(&self.addr).expect("connect to server")
    }

    fn stats(&self) -> Json {
        self.client().stats().expect("stats reply")
    }

    fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&self.child.id().to_string()).unwrap_or(0.0)
    }

    /// Shut down over the wire (flushing the write-behind journal) and reap.
    fn shutdown(mut self) {
        let _ = self.client().shutdown();
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        eprintln!("serve-mixed: server did not exit after shutdown; killing it");
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Send `line` and read one response line on `s`.
fn round_trip(s: &mut TcpStream, buf: &mut Vec<u8>, line: &str) -> String {
    s.write_all(line.as_bytes()).expect("send request");
    s.write_all(b"\n").expect("send request");
    read_line(s, buf).expect("server reply")
}

/// Read one `\n`-terminated line, keeping any excess in `buf`.
fn read_line(s: &mut TcpStream, buf: &mut Vec<u8>) -> std::io::Result<String> {
    let mut chunk = [0u8; 64 * 1024];
    loop {
        if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = buf.drain(..=pos).collect();
            return Ok(String::from_utf8_lossy(&line[..line.len() - 1]).into_owned());
        }
        let n = s.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

// ---------------------------------------------------------------------------
// Inputs.

/// One compile entry and how its correct result is derived.
#[derive(Clone)]
struct Entry {
    req: CompileRequest,
    /// The warm entry this is (or is a variant of).
    warm: Option<usize>,
    variant: bool,
}

/// One wire request.
#[derive(Clone)]
struct Req {
    class: Class,
    line: String,
    entries: Vec<Entry>,
}

/// The seeded inputs of one serve-mixed run.
struct Inputs {
    warm: Vec<CompileRequest>,
    cold: Vec<CompileRequest>,
    heavy: Vec<CompileRequest>,
    rng: Rng,
    /// The classes left in the current block of the class draw.
    block: Vec<Class>,
    /// Warm entries in seeded order, requested cyclically.
    warm_order: Vec<usize>,
    warm_pos: usize,
    next_cold: usize,
    next_heavy: usize,
    next_variant: u64,
    variant_seed: u64,
}

/// Seeded Fisher–Yates shuffle.
fn shuffle<T>(v: &mut [T], rng: &mut Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
}

/// Interleave groups so that every prefix holds each group close to its
/// share of the whole: item `j` of a group of `k` sorts at `(j + u) / k`,
/// with `u` a seeded offset per group.
fn interleave<T>(groups: Vec<Vec<T>>, rng: &mut Rng) -> Vec<T> {
    let mut keyed: Vec<(f64, T)> = Vec::new();
    for g in groups {
        let (k, u) = (g.len() as f64, rng.unit());
        keyed.extend(
            g.into_iter()
                .enumerate()
                .map(|(j, x)| ((j as f64 + u) / k, x)),
        );
    }
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
    keyed.into_iter().map(|(_, x)| x).collect()
}

/// Requests for `loops` under `cfg`, alternating between the two machines.
fn on_machines(loops: &[vliw_ir::Loop], cfg: &PipelineConfig) -> Vec<CompileRequest> {
    let ms = machines();
    loops
        .iter()
        .enumerate()
        .map(|(i, l)| CompileRequest::from_parts(l, &ms[i % 2], cfg))
        .collect()
}

fn machines() -> [MachineDesc; 2] {
    [MachineDesc::embedded(4, 4), MachineDesc::copy_unit(4, 4)]
}

fn heavy_config() -> PipelineConfig {
    PipelineConfig {
        partitioner: PartitionerKind::Joint {
            budget_ms: HEAVY_BUDGET_MS,
        },
        ..Default::default()
    }
}

/// Fresh pressure loops with distinct (vregs, trip) pairs, `per_count` of
/// each vreg count, grouped by vreg count.
fn heavy_loops(seed: u64, per_count: usize) -> Vec<Vec<vliw_ir::Loop>> {
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::new();
    let mut round = 0u64;
    while out.len() < 12 * per_count {
        let want = 12 * per_count - out.len();
        for l in crate::inputs::pressure(
            derive(seed, &format!("heavy/{round}")),
            want.div_ceil(12) * 2,
            HEAVY_TRIPS,
        ) {
            if out.len() < 12 * per_count && seen.insert((l.n_vregs(), l.trip_count)) {
                out.push(l);
            }
        }
        round += 1;
    }
    let mut groups = std::collections::BTreeMap::<usize, Vec<vliw_ir::Loop>>::new();
    for l in out {
        groups.entry(l.n_vregs()).or_default().push(l);
    }
    groups.into_values().collect()
}

impl Inputs {
    /// Inputs for `n_requests` requests at most.
    fn new(seed: u64, n_requests: usize) -> Inputs {
        let [m0, m1] = machines();
        let cfg = PipelineConfig::default();
        let corpus = crate::inputs::corpus(
            seed,
            crate::inputs::CORPUS_LOOPS,
            crate::inputs::CORPUS_TRIPS,
        );
        let warm = corpus
            .iter()
            .flat_map(|l| [&m0, &m1].map(|m| CompileRequest::from_parts(l, m, &cfg)))
            .collect();
        // Pools sized for the class draw (share + margin). Each is
        // interleaved by stratum (cold: family and unroll; heavy: vreg
        // count), so the first `k` requests of a class hold every stratum
        // at its share and every seed asks for the same work.
        let pool = |class: Class| (n_requests as f64 * class.share() * 1.25) as usize + 32;
        let mut rng = Rng::new(derive(seed, "serve/pool-order"));
        let cold = interleave(
            crate::inputs::corpus_strata(derive(seed, "serve/cold"), pool(Class::Cold), COLD_TRIPS),
            &mut rng,
        );
        let heavy = interleave(
            heavy_loops(derive(seed, "serve/heavy"), pool(Class::Heavy).div_ceil(12)),
            &mut rng,
        );
        let mut warm_order: Vec<usize> = (0..2 * corpus.len()).collect();
        shuffle(&mut warm_order, &mut rng);
        Inputs {
            warm,
            cold: on_machines(&cold, &cfg),
            heavy: on_machines(&heavy, &heavy_config()),
            rng: Rng::new(derive(seed, "serve/classes")),
            block: Vec::new(),
            warm_order,
            warm_pos: 0,
            next_cold: 0,
            next_heavy: 0,
            next_variant: 0,
            variant_seed: derive(seed, "serve/variants"),
        }
    }

    /// The next class, from a block of [`BLOCK`] requests in seeded order,
    /// so every phase holds each class at its exact share.
    fn draw_class(&mut self) -> Class {
        if self.block.is_empty() {
            for c in Class::ALL {
                let k = (c.share() * BLOCK as f64).round() as usize;
                self.block.extend(std::iter::repeat_n(c, k));
            }
            shuffle(&mut self.block, &mut self.rng);
        }
        self.block.pop().expect("a block holds every class")
    }

    /// The next warm entry of the cycle, so every filled entry is requested
    /// equally often.
    fn next_warm(&mut self) -> usize {
        let i = self.warm_order[self.warm_pos % self.warm_order.len()];
        self.warm_pos += 1;
        i
    }

    fn warm_entry(&mut self) -> Entry {
        let i = self.next_warm();
        Entry {
            req: self.warm[i].clone(),
            warm: Some(i),
            variant: false,
        }
    }

    /// The next request of the seeded stream.
    fn next(&mut self) -> Req {
        let class = self.draw_class();
        let entries = match class {
            Class::Warm => vec![self.warm_entry()],
            Class::Variant => {
                let i = self.next_warm();
                let (body, machine, cfg) = self.warm[i].decode().expect("warm request decodes");
                let seed = self.variant_seed.wrapping_add(self.next_variant);
                self.next_variant += 1;
                let v = vliw_normal::variant(&body, seed);
                vec![Entry {
                    req: CompileRequest::from_parts(&v, &machine, &cfg),
                    warm: Some(i),
                    variant: true,
                }]
            }
            Class::Cold => {
                let req = self.cold[self.next_cold].clone();
                self.next_cold += 1;
                vec![Entry {
                    req,
                    warm: None,
                    variant: false,
                }]
            }
            Class::Heavy => {
                let req = self.heavy[self.next_heavy].clone();
                self.next_heavy += 1;
                vec![Entry {
                    req,
                    warm: None,
                    variant: false,
                }]
            }
            // Consecutive entries of the cycle are distinct.
            Class::Batch => (0..BATCH).map(|_| self.warm_entry()).collect(),
        };
        let line = match class {
            Class::Batch => batch_line(entries.iter().map(|e| &e.req)),
            _ => compile_line(&entries[0].req),
        };
        Req {
            class,
            line,
            entries,
        }
    }
}

fn compile_line(req: &CompileRequest) -> String {
    Json::obj([
        ("op", Json::Str("compile".into())),
        ("request", req.to_json()),
    ])
    .render()
}

/// A canonical (op first, requests last) batch line.
fn batch_line<'a>(reqs: impl Iterator<Item = &'a CompileRequest>) -> String {
    let mut line = String::from("{\"op\":\"compile_batch\",\"requests\":[");
    for (i, r) in reqs.enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(&r.to_json().render());
    }
    line.push_str("]}");
    line
}

// ---------------------------------------------------------------------------
// The open-loop generator.

/// What happened to one request of a phase.
#[derive(Clone)]
struct Sample {
    /// Response time from when the request was due, ms.
    latency_ms: f64,
    /// How late the generator sent it, ms.
    late_ms: f64,
    response: String,
}

/// Drive one connection through `schedule` (`(due offset, request index)`),
/// returning one sample per request in schedule order, and whether the
/// server's backlog ever reached [`MAX_OUTSTANDING`].
fn drive(
    mut s: TcpStream,
    reqs: &[Req],
    schedule: &[(Duration, usize)],
    t0: Instant,
) -> std::io::Result<(Vec<Sample>, bool)> {
    let mut out: Vec<Sample> = Vec::with_capacity(schedule.len());
    let mut inflight: std::collections::VecDeque<(Instant, f64)> = Default::default();
    let mut buf = Vec::new();
    let mut chunk = vec![0u8; 256 * 1024];
    let mut k = 0;
    let mut wire = Vec::new();
    let mut backlogged = false;
    while k < schedule.len() || !inflight.is_empty() {
        let now = Instant::now();
        let due = k < schedule.len() && now >= t0 + schedule[k].0;
        backlogged |= due && inflight.len() >= MAX_OUTSTANDING;
        if due && inflight.len() < MAX_OUTSTANDING {
            let due = t0 + schedule[k].0;
            wire.clear();
            wire.extend_from_slice(reqs[schedule[k].1].line.as_bytes());
            wire.push(b'\n');
            s.write_all(&wire)?;
            inflight.push_back((due, ms(now - due)));
            k += 1;
            continue;
        }
        // Complete lines already buffered first.
        if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = buf.drain(..=pos).collect();
            let done = Instant::now();
            let (due, late_ms) = inflight.pop_front().expect("a response answers a request");
            out.push(Sample {
                latency_ms: ms(done - due),
                late_ms,
                response: String::from_utf8_lossy(&line[..line.len() - 1]).into_owned(),
            });
            continue;
        }
        let wait = if k < schedule.len() {
            (t0 + schedule[k].0).saturating_duration_since(now)
        } else {
            Duration::from_secs(60)
        };
        if inflight.is_empty() {
            std::thread::sleep(wait);
            continue;
        }
        s.set_read_timeout(Some(wait.max(Duration::from_micros(50))))?;
        match s.read(&mut chunk) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ))
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if k >= schedule.len() {
                    return Err(e);
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok((out, backlogged))
}

/// One open-loop phase: `n` requests at `rate` per second (exponential
/// gaps), split over the two connections by class.
#[derive(Clone)]
struct Phase {
    rate: f64,
    reqs: Vec<Req>,
    samples: Vec<Sample>,
    elapsed_s: f64,
    /// The server's backlog reached [`MAX_OUTSTANDING`] on a connection: a
    /// queue that builds, so the rate is missed (and late sends are the
    /// server's doing, not the generator's).
    backlogged: bool,
}

fn run_phase(server: &ServerProc, inputs: &mut Inputs, rate: f64, n: usize) -> Phase {
    let reqs: Vec<Req> = (0..n).map(|_| inputs.next()).collect();
    let mut schedules: [Vec<(Duration, usize)>; CONNECTIONS] = Default::default();
    let mut t = 0.0f64;
    for (i, r) in reqs.iter().enumerate() {
        t += -(1.0 - inputs.rng.unit()).ln() / rate;
        schedules[r.class.conn()].push((Duration::from_secs_f64(t), i));
    }
    let conns = [server.connect(), server.connect()];
    let t0 = Instant::now() + Duration::from_millis(5);
    let results: Vec<std::io::Result<(Vec<Sample>, bool)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .zip(&schedules)
            .map(|(s, sched)| {
                let reqs = &reqs;
                scope.spawn(move || drive(s, reqs, sched, t0))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let elapsed_s = t0.elapsed().as_secs_f64();
    let mut samples: Vec<Option<Sample>> = vec![None; n];
    let mut backlogged = false;
    for (sched, res) in schedules.iter().zip(results) {
        let (got, full) = res.unwrap_or_else(|e| panic!("generator connection failed: {e}"));
        backlogged |= full;
        for (&(_, i), s) in sched.iter().zip(got) {
            samples[i] = Some(s);
        }
    }
    Phase {
        rate,
        reqs,
        samples: samples
            .into_iter()
            .map(|s| s.expect("every request answered"))
            .collect(),
        elapsed_s,
        backlogged,
    }
}

/// A response's results, one per entry: `Err` for a malformed response
/// (a wrong output), an entry's inner `Err` for a refusal (shed, rejected,
/// timed out or failed — a miss, not a wrong output).
type Decoded = Result<Vec<Result<CompileResult, String>>, String>;

fn decode_response(class: Class, response: &str) -> Decoded {
    let doc = parse_json(response).map_err(|e| e.to_string())?;
    let entry = |d: &Json| -> Result<Result<CompileResult, String>, String> {
        match d.get("ok").and_then(Json::as_bool) {
            Some(true) => {
                CompileResult::from_json(d.get("result").ok_or("response without result")?).map(Ok)
            }
            Some(false) => Ok(Err(d
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("error without message")
                .to_string())),
            None => Err("response without ok".to_string()),
        }
    };
    match (class, doc.get("results").and_then(Json::as_arr)) {
        (Class::Batch, Some(entries)) => entries.iter().map(entry).collect(),
        _ => Ok(vec![entry(&doc)?]),
    }
}

/// Phase latency summary.
struct PhaseStats {
    /// Median and tail latency of the requests served.
    p50: f64,
    tail: f64,
    /// Tail latency with every refused or wrong request counted as a miss
    /// (infinite): what the capacity ladder compares with the limit.
    miss_tail: f64,
    late_p99: f64,
    late_share: f64,
    /// Whether the phase drained without a growing backlog.
    drained: bool,
}

fn phase_stats(p: &Phase, failed: &[bool]) -> PhaseStats {
    let mut with_misses: Vec<f64> = p
        .samples
        .iter()
        .zip(failed)
        .map(|(s, &f)| if f { f64::INFINITY } else { s.latency_ms })
        .collect();
    with_misses.sort_by(f64::total_cmp);
    let served: Vec<f64> = with_misses
        .iter()
        .copied()
        .filter(|l| l.is_finite())
        .collect();
    let mut late: Vec<f64> = p.samples.iter().map(|s| s.late_ms).collect();
    late.sort_by(f64::total_cmp);
    PhaseStats {
        p50: percentile(&served, 50.0),
        tail: percentile(&served, TAIL_PCT),
        miss_tail: percentile(&with_misses, TAIL_PCT),
        late_p99: percentile(&late, 99.0),
        late_share: late.iter().filter(|&&l| l > 1.0).count() as f64 / late.len() as f64,
        drained: phase_drained(p),
    }
}

// ---------------------------------------------------------------------------
// Set-up.

/// Fill a fresh store at `dir` with every warm entry, then restart the
/// server over it. Returns the restarted server.
fn set_up(dir: &Path, warm: &[CompileRequest]) -> ServerProc {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create cache dir");
    let server = ServerProc::start(dir);
    let mut client = server.client();
    for chunk in warm.chunks(32) {
        let served = client
            .compile_batch(chunk, None, None)
            .expect("cache fill reply");
        assert!(served.iter().all(Result::is_ok), "cache fill failed");
    }
    drop(client);
    server.shutdown();
    ServerProc::start(dir)
}

/// The in-process twin of [`set_up`] for the traced replay.
fn set_up_in_process(dir: &Path, warm: &[CompileRequest]) -> Arc<CachedCompiler> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create cache dir");
    let fill = CachedCompiler::new(TieredCache::new(4096, Some(DiskStore::new(dir))));
    for r in warm {
        fill.serve_rendered(r, None)
            .expect("in-process fill compiles");
    }
    fill.flush();
    drop(fill);
    CachedCompiler::new(TieredCache::new(4096, Some(DiskStore::new(dir))))
}

// ---------------------------------------------------------------------------
// Output checks.

/// Derives the correct result of every entry (memoised per warm entry).
struct Oracle<'a> {
    warm: &'a [CompileRequest],
    warm_expected: Vec<Option<CompileResult>>,
    /// Expected results of the other entries, by request.
    memo: std::collections::HashMap<CompileRequest, CompileResult>,
}

fn direct(req: &CompileRequest) -> CompileResult {
    let (body, machine, cfg) = req.decode().expect("generated request decodes");
    CompileResult::from_loop_result(req.cache_key(), &run_loop(&body, &machine, &cfg))
}

impl<'a> Oracle<'a> {
    fn new(warm: &'a [CompileRequest]) -> Self {
        Oracle {
            warm,
            warm_expected: vec![None; warm.len()],
            memo: Default::default(),
        }
    }

    fn warm(&mut self, i: usize) -> &CompileResult {
        let req = &self.warm[i];
        self.warm_expected[i].get_or_insert_with(|| direct(req))
    }

    fn expected(&mut self, e: &Entry) -> CompileResult {
        if let (Some(i), false) = (e.warm, e.variant) {
            return self.warm(i).clone();
        }
        if let Some(hit) = self.memo.get(&e.req) {
            return hit.clone();
        }
        let want = match e.warm {
            Some(i) => {
                let rep = self.warm(i).clone();
                let (canon, w_rep) = self.warm[i]
                    .semantic_canonicalize()
                    .expect("warm request canonicalizes");
                let (_, w_var) = e
                    .req
                    .semantic_canonicalize()
                    .expect("variant canonicalizes");
                let mapped = rep
                    .clone()
                    .into_canonical_space(canon.cache_key(), &w_rep)
                    .from_canonical_space(e.req.cache_key(), &w_var);
                // Key and name come from the variant itself, not from the
                // mapping under test; only diagnostic anchors need the witness.
                let (body, _, _) = e.req.decode().expect("variant decodes");
                CompileResult {
                    key: e.req.cache_key(),
                    name: body.name,
                    diagnostics: mapped.diagnostics,
                    ..rep
                }
            }
            None => direct(&e.req),
        };
        self.memo.insert(e.req.clone(), want.clone());
        want
    }
}

/// The checked responses of one phase.
struct Checked {
    /// Per request: refused or wrong (a miss for the latency limit).
    failed: Vec<bool>,
    /// Requests whose output was wrong.
    wrong: usize,
    first_wrong: Option<String>,
}

/// Check every response of a phase against the oracle, feeding the served
/// results into `quality` when one is given.
fn check_phase(p: &Phase, oracle: &mut Oracle, mut quality: Option<&mut Quality>) -> Checked {
    let mut checked = Checked {
        failed: Vec::with_capacity(p.reqs.len()),
        wrong: 0,
        first_wrong: None,
    };
    for (r, s) in p.reqs.iter().zip(&p.samples) {
        let (refused, wrong) = match decode_response(r.class, &s.response) {
            Err(e) => (
                false,
                Some(format!("malformed {} reply: {e}", r.class.name())),
            ),
            Ok(results) if results.len() != r.entries.len() => (
                false,
                Some(format!(
                    "{} reply has {} results",
                    r.class.name(),
                    results.len()
                )),
            ),
            Ok(results) => {
                let mut refused = false;
                let mut wrong = None;
                for (e, got) in r.entries.iter().zip(&results) {
                    match got {
                        Err(_) => refused = true,
                        Ok(got) => {
                            if let Some(q) = quality.as_deref_mut() {
                                q.add(got);
                            }
                            if *got != oracle.expected(e) {
                                wrong = Some(format!(
                                    "{} result for {} differs from the direct compile",
                                    r.class.name(),
                                    got.name
                                ));
                            }
                        }
                    }
                }
                (refused, wrong)
            }
        };
        if let Some(w) = wrong.as_ref() {
            checked.wrong += 1;
            checked.first_wrong.get_or_insert_with(|| w.clone());
        }
        checked.failed.push(refused || wrong.is_some());
    }
    checked
}

/// Quality of the served results.
#[derive(Default)]
struct Quality {
    n: usize,
    norm_ii: f64,
    copies: f64,
    closed: usize,
}

impl Quality {
    fn add(&mut self, r: &CompileResult) {
        self.n += 1;
        self.norm_ii += r.normalized;
        self.copies += r.n_copies as f64;
        let truncated = r.joint.is_some_and(|j| !j.optimal) || r.exact.is_some_and(|e| !e.optimal);
        self.closed += usize::from(!truncated);
    }
}

// ---------------------------------------------------------------------------
// The run.

fn scratch(seed: u64) -> PathBuf {
    out_dir().join(format!("serve-{}-{seed}", std::process::id()))
}

/// Highest offered rate whose tail meets the limit: the last passing ladder
/// rate, interpolated (log-log) towards the first failing one.
fn max_rate(points: &[(f64, f64, bool)]) -> f64 {
    let mut last_ok: Option<(f64, f64)> = None;
    for &(rate, tail, ok) in points {
        if ok && tail <= LIMIT_MS {
            last_ok = Some((rate, tail));
            continue;
        }
        return match last_ok {
            Some((r1, t1)) if tail.is_finite() && tail > t1 => {
                let f = (LIMIT_MS.ln() - t1.ln()) / (tail.ln() - t1.ln());
                r1 * (rate / r1).powf(f.clamp(0.0, 1.0))
            }
            Some((r1, _)) => r1,
            None => rate * LIMIT_MS / tail.max(LIMIT_MS),
        };
    }
    last_ok.map_or(0.0, |(r, _)| r)
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Outcome {
    let dir = scratch(seed);
    let outcome = if traced {
        run_traced(seed, seconds, &dir)
    } else {
        run_untraced(seed, seconds, &dir)
    };
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

/// Requests per nominal replay: the replays together fill 45% of the run.
fn nominal_requests(seconds: u64) -> usize {
    (NOMINAL_RATE * seconds as f64 * 0.45 / REPLAYS as f64) as usize
}

fn ladder_requests(rate: f64) -> usize {
    (rate * LADDER_PHASE_S) as usize
}

fn run_untraced(seed: u64, seconds: u64, dir: &Path) -> Outcome {
    let n_nominal = nominal_requests(seconds);
    let n_max = n_nominal + LADDER.iter().map(|&r| ladder_requests(r)).sum::<usize>();
    // Three identical set-ups, each followed by the same seeded nominal
    // schedule and the same ladder. Set-up time, a request's latency and a
    // ladder rate's tail are each their minimum over the replays: the work
    // is deterministic and transient host interference must hit every
    // replay to count.
    let mut setups = Vec::new();
    let mut replays = Vec::new();
    let mut rss = Vec::new();
    let mut warm = Vec::new();
    for replay in 0..REPLAYS {
        let t = Instant::now();
        let mut inputs = Inputs::new(seed, n_max);
        // A directory per replay: deleting a store's files costs disk
        // work, which waits until the run is over.
        let server = set_up(&dir.join(format!("replay-{replay}")), &inputs.warm);
        setups.push(t.elapsed().as_secs_f64());
        let nominal = run_phase(&server, &mut inputs, NOMINAL_RATE, n_nominal);
        // Memory after the nominal phase: how far the ladder gets varies.
        rss.push(server.peak_rss_mb());
        let ladder = run_ladder(&server, &mut inputs);
        server.shutdown();
        warm = inputs.warm;
        replays.push((nominal, ladder));
    }

    // Checks, outside the timed window. The quality sums and `ok_share`
    // come from the nominal phases only: they hold the same seeded requests
    // on every run, while how far the ladder gets depends on the host.
    let mut oracle = Oracle::new(&warm);
    let mut quality = Quality::default();
    let (mut attempted, mut failed, mut wrong) = (0, 0, 0);
    let mut first_wrong = None;
    let mut check = |p: &Phase, quality: Option<&mut Quality>| {
        let c = check_phase(p, &mut oracle, quality);
        first_wrong = first_wrong.take().or(c.first_wrong);
        wrong += c.wrong;
        attempted += p.reqs.len();
        failed += c.failed.iter().filter(|&&x| x).count();
        c.failed
    };
    let mut nom_failed = vec![false; n_nominal];
    let mut nom_misses = 0;
    // Per ladder rate: (tail, drained) of every replay that ran it in time.
    let mut rungs: Vec<Vec<(f64, bool)>> = vec![Vec::new(); LADDER.len()];
    for (nominal, ladder) in &replays {
        for (acc, f) in nom_failed
            .iter_mut()
            .zip(check(nominal, Some(&mut quality)))
        {
            nom_misses += usize::from(f);
            *acc |= f;
        }
        for (k, p) in ladder.iter().enumerate() {
            let st = phase_stats(p, &check(p, None));
            if !phase_late(p) {
                rungs[k].push((st.miss_tail, st.drained));
            }
        }
    }
    if let Some(w) = &first_wrong {
        eprintln!("serve-mixed: wrong output: {w}");
    }
    let nominal = merge_replays(&replays.iter().map(|r| r.0.clone()).collect::<Vec<_>>());
    let nom = phase_stats(&nominal, &nom_failed);
    let mut points = vec![(NOMINAL_RATE, nom.miss_tail, nom.drained)];
    let mut ladder_notes = Vec::new();
    for (&rate, runs) in LADDER.iter().zip(&rungs) {
        let Some(&(tail, drained)) = runs.iter().min_by(|a, b| a.0.total_cmp(&b.0)) else {
            break;
        };
        ladder_notes.push(format!(
            "ladder {rate:.0}/s: best p{TAIL_PCT} {tail:.3} ms of {} replays {:?}",
            runs.len(),
            runs.iter()
                .map(|r| (r.0 * 1e3).round() / 1e3)
                .collect::<Vec<_>>()
        ));
        points.push((rate, tail, drained));
        if !(drained && tail <= LIMIT_MS) {
            break;
        }
    }
    let served = nom_failed.iter().filter(|&&f| !f).count();
    let mut m = Metrics::default();
    m.put(
        "setup_s",
        setups.iter().copied().fold(f64::INFINITY, f64::min),
        "s",
    );
    m.put("ops_per_s", served as f64 / nominal.elapsed_s, "1/s");
    m.put("latency_p50_ms", nom.p50, "ms");
    m.put("latency_tail_ms", nom.tail, "ms");
    m.put("max_rate_per_s", max_rate(&points), "1/s");
    m.put(
        "mean_norm_ii",
        quality.norm_ii / quality.n.max(1) as f64,
        "%",
    );
    m.put(
        "copies_per_loop",
        quality.copies / quality.n.max(1) as f64,
        "copies",
    );
    m.put(
        "closed_share",
        quality.closed as f64 / quality.n.max(1) as f64,
        "share",
    );
    m.put(
        "ok_share",
        1.0 - nom_misses as f64 / (REPLAYS * n_nominal) as f64,
        "share",
    );
    m.put("peak_rss_mb", median(&rss), "MiB");
    let mut notes = vec![
        format!(
            "nominal {NOMINAL_RATE}/s, {REPLAYS} replays of {} requests (per-request minimum): \
             p50 {:.3} ms, p{TAIL_PCT} {:.3} ms ({} beyond), limit {LIMIT_MS} ms, \
             generator late p99 {:.3} ms ({:.2}% over 1 ms)",
            nominal.reqs.len(),
            nom.p50,
            nom.tail,
            beyond(nominal.reqs.len(), TAIL_PCT),
            nom.late_p99,
            100.0 * nom.late_share
        ),
        format!("class counts (nominal): {}", class_counts(&nominal.reqs)),
    ];
    notes.extend(ladder_notes);
    notes.push(format!(
        "set-ups {:?} s; {attempted} requests, {failed} failed, {wrong} wrong",
        setups
            .iter()
            .map(|s| (s * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    ));
    Outcome {
        correct: wrong == 0,
        attempted,
        failed,
        metrics: m,
        notes,
        valid: !phase_late(&nominal),
    }
}

/// Replays of the set-up, nominal phase and ladder per run.
pub const REPLAYS: usize = 3;
/// Requests per chunk of the traced mode's alternating in-process replays.
pub const REPLAY_CHUNK: usize = 100;

/// The nominal replays as one phase: each request's latency and lateness
/// are its minimum over the replays; the elapsed time is the median.
fn merge_replays(replays: &[Phase]) -> Phase {
    let mut merged = replays[0].clone();
    for p in &replays[1..] {
        for (m, s) in merged.samples.iter_mut().zip(&p.samples) {
            m.latency_ms = m.latency_ms.min(s.latency_ms);
            m.late_ms = m.late_ms.min(s.late_ms);
        }
    }
    merged.elapsed_s = median(&replays.iter().map(|p| p.elapsed_s).collect::<Vec<_>>());
    merged
}

/// The capacity ladder: each rate in turn until one misses the limit, leaves
/// a backlog or outruns the generator.
fn run_ladder(server: &ServerProc, inputs: &mut Inputs) -> Vec<Phase> {
    let mut out = Vec::new();
    for &rate in &LADDER {
        let p = run_phase(server, inputs, rate, ladder_requests(rate));
        let stop = !phase_ok(&p) || phase_late(&p);
        out.push(p);
        if stop {
            break;
        }
    }
    out
}

/// Tail latency of a phase before its responses are checked.
fn raw_tail(p: &Phase) -> f64 {
    let mut lat: Vec<f64> = p.samples.iter().map(|s| s.latency_ms).collect();
    lat.sort_by(f64::total_cmp);
    percentile(&lat, TAIL_PCT)
}

/// Whether a phase met the limit without a backlog (before checks).
fn phase_ok(p: &Phase) -> bool {
    phase_drained(p) && raw_tail(p) <= LIMIT_MS
}

/// Whether a phase left no growing backlog.
fn phase_drained(p: &Phase) -> bool {
    !p.backlogged && phase_finished(p)
}

/// Whether the generator fell behind: its own send delay at the tail
/// percentile exceeds the latency limit, so the delay alone would break the
/// limit. Smaller delays are scheduler jitter and are charged to the request.
fn phase_late(p: &Phase) -> bool {
    if p.backlogged {
        return false;
    }
    let mut late: Vec<f64> = p.samples.iter().map(|s| s.late_ms).collect();
    late.sort_by(f64::total_cmp);
    percentile(&late, TAIL_PCT) > LIMIT_MS
}

/// Whether the phase's last response arrived within 10% of the offered
/// duration plus the latency limit (and 50 ms of scheduling slack).
fn phase_finished(p: &Phase) -> bool {
    p.elapsed_s <= p.reqs.len() as f64 / p.rate * 1.1 + LIMIT_MS / 1e3 + 0.05
}

fn class_counts(reqs: &[Req]) -> String {
    Class::ALL
        .iter()
        .map(|c| {
            format!(
                "{}={}",
                c.name(),
                reqs.iter().filter(|r| r.class == *c).count()
            )
        })
        .collect::<Vec<_>>()
        .join(" ")
}

// ---------------------------------------------------------------------------
// Traced mode.

/// Cache counters of a stats snapshot, as (mem, disk, canon, misses).
fn cache_counts_wire(stats: &Json) -> [u64; 4] {
    ["mem_hits", "disk_hits", "canon_hits", "misses"]
        .map(|k| stats.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64)
}

fn cache_counts_engine(engine: &CachedCompiler) -> [u64; 4] {
    let s = engine.stats().snapshot();
    [s.mem_hits, s.disk_hits, s.canon_hits, s.misses]
}

/// Durations (ms) of every span named `name`.
fn durations(spans: &[trace::Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect()
}

/// The in-process span of each request class.
fn class_span(c: Class) -> &'static str {
    match c {
        Class::Warm => "serve.compile.warm",
        Class::Variant => "serve.compile.variant",
        Class::Cold => "serve.compile.cold",
        Class::Batch => "serve.compile.batch",
        Class::Heavy => "serve.compile.heavy",
    }
}

/// Replay `reqs` in process through the public serve layers (under spans
/// when recording is on), numbering them from op `first_op`. Returns each
/// request's rendered results.
fn replay_in_process(
    engine: &Arc<CachedCompiler>,
    reqs: &[Req],
    first_op: usize,
) -> Vec<Vec<Arc<str>>> {
    reqs.iter()
        .enumerate()
        .map(|(i, r)| {
            trace::set_op((first_op + i) as u32);
            let doc = span("serve.json.parse", || parse_json(&r.line)).expect("own request parses");
            let entries: Vec<CompileRequest> = span("serve.envelope.decode", || match r.class {
                Class::Batch => doc
                    .get("requests")
                    .and_then(Json::as_arr)
                    .expect("batch requests")
                    .iter()
                    .map(|e| CompileRequest::from_json(e).expect("entry decodes"))
                    .collect(),
                _ => vec![
                    CompileRequest::from_json(doc.get("request").expect("request"))
                        .expect("request decodes"),
                ],
            });
            for req in &entries {
                span("serve.hash.key", || req.cache_key());
            }
            span(class_span(r.class), || {
                entries
                    .iter()
                    .map(|req| {
                        engine
                            .serve_rendered(req, Some(Duration::from_secs(30)))
                            .expect("in-process serve")
                            .0
                    })
                    .collect()
            })
        })
        .collect()
}

fn decode_rendered(docs: &[Arc<str>]) -> Vec<CompileResult> {
    docs.iter()
        .map(|d| {
            CompileResult::from_json(&parse_json(d).expect("rendered parses"))
                .expect("rendered decodes")
        })
        .collect()
}

fn run_traced(seed: u64, seconds: u64, dir: &Path) -> Outcome {
    let replay_n = (seconds as usize * 100).max(500);
    let n_max = 2 * replay_n + nominal_requests(seconds);
    let t = Instant::now();
    let mut inputs = Inputs::new(seed, n_max);
    let server = set_up(&dir.join("wire"), &inputs.warm);
    let setup_s = t.elapsed().as_secs_f64();
    let engine = set_up_in_process(&dir.join("traced"), &inputs.warm);
    let plain_engine = set_up_in_process(&dir.join("plain"), &inputs.warm);
    let warm = inputs.warm.clone();

    // Low-load wire replay: one request at a time.
    let stream: Vec<Req> = (0..replay_n).map(|_| inputs.next()).collect();
    let before = cache_counts_wire(&server.stats());
    let mut conns = [server.connect(), server.connect()];
    let mut bufs = [Vec::new(), Vec::new()];
    let mut wire_ms: Vec<(Class, f64)> = Vec::new();
    let mut wire_replies = Vec::new();
    for r in &stream {
        let c = r.class.conn();
        let t = Instant::now();
        let reply = round_trip(&mut conns[c], &mut bufs[c], &r.line);
        wire_ms.push((r.class, ms(t.elapsed())));
        wire_replies.push(reply);
    }
    drop(conns);
    let after = cache_counts_wire(&server.stats());
    let wire_counts: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();

    // The same stream in process: untraced on one identically filled engine
    // and under spans on another, in chunks whose order alternates, so that
    // neither replay is the one that warms the process up. Then each engine
    // flushes its journal.
    let (mut plain_docs, mut docs) = (Vec::new(), Vec::new());
    let (mut plain_ms, mut replay_ms) = (0.0, 0.0);
    for (k, chunk) in stream.chunks(REPLAY_CHUNK).enumerate() {
        for traced in [k % 2 == 1, k % 2 == 0] {
            let t = Instant::now();
            if traced {
                trace::set_enabled(true);
                docs.extend(replay_in_process(&engine, chunk, k * REPLAY_CHUNK));
                trace::set_enabled(false);
                replay_ms += ms(t.elapsed());
            } else {
                plain_docs.extend(replay_in_process(&plain_engine, chunk, k * REPLAY_CHUNK));
                plain_ms += ms(t.elapsed());
            }
        }
    }
    // The flushes are left out of the overhead: their fsyncs vary with the
    // disk, not the tracing.
    let overhead_pct = 100.0 * (replay_ms / plain_ms - 1.0);
    plain_engine.flush();
    trace::set_enabled(true);
    let t = Instant::now();
    span("serve.cache.flush", || engine.flush());
    replay_ms += ms(t.elapsed());
    trace::set_enabled(false);
    let spans = trace::take();
    let totals = Totals::of(&spans);
    let inproc_counts = cache_counts_engine(&engine);
    let plain_counts = cache_counts_engine(&plain_engine);
    let inproc: Vec<Vec<CompileResult>> = docs.iter().map(|d| decode_rendered(d)).collect();
    let plain_same = plain_docs == docs;

    // The public normal-form call, on the variant and cold inputs.
    trace::set_enabled(true);
    let mut cold_loops = Vec::new();
    for r in stream
        .iter()
        .filter(|r| matches!(r.class, Class::Variant | Class::Cold))
    {
        let (body, machine, cfg) = r.entries[0].req.decode().expect("decodes");
        span("normal.canon", || vliw_normal::canonicalize(&body));
        if r.class == Class::Cold {
            cold_loops.push((body, machine, cfg));
        }
    }
    for (body, machine, cfg) in &cold_loops {
        span("pipeline.run_loop_cold", || run_loop(body, machine, cfg));
    }
    trace::set_enabled(false);
    let side_spans = trace::take();
    let side = Totals::of(&side_spans);
    let run_loop_cold = median(&durations(&side_spans, "pipeline.run_loop_cold"));

    // An open-loop nominal phase for the governor and generator health.
    let phase = run_phase(
        &server,
        &mut inputs,
        NOMINAL_RATE,
        nominal_requests(seconds),
    );
    let stats = server.stats();
    server.shutdown();

    // Checks: the wire replies, the in-process results and the open-loop
    // phase must all equal the direct compiles.
    let mut oracle = Oracle::new(&warm);
    let mut wrong = 0usize;
    let mut first_wrong = None;
    for ((r, reply), got) in stream.iter().zip(&wire_replies).zip(&inproc) {
        let wire = decode_response(r.class, reply);
        let ok = r.entries.iter().enumerate().all(|(k, e)| {
            let want = oracle.expected(e);
            let on_wire = wire
                .as_ref()
                .is_ok_and(|w| matches!(w.get(k), Some(Ok(x)) if *x == want));
            on_wire && got.get(k) == Some(&want)
        });
        if !ok {
            wrong += 1;
            first_wrong.get_or_insert_with(|| format!("{} replay result differs", r.class.name()));
        }
    }
    let checked = check_phase(&phase, &mut oracle, None);
    wrong += checked.wrong;
    let failed = wrong + checked.failed.iter().filter(|&&f| f).count() - checked.wrong;
    first_wrong = first_wrong.or(checked.first_wrong);
    if let Some(w) = &first_wrong {
        eprintln!("serve-mixed: wrong output: {w}");
    }
    let counts_repeat = wire_counts == inproc_counts && plain_counts == inproc_counts && plain_same;
    let pst = phase_stats(&phase, &checked.failed);

    let class_med = |c: Class| {
        let v: Vec<f64> = wire_ms
            .iter()
            .filter(|(k, _)| *k == c)
            .map(|x| x.1)
            .collect();
        median(&v)
    };
    let inproc_med = |c: Class| median(&durations(&spans, class_span(c)));
    let n = stream.len() as f64;
    let mut m = Metrics::default();
    m.put(
        "normal.canon_ms",
        side.incl_of("normal.canon") / side.calls_of("normal.canon").max(1) as f64,
        "ms",
    );
    m.put(
        "normal.canon_calls",
        side.calls_of("normal.canon") as f64,
        "count",
    );
    m.put("pipeline.run_loop_cold_ms", run_loop_cold, "ms");
    m.put(
        "serve.json.parse_ms",
        totals.self_of("serve.json.parse") / n,
        "ms",
    );
    m.put(
        "serve.envelope.decode_ms",
        totals.self_of("serve.envelope.decode") / n,
        "ms",
    );
    m.put(
        "serve.hash.key_ms",
        totals.self_of("serve.hash.key") / n,
        "ms",
    );
    let [mem, disk, canon, miss] = inproc_counts;
    m.put("serve.cache.mem_hits", mem as f64, "count");
    m.put("serve.cache.disk_hits", disk as f64, "count");
    m.put("serve.cache.canon_hits", canon as f64, "count");
    m.put("serve.cache.misses", miss as f64, "count");
    m.put(
        "serve.cache.hit_ratio",
        (mem + disk + canon) as f64 / (mem + disk + canon + miss).max(1) as f64,
        "share",
    );
    m.put(
        "serve.cache.flush_ms",
        totals.incl_of("serve.cache.flush"),
        "ms",
    );
    for c in Class::ALL {
        m.put(
            &format!("serve.compile.{}_ms", c.name()),
            inproc_med(c),
            "ms",
        );
    }
    for c in Class::ALL {
        m.put(&format!("serve.wire.{}_ms", c.name()), class_med(c), "ms");
    }
    m.put(
        "serve.reactor.overhead_ms",
        class_med(Class::Warm) - inproc_med(Class::Warm),
        "ms",
    );
    for q in ["p50", "p99"] {
        m.put(
            &format!("governor.queue_wait_{q}_ms"),
            stats
                .get(&format!("queue_{q}_us"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
                / 1e3,
            "ms",
        );
    }
    for k in ["sheds", "rejects"] {
        m.put(
            &format!("governor.{k}"),
            stats.get(k).and_then(Json::as_f64).unwrap_or(0.0),
            "count",
        );
    }
    m.put(
        "pipeline.reconcile_pct",
        100.0 * (replay_ms - totals.top_level_ms) / replay_ms,
        "%",
    );
    m.put("pipeline.trace_overhead_pct", overhead_pct, "%");
    m.put("gen.late_p99_ms", pst.late_p99, "ms");
    m.put("gen.late_share", pst.late_share, "share");
    crate::report::zero_fill(&mut m);

    let path = out_dir().join("trace-serve-mixed.jsonl");
    if let Err(e) = trace::write_jsonl(&path, &spans) {
        eprintln!("serve-mixed: could not write {}: {e}", path.display());
    }
    let notes = vec![
        format!("set-up {setup_s:.4} s; replay of {} requests ({}); spans in {}", stream.len(), class_counts(&stream), path.display()),
        format!(
            "cache counts [mem, disk, canon, miss]: traced {inproc_counts:?}, untraced {plain_counts:?}, \
             wire {wire_counts:?}; repeat exactly: {counts_repeat}"
        ),
        format!(
            "cold request p50: wire {:.3} ms, in-process serve_rendered {:.3} ms, run_loop {:.3} ms",
            class_med(Class::Cold),
            inproc_med(Class::Cold),
            run_loop_cold
        ),
        format!(
            "reactor overhead per warm request: {:.4} ms (wire {:.4} - in-process {:.4})",
            class_med(Class::Warm) - inproc_med(Class::Warm),
            class_med(Class::Warm),
            inproc_med(Class::Warm)
        ),
        format!(
            "open-loop phase at {NOMINAL_RATE}/s: p50 {:.3} ms p{TAIL_PCT} {:.3} ms, generator late p99 {:.3} ms",
            pst.p50, pst.tail, pst.late_p99
        ),
    ];
    let attempted = stream.len() + phase.reqs.len();
    Outcome {
        correct: wrong == 0 && counts_repeat,
        attempted,
        failed,
        metrics: m,
        notes,
        valid: !phase_late(&phase),
    }
}
