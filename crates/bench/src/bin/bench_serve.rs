//! Cache-path and wire-protocol benchmark for the compile service.
//!
//! Sweeps the corpus across two paper machines through
//! [`vliw_serve::CachedCompiler`] four ways — direct (no cache), cold cache
//! (every request compiles and populates both tiers), warm memory (same
//! engine again) and warm disk (fresh engine over the populated store) —
//! runs a variant corpus (a generated isomorphic renaming of every loop,
//! which must warm-hit the semantic alias instead of compiling), then
//! measures the wire protocol over a real loopback server: per-line
//! `compile` round trips vs one `compile_batch`, a two-peer sharded sweep
//! (semantic routing, renamed variants included), warm round trips over
//! 1/64/512 connections, and a heavy flood against the governor. Results
//! are written as JSON, the checked-in `BENCH_serve.json` at the repo root.
//! Rerun with
//!
//! ```text
//! cargo run --release -p vliw-bench --bin bench_serve
//! ```
//!
//! The exits double as regression gates: the cold-path overhead ratio, the
//! batch-vs-per-line speedup, the concurrency and the overload floors are
//! asserted, not just recorded.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vliw_bench::full_corpus;
use vliw_ir::Loop;
use vliw_machine::MachineDesc;
use vliw_pipeline::{run_corpus_grid_with, run_loop, LoopResult, PipelineConfig};
use vliw_serve::{
    CachedCompiler, Client, CompileRequest, DiskStore, Json as WireJson, Server, ServerConfig,
    ShardedClient, ShedPolicy, TieredCache,
};

/// Floor on warm round trips per second over 512 connections: four times
/// the most the deleted thread-per-connection core ever served in this
/// phase (495.71 rps, the best of ten runs on a 2-vCPU host and of its last
/// checked-in `BENCH_serve.json`; DESIGN §13 records its final numbers).
/// It replaces the floor "4x that core's throughput in the same run" and
/// is no weaker than it.
const CONC_512_FLOOR_RPS: f64 = 4.0 * 495.71;

struct Json {
    buf: String,
    first: bool,
}

impl Json {
    fn new() -> Self {
        Json {
            buf: "{\n".into(),
            first: true,
        }
    }
    fn pad(&mut self) {
        if !self.first {
            self.buf.push_str(",\n");
        }
        self.first = false;
        self.buf.push_str("  ");
    }
    fn num(&mut self, key: &str, v: f64) {
        self.pad();
        let _ = write!(self.buf, "\"{key}\": {v:.2}");
    }
    fn int(&mut self, key: &str, v: u64) {
        self.pad();
        let _ = write!(self.buf, "\"{key}\": {v}");
    }
    fn str(&mut self, key: &str, v: &str) {
        self.pad();
        let _ = write!(self.buf, "\"{key}\": \"{v}\"");
    }
    fn finish(mut self) -> String {
        self.buf.push_str("\n}\n");
        self.buf
    }
}

/// Files under `dir` (recursively) and their total size in bytes.
fn store_size(dir: &Path) -> (u64, u64) {
    let (mut files, mut bytes) = (0, 0);
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let Ok(meta) = entry.metadata() else { continue };
        if meta.is_dir() {
            let (f, b) = store_size(&entry.path());
            files += f;
            bytes += b;
        } else {
            files += 1;
            bytes += meta.len();
        }
    }
    (files, bytes)
}

fn cached_sweep(
    engine: &Arc<CachedCompiler>,
    corpus: &[Loop],
    machines: &[MachineDesc],
    cfg: &PipelineConfig,
) -> f64 {
    let runner = |l: &Loop, m: &MachineDesc, c: &PipelineConfig| -> LoopResult {
        engine
            .compile_parts(l, m, c, None)
            .expect("cached compile")
            .0
            .to_loop_result()
    };
    let t0 = Instant::now();
    let grid = run_corpus_grid_with(corpus, machines, cfg, &runner);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(grid.len(), machines.len());
    ms
}

/// Bind an in-process server over `engine` and return its address plus the
/// serving thread.
fn spawn_server(engine: Arc<CachedCompiler>) -> (String, std::thread::JoinHandle<()>) {
    let server = Server::bind(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            default_timeout: Duration::from_secs(60),
            batch_parallelism: 8,
            ..ServerConfig::default()
        },
        engine,
    )
    .expect("bind loopback server");
    let addr = server.local_addr().expect("bound address").to_string();
    let thread = std::thread::spawn(move || server.run());
    (addr, thread)
}

/// The canonical per-line `compile` wire line for `req`.
fn compile_line(req: &CompileRequest) -> String {
    let mut line = WireJson::obj([
        ("op", WireJson::Str("compile".into())),
        ("request", req.to_json()),
    ])
    .render();
    line.push('\n');
    line
}

struct ConcRun {
    rps: f64,
    p99_us: f64,
    /// Responses that were typed sheds (the governor must never shed
    /// interactive work).
    sheds: u64,
}

/// `total` warm requests round-robined over `k` connections, one request in
/// flight at a time, so the numbers isolate how the server multiplexes
/// connections rather than raw compile throughput. Every request must be
/// answered: a read that times out fails the bench.
fn concurrency_run(addr: &str, k: usize, total: usize, line: &[u8]) -> ConcRun {
    let mut conns: Vec<BufReader<TcpStream>> = (0..k)
        .map(|_| {
            let s = TcpStream::connect(addr).expect("connect bench connection");
            s.set_read_timeout(Some(Duration::from_secs(10)))
                .expect("set read timeout");
            BufReader::new(s)
        })
        .collect();
    let mut lat_us: Vec<f64> = Vec::with_capacity(total);
    let mut sheds = 0u64;
    let t0 = Instant::now();
    for i in 0..total {
        let conn = &mut conns[i % k];
        let t = Instant::now();
        let mut resp = String::new();
        conn.get_mut().write_all(line).expect("bench write");
        let n = conn
            .read_line(&mut resp)
            .unwrap_or_else(|e| panic!("request {i} over {k} connections unanswered: {e}"));
        assert!(n > 0, "bench connection closed by the server");
        lat_us.push(t.elapsed().as_secs_f64() * 1e6);
        if resp.contains("\"error_kind\":\"shed\"") {
            sheds += 1;
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    lat_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    ConcRun {
        rps: total as f64 / elapsed,
        p99_us: lat_us[((total - 1) as f64 * 0.99).round() as usize],
        sheds,
    }
}

/// A deep joint-partitioner instance (daxpy unrolled 6x: 30 ops, 25 vregs
/// on `embedded(4,4)`) whose II=2 rung is a long refutation — the
/// canonical heavy-lane request. Distinct `budget_ms` values give distinct
/// cache keys, so every instance really compiles.
fn heavy_joint_request(budget_ms: u64) -> CompileRequest {
    use vliw_ir::{LoopBuilder, RegClass};
    let mut b = LoopBuilder::new("hard_daxpy_u6");
    let x = b.array("x", RegClass::Float, 1024);
    let y = b.array("y", RegClass::Float, 1024);
    let a = b.live_in_float("a");
    for u in 0..6i64 {
        let xv = b.load(x, u, 6);
        let yv = b.load(y, u, 6);
        let p = b.fmul(a, xv);
        let s = b.fadd(yv, p);
        b.store(y, u, 6, s);
    }
    let body = b.finish(128);
    let cfg = PipelineConfig {
        partitioner: vliw_pipeline::PartitionerKind::Joint { budget_ms },
        ..PipelineConfig::default()
    };
    CompileRequest::from_parts(&body, &MachineDesc::embedded(4, 4), &cfg)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_serve.json".into());
    let corpus = full_corpus();
    let machines = [MachineDesc::embedded(4, 4), MachineDesc::copy_unit(4, 4)];
    let cfg = PipelineConfig::default();
    let n_requests = (corpus.len() * machines.len()) as u64;

    let root = std::env::temp_dir().join(format!("vliw-serve-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // Reference: the same sweep with no cache in the path.
    let t0 = Instant::now();
    let grid = run_corpus_grid_with(&corpus, &machines, &cfg, &run_loop);
    let direct_ms = t0.elapsed().as_secs_f64() * 1e3;
    let baseline: Vec<Vec<LoopResult>> = grid;

    // Cold: every request misses, compiles, and populates both tiers (the
    // disk tier by one segment append per record on the compiling thread).
    let engine = CachedCompiler::new(TieredCache::new(8192, Some(DiskStore::new(&root))));
    let cold_ms = cached_sweep(&engine, &corpus, &machines, &cfg);
    let cold_snap = engine.stats().snapshot();
    // The corpus contains a handful of alpha-equivalent loops; those are
    // served from the semantic alias their class representative stored, so
    // even the cold sweep compiles only one loop per equivalence class.
    assert_eq!(
        cold_snap.compiles + cold_snap.canon_hits,
        n_requests,
        "cold sweep compiles one representative per class"
    );

    // Warm memory: identical sweep on the same engine.
    let warm_mem_ms = cached_sweep(&engine, &corpus, &machines, &cfg);
    let mem_snap = engine.stats().snapshot();
    assert_eq!(
        mem_snap.compiles, cold_snap.compiles,
        "warm sweep compiles nothing"
    );

    // The flush barrier makes every record of the two sweeps durable (one
    // fdatasync of the engine's segment); what it leaves on disk is the
    // store's footprint.
    let t0 = Instant::now();
    engine.flush();
    let flush_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (store_files, store_bytes) = store_size(&root);

    // Warm disk: a fresh engine over the populated store (cold memory).
    let fresh = CachedCompiler::new(TieredCache::new(8192, Some(DiskStore::new(&root))));
    let warm_disk_ms = cached_sweep(&fresh, &corpus, &machines, &cfg);
    let disk_snap = fresh.stats().snapshot();
    assert_eq!(disk_snap.compiles, 0, "disk-warm sweep compiles nothing");

    // Cached results agree with the direct path on every scalar the
    // experiment harness consumes.
    let runner_check = |l: &Loop, m: &MachineDesc, c: &PipelineConfig| -> LoopResult {
        fresh
            .compile(&CompileRequest::from_parts(l, m, c), None)
            .expect("cached compile")
            .0
            .to_loop_result()
    };
    for (m_idx, m) in machines.iter().enumerate() {
        for (l_idx, l) in corpus.iter().enumerate() {
            let cached = runner_check(l, m, &cfg);
            let direct = &baseline[m_idx][l_idx];
            assert_eq!(cached.clustered_ii, direct.clustered_ii, "{}", l.name);
            assert_eq!(cached.normalized, direct.normalized, "{}", l.name);
        }
    }

    // ---- variant corpus: isomorphic renamings must warm-hit --------------
    // One generated variant per corpus loop (register renaming, commutative
    // operand swap, dependence-legal statement permutation): every variant
    // has a fresh exact key, but its alpha-canonical form matches the
    // warmed loop's, so the semantic alias must convert what would be a
    // cold compile into a warm hit — and the served result must be exactly
    // the representative's alias entry pushed through the variant's own
    // witness, bit-for-bit on the wire.
    let var_machine = &machines[0];
    let variants: Vec<(CompileRequest, CompileRequest)> = corpus
        .iter()
        .enumerate()
        .map(|(i, l)| {
            let base = CompileRequest::from_parts(l, var_machine, &cfg);
            let var = vliw_normal::variant(l, 1 + i as u64 * 13);
            (base, CompileRequest::from_parts(&var, var_machine, &cfg))
        })
        .collect();
    let n_variants = variants.len() as u64;
    assert!(n_variants >= 200, "variant corpus too small: {n_variants}");
    let before = fresh.stats().snapshot();
    let t0 = Instant::now();
    let mut variant_hits = 0u64;
    for (base, var) in &variants {
        assert_ne!(base.cache_key(), var.cache_key(), "variant text differs");
        let (served, src) = fresh.compile(var, None).expect("variant compile");
        if src.is_cache_hit() {
            variant_hits += 1;
        }
        // The canonical request's exact key IS the semantic key, so this
        // fetches the alias entry itself; mapping it out through the
        // variant's witness must reproduce the served bytes exactly.
        let (canon_req, _) = base.semantic_canonicalize().expect("canonicalize");
        let (alias_entry, alias_src) = fresh.compile(&canon_req, None).expect("alias fetch");
        assert!(alias_src.is_cache_hit(), "alias entry must be cached");
        let (_, var_w) = var.semantic_canonicalize().expect("variant witness");
        let expected = alias_entry.from_canonical_space(var.cache_key(), &var_w);
        assert_eq!(
            served.to_json().render(),
            expected.to_json().render(),
            "variant result must be the alias entry mapped through the witness"
        );
    }
    let variant_ms = t0.elapsed().as_secs_f64() * 1e3;
    let after = fresh.stats().snapshot();
    let variant_canon_hits = after.canon_hits - before.canon_hits;
    let variant_hit_rate = variant_hits as f64 / n_variants as f64;

    // ---- wire protocol: per-line vs batched, over the warm engine --------
    let mut reqs: Vec<CompileRequest> = Vec::with_capacity(n_requests as usize);
    for m in &machines {
        for l in &corpus {
            reqs.push(CompileRequest::from_parts(l, m, &cfg));
        }
    }

    let (addr, server_thread) = spawn_server(Arc::clone(&engine));
    let mut client = Client::connect(&addr).expect("connect");

    // Both wire phases are warm and idempotent; take the best of three
    // passes so a scheduler hiccup doesn't masquerade as protocol cost.
    let mut per_line_ms = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        for req in &reqs {
            let served = client.compile(req, None).expect("warm wire compile");
            assert!(served.is_cache_hit(), "served={}", served.served);
        }
        per_line_ms = per_line_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }

    let mut batch_ms = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        let batch = client
            .compile_batch(&reqs, None, Some(8))
            .expect("warm wire batch");
        batch_ms = batch_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        assert_eq!(batch.len(), reqs.len());
        for res in &batch {
            assert!(res.as_ref().expect("batch entry").is_cache_hit());
        }
    }

    client.shutdown().expect("shutdown");
    server_thread.join().expect("server exits");

    // ---- two-peer sharded sweep ------------------------------------------
    let engine_a = CachedCompiler::new(TieredCache::new(8192, None));
    let engine_b = CachedCompiler::new(TieredCache::new(8192, None));
    let (addr_a, thread_a) = spawn_server(Arc::clone(&engine_a));
    let (addr_b, thread_b) = spawn_server(Arc::clone(&engine_b));
    let mut sharded = ShardedClient::new([addr_a, addr_b]);

    let cold_batch = sharded
        .compile_batch(&reqs, None, Some(8))
        .expect("sharded cold batch");
    assert!(cold_batch.iter().all(Result::is_ok));

    let t0 = Instant::now();
    let warm_batch = sharded
        .compile_batch(&reqs, None, Some(8))
        .expect("sharded warm batch");
    let sharded_batch_ms = t0.elapsed().as_secs_f64() * 1e3;
    for res in &warm_batch {
        assert!(res.as_ref().expect("sharded entry").is_cache_hit());
    }
    assert_eq!(sharded.failovers(), 0, "both peers stayed up");

    let mut shard_counts = [0u64; 2];
    for req in &reqs {
        // Routing is by semantic key so isomorphic variants colocate.
        let key = req
            .canonicalize()
            .expect("canonical")
            .semantic_key()
            .expect("semantic");
        shard_counts[sharded.ring().route(&key).expect("route")] += 1;
    }
    let shard_max = *shard_counts.iter().max().unwrap() as f64;
    let shard_min = *shard_counts.iter().min().unwrap() as f64;

    // Renamed variants of warmed loops route to the same peer as their
    // representative and hit its semantic alias — across the wire, too.
    let mut sharded_variant_hits = 0u64;
    let sharded_variant_total = 16u64.min(variants.len() as u64);
    for (_, var) in variants.iter().take(sharded_variant_total as usize) {
        let (res, _peer) = sharded.compile(var, None).expect("sharded variant");
        if res.is_cache_hit() {
            sharded_variant_hits += 1;
        }
    }

    assert_eq!(sharded.shutdown_all(), 2);
    thread_a.join().expect("peer A exits");
    thread_b.join().expect("peer B exits");

    // ---- concurrency: 1 vs 64 vs 512 clients ----------------------------
    // Warm cache-hit round trips over the same 2-worker engine, so the
    // numbers isolate connection multiplexing: the reactor holds all 512
    // sockets on one thread.
    let conc_total = 2048usize;
    let line = compile_line(&reqs[0]);

    let (addr_r, thread_r) = spawn_server(Arc::clone(&engine));
    let r1 = concurrency_run(&addr_r, 1, conc_total, line.as_bytes());
    let r64 = concurrency_run(&addr_r, 64, conc_total, line.as_bytes());
    let r512 = concurrency_run(&addr_r, 512, conc_total, line.as_bytes());
    Client::connect(&addr_r)
        .expect("connect for shutdown")
        .shutdown()
        .expect("shutdown concurrency server");
    thread_r.join().expect("concurrency server exits");

    // ---- overload: governed lanes under a heavy flood --------------------
    // 512 client connections against a 2-worker reactor with a 1-worker
    // heavy lane and a depth-4 shed policy: ~10% of the connections submit
    // deep joint solves (each a distinct cache key, so each really
    // compiles), the other ~90% replay warm cache hits. The overload
    // contract: interactive traffic is never shed and its p99 stays within
    // 2x of the unloaded p99; heavy overflow is shed with a typed
    // retryable error that `compile_with_retry` drives to completion.
    let overload_conns = 512usize;
    let heavy_total = overload_conns / 10; // 51
    let interactive_conns = overload_conns - heavy_total;
    let overload_server = Server::bind(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            default_timeout: Duration::from_secs(60),
            batch_parallelism: 8,
            heavy_lane_workers: 1,
            shed_policy: ShedPolicy::Depth(4),
            ..ServerConfig::default()
        },
        Arc::clone(&engine),
    )
    .expect("bind overload server");
    let addr_o = overload_server
        .local_addr()
        .expect("bound address")
        .to_string();
    let thread_o = std::thread::spawn(move || overload_server.run());

    // Unloaded baseline on the same server, before any flood.
    let unloaded = concurrency_run(&addr_o, 1, 512, line.as_bytes());

    // The flood: 8 threads drive the heavy requests with shed-retry.
    use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
    let heavy_done = Arc::new(AtomicU64::new(0));
    let heavy_retries = Arc::new(AtomicU64::new(0));
    let flood: Vec<_> = (0..8u64)
        .map(|t| {
            let addr = addr_o.clone();
            let done = Arc::clone(&heavy_done);
            let retries = Arc::clone(&heavy_retries);
            let share: Vec<u64> = (0..heavy_total as u64).filter(|i| i % 8 == t).collect();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).expect("heavy connect");
                for i in share {
                    // 40-90ms solver budgets: long enough to congest a
                    // 1-worker heavy lane, short enough to finish the
                    // phase in seconds.
                    let req = heavy_joint_request(40 + i);
                    let (_, r) = c
                        .compile_with_retry(&req, None, 24)
                        .expect("heavy compile retried to completion");
                    retries.fetch_add(u64::from(r), AtomicOrdering::Relaxed);
                    done.fetch_add(1, AtomicOrdering::Relaxed);
                }
            })
        })
        .collect();

    // Let the flood saturate the heavy lane, then measure interactive.
    std::thread::sleep(Duration::from_millis(100));
    let inter_total = 4096usize;
    let inter = concurrency_run(&addr_o, interactive_conns, inter_total, line.as_bytes());

    for f in flood {
        f.join().expect("heavy flood thread");
    }
    let heavy_completed = heavy_done.load(AtomicOrdering::Relaxed);
    let heavy_shed_retries = heavy_retries.load(AtomicOrdering::Relaxed);

    Client::connect(&addr_o)
        .expect("connect for shutdown")
        .shutdown()
        .expect("shutdown overload server");
    thread_o.join().expect("overload server exits");

    let mut j = Json::new();
    j.str("workload", "corpus x [embedded(4,4), copyunit(4,4)]");
    j.int("corpus_loops", corpus.len() as u64);
    j.int("requests_per_sweep", n_requests);
    j.str(
        "note",
        "ms wall-clock, release build; rerun: cargo run --release -p vliw-bench --bin bench_serve",
    );
    j.num("direct_ms", direct_ms);
    j.num("cold_cache_ms", cold_ms);
    j.num("warm_mem_ms", warm_mem_ms);
    j.num("warm_disk_ms", warm_disk_ms);
    j.num("flush_ms", flush_ms);
    j.int("store_files", store_files);
    j.int("store_bytes", store_bytes);
    j.num("cold_overhead_ratio", cold_ms / direct_ms);
    j.num("warm_mem_speedup_vs_cold", cold_ms / warm_mem_ms);
    j.num("warm_disk_speedup_vs_cold", cold_ms / warm_disk_ms);
    j.int("cold_compiles", cold_snap.compiles);
    j.int("cold_canon_hits", cold_snap.canon_hits);
    j.int("warm_mem_hits", mem_snap.mem_hits);
    j.int("warm_disk_hits", disk_snap.disk_hits);
    j.int("variant_requests", n_variants);
    j.int("variant_warm_hits", variant_hits);
    j.int("variant_canon_hits", variant_canon_hits);
    j.num("variant_hit_rate", variant_hit_rate);
    j.num("variant_corpus_ms", variant_ms);
    j.num("per_line_ms", per_line_ms);
    j.num("batch_ms", batch_ms);
    // The warm batch is the longest line any in-repo caller sends; its
    // length against the server's 8 MiB line limit is the headroom.
    j.int(
        "batch_line_bytes",
        Client::batch_line(&reqs, None, Some(8)).len() as u64,
    );
    j.num("batch_speedup_vs_per_line", per_line_ms / batch_ms);
    j.num("sharded_warm_batch_ms", sharded_batch_ms);
    j.int("sharded_peers", 2);
    j.num("shard_balance_max_min", shard_max / shard_min);
    j.int("sharded_variant_requests", sharded_variant_total);
    j.int("sharded_variant_hits", sharded_variant_hits);
    j.int("conc_requests_per_run", conc_total as u64);
    j.num("conc_reactor_rps_1", r1.rps);
    j.num("conc_reactor_rps_64", r64.rps);
    j.num("conc_reactor_rps_512", r512.rps);
    j.num("conc_reactor_p99_us_1", r1.p99_us);
    j.num("conc_reactor_p99_us_512", r512.p99_us);
    j.int("overload_conns", overload_conns as u64);
    j.int("overload_heavy_requests", heavy_total as u64);
    j.int("overload_interactive_requests", inter_total as u64);
    j.num("overload_unloaded_p99_us", unloaded.p99_us);
    j.num("overload_interactive_p99_us", inter.p99_us);
    j.int("overload_interactive_sheds", inter.sheds);
    j.int("overload_heavy_completed", heavy_completed);
    j.int("overload_heavy_shed_retries", heavy_shed_retries);

    let json = j.finish();
    std::fs::write(&out_path, &json).expect("write bench json");
    println!("{json}");
    eprintln!("wrote {out_path}");

    let _ = std::fs::remove_dir_all(&root);
    assert!(
        cold_ms / warm_mem_ms >= 5.0,
        "warm-memory sweep must be >=5x faster than cold (got {:.1}x)",
        cold_ms / warm_mem_ms
    );
    assert!(
        cold_ms / direct_ms <= 3.83,
        "cold-path overhead regressed past the pre-optimisation baseline \
         (got {:.2}x, baseline 3.83x)",
        cold_ms / direct_ms
    );
    // Per-line and batch work share the readiness loop and the worker
    // pool, so both pay pool handoffs; one batch must still win clearly
    // over a round trip per request.
    assert!(
        per_line_ms / batch_ms >= 1.5,
        "one compile_batch must beat {} per-line round trips by >=1.5x (got {:.1}x)",
        reqs.len(),
        per_line_ms / batch_ms
    );
    assert!(
        shard_max / shard_min <= 2.0,
        "consistent hashing must keep shard loads within 2x (got {:.2}x)",
        shard_max / shard_min
    );
    assert!(
        variant_hit_rate >= 0.90,
        "isomorphic variants must warm-hit the semantic alias at >=90% \
         (got {:.1}% over {n_variants})",
        variant_hit_rate * 100.0
    );
    assert!(
        sharded_variant_hits == sharded_variant_total,
        "semantic routing must land every renamed variant on its \
         representative's peer cache ({sharded_variant_hits}/{sharded_variant_total} hit)"
    );
    assert!(
        r512.rps >= CONC_512_FLOOR_RPS,
        "warm throughput at 512 connections must reach {CONC_512_FLOOR_RPS:.0} rps \
         (got {:.0})",
        r512.rps
    );
    assert!(
        r512.p99_us <= (2.0 * r1.p99_us).max(2000.0),
        "reactor p99 at 512 connections must stay within 2x of the \
         1-connection p99 (got {:.0}us vs {:.0}us)",
        r512.p99_us,
        r1.p99_us
    );
    // ---- overload floors (the governor's contract) -----------------------
    assert_eq!(
        inter.sheds, 0,
        "interactive traffic must never be shed ({} sheds)",
        inter.sheds
    );
    assert!(
        inter.p99_us <= (2.0 * unloaded.p99_us).max(2000.0),
        "interactive p99 under heavy flood must stay within 2x of the \
         unloaded p99 (got {:.0}us vs {:.0}us)",
        inter.p99_us,
        unloaded.p99_us
    );
    assert_eq!(
        heavy_completed, heavy_total as u64,
        "every shed heavy request must retry to completion \
         ({heavy_completed} of {heavy_total})"
    );
    assert!(
        heavy_shed_retries > 0,
        "the depth-4 policy must actually shed under a {heavy_total}-deep \
         heavy flood (0 retries observed — the overload floor is vacuous)"
    );
}
