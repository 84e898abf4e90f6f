//! End-to-end tests of the compile service over real TCP.
//!
//! Each test binds its own server on an ephemeral loopback port, drives it
//! through [`vliw_serve::Client`], and shuts it down over the wire.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;
use vliw_loopgen::{corpus_with, CorpusSpec};
use vliw_machine::MachineDesc;
use vliw_pipeline::PipelineConfig;
use vliw_serve::{
    parse_json, CachedCompiler, Client, ClientError, CompileRequest, CompileResult, DiskStore,
    Json, Server, ServerConfig, ShardedClient, TieredCache,
};

struct TestServer {
    addr: String,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl TestServer {
    /// Bind on an ephemeral port and serve from a background thread.
    fn start(disk: Option<DiskStore>) -> TestServer {
        TestServer::start_with(disk, |_| {})
    }

    /// Like [`TestServer::start`], with a config hook for per-test knobs
    /// (worker count, idle timeout, line cap, ...).
    fn start_with(disk: Option<DiskStore>, tweak: impl FnOnce(&mut ServerConfig)) -> TestServer {
        let engine = CachedCompiler::new(TieredCache::new(1024, disk));
        let mut config = ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            default_timeout: Duration::from_secs(30),
            batch_parallelism: 4,
            ..ServerConfig::default()
        };
        tweak(&mut config);
        let server = Server::bind(config, engine).expect("bind ephemeral port");
        let addr = server.local_addr().expect("bound address").to_string();
        let thread = std::thread::spawn(move || server.run());
        TestServer {
            addr,
            thread: Some(thread),
        }
    }

    fn client(&self) -> Client {
        Client::connect(&self.addr).expect("connect to test server")
    }

    /// Wire-shutdown and join the server thread.
    fn stop(mut self) {
        let mut c = self.client();
        c.shutdown().expect("shutdown ack");
        self.thread
            .take()
            .expect("not yet stopped")
            .join()
            .expect("server thread exits cleanly");
    }

    /// Join after the server was already shut down out-of-band.
    fn stop_joined(mut self) {
        self.thread
            .take()
            .expect("not yet stopped")
            .join()
            .expect("server thread exits cleanly");
    }
}

fn sample_request(idx: usize) -> CompileRequest {
    let spec = CorpusSpec {
        n: idx + 1,
        ..Default::default()
    };
    let body = corpus_with(&spec).remove(idx);
    CompileRequest::from_parts(
        &body,
        &MachineDesc::embedded(2, 4),
        &PipelineConfig::default(),
    )
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("vliw-serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn round_trip_and_repeat_is_cache_hit() {
    let server = TestServer::start(None);
    let mut client = server.client();
    client.ping().expect("ping");

    let req = sample_request(0);
    let first = client.compile(&req, None).expect("first compile");
    assert_eq!(first.served, "compiled");
    assert_eq!(
        first.result.key,
        req.cache_key(),
        "key matches content hash"
    );
    assert!(first.result.clustered_ii >= first.result.ideal_ii);

    // The identical request again: served from cache, byte-identical
    // artifact set under the identical hash.
    let second = client.compile(&req, None).expect("second compile");
    assert!(second.is_cache_hit(), "served={}", second.served);
    assert_eq!(second.result, first.result);
    assert_eq!(second.result.key, first.result.key);

    // A formatting variant of the same inputs canonicalises to the same key.
    let noisy = CompileRequest {
        loop_text: format!("; comment\n{}", req.loop_text),
        ..req.clone()
    };
    let third = client.compile(&noisy, None).expect("noisy compile");
    assert!(third.is_cache_hit());
    assert_eq!(third.result.key, first.result.key);

    let stats = client.stats().expect("stats");
    let n = |k: &str| stats.get(k).and_then(Json::as_f64).unwrap() as u64;
    assert_eq!(n("compiles"), 1);
    assert_eq!(n("hits"), 2);
    assert_eq!(n("misses"), 1);

    server.stop();
}

#[test]
fn concurrent_identical_requests_compile_once() {
    let server = TestServer::start(None);
    let req = sample_request(1);

    // Eight connections race the same request; the in-flight table must
    // collapse them onto one pipeline execution.
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let req = req.clone();
                let addr = server.addr.clone();
                s.spawn(move || {
                    let mut c = Client::connect(&addr).expect("connect");
                    c.compile(&req, None).expect("compile")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let reference = &results[0].result;
    for r in &results {
        assert_eq!(&r.result, reference, "all callers see the same artifact");
    }
    let compiled = results.iter().filter(|r| r.served == "compiled").count();
    assert_eq!(compiled, 1, "exactly one request ran the pipeline");

    let mut client = server.client();
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.get("compiles").and_then(Json::as_f64),
        Some(1.0),
        "server-side execution count"
    );

    server.stop();
}

#[test]
fn disk_tier_survives_server_restart() {
    let root = tmpdir("restart");
    let req = sample_request(2);

    let first = {
        let server = TestServer::start(Some(DiskStore::new(&root)));
        let mut client = server.client();
        let out = client.compile(&req, None).expect("cold compile");
        assert_eq!(out.served, "compiled");
        server.stop();
        out
    };

    // A fresh server over the same cache directory serves the request
    // without compiling.
    let server = TestServer::start(Some(DiskStore::new(&root)));
    let mut client = server.client();
    let warm = client.compile(&req, None).expect("warm compile");
    assert!(warm.is_cache_hit(), "served={}", warm.served);
    assert_eq!(warm.result, first.result);
    let stats = client.stats().expect("stats");
    assert_eq!(stats.get("compiles").and_then(Json::as_f64), Some(0.0));
    server.stop();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn malformed_requests_get_errors_not_disconnects() {
    let server = TestServer::start(None);
    let mut client = server.client();

    let bad = CompileRequest {
        loop_text: "this is not a loop".into(),
        machine_text: "machine m\ncluster 4 32 32".into(),
        config_text: String::new(),
    };
    let err = client.compile(&bad, None).expect_err("must fail");
    match &err {
        ClientError::Server(m) => assert!(m.contains("loop"), "error names the section: {m}"),
        other => panic!("expected a server error, got {other:?}"),
    }

    // The connection survives a rejected request.
    client.ping().expect("still connected");
    let ok = client.compile(&sample_request(0), None).expect("recovers");
    assert_eq!(ok.served, "compiled");

    server.stop();
}

#[test]
fn peer_hangup_is_a_disconnect_not_a_malformed_reply() {
    // A raw listener that accepts one connection and immediately drops it:
    // the client must classify the 0-byte read as Disconnected, which is
    // the signal the sharded failover path keys on.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let accept = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        drop(stream);
    });
    let mut client = Client::connect(&addr).expect("connect");
    accept.join().expect("accept thread");
    let err = client.ping().expect_err("peer hung up");
    assert!(err.is_transport(), "transport-class error: {err:?}");
    assert!(
        matches!(err, ClientError::Disconnected(_)),
        "disconnect, not malformed: {err:?}"
    );
}

#[test]
fn batch_op_compiles_all_entries_and_dedups_duplicates() {
    let server = TestServer::start(None);
    let mut client = server.client();

    // Six entries, two of them identical: the duplicate pair must collapse
    // through the in-flight table / cache, and a bad entry must fail alone.
    let reqs: Vec<CompileRequest> = vec![
        sample_request(0),
        sample_request(1),
        sample_request(2),
        sample_request(0), // duplicate of entry 0
        sample_request(3),
        CompileRequest {
            loop_text: "not a loop".into(),
            machine_text: "machine m\ncluster 4 32 32".into(),
            config_text: String::new(),
        },
    ];
    let results = client
        .compile_batch(&reqs, None, Some(4))
        .expect("batch round trip");
    assert_eq!(results.len(), reqs.len());
    for (i, res) in results.iter().enumerate().take(5) {
        let served = res.as_ref().expect("entry compiles");
        assert!(
            served.served == "compiled" || served.served == "cache" || served.served == "deduped",
            "entry {i} served={}",
            served.served
        );
    }
    let dup = results[3].as_ref().expect("duplicate entry");
    let orig = results[0].as_ref().expect("original entry");
    assert_eq!(dup.result, orig.result, "duplicates share one artifact");
    let bad = results[5].as_ref().expect_err("bad entry fails in place");
    assert!(bad.contains("loop"), "error names the section: {bad}");

    let stats = client.stats().expect("stats");
    let n = |k: &str| stats.get(k).and_then(Json::as_f64).unwrap() as u64;
    assert_eq!(n("batches"), 1);
    assert_eq!(n("compiles"), 4, "duplicate entry never recompiles");

    // The same batch again is served entirely from cache.
    let again = client
        .compile_batch(&reqs[..5], None, None)
        .expect("warm batch");
    for res in &again {
        assert!(res.as_ref().expect("warm entry").is_cache_hit());
    }

    server.stop();
}

#[test]
fn sharded_client_routes_batches_and_fails_over() {
    let a = TestServer::start(None);
    let b = TestServer::start(None);
    let mut sharded = ShardedClient::new([a.addr.clone(), b.addr.clone()]);

    let reqs: Vec<CompileRequest> = (0..8).map(sample_request).collect();
    let first = sharded
        .compile_batch(&reqs, None, Some(4))
        .expect("sharded batch");
    assert_eq!(first.len(), reqs.len());
    for res in &first {
        assert_eq!(res.as_ref().expect("entry compiles").served, "compiled");
    }
    assert_eq!(sharded.failovers(), 0, "no failover while both peers live");

    // Same batch again: every entry lands on the same peer and hits cache.
    let warm = sharded
        .compile_batch(&reqs, None, None)
        .expect("warm batch");
    for res in &warm {
        assert!(res.as_ref().expect("warm entry").is_cache_hit());
    }

    // Aggregated stats see both peers and the full corpus.
    let (per_peer, merged) = sharded.stats_aggregate().expect("aggregate");
    assert_eq!(per_peer.len(), 2);
    assert!(per_peer.iter().all(|(_, s)| s.is_ok()));
    let m = |k: &str| merged.get(k).and_then(Json::as_f64).unwrap() as u64;
    assert_eq!(m("peers_reporting"), 2);
    assert_eq!(m("compiles"), 8, "each entry compiled exactly once overall");
    assert_eq!(m("hits"), 8, "warm batch hit cache on every entry");

    // Kill peer A outright (no graceful shutdown): the next batch must
    // reroute A's slice to B and count one failover per rerouted entry.
    let a_addr = a.addr.clone();
    let mut killer = a.client();
    let _ = killer.shutdown();
    a.stop_joined();
    let rerouted = sharded
        .compile_batch(&reqs, None, Some(4))
        .expect("failover batch");
    for res in &rerouted {
        res.as_ref().expect("entry still served");
    }
    let expected_on_a = reqs
        .iter()
        .filter(|r| {
            // Routing is by semantic key (see `ShardedClient::compile`).
            let key = r
                .canonicalize()
                .expect("canonical")
                .semantic_key()
                .expect("semantic");
            sharded
                .ring()
                .peer(sharded.ring().route(&key).expect("route"))
                == a_addr
        })
        .count() as u64;
    assert!(expected_on_a > 0, "corpus should split across both peers");
    assert_eq!(sharded.failovers(), expected_on_a);

    // Single-request path fails over too.
    let (res, peer) = sharded.compile(&reqs[0], None).expect("single failover");
    assert!(res.served == "cache" || res.served == "compiled");
    assert_eq!(peer, b.addr, "only peer B is left");

    b.stop();
}

/// Read one newline-terminated response off a raw socket.
fn read_line_raw(stream: &mut TcpStream) -> String {
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte) {
            Ok(0) => break,
            Ok(_) => {
                if byte[0] == b'\n' {
                    break;
                }
                buf.push(byte[0]);
            }
            Err(e) => panic!("raw read failed: {e}"),
        }
    }
    String::from_utf8_lossy(&buf).into_owned()
}

/// Render one batch entry object the way the canonical wire line carries it.
fn entry_json(req: &CompileRequest) -> String {
    Json::obj([
        ("loop", Json::Str(req.loop_text.clone())),
        ("machine", Json::Str(req.machine_text.clone())),
        ("config", Json::Str(req.config_text.clone())),
    ])
    .render()
}

#[test]
fn reactor_holds_512_mostly_idle_connections_on_two_workers() {
    // A thread per connection would need 512 threads for this; the reactor
    // holds them all on one thread with a 2-worker compile pool.
    let server = TestServer::start_with(None, |c| {
        c.workers = 2;
        c.max_conns = 1024;
    });
    let mut clients: Vec<Client> = (0..512).map(|_| server.client()).collect();
    for c in clients.iter_mut() {
        c.ping().expect("every connection answers");
    }
    // One connection compiles while the other 511 sit idle.
    let out = clients[7]
        .compile(&sample_request(0), None)
        .expect("compile among idle crowd");
    assert_eq!(out.served, "compiled");
    // A sprinkle of re-use across the idle set.
    for c in clients.iter_mut().step_by(37) {
        c.ping().expect("idle connection still live");
    }
    let stats = clients[0].stats().expect("stats");
    let accepts = stats.get("accepts").and_then(Json::as_f64).unwrap();
    assert!(accepts >= 512.0, "accepts={accepts}");
    drop(clients);
    server.stop();
}

#[test]
fn byte_at_a_time_requests_assemble_correctly() {
    let server = TestServer::start(None);
    let mut s = TcpStream::connect(&server.addr).expect("raw connect");
    s.set_nodelay(true).expect("nodelay");

    // A simple op dribbled one byte per write.
    for &b in b"{\"op\":\"ping\"}\n" {
        s.write_all(&[b]).expect("write byte");
    }
    let resp = read_line_raw(&mut s);
    assert!(resp.contains("\"ok\":true"), "{resp}");

    // A canonical batch, also one byte at a time: no entry starts before
    // the line's newline arrives, and then the batch answers whole.
    let e0 = entry_json(&sample_request(0));
    let e1 = entry_json(&sample_request(1));
    let line = format!("{{\"op\":\"compile_batch\",\"requests\":[{e0},{e1}]}}\n");
    for &b in line.as_bytes() {
        s.write_all(&[b]).expect("write batch byte");
    }
    let resp = read_line_raw(&mut s);
    assert!(resp.contains("\"n\":2"), "{resp}");
    assert!(resp.contains("\"op\":\"compile_batch\""), "{resp}");
    assert_eq!(resp.matches("\"served\"").count(), 2, "{resp}");
    server.stop();
}

/// Send one raw line and read its one-line response.
fn round_trip_raw(stream: &mut TcpStream, line: &str) -> String {
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("send line");
    read_line_raw(stream)
}

#[test]
fn every_batch_spelling_answers_like_the_canonical_line() {
    let server = TestServer::start(None);
    let mut s = TcpStream::connect(&server.addr).expect("raw connect");
    let base = sample_request(0);
    let quote = |text: &str| Json::Str(text.to_string()).render();
    let (machine, config) = (quote(&base.machine_text), quote(&base.config_text));
    // Two good entries that take their sections from `defaults`, and one
    // that fails alone.
    let loops = [
        quote(&sample_request(0).loop_text),
        quote(&sample_request(1).loop_text),
        quote("not a loop"),
    ];
    let entries = |sep: &str| {
        loops
            .iter()
            .map(|l| format!("{{\"loop\":{sep}{l}}}"))
            .collect::<Vec<_>>()
            .join(&format!(",{sep}"))
    };
    let requests = entries("");
    let defaults = format!("{{\"config\":{config},\"machine\":{machine}}}");
    let canonical = format!(
        "{{\"op\":\"compile_batch\",\"timeout_ms\":30000,\"parallelism\":2,\
         \"defaults\":{defaults},\"requests\":[{requests}]}}"
    );
    let spellings = [
        format!(
            "{{\"requests\":[{requests}],\"timeout_ms\":30000,\"parallelism\":2,\
             \"defaults\":{defaults},\"op\":\"compile_batch\"}}"
        ),
        format!(
            "{{\"op\": \"compile_batch\", \"timeout_ms\": 30000, \"parallelism\": 2, \
             \"defaults\": {{\"config\": {config}, \"machine\": {machine}}}, \
             \"requests\": [{}]}}",
            entries(" ")
        ),
        format!(
            "{{\"op\":\"compile_batch\",\"zzz\":1,\"timeout_ms\":30000,\"parallelism\":2,\
             \"defaults\":{defaults},\"requests\":[{requests}]}}"
        ),
        format!(
            "{{\"op\":\"compile_batch\",\"parallelism\":2,\"defaults\":{defaults},\
             \"requests\":[{requests}],\"timeout_ms\":30000}}"
        ),
    ];

    // The first batch compiles; every later one is served from cache.
    let cold = round_trip_raw(&mut s, &canonical);
    assert_eq!(cold.matches("\"served\":\"compiled\"").count(), 2, "{cold}");
    let warm = round_trip_raw(&mut s, &canonical);
    assert_eq!(warm.matches("\"served\":\"cache\"").count(), 2, "{warm}");
    assert_eq!(warm.matches("\"ok\":false").count(), 1, "{warm}");
    for line in &spellings {
        assert_eq!(round_trip_raw(&mut s, line), warm, "{line}");
    }

    let stats = server.client().stats().expect("stats");
    let n = |k: &str| stats.get(k).and_then(Json::as_f64).unwrap() as u64;
    assert_eq!(n("batches"), 6);
    assert_eq!(n("errors"), 6, "the bad entry fails once per batch");
    assert_eq!(n("compiles"), 2);
    server.stop();
}

/// A line nested far past the JSON parser's depth bound is answered with a
/// typed error, whether a worker parses it (a stand-alone line) or the
/// reactor thread does (a batch's control value), and the same connection
/// goes on serving.
#[test]
fn deeply_nested_lines_answer_errors_and_the_connection_survives() {
    let server = TestServer::start_with(None, |c| c.workers = 2);
    let mut s = TcpStream::connect(&server.addr).expect("raw connect");
    let deep = "[".repeat(20_000);
    for line in [
        deep.clone(),
        format!("{{\"op\":\"compile_batch\",\"defaults\":{deep}"),
    ] {
        let resp = round_trip_raw(&mut s, &line);
        assert!(resp.contains("\"ok\":false"), "{resp}");
        assert!(resp.contains("nesting"), "{resp}");
    }
    let ping = round_trip_raw(&mut s, "{\"op\":\"ping\"}");
    assert!(ping.contains("\"ok\":true"), "{ping}");
    let compile = format!(
        "{{\"op\":\"compile\",\"request\":{}}}",
        sample_request(0).to_json().render()
    );
    let resp = round_trip_raw(&mut s, &compile);
    assert!(resp.contains("\"served\":\"compiled\""), "{resp}");
    server.stop();
}

/// A batch's heavy entries queue for the heavy lane one entry at a time,
/// whatever the batch's key order: with one heavy worker, four joint
/// solves that each run out a 400 ms budget take four budgets end to end,
/// not two at a time on threads outside the worker pool.
#[test]
fn non_canonical_batch_entries_respect_the_heavy_lane_quota() {
    let server = TestServer::start_with(None, |c| {
        c.workers = 2;
        c.heavy_lane_workers = 1;
        c.shed_policy = vliw_serve::ShedPolicy::Never;
    });
    let budget_ms = 400;
    // Distinct budgets give distinct cache keys, so no entry dedups onto
    // another.
    let entries: Vec<String> = (0..4)
        .map(|i| hard_joint_request(budget_ms + i).to_json().render())
        .collect();
    let line = format!(
        "{{\"requests\":[{}],\"op\":\"compile_batch\"}}",
        entries.join(",")
    );
    let mut s = TcpStream::connect(&server.addr).expect("raw connect");
    let t0 = std::time::Instant::now();
    let resp = round_trip_raw(&mut s, &line);
    let elapsed = t0.elapsed();

    let doc = parse_json(&resp).expect("batch response");
    let results = doc.get("results").and_then(Json::as_arr).expect("results");
    assert_eq!(results.len(), 4, "{resp}");
    for r in results {
        let result =
            CompileResult::from_json(r.get("result").expect("entry result")).expect("decodes");
        let joint = result.joint.expect("joint claims");
        assert!(!joint.optimal, "each entry must run out its budget");
    }
    assert!(
        elapsed >= Duration::from_millis(3 * budget_ms),
        "four heavy entries finished in {elapsed:?}: they ran beside each other"
    );
    server.stop();
}

#[test]
fn server_survives_client_with_tiny_receive_window() {
    // Shrink the client's receive buffer and read the response in 64-byte
    // nibbles: the server's writes hit WouldBlock and must finish under
    // WRITE-readiness events instead of blocking a thread.
    let server = TestServer::start(None);
    let mut s = TcpStream::connect(&server.addr).expect("raw connect");
    vliw_serve::sys::set_recv_buffer_size(&s, 1024).expect("shrink rcvbuf");

    let entry = entry_json(&sample_request(0));
    let entries = vec![entry; 64].join(",");
    let line = format!("{{\"op\":\"compile_batch\",\"requests\":[{entries}]}}\n");
    s.write_all(line.as_bytes()).expect("send batch");

    let mut resp = Vec::new();
    let mut buf = [0u8; 64];
    loop {
        let n = s.read(&mut buf).expect("nibble read");
        assert!(n > 0, "connection closed before the response finished");
        resp.extend_from_slice(&buf[..n]);
        if resp.contains(&b'\n') {
            break;
        }
    }
    let resp = String::from_utf8_lossy(&resp);
    assert!(resp.contains("\"n\":64"), "got {} bytes", resp.len());
    assert_eq!(resp.matches("\"served\"").count(), 64);
    server.stop();
}

#[test]
fn idle_connections_are_swept_with_typed_error() {
    let server = TestServer::start_with(None, |c| {
        c.idle_timeout = Some(Duration::from_millis(200));
    });
    let mut s = TcpStream::connect(&server.addr).expect("raw connect");
    // Send nothing: the sweep must push a typed error and close.
    let resp = read_line_raw(&mut s);
    assert!(resp.contains("\"ok\":false"), "{resp}");
    assert!(resp.contains("idle timeout"), "{resp}");
    let mut buf = [0u8; 16];
    assert_eq!(s.read(&mut buf).unwrap_or(0), 0, "connection is closed");

    // An active connection must not be swept.
    let mut c = server.client();
    for _ in 0..4 {
        c.ping().expect("active connection survives the sweep");
        std::thread::sleep(Duration::from_millis(90));
    }
    let stats = c.stats().expect("stats");
    let swept = stats.get("idle_closed").and_then(Json::as_f64).unwrap();
    assert!(swept >= 1.0, "idle_closed={swept}");
    server.stop();
}

#[test]
fn oversized_request_line_is_rejected_and_closed() {
    let server = TestServer::start_with(None, |c| c.max_line_bytes = 4096);
    let mut s = TcpStream::connect(&server.addr).expect("raw connect");
    s.write_all(&vec![b'a'; 10_000])
        .expect("send oversized junk");
    let resp = read_line_raw(&mut s);
    assert!(resp.contains("\"ok\":false"), "{resp}");
    assert!(resp.contains("length limit"), "{resp}");
    let mut buf = [0u8; 16];
    assert_eq!(s.read(&mut buf).unwrap_or(0), 0, "connection is closed");
    server.stop();
}

/// daxpy unrolled 6×: 30 ops over 25 vregs. On `embedded(4,4)` the II=2
/// rung is a deep refutation (seconds even in release), so any sub-second
/// joint budget reliably truncates — the anytime path's canonical hard
/// instance. The default `LintMode::Gate` panics in debug builds on any
/// JNT001–003 finding, so a dishonest truncated claim would kill the worker
/// and fail these tests with a disconnect.
fn hard_joint_request(budget_ms: u64) -> CompileRequest {
    daxpy_request(6, 128, vliw_pipeline::PartitionerKind::Joint { budget_ms })
}

/// daxpy unrolled `unroll` times with `trip` iterations on `embedded(4,4)`
/// under `partitioner`: 25 vregs at unroll 6, 9 at unroll 2.
fn daxpy_request(
    unroll: i64,
    trip: u32,
    partitioner: vliw_pipeline::PartitionerKind,
) -> CompileRequest {
    use vliw_ir::{LoopBuilder, RegClass};
    let mut b = LoopBuilder::new(format!("hard_daxpy_u{unroll}"));
    let x = b.array("x", RegClass::Float, 1024);
    let y = b.array("y", RegClass::Float, 1024);
    let a = b.live_in_float("a");
    for u in 0..unroll {
        let xv = b.load(x, u, unroll);
        let yv = b.load(y, u, unroll);
        let p = b.fmul(a, xv);
        let s = b.fadd(yv, p);
        b.store(y, u, unroll, s);
    }
    let body = b.finish(trip);
    let cfg = PipelineConfig {
        partitioner,
        ..PipelineConfig::default()
    };
    CompileRequest::from_parts(&body, &MachineDesc::embedded(4, 4), &cfg)
}

#[test]
fn under_budgeted_joint_compile_returns_typed_truncation() {
    let server = TestServer::start(None);
    let mut client = server.client();

    // An explicit 1 ms budget: the solver must answer with its incumbent
    // and honest bounds instead of timing out or dropping the connection.
    let req = hard_joint_request(1);
    let out = client
        .compile(&req, None)
        .expect("typed response, not a timeout");
    assert_eq!(out.served, "compiled");
    let joint = out
        .result
        .joint
        .expect("joint partitioner reports its claims");
    assert!(!joint.optimal, "1 ms cannot close this instance");
    assert!(joint.lower_bound_ii <= joint.ii);
    assert!(joint.ii <= joint.greedy_ii);

    // The connection survives and the truncation is counted.
    client.ping().expect("still connected");
    let stats = client.stats().expect("stats");
    let truncated = stats
        .get("joint_truncated")
        .and_then(Json::as_f64)
        .expect("joint_truncated is exported");
    assert!(truncated >= 1.0, "joint_truncated={truncated}");

    // The budget is part of the request text, so this (reproducible)
    // truncated artifact is cacheable like any other result — and the
    // joint claims survive the cache round trip.
    let warm = client.compile(&req, None).expect("warm");
    assert!(warm.is_cache_hit(), "served={}", warm.served);
    assert_eq!(warm.result, out.result);

    server.stop();
}

/// `req` with its partitioner line spelled with two spaces: the parser
/// accepts it and it reaches the same canonical key, so the server must
/// govern it exactly like the canonical spelling.
fn respelled(req: &CompileRequest) -> CompileRequest {
    let config_text = req.config_text.replacen("partitioner ", "partitioner  ", 1);
    assert_ne!(config_text, req.config_text);
    CompileRequest {
        config_text,
        ..req.clone()
    }
}

#[test]
fn deadline_stopped_results_are_never_cached() {
    // An *unlimited* configured budget under a short request deadline, for
    // both solvers and however the config is spelled: the search stops at
    // 3/4 of the time left so the request answers instead of timing out.
    // That truncation depends on the deadline, which is not part of the
    // cache key, so it must never be published under the request's
    // canonical key. 10 ms is far below either solve: the joint II=2 rung
    // takes seconds, and the exact search needs ~25 ms to close in release
    // (seconds in debug).
    for (req, claims) in [
        (hard_joint_request(0), "joint_truncated"),
        (respelled(&hard_joint_request(0)), "joint_truncated"),
        (hard_exact_request(), "exact_truncated"),
        (respelled(&hard_exact_request()), "exact_truncated"),
    ] {
        let server = TestServer::start(None);
        let mut client = server.client();
        for attempt in 0..2 {
            // The leader compiles on the worker and retires its in-flight
            // slot before the reply is queued, so the repeat elects a fresh
            // leader at once instead of deduping onto the first compile.
            let out = client
                .compile(&req, Some(10))
                .expect("deadline-bound compile");
            assert_eq!(
                out.served, "compiled",
                "{claims} #{attempt}: a deadline-stopped result must not be served from cache"
            );
            let optimal = match (out.result.joint, out.result.exact) {
                (Some(joint), None) => {
                    assert!(joint.lower_bound_ii <= joint.ii);
                    joint.optimal
                }
                (None, Some(exact)) => exact.optimal,
                other => panic!("one solver's claims expected, got {other:?}"),
            };
            assert!(
                !optimal,
                "{claims}: the deadline cannot close this instance"
            );
        }
        let stats = client.stats().expect("stats");
        let n = |k: &str| stats.get(k).and_then(Json::as_f64).unwrap() as u64;
        assert_eq!((n("compiles"), n(claims)), (2, 2));
        server.stop();
    }
}

#[test]
fn zero_timeout_cold_compile_answers_with_its_result() {
    // `timeout_ms` bounds the solve and the wait on someone else's compile,
    // not the request's own compile: a cold greedy request with no time at
    // all still compiles on its worker and is answered with its result.
    let server = TestServer::start(None);
    let mut client = server.client();
    let req = sample_request(4);
    let out = client.compile(&req, Some(0)).expect("zero-timeout compile");
    assert_eq!(out.served, "compiled");
    let (body, machine, cfg) = req.decode().expect("request decodes");
    let direct = CompileResult::from_loop_result(
        req.cache_key(),
        &vliw_pipeline::run_loop(&body, &machine, &cfg),
    );
    assert_eq!(out.result, direct);

    let stats = client.stats().expect("stats");
    let n = |k: &str| stats.get(k).and_then(Json::as_f64).unwrap() as u64;
    assert_eq!((n("compiles"), n("timeouts")), (1, 0));

    server.stop();
}

/// The same 25-vreg daxpy body under the *exact* partitioner with an
/// unlimited explicit budget: only a request deadline or a pool trip can
/// truncate it.
fn hard_exact_request() -> CompileRequest {
    daxpy_request(
        6,
        128,
        vliw_pipeline::PartitionerKind::Exact { budget_ms: 0 },
    )
}

#[test]
fn pool_tripped_exact_truncation_is_never_cached() {
    // A pool far too small for the exact search's working set: the budget
    // trips on the first charge and the solver returns its greedy seed
    // with an honest `optimal: false`. That truncation is a function of
    // transient server state (pool occupancy), not of the request text the
    // cache key hashes — so it must never be cached, even though the
    // request's own budget is unlimited.
    let server = TestServer::start_with(None, |c| {
        c.mem_budget = 4096;
        c.shed_policy = vliw_serve::ShedPolicy::Never;
    });
    let mut client = server.client();

    let req = hard_exact_request();
    let first = client.compile(&req, None).expect("truncated compile");
    assert_eq!(first.served, "compiled");
    let exact = first
        .result
        .exact
        .expect("exact partitioner reports its claims");
    assert!(
        !exact.optimal,
        "a 4 KiB pool cannot cover the exact working set"
    );

    // The leader retired its in-flight slot before it replied, so the
    // repeat compiles again: the degraded seed partition must not be
    // served back from cache.
    let second = client.compile(&req, None).expect("second compile");
    assert_eq!(
        second.served, "compiled",
        "a pool-tripped truncation must not be served from cache"
    );
    assert!(!second.result.exact.expect("claims").optimal);

    let stats = client.stats().expect("stats");
    let n = |k: &str| stats.get(k).and_then(Json::as_f64).unwrap() as u64;
    assert_eq!(n("compiles"), 2);
    assert!(
        n("exact_truncated") >= 1,
        "exact_truncated={}",
        n("exact_truncated")
    );

    server.stop();
}

#[test]
fn interactive_exact_compiles_are_pool_accounted() {
    // An exact request *under* the heavy vreg threshold rides the
    // interactive lane, but its solver still charges the pool: with a
    // pool smaller than even this small working set, the compile must
    // come back as an honest truncation instead of an unaccounted solve
    // (--mem-budget is a hard cap for every lane).
    let server = TestServer::start_with(None, |c| {
        c.mem_budget = 256;
        c.shed_policy = vliw_serve::ShedPolicy::Never;
    });
    let mut client = server.client();

    use vliw_ir::{LoopBuilder, RegClass};
    let mut b = LoopBuilder::new("small_daxpy_u2");
    let x = b.array("x", RegClass::Float, 1024);
    let y = b.array("y", RegClass::Float, 1024);
    let a = b.live_in_float("a");
    for u in 0..2i64 {
        let xv = b.load(x, u, 2);
        let yv = b.load(y, u, 2);
        let p = b.fmul(a, xv);
        let s = b.fadd(yv, p);
        b.store(y, u, 2, s);
    }
    let body = b.finish(128);
    let cfg = PipelineConfig {
        partitioner: vliw_pipeline::PartitionerKind::Exact { budget_ms: 0 },
        ..PipelineConfig::default()
    };
    let req = CompileRequest::from_parts(&body, &MachineDesc::embedded(4, 4), &cfg);

    for r in [&req, &respelled(&req)] {
        let first = client.compile(r, None).expect("governed compile");
        assert_eq!(first.served, "compiled");
        let exact = first.result.exact.expect("exact claims");
        assert!(
            !exact.optimal,
            "a 256-byte pool cannot cover even this working set ({:?})",
            r.config_text
        );

        // Pool-tripped, so never cached — identical to the heavy-lane rule.
        let second = client.compile(r, None).expect("second compile");
        assert_eq!(second.served, "compiled", "{:?}", r.config_text);
        assert!(!second.result.exact.expect("claims").optimal);
    }

    // The compile drops its budget before its reply is queued, so every
    // grant is back in the pool by the time the answer arrives.
    let stats = client.stats().expect("stats");
    let n = |k: &str| stats.get(k).and_then(Json::as_f64).unwrap() as u64;
    assert_eq!((n("compiles"), n("exact_truncated")), (4, 4));
    let used = stats
        .get("pool_bytes_used")
        .and_then(Json::as_f64)
        .expect("pool gauge") as u64;
    assert_eq!(used, 0, "all grants returned");

    server.stop();
}

/// Fair-share isolation: one greedy client floods the heavy lane with
/// expensive joint solves while a second client replays a warm cache hit.
/// The victim's requests are interactive — the governor must never shed
/// them, and the heavy-lane worker quota must keep workers free so its
/// latency stays bounded while the flood is still compiling.
#[test]
fn heavy_flood_does_not_starve_interactive_client() {
    use std::time::Instant;
    let server = TestServer::start_with(None, |c| {
        c.workers = 4;
        c.heavy_lane_workers = 2; // two workers always answerable to interactive
        c.shed_policy = vliw_serve::ShedPolicy::Adaptive;
    });

    // Warm the cache with the victim's request before the flood begins.
    let victim_req = sample_request(0);
    let mut warmup = server.client();
    assert_eq!(
        warmup.compile(&victim_req, None).expect("warm").served,
        "compiled"
    );

    // Four greedy connections, each sending distinct heavy joint solves
    // (distinct budgets => distinct cache keys, so every one compiles).
    // They retry on shed: under overload their work may be deferred, but
    // it must eventually complete.
    let greedy: Vec<_> = (0..4u64)
        .map(|t| {
            let addr = server.addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).expect("greedy connect");
                let mut retries = 0u32;
                for i in 0..4u64 {
                    let req = hard_joint_request(40 + t * 4 + i);
                    let (out, r) = c
                        .compile_with_retry(&req, None, 20)
                        .expect("greedy compile eventually completes");
                    assert_eq!(out.served, "compiled");
                    retries += r;
                }
                retries
            })
        })
        .collect();

    // While the flood runs, the victim replays its warm hit and every
    // round trip must come straight from cache, unshed, quickly.
    let mut victim = server.client();
    let mut worst = Duration::ZERO;
    for _ in 0..50 {
        let t0 = Instant::now();
        let out = victim
            .compile(&victim_req, None)
            .expect("victim is never shed");
        worst = worst.max(t0.elapsed());
        assert!(out.is_cache_hit(), "served={}", out.served);
    }
    // Generous debug-build bound: a cache probe served by a reserved
    // interactive worker, not a solver slot. Seconds would mean the flood
    // occupied the whole pool.
    assert!(worst < Duration::from_secs(2), "victim worst={worst:?}");

    for g in greedy {
        g.join().expect("greedy thread");
    }

    // The governor's gauges are live on the stats wire; interactive sheds
    // must be zero by policy (`sheds` counts heavy-lane sheds only). Each
    // compile drops its grant before its reply is queued, so once every
    // greedy client has its answers the pool is empty.
    let stats = victim.stats().expect("stats");
    let n = |k: &str| stats.get(k).and_then(Json::as_f64).expect(k) as u64;
    assert_eq!(n("queue_depth_interactive"), 0, "drained");
    assert!(stats.get("sheds").is_some() && stats.get("pool_bytes_limit").is_some());
    assert_eq!(n("pool_bytes_used"), 0, "all grants returned");

    server.stop();
}

/// A server that sheds every heavy admission (`depth:0`): any request the
/// lane rule makes heavy is answered with a typed shed once it misses the
/// cache, and anything else compiles or hits.
fn start_shedding(disk: Option<DiskStore>) -> TestServer {
    TestServer::start_with(disk, |c| {
        c.workers = 2;
        c.heavy_lane_workers = 1;
        c.shed_policy = vliw_serve::ShedPolicy::Depth(0);
    })
}

/// The 25-vreg daxpy under `partitioner joint 50`, trip count `trip`.
fn heavy_joint(trip: u32) -> CompileRequest {
    let joint = vliw_pipeline::PartitionerKind::Joint { budget_ms: 50 };
    daxpy_request(6, trip, joint)
}

/// Send `line` to a fresh shedding server and assert it is shed without
/// compiling.
fn assert_line_is_shed(line: &str, case: &str) {
    let server = start_shedding(None);
    let mut s = TcpStream::connect(&server.addr).expect("raw connect");
    let resp = round_trip_raw(&mut s, line);
    assert!(resp.contains("\"error_kind\":\"shed\""), "{case}: {resp}");
    let stats = server.client().stats().expect("stats");
    let n = |k: &str| stats.get(k).and_then(Json::as_f64).unwrap() as u64;
    assert_eq!((n("sheds"), n("compiles")), (1, 0), "{case}");
    server.stop();
}

fn compile_line(req: &CompileRequest) -> String {
    format!(
        "{{\"op\":\"compile\",\"request\":{}}}",
        req.to_json().render()
    )
}

/// A request is heavy by what it decodes to, however it is spelled: the
/// canonical spelling, a two-space respelling the config parser accepts,
/// and a JSON escape that decodes to the canonical text are each shed by a
/// heavy lane that sheds everything.
#[test]
fn canonical_heavy_requests_are_shed() {
    assert_line_is_shed(&compile_line(&heavy_joint(128)), "canonical");
}

#[test]
fn respelled_heavy_requests_are_shed() {
    assert_line_is_shed(&compile_line(&respelled(&heavy_joint(128))), "two spaces");
}

#[test]
fn escaped_heavy_requests_are_shed() {
    let canonical = compile_line(&heavy_joint(128));
    let escaped = canonical.replacen("partitioner joint", "partitioner \\u006aoint", 1);
    assert_ne!(escaped, canonical);
    assert_line_is_shed(&escaped, "escaped");
}

/// A batch whose entries share one config has it hoisted into
/// `defaults.config`, so no entry's own text names its partitioner; each
/// entry is still heavy by what it decodes to, and is shed on its own.
#[test]
fn batch_entries_with_a_hoisted_config_are_shed_per_entry() {
    let server = start_shedding(None);
    let mut client = server.client();
    let reqs = [heavy_joint(131), heavy_joint(132)];
    let line = Client::batch_line(&reqs, None, None);
    let doc = parse_json(&line).expect("batch line parses");
    let hoisted = doc.get("defaults").and_then(|d| d.get("config"));
    assert_eq!(hoisted.and_then(Json::as_str), Some(&*reqs[0].config_text));
    for entry in doc.get("requests").and_then(Json::as_arr).expect("entries") {
        assert!(entry.get("config").is_none(), "the config was hoisted");
    }

    let results = client.compile_batch(&reqs, None, None).expect("batch");
    assert_eq!(results.len(), 2);
    for (i, r) in results.iter().enumerate() {
        match r {
            Err(e) => assert!(e.starts_with("server overloaded"), "entry {i}: {e}"),
            Ok(out) => panic!("entry {i}: expected a shed, got served={}", out.served),
        }
    }
    let stats = client.stats().expect("stats");
    let n = |k: &str| stats.get(k).and_then(Json::as_f64).unwrap() as u64;
    assert_eq!((n("sheds"), n("compiles")), (2, 0));
    server.stop();
}

/// A heavy request whose answer is already in the disk store is a cache
/// hit, and a hit is never shed: a server that sheds every heavy admission
/// serves it from cache, again on repeat.
#[test]
fn cached_heavy_requests_are_served_while_the_heavy_lane_sheds() {
    let root = tmpdir("heavy-hit");
    let req = heavy_joint(128);
    {
        let server = TestServer::start_with(Some(DiskStore::new(&root)), |c| {
            c.shed_policy = vliw_serve::ShedPolicy::Never;
        });
        let out = server.client().compile(&req, None).expect("cold compile");
        assert_eq!(out.served, "compiled");
        server.stop();
    }
    let server = start_shedding(Some(DiskStore::new(&root)));
    let mut client = server.client();
    for attempt in 0..2 {
        let out = client.compile(&req, None).expect("a hit is never shed");
        assert_eq!(out.served, "cache", "attempt {attempt}");
    }
    let stats = client.stats().expect("stats");
    let n = |k: &str| stats.get(k).and_then(Json::as_f64).unwrap() as u64;
    assert_eq!((n("sheds"), n("compiles")), (0, 0));
    server.stop();
    let _ = std::fs::remove_dir_all(&root);
}

/// An exact solve under the vreg threshold stays on the interactive lane:
/// it compiles even while the heavy lane sheds everything.
#[test]
fn small_exact_requests_compile_while_the_heavy_lane_sheds() {
    let req = daxpy_request(
        2,
        128,
        vliw_pipeline::PartitionerKind::Exact { budget_ms: 0 },
    );
    let (body, _, _) = req.decode().expect("decodes");
    assert_eq!(body.n_vregs(), 9);
    assert!(body.n_vregs() < vliw_governor::HEAVY_VREG_THRESHOLD);
    let server = start_shedding(None);
    let out = server.client().compile(&req, None).expect("compiles");
    assert_eq!(out.served, "compiled");
    server.stop();
}

/// A heavy miss runs once on each lane but is one request: it counts one
/// latency sample, one queue sample and one miss.
#[test]
fn a_request_moved_to_the_heavy_lane_is_sampled_once() {
    let server = TestServer::start_with(None, |c| {
        c.shed_policy = vliw_serve::ShedPolicy::Never;
    });
    let mut client = server.client();
    let out = client.compile(&heavy_joint(128), None).expect("compiles");
    assert_eq!(out.served, "compiled");
    // The stats request samples its own queue wait only after it renders.
    let stats = client.stats().expect("stats");
    let n = |k: &str| stats.get(k).and_then(Json::as_f64).unwrap() as u64;
    assert_eq!((n("samples"), n("queue_samples")), (1, 1));
    assert_eq!((n("misses"), n("compiles"), n("sheds")), (1, 1, 0));
    server.stop();
}
