//! `vliw-client` — CLI for the compile server.
//!
//! ```text
//! vliw-client (--addr HOST:PORT | --peers A,B,..) [--ping] [--stats]
//!             [--shutdown] [--compile] [--batch] [--concurrent N]
//!             [--loop-file PATH | --gen IDX | --gen-variant IDX:SEED | --gen-range LO:HI]
//!             [--machine SPEC] [--config-file PATH]
//!             [--timeout-ms N] [--repeat N] [--parallelism N] [--aggregate]
//!             [--max-retries N]
//! ```
//!
//! `--compile` sends one job built from either a canonical loop file
//! (`--loop-file`) or corpus loop number IDX (`--gen`, deterministic
//! loopgen); `--gen-variant IDX:SEED` sends a deterministic *isomorphic
//! renaming* of corpus loop IDX (fresh register/array/loop names,
//! commutative operand swaps, a dependence-legal statement permutation) —
//! a different exact cache key but the same semantic key, which is how the
//! CI smoke asserts renamed requests warm-hit the semantic alias.
//! `--batch` with `--gen-range LO:HI` ships corpus loops
//! `[LO, HI)` as a single `compile_batch` wire round trip (`--parallelism`
//! caps the server-side fan-out). `--machine` takes the short specs
//! understood by `vliw_machine::machine_from_spec` (`embedded:4x4`,
//! `copyunit:2x8`, `ideal:16`). `--repeat N` resends the identical request
//! N times and reports how each was served, which is how the CI smoke test
//! asserts the second send is a cache hit. `--concurrent N` holds N
//! simultaneous connections open and sends one request on each (the
//! `--compile` request if one is configured, a ping otherwise), then
//! prints `concurrent n=N ok=K errors=E` — the CI smoke uses it to assert
//! the reactor core multiplexes hundreds of connections on a small worker
//! pool without dropping any.
//!
//! An overloaded server may *shed* a heavy compile with a typed retryable
//! error carrying a `retry_after_ms` hint. `--max-retries N` (default 0)
//! makes compile modes honor it: bounded exponential backoff with jitter,
//! then resend, up to N times per request. Retries are counted in the
//! summary (`retries=N` after compile output, `retries=` field on the
//! `concurrent` line); exhausting the budget fails with the shed error.
//!
//! With `--peers A,B,..` every request routes by its content hash over a
//! consistent-hash ring: identical requests always land on the same peer,
//! and a dead peer's keys fail over to the next peer on the ring (the
//! `failovers=N` line counts rerouted requests). `--stats --peers` prints
//! one line per peer plus an `aggregate` line (`--aggregate` alone also
//! works); `--shutdown --peers` stops every reachable peer.

use vliw_machine::machine_from_spec;
use vliw_pipeline::{format_pipeline_config, PipelineConfig};
use vliw_serve::{Client, CompileRequest, Json, ServedResult, ShardedClient};

fn usage() -> ! {
    eprintln!(
        "usage: vliw-client (--addr HOST:PORT | --peers A,B,..) [--ping] [--stats]\n\
         \x20                  [--shutdown] [--compile] [--batch] [--concurrent N]\n\
         \x20                  [--loop-file PATH | --gen IDX | --gen-variant IDX:SEED\n\
         \x20                   | --gen-range LO:HI]\n\
         \x20                  [--machine SPEC] [--config-file PATH]\n\
         \x20                  [--timeout-ms N] [--repeat N] [--parallelism N] [--aggregate]\n\
         \x20                  [--max-retries N]"
    );
    std::process::exit(2);
}

fn fatal(msg: &str) -> ! {
    eprintln!("vliw-client: {msg}");
    std::process::exit(1);
}

/// One line per served entry, shared by every compile mode.
fn print_served(tag: &str, i: usize, served: &ServedResult, peer: Option<&str>) {
    let r = &served.result;
    let peer = peer.map(|p| format!(" peer={p}")).unwrap_or_default();
    // Joint-partitioner compiles carry the solver's audited claims; a
    // truncated search is visible here as `joint_optimal=false` with the
    // proven bound, never as a timeout.
    let joint = r
        .joint
        .map(|j| {
            format!(
                " joint_ii={} joint_lb={} joint_optimal={}",
                j.ii, j.lower_bound_ii, j.optimal
            )
        })
        .unwrap_or_default();
    println!(
        "{tag}[{i}] served={}{peer} key={} loop={} ideal_ii={} clustered_ii={} copies={} normalized={:.1}{joint}",
        served.served, r.key, r.name, r.ideal_ii, r.clustered_ii, r.n_copies, r.normalized
    );
}

fn print_stats_line(prefix: &str, stats: &Json) {
    // Merged aggregates carry percentiles as `max_p50_us` etc. (they merge
    // by worst peer, not by sum); fall back so one printer serves both.
    let n = |k: &str| {
        stats
            .get(k)
            .or_else(|| stats.get(&format!("max_{k}")))
            .and_then(Json::as_f64)
            .map(|v| v as u64)
            .unwrap_or(0)
    };
    println!(
        "{prefix} hits={} (mem={} disk={}) misses={} compiles={} dedup_waits={} batches={} sync_writes={} evictions={} timeouts={} joint_truncated={} exact_truncated={} errors={} accepts={} conns_rejected={} p50_us={} p90_us={} p99_us={} queue_p99_us={}",
        n("hits"),
        n("mem_hits"),
        n("disk_hits"),
        n("misses"),
        n("compiles"),
        n("dedup_waits"),
        n("batches"),
        n("sync_writes"),
        n("evictions"),
        n("timeouts"),
        n("joint_truncated"),
        n("exact_truncated"),
        n("errors"),
        n("accepts"),
        n("conns_rejected"),
        n("p50_us"),
        n("p90_us"),
        n("p99_us"),
        n("queue_p99_us")
    );
}

fn corpus_loop_text(idx: usize) -> String {
    let mut loops = vliw_loopgen::corpus();
    if idx >= loops.len() {
        fatal(&format!(
            "loop index {idx} out of range (corpus has {})",
            loops.len()
        ));
    }
    vliw_ir::format_loop_full(&loops.swap_remove(idx))
}

/// A deterministic isomorphic renaming of corpus loop `idx`: same semantic
/// cache key as the original, different exact key.
fn corpus_variant_text(idx: usize, seed: u64) -> String {
    let mut loops = vliw_loopgen::corpus();
    if idx >= loops.len() {
        fatal(&format!(
            "loop index {idx} out of range (corpus has {})",
            loops.len()
        ));
    }
    vliw_ir::format_loop_full(&vliw_normal::variant(&loops.swap_remove(idx), seed))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = None;
    let mut peers: Option<Vec<String>> = None;
    let mut do_ping = false;
    let mut do_stats = false;
    let mut do_shutdown = false;
    let mut do_compile = false;
    let mut do_batch = false;
    let mut do_aggregate = false;
    let mut loop_file = None;
    let mut gen_idx = None;
    let mut gen_variant = None;
    let mut gen_range = None;
    let mut machine_spec = "embedded:4x4".to_string();
    let mut config_file = None;
    let mut timeout_ms = None;
    let mut repeat = 1usize;
    let mut parallelism = None;
    let mut concurrent: Option<usize> = None;
    let mut max_retries = 0u32;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--addr" => addr = Some(value()),
            "--peers" => {
                peers = Some(
                    value()
                        .split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(String::from)
                        .collect(),
                )
            }
            "--ping" => do_ping = true,
            "--stats" => do_stats = true,
            "--shutdown" => do_shutdown = true,
            "--compile" => do_compile = true,
            "--batch" => do_batch = true,
            "--aggregate" => do_aggregate = true,
            "--loop-file" => loop_file = Some(value()),
            "--gen" => gen_idx = Some(value().parse::<usize>().unwrap_or_else(|_| usage())),
            "--gen-variant" => {
                let v = value();
                let (idx, seed) = v.split_once(':').unwrap_or_else(|| usage());
                gen_variant = Some((
                    idx.parse::<usize>().unwrap_or_else(|_| usage()),
                    seed.parse::<u64>().unwrap_or_else(|_| usage()),
                ));
            }
            "--gen-range" => {
                let v = value();
                let (lo, hi) = v.split_once(':').unwrap_or_else(|| usage());
                let lo: usize = lo.parse().unwrap_or_else(|_| usage());
                let hi: usize = hi.parse().unwrap_or_else(|_| usage());
                if lo >= hi {
                    usage();
                }
                gen_range = Some((lo, hi));
            }
            "--machine" => machine_spec = value(),
            "--config-file" => config_file = Some(value()),
            "--timeout-ms" => timeout_ms = Some(value().parse().unwrap_or_else(|_| usage())),
            "--repeat" => repeat = value().parse().unwrap_or_else(|_| usage()),
            "--parallelism" => {
                parallelism = Some(value().parse::<usize>().unwrap_or_else(|_| usage()))
            }
            "--concurrent" => {
                concurrent = Some(value().parse::<usize>().unwrap_or_else(|_| usage()))
            }
            "--max-retries" => max_retries = value().parse::<u32>().unwrap_or_else(|_| usage()),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }

    if do_aggregate {
        do_stats = true;
    }
    if !(do_ping || do_stats || do_shutdown || do_compile || do_batch || concurrent.is_some()) {
        usage();
    }
    if addr.is_some() == peers.is_some() {
        usage(); // exactly one of --addr / --peers
    }

    let machine =
        machine_from_spec(&machine_spec).unwrap_or_else(|e| fatal(&format!("bad --machine: {e}")));
    let machine_text = vliw_machine::format_machine(&machine);
    let config_text = match &config_file {
        Some(path) => {
            std::fs::read_to_string(path).unwrap_or_else(|e| fatal(&format!("read {path}: {e}")))
        }
        None => format_pipeline_config(&PipelineConfig::default()),
    };
    let request_for = |loop_text: String| CompileRequest {
        loop_text,
        machine_text: machine_text.clone(),
        config_text: config_text.clone(),
    };

    let single_request = || {
        let loop_text = match (&loop_file, gen_idx, gen_variant) {
            (Some(path), None, None) => std::fs::read_to_string(path)
                .unwrap_or_else(|e| fatal(&format!("read {path}: {e}"))),
            (None, Some(idx), None) => corpus_loop_text(idx),
            (None, None, Some((idx, seed))) => corpus_variant_text(idx, seed),
            _ => fatal("--compile needs exactly one of --loop-file, --gen or --gen-variant"),
        };
        request_for(loop_text)
    };
    let batch_requests = || {
        let (lo, hi) = gen_range.unwrap_or_else(|| fatal("--batch needs --gen-range LO:HI"));
        let mut loops = vliw_loopgen::corpus();
        if hi > loops.len() {
            fatal(&format!(
                "--gen-range end {hi} out of range (corpus has {})",
                loops.len()
            ));
        }
        loops
            .drain(lo..hi)
            .map(|l| request_for(vliw_ir::format_loop_full(&l)))
            .collect::<Vec<_>>()
    };
    let print_batch = |results: &[Result<ServedResult, String>]| {
        for (i, res) in results.iter().enumerate() {
            match res {
                Ok(served) => print_served("batch", i, served, None),
                Err(e) => println!("batch[{i}] error: {e}"),
            }
        }
    };

    if let Some(peers) = peers {
        // ---- sharded mode -------------------------------------------------
        let mut sharded = ShardedClient::new(peers);
        if do_ping {
            fatal("--ping targets one server; use --addr");
        }
        if concurrent.is_some() {
            fatal("--concurrent targets one server; use --addr");
        }
        if do_compile {
            let req = single_request();
            for i in 0..repeat.max(1) {
                let (served, peer) = sharded
                    .compile(&req, timeout_ms)
                    .unwrap_or_else(|e| fatal(&e.to_string()));
                print_served("compile", i, &served, Some(&peer));
            }
            println!("failovers={}", sharded.failovers());
        }
        if do_batch {
            let reqs = batch_requests();
            let results = sharded
                .compile_batch(&reqs, timeout_ms, parallelism)
                .unwrap_or_else(|e| fatal(&e.to_string()));
            print_batch(&results);
            println!("failovers={}", sharded.failovers());
        }
        if do_stats {
            let (per_peer, merged) = sharded
                .stats_aggregate()
                .unwrap_or_else(|e| fatal(&e.to_string()));
            for (addr, snap) in &per_peer {
                match snap {
                    Ok(stats) => print_stats_line(&format!("stats[{addr}]"), stats),
                    Err(e) => println!("stats[{addr}] unreachable: {e}"),
                }
            }
            print_stats_line("aggregate", &merged);
            let n = |k: &str| merged.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
            println!(
                "aggregate peers={} reporting={} failovers={}",
                n("peers"),
                n("peers_reporting"),
                n("failovers")
            );
        }
        if do_shutdown {
            let acked = sharded.shutdown_all();
            println!("shutdown acknowledged by {acked} peer(s)");
        }
        return;
    }

    // ---- single-server mode ----------------------------------------------
    let addr = addr.expect("checked above");
    let mut client =
        Client::connect(&addr).unwrap_or_else(|e| fatal(&format!("connect {addr}: {e}")));

    if let Some(n) = concurrent {
        // Hold `n` simultaneous connections and send one request on each;
        // every connection stays open until all have been served, so the
        // server really multiplexes `n` live sockets at once.
        let req = if do_compile {
            Some(single_request())
        } else {
            None
        };
        let mut conns = Vec::with_capacity(n);
        let mut ok = 0u64;
        let mut errors = 0u64;
        for _ in 0..n {
            match Client::connect(&addr) {
                Ok(c) => conns.push(c),
                Err(_) => errors += 1,
            }
        }
        let mut retries = 0u64;
        for c in conns.iter_mut() {
            let sent = match &req {
                Some(req) => c
                    .compile_with_retry(req, timeout_ms, max_retries)
                    .map(|(_, r)| {
                        retries += u64::from(r);
                    }),
                None => c.ping(),
            };
            match sent {
                Ok(()) => ok += 1,
                Err(_) => errors += 1,
            }
        }
        println!("concurrent n={n} ok={ok} errors={errors} retries={retries}");
    }

    if do_ping {
        client.ping().unwrap_or_else(|e| fatal(&e.to_string()));
        println!("pong");
    }

    if do_compile && concurrent.is_none() {
        let req = single_request();
        let mut retries = 0u64;
        for i in 0..repeat.max(1) {
            let (served, r) = client
                .compile_with_retry(&req, timeout_ms, max_retries)
                .unwrap_or_else(|e| fatal(&e.to_string()));
            retries += u64::from(r);
            print_served("compile", i, &served, None);
        }
        println!("retries={retries}");
    }

    if do_batch {
        let reqs = batch_requests();
        let results = client
            .compile_batch(&reqs, timeout_ms, parallelism)
            .unwrap_or_else(|e| fatal(&e.to_string()));
        print_batch(&results);
    }

    if do_stats {
        let stats = client.stats().unwrap_or_else(|e| fatal(&e.to_string()));
        print_stats_line("stats", &stats);
    }

    if do_shutdown {
        client.shutdown().unwrap_or_else(|e| fatal(&e.to_string()));
        println!("shutdown acknowledged");
    }
}
