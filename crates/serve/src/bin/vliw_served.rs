//! `vliw-served` — the compile server.
//!
//! ```text
//! vliw-served [--addr HOST:PORT] [--workers N] [--mem-capacity N]
//!             [--cache-dir PATH | --no-disk] [--timeout-ms N]
//!             [--batch-parallelism N] [--max-conns N]
//!             [--idle-timeout-ms N] [--core reactor|threads]
//!             [--mem-budget BYTES] [--heavy-lane-workers N]
//!             [--shed-policy never|depth:N|adaptive]
//! ```
//!
//! Binds (default `127.0.0.1:0`, an ephemeral port), prints
//! `vliw-served listening on ADDR` on stdout, then serves the JSON-lines
//! protocol until a `shutdown` request or SIGTERM/SIGINT arrives. The disk
//! tier defaults to `target/vliw-cache/`.
//!
//! The default core is the event-driven reactor: `--workers` sizes the
//! compile pool (not the connection count — one reactor thread holds every
//! connection), `--max-conns` caps concurrent connections, and
//! `--idle-timeout-ms` evicts idle connections (0 disables; default 5
//! minutes). `--core threads` selects the legacy thread-per-connection
//! core. The server is Linux-only (the reactor waits in `epoll`).
//!
//! The reactor core runs a resource governor (DESIGN.md §15):
//! `--mem-budget` caps solver memory across all in-flight heavy compiles
//! (bytes, with optional `k`/`m`/`g` suffix; default 256m),
//! `--heavy-lane-workers` caps how many pool workers may run heavy
//! (exact/joint) solves at once (0 = half the pool), and `--shed-policy`
//! picks when heavy requests are shed with a typed retryable error:
//! `never`, `depth:N` (queue depth), or `adaptive` (projected wait;
//! default).

use std::sync::OnceLock;
use std::time::Duration;
use vliw_serve::{
    CachedCompiler, DiskStore, Server, ServerConfig, ServerCore, ShedPolicy, ShutdownHandle,
    TieredCache,
};

/// Set once the server is bound; the signal handler signals through it.
/// `ShutdownHandle::signal` is an atomic store plus one `write(2)` on a
/// pre-opened socketpair fd, so it is safe in signal context, and the wake
/// means shutdown needs no bridge thread polling a flag.
static HANDLE: OnceLock<ShutdownHandle> = OnceLock::new();

extern "C" fn on_signal(_sig: i32) {
    if let Some(handle) = HANDLE.get() {
        handle.signal();
    }
}

fn install_signal_handlers() {
    // The container has no libc crate, but every Rust binary links libc;
    // declare the one symbol we need. SIGTERM = 15, SIGINT = 2 on Linux.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    let handler = on_signal as extern "C" fn(i32) as usize;
    unsafe {
        signal(15, handler);
        signal(2, handler);
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: vliw-served [--addr HOST:PORT] [--workers N] [--mem-capacity N]\n\
         \x20                  [--cache-dir PATH | --no-disk] [--timeout-ms N]\n\
         \x20                  [--batch-parallelism N] [--max-conns N]\n\
         \x20                  [--idle-timeout-ms N] [--core reactor|threads]\n\
         \x20                  [--mem-budget BYTES[k|m|g]]\n\
         \x20                  [--heavy-lane-workers N]\n\
         \x20                  [--shed-policy never|depth:N|adaptive]"
    );
    std::process::exit(2);
}

/// Parse a byte count with an optional `k`/`m`/`g` suffix (`64m` = 64 MiB).
fn parse_bytes(s: &str) -> Option<u64> {
    let (digits, shift) = match s.as_bytes().last()? {
        b'k' | b'K' => (&s[..s.len() - 1], 10),
        b'm' | b'M' => (&s[..s.len() - 1], 20),
        b'g' | b'G' => (&s[..s.len() - 1], 30),
        _ => (s, 0),
    };
    digits.parse::<u64>().ok()?.checked_shl(shift)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:0".to_string();
    let mut workers = 4usize;
    let mut mem_capacity = 4096usize;
    let mut cache_dir = Some(DiskStore::default_root());
    let mut timeout_ms = 30_000u64;
    let mut batch_parallelism = 8usize;
    let mut max_conns = 4096usize;
    let mut idle_timeout_ms = 300_000u64; // 5 minutes; 0 disables
    let mut core = ServerCore::Reactor;
    let mut mem_budget = 256u64 << 20;
    let mut heavy_lane_workers = 0usize;
    let mut shed_policy = ShedPolicy::Adaptive;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--addr" => addr = value(),
            "--workers" => workers = value().parse().unwrap_or_else(|_| usage()),
            "--mem-capacity" => mem_capacity = value().parse().unwrap_or_else(|_| usage()),
            "--cache-dir" => cache_dir = Some(value().into()),
            "--no-disk" => cache_dir = None,
            "--timeout-ms" => timeout_ms = value().parse().unwrap_or_else(|_| usage()),
            "--batch-parallelism" => {
                batch_parallelism = value().parse().unwrap_or_else(|_| usage())
            }
            "--max-conns" => max_conns = value().parse().unwrap_or_else(|_| usage()),
            "--idle-timeout-ms" => idle_timeout_ms = value().parse().unwrap_or_else(|_| usage()),
            "--core" => {
                core = match value().as_str() {
                    "reactor" => ServerCore::Reactor,
                    "threads" => ServerCore::ThreadPool,
                    _ => usage(),
                }
            }
            "--mem-budget" => mem_budget = parse_bytes(&value()).unwrap_or_else(|| usage()),
            "--heavy-lane-workers" => {
                heavy_lane_workers = value().parse().unwrap_or_else(|_| usage())
            }
            "--shed-policy" => {
                shed_policy = ShedPolicy::parse(&value()).unwrap_or_else(|e| {
                    eprintln!("vliw-served: {e}");
                    usage()
                })
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }

    let disk = cache_dir.map(DiskStore::new);
    let engine = CachedCompiler::new(TieredCache::new(mem_capacity, disk));
    let server = Server::bind(
        ServerConfig {
            addr,
            workers,
            default_timeout: Duration::from_millis(timeout_ms),
            batch_parallelism,
            core,
            idle_timeout: (idle_timeout_ms > 0).then(|| Duration::from_millis(idle_timeout_ms)),
            max_conns,
            mem_budget,
            heavy_lane_workers,
            shed_policy,
            ..ServerConfig::default()
        },
        engine,
    )
    .unwrap_or_else(|e| {
        eprintln!("vliw-served: bind failed: {e}");
        std::process::exit(1);
    });

    let bound = server.local_addr().expect("bound listener has an address");
    // The smoke tests parse this line to learn the ephemeral port.
    println!("vliw-served listening on {bound}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    let _ = HANDLE.set(server.shutdown_handle());
    install_signal_handlers();

    server.run();
    println!("vliw-served: drained, exiting");
}
