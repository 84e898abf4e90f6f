//! # vliw-serve — a batched, content-cached compilation service
//!
//! Turns the paper pipeline into a long-running service: requests carry the
//! full input set (loop, machine, configuration) as canonical text, results
//! carry the full artifact set of [`vliw_pipeline::LoopResult`], and a
//! deterministic content hash over the canonical request encoding keys a
//! two-tier cache (sharded in-memory LRU over an on-disk content-addressed
//! store under `target/vliw-cache/`).
//!
//! * [`envelope`] — request/result envelopes, canonicalisation, cache key;
//! * [`hash`] — hand-rolled SHA-256 (offline container, no crypto crate);
//! * [`json`] — minimal JSON value/parser/writer (the build is offline and
//!   has no serialisation crate);
//! * [`cache`] — the two tiers and their composition; each entry holds a
//!   result and its rendered envelope;
//! * [`compile`] — [`compile::CachedCompiler`], the cache plus in-flight
//!   dedup of concurrent identical requests;
//! * [`stats`] — hit/miss/eviction counters and latency percentiles;
//! * [`server`] / [`client`] — JSON-lines protocol over TCP, server
//!   (`vliw-served`) and client CLI (`vliw-client`), including the
//!   `compile_batch` op (N requests, one wire round trip);
//! * [`sys`] / [`reactor`] — the event-driven serving core: a libc-free
//!   epoll readiness facility (Linux-only) and the reactor that multiplexes
//!   every connection on one thread while a worker pool runs the compiles;
//! * [`hist`] — lock-free log-linear latency histograms whose buckets are
//!   additive, so sharded stats merge into honest percentiles;
//! * [`ring`] / [`shard`] — consistent-hash routing over multiple peers
//!   with failover to ring successors and aggregated stats.
//!
//! The `repro` binary (moved here from `vliw-pipeline` so it can see the
//! cache) accepts `--cache` to route every experiment's per-loop compile
//! through a process-local [`compile::CachedCompiler`].

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod compile;
mod conn;
pub mod envelope;
pub mod hash;
pub mod hist;
pub mod json;
pub mod reactor;
pub mod ring;
pub mod server;
pub mod shard;
pub mod stats;
pub mod sys;

pub use cache::{Cached, DiskStore, MemCache, TieredCache};
pub use client::{Client, ClientError, ServedResult};
pub use compile::{CachedCompiler, CompileError, Source};
pub use envelope::{CacheKey, CompileRequest, CompileResult, RequestError, CACHE_FORMAT_VERSION};
pub use hash::sha256_hex;
pub use json::{parse_json, Json, JsonParseError};
pub use ring::{HashRing, VNODES_PER_PEER};
pub use server::{ServeOptions, Server, ServerConfig, ShutdownHandle, AGGREGATE_SUM_FIELDS};
pub use shard::{PeerStats, ShardedClient};
pub use stats::{StatsRegistry, StatsSnapshot};

// Governance types the server front-end (and embedders) configure:
// admission policy and the lane/budget machinery live in `vliw-governor`.
pub use vliw_governor::{Governor, Lane, ShedPolicy};

// The witness type that maps results between a caller's register/op names
// and the alpha-canonical space the semantic cache entries live in.
pub use vliw_normal::Witness;
