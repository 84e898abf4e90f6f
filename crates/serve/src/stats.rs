//! Service counters and latency percentiles.
//!
//! Counters are relaxed atomics — they are monotone event tallies, so no
//! ordering is needed. Latencies go into lock-free log-linear histograms
//! ([`crate::hist::Hist`]): the hot path is one `fetch_add`, percentiles
//! are computed from bucket counts at snapshot time, and bucket counts are
//! additive so the sharded aggregate view can merge peers into one honest
//! distribution instead of taking the worst peer's percentile.
//!
//! The reactor splits each request's wall time into **queue wait** (from
//! the moment the parsed request is handed to the compile worker pool
//! until a worker picks it up) and **service time** (cache probe or
//! pipeline execution plus response rendering). Queue wait rising while
//! service time stays flat is the signature of an under-provisioned worker
//! pool; both rising together means the compiles themselves got slower.

use crate::hist::Hist;
use std::sync::atomic::{AtomicU64, Ordering};

/// Shared counters for one cache/server instance.
#[derive(Default)]
pub struct StatsRegistry {
    mem_hits: AtomicU64,
    disk_hits: AtomicU64,
    canon_hits: AtomicU64,
    misses: AtomicU64,
    compiles: AtomicU64,
    dedup_waits: AtomicU64,
    timeouts: AtomicU64,
    joint_truncated: AtomicU64,
    exact_truncated: AtomicU64,
    errors: AtomicU64,
    batches: AtomicU64,
    accepts: AtomicU64,
    conns_rejected: AtomicU64,
    idle_closed: AtomicU64,
    oversize_closed: AtomicU64,
    /// Request service time (cache probe / compile + render), microseconds.
    latency_us: Hist,
    /// Time a job waited in the worker queue before pickup, microseconds.
    queue_us: Hist,
}

/// A point-in-time copy of the counters plus latency percentiles.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Memory-tier cache hits.
    pub mem_hits: u64,
    /// Disk-tier cache hits (served after a memory miss).
    pub disk_hits: u64,
    /// Semantic (alpha-equivalence) hits: the exact key missed but the
    /// canonical form's key held an alias entry, so an isomorphic variant
    /// of a cached loop was served without compiling. Each one is also
    /// counted as a mem/disk hit by the tier that held the alias.
    pub canon_hits: u64,
    /// Full misses (required a pipeline execution or a wait on one).
    pub misses: u64,
    /// Pipeline executions actually performed.
    pub compiles: u64,
    /// Requests that waited on an identical in-flight compile instead of
    /// executing their own.
    pub dedup_waits: u64,
    /// Requests whose deadline expired while they waited on an identical
    /// compile that another request was running. A request's own compile
    /// never times out.
    pub timeouts: u64,
    /// Joint-partitioner compiles whose search was budget-truncated: the
    /// response carried the greedy incumbent with `optimal: false` and a
    /// proven `lower_bound_ii` instead of timing out.
    pub joint_truncated: u64,
    /// Exact-partitioner compiles whose search did not close (deadline,
    /// explicit budget or a tripped resource pool): the response carried
    /// the best partition found with `optimal: false`.
    pub exact_truncated: u64,
    /// Malformed or failed requests.
    pub errors: u64,
    /// `compile_batch` requests served (each carries many entries).
    pub batches: u64,
    /// Connections accepted over the server's lifetime.
    pub accepts: u64,
    /// Connections refused at the `max_conns` cap.
    pub conns_rejected: u64,
    /// Connections closed by the idle-timeout sweep (slowloris defense).
    pub idle_closed: u64,
    /// Connections closed for exceeding the request-line length cap.
    pub oversize_closed: u64,
    /// Number of service-latency samples recorded.
    pub samples: u64,
    /// 50th-percentile service time, microseconds.
    pub p50_us: u64,
    /// 90th-percentile service time, microseconds.
    pub p90_us: u64,
    /// 99th-percentile service time, microseconds.
    pub p99_us: u64,
    /// Number of queue-wait samples recorded.
    pub queue_samples: u64,
    /// 50th-percentile worker-queue wait, microseconds.
    pub queue_p50_us: u64,
    /// 99th-percentile worker-queue wait, microseconds.
    pub queue_p99_us: u64,
    /// Sparse `(bucket, count)` service-time histogram (see [`crate::hist`]).
    /// Shipped on the stats wire so the sharded aggregator can sum peers'
    /// distributions and report honest fleet-wide percentiles.
    pub latency_hist: Vec<(u32, u64)>,
    /// Sparse `(bucket, count)` worker-queue-wait histogram.
    pub queue_hist: Vec<(u32, u64)>,
}

impl StatsRegistry {
    /// Fresh zeroed registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a memory-tier hit.
    pub fn mem_hit(&self) {
        self.mem_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a disk-tier hit.
    pub fn disk_hit(&self) {
        self.disk_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a semantic (canonical-form alias) hit.
    pub fn canon_hit(&self) {
        self.canon_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a full miss.
    pub fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Record an actual pipeline execution.
    pub fn compile(&self) {
        self.compiles.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a request that piggybacked on an in-flight identical compile.
    pub fn dedup_wait(&self) {
        self.dedup_waits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a request deadline expiry.
    pub fn timeout(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a budget-truncated joint compile (anytime path taken).
    pub fn joint_truncated(&self) {
        self.joint_truncated.fetch_add(1, Ordering::Relaxed);
    }

    /// Record an exact compile whose search did not close.
    pub fn exact_truncated(&self) {
        self.exact_truncated.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a malformed or failed request.
    pub fn error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one served `compile_batch` request.
    pub fn batch(&self) {
        self.batches.fetch_add(1, Ordering::Relaxed);
    }

    /// Record an accepted connection.
    pub fn accept(&self) {
        self.accepts.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a connection refused at the `max_conns` cap.
    pub fn conn_rejected(&self) {
        self.conns_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a connection closed by the idle-timeout sweep.
    pub fn idle_close(&self) {
        self.idle_closed.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a connection closed for an oversized request line.
    pub fn oversize_close(&self) {
        self.oversize_closed.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one request's service time.
    pub fn observe_latency_us(&self, us: u64) {
        self.latency_us.record(us);
    }

    /// Record one job's worker-queue wait.
    pub fn observe_queue_us(&self, us: u64) {
        self.queue_us.record(us);
    }

    /// Copy out the counters and compute percentiles.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            mem_hits: self.mem_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            canon_hits: self.canon_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            compiles: self.compiles.load(Ordering::Relaxed),
            dedup_waits: self.dedup_waits.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            joint_truncated: self.joint_truncated.load(Ordering::Relaxed),
            exact_truncated: self.exact_truncated.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            accepts: self.accepts.load(Ordering::Relaxed),
            conns_rejected: self.conns_rejected.load(Ordering::Relaxed),
            idle_closed: self.idle_closed.load(Ordering::Relaxed),
            oversize_closed: self.oversize_closed.load(Ordering::Relaxed),
            samples: self.latency_us.count(),
            p50_us: self.latency_us.percentile(0.50),
            p90_us: self.latency_us.percentile(0.90),
            p99_us: self.latency_us.percentile(0.99),
            queue_samples: self.queue_us.count(),
            queue_p50_us: self.queue_us.percentile(0.50),
            queue_p99_us: self.queue_us.percentile(0.99),
            latency_hist: self.latency_us.sparse(),
            queue_hist: self.queue_us.sparse(),
        }
    }
}

impl StatsSnapshot {
    /// Total cache hits across both tiers.
    pub fn hits(&self) -> u64 {
        self.mem_hits + self.disk_hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = StatsRegistry::new();
        s.mem_hit();
        s.mem_hit();
        s.disk_hit();
        s.canon_hit();
        s.miss();
        s.compile();
        s.dedup_wait();
        s.timeout();
        s.joint_truncated();
        s.exact_truncated();
        s.error();
        s.batch();
        s.accept();
        s.conn_rejected();
        s.idle_close();
        s.oversize_close();
        let snap = s.snapshot();
        assert_eq!(snap.mem_hits, 2);
        assert_eq!(snap.disk_hits, 1);
        assert_eq!(snap.hits(), 3);
        assert_eq!(snap.canon_hits, 1);
        assert_eq!(snap.misses, 1);
        assert_eq!(snap.compiles, 1);
        assert_eq!(snap.dedup_waits, 1);
        assert_eq!(snap.timeouts, 1);
        assert_eq!(snap.joint_truncated, 1);
        assert_eq!(snap.exact_truncated, 1);
        assert_eq!(snap.errors, 1);
        assert_eq!(snap.batches, 1);
        assert_eq!(snap.accepts, 1);
        assert_eq!(snap.conns_rejected, 1);
        assert_eq!(snap.idle_closed, 1);
        assert_eq!(snap.oversize_closed, 1);
    }

    #[test]
    fn exact_and_joint_truncations_count_apart() {
        let s = StatsRegistry::new();
        s.exact_truncated();
        s.exact_truncated();
        s.joint_truncated();
        let snap = s.snapshot();
        assert_eq!((snap.exact_truncated, snap.joint_truncated), (2, 1));
    }

    #[test]
    fn percentiles_over_known_distribution() {
        let s = StatsRegistry::new();
        for us in 1..=100 {
            s.observe_latency_us(us);
        }
        let snap = s.snapshot();
        assert_eq!(snap.samples, 100);
        assert!((49..=51).contains(&snap.p50_us), "p50={}", snap.p50_us);
        assert!((89..=91).contains(&snap.p90_us), "p90={}", snap.p90_us);
        assert!((98..=100).contains(&snap.p99_us), "p99={}", snap.p99_us);
    }

    #[test]
    fn queue_wait_is_tracked_separately_from_service_time() {
        let s = StatsRegistry::new();
        for _ in 0..100 {
            s.observe_latency_us(10);
            s.observe_queue_us(10_000);
        }
        let snap = s.snapshot();
        assert_eq!(snap.samples, 100);
        assert_eq!(snap.queue_samples, 100);
        assert_eq!(snap.p50_us, 10, "service stays flat");
        assert!(
            snap.queue_p50_us > 9_000,
            "queue wait visible on its own axis: {}",
            snap.queue_p50_us
        );
    }

    #[test]
    fn empty_registry_yields_zero_percentiles() {
        let snap = StatsRegistry::new().snapshot();
        assert_eq!((snap.p50_us, snap.p99_us, snap.samples), (0, 0, 0));
        assert_eq!((snap.queue_p50_us, snap.queue_samples), (0, 0));
    }
}
