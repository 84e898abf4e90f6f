//! Resource governance for the serve tier: budgeted memory pools,
//! per-client fair-share admission, and interactive/heavy lane isolation
//! with typed load shedding (DESIGN.md §15).
//!
//! This crate is a dependency *leaf*: the solvers (`vliw-exact`,
//! `vliw-joint`) poll one [`Budget`] from their search loops, and the
//! serve tier asks [`solve_lane`] which lane a decoded cache miss belongs
//! on, then builds a [`Governor`] that admits heavy misses to their lane
//! and opens pool grants for solves under a global [`ResourcePool`].
//! Nothing here knows about sockets, JSON, or schedules — it is pure
//! accounting and queueing policy on primitives, which keeps it
//! unit-testable without a server.

mod budget;
mod fair;
mod lanes;
mod pool;

pub use budget::{Budget, Limit, CHARGE_CHUNK_BYTES};
pub use fair::DwrrQueue;
pub use lanes::{solve_lane, Lane, HEAVY_VREG_THRESHOLD};
pub use pool::{Grant, PoolError, ResourcePool};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// When to shed heavy work at admission. Interactive work is *never*
/// shed: its per-request footprint is bounded (cache probes and greedy
/// compiles), so the pool reserves headroom for it instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Queue everything; only pool exhaustion mid-solve truncates work.
    Never,
    /// Shed heavies once the heavy lane holds this many queued requests.
    Depth(usize),
    /// Shed heavies when the *projected* queue wait (heavy depth ×
    /// observed mean heavy service time / heavy workers) exceeds
    /// [`ADAPTIVE_WAIT_LIMIT`], or when the pool cannot grant admission
    /// memory. This is the queue-wait-vs-service-time split from the
    /// stats histograms applied as an admission signal.
    Adaptive,
}

/// Projected-wait ceiling for [`ShedPolicy::Adaptive`].
pub const ADAPTIVE_WAIT_LIMIT: Duration = Duration::from_millis(2_000);

impl ShedPolicy {
    /// Parse the `--shed-policy` flag grammar: `never`, `depth:N`,
    /// `adaptive`.
    pub fn parse(s: &str) -> Result<ShedPolicy, String> {
        match s {
            "never" => Ok(ShedPolicy::Never),
            "adaptive" => Ok(ShedPolicy::Adaptive),
            _ => {
                if let Some(n) = s.strip_prefix("depth:") {
                    n.parse::<usize>()
                        .map(ShedPolicy::Depth)
                        .map_err(|_| format!("bad depth in shed policy {s:?}"))
                } else {
                    Err(format!(
                        "unknown shed policy {s:?} (expected never, depth:N, or adaptive)"
                    ))
                }
            }
        }
    }
}

/// The admission verdict for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    Admit,
    /// Transient overload: the client should back off and retry.
    Shed {
        retry_after_ms: u64,
    },
}

/// Live gauges and counters the `stats` endpoint exposes. Everything is
/// a relaxed atomic: readers tolerate slight staleness, writers are on
/// the hot path.
#[derive(Debug, Default)]
pub struct GovernorGauges {
    pub queue_depth_interactive: AtomicU64,
    pub queue_depth_heavy: AtomicU64,
    pub inflight_grants: AtomicU64,
    pub sheds: AtomicU64,
    pub rejects: AtomicU64,
    /// Mean heavy-lane service time, EWMA in microseconds (α = 1/8).
    heavy_service_ewma_us: AtomicU64,
}

impl GovernorGauges {
    pub fn observe_heavy_service(&self, service: Duration) {
        let us = service.as_micros().min(u128::from(u64::MAX)) as u64;
        // Racy read-modify-write is fine: the EWMA is a shed heuristic,
        // not an invariant.
        let old = self.heavy_service_ewma_us.load(Ordering::Relaxed);
        let new = if old == 0 { us } else { old - old / 8 + us / 8 };
        self.heavy_service_ewma_us
            .store(new.max(1), Ordering::Relaxed);
    }

    pub fn heavy_service_ewma(&self) -> Duration {
        Duration::from_micros(self.heavy_service_ewma_us.load(Ordering::Relaxed))
    }
}

/// Central governor: one per server process. Combines the byte pool and
/// the shed policy: a worker consults it to admit a miss that [`solve_lane`]
/// makes heavy to the heavy lane, and to open the pool grant of a solve.
pub struct Governor {
    pool: ResourcePool,
    policy: ShedPolicy,
    heavy_workers: usize,
    gauges: Arc<GovernorGauges>,
    /// Admission-time memory charge per heavy request: the grant the
    /// solver's [`Budget`] starts from (it can grow later).
    heavy_admission_bytes: u64,
}

/// Default per-heavy-request admission grant: 1 MiB, grown on demand.
pub const HEAVY_ADMISSION_BYTES: u64 = 1 << 20;

/// Default per-interactive-request admission grant: small (interactive
/// exact/joint instances sit under the vreg threshold), drawn against the
/// full pool including the interactive reserve, grown on demand.
pub const INTERACTIVE_ADMISSION_BYTES: u64 = 256 << 10;

impl Governor {
    pub fn new(mem_budget: u64, heavy_workers: usize, policy: ShedPolicy) -> Governor {
        Governor {
            pool: ResourcePool::new(mem_budget),
            policy,
            heavy_workers: heavy_workers.max(1),
            gauges: Arc::new(GovernorGauges::default()),
            heavy_admission_bytes: HEAVY_ADMISSION_BYTES.min(mem_budget / 4).max(1),
        }
    }

    pub fn gauges(&self) -> &Arc<GovernorGauges> {
        &self.gauges
    }

    pub fn pool(&self) -> &ResourcePool {
        &self.pool
    }

    pub fn policy(&self) -> ShedPolicy {
        self.policy
    }

    pub fn heavy_workers(&self) -> usize {
        self.heavy_workers
    }

    /// Record a job's observed service time. Only heavy-lane runs count:
    /// they feed the heavy-service EWMA the adaptive policy projects waits
    /// from.
    pub fn observe_service(&self, lane: Lane, service: Duration) {
        if lane == Lane::Heavy {
            self.gauges.observe_heavy_service(service);
        }
    }

    /// Decide admission for one request. `heavy_depth` is the current
    /// heavy-lane queue depth (the caller owns the queues; the governor
    /// owns the policy).
    pub fn admit(&self, lane: Lane, heavy_depth: usize) -> Admission {
        if lane == Lane::Interactive {
            // Interactive work is always admitted: the pool keeps a
            // reserve for it (see ResourcePool::grant) and its footprint
            // is bounded, so shedding it would only add latency.
            return Admission::Admit;
        }
        let verdict = match self.policy {
            ShedPolicy::Never => Admission::Admit,
            ShedPolicy::Depth(limit) => {
                if heavy_depth >= limit {
                    Admission::Shed {
                        retry_after_ms: self.retry_after(heavy_depth),
                    }
                } else {
                    Admission::Admit
                }
            }
            ShedPolicy::Adaptive => {
                let wait = self.projected_wait(heavy_depth);
                if wait > ADAPTIVE_WAIT_LIMIT
                    || !self.pool.can_grant_heavy(self.heavy_admission_bytes)
                {
                    Admission::Shed {
                        retry_after_ms: self.retry_after(heavy_depth),
                    }
                } else {
                    Admission::Admit
                }
            }
        };
        if verdict != Admission::Admit {
            self.gauges.sheds.fetch_add(1, Ordering::Relaxed);
        }
        verdict
    }

    /// Projected queue wait for a newly-arrived heavy request.
    fn projected_wait(&self, heavy_depth: usize) -> Duration {
        let ewma = self.gauges.heavy_service_ewma();
        let per_worker = heavy_depth / self.heavy_workers + 1;
        ewma.saturating_mul(per_worker as u32)
    }

    /// Retry hint: roughly the projected wait, clamped to a sane window
    /// so clients neither hammer nor stall.
    fn retry_after(&self, heavy_depth: usize) -> u64 {
        let wait = self.projected_wait(heavy_depth).as_millis() as u64;
        wait.clamp(25, 5_000)
    }

    /// Open the pool side of a solve's [`Budget`], on the lane
    /// [`solve_lane`] gave it. A heavy solve's grant starts from the
    /// admission grant and draws on the heavy share of the pool; an
    /// interactive solve (an exact or joint instance under the vreg
    /// threshold) gets a small grant that may draw on the *full* pool,
    /// including the interactive reserve, so it succeeds even while heavy
    /// grants occupy their whole share. Either grows on demand, which keeps
    /// `--mem-budget` a hard cap on solver memory for every lane. A heavy
    /// ask past the heavy share is rejected; otherwise a full pool sheds.
    pub fn open_budget(&self, lane: Lane) -> Result<Budget, PoolError> {
        let grant = match lane {
            Lane::Heavy => self.pool.grant_heavy(self.heavy_admission_bytes),
            Lane::Interactive => self.pool.grant_interactive(
                INTERACTIVE_ADMISSION_BYTES
                    .min(self.pool.limit() / 4)
                    .max(1),
            ),
        };
        let grant = grant.inspect_err(|e| {
            match e {
                PoolError::Shed { .. } => self.gauges.sheds.fetch_add(1, Ordering::Relaxed),
                PoolError::Rejected => self.gauges.rejects.fetch_add(1, Ordering::Relaxed),
            };
        })?;
        self.gauges.inflight_grants.fetch_add(1, Ordering::Relaxed);
        Ok(Budget::pooled(grant, Arc::clone(&self.gauges)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shed_policy_grammar() {
        assert_eq!(ShedPolicy::parse("never").unwrap(), ShedPolicy::Never);
        assert_eq!(ShedPolicy::parse("adaptive").unwrap(), ShedPolicy::Adaptive);
        assert_eq!(ShedPolicy::parse("depth:8").unwrap(), ShedPolicy::Depth(8));
        assert!(ShedPolicy::parse("depth:x").is_err());
        assert!(ShedPolicy::parse("sometimes").is_err());
    }

    #[test]
    fn interactive_is_always_admitted() {
        let g = Governor::new(1 << 20, 1, ShedPolicy::Depth(0));
        assert_eq!(g.admit(Lane::Interactive, 10_000), Admission::Admit);
        // Heavy at depth 0 with Depth(0) policy sheds immediately.
        assert!(matches!(g.admit(Lane::Heavy, 0), Admission::Shed { .. }));
        assert_eq!(g.gauges().sheds.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn depth_policy_sheds_past_limit() {
        let g = Governor::new(64 << 20, 2, ShedPolicy::Depth(4));
        assert_eq!(g.admit(Lane::Heavy, 3), Admission::Admit);
        let v = g.admit(Lane::Heavy, 4);
        match v {
            Admission::Shed { retry_after_ms } => {
                assert!((25..=5_000).contains(&retry_after_ms));
            }
            other => panic!("expected shed, got {other:?}"),
        }
    }

    #[test]
    fn adaptive_sheds_on_projected_wait() {
        let g = Governor::new(64 << 20, 1, ShedPolicy::Adaptive);
        // Teach the EWMA that heavies take ~1s each.
        for _ in 0..16 {
            g.gauges().observe_heavy_service(Duration::from_secs(1));
        }
        assert_eq!(g.admit(Lane::Heavy, 0), Admission::Admit);
        assert!(matches!(g.admit(Lane::Heavy, 10), Admission::Shed { .. }));
    }

    #[test]
    fn adaptive_sheds_when_pool_full() {
        let g = Governor::new(2 << 20, 4, ShedPolicy::Adaptive);
        // Hold grants covering everything the heavy side may use.
        let _held = g.pool().grant_heavy(g.pool().heavy_capacity()).unwrap();
        assert!(matches!(g.admit(Lane::Heavy, 0), Admission::Shed { .. }));
        // Interactive still fine.
        assert_eq!(g.admit(Lane::Interactive, 0), Admission::Admit);
    }

    #[test]
    fn interactive_budget_draws_on_the_reserve() {
        let g = Governor::new(8 << 20, 1, ShedPolicy::Never);
        // Heavy grants occupy their entire share of the pool.
        let _held = g.pool().grant_heavy(g.pool().heavy_capacity()).unwrap();
        assert!(matches!(
            g.open_budget(Lane::Heavy),
            Err(PoolError::Shed { .. })
        ));
        // An interactive compile still gets a pool budget (the reserve
        // exists precisely so it can), and it is real accounting: charges
        // past the pool limit trip it.
        let b = g.open_budget(Lane::Interactive).unwrap();
        assert_eq!(g.gauges().inflight_grants.load(Ordering::Relaxed), 1);
        assert!(!b.charge(64 << 20), "charge past the pool limit refused");
        assert!(b.exceeded());
        drop(b);
        assert_eq!(g.gauges().inflight_grants.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn open_budget_tracks_inflight_gauge() {
        let g = Governor::new(64 << 20, 2, ShedPolicy::Never);
        let b = g.open_budget(Lane::Heavy).unwrap();
        assert_eq!(g.gauges().inflight_grants.load(Ordering::Relaxed), 1);
        drop(b);
        assert_eq!(g.gauges().inflight_grants.load(Ordering::Relaxed), 0);
        assert_eq!(g.pool().used(), 0);
    }
}
