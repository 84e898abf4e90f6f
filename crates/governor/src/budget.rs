//! The handle solver loops poll: wall-clock deadline + charged memory.
//!
//! Design constraints, in order: (1) `exceeded()` must be cheap enough
//! to call every few hundred search nodes — one relaxed atomic load on
//! the common path; (2) `charge()` must keep the global pool honest
//! without a lock per allocation — it reserves from the pool in
//! [`CHARGE_CHUNK_BYTES`] chunks and burns down the local headroom; (3)
//! exhaustion is *cooperative*: the solver sees `exceeded()` and takes
//! its existing anytime/truncation exit, so a budget trip degrades to a
//! typed partial result rather than an abort.

use crate::pool::Grant;
use crate::GovernorGauges;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Pool-reservation granularity for `charge()`. Large enough that a
/// solver charging per-node cost touches the shared pool rarely; small
/// enough that accounting tracks real usage within ~1 MiB.
pub const CHARGE_CHUNK_BYTES: u64 = 1 << 20;

/// Marker returned by [`TrackedBudget::check`] when the budget is spent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExceeded;

struct BudgetInner {
    deadline: Option<Instant>,
    /// Set once any dimension (time or memory) is exhausted, or when the
    /// server cancels the request. Solvers poll only this.
    cancel: AtomicBool,
    /// Bytes charged by the solver so far.
    mem_used: AtomicU64,
    /// Bytes reserved from the pool (grant size). `mem_used` may run
    /// ahead transiently while a grow is in flight on another thread.
    mem_reserved: AtomicU64,
    grant: Mutex<Grant>,
    gauges: Arc<GovernorGauges>,
}

/// Shared budget handle: clone-cheap, thread-safe. The exact search and
/// every rung of the joint solver's II ladder poll the same budget.
#[derive(Clone)]
pub struct TrackedBudget {
    inner: Arc<BudgetInner>,
}

impl TrackedBudget {
    pub(crate) fn new(
        grant: Grant,
        deadline_ms: u64,
        gauges: Arc<GovernorGauges>,
    ) -> TrackedBudget {
        let reserved = grant.bytes();
        TrackedBudget {
            inner: Arc::new(BudgetInner {
                deadline: (deadline_ms > 0)
                    .then(|| Instant::now() + Duration::from_millis(deadline_ms)),
                cancel: AtomicBool::new(false),
                mem_used: AtomicU64::new(0),
                mem_reserved: AtomicU64::new(reserved),
                grant: Mutex::new(grant),
                gauges,
            }),
        }
    }

    /// Cheap poll: has any budget dimension been exhausted? Suitable for
    /// per-node solver loops. The deadline comparison only runs until
    /// the first trip; after that the flag short-circuits.
    #[inline]
    pub fn exceeded(&self) -> bool {
        if self.inner.cancel.load(Ordering::Relaxed) {
            return true;
        }
        if let Some(d) = self.inner.deadline {
            if Instant::now() >= d {
                self.inner.cancel.store(true, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    /// `Err(BudgetExceeded)` variant of [`exceeded`] for `?`-style exits.
    #[inline]
    pub fn check(&self) -> Result<(), BudgetExceeded> {
        if self.exceeded() {
            Err(BudgetExceeded)
        } else {
            Ok(())
        }
    }

    /// Mark the budget exhausted from outside (server-side cancel).
    pub fn cancel(&self) {
        self.inner.cancel.store(true, Ordering::Relaxed);
    }

    /// Whether a trip has already been *observed* — the deadline latched
    /// by an [`exceeded`] poll, a failed [`charge`], or a [`cancel`].
    /// Unlike `exceeded`, this is a pure read: checking it after a solve
    /// does not arm the deadline retroactively, so a solve that finished
    /// without ever seeing the budget reports untripped even if the
    /// deadline has passed since. The serve tier uses this to decide
    /// whether a truncated result is reproducible (cacheable) or was
    /// shaped by transient server state (never cached).
    pub fn tripped(&self) -> bool {
        self.inner.cancel.load(Ordering::Relaxed)
    }

    /// Charge `bytes` of solver memory against the pool. Grows the
    /// underlying grant in [`CHARGE_CHUNK_BYTES`] chunks; if the pool
    /// cannot cover the growth the budget trips (the *next* `exceeded()`
    /// poll returns true) and `charge` returns false. Callers that
    /// allocated speculatively keep the memory — accounting stays honest
    /// because the reservation only lags by under one chunk.
    pub fn charge(&self, bytes: u64) -> bool {
        let used = self.inner.mem_used.fetch_add(bytes, Ordering::Relaxed) + bytes;
        let reserved = self.inner.mem_reserved.load(Ordering::Relaxed);
        if used <= reserved {
            return true;
        }
        // Slow path: top up the grant to cover `used`, rounded up a chunk.
        let mut grant = self.inner.grant.lock().unwrap();
        let reserved = self.inner.mem_reserved.load(Ordering::Relaxed);
        if used <= reserved {
            return true; // another thread grew it while we waited
        }
        let want = (used - reserved).max(CHARGE_CHUNK_BYTES);
        if grant.grow(want) {
            self.inner
                .mem_reserved
                .store(grant.bytes(), Ordering::Relaxed);
            true
        } else {
            self.inner.cancel.store(true, Ordering::Relaxed);
            false
        }
    }

    /// Release `bytes` previously charged (freed arenas). Keeps the
    /// chunk-rounded reservation; the pool gets it all back on drop.
    pub fn uncharge(&self, bytes: u64) {
        let mut cur = self.inner.mem_used.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(bytes);
            match self.inner.mem_used.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    pub fn mem_used(&self) -> u64 {
        self.inner.mem_used.load(Ordering::Relaxed)
    }

    pub fn mem_reserved(&self) -> u64 {
        self.inner.mem_reserved.load(Ordering::Relaxed)
    }

    /// Remaining wall time, if a deadline was set.
    pub fn remaining(&self) -> Option<Duration> {
        self.inner
            .deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }
}

impl Drop for BudgetInner {
    fn drop(&mut self) {
        self.gauges.inflight_grants.fetch_sub(1, Ordering::Relaxed);
        // The Grant field's own Drop returns the bytes to the pool.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Governor, ShedPolicy};

    #[test]
    fn charge_within_grant_is_cheap_and_true() {
        let g = Governor::new(64 << 20, 1, ShedPolicy::Never);
        let b = g.open_budget(0).unwrap();
        assert!(b.charge(1024));
        assert!(!b.exceeded());
        assert_eq!(b.mem_used(), 1024);
    }

    #[test]
    fn charge_grows_grant_in_chunks() {
        let g = Governor::new(64 << 20, 1, ShedPolicy::Never);
        let b = g.open_budget(0).unwrap();
        let initial = b.mem_reserved();
        assert!(b.charge(initial + 1));
        assert!(b.mem_reserved() > initial);
        assert!(g.pool().used() > initial);
    }

    #[test]
    fn exhausted_pool_trips_budget() {
        // Pool of 2 MiB, heavy capacity under 2 MiB, admission grant 512 KiB.
        let g = Governor::new(2 << 20, 1, ShedPolicy::Never);
        let b = g.open_budget(0).unwrap();
        // Charge far past what the pool can ever cover.
        assert!(!b.charge(64 << 20));
        assert!(b.exceeded());
        assert_eq!(b.check(), Err(BudgetExceeded));
    }

    #[test]
    fn deadline_trips_budget() {
        let g = Governor::new(64 << 20, 1, ShedPolicy::Never);
        let b = g.open_budget(1).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        assert!(b.exceeded());
    }

    #[test]
    fn drop_returns_bytes_to_pool() {
        let g = Governor::new(64 << 20, 1, ShedPolicy::Never);
        let b = g.open_budget(0).unwrap();
        b.charge(4 << 20);
        let b2 = b.clone();
        drop(b);
        assert!(g.pool().used() > 0, "clone still holds the grant");
        drop(b2);
        assert_eq!(g.pool().used(), 0);
    }

    #[test]
    fn cancel_is_sticky() {
        let g = Governor::new(64 << 20, 1, ShedPolicy::Never);
        let b = g.open_budget(0).unwrap();
        assert!(!b.exceeded());
        b.cancel();
        assert!(b.exceeded());
    }
}
