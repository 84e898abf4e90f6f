//! The one budget an exact or joint solve runs under.
//!
//! A [`Budget`] knows three limits and the searches poll all of them
//! through one [`exceeded`](Budget::exceeded):
//!
//! * the solver config's own `budget_ms`, armed by the solver when it
//!   starts ([`start_clock`](Budget::start_clock)). It is part of the
//!   request text and the cache key, so a search it stops is reproducible;
//! * the request deadline ([`with_deadline`](Budget::with_deadline)): ¾ of
//!   the time the request has left, the rest kept for the pipeline after
//!   the partition and for the reply;
//! * the pool grant ([`Governor::open_budget`](crate::Governor::open_budget)),
//!   which [`charge`](Budget::charge) grows in [`CHARGE_CHUNK_BYTES`]
//!   chunks against the server's resource pool.
//!
//! The last two are transient: they depend on the server's state, not on
//! the request text. The budget records which limit stopped the search
//! ([`stopped_by`](Budget::stopped_by)), so the serve tier can tell a
//! reproducible truncation from one it must never cache. A stop is
//! cooperative and sticky: the search sees `exceeded()` and takes its
//! anytime exit, so a budget trip degrades to a typed partial result.

use crate::pool::Grant;
use crate::GovernorGauges;
use std::cell::{Cell, RefCell};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pool-reservation granularity for `charge()`. Large enough that a
/// solver charging per-node cost touches the shared pool rarely; small
/// enough that accounting tracks real usage within ~1 MiB.
pub const CHARGE_CHUNK_BYTES: u64 = 1 << 20;

/// The limit that stopped a search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Limit {
    /// The solver config's `budget_ms`.
    Explicit,
    /// The request deadline.
    Deadline,
    /// A charge the resource pool refused.
    Pool,
}

impl Limit {
    /// Whether the limit comes from server state rather than the request
    /// text: a search it stopped may not be reproduced by the same request.
    pub fn is_transient(self) -> bool {
        self != Limit::Explicit
    }
}

/// A pool grant and the bytes a solve has charged against it.
struct Pooled {
    grant: RefCell<Grant>,
    used: Cell<u64>,
    gauges: Arc<GovernorGauges>,
}

impl Drop for Pooled {
    fn drop(&mut self) {
        self.gauges.inflight_grants.fetch_sub(1, Ordering::Relaxed);
        // The grant's own Drop returns its bytes to the pool.
    }
}

/// The limits of one solve; see the module docs. `Budget::default()` has
/// none, and every searcher of the solve polls the same `&Budget`.
#[derive(Default)]
pub struct Budget {
    explicit: Cell<Option<Instant>>,
    deadline: Option<Instant>,
    pool: Option<Pooled>,
    stop: Cell<Option<Limit>>,
}

impl Budget {
    pub(crate) fn pooled(grant: Grant, gauges: Arc<GovernorGauges>) -> Budget {
        Budget {
            pool: Some(Pooled {
                grant: RefCell::new(grant),
                used: Cell::new(0),
                gauges,
            }),
            ..Budget::default()
        }
    }

    /// Add the request deadline: a request with `left` time to go stops its
    /// search ¾ of `left` from now. `None` adds no deadline.
    pub fn with_deadline(mut self, left: Option<Duration>) -> Budget {
        self.deadline =
            left.and_then(|left| Instant::now().checked_add(left.saturating_mul(3) / 4));
        self
    }

    /// Start the solver config's own clock: the search stops `budget_ms`
    /// from now (`0` = no limit of its own). Each solver calls it once, as
    /// it starts.
    pub fn start_clock(&self, budget_ms: u64) {
        let limit = Duration::from_millis(budget_ms);
        self.explicit.set(
            (budget_ms > 0)
                .then(|| Instant::now().checked_add(limit))
                .flatten(),
        );
    }

    /// Has any limit been reached? Cheap enough to poll every few hundred
    /// search nodes: one read while nothing has stopped the search and no
    /// clock runs, one clock read while one does. The first limit found
    /// reached is recorded and every later poll returns true.
    #[inline]
    pub fn exceeded(&self) -> bool {
        if self.stop.get().is_some() {
            return true;
        }
        let explicit = self.explicit.get();
        if explicit.is_none() && self.deadline.is_none() {
            return false;
        }
        let now = Instant::now();
        let hit = if explicit.is_some_and(|d| now >= d) {
            Limit::Explicit
        } else if self.deadline.is_some_and(|d| now >= d) {
            Limit::Deadline
        } else {
            return false;
        };
        self.stop.set(Some(hit));
        true
    }

    /// The limit that stopped the search, if one did. A pure read: a solve
    /// that finished without seeing a limit reports `None` even if a clock
    /// has run out since.
    pub fn stopped_by(&self) -> Option<Limit> {
        self.stop.get()
    }

    /// Charge `bytes` of solver memory against the pool grant (free
    /// without one). Grows the grant in [`CHARGE_CHUNK_BYTES`] chunks; if
    /// the pool cannot cover the growth the budget stops (the next
    /// `exceeded()` returns true) and `charge` returns false. Callers that
    /// allocated speculatively keep the memory: the reservation lags by
    /// under one chunk.
    pub fn charge(&self, bytes: u64) -> bool {
        let Some(pool) = &self.pool else {
            return true;
        };
        let used = pool.used.get() + bytes;
        pool.used.set(used);
        let mut grant = pool.grant.borrow_mut();
        let reserved = grant.bytes();
        if used <= reserved || grant.grow((used - reserved).max(CHARGE_CHUNK_BYTES)) {
            return true;
        }
        if self.stop.get().is_none() {
            self.stop.set(Some(Limit::Pool));
        }
        false
    }

    /// Release `bytes` previously charged (freed arenas). Keeps the
    /// chunk-rounded reservation; the pool gets it all back on drop.
    pub fn uncharge(&self, bytes: u64) {
        if let Some(pool) = &self.pool {
            pool.used.set(pool.used.get().saturating_sub(bytes));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Governor, Lane, ShedPolicy};

    fn used(b: &Budget) -> u64 {
        b.pool.as_ref().unwrap().used.get()
    }

    fn reserved(b: &Budget) -> u64 {
        b.pool.as_ref().unwrap().grant.borrow().bytes()
    }

    #[test]
    fn charge_within_grant_is_cheap_and_true() {
        let g = Governor::new(64 << 20, 1, ShedPolicy::Never);
        let b = g.open_budget(Lane::Heavy).unwrap();
        assert!(b.charge(1024));
        assert!(!b.exceeded());
        assert_eq!(used(&b), 1024);
    }

    #[test]
    fn charge_grows_grant_in_chunks() {
        let g = Governor::new(64 << 20, 1, ShedPolicy::Never);
        let b = g.open_budget(Lane::Heavy).unwrap();
        let initial = reserved(&b);
        assert!(b.charge(initial + 1));
        assert!(reserved(&b) > initial);
        assert!(g.pool().used() > initial);
    }

    #[test]
    fn exhausted_pool_trips_budget() {
        // Pool of 2 MiB, heavy capacity under 2 MiB, admission grant 512 KiB.
        let g = Governor::new(2 << 20, 1, ShedPolicy::Never);
        let b = g.open_budget(Lane::Heavy).unwrap();
        // Charge far past what the pool can ever cover.
        assert!(!b.charge(64 << 20));
        assert!(b.exceeded());
        assert_eq!(b.stopped_by(), Some(Limit::Pool));
        assert!(Limit::Pool.is_transient(), "a refused charge is transient");
    }

    #[test]
    fn deadline_trips_budget() {
        let b = Budget::default().with_deadline(Some(Duration::ZERO));
        assert!(b.exceeded());
        assert_eq!(b.stopped_by(), Some(Limit::Deadline));
        assert!(
            Limit::Deadline.is_transient(),
            "the request deadline is transient"
        );
        // A request with a minute left keeps ¾ of it for the search.
        let b = Budget::default().with_deadline(Some(Duration::from_secs(60)));
        assert!(!b.exceeded());
        assert_eq!(b.stopped_by(), None);
    }

    #[test]
    fn explicit_budget_trips_and_is_not_transient() {
        let b = Budget::default().with_deadline(Some(Duration::from_secs(60)));
        b.start_clock(1);
        std::thread::sleep(Duration::from_millis(5));
        assert!(b.exceeded());
        assert_eq!(b.stopped_by(), Some(Limit::Explicit));
        assert!(!Limit::Explicit.is_transient());
    }

    #[test]
    fn no_limit_never_trips() {
        let b = Budget::default();
        b.start_clock(0);
        assert!(b.charge(u64::MAX / 2), "no grant, nothing to refuse");
        assert!(!b.exceeded());
        assert_eq!(b.stopped_by(), None);
    }

    #[test]
    fn the_first_limit_reached_is_the_one_recorded() {
        let g = Governor::new(2 << 20, 1, ShedPolicy::Never);
        let b = g
            .open_budget(Lane::Heavy)
            .unwrap()
            .with_deadline(Some(Duration::ZERO));
        assert!(b.exceeded());
        assert!(!b.charge(64 << 20));
        assert_eq!(b.stopped_by(), Some(Limit::Deadline));
    }

    #[test]
    fn drop_returns_bytes_to_pool() {
        let g = Governor::new(64 << 20, 1, ShedPolicy::Never);
        let b = g.open_budget(Lane::Heavy).unwrap();
        b.charge(4 << 20);
        b.uncharge(4 << 20);
        assert_eq!(used(&b), 0);
        assert!(g.pool().used() > 0, "uncharge keeps the reservation");
        drop(b);
        assert_eq!(g.pool().used(), 0);
    }

    #[test]
    fn a_trip_is_sticky() {
        let g = Governor::new(2 << 20, 1, ShedPolicy::Never);
        let b = g.open_budget(Lane::Heavy).unwrap();
        assert!(!b.exceeded());
        assert!(!b.charge(64 << 20));
        b.uncharge(64 << 20);
        assert!(b.exceeded(), "returning the bytes does not undo the stop");
        assert!(b.exceeded());
    }
}
