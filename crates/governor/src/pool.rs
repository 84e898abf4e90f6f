//! Global byte pool with RAII grants and an interactive reserve.
//!
//! The design follows the budgeted-pool shape from query engines: one
//! process-wide limit, cheap atomic accounting, and consumers that hold
//! a [`Grant`] for as long as the bytes are live. Heavy consumers may
//! only occupy the pool up to `limit − reserve`, so interactive work can
//! always make progress — that carve-out is what lets the serve tier
//! promise "zero interactive sheds" as a contract rather than a hope.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Fraction of the pool reserved for interactive work (denominator; the
/// reserve is `limit / INTERACTIVE_RESERVE_DIV`).
const INTERACTIVE_RESERVE_DIV: u64 = 8;

/// Typed admission/accounting failures. Distinct from malformed input:
/// a `Shed` is the server saying "correct request, wrong moment".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolError {
    /// Transient: the pool is momentarily full. Retry after the hint.
    Shed { retry_after_ms: u64 },
    /// Permanent: the request can never fit (single ask exceeds the
    /// heavy capacity outright).
    Rejected,
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::Shed { retry_after_ms } => {
                write!(f, "overloaded, retry after {retry_after_ms} ms")
            }
            PoolError::Rejected => write!(f, "request exceeds server resource limits"),
        }
    }
}

struct PoolInner {
    limit: u64,
    reserve: u64,
    used: AtomicU64,
}

/// Process-wide byte budget. Cloning shares the same accounting.
#[derive(Clone)]
pub struct ResourcePool {
    inner: Arc<PoolInner>,
}

impl ResourcePool {
    pub fn new(limit: u64) -> ResourcePool {
        let limit = limit.max(1);
        ResourcePool {
            inner: Arc::new(PoolInner {
                limit,
                reserve: (limit / INTERACTIVE_RESERVE_DIV).max(1),
                used: AtomicU64::new(0),
            }),
        }
    }

    pub fn limit(&self) -> u64 {
        self.inner.limit
    }

    /// Bytes currently granted out.
    pub fn used(&self) -> u64 {
        self.inner.used.load(Ordering::Relaxed)
    }

    /// The ceiling heavy grants may occupy (limit minus the interactive
    /// reserve).
    pub fn heavy_capacity(&self) -> u64 {
        self.inner.limit - self.inner.reserve
    }

    /// Would a heavy grant of `bytes` succeed right now? (Advisory: the
    /// answer can change before a subsequent `grant_heavy`.)
    pub fn can_grant_heavy(&self, bytes: u64) -> bool {
        bytes <= self.heavy_capacity() && self.used().saturating_add(bytes) <= self.heavy_capacity()
    }

    /// Grant `bytes` against the heavy share of the pool.
    pub fn grant_heavy(&self, bytes: u64) -> Result<Grant, PoolError> {
        if bytes > self.heavy_capacity() {
            return Err(PoolError::Rejected);
        }
        self.reserve_up_to(bytes, self.heavy_capacity())
    }

    /// Grant `bytes` with access to the full pool including the
    /// interactive reserve. Only shedding is possible (never rejection):
    /// interactive asks are bounded small by construction.
    pub fn grant_interactive(&self, bytes: u64) -> Result<Grant, PoolError> {
        self.reserve_up_to(bytes, self.inner.limit)
    }

    fn reserve_up_to(&self, bytes: u64, ceiling: u64) -> Result<Grant, PoolError> {
        if !self.reserve(bytes, ceiling) {
            return Err(PoolError::Shed {
                retry_after_ms: 100,
            });
        }
        Ok(Grant {
            pool: self.clone(),
            bytes,
            ceiling,
        })
    }

    /// Add `bytes` to the pool's use if that keeps it within `ceiling`.
    fn reserve(&self, bytes: u64, ceiling: u64) -> bool {
        self.inner
            .used
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                Some(cur.saturating_add(bytes)).filter(|&next| next <= ceiling)
            })
            .is_ok()
    }

    fn release(&self, bytes: u64) {
        let prev = self.inner.used.fetch_sub(bytes, Ordering::Relaxed);
        debug_assert!(prev >= bytes, "pool release underflow");
    }
}

/// RAII hold on pool bytes. Dropping returns them.
pub struct Grant {
    pool: ResourcePool,
    bytes: u64,
    ceiling: u64,
}

impl fmt::Debug for Grant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Grant")
            .field("bytes", &self.bytes)
            .field("ceiling", &self.ceiling)
            .finish()
    }
}

impl Grant {
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Try to grow this grant by `extra` bytes under the same ceiling it
    /// was opened with. Returns false (leaving the grant unchanged) if
    /// the pool cannot cover it.
    pub fn grow(&mut self, extra: u64) -> bool {
        let grown = self.pool.reserve(extra, self.ceiling);
        if grown {
            self.bytes += extra;
        }
        grown
    }

    /// Return `give` bytes early (e.g. a solver phase finished and freed
    /// its arenas).
    pub fn shrink(&mut self, give: u64) {
        let give = give.min(self.bytes);
        self.bytes -= give;
        self.pool.release(give);
    }
}

impl Drop for Grant {
    fn drop(&mut self) {
        self.pool.release(self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_account_and_release() {
        let p = ResourcePool::new(1000);
        let g = p.grant_heavy(100).unwrap();
        assert_eq!(p.used(), 100);
        drop(g);
        assert_eq!(p.used(), 0);
    }

    #[test]
    fn heavy_cannot_touch_reserve() {
        let p = ResourcePool::new(800);
        // reserve = 100, heavy capacity = 700
        assert_eq!(p.heavy_capacity(), 700);
        let _g = p.grant_heavy(700).unwrap();
        assert!(matches!(p.grant_heavy(1), Err(PoolError::Shed { .. })));
        // Interactive can still use the reserve.
        let i = p.grant_interactive(100).unwrap();
        assert_eq!(p.used(), 800);
        drop(i);
    }

    #[test]
    fn oversized_ask_is_rejected_not_shed() {
        let p = ResourcePool::new(800);
        assert_eq!(p.grant_heavy(701).unwrap_err(), PoolError::Rejected);
    }

    #[test]
    fn grow_and_shrink() {
        let p = ResourcePool::new(1000);
        let mut g = p.grant_heavy(100).unwrap();
        assert!(g.grow(200));
        assert_eq!(p.used(), 300);
        assert_eq!(g.bytes(), 300);
        // Heavy ceiling is 875; growing past it fails and changes nothing.
        assert!(!g.grow(10_000));
        assert_eq!(p.used(), 300);
        g.shrink(250);
        assert_eq!(p.used(), 50);
        drop(g);
        assert_eq!(p.used(), 0);
    }

    /// Growing a grant takes no extra hold on the pool: after grow and
    /// drop, only the pool's own handle is left.
    #[test]
    fn grow_holds_no_extra_pool_handle() {
        let p = ResourcePool::new(1000);
        let handles = Arc::strong_count(&p.inner);
        let mut g = p.grant_heavy(100).unwrap();
        assert!(g.grow(100) && g.grow(100));
        assert_eq!(Arc::strong_count(&p.inner), handles + 1, "the grant's one");
        drop(g);
        assert_eq!(Arc::strong_count(&p.inner), handles);
        assert_eq!(p.used(), 0);
    }

    #[test]
    fn concurrent_grants_never_exceed_limit() {
        let p = ResourcePool::new(10_000);
        let mut handles = Vec::new();
        for _ in 0..8 {
            let p = p.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    if let Ok(g) = p.grant_heavy(100) {
                        assert!(p.used() <= 10_000);
                        drop(g);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(p.used(), 0);
    }
}
