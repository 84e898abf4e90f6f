//! The cached, deduplicating compile engine.
//!
//! [`CachedCompiler`] is the piece both the TCP server and the `repro
//! --cache` driver share: a [`TieredCache`] plus an in-flight table that
//! collapses concurrent identical requests onto one pipeline execution.
//!
//! Every request takes one path. It probes the request's exact key, then
//! the key of its canonical text, then its semantic alias. Only when all of
//! them miss does the engine open the caller's resource budget and join
//! the in-flight table, which maps cache key → a condvar-signalled slot.
//! The first requester of a key (the *leader*) runs the pipeline on its
//! own thread (a pool worker, on the server); there is no detached compute
//! thread. It publishes the result to the cache, then signals and retires
//! the slot, so a request that misses the table afterwards is guaranteed a
//! cache hit. Later requesters of the same key wait on the slot for at most
//! their own deadline. A request's deadline therefore bounds the solve
//! (the joint clamp and the governed budget) and a follower's wait, never
//! the leader's own compile.
//!
//! Each tier entry holds its result's rendered envelope ([`Cached`]), so a
//! hit is served as shared bytes without rendering. Parsing happens at most
//! once per request: a request whose text is already canonical is served
//! from cache without parsing at all.

use crate::cache::{Cached, TieredCache};
use crate::envelope::{CacheKey, CompileRequest, CompileResult, RequestError};
use crate::stats::StatsRegistry;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use vliw_governor::{PoolError, TrackedBudget};
use vliw_ir::Loop;
use vliw_machine::MachineDesc;
use vliw_normal::Witness;
use vliw_pipeline::{run_loop_governed, PartitionerKind, PipelineConfig};

/// How a request was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Served from the cache (either tier).
    Cache,
    /// This request's own pipeline execution.
    Compiled,
    /// Piggybacked on an identical in-flight execution.
    Deduped,
}

impl Source {
    /// Whether the result came from the cache rather than a fresh execution.
    pub fn is_cache_hit(self) -> bool {
        matches!(self, Source::Cache)
    }

    /// Wire label for the `served` field of a compile response.
    pub fn label(self) -> &'static str {
        match self {
            Source::Cache => "cache",
            Source::Compiled => "compiled",
            Source::Deduped => "deduped",
        }
    }
}

/// A compile failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The request failed validation.
    BadRequest(RequestError),
    /// The request's deadline expired while it waited on an identical
    /// in-flight compile; that compile still finishes and populates the
    /// cache. A request's own compile never times out.
    Timeout,
    /// Transient overload: the resource pool refused this request's budget,
    /// so it was not compiled. Well-formed — the client should back off and
    /// retry. Distinct from [`CompileError::BadRequest`] on the wire
    /// (`error_kind: "shed"`).
    Shed {
        /// Suggested client backoff before retrying.
        retry_after_ms: u64,
    },
    /// The request can never fit within the server's resource limits;
    /// retrying is pointless.
    Rejected,
    /// The pipeline panicked or the engine failed internally.
    Internal(String),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::BadRequest(e) => write!(f, "{e}"),
            CompileError::Timeout => write!(f, "compile deadline expired"),
            CompileError::Shed { retry_after_ms } => {
                write!(f, "server overloaded, retry after {retry_after_ms} ms")
            }
            CompileError::Rejected => write!(f, "request exceeds server resource limits"),
            CompileError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<PoolError> for CompileError {
    fn from(e: PoolError) -> Self {
        match e {
            PoolError::Shed { retry_after_ms } => CompileError::Shed { retry_after_ms },
            PoolError::Rejected => CompileError::Rejected,
        }
    }
}

/// One in-flight execution slot.
#[derive(Default)]
struct Inflight {
    done: Mutex<Option<Result<Arc<Cached>, String>>>,
    cv: Condvar,
}

/// Entries kept in the request→key memo before it is cleared wholesale.
/// The memo is derived and content-addressed, so a clear costs only
/// recomputation, never correctness.
const KEY_MEMO_CAP: usize = 16 * 1024;

/// Anytime routing for the joint partitioner: clamp the solver's own
/// wall-clock budget to a fraction of the request deadline, so an
/// over-budget loop returns *in time* with the greedy incumbent, an honest
/// `optimal: false`, and the proven `lower_bound_ii`, instead of running
/// past the deadline with nothing to show.
/// Three quarters of the deadline go to the solver; the remainder covers
/// the rest of the pipeline (copies, reschedule, allocation, lints) plus
/// response rendering. Returns the effective config and whether the budget
/// was actually tightened — a result truncated by a *request-derived*
/// budget must never be cached under the canonical config key, or it would
/// poison identical requests arriving with larger deadlines.
fn clamp_joint_budget(cfg: &PipelineConfig, deadline: Option<Duration>) -> (PipelineConfig, bool) {
    let Some(limit) = deadline else {
        return (cfg.clone(), false);
    };
    let PartitionerKind::Joint { budget_ms } = cfg.partitioner else {
        return (cfg.clone(), false);
    };
    let granted = ((limit.as_millis() as u64).saturating_mul(3) / 4).max(1);
    if budget_ms != 0 && budget_ms <= granted {
        return (cfg.clone(), false);
    }
    let mut out = cfg.clone();
    out.partitioner = PartitionerKind::Joint { budget_ms: granted };
    (out, true)
}

/// Content-cached compiler with in-flight deduplication.
pub struct CachedCompiler {
    cache: TieredCache,
    inflight: Mutex<HashMap<CacheKey, Arc<Inflight>>>,
    /// Request → cache key. Hashing a request costs a SHA-256 pass over
    /// ~1 KiB of canonical text plus building the preimage buffer; repeat
    /// requests (every warm sweep) skip both with one table probe keyed on
    /// the request sections themselves. The key is a pure function of the
    /// request text, so the memo can never serve a stale key.
    key_memo: Mutex<HashMap<CompileRequest, CacheKey>>,
}

impl CachedCompiler {
    /// Wrap `cache`.
    pub fn new(cache: TieredCache) -> Arc<Self> {
        Arc::new(CachedCompiler {
            cache,
            inflight: Mutex::new(HashMap::new()),
            key_memo: Mutex::new(HashMap::new()),
        })
    }

    /// The cache key for `req`, memoised so warm-path requests skip both
    /// the preimage build and the SHA-256 pass.
    fn key_for(&self, req: &CompileRequest) -> CacheKey {
        if let Some(key) = self.key_memo.lock().expect("key memo poisoned").get(req) {
            return key.clone();
        }
        let key = crate::hash::sha256_hex(&req.preimage());
        let mut memo = self.key_memo.lock().expect("key memo poisoned");
        if memo.len() >= KEY_MEMO_CAP {
            memo.clear();
        }
        memo.insert(req.clone(), key.clone());
        key
    }

    /// Serve `req` as its rendered result JSON — the server's hot path. A
    /// hit in either tier returns the entry's shared bytes; a miss compiles
    /// on this thread and renders once. `deadline` bounds the solve and any
    /// wait on an identical in-flight compile.
    pub fn serve_rendered(
        &self,
        req: &CompileRequest,
        deadline: Option<Duration>,
    ) -> Result<(Arc<str>, Source), CompileError> {
        self.serve_rendered_governed(req, deadline, |_| Ok(None))
    }

    /// [`serve_rendered`](Self::serve_rendered) under a resource budget.
    /// Once the exact key and the semantic alias have both missed, the
    /// engine calls `open` with the request's remaining time; a hit never
    /// opens a budget. A pool refusal becomes [`CompileError::Shed`] or
    /// [`CompileError::Rejected`]. A budget it grants is threaded into the
    /// exact/joint search loops, so pool exhaustion truncates the solve
    /// instead of growing the process, and it is dropped before this
    /// returns.
    pub fn serve_rendered_governed(
        &self,
        req: &CompileRequest,
        deadline: Option<Duration>,
        open: impl FnOnce(Option<Duration>) -> Result<Option<TrackedBudget>, PoolError>,
    ) -> Result<(Arc<str>, Source), CompileError> {
        let (entry, source) = self.serve(req, deadline, open)?;
        Ok((Arc::clone(&entry.json), source))
    }

    /// The cache statistics (shared with the server's `stats` endpoint).
    pub fn stats(&self) -> &StatsRegistry {
        self.cache.stats()
    }

    /// Memory-tier evictions so far.
    pub fn evictions(&self) -> u64 {
        self.cache.evictions()
    }

    /// Barrier: every completed compile is persisted when this returns.
    pub fn flush(&self) {
        self.cache.flush();
    }

    /// Compile `req`. The raw wire bytes double as the cache-key preimage,
    /// so a request whose text is already canonical (anything our own
    /// client or the sharded router sends) is served from cache without
    /// parsing at all. Only on a raw-key miss is the text parsed — exactly
    /// once — and the parsed structures handed straight to the pipeline;
    /// non-canonical spellings of a cached request converge to the same
    /// canonical key there. `deadline` bounds the solve and any wait on an
    /// identical in-flight compile.
    pub fn compile(
        &self,
        req: &CompileRequest,
        deadline: Option<Duration>,
    ) -> Result<(CompileResult, Source), CompileError> {
        let (entry, source) = self.serve(req, deadline, |_| Ok(None))?;
        Ok((entry.result.clone(), source))
    }

    /// Compile already-parsed pipeline inputs: canonical text is formatted
    /// once for the key preimage, and a miss runs `run_loop` on the given
    /// structures directly — no text is ever parsed.
    pub fn compile_parts(
        &self,
        body: &Loop,
        machine: &MachineDesc,
        cfg: &PipelineConfig,
        deadline: Option<Duration>,
    ) -> Result<(CompileResult, Source), CompileError> {
        let (entry, source) =
            self.serve_parts(body, machine, cfg, deadline, Instant::now(), |_| Ok(None))?;
        Ok((entry.result.clone(), source))
    }

    /// Probe the raw key of `req`, then parse it and take the parsed path.
    fn serve(
        &self,
        req: &CompileRequest,
        deadline: Option<Duration>,
        open: impl FnOnce(Option<Duration>) -> Result<Option<TrackedBudget>, PoolError>,
    ) -> Result<(Arc<Cached>, Source), CompileError> {
        let started = Instant::now();
        if let Some(hit) = self.cache.get(&self.key_for(req)) {
            return Ok((hit, Source::Cache));
        }
        let (body, machine, cfg) = req.decode().map_err(CompileError::BadRequest)?;
        self.serve_parts(&body, &machine, &cfg, deadline, started, open)
    }

    /// The one miss path under every entry point.
    ///
    /// The exact key stays authoritative — an exact repeat is always served
    /// bit-identically from its own entry. But the pipeline's heuristic
    /// tie-breaks are index-sensitive, so isomorphic loops can compile to
    /// different (equally valid) results; to make the cache see through
    /// renaming anyway, each compiled result is *also* stored under its
    /// **semantic key** (the exact key of its alpha-canonical form), mapped
    /// into canonical space. A later exact-miss whose canonical form
    /// matches is then served the equivalence class representative's
    /// compilation, mapped back into the caller's names through the
    /// caller's own witness and rendered for this request alone — no
    /// witness ever needs persisting, and the alias entries ride the
    /// ordinary mem/disk tiers as records of their own.
    fn serve_parts(
        &self,
        body: &Loop,
        machine: &MachineDesc,
        cfg: &PipelineConfig,
        deadline: Option<Duration>,
        started: Instant,
        open: impl FnOnce(Option<Duration>) -> Result<Option<TrackedBudget>, PoolError>,
    ) -> Result<(Arc<Cached>, Source), CompileError> {
        let key = self.key_for(&CompileRequest::from_parts(body, machine, cfg));
        if let Some(hit) = self.cache.get(&key) {
            return Ok((hit, Source::Cache));
        }
        let canon = vliw_normal::canonicalize(body);
        let sem_key = self.key_for(&CompileRequest::from_parts(&canon.body, machine, cfg));
        let alias = (sem_key != key).then_some((sem_key, canon.witness));
        if let Some((sem_key, witness)) = &alias {
            if let Some(hit) = self.cache.get(sem_key) {
                self.stats().canon_hit();
                let res = hit.result.from_canonical_space(key, witness);
                return Ok((Cached::new(res), Source::Cache));
            }
        }
        let remaining = deadline.map(|d| d.saturating_sub(started.elapsed()));
        let budget = open(remaining)?;
        self.stats().miss();
        let (slot, leader) = self.join_inflight(&key);
        if !leader {
            return self.wait(&slot, remaining);
        }
        let (effective_cfg, clamped) = clamp_joint_budget(cfg, deadline);
        let outcome = self.execute_parts(body, machine, &effective_cfg, &key, budget.as_ref());
        // A governed budget that actually *tripped* (pool exhaustion or
        // server deadline observed mid-solve) truncated this result for
        // reasons outside the request text — never cache those, same as a
        // deadline clamp. A budget that was never felt leaves the result
        // reproducible and cacheable.
        let taint = clamped || budget.as_ref().is_some_and(TrackedBudget::tripped);
        self.publish(&key, &slot, outcome, alias.as_ref(), taint)
            .map(|e| (e, Source::Compiled))
            .map_err(CompileError::Internal)
    }

    /// Join (or create) the in-flight slot for `key`. Returns the slot and
    /// whether this caller is the leader.
    fn join_inflight(&self, key: &str) -> (Arc<Inflight>, bool) {
        let mut table = self.inflight.lock().expect("inflight table poisoned");
        match table.get(key) {
            Some(slot) => {
                self.stats().dedup_wait();
                (Arc::clone(slot), false)
            }
            None => {
                let slot = Arc::new(Inflight::default());
                table.insert(key.to_string(), Arc::clone(&slot));
                (slot, true)
            }
        }
    }

    /// Run the pipeline on parsed inputs, converting panics to errors.
    fn execute_parts(
        &self,
        body: &Loop,
        machine: &MachineDesc,
        cfg: &PipelineConfig,
        key: &str,
        budget: Option<&TrackedBudget>,
    ) -> Result<CompileResult, String> {
        self.stats().compile();
        catch_unwind(AssertUnwindSafe(|| {
            run_loop_governed(body, machine, cfg, budget)
        }))
        .map(|lr| {
            let res = CompileResult::from_loop_result(key.to_string(), &lr);
            if res.joint.is_some_and(|j| !j.optimal) {
                self.stats().joint_truncated();
            }
            if res.exact.is_some_and(|e| !e.optimal) {
                self.stats().exact_truncated();
            }
            res
        })
        .map_err(|p| {
            let msg = p
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "pipeline panicked".to_string());
            format!("pipeline panicked: {msg}")
        })
    }

    /// Render `outcome` once and publish it to the cache, then to the slot,
    /// then retire the slot — in that order, so anyone who misses the
    /// inflight table after removal is guaranteed a cache hit. When a
    /// semantic `alias` is given, the result is also stored in canonical
    /// space under the semantic key, so future isomorphic variants of this
    /// loop hit without compiling.
    ///
    /// A joint *or exact* result truncated under a deadline-`clamped`
    /// budget — or cut short by a governed resource budget that tripped
    /// mid-solve — is published to waiters but **not** cached: its key is
    /// a pure function of the request text (which still names the original
    /// budget), so caching it would serve the degraded answer to identical
    /// requests arriving later with room to solve fully.
    fn publish(
        &self,
        key: &str,
        slot: &Inflight,
        outcome: Result<CompileResult, String>,
        alias: Option<&(CacheKey, Witness)>,
        taint_if_truncated: bool,
    ) -> Result<Arc<Cached>, String> {
        let outcome = outcome.map(|res| {
            let tainted = taint_if_truncated
                && (res.joint.is_some_and(|j| !j.optimal) || res.exact.is_some_and(|e| !e.optimal));
            let entry = Cached::new(res);
            if !tainted {
                self.cache.put(key, &entry);
                if let Some((sem_key, witness)) = alias {
                    let canon = entry.result.into_canonical_space(sem_key.clone(), witness);
                    self.cache.put(sem_key, &Cached::new(canon));
                }
            }
            entry
        });
        *slot.done.lock().expect("inflight slot poisoned") = Some(outcome.clone());
        slot.cv.notify_all();
        self.inflight
            .lock()
            .expect("inflight table poisoned")
            .remove(key);
        outcome
    }

    /// Wait at most `limit` for the leader of `slot` to publish.
    fn wait(
        &self,
        slot: &Inflight,
        limit: Option<Duration>,
    ) -> Result<(Arc<Cached>, Source), CompileError> {
        let done = slot.done.lock().expect("inflight slot poisoned");
        let pending = |d: &mut Option<_>| d.is_none();
        let done = match limit {
            None => slot
                .cv
                .wait_while(done, pending)
                .expect("inflight slot poisoned"),
            Some(limit) => {
                let waited = slot.cv.wait_timeout_while(done, limit, pending);
                waited.expect("inflight slot poisoned").0
            }
        };
        match done.as_ref() {
            Some(outcome) => outcome
                .clone()
                .map(|e| (e, Source::Deduped))
                .map_err(CompileError::Internal),
            None => {
                self.stats().timeout();
                Err(CompileError::Timeout)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{DiskStore, TieredCache};
    use std::cell::Cell;
    use vliw_loopgen::{corpus_with, CorpusSpec};
    use vliw_machine::MachineDesc;
    use vliw_pipeline::PipelineConfig;

    fn engine() -> Arc<CachedCompiler> {
        CachedCompiler::new(TieredCache::new(256, None))
    }

    fn sample_request(i: usize) -> CompileRequest {
        let spec = CorpusSpec {
            n: i + 1,
            ..Default::default()
        };
        let body = corpus_with(&spec).remove(i);
        CompileRequest::from_parts(
            &body,
            &MachineDesc::embedded(2, 4),
            &PipelineConfig::default(),
        )
    }

    #[test]
    fn second_identical_request_is_a_cache_hit() {
        let engine = engine();
        let req = sample_request(0);
        let (first, src1) = engine.compile(&req, None).unwrap();
        assert_eq!(src1, Source::Compiled);
        let (second, src2) = engine.compile(&req, None).unwrap();
        assert_eq!(src2, Source::Cache);
        assert_eq!(first, second);
        let snap = engine.stats().snapshot();
        assert_eq!(snap.compiles, 1);
        assert_eq!(snap.mem_hits, 1);
    }

    #[test]
    fn compile_parts_matches_text_path() {
        let engine = engine();
        let spec = CorpusSpec {
            n: 1,
            ..Default::default()
        };
        let body = corpus_with(&spec).remove(0);
        let machine = MachineDesc::embedded(2, 4);
        let cfg = PipelineConfig::default();
        let (from_parts, src) = engine.compile_parts(&body, &machine, &cfg, None).unwrap();
        assert_eq!(src, Source::Compiled);
        // The text path lands on the same key and is served from cache.
        let req = CompileRequest::from_parts(&body, &machine, &cfg);
        let (from_text, src) = engine.compile(&req, None).unwrap();
        assert_eq!(src, Source::Cache);
        assert_eq!(from_parts, from_text);
        assert_eq!(from_parts.key, req.cache_key());
    }

    #[test]
    fn concurrent_identical_requests_execute_once() {
        let engine = engine();
        let req = sample_request(1);
        let results: Vec<(CompileResult, Source)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let engine = Arc::clone(&engine);
                    let req = req.clone();
                    s.spawn(move || engine.compile(&req, None).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let snap = engine.stats().snapshot();
        assert_eq!(snap.compiles, 1, "dedup must collapse to one execution");
        let reference = &results[0].0;
        for (res, _) in &results {
            assert_eq!(res, reference);
        }
        let compiled = results
            .iter()
            .filter(|(_, s)| *s == Source::Compiled)
            .count();
        assert_eq!(compiled, 1);
    }

    #[test]
    fn malformed_request_is_rejected_without_execution() {
        let engine = engine();
        let req = CompileRequest {
            loop_text: "garbage".into(),
            machine_text: "machine m\ncluster 4 32 32".into(),
            config_text: String::new(),
        };
        match engine.compile(&req, None) {
            Err(CompileError::BadRequest(e)) => assert_eq!(e.section, "loop"),
            other => panic!("expected BadRequest, got {other:?}"),
        }
        assert_eq!(engine.stats().snapshot().compiles, 0);
    }

    #[test]
    fn disk_tier_survives_engine_restart() {
        let root =
            std::env::temp_dir().join(format!("vliw-serve-test-engine-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let req = sample_request(2);
        let first = {
            let engine = CachedCompiler::new(TieredCache::new(8, Some(DiskStore::new(&root))));
            engine.compile(&req, None).unwrap().0
            // The compile appended its record before returning.
        };
        let engine = CachedCompiler::new(TieredCache::new(8, Some(DiskStore::new(&root))));
        let (second, src) = engine.compile(&req, None).unwrap();
        assert_eq!(src, Source::Cache);
        assert_eq!(first, second);
        assert_eq!(engine.stats().snapshot().compiles, 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// An isomorphic variant of a compiled loop must be served from the
    /// canonical-space alias entry without a second pipeline execution, and
    /// the served result must be bit-identical to the representative's
    /// result pushed through base→canon→variant witness composition.
    #[test]
    fn isomorphic_variant_hits_the_semantic_alias() {
        let engine = engine();
        let spec = CorpusSpec {
            n: 5,
            ..Default::default()
        };
        let body = corpus_with(&spec).remove(4);
        let machine = MachineDesc::embedded(2, 4);
        let cfg = PipelineConfig::default();
        let base_req = CompileRequest::from_parts(&body, &machine, &cfg);
        let (base, src) = engine.compile(&base_req, None).unwrap();
        assert_eq!(src, Source::Compiled);

        let var_body = vliw_normal::variant(&body, 23);
        let var_req = CompileRequest::from_parts(&var_body, &machine, &cfg);
        assert_ne!(var_req.cache_key(), base_req.cache_key());
        let (served, src) = engine.compile(&var_req, None).unwrap();
        assert_eq!(src, Source::Cache, "variant must not recompile");
        let snap = engine.stats().snapshot();
        assert_eq!(snap.compiles, 1);
        assert_eq!(snap.canon_hits, 1);

        // Reconstruct what the alias path must produce: the base result in
        // canonical space, mapped out through the variant's own witness.
        let (canon_req, base_w) = base_req.semantic_canonicalize().unwrap();
        let sem_key = canon_req.cache_key();
        assert_eq!(var_req.semantic_key().unwrap(), sem_key);
        let (_, var_w) = var_req.semantic_canonicalize().unwrap();
        let expected = base
            .into_canonical_space(sem_key, &base_w)
            .from_canonical_space(var_req.cache_key(), &var_w);
        assert_eq!(served, expected);
        assert_eq!(served.name, var_body.name);
        assert_eq!(
            served.to_json().render(),
            expected.to_json().render(),
            "wire JSON must be bit-identical"
        );

        // The variant's exact key was never populated (aliases live only
        // under the semantic key), so a repeat takes the alias path again.
        let (_, src) = engine.compile(&var_req, None).unwrap();
        assert_eq!(src, Source::Cache);
        assert_eq!(engine.stats().snapshot().canon_hits, 2);
    }

    /// Alias entries ride the ordinary disk tier: a fresh engine over the
    /// same store serves a *renamed* loop from cache without compiling.
    #[test]
    fn semantic_alias_survives_engine_restart() {
        let root =
            std::env::temp_dir().join(format!("vliw-serve-test-alias-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let spec = CorpusSpec {
            n: 6,
            ..Default::default()
        };
        let body = corpus_with(&spec).remove(5);
        let machine = MachineDesc::embedded(2, 4);
        let cfg = PipelineConfig::default();
        {
            let engine = CachedCompiler::new(TieredCache::new(8, Some(DiskStore::new(&root))));
            engine.compile_parts(&body, &machine, &cfg, None).unwrap();
        }
        let engine = CachedCompiler::new(TieredCache::new(8, Some(DiskStore::new(&root))));
        let var_body = vliw_normal::variant(&body, 99);
        let (_, src) = engine
            .compile_parts(&var_body, &machine, &cfg, None)
            .unwrap();
        assert_eq!(src, Source::Cache);
        let snap = engine.stats().snapshot();
        assert_eq!((snap.compiles, snap.canon_hits), (0, 1));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn deadline_requests_still_populate_cache() {
        let engine = engine();
        let req = sample_request(3);
        // A generous deadline bounds only the solve and a follower's wait:
        // the compile behaves exactly like one without a deadline.
        let (res, src) = engine.compile(&req, Some(Duration::from_secs(60))).unwrap();
        assert_eq!(src, Source::Compiled);
        let (hit, src) = engine.compile(&req, None).unwrap();
        assert_eq!(src, Source::Cache);
        assert_eq!(hit, res);
    }

    /// A follower waits at most its own deadline on an identical in-flight
    /// compile, then times out; that is the only way a request times out.
    #[test]
    fn a_follower_waits_at_most_its_deadline() {
        let engine = engine();
        let req = sample_request(7);
        // Stand in for a leader that is still compiling this key.
        let leader = Arc::new(Inflight::default());
        engine
            .inflight
            .lock()
            .unwrap()
            .insert(req.cache_key(), Arc::clone(&leader));
        let got = engine.compile(&req, Some(Duration::from_millis(1)));
        assert_eq!(got, Err(CompileError::Timeout));
        let snap = engine.stats().snapshot();
        assert_eq!((snap.compiles, snap.dedup_waits, snap.timeouts), (0, 1, 1));
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("vliw-serve-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A budget opener that counts its calls and grants nothing.
    fn counting(calls: &Cell<u32>) -> impl FnOnce(Option<Duration>) -> BudgetOpened + '_ {
        |_| {
            calls.set(calls.get() + 1);
            Ok(None)
        }
    }

    type BudgetOpened = Result<Option<TrackedBudget>, PoolError>;

    /// A budget is opened only once every tier has missed: the miss that
    /// compiles opens one, and a memory hit, a disk hit and a semantic
    /// alias hit open none.
    #[test]
    fn hits_never_open_a_budget() {
        let root = tmpdir("opener");
        let spec = CorpusSpec {
            n: 6,
            ..Default::default()
        };
        let body = corpus_with(&spec).remove(5);
        let (machine, cfg) = (MachineDesc::embedded(2, 4), PipelineConfig::default());
        let req = CompileRequest::from_parts(&body, &machine, &cfg);
        let var_req = CompileRequest::from_parts(&vliw_normal::variant(&body, 99), &machine, &cfg);
        {
            let engine = CachedCompiler::new(TieredCache::new(8, Some(DiskStore::new(&root))));
            let opened = Cell::new(0);
            let (_, src) = engine
                .serve_rendered_governed(&req, None, counting(&opened))
                .unwrap();
            assert_eq!((src, opened.get()), (Source::Compiled, 1));
        }
        let engine = CachedCompiler::new(TieredCache::new(8, Some(DiskStore::new(&root))));
        for (r, tier) in [(&req, "disk"), (&req, "memory"), (&var_req, "alias")] {
            let opened = Cell::new(0);
            let (_, src) = engine
                .serve_rendered_governed(r, None, counting(&opened))
                .unwrap();
            assert_eq!((src, opened.get()), (Source::Cache, 0), "{tier} hit");
        }
        let snap = engine.stats().snapshot();
        assert_eq!(
            (snap.disk_hits, snap.mem_hits, snap.canon_hits),
            (2, 1, 1),
            "the alias entry came from disk"
        );
        assert_eq!((snap.compiles, snap.misses), (0, 0));
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A pool refusal on a miss becomes the matching typed error: nothing
    /// compiles, no miss is counted and neither tier gains an entry.
    #[test]
    fn a_refused_budget_compiles_and_caches_nothing() {
        let refusals = [
            (
                PoolError::Shed { retry_after_ms: 25 },
                CompileError::Shed { retry_after_ms: 25 },
            ),
            (PoolError::Rejected, CompileError::Rejected),
        ];
        for (i, (refusal, want)) in refusals.into_iter().enumerate() {
            let root = tmpdir(&format!("refused-{i}"));
            let engine = CachedCompiler::new(TieredCache::new(8, Some(DiskStore::new(&root))));
            let req = sample_request(6);
            let got = engine.serve_rendered_governed(&req, None, |_| Err(refusal));
            assert_eq!(got.unwrap_err(), want);
            let snap = engine.stats().snapshot();
            assert_eq!((snap.compiles, snap.misses), (0, 0));
            let sem_key = req.semantic_key().unwrap();
            assert!(engine.cache.get(&req.cache_key()).is_none());
            assert!(engine.cache.get(&sem_key).is_none());
            assert!(!root.exists(), "no segment was written");
        }
    }

    /// A disk hit serves the bytes it read, and those are exactly the
    /// rendering of the result they decode to, for every corpus loop on two
    /// machines.
    #[test]
    fn disk_hits_serve_the_rendered_result() {
        let root = tmpdir("disk-bytes");
        let corpus = vliw_loopgen::corpus();
        let machines = [MachineDesc::embedded(4, 4), MachineDesc::copy_unit(2, 8)];
        let cfg = PipelineConfig::default();
        let reqs: Vec<CompileRequest> = machines
            .iter()
            .flat_map(|m| {
                corpus
                    .iter()
                    .map(|l| CompileRequest::from_parts(l, m, &cfg))
            })
            .collect();
        {
            let engine = CachedCompiler::new(TieredCache::new(8, Some(DiskStore::new(&root))));
            for req in &reqs {
                engine.compile(req, None).unwrap();
            }
        }
        let engine = CachedCompiler::new(TieredCache::new(1024, Some(DiskStore::new(&root))));
        for req in &reqs {
            let (json, src) = engine.serve_rendered(req, None).unwrap();
            assert_eq!(src, Source::Cache);
            let (res, _) = engine.compile(req, None).unwrap();
            assert_eq!(*json, res.to_json().render(), "{}", res.name);
        }
        assert_eq!(engine.stats().snapshot().compiles, 0);
        let _ = std::fs::remove_dir_all(&root);
    }
}
