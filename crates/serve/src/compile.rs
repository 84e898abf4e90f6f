//! The cached, deduplicating compile engine.
//!
//! [`CachedCompiler`] is the piece both the TCP server and the `repro
//! --cache` driver share: a [`TieredCache`] plus an in-flight table that
//! collapses concurrent identical requests onto one pipeline execution.
//!
//! The in-flight table maps cache key → a condvar-signalled slot. The first
//! requester of a key (the *leader*) runs the pipeline and then signals the
//! slot; later requesters of the same key just wait. With no deadline the
//! leader computes **inline** on the calling thread (no spawn, no clone —
//! this is the corpus-sweep hot path). With a deadline the leader detaches
//! the execution onto a compute thread so an expiry returns
//! [`CompileError::Timeout`] to that caller only — the execution keeps
//! running and still populates the cache, so a retry of the same request is
//! cheap. Either way the result is published to the cache *before* the slot
//! is signalled and removed from the table, so a request that misses the
//! table afterwards is guaranteed to hit the cache.
//!
//! Parsing happens exactly once per request: [`CachedCompiler::compile`]
//! decodes the wire text up front and hands the parsed IR/machine/config
//! structures straight to `run_loop`; [`CachedCompiler::compile_parts`]
//! starts from parsed structures and never parses at all.

use crate::cache::TieredCache;
use crate::envelope::{CacheKey, CompileRequest, CompileResult, RequestError};
use crate::stats::StatsRegistry;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use vliw_governor::TrackedBudget;
use vliw_ir::Loop;
use vliw_machine::MachineDesc;
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
    /// The per-request deadline expired; the execution continues in the
    /// background and will populate the cache.
    Timeout,
    /// Transient overload: the server shed this request before running it.
    /// Well-formed — the client should back off and retry. Distinct from
    /// [`CompileError::BadRequest`] on the wire (`error_kind: "shed"`).
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

/// One in-flight execution slot.
struct Inflight {
    done: Mutex<Option<Result<CompileResult, String>>>,
    cv: Condvar,
}

impl Inflight {
    fn new() -> Arc<Self> {
        Arc::new(Inflight {
            done: Mutex::new(None),
            cv: Condvar::new(),
        })
    }
}

/// Entries kept in the preimage→key memo and the rendered-result cache
/// before each is cleared wholesale. Both are derived, content-addressed
/// side tables — a clear costs only recomputation, never correctness.
const SIDE_TABLE_CAP: usize = 16 * 1024;

/// Anytime routing for the joint partitioner: clamp the solver's own
/// wall-clock budget to a fraction of the request deadline, so an
/// over-budget loop returns *in time* with the greedy incumbent, an honest
/// `optimal: false`, and the proven `lower_bound_ii` — instead of blowing
/// the deadline into a bare [`CompileError::Timeout`] with nothing to show.
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
    /// Cache key → pre-rendered result JSON, shared into responses as
    /// [`crate::Json::Raw`]. Keys are content hashes, so an entry can never
    /// go stale; the bound only limits memory.
    rendered: Mutex<HashMap<CacheKey, Arc<str>>>,
}

impl CachedCompiler {
    /// Wrap `cache`.
    pub fn new(cache: TieredCache) -> Arc<Self> {
        Arc::new(CachedCompiler {
            cache,
            inflight: Mutex::new(HashMap::new()),
            key_memo: Mutex::new(HashMap::new()),
            rendered: Mutex::new(HashMap::new()),
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
        if memo.len() >= SIDE_TABLE_CAP {
            memo.clear();
        }
        memo.insert(req.clone(), key.clone());
        key
    }

    /// Serve `req` as pre-rendered result JSON — the server's hot path. A
    /// rendered-map hit returns the shared bytes without even cloning the
    /// cached result (the map is keyed by content hash, so an entry can
    /// never be stale; it just doesn't refresh LRU recency). Anything else
    /// falls through to the full compile path and renders once.
    pub fn serve_rendered(
        self: &Arc<Self>,
        req: &CompileRequest,
        deadline: Option<Duration>,
    ) -> Result<(Arc<str>, Source), CompileError> {
        self.serve_rendered_governed(req, deadline, None)
    }

    /// [`serve_rendered`](Self::serve_rendered) under a server-granted
    /// resource budget: a miss runs the pipeline with `budget` threaded
    /// into the exact/joint search loops, so pool exhaustion truncates the
    /// solve instead of growing the process.
    pub fn serve_rendered_governed(
        self: &Arc<Self>,
        req: &CompileRequest,
        deadline: Option<Duration>,
        budget: Option<TrackedBudget>,
    ) -> Result<(Arc<str>, Source), CompileError> {
        let raw_key = self.key_for(req);
        if let Some(doc) = self
            .rendered
            .lock()
            .expect("rendered cache poisoned")
            .get(&raw_key)
        {
            self.stats().mem_hit();
            return Ok((Arc::clone(doc), Source::Cache));
        }
        let (res, source) = match self.cache.probe(&raw_key) {
            Some(hit) => (hit, Source::Cache),
            None => {
                let (body, machine, cfg) = req.decode().map_err(CompileError::BadRequest)?;
                self.compile_parts_governed(&body, &machine, &cfg, deadline, budget)?
            }
        };
        Ok((self.rendered(&res), source))
    }

    /// Probe every cache layer for `req` without ever compiling: the
    /// rendered memo, then the tiered cache. The server's admission path
    /// uses this so a heavy-shaped request that is actually a warm hit is
    /// served without opening a pool grant.
    pub fn probe_rendered(self: &Arc<Self>, req: &CompileRequest) -> Option<Arc<str>> {
        let raw_key = self.key_for(req);
        if let Some(doc) = self
            .rendered
            .lock()
            .expect("rendered cache poisoned")
            .get(&raw_key)
        {
            self.stats().mem_hit();
            return Some(Arc::clone(doc));
        }
        let res = self.cache.probe(&raw_key)?;
        Some(self.rendered(&res))
    }

    /// The result's wire JSON, pre-rendered once per key and shared across
    /// responses. Budget-truncated joint results are rendered but never
    /// memoised: the truncation point depends on the caller's deadline,
    /// not just the request text the key hashes, so a memo entry could
    /// serve one caller's degraded answer to another with time to spare.
    pub fn rendered(&self, res: &CompileResult) -> Arc<str> {
        if let Some(doc) = self
            .rendered
            .lock()
            .expect("rendered cache poisoned")
            .get(&res.key)
        {
            return Arc::clone(doc);
        }
        let doc: Arc<str> = res.to_json().render().into();
        if res.joint.is_some_and(|j| !j.optimal) || res.exact.is_some_and(|e| !e.optimal) {
            return doc;
        }
        let mut cache = self.rendered.lock().expect("rendered cache poisoned");
        if cache.len() >= SIDE_TABLE_CAP {
            cache.clear();
        }
        cache.insert(res.key.clone(), Arc::clone(&doc));
        doc
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
    /// canonical key there. `deadline` bounds how long this caller waits;
    /// the execution itself is never cancelled.
    pub fn compile(
        self: &Arc<Self>,
        req: &CompileRequest,
        deadline: Option<Duration>,
    ) -> Result<(CompileResult, Source), CompileError> {
        let raw_key = self.key_for(req);
        if let Some(hit) = self.cache.probe(&raw_key) {
            return Ok((hit, Source::Cache));
        }
        let (body, machine, cfg) = req.decode().map_err(CompileError::BadRequest)?;
        self.compile_parts(&body, &machine, &cfg, deadline)
    }

    /// Compile already-parsed pipeline inputs: canonical text is formatted
    /// once for the key preimage, and a miss runs `run_loop` on the given
    /// structures directly — no text is ever parsed.
    pub fn compile_parts(
        self: &Arc<Self>,
        body: &Loop,
        machine: &MachineDesc,
        cfg: &PipelineConfig,
        deadline: Option<Duration>,
    ) -> Result<(CompileResult, Source), CompileError> {
        self.compile_parts_governed(body, machine, cfg, deadline, None)
    }

    /// [`compile_parts`](Self::compile_parts) with an optional server
    /// resource budget threaded into the solver loops.
    pub fn compile_parts_governed(
        self: &Arc<Self>,
        body: &Loop,
        machine: &MachineDesc,
        cfg: &PipelineConfig,
        deadline: Option<Duration>,
        budget: Option<TrackedBudget>,
    ) -> Result<(CompileResult, Source), CompileError> {
        let canonical = CompileRequest::from_parts(body, machine, cfg);
        let key = self.key_for(&canonical);
        if let Some(hit) = self.cache.probe(&key) {
            return Ok((hit, Source::Cache));
        }
        self.compile_missed(body, machine, cfg, &key, deadline, budget)
    }

    /// Compile an already-canonical request under a precomputed `key`. The
    /// text is decoded only on a miss (one parse, no re-format).
    pub fn compile_canonical(
        self: &Arc<Self>,
        req: &CompileRequest,
        key: &str,
        deadline: Option<Duration>,
    ) -> Result<(CompileResult, Source), CompileError> {
        if let Some(hit) = self.cache.probe(key) {
            return Ok((hit, Source::Cache));
        }
        let (body, machine, cfg) = req.decode().map_err(CompileError::BadRequest)?;
        self.compile_missed(&body, &machine, &cfg, &key.to_string(), deadline, None)
    }

    /// The exact-key-missed path shared by every compile entry point.
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
    /// caller's own witness — no witness ever needs persisting, and the
    /// alias entries ride the ordinary mem/disk tiers as records of their
    /// own.
    fn compile_missed(
        self: &Arc<Self>,
        body: &Loop,
        machine: &MachineDesc,
        cfg: &PipelineConfig,
        key: &CacheKey,
        deadline: Option<Duration>,
        budget: Option<TrackedBudget>,
    ) -> Result<(CompileResult, Source), CompileError> {
        let canon = vliw_normal::canonicalize(body);
        let sem_key = self.key_for(&CompileRequest::from_parts(&canon.body, machine, cfg));
        let alias = (sem_key != *key).then(|| Arc::new((sem_key, canon.witness)));
        if let Some(a) = &alias {
            if let Some(hit) = self.cache.probe(&a.0) {
                self.stats().canon_hit();
                return Ok((hit.from_canonical_space(key.clone(), &a.1), Source::Cache));
            }
        }
        self.stats().miss();
        let (slot, leader) = self.join_inflight(key);
        if !leader {
            return self.wait(&slot, deadline, false);
        }
        let (effective_cfg, clamped) = clamp_joint_budget(cfg, deadline);
        match deadline {
            None => {
                let outcome =
                    self.execute_parts(body, machine, &effective_cfg, key, budget.as_ref());
                // A governed budget that actually *tripped* (pool
                // exhaustion or server deadline observed mid-solve)
                // truncated this result for reasons outside the request
                // text — never cache those, same as a deadline clamp. A
                // budget that was never felt leaves the result
                // reproducible and cacheable.
                let taint = clamped || budget.as_ref().is_some_and(|b| b.tripped());
                self.publish(key, &slot, outcome.clone(), alias.as_deref(), taint);
                match outcome {
                    Ok(res) => Ok((res, Source::Compiled)),
                    Err(m) => Err(CompileError::Internal(m)),
                }
            }
            Some(_) => {
                let engine = Arc::clone(self);
                let (body, machine) = (body.clone(), machine.clone());
                let thread_slot = Arc::clone(&slot);
                let thread_key = key.clone();
                std::thread::spawn(move || {
                    let outcome = engine.execute_parts(
                        &body,
                        &machine,
                        &effective_cfg,
                        &thread_key,
                        budget.as_ref(),
                    );
                    let taint = clamped || budget.as_ref().is_some_and(|b| b.tripped());
                    engine.publish(&thread_key, &thread_slot, outcome, alias.as_deref(), taint);
                });
                self.wait(&slot, deadline, true)
            }
        }
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
                let slot = Inflight::new();
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

    /// Publish `outcome` to the cache, then to the slot, then retire the
    /// slot — in that order, so anyone who misses the inflight table after
    /// removal is guaranteed a cache hit. When a semantic `alias` is given,
    /// the result is also stored in canonical space under the semantic key,
    /// so future isomorphic variants of this loop hit without compiling.
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
        slot: &Arc<Inflight>,
        outcome: Result<CompileResult, String>,
        alias: Option<&(CacheKey, vliw_normal::Witness)>,
        taint_if_truncated: bool,
    ) {
        if let Ok(res) = &outcome {
            let tainted = taint_if_truncated
                && (res.joint.is_some_and(|j| !j.optimal) || res.exact.is_some_and(|e| !e.optimal));
            if !tainted {
                self.cache.put(key, res);
                if let Some((sem_key, witness)) = alias {
                    self.cache
                        .put(sem_key, &res.into_canonical_space(sem_key.clone(), witness));
                }
            }
        }
        *slot.done.lock().expect("inflight slot poisoned") = Some(outcome);
        slot.cv.notify_all();
        self.inflight
            .lock()
            .expect("inflight table poisoned")
            .remove(key);
    }

    /// Wait on an in-flight slot until its outcome is published or the
    /// deadline expires.
    fn wait(
        &self,
        slot: &Arc<Inflight>,
        deadline: Option<Duration>,
        leader: bool,
    ) -> Result<(CompileResult, Source), CompileError> {
        let started = Instant::now();
        let mut done = slot.done.lock().expect("inflight slot poisoned");
        loop {
            if let Some(outcome) = done.as_ref() {
                return match outcome {
                    Ok(res) => Ok((
                        res.clone(),
                        if leader {
                            Source::Compiled
                        } else {
                            Source::Deduped
                        },
                    )),
                    Err(m) => Err(CompileError::Internal(m.clone())),
                };
            }
            match deadline {
                None => {
                    done = slot.cv.wait(done).expect("inflight slot poisoned");
                }
                Some(limit) => {
                    let elapsed = started.elapsed();
                    if elapsed >= limit {
                        self.stats().timeout();
                        return Err(CompileError::Timeout);
                    }
                    let (guard, _) = slot
                        .cv
                        .wait_timeout(done, limit - elapsed)
                        .expect("inflight slot poisoned");
                    done = guard;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{DiskStore, TieredCache};
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
        // A generous deadline: the spawned compute path must behave exactly
        // like the inline one.
        let (res, src) = engine.compile(&req, Some(Duration::from_secs(60))).unwrap();
        assert_eq!(src, Source::Compiled);
        let (hit, src) = engine.compile(&req, None).unwrap();
        assert_eq!(src, Source::Cache);
        assert_eq!(hit, res);
    }
}
