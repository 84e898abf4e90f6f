//! Two-tier artifact cache: sharded in-memory LRU over an on-disk
//! content-addressed store.
//!
//! * **Memory tier** — [`MemCache`]: N mutex-guarded shards (key-sharded by
//!   the first hex byte of the SHA-256 key, which is uniformly distributed),
//!   each an exact LRU bounded by entry count. Eviction order is tracked
//!   with a monotone tick per shard and a `BTreeMap<tick, key>`, so the
//!   oldest untouched entry pops in O(log n) without a linked list.
//! * **Disk tier** — [`DiskStore`]: one single-line JSON file per key under
//!   `<root>/ab/<key>.json` (two-hex-char fan-out). Writes go to a unique
//!   temp file in the same directory and are published with an atomic
//!   rename, so readers never observe a torn file. Reads tolerate
//!   corruption: any unparseable file is deleted and reported as a miss.
//! * **Write-behind** — [`WriteBehind`]: persistence is off the request
//!   path. Puts enqueue onto a bounded channel drained by one writer
//!   thread; a full queue degrades to a synchronous write (results are
//!   never dropped), and drop/[`WriteBehind::flush`] drain every pending
//!   write before returning, so shutdown never loses artifacts. The writer
//!   appends to a per-process journal file (cheap even on one core) and
//!   fans it out into fsynced per-key files at every flush barrier, at
//!   shutdown, and past a size threshold; journals abandoned by crashed
//!   processes are compacted on the next startup.
//!
//! [`TieredCache`] composes the tiers with read-through promotion and keeps
//! hit/miss/eviction counters in [`crate::stats::StatsRegistry`].

use crate::envelope::{CacheKey, CompileResult};
use crate::stats::StatsRegistry;
use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};

/// Number of LRU shards. Sixteen matches the first hex digit of the key, so
/// sharding is a single nibble extraction.
const N_SHARDS: usize = 16;

struct Shard {
    /// key → (value, tick of last touch).
    map: HashMap<CacheKey, (CompileResult, u64)>,
    /// tick of last touch → key; the smallest tick is the LRU victim.
    order: BTreeMap<u64, CacheKey>,
    tick: u64,
}

impl Shard {
    fn new() -> Self {
        Shard {
            map: HashMap::new(),
            order: BTreeMap::new(),
            tick: 0,
        }
    }

    fn touch(&mut self, key: &str) {
        if let Some((_, t)) = self.map.get(key) {
            let old = *t;
            self.order.remove(&old);
            self.tick += 1;
            let now = self.tick;
            self.order.insert(now, key.to_string());
            self.map.get_mut(key).expect("present").1 = now;
        }
    }
}

/// Sharded in-memory LRU keyed by content hash.
pub struct MemCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_cap: usize,
    evictions: AtomicU64,
}

impl MemCache {
    /// A cache holding at most `capacity` entries (rounded up to a multiple
    /// of the shard count; minimum one entry per shard).
    pub fn new(capacity: usize) -> Self {
        MemCache {
            shards: (0..N_SHARDS).map(|_| Mutex::new(Shard::new())).collect(),
            per_shard_cap: capacity.div_ceil(N_SHARDS).max(1),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &str) -> &Mutex<Shard> {
        // First hex digit of the SHA-256 key: uniform over shards.
        let nibble = key
            .as_bytes()
            .first()
            .map(|b| (*b as char).to_digit(16).unwrap_or(0) as usize)
            .unwrap_or(0);
        &self.shards[nibble % N_SHARDS]
    }

    /// Look up `key`, refreshing its recency on hit.
    pub fn get(&self, key: &str) -> Option<CompileResult> {
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        shard.touch(key);
        shard.map.get(key).map(|(v, _)| v.clone())
    }

    /// Insert (or refresh) `key`, evicting the least recently used entry of
    /// the shard if it is full.
    pub fn put(&self, key: CacheKey, value: CompileResult) {
        let mut shard = self.shard(&key).lock().expect("cache shard poisoned");
        if let Some((_, old)) = shard.map.remove(&key) {
            shard.order.remove(&old);
        } else if shard.map.len() >= self.per_shard_cap {
            if let Some((&oldest, _)) = shard.order.iter().next() {
                let victim = shard.order.remove(&oldest).expect("present");
                shard.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.tick += 1;
        let now = shard.tick;
        shard.order.insert(now, key.clone());
        shard.map.insert(key, (value, now));
    }

    /// Total entries across shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").map.len())
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Evictions since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

/// On-disk content-addressed store of compile results.
pub struct DiskStore {
    root: PathBuf,
    seq: AtomicU64,
}

impl DiskStore {
    /// A store rooted at `root` (created on first write).
    pub fn new(root: impl Into<PathBuf>) -> Self {
        DiskStore {
            root: root.into(),
            seq: AtomicU64::new(0),
        }
    }

    /// The default store location used by the bins: `target/vliw-cache/`
    /// relative to the working directory.
    pub fn default_root() -> PathBuf {
        PathBuf::from("target/vliw-cache")
    }

    fn path_for(&self, key: &str) -> PathBuf {
        // Two-hex-char fan-out keeps directory sizes bounded on large
        // corpora. Keys are validated hex, but fall back gracefully.
        let prefix = if key.len() >= 2 { &key[..2] } else { "xx" };
        self.root.join(prefix).join(format!("{key}.json"))
    }

    /// A fresh, collision-free journal path for one writer instance.
    fn new_journal_path(&self) -> PathBuf {
        static JOURNAL_SEQ: AtomicU64 = AtomicU64::new(0);
        self.root.join(format!(
            "journal-{}-{}.jsonl",
            std::process::id(),
            JOURNAL_SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    /// Journal files abandoned by crashed writers: any `journal-<pid>-*`
    /// whose process is gone. Journals of live processes (including this
    /// one) are skipped — their writers still hold the file open.
    fn stale_journals(&self) -> Vec<PathBuf> {
        let mut out = Vec::new();
        if let Ok(entries) = fs::read_dir(&self.root) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                let pid = name
                    .strip_prefix("journal-")
                    .and_then(|rest| rest.split('-').next())
                    .and_then(|pid| pid.parse::<u32>().ok());
                let Some(pid) = pid else { continue };
                if !name.ends_with(".jsonl") || pid == std::process::id() {
                    continue;
                }
                let proc_root = Path::new("/proc");
                if proc_root.exists() && proc_root.join(pid.to_string()).exists() {
                    continue; // writer still running
                }
                out.push(entry.path());
            }
        }
        out
    }

    /// Fan a journal's entries out into per-key files (fsynced), then
    /// remove the journal. Idempotent: a crash mid-compaction leaves the
    /// journal in place and the rewrites are content-addressed.
    fn compact_journal(&self, journal: &Path) {
        let text = match fs::read_to_string(journal) {
            Ok(t) => t,
            Err(_) => return,
        };
        let mut dirty = Vec::new();
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            if let Ok(res) = CompileResult::from_json_text(line) {
                if self.put_with_sync(&res.key, &res, false) {
                    dirty.push(self.path_for(&res.key));
                }
            }
        }
        for path in dirty {
            if let Ok(f) = fs::File::open(&path) {
                let _ = f.sync_all();
            }
        }
        let _ = fs::remove_file(journal);
    }

    /// Read the result stored under `key`. A missing file is a miss; an
    /// unreadable or unparseable file is deleted and reported as a miss.
    pub fn get(&self, key: &str) -> Option<CompileResult> {
        let path = self.path_for(key);
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(_) => return None,
        };
        match CompileResult::from_json_text(&text) {
            Ok(res) if res.key == key => Some(res),
            _ => {
                // Corrupt or mislabelled entry: drop it so the slot heals.
                let _ = fs::remove_file(&path);
                None
            }
        }
    }

    /// Store `value` under `key` atomically (temp file + rename + fsync).
    /// Returns `false` if the filesystem rejected the write; the cache then
    /// simply degrades to memory-only for this entry.
    pub fn put(&self, key: &str, value: &CompileResult) -> bool {
        self.put_with_sync(key, value, true)
    }

    /// Like [`DiskStore::put`] but leaves the data in the page cache; the
    /// write-behind writer batches one fsync pass per flush instead of
    /// paying one per entry.
    fn put_with_sync(&self, key: &str, value: &CompileResult, sync: bool) -> bool {
        let path = self.path_for(key);
        let dir = match path.parent() {
            Some(d) => d,
            None => return false,
        };
        if fs::create_dir_all(dir).is_err() {
            return false;
        }
        let unique = self.seq.fetch_add(1, Ordering::Relaxed);
        let tmp = dir.join(format!(".{key}.{}.{unique}.tmp", std::process::id()));
        let write = (|| -> std::io::Result<()> {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(value.to_json().render().as_bytes())?;
            f.write_all(b"\n")?;
            if sync {
                f.sync_all()?;
            }
            Ok(())
        })();
        if write.is_err() {
            let _ = fs::remove_file(&tmp);
            return false;
        }
        if fs::rename(&tmp, &path).is_err() {
            let _ = fs::remove_file(&tmp);
            return false;
        }
        true
    }

    /// The store root.
    pub fn root(&self) -> &Path {
        &self.root
    }
}

/// Entries the write-behind queue buffers before degrading to synchronous
/// writes. Sized so a corpus-scale burst fits while the writer drains.
const WRITE_QUEUE_CAP: usize = 1024;

/// Journal size that triggers an inline compaction pass, bounding both
/// replay cost after a crash and duplicate storage.
const JOURNAL_COMPACT_BYTES: u64 = 8 * 1024 * 1024;

enum WriteCmd {
    /// The result carries its own content-addressed key.
    Put(CompileResult),
    /// Barrier: acknowledged only after every earlier `Put` is on disk.
    Flush(SyncSender<()>),
}

/// Bounded write-behind queue in front of a [`DiskStore`].
///
/// `put` enqueues and returns immediately; one writer thread journals the
/// entries and compacts them into per-key files (see `writer_loop`). A
/// full queue falls back to a synchronous write in the caller (counted in
/// [`StatsRegistry`] as `sync_writes`) — results are never dropped.
/// [`WriteBehind::flush`] is a barrier: when it returns, every earlier put
/// is an fsynced per-key file. Dropping the queue joins the writer after
/// draining and compacting everything still pending, so shutdown persists
/// all completed compiles.
pub struct WriteBehind {
    store: Arc<DiskStore>,
    tx: Option<SyncSender<WriteCmd>>,
    writer: Option<std::thread::JoinHandle<()>>,
    stats: Arc<StatsRegistry>,
}

impl WriteBehind {
    /// Wrap `store`, spawning the writer thread.
    pub fn new(store: DiskStore, stats: Arc<StatsRegistry>) -> Self {
        let store = Arc::new(store);
        let (tx, rx) = sync_channel::<WriteCmd>(WRITE_QUEUE_CAP);
        let writer_store = Arc::clone(&store);
        let writer = std::thread::spawn(move || writer_loop(&writer_store, &rx));
        WriteBehind {
            store,
            tx: Some(tx),
            writer: Some(writer),
            stats,
        }
    }

    /// The underlying store (reads bypass the queue; the memory tier holds
    /// every entry newer than the writer's progress).
    pub fn store(&self) -> &DiskStore {
        &self.store
    }

    /// Enqueue a persistence request; degrade to a synchronous write if the
    /// queue is full or the writer is gone.
    pub fn put(&self, key: &str, value: &CompileResult) {
        let tx = self.tx.as_ref().expect("writer alive until drop");
        match tx.try_send(WriteCmd::Put(value.clone())) {
            Ok(()) => {}
            Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) => {
                self.stats.sync_write();
                self.store.put(key, value);
            }
        }
    }

    /// Block until every previously enqueued write is on disk.
    pub fn flush(&self) {
        let (ack_tx, ack_rx) = sync_channel(1);
        if let Some(tx) = &self.tx {
            if tx.send(WriteCmd::Flush(ack_tx)).is_ok() {
                let _ = ack_rx.recv();
            }
        }
    }
}

impl Drop for WriteBehind {
    fn drop(&mut self) {
        drop(self.tx.take()); // close the channel; the writer drains and exits
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
    }
}

/// The write-behind writer: appends results to a per-process journal
/// (one buffered file — cheap on the request path even on a single core)
/// and fans the journal out into fsynced per-key files on every flush
/// barrier, at shutdown, and whenever the journal grows past
/// [`JOURNAL_COMPACT_BYTES`]. On startup any journal left behind by a
/// crashed process is compacted first, so no acknowledged result is ever
/// lost.
fn writer_loop(store: &DiskStore, rx: &std::sync::mpsc::Receiver<WriteCmd>) {
    for journal in store.stale_journals() {
        store.compact_journal(&journal);
    }
    let journal_path = store.new_journal_path();
    let mut journal: Option<std::io::BufWriter<fs::File>> = None;
    let mut journal_bytes = 0u64;

    let compact = |journal: &mut Option<std::io::BufWriter<fs::File>>, journal_bytes: &mut u64| {
        if let Some(mut w) = journal.take() {
            let _ = w.flush();
            let _ = w.into_inner().map(|f| f.sync_all());
        }
        store.compact_journal(&journal_path);
        *journal_bytes = 0;
    };

    // `recv` drains every buffered command before reporting the channel
    // closed, so dropping the sender flushes the queue.
    while let Ok(cmd) = rx.recv() {
        match cmd {
            WriteCmd::Put(value) => {
                if journal.is_none() {
                    if fs::create_dir_all(store.root()).is_err() {
                        continue;
                    }
                    journal = fs::OpenOptions::new()
                        .create(true)
                        .append(true)
                        .open(&journal_path)
                        .ok()
                        .map(std::io::BufWriter::new);
                }
                if let Some(w) = &mut journal {
                    let mut line = value.to_json().render();
                    line.push('\n');
                    if w.write_all(line.as_bytes()).is_ok() {
                        journal_bytes += line.len() as u64;
                    }
                }
                if journal_bytes >= JOURNAL_COMPACT_BYTES {
                    compact(&mut journal, &mut journal_bytes);
                }
            }
            WriteCmd::Flush(ack) => {
                compact(&mut journal, &mut journal_bytes);
                let _ = ack.send(());
            }
        }
    }
    compact(&mut journal, &mut journal_bytes);
}

/// Memory LRU in front of the write-behind disk store, with shared
/// statistics.
pub struct TieredCache {
    mem: MemCache,
    disk: Option<WriteBehind>,
    stats: Arc<StatsRegistry>,
}

impl TieredCache {
    /// A tiered cache with `mem_capacity` in-memory entries over `disk`
    /// (pass `None` for a memory-only cache).
    pub fn new(mem_capacity: usize, disk: Option<DiskStore>) -> Self {
        let stats = Arc::new(StatsRegistry::new());
        TieredCache {
            mem: MemCache::new(mem_capacity),
            disk: disk.map(|d| WriteBehind::new(d, Arc::clone(&stats))),
            stats,
        }
    }

    /// Look up `key` in memory, then on disk (promoting a disk hit into
    /// memory). Updates hit/miss counters.
    pub fn get(&self, key: &str) -> Option<CompileResult> {
        self.get_impl(key, true)
    }

    /// Like [`TieredCache::get`] but a miss is not counted: used for the
    /// raw-key fast path, where the canonical lookup that follows is the
    /// authoritative miss.
    pub fn probe(&self, key: &str) -> Option<CompileResult> {
        self.get_impl(key, false)
    }

    fn get_impl(&self, key: &str, count_miss: bool) -> Option<CompileResult> {
        if let Some(hit) = self.mem.get(key) {
            self.stats.mem_hit();
            return Some(hit);
        }
        if let Some(disk) = &self.disk {
            if let Some(hit) = disk.store().get(key) {
                self.stats.disk_hit();
                self.mem.put(key.to_string(), hit.clone());
                return Some(hit);
            }
        }
        if count_miss {
            self.stats.miss();
        }
        None
    }

    /// Store `value` in both tiers. The disk write is asynchronous
    /// (write-behind); use [`TieredCache::flush`] to force persistence.
    pub fn put(&self, key: &str, value: &CompileResult) {
        self.mem.put(key.to_string(), value.clone());
        if let Some(disk) = &self.disk {
            disk.put(key, value);
        }
    }

    /// Barrier: every completed `put` is on disk when this returns.
    pub fn flush(&self) {
        if let Some(disk) = &self.disk {
            disk.flush();
        }
    }

    /// The statistics registry (shared with the server).
    pub fn stats(&self) -> &StatsRegistry {
        &self.stats
    }

    /// Memory-tier evictions so far.
    pub fn evictions(&self) -> u64 {
        self.mem.evictions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::CompileRequest;
    use vliw_loopgen::{corpus_with, CorpusSpec};
    use vliw_machine::MachineDesc;
    use vliw_pipeline::{run_loop, PipelineConfig};

    fn make_results(n: usize) -> Vec<CompileResult> {
        let spec = CorpusSpec {
            n,
            ..Default::default()
        };
        let machine = MachineDesc::embedded(2, 4);
        let cfg = PipelineConfig::default();
        corpus_with(&spec)
            .iter()
            .map(|l| {
                let req = CompileRequest::from_parts(l, &machine, &cfg);
                CompileResult::from_loop_result(req.cache_key(), &run_loop(l, &machine, &cfg))
            })
            .collect()
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("vliw-serve-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn mem_cache_hits_and_evicts_lru() {
        let results = make_results(8);
        // One entry per shard: inserting two keys in the same shard evicts
        // the older one.
        let cache = MemCache::new(1);
        for r in &results {
            cache.put(r.key.clone(), r.clone());
        }
        assert!(cache.len() <= N_SHARDS);
        // Most recent insertions are present unless a same-shard collision
        // evicted them; at minimum the last one must be live.
        let last = results.last().unwrap();
        assert_eq!(cache.get(&last.key).unwrap(), *last);
        assert!(cache.get("0".repeat(64).as_str()).is_none());
    }

    #[test]
    fn mem_cache_lru_order_respects_touches() {
        let results = make_results(3);
        let cache = MemCache::new(0); // per-shard capacity clamps to 1
        let shard_of = |k: &str| (k.as_bytes()[0] as char).to_digit(16).unwrap();
        // Find two results in the same shard, if any; otherwise synthesise
        // keys that collide.
        let (a, b) = (&results[0], &results[1]);
        if shard_of(&a.key) == shard_of(&b.key) {
            cache.put(a.key.clone(), a.clone());
            cache.put(b.key.clone(), b.clone());
            assert!(cache.get(&a.key).is_none(), "older entry should evict");
            assert!(cache.get(&b.key).is_some());
            assert_eq!(cache.evictions(), 1);
        } else {
            let mut fake_a = a.clone();
            fake_a.key = format!("a{}", &a.key[1..]);
            let mut fake_b = b.clone();
            fake_b.key = format!("a{}", &b.key[1..]);
            cache.put(fake_a.key.clone(), fake_a.clone());
            cache.put(fake_b.key.clone(), fake_b.clone());
            assert!(cache.get(&fake_a.key).is_none());
            assert!(cache.get(&fake_b.key).is_some());
            assert_eq!(cache.evictions(), 1);
        }
    }

    #[test]
    fn disk_store_round_trips_and_heals_corruption() {
        let root = tmpdir("disk");
        let store = DiskStore::new(&root);
        let results = make_results(2);
        let r = &results[0];
        assert!(store.get(&r.key).is_none(), "cold store misses");
        assert!(store.put(&r.key, r));
        assert_eq!(store.get(&r.key).unwrap(), *r);

        // Corrupt the file: the next read must miss and delete it.
        let path = root.join(&r.key[..2]).join(format!("{}.json", r.key));
        fs::write(&path, b"{ not json").unwrap();
        assert!(store.get(&r.key).is_none());
        assert!(!path.exists(), "corrupt entry should be removed");

        // A mislabelled entry (valid JSON, wrong key) is also healed.
        let other = &results[1];
        fs::write(&path, other.to_json().render()).unwrap();
        assert!(store.get(&r.key).is_none());
        assert!(!path.exists());
        let _ = fs::remove_dir_all(&root);
    }

    /// A disk entry written by an older format (no `v` field, or an
    /// explicit `v: 3`) must fail closed: the read misses and the entry is
    /// deleted so the slot heals with a fresh compile.
    #[test]
    fn disk_store_rejects_and_heals_pre_v4_entries() {
        let root = tmpdir("disk-v3");
        let store = DiskStore::new(&root);
        let r = &make_results(1)[0];
        let path = root.join(&r.key[..2]).join(format!("{}.json", r.key));
        let mut doc = match r.to_json() {
            crate::Json::Obj(m) => m,
            _ => unreachable!(),
        };

        // v3-era layout: no version field at all.
        doc.remove("v");
        store.put(&r.key, r);
        fs::write(&path, crate::Json::Obj(doc.clone()).render()).unwrap();
        assert!(store.get(&r.key).is_none(), "versionless entry must miss");
        assert!(!path.exists(), "versionless entry must be deleted");

        // Explicitly versioned foreign entry.
        doc.insert("v".into(), crate::Json::Num(3.0));
        store.put(&r.key, r);
        fs::write(&path, crate::Json::Obj(doc).render()).unwrap();
        assert!(store.get(&r.key).is_none(), "v3 entry must miss");
        assert!(!path.exists(), "v3 entry must be deleted");

        // The current format still round-trips through the same slot.
        store.put(&r.key, r);
        assert_eq!(store.get(&r.key).unwrap(), *r);
        let _ = fs::remove_dir_all(&root);
    }

    /// Stale journals left by a crashed pre-v4 writer compact without
    /// resurrecting old-format lines: undecodable entries are dropped on
    /// the floor, current-format lines fan out normally.
    #[test]
    fn stale_journal_compaction_drops_pre_v4_lines() {
        let root = tmpdir("journal-v3");
        let store = DiskStore::new(&root);
        let results = make_results(2);
        let (current, old) = (&results[0], &results[1]);
        let mut old_doc = match old.to_json() {
            crate::Json::Obj(m) => m,
            _ => unreachable!(),
        };
        old_doc.insert("v".into(), crate::Json::Num(3.0));
        fs::create_dir_all(&root).unwrap();
        let journal = root.join("journal-99999-0.jsonl");
        fs::write(
            &journal,
            format!(
                "{}\n{}\nnot json at all\n",
                current.to_json().render(),
                crate::Json::Obj(old_doc).render()
            ),
        )
        .unwrap();

        store.compact_journal(&journal);
        assert!(!journal.exists(), "journal must be consumed");
        assert_eq!(store.get(&current.key).unwrap(), *current);
        assert!(
            store.get(&old.key).is_none(),
            "pre-v4 journal line must not be resurrected"
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn write_behind_persists_on_drop_and_flush() {
        let root = tmpdir("wb");
        let results = make_results(4);
        {
            let wb = WriteBehind::new(DiskStore::new(&root), Arc::new(StatsRegistry::new()));
            for r in &results[..2] {
                wb.put(&r.key, r);
            }
            // Flush is a barrier: both writes are observable immediately.
            wb.flush();
            for r in &results[..2] {
                assert_eq!(wb.store().get(&r.key).unwrap(), *r);
            }
            for r in &results[2..] {
                wb.put(&r.key, r);
            }
            // No flush: drop must drain the queue before joining.
        }
        let store = DiskStore::new(&root);
        for r in &results {
            assert_eq!(store.get(&r.key).unwrap(), *r, "{} lost on drop", r.key);
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn tiered_cache_promotes_disk_hits() {
        let root = tmpdir("tiered");
        let results = make_results(1);
        let r = &results[0];

        // Populate via one cache instance, read via a fresh one (cold
        // memory, warm disk) to exercise promotion.
        let warm = TieredCache::new(64, Some(DiskStore::new(&root)));
        assert!(warm.get(&r.key).is_none());
        warm.put(&r.key, r);
        assert_eq!(warm.get(&r.key).unwrap(), *r);
        let snap = warm.stats().snapshot();
        assert_eq!((snap.mem_hits, snap.disk_hits, snap.misses), (1, 0, 1));

        // The disk write is behind the queue; barrier before reading the
        // store from a second cache instance.
        warm.flush();
        let fresh = TieredCache::new(64, Some(DiskStore::new(&root)));
        assert_eq!(fresh.get(&r.key).unwrap(), *r, "disk hit");
        assert_eq!(fresh.get(&r.key).unwrap(), *r, "promoted to memory");
        let snap = fresh.stats().snapshot();
        assert_eq!((snap.mem_hits, snap.disk_hits, snap.misses), (1, 1, 0));
        let _ = fs::remove_dir_all(&root);
    }
}
