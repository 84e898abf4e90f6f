//! Two-tier artifact cache: a sharded in-memory LRU over an append-only
//! on-disk store.
//!
//! * **Memory tier** — [`MemCache`]: N mutex-guarded shards (key-sharded by
//!   the first hex byte of the SHA-256 key, which is uniformly distributed),
//!   each an exact LRU bounded by entry count. Eviction order is tracked
//!   with a monotone tick per shard and a `BTreeMap<tick, key>`, so the
//!   oldest untouched entry pops in O(log n) without a linked list.
//! * **Disk tier** — [`DiskStore`]: append-only *segments* under the root,
//!   named `seg-<pid>-<n>.log`. A segment holds one line per cached result,
//!   `<key> <crc> <json>\n`: `<json>` is the rendered [`CompileResult`]
//!   envelope and `<crc>` its CRC-32 (IEEE) as eight hex digits. Only the
//!   handle that created a segment ever appends to it; it creates the
//!   segment on its first put. Opening a handle reads every segment once
//!   and indexes each complete line whose CRC matches by its key (the
//!   first such line wins). A last line without a newline is a torn tail
//!   and is skipped, never cut. Every read goes through that index: one
//!   positional read, then the key field, the CRC, the envelope decode and
//!   the envelope's own key are checked. Any failure drops the entry and
//!   reports a miss, so the next compile appends it again.
//!
//! A put appends its whole line with one write on the caller's thread, so
//! a result is in the page cache before its reply is sent.
//! [`DiskStore::flush`] and drop fdatasync the handle's segment (and fsync
//! the root once after the segment is created). A handle sees the records
//! on disk when it opened plus its own. No record is ever superseded, so
//! there is no lock file, truncation or compaction. Files of any other
//! layout in the root are never read.
//!
//! Each entry of either tier holds its rendered envelope ([`Cached`]): a
//! segment line stores those same bytes, and a disk hit keeps the bytes it
//! read, so no put or hit renders.
//!
//! [`TieredCache`] composes the tiers with read-through promotion and keeps
//! hit and eviction counters in [`crate::stats::StatsRegistry`].

use crate::envelope::{CacheKey, CompileResult};
use crate::stats::StatsRegistry;
use std::collections::{BTreeMap, HashMap};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read as _, Write as _};
use std::os::unix::fs::FileExt as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One cached result and its rendered envelope, shared by both tiers and
/// by every response that serves it.
#[derive(Debug, PartialEq)]
pub struct Cached {
    /// The result.
    pub result: CompileResult,
    /// The result's envelope, `result.to_json().render()`: the bytes a
    /// response splices in and a segment line stores.
    pub json: Arc<str>,
}

impl Cached {
    /// Wrap `result`, rendering its envelope once.
    pub fn new(result: CompileResult) -> Arc<Cached> {
        let json = result.to_json().render().into();
        Arc::new(Cached { result, json })
    }
}

/// Number of LRU shards. Sixteen matches the first hex digit of the key, so
/// sharding is a single nibble extraction.
const N_SHARDS: usize = 16;

struct Shard {
    /// key → (value, tick of last touch).
    map: HashMap<CacheKey, (Arc<Cached>, u64)>,
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
    pub fn get(&self, key: &str) -> Option<Arc<Cached>> {
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        shard.touch(key);
        shard.map.get(key).map(|(v, _)| Arc::clone(v))
    }

    /// Insert (or refresh) `key`, evicting the least recently used entry of
    /// the shard if it is full.
    pub fn put(&self, key: CacheKey, value: Arc<Cached>) {
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

/// Where one record's line lives: segment number, byte offset and length
/// (newline included).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Loc {
    seg: usize,
    offset: u64,
    len: usize,
}

/// The segment this handle appends to.
struct Own {
    file: Arc<File>,
    seg: usize,
    /// Bytes appended so far: the next record's offset.
    len: u64,
    /// Whether the root has been fsynced since the segment was created.
    dir_synced: bool,
}

impl Own {
    /// Make every appended line durable; the first call also fsyncs the
    /// root so the segment's directory entry survives a power cut.
    fn sync(&mut self, root: &Path) {
        let _ = self.file.sync_data();
        if !self.dir_synced {
            self.dir_synced = File::open(root).and_then(|d| d.sync_all()).is_ok();
        }
    }
}

struct Segments {
    /// Every segment this handle reads, its own included.
    files: Vec<Arc<File>>,
    index: HashMap<CacheKey, Loc>,
    own: Option<Own>,
}

/// On-disk store of compile results: append-only segments plus an
/// in-memory key index (see the module docs for the format).
pub struct DiskStore {
    root: PathBuf,
    segs: Mutex<Segments>,
}

impl DiskStore {
    /// Open the store rooted at `root`, indexing the records of every
    /// segment already there. The directory is created on the first put.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        let root = root.into();
        let mut paths: Vec<PathBuf> = fs::read_dir(&root)
            .into_iter()
            .flatten()
            .flatten()
            .map(|entry| entry.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("seg-") && n.ends_with(".log"))
            })
            .collect();
        paths.sort();
        let mut segs = Segments {
            files: Vec::new(),
            index: HashMap::new(),
            own: None,
        };
        for path in paths {
            let Ok(mut file) = File::open(&path) else {
                continue;
            };
            let mut bytes = Vec::new();
            if file.read_to_end(&mut bytes).is_err() {
                continue;
            }
            let seg = segs.files.len();
            let mut offset = 0;
            for line in bytes.split_inclusive(|&b| b == b'\n') {
                let key = line
                    .strip_suffix(b"\n")
                    .and_then(record)
                    .and_then(|(key, _)| std::str::from_utf8(key).ok());
                if let Some(key) = key {
                    segs.index.entry(key.to_string()).or_insert(Loc {
                        seg,
                        offset,
                        len: line.len(),
                    });
                }
                offset += line.len() as u64;
            }
            segs.files.push(Arc::new(file));
        }
        DiskStore {
            root,
            segs: Mutex::new(segs),
        }
    }

    /// The default store location used by the bins: `target/vliw-cache/`
    /// relative to the working directory.
    pub fn default_root() -> PathBuf {
        PathBuf::from("target/vliw-cache")
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Segments> {
        self.segs.lock().expect("disk store poisoned")
    }

    /// Read the entry stored under `key`: the decoded result with the
    /// envelope bytes it was decoded from. An unindexed key is a miss; an
    /// unreadable, corrupt or mislabelled record is dropped from the index
    /// and reported as a miss.
    pub fn get(&self, key: &str) -> Option<Arc<Cached>> {
        let (loc, file) = {
            let segs = self.lock();
            let loc = *segs.index.get(key)?;
            (loc, Arc::clone(&segs.files[loc.seg]))
        };
        let mut line = vec![0; loc.len];
        let res = file
            .read_exact_at(&mut line, loc.offset)
            .ok()
            .and_then(|()| decode(&line, key));
        if res.is_none() {
            let mut segs = self.lock();
            if segs.index.get(key) == Some(&loc) {
                segs.index.remove(key);
            }
        }
        res
    }

    /// Append the rendered envelope `json` under `key` to this handle's
    /// segment, unless the key is already indexed. Returns `false` if the
    /// filesystem rejected the write: the entry then stays memory-only, and
    /// the segment is retired so a partial line never runs into a later
    /// record.
    pub fn put(&self, key: &str, json: &str) -> bool {
        let line = format!("{key} {:08x} {json}\n", crc32(json.as_bytes()));
        let mut segs = self.lock();
        if segs.index.contains_key(key) {
            return true;
        }
        match segs.append(&self.root, line.as_bytes()) {
            Ok(loc) => {
                segs.index.insert(key.to_string(), loc);
                true
            }
            Err(_) => false,
        }
    }

    /// Barrier: every put so far is durable when this returns.
    pub fn flush(&self) {
        if let Some(own) = &mut self.lock().own {
            own.sync(&self.root);
        }
    }
}

impl Drop for DiskStore {
    fn drop(&mut self) {
        // A poisoned lock skips the sync: drop must not panic.
        if let Ok(Segments { own: Some(own), .. }) = self.segs.get_mut() {
            own.sync(&self.root);
        }
    }
}

impl Segments {
    /// Append one whole line to this handle's segment, creating it first if
    /// there is none.
    fn append(&mut self, root: &Path, line: &[u8]) -> io::Result<Loc> {
        if self.own.is_none() {
            let file = Arc::new(create_segment(root)?);
            self.files.push(Arc::clone(&file));
            self.own = Some(Own {
                file,
                seg: self.files.len() - 1,
                len: 0,
                dir_synced: false,
            });
        }
        let own = self.own.as_mut().expect("segment created above");
        let loc = Loc {
            seg: own.seg,
            offset: own.len,
            len: line.len(),
        };
        match (&*own.file).write_all(line) {
            Ok(()) => {
                own.len += line.len() as u64;
                Ok(loc)
            }
            Err(e) => {
                // Retire the segment: its earlier lines stay valid and are
                // synced now, and the next put starts a new one.
                own.sync(root);
                self.own = None;
                Err(e)
            }
        }
    }
}

/// Create a new segment `seg-<pid>-<n>.log`, with the first `n` whose name
/// is free.
fn create_segment(root: &Path) -> io::Result<File> {
    fs::create_dir_all(root)?;
    let mut n = 0u64;
    loop {
        let path = root.join(format!("seg-{}-{n}.log", std::process::id()));
        match OpenOptions::new()
            .read(true)
            .append(true)
            .create_new(true)
            .open(path)
        {
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => n += 1,
            created => return created,
        }
    }
}

/// Split a segment line (newline stripped) into its key and envelope
/// fields, if it has three fields and the CRC field matches the envelope.
fn record(line: &[u8]) -> Option<(&[u8], &[u8])> {
    let mut fields = line.splitn(3, |&b| b == b' ');
    let (key, crc, json) = (fields.next()?, fields.next()?, fields.next()?);
    let crc = std::str::from_utf8(crc).ok().filter(|c| c.len() == 8)?;
    (u32::from_str_radix(crc, 16).ok()? == crc32(json)).then_some((key, json))
}

/// Decode the record line read for `key`: complete, CRC-clean, labelled
/// `key` in both its key field and its envelope, and of the current format.
/// The entry keeps the envelope bytes it was decoded from.
fn decode(line: &[u8], key: &str) -> Option<Arc<Cached>> {
    let (k, json) = record(line.strip_suffix(b"\n")?)?;
    if k != key.as_bytes() {
        return None;
    }
    let json = std::str::from_utf8(json).ok()?;
    let result = CompileResult::from_json_text(json).ok()?;
    (result.key == key).then(|| {
        Arc::new(Cached {
            result,
            json: json.into(),
        })
    })
}

/// CRC-32/IEEE lookup table (reflected polynomial `0xEDB88320`).
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 == 1 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32/IEEE (the zlib/PNG checksum) of `bytes`.
fn crc32(bytes: &[u8]) -> u32 {
    !bytes.iter().fold(!0u32, |c, &b| {
        CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8)
    })
}

/// Memory LRU in front of the disk store, with shared statistics.
pub struct TieredCache {
    mem: MemCache,
    disk: Option<DiskStore>,
    stats: StatsRegistry,
}

impl TieredCache {
    /// A tiered cache with `mem_capacity` in-memory entries over `disk`
    /// (pass `None` for a memory-only cache).
    pub fn new(mem_capacity: usize, disk: Option<DiskStore>) -> Self {
        TieredCache {
            mem: MemCache::new(mem_capacity),
            disk,
            stats: StatsRegistry::new(),
        }
    }

    /// Look up `key` in memory, then on disk (promoting a disk hit into
    /// memory), counting the hit. A miss is not counted here: the engine
    /// counts one only after every key it probes has missed.
    pub fn get(&self, key: &str) -> Option<Arc<Cached>> {
        if let Some(hit) = self.mem.get(key) {
            self.stats.mem_hit();
            return Some(hit);
        }
        let hit = self.disk.as_ref()?.get(key)?;
        self.stats.disk_hit();
        self.mem.put(key.to_string(), Arc::clone(&hit));
        Some(hit)
    }

    /// Store `entry` in both tiers. The disk append runs on the caller's
    /// thread; use [`TieredCache::flush`] to make it durable.
    pub fn put(&self, key: &str, entry: &Arc<Cached>) {
        self.mem.put(key.to_string(), Arc::clone(entry));
        if let Some(disk) = &self.disk {
            disk.put(key, &entry.json);
        }
    }

    /// Barrier: every completed `put` is durable when this returns.
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

    /// The root's segment files, in name order.
    fn segments(root: &Path) -> Vec<PathBuf> {
        let mut segs: Vec<PathBuf> = fs::read_dir(root)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "log"))
            .collect();
        segs.sort();
        segs
    }

    /// A segment line holding `json` under `key`, with a valid CRC.
    fn line(key: &str, json: &str) -> String {
        format!("{key} {:08x} {json}\n", crc32(json.as_bytes()))
    }

    /// Append `r`'s rendered envelope under its key.
    fn put(store: &DiskStore, r: &CompileResult) -> bool {
        store.put(&r.key, &r.to_json().render())
    }

    /// The result `store` serves under `key`.
    fn get(store: &DiskStore, key: &str) -> Option<CompileResult> {
        store.get(key).map(|hit| hit.result.clone())
    }

    /// Byte offset just past each line's newline.
    fn line_ends(bytes: &[u8]) -> Vec<usize> {
        (0..bytes.len())
            .filter(|&i| bytes[i] == b'\n')
            .map(|i| i + 1)
            .collect()
    }

    #[test]
    fn mem_cache_hits_and_evicts_lru() {
        let results = make_results(8);
        // One entry per shard: inserting two keys in the same shard evicts
        // the older one.
        let cache = MemCache::new(1);
        for r in &results {
            cache.put(r.key.clone(), Cached::new(r.clone()));
        }
        assert!(cache.len() <= N_SHARDS);
        // Most recent insertions are present unless a same-shard collision
        // evicted them; at minimum the last one must be live.
        let last = results.last().unwrap();
        assert_eq!(cache.get(&last.key).unwrap().result, *last);
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
            cache.put(a.key.clone(), Cached::new(a.clone()));
            cache.put(b.key.clone(), Cached::new(b.clone()));
            assert!(cache.get(&a.key).is_none(), "older entry should evict");
            assert!(cache.get(&b.key).is_some());
            assert_eq!(cache.evictions(), 1);
        } else {
            let mut fake_a = a.clone();
            fake_a.key = format!("a{}", &a.key[1..]);
            let mut fake_b = b.clone();
            fake_b.key = format!("a{}", &b.key[1..]);
            cache.put(fake_a.key.clone(), Cached::new(fake_a.clone()));
            cache.put(fake_b.key.clone(), Cached::new(fake_b.clone()));
            assert!(cache.get(&fake_a.key).is_none());
            assert!(cache.get(&fake_b.key).is_some());
            assert_eq!(cache.evictions(), 1);
        }
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn disk_store_round_trips_and_heals_corruption() {
        let root = tmpdir("disk");
        let results = make_results(3);
        {
            let store = DiskStore::new(&root);
            assert!(get(&store, &results[0].key).is_none(), "cold store misses");
            for r in &results {
                assert!(put(&store, r));
            }
            assert_eq!(get(&store, &results[0].key).unwrap(), results[0]);
        }

        // Change the last digit of the middle line's op count: its JSON
        // still decodes to an envelope for the same key, so only the CRC
        // can tell. That line misses and its neighbours are still served.
        let seg = &segments(&root)[0];
        let mut bytes = fs::read(seg).unwrap();
        let start = line_ends(&bytes)[0];
        let field = b"\"n_ops\":";
        let at = start
            + bytes[start..]
                .windows(field.len())
                .position(|w| w == field)
                .unwrap();
        let digits = bytes[at + field.len()..]
            .iter()
            .take_while(|b| b.is_ascii_digit());
        let digit = at + field.len() + digits.count() - 1;
        bytes[digit] = if bytes[digit] == b'0' { b'1' } else { b'0' };
        fs::write(seg, &bytes).unwrap();
        let store = DiskStore::new(&root);
        assert!(
            get(&store, &results[1].key).is_none(),
            "corrupt line misses"
        );
        assert_eq!(get(&store, &results[0].key).unwrap(), results[0]);
        assert_eq!(get(&store, &results[2].key).unwrap(), results[2]);

        // The next put heals the slot, here and after a reopen (a line whose
        // CRC fails is never indexed, so it cannot shadow the new copy).
        assert!(put(&store, &results[1]));
        assert_eq!(get(&store, &results[1].key).unwrap(), results[1]);
        drop(store);
        let store = DiskStore::new(&root);
        assert_eq!(get(&store, &results[1].key).unwrap(), results[1]);
        drop(store);
        let _ = fs::remove_dir_all(&root);

        // A mislabelled line (valid CRC, envelope of another key) misses
        // under both keys, and a put heals it.
        let root = tmpdir("disk-mislabelled");
        let (r, other) = (&results[0], &results[1]);
        fs::create_dir_all(&root).unwrap();
        fs::write(
            root.join("seg-1-0.log"),
            line(&r.key, &other.to_json().render()),
        )
        .unwrap();
        let store = DiskStore::new(&root);
        assert!(get(&store, &r.key).is_none());
        assert!(get(&store, &other.key).is_none());
        assert!(put(&store, r));
        assert_eq!(get(&store, &r.key).unwrap(), *r);
        drop(store);
        let _ = fs::remove_dir_all(&root);
    }

    /// A line written by an older envelope format (no `v` field, or a `v`
    /// below the current 6) must fail closed: the read misses and the next
    /// put heals the slot with a fresh record.
    #[test]
    fn disk_store_rejects_and_heals_pre_v4_entries() {
        let r = &make_results(1)[0];
        let mut doc = match r.to_json() {
            crate::Json::Obj(m) => m,
            _ => unreachable!(),
        };
        doc.remove("v");
        let mut old = vec![("versionless", crate::Json::Obj(doc.clone()).render())];
        for (tag, v) in [("v3", 3.0), ("v5", 5.0)] {
            doc.insert("v".into(), crate::Json::Num(v));
            old.push((tag, crate::Json::Obj(doc.clone()).render()));
        }
        for (tag, json) in old {
            let root = tmpdir(&format!("disk-{tag}"));
            fs::create_dir_all(&root).unwrap();
            fs::write(root.join("seg-1-0.log"), line(&r.key, &json)).unwrap();
            let store = DiskStore::new(&root);
            assert!(get(&store, &r.key).is_none(), "{tag} entry must miss");
            assert!(put(&store, r));
            assert_eq!(get(&store, &r.key).unwrap(), *r, "{tag} slot heals");
            drop(store);
            let _ = fs::remove_dir_all(&root);
        }
    }

    /// Cut a two-segment store at every byte offset of its last three
    /// lines, or zero-fill it from there as a power cut can: on reopen
    /// every line that ends before the cut is served, the cut line misses
    /// and nothing panics. A later put lands in a new segment.
    #[test]
    fn torn_segment_tails_serve_every_complete_line() {
        let root = tmpdir("torn");
        let results = make_results(5);
        let (first, last_three) = results.split_at(2);
        for batch in [first, last_three] {
            let store = DiskStore::new(&root);
            for r in batch {
                assert!(put(&store, r));
            }
        }
        let segs = segments(&root);
        assert_eq!(segs.len(), 2, "one segment per handle");
        let last = &segs[1];
        let bytes = fs::read(last).unwrap();
        let ends = line_ends(&bytes);
        assert_eq!(ends.len(), 3);
        for cut in 0..bytes.len() {
            let mut zeroed = bytes.clone();
            zeroed[cut..].fill(0);
            for torn in [&bytes[..cut], &zeroed[..]] {
                fs::write(last, torn).unwrap();
                let store = DiskStore::new(&root);
                for r in first {
                    assert_eq!(get(&store, &r.key).as_ref(), Some(r), "cut at {cut}");
                }
                for (r, &end) in last_three.iter().zip(&ends) {
                    let want = (end <= cut).then_some(r);
                    assert_eq!(get(&store, &r.key).as_ref(), want, "cut at {cut}");
                }
            }
        }

        // Cut inside the last line: the torn segment is never written
        // again, and the re-put record is served after one more reopen.
        let cut = ends[1] + 10;
        fs::write(last, &bytes[..cut]).unwrap();
        let r = &last_three[2];
        {
            let store = DiskStore::new(&root);
            assert!(get(&store, &r.key).is_none());
            assert!(put(&store, r));
        }
        assert_eq!(segments(&root).len(), 3, "the put starts a new segment");
        assert_eq!(fs::read(last).unwrap().len(), cut, "torn tail left as is");
        assert_eq!(get(&DiskStore::new(&root), &r.key).unwrap(), *r);
        let _ = fs::remove_dir_all(&root);
    }

    /// Only `seg-*.log` files are read: the per-key files of older stores
    /// (`ab/<key>.json`), their per-process `*.jsonl` logs, and bare
    /// envelope lines under a segment name are never served, even though
    /// each holds a current envelope.
    #[test]
    fn older_store_layouts_are_never_served() {
        let root = tmpdir("old-layouts");
        let results = make_results(3);
        let envelope = |r: &CompileResult| format!("{}\n", r.to_json().render());
        let fan_out = root.join(&results[0].key[..2]);
        fs::create_dir_all(&fan_out).unwrap();
        fs::write(
            fan_out.join(format!("{}.json", results[0].key)),
            envelope(&results[0]),
        )
        .unwrap();
        fs::write(root.join("wal-99999-0.jsonl"), envelope(&results[1])).unwrap();
        fs::write(root.join("seg-99999-0.log"), envelope(&results[2])).unwrap();
        let store = DiskStore::new(&root);
        for r in &results {
            assert!(get(&store, &r.key).is_none(), "old layout served");
        }
        drop(store);
        let _ = fs::remove_dir_all(&root);
    }

    /// A flush makes every earlier put readable by a handle opened after
    /// it, and dropping a handle without a flush loses nothing either.
    #[test]
    fn disk_store_persists_on_drop_and_flush() {
        let root = tmpdir("persist");
        let results = make_results(4);
        {
            let store = DiskStore::new(&root);
            for r in &results[..2] {
                assert!(put(&store, r));
            }
            store.flush();
            let reader = DiskStore::new(&root);
            for r in &results[..2] {
                assert_eq!(get(&reader, &r.key).unwrap(), *r);
            }
            for r in &results[2..] {
                assert!(put(&store, r));
            }
        }
        let store = DiskStore::new(&root);
        for r in &results {
            assert_eq!(get(&store, &r.key).unwrap(), *r, "{} lost on drop", r.key);
        }
        drop(store);
        let _ = fs::remove_dir_all(&root);
    }

    /// Two live handles on one root append to their own segments. Each
    /// serves the records on disk when it opened plus its own, and a
    /// handle opened after both serves everything.
    #[test]
    fn live_handles_share_a_root() {
        let root = tmpdir("shared");
        let results = make_results(4);
        let a = DiskStore::new(&root);
        assert!(put(&a, &results[0]));
        a.flush();
        let b = DiskStore::new(&root);
        assert_eq!(get(&b, &results[0].key).unwrap(), results[0]);
        assert!(put(&b, &results[1]));
        assert!(put(&a, &results[2]));
        assert!(put(&b, &results[3]));
        assert!(get(&a, &results[1].key).is_none(), "opened before b's put");
        assert_eq!(get(&a, &results[2].key).unwrap(), results[2]);
        assert_eq!(get(&b, &results[3].key).unwrap(), results[3]);
        assert_eq!(segments(&root).len(), 2);
        drop((a, b));
        let c = DiskStore::new(&root);
        for r in &results {
            assert_eq!(get(&c, &r.key).unwrap(), *r);
        }
        drop(c);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn tiered_cache_promotes_disk_hits() {
        let root = tmpdir("tiered");
        let results = make_results(1);
        let r = &results[0];
        let entry = Cached::new(r.clone());

        // Populate via one cache instance, read via a fresh one (cold
        // memory, warm disk) to exercise promotion. A miss is the engine's
        // to count, so the tiers count only hits.
        let warm = TieredCache::new(64, Some(DiskStore::new(&root)));
        assert!(warm.get(&r.key).is_none());
        warm.put(&r.key, &entry);
        assert_eq!(warm.get(&r.key).unwrap(), entry);
        let snap = warm.stats().snapshot();
        assert_eq!((snap.mem_hits, snap.disk_hits, snap.misses), (1, 0, 0));

        // Barrier, then read the store through a second cache instance:
        // the disk hit carries the same result and the same bytes.
        warm.flush();
        let fresh = TieredCache::new(64, Some(DiskStore::new(&root)));
        assert_eq!(fresh.get(&r.key).unwrap(), entry, "disk hit");
        assert_eq!(fresh.get(&r.key).unwrap(), entry, "promoted to memory");
        let snap = fresh.stats().snapshot();
        assert_eq!((snap.mem_hits, snap.disk_hits, snap.misses), (1, 1, 0));
        let _ = fs::remove_dir_all(&root);
    }
}
