//! Seeded fuzzing of the disk store's segment decoder.
//!
//! Random bytes, and random cuts of a real segment (bare, or followed by
//! random bytes), are written as a segment, opened and read back. Every
//! read must be a miss or exactly the record that was written (its result
//! and its envelope bytes), every line that ends before a cut must still be
//! served, nothing may panic, and no single allocation may exceed the
//! segment's size (plus a fixed slack for paths and the index's first
//! table).

use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use vliw_loopgen::{corpus_with, CorpusSpec};
use vliw_machine::MachineDesc;
use vliw_pipeline::{run_loop, PipelineConfig};
use vliw_serve::{Cached, CompileRequest, CompileResult, DiskStore};

/// Allowance for allocations that do not depend on the segment's bytes.
const SLACK: usize = 1024;

thread_local! {
    /// Largest single allocation this thread has asked for.
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, recording each thread's largest request.
struct PeakAlloc;

fn note(size: usize) {
    let _ = PEAK.try_with(|p| p.set(p.get().max(size)));
}

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// A real segment of four records and the results it holds, in line order.
fn fixture() -> &'static (Vec<u8>, Vec<CompileResult>) {
    static FIXTURE: OnceLock<(Vec<u8>, Vec<CompileResult>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let spec = CorpusSpec {
            n: 4,
            ..Default::default()
        };
        let machine = MachineDesc::embedded(2, 4);
        let cfg = PipelineConfig::default();
        let results: Vec<CompileResult> = corpus_with(&spec)
            .iter()
            .map(|l| {
                let req = CompileRequest::from_parts(l, &machine, &cfg);
                CompileResult::from_loop_result(req.cache_key(), &run_loop(l, &machine, &cfg))
            })
            .collect();
        let root = scratch("fixture");
        {
            let store = DiskStore::new(&root);
            for r in &results {
                assert!(store.put(&r.key, &r.to_json().render()));
            }
        }
        let seg = std::fs::read_dir(&root).unwrap().next().unwrap().unwrap();
        let bytes = std::fs::read(seg.path()).unwrap();
        let _ = std::fs::remove_dir_all(&root);
        (bytes, results)
    })
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vliw-serve-segfuzz-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Open a root whose only segment holds `bytes` and read every fixture
/// key: what each read served, and the largest allocation made meanwhile.
fn open_and_read(tag: &str, bytes: &[u8]) -> (Vec<Option<Arc<Cached>>>, usize) {
    let root = scratch(tag);
    std::fs::create_dir_all(&root).unwrap();
    std::fs::write(root.join("seg-1-0.log"), bytes).unwrap();
    let keys: Vec<&str> = fixture().1.iter().map(|r| r.key.as_str()).collect();
    PEAK.with(|p| p.set(0));
    let store = DiskStore::new(&root);
    let served = keys.iter().map(|k| store.get(k)).collect();
    let peak = PEAK.with(Cell::get);
    drop(store);
    let _ = std::fs::remove_dir_all(&root);
    (served, peak)
}

/// Byte offset just past each line's newline.
fn line_ends(bytes: &[u8]) -> Vec<usize> {
    (0..bytes.len())
        .filter(|&i| bytes[i] == b'\n')
        .map(|i| i + 1)
        .collect()
}

/// Bytes biased toward the format's delimiters and digits, so random
/// input also reaches the field split and the CRC check.
fn segment_byte() -> impl Strategy<Value = u8> {
    prop_oneof![
        any::<u8>(),
        prop::sample::select(vec![b'\n', b' ', b'0', b'9', b'a', b'f', b'{', b'"']),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn random_segment_bytes_only_miss(bytes in prop::collection::vec(segment_byte(), 0..4096)) {
        let (served, peak) = open_and_read("random", &bytes);
        prop_assert!(served.iter().all(Option::is_none));
        prop_assert!(peak <= bytes.len() + SLACK, "peak {peak} over {}", bytes.len());
    }

    #[test]
    fn cut_segments_serve_only_complete_records(
        cut in 0usize..1 << 20,
        tail in prop::collection::vec(segment_byte(), 0..512),
    ) {
        let (seg, results) = fixture();
        let cut = cut % (seg.len() + 1);
        for bytes in [seg[..cut].to_vec(), [&seg[..cut], &tail[..]].concat()] {
            let (served, peak) = open_and_read("cut", &bytes);
            for ((r, got), end) in results.iter().zip(&served).zip(line_ends(seg)) {
                let want = (end <= cut).then(|| Cached::new(r.clone()));
                prop_assert_eq!(got, &want, "cut at {}", cut);
            }
            prop_assert!(peak <= bytes.len() + SLACK, "peak {peak} over {}", bytes.len());
        }
    }
}
