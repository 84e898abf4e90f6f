//! In-memory span recorder for the traced mode.
//!
//! Spans are recorded around the benchmark's own calls into each public
//! layer (nothing inside the program is instrumented). A span carries its
//! name, start and end, the enclosing span and the op it belongs to; spans
//! stay in memory and are written out once, when the run ends. With the
//! recorder off, [`span`] is a plain call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded layer call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u32,
}

struct Recorder {
    on: bool,
    epoch: Instant,
    op: u32,
    stack: Vec<u32>,
    spans: Vec<Span>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        epoch: Instant::now(),
        op: 0,
        stack: Vec::new(),
        spans: Vec::new(),
    });
}

/// Start (or stop) recording on this thread.
pub fn set_enabled(on: bool) {
    REC.with(|r| r.borrow_mut().on = on);
}

/// Tag the spans that follow with op id `op`.
pub fn set_op(op: u32) {
    REC.with(|r| r.borrow_mut().op = op);
}

/// Run `f` inside a span named `name` (a plain call while recording is off).
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let idx = REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return None;
        }
        let idx = r.spans.len() as u32;
        let start_ns = r.epoch.elapsed().as_nanos() as u64;
        let (parent, op) = (r.stack.last().copied(), r.op);
        r.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        r.stack.push(idx);
        Some(idx)
    });
    let out = f();
    if let Some(idx) = idx {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let end = r.epoch.elapsed().as_nanos() as u64;
            r.spans[idx as usize].end_ns = end;
            r.stack.pop();
        });
    }
    out
}

/// Take every span recorded so far, leaving the recorder empty.
pub fn take() -> Vec<Span> {
    REC.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Per-name totals over a span set.
#[derive(Debug, Default, Clone)]
pub struct Totals {
    /// Self time (span minus its children) per span name, in ms.
    pub self_ms: BTreeMap<&'static str, f64>,
    /// Inclusive time per span name, in ms.
    pub incl_ms: BTreeMap<&'static str, f64>,
    /// Calls per span name.
    pub calls: BTreeMap<&'static str, u64>,
    /// Sum of the durations of spans with no parent, in ms.
    pub top_level_ms: f64,
}

impl Totals {
    pub fn of(spans: &[Span]) -> Totals {
        let mut t = Totals::default();
        for s in spans {
            let d = (s.end_ns - s.start_ns) as f64 / 1e6;
            *t.self_ms.entry(s.name).or_default() += d;
            *t.incl_ms.entry(s.name).or_default() += d;
            *t.calls.entry(s.name).or_default() += 1;
            match s.parent {
                Some(p) => *t.self_ms.entry(spans[p as usize].name).or_default() -= d,
                None => t.top_level_ms += d,
            }
        }
        t
    }
    pub fn self_of(&self, name: &str) -> f64 {
        self.self_ms.get(name).copied().unwrap_or(0.0)
    }
    pub fn incl_of(&self, name: &str) -> f64 {
        self.incl_ms.get(name).copied().unwrap_or(0.0)
    }
    pub fn calls_of(&self, name: &str) -> u64 {
        self.calls.get(name).copied().unwrap_or(0)
    }
}

/// Write spans as JSON lines (one span per line) to `path`.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::with_capacity(spans.len() * 96);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
            s.name, s.start_ns, s.end_ns, s.op
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}
