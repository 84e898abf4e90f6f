//! Kernel live ranges and modulo variable expansion.

use vliw_ddg::{Ddg, DepKind};
use vliw_ir::{Loop, VReg};
use vliw_sched::Schedule;

/// A half-open interval `[start, start+len)` on a circle of `circle` cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CyclicInterval {
    /// Start point, already reduced mod `circle`.
    pub start: i64,
    /// Length in cycles, capped at `circle` (== `circle` means "everywhere").
    pub len: i64,
    /// Circumference.
    pub circle: i64,
}

impl CyclicInterval {
    /// Build, reducing `start` and capping `len`.
    pub fn new(start: i64, len: i64, circle: i64) -> Self {
        debug_assert!(circle > 0 && len >= 0);
        CyclicInterval {
            start: start.rem_euclid(circle),
            len: len.min(circle),
            circle,
        }
    }

    /// Do two intervals on the same circle overlap?
    pub fn overlaps(&self, other: &CyclicInterval) -> bool {
        debug_assert_eq!(self.circle, other.circle);
        if self.len == 0 || other.len == 0 {
            return false;
        }
        if self.len == self.circle || other.len == other.circle {
            return true;
        }
        let d1 = (other.start - self.start).rem_euclid(self.circle);
        let d2 = (self.start - other.start).rem_euclid(self.circle);
        d1 < self.len || d2 < other.len
    }

    /// Does the interval cover circle point `p`?
    pub fn covers(&self, p: i64) -> bool {
        if self.len == self.circle {
            return true;
        }
        (p.rem_euclid(self.circle) - self.start).rem_euclid(self.circle) < self.len
    }
}

/// One colourable node: an MVE instance of a virtual register.
#[derive(Debug, Clone)]
pub struct LiveRange {
    /// The virtual register.
    pub vreg: VReg,
    /// MVE instance number (0 for invariants).
    pub instance: u32,
    /// Occupancy on the unrolled-kernel circle.
    pub interval: CyclicInterval,
    /// Spill cost: static use+def count of the register (Chaitin's metric,
    /// uniform depth since the corpus is innermost loops).
    pub cost: f64,
}

/// Compute the MVE unroll factor and all live ranges of `body` under
/// schedule `s`.
///
/// Per register: `start = min issue time of its defs`; `end = max over flow
/// edges out of its defs of (use time + II·distance) + 1`; live-outs persist
/// one extra II past their def (they must survive into the next stage);
/// dead defs hold their register until the write completes. Invariants
/// (live-in, never defined) occupy the full circle.
///
/// Returns `(unroll factor K, ranges)` — every loop-variant register
/// contributes `K` instances whose intervals are the base interval shifted
/// by `k·II` on the circle of `K·II` cycles.
pub fn kernel_live_ranges(
    body: &Loop,
    ddg: &Ddg,
    s: &Schedule,
    lat_of: impl Fn(vliw_ir::OpId) -> i64,
) -> (u32, Vec<LiveRange>) {
    let ii = s.ii as i64;
    let n = body.n_vregs();
    let mut start = vec![i64::MAX; n];
    let mut end = vec![i64::MIN; n];

    for op in &body.ops {
        if let Some(d) = op.def {
            let t = s.time(op.id);
            start[d.index()] = start[d.index()].min(t);
            // Hold at least until the value is written.
            end[d.index()] = end[d.index()].max(t + lat_of(op.id));
        }
    }
    for e in ddg.edges() {
        if e.kind != DepKind::Flow {
            continue;
        }
        let Some(d) = body.op(e.from).def else {
            continue;
        };
        let use_end = s.time(e.to) + ii * e.distance as i64 + 1;
        end[d.index()] = end[d.index()].max(use_end);
    }
    for &v in &body.live_out {
        if start[v.index()] != i64::MAX {
            end[v.index()] = end[v.index()].max(start[v.index()] + ii);
        }
    }

    // Unroll factor.
    let mut k = 1u32;
    for i in 0..n {
        if start[i] != i64::MAX {
            let life = (end[i] - start[i]).max(1);
            k = k.max(((life + ii - 1) / ii) as u32);
        }
    }
    let circle = k as i64 * ii;

    // Spill cost: ops defining plus ops reading each register, one pass.
    // (A register outside the body's register file has no range to cost.)
    let mut refs = vec![0u32; n];
    for op in &body.ops {
        for v in op.def.into_iter().chain(op.distinct_uses()) {
            if let Some(r) = refs.get_mut(v.index()) {
                *r += 1;
            }
        }
    }
    let mut live_in = vec![false; n];
    for &v in &body.live_in {
        if let Some(l) = live_in.get_mut(v.index()) {
            *l = true;
        }
    }

    let mut ranges = Vec::new();
    for v in (0..n as u32).map(VReg) {
        let i = v.index();
        let cost = refs[i] as f64;
        if start[i] == i64::MAX {
            // Never defined. Live-in invariants hold a register throughout;
            // unreferenced registers (none in practice) are skipped.
            if live_in[i] {
                ranges.push(LiveRange {
                    vreg: v,
                    instance: 0,
                    interval: CyclicInterval::new(0, circle, circle),
                    cost: cost.max(1.0),
                });
            }
            continue;
        }
        let life = (end[i] - start[i]).max(1);
        for inst in 0..k {
            ranges.push(LiveRange {
                vreg: v,
                instance: inst,
                interval: CyclicInterval::new(start[i] + inst as i64 * ii, life, circle),
                cost: cost.max(1.0),
            });
        }
    }
    (k, ranges)
}

/// Maximum number of simultaneously live ranges among `ranges` (register
/// pressure on the circle).
pub fn max_pressure(ranges: &[LiveRange]) -> usize {
    max_pressure_of(ranges.iter().map(|r| r.interval))
}

/// Maximum number of `intervals` covering one point of their (shared)
/// circle: one sweep over a difference array of the circle's points.
pub(crate) fn max_pressure_of(intervals: impl Iterator<Item = CyclicInterval>) -> usize {
    let mut diff: Vec<i64> = Vec::new();
    for iv in intervals {
        let c = iv.circle;
        if diff.is_empty() {
            diff.resize(c as usize + 1, 0);
        }
        debug_assert_eq!(diff.len(), c as usize + 1, "one circle per sweep");
        if iv.len <= 0 {
            continue;
        }
        let (start, end) = if iv.len >= c {
            (0, c)
        } else {
            let s = iv.start.rem_euclid(c);
            (s, s + iv.len)
        };
        diff[start as usize] += 1;
        if end <= c {
            diff[end as usize] -= 1;
        } else {
            diff[c as usize] -= 1;
            diff[0] += 1;
            diff[(end - c) as usize] -= 1;
        }
    }
    let (mut live, mut peak) = (0i64, 0i64);
    for d in diff.iter().take(diff.len().saturating_sub(1)) {
        live += d;
        peak = peak.max(live);
    }
    peak as usize
}

/// Point mask of an interval on a circle of at most 64 cycles: bit `p` set
/// iff the interval covers point `p`, so two intervals overlap exactly
/// when their masks intersect.
pub(crate) fn point_mask(iv: &CyclicInterval) -> u64 {
    debug_assert!(iv.circle <= 64);
    let full = if iv.circle == 64 {
        u64::MAX
    } else {
        (1u64 << iv.circle) - 1
    };
    if iv.len <= 0 {
        return 0;
    }
    if iv.len >= iv.circle {
        return full;
    }
    let s = iv.start.rem_euclid(iv.circle) as u32;
    let arc = (1u64 << iv.len) - 1;
    if s == 0 {
        return arc;
    }
    (arc << s | arc >> (iv.circle as u32 - s)) & full
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_ddg::build_ddg;
    use vliw_ir::{LoopBuilder, RegClass};
    use vliw_machine::MachineDesc;
    use vliw_sched::{schedule_loop, ImsConfig, SchedProblem};

    #[test]
    fn interval_overlap_basics() {
        let a = CyclicInterval::new(0, 3, 10);
        let b = CyclicInterval::new(2, 2, 10);
        let c = CyclicInterval::new(5, 3, 10);
        let wrap = CyclicInterval::new(8, 4, 10); // covers 8,9,0,1
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(wrap.overlaps(&a));
        assert!(!wrap.overlaps(&c));
        assert!(wrap.covers(9) && wrap.covers(1) && !wrap.covers(2));
    }

    #[test]
    fn full_circle_overlaps_everything() {
        let full = CyclicInterval::new(3, 99, 7);
        assert_eq!(full.len, 7);
        let tiny = CyclicInterval::new(5, 1, 7);
        assert!(full.overlaps(&tiny));
        assert!(tiny.overlaps(&full));
    }

    #[test]
    fn empty_interval_never_overlaps() {
        let e = CyclicInterval::new(0, 0, 5);
        let a = CyclicInterval::new(0, 5, 5);
        assert!(!e.overlaps(&a));
        assert!(!a.overlaps(&e));
    }

    fn pipeline(l: &Loop, m: &MachineDesc) -> (Ddg, Schedule) {
        let g = build_ddg(l, &m.latencies);
        let p = SchedProblem::ideal(l, m);
        let s = schedule_loop(&p, &g, &ImsConfig::default()).unwrap();
        (g, s)
    }

    #[test]
    fn long_lived_value_forces_unroll() {
        // On a wide machine II is small but the load→use chain spans many
        // cycles ⇒ lifetime > II ⇒ K > 1.
        let mut b = LoopBuilder::new("k");
        let x = b.array("x", RegClass::Float, 256);
        let y = b.array("y", RegClass::Float, 256);
        for u in 0..4i64 {
            let v = b.load(x, u, 4);
            let w = b.fmul(v, v);
            let w2 = b.fmul(w, w);
            let w3 = b.fadd(w2, v); // v stays live across the chain
            b.store(y, u, 4, w3);
        }
        let l = b.finish(64);
        let m = MachineDesc::monolithic(16);
        let (g, s) = pipeline(&l, &m);
        let (k, ranges) =
            kernel_live_ranges(&l, &g, &s, |op| m.latencies.of(l.op(op).opcode) as i64);
        assert!(k > 1, "expected MVE unroll, got K={k}");
        // Every variant vreg has exactly K instances.
        let v0_instances = ranges.iter().filter(|r| r.vreg == VReg(0)).count();
        assert_eq!(v0_instances, k as usize);
    }

    #[test]
    fn invariant_covers_full_circle() {
        let mut b = LoopBuilder::new("inv");
        let x = b.array("x", RegClass::Float, 64);
        let a = b.live_in_float("a");
        let v = b.load(x, 0, 1);
        let w = b.fmul(a, v);
        b.store(x, 0, 1, w);
        let l = b.finish(64);
        let m = MachineDesc::monolithic(16);
        let (g, s) = pipeline(&l, &m);
        let (_, ranges) =
            kernel_live_ranges(&l, &g, &s, |op| m.latencies.of(l.op(op).opcode) as i64);
        let a_range = ranges.iter().find(|r| r.vreg == a).unwrap();
        assert_eq!(a_range.interval.len, a_range.interval.circle);
    }

    #[test]
    fn pressure_counts_overlaps() {
        let circle = 4;
        let mk = |s, l| LiveRange {
            vreg: VReg(0),
            instance: 0,
            interval: CyclicInterval::new(s, l, circle),
            cost: 1.0,
        };
        let ranges = vec![mk(0, 2), mk(1, 2), mk(3, 1)];
        assert_eq!(max_pressure(&ranges), 2);
    }
}
