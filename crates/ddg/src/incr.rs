//! Incremental difference-constraint feasibility.
//!
//! A difference-constraint system `pot[to] ≥ pot[from] + w(e)` over a fixed
//! edge set is satisfiable iff the graph has no positive cycle; the least
//! non-negative solution is the longest-path potential vector from a virtual
//! source (exactly what [`crate::Ddg::is_feasible_with`] computes from
//! scratch in O(V·E) per probe).
//!
//! Branch-and-bound searches re-run that probe at every tree node even
//! though a single decision changes only a handful of edge weights. This
//! module maintains the least fixpoint **incrementally**: a decision opens a
//! frame, raises the weights it commits to, and propagates relaxations only
//! from the changed edges outward; backtracking pops the frame, restoring
//! potentials and weights from a trail in O(work done) — O(1) per entry,
//! with nothing recomputed.
//!
//! Soundness rests on monotonicity: within the lifetime of the structure,
//! weights may only *increase* (decisions commit copies / fix residues,
//! never relax a constraint), so the stored potentials are always a lower
//! bound on the new least fixpoint and worklist relaxation from the changed
//! edges converges to it. A feasible system's potentials never exceed the
//! sum of its positive edge weights (a longest simple path uses each edge
//! at most once), so any potential pushed past that bound proves a positive
//! cycle. On failure the offending cycle is extracted (for conflict
//! learning) and the frame is rolled back automatically.

use crate::graph::Ddg;

/// One edge of the constraint system: `pot[to] − pot[from] ≥ weight`.
#[derive(Debug, Clone, Copy)]
struct CEdge {
    from: u32,
    to: u32,
    weight: i64,
}

/// Incremental longest-path maintainer for a difference-constraint system
/// with monotonically increasing integer edge weights.
///
/// ```text
/// let mut m = IncrementalFeasibility::new(n, edges);
/// assert!(m.root_feasible());
/// m.push_frame();
/// m.set_weight(e, w);                  // w ≥ current weight of e
/// if m.propagate() {
///     // descend; later:
///     m.pop_frame();                   // O(1) per trailed entry
/// } else {
///     // frame already rolled back; m.conflict_cycle() names a positive
///     // cycle of the rejected system
/// }
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalFeasibility {
    n: usize,
    edges: Vec<CEdge>,
    /// Outgoing constraint-edge indices per node.
    out: Vec<Vec<u32>>,
    /// Least-fixpoint potentials of the current system (all ≥ 0).
    pot: Vec<i64>,
    /// Σ max(0, weight): cap above which a potential proves a positive cycle.
    bound: i64,
    /// Potential trail: (node, previous value), restored in reverse on pop.
    pot_trail: Vec<(u32, i64)>,
    /// Weight trail: (edge, previous value), restored in reverse on pop.
    weight_trail: Vec<(u32, i64)>,
    /// Frame marks: (pot_trail len, weight_trail len) at `push_frame`.
    frames: Vec<(usize, usize)>,
    /// Edges raised since the last `propagate`.
    dirty: Vec<u32>,
    /// Node worklist scratch for propagation.
    queue: Vec<u32>,
    in_queue: Vec<bool>,
    /// Edges of the positive cycle found by the last failed `propagate`.
    conflict: Vec<u32>,
    root_feasible: bool,
}

impl IncrementalFeasibility {
    /// Build the system over `n` nodes from `(from, to, weight)` constraints
    /// and solve it once from scratch. If the initial system already has a
    /// positive cycle, [`Self::root_feasible`] is `false` and every
    /// `propagate` fails (with the root cycle as conflict).
    pub fn new(n: usize, constraints: impl IntoIterator<Item = (u32, u32, i64)>) -> Self {
        let edges: Vec<CEdge> = constraints
            .into_iter()
            .map(|(from, to, weight)| {
                debug_assert!((from as usize) < n && (to as usize) < n);
                CEdge { from, to, weight }
            })
            .collect();
        let mut out = vec![Vec::new(); n];
        for (i, e) in edges.iter().enumerate() {
            out[e.from as usize].push(i as u32);
        }
        let bound = edges.iter().map(|e| e.weight.max(0)).sum();
        let mut m = IncrementalFeasibility {
            n,
            edges,
            out,
            pot: vec![0; n],
            bound,
            pot_trail: Vec::new(),
            weight_trail: Vec::new(),
            frames: Vec::new(),
            dirty: Vec::new(),
            queue: Vec::new(),
            in_queue: vec![false; n],
            conflict: Vec::new(),
            root_feasible: true,
        };
        // Solve the root system: every edge is dirty, no frame to roll back.
        m.dirty.extend(0..m.edges.len() as u32);
        m.root_feasible = m.relax();
        if !m.root_feasible {
            m.conflict = m.find_positive_cycle();
        }
        m.pot_trail.clear(); // the root solution is the floor, never undone
        m
    }

    /// Build the adjusted-weight system of `ddg` at `ii` — edge weights
    /// `latency + extra(i) − II·distance`, indexed like `ddg.edges()` — and
    /// solve it. The result agrees with [`Ddg::is_feasible_adjusted`] and
    /// then tracks weight increases incrementally.
    pub fn for_ddg(ddg: &Ddg, ii: u32, extra: impl Fn(usize) -> i64) -> Self {
        let iil = ii as i64;
        Self::new(
            ddg.n_ops(),
            ddg.edges().iter().enumerate().map(|(i, e)| {
                let w = e.latency + extra(i) - iil * e.distance as i64;
                (e.from.index() as u32, e.to.index() as u32, w)
            }),
        )
    }

    /// Was the initial (pre-decision) system satisfiable?
    #[inline]
    pub fn root_feasible(&self) -> bool {
        self.root_feasible
    }

    /// Current weight of constraint `e`.
    #[inline]
    pub fn weight(&self, e: usize) -> i64 {
        self.edges[e].weight
    }

    /// The least-fixpoint potentials of the current system (valid only while
    /// the last `propagate` succeeded). `pot[v]` is the longest-path weight
    /// from the virtual source, ≥ 0.
    #[inline]
    pub fn potentials(&self) -> &[i64] {
        &self.pot
    }

    /// Edges (by constraint index) of the positive cycle that made the last
    /// `propagate` fail. Empty if none has failed.
    #[inline]
    pub fn conflict_cycle(&self) -> &[u32] {
        &self.conflict
    }

    /// Open a decision frame. Weight changes and potential updates until the
    /// matching `pop_frame` (or a failed `propagate`) are undone together.
    pub fn push_frame(&mut self) {
        self.frames
            .push((self.pot_trail.len(), self.weight_trail.len()));
    }

    /// Raise constraint `e` to `w` within the current frame. Monotone:
    /// `w` must be ≥ the current weight (equal is a no-op).
    pub fn set_weight(&mut self, e: usize, w: i64) {
        let old = self.edges[e].weight;
        debug_assert!(w >= old, "weights may only increase within a frame");
        if w == old {
            return;
        }
        debug_assert!(!self.frames.is_empty(), "set_weight outside a frame");
        self.weight_trail.push((e as u32, old));
        self.bound += w.max(0) - old.max(0);
        self.edges[e].weight = w;
        self.dirty.push(e as u32);
    }

    /// Re-establish the least fixpoint after the weight raises of this
    /// frame. `true`: the system is still satisfiable and `potentials()` is
    /// its least solution. `false`: a positive cycle exists — it is stored
    /// in [`Self::conflict_cycle`], and **the current frame has been rolled
    /// back and closed** (as if `pop_frame` ran).
    pub fn propagate(&mut self) -> bool {
        if !self.root_feasible {
            self.rollback_frame();
            return false;
        }
        if self.relax() {
            return true;
        }
        self.conflict = self.find_positive_cycle();
        self.rollback_frame();
        false
    }

    /// Undo the top frame: restore every potential and weight it changed.
    pub fn pop_frame(&mut self) {
        self.rollback_frame();
    }

    fn rollback_frame(&mut self) {
        let (pmark, wmark) = self.frames.pop().expect("no frame to pop");
        while self.pot_trail.len() > pmark {
            let (v, old) = self.pot_trail.pop().expect("trail underflow");
            self.pot[v as usize] = old;
        }
        while self.weight_trail.len() > wmark {
            let (e, old) = self.weight_trail.pop().expect("trail underflow");
            self.bound += old.max(0) - self.edges[e as usize].weight.max(0);
            self.edges[e as usize].weight = old;
        }
        self.dirty.clear();
    }

    /// Worklist relaxation from the dirty edges. `false` on positive cycle
    /// (potentials left mid-flight; caller rolls back).
    fn relax(&mut self) -> bool {
        debug_assert!(self.queue.is_empty());
        let mut qhead = 0usize;
        // Seed: relax each raised edge once; enqueue targets that moved.
        while let Some(ei) = self.dirty.pop() {
            let e = self.edges[ei as usize];
            let cand = self.pot[e.from as usize] + e.weight;
            if cand > self.pot[e.to as usize] {
                if cand > self.bound {
                    for &v in &self.queue {
                        self.in_queue[v as usize] = false;
                    }
                    self.queue.clear();
                    return false;
                }
                self.pot_trail.push((e.to, self.pot[e.to as usize]));
                self.pot[e.to as usize] = cand;
                if !self.in_queue[e.to as usize] {
                    self.in_queue[e.to as usize] = true;
                    self.queue.push(e.to);
                }
            }
        }
        while qhead < self.queue.len() {
            let u = self.queue[qhead] as usize;
            qhead += 1;
            self.in_queue[u] = false;
            let pu = self.pot[u];
            for i in 0..self.out[u].len() {
                let ei = self.out[u][i] as usize;
                let e = self.edges[ei];
                let cand = pu + e.weight;
                if cand > self.pot[e.to as usize] {
                    if cand > self.bound {
                        for &v in &self.queue[qhead..] {
                            self.in_queue[v as usize] = false;
                        }
                        self.queue.clear();
                        return false;
                    }
                    self.pot_trail.push((e.to, self.pot[e.to as usize]));
                    self.pot[e.to as usize] = cand;
                    if !self.in_queue[e.to as usize] {
                        self.in_queue[e.to as usize] = true;
                        self.queue.push(e.to);
                    }
                }
            }
        }
        self.queue.clear();
        true
    }

    /// Find one positive cycle of the *current* weights. Only called after a
    /// failed relaxation, so one exists: run a fresh Bellman–Ford with
    /// parent-edge tracking for n passes; any node still relaxing on the
    /// final pass sits on (or downstream of) a positive cycle, and walking n
    /// parents from it must land inside one. O(V·E), failure paths only.
    fn find_positive_cycle(&self) -> Vec<u32> {
        let n = self.n;
        let mut pot = vec![0i64; n];
        let mut parent = vec![u32::MAX; n];
        let mut last = None;
        for _pass in 0..=n {
            let mut changed = None;
            for (i, e) in self.edges.iter().enumerate() {
                let cand = pot[e.from as usize] + e.weight;
                if cand > pot[e.to as usize] {
                    pot[e.to as usize] = cand;
                    parent[e.to as usize] = i as u32;
                    changed = Some(e.to);
                }
            }
            last = changed;
            if changed.is_none() {
                break;
            }
        }
        let Some(mut v) = last else {
            return Vec::new(); // defensive: no cycle after all
        };
        // Walk n parent edges to guarantee we are on the cycle itself.
        for _ in 0..n {
            v = self.edges[parent[v as usize] as usize].from;
        }
        let start = v;
        let mut cycle = Vec::new();
        loop {
            let ei = parent[v as usize];
            cycle.push(ei);
            v = self.edges[ei as usize].from;
            if v == start {
                break;
            }
        }
        cycle.reverse();
        cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{DepEdge, DepKind};
    use vliw_ir::OpId;

    fn edge(from: u32, to: u32, lat: i64, dist: u32) -> DepEdge {
        DepEdge {
            from: OpId(from),
            to: OpId(to),
            latency: lat,
            distance: dist,
            kind: DepKind::Flow,
        }
    }

    #[test]
    fn matches_scratch_probe_at_root() {
        let g = Ddg::from_edges(2, [edge(0, 1, 3, 0), edge(1, 0, 2, 1)]);
        // RecII = 5.
        assert!(!IncrementalFeasibility::for_ddg(&g, 4, |_| 0).root_feasible());
        let m = IncrementalFeasibility::for_ddg(&g, 5, |_| 0);
        assert!(m.root_feasible());
        let mut s = Vec::new();
        assert!(g.is_feasible_with(5, &mut s));
        assert_eq!(m.potentials(), &s[..]);
    }

    #[test]
    fn raise_propagate_rollback_restores_exactly() {
        let g = Ddg::from_edges(2, [edge(0, 1, 3, 0), edge(1, 0, 2, 1)]);
        let mut m = IncrementalFeasibility::for_ddg(&g, 6, |_| 0);
        let before = m.potentials().to_vec();
        // +2 on the forward edge keeps the cycle ≤ 0 at II=6 (3+2+2−6=1>0 —
        // actually infeasible); +1 stays feasible (3+1+2−6=0).
        m.push_frame();
        m.set_weight(0, m.weight(0) + 1);
        assert!(m.propagate());
        m.pop_frame();
        assert_eq!(m.potentials(), &before[..]);
        m.push_frame();
        m.set_weight(0, m.weight(0) + 2);
        assert!(!m.propagate()); // frame auto-rolled-back
        assert_eq!(m.potentials(), &before[..]);
        assert!(!m.conflict_cycle().is_empty());
    }

    #[test]
    fn conflict_cycle_is_a_positive_cycle() {
        let g = Ddg::from_edges(3, [edge(0, 1, 1, 0), edge(1, 2, 1, 0), edge(2, 0, 1, 1)]);
        let mut m = IncrementalFeasibility::for_ddg(&g, 3, |_| 0);
        assert!(m.root_feasible());
        m.push_frame();
        m.set_weight(0, 2); // cycle weight 2+1+1−3 = 1 > 0
        assert!(!m.propagate());
        let cyc = m.conflict_cycle().to_vec();
        assert!(!cyc.is_empty());
        // The named edges really form a cycle with positive raised weight.
        let total: i64 = cyc
            .iter()
            .map(|&i| {
                let e = g.edges()[i as usize];
                let raised = if i == 0 { 1 } else { 0 };
                e.latency + raised - 3 * e.distance as i64
            })
            .sum();
        assert!(total > 0, "cycle weight {total} not positive");
        for w in cyc.windows(2) {
            assert_eq!(g.edges()[w[0] as usize].to, g.edges()[w[1] as usize].from);
        }
        let (first, last) = (cyc[0], cyc[cyc.len() - 1]);
        assert_eq!(g.edges()[last as usize].to, g.edges()[first as usize].from);
    }

    #[test]
    fn agrees_with_adjusted_oracle_on_random_traces() {
        // Deterministic xorshift; no external randomness.
        let mut state = 0x9E37_79B9_u64;
        let mut next = move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        for _case in 0..200 {
            let n = 2 + next(6) as usize;
            let n_edges = 1 + next(2 * n as u64) as usize;
            let mut edges = Vec::with_capacity(n_edges);
            for _ in 0..n_edges {
                let from = next(n as u64) as u32;
                let to = next(n as u64) as u32;
                let dist = if to <= from {
                    1 + next(2) as u32
                } else {
                    next(2) as u32
                };
                edges.push(edge(from, to, 1 + next(4) as i64, dist));
            }
            let g = Ddg::from_edges(n, edges);
            let ii = 1 + next(8) as u32;
            let mut extra = vec![0i64; g.edges().len()];
            let mut s = Vec::new();
            let oracle_root = g.is_feasible_adjusted(ii, |_| 0, &mut s);
            let mut m = IncrementalFeasibility::for_ddg(&g, ii, |_| 0);
            assert_eq!(
                m.root_feasible(),
                oracle_root,
                "root mismatch n={n} ii={ii}"
            );
            if !oracle_root {
                continue;
            }
            // Random decide/rollback trace: each step raises a few extras in
            // a frame; half the successful frames are popped again.
            for _step in 0..12 {
                // Accumulate raises per edge so set_weight stays monotone.
                let mut raise = vec![0i64; extra.len()];
                for _ in 0..1 + next(3) {
                    raise[next(extra.len() as u64) as usize] += 1 + next(3) as i64;
                }
                let mut trial = extra.clone();
                m.push_frame();
                for (e, &by) in raise.iter().enumerate() {
                    if by == 0 {
                        continue;
                    }
                    trial[e] += by;
                    let ed = g.edges()[e];
                    m.set_weight(e, ed.latency + trial[e] - ii as i64 * ed.distance as i64);
                }
                let ok = g.is_feasible_adjusted(
                    ii,
                    |e| {
                        let idx = g
                            .edges()
                            .iter()
                            .position(|x| std::ptr::eq(x, e))
                            .expect("edge identity");
                        trial[idx]
                    },
                    &mut s,
                );
                assert_eq!(m.propagate(), ok, "trace mismatch n={n} ii={ii}");
                if ok {
                    if next(2) == 0 {
                        m.pop_frame();
                    } else {
                        extra = trial;
                    }
                    // Potentials must match the scratch solve exactly
                    // (both are the least fixpoint).
                    let mut fresh = Vec::new();
                    let extra_now = extra.clone();
                    assert!(g.is_feasible_adjusted(
                        ii,
                        |e| {
                            let idx = g
                                .edges()
                                .iter()
                                .position(|x| std::ptr::eq(x, e))
                                .expect("edge identity");
                            extra_now[idx]
                        },
                        &mut fresh
                    ));
                    assert_eq!(m.potentials(), &fresh[..], "potentials diverged");
                }
            }
        }
    }
}
