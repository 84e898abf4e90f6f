//! The dependence graph data structure.

use std::ops::Index;
use vliw_ir::OpId;

/// Kind of dependence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// True (read-after-write) dependence through a register.
    Flow,
    /// Anti (write-after-read) dependence through a register.
    Anti,
    /// Output (write-after-write) dependence through a register.
    Output,
    /// Memory dependence (any of flow/anti/output through an array).
    Mem,
}

/// One dependence edge: `to` (in iteration `i + distance`) must issue at
/// least `latency` cycles after `from` (in iteration `i`). Under an
/// initiation interval `II`, the scheduling constraint is
/// `cycle(to) ≥ cycle(from) + latency − II·distance`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepEdge {
    /// Source operation.
    pub from: OpId,
    /// Dependent operation.
    pub to: OpId,
    /// Minimum cycles between issue of `from` and issue of `to`.
    pub latency: i64,
    /// Iteration distance ω (0 = same iteration).
    pub distance: u32,
    /// What the edge models.
    pub kind: DepKind,
}

/// Sentinel below which a matrix entry means "no path". Kept well away from
/// `i64::MIN` so additions cannot wrap.
pub const NO_PATH: i64 = i64::MIN / 4;

/// All-pairs longest-path matrix in a flat row-major buffer.
///
/// Produced by [`Ddg::longest_paths`]; reuse one across probes via
/// [`Ddg::longest_paths_into`] to avoid the O(n²) allocation per call.
/// `m[(i, j)]` is the maximum over paths i→j of `Σ latency − II·Σ distance`;
/// entries at or below [`NO_PATH`] mean no path exists.
#[derive(Debug, Clone, Default)]
pub struct PathMatrix {
    n: usize,
    d: Vec<i64>,
}

impl PathMatrix {
    /// An empty matrix, ready to be filled by [`Ddg::longest_paths_into`].
    pub fn new() -> Self {
        PathMatrix::default()
    }

    /// Number of operations (rows/columns).
    #[inline]
    pub fn n_ops(&self) -> usize {
        self.n
    }

    /// The longest-path weight i→j, or a value ≤ [`NO_PATH`] if unreachable.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> i64 {
        self.d[i * self.n + j]
    }

    /// Does a path i→j exist?
    #[inline]
    pub fn has_path(&self, i: usize, j: usize) -> bool {
        self.at(i, j) > NO_PATH
    }

    /// One full row (length `n_ops`).
    #[inline]
    pub fn row(&self, i: usize) -> &[i64] {
        &self.d[i * self.n..(i + 1) * self.n]
    }

    fn reset(&mut self, n: usize) {
        self.n = n;
        self.d.clear();
        self.d.resize(n * n, NO_PATH);
    }
}

impl Index<(usize, usize)> for PathMatrix {
    type Output = i64;
    fn index(&self, (i, j): (usize, usize)) -> &i64 {
        &self.d[i * self.n + j]
    }
}

/// A dependence graph over the operations of one loop body.
///
/// The edges live in one list, in insertion order. Each op's outgoing and
/// incoming edges are ranges of two index arrays (`succ`, `pred`) sorted by
/// op, with `succ_start`/`pred_start` holding one offset per op plus one;
/// within an op the indices ascend, so every adjacency list keeps the order
/// its edges were added in.
#[derive(Debug, Clone)]
pub struct Ddg {
    n: usize,
    edges: Vec<DepEdge>,
    succ_start: Vec<u32>,
    succ: Vec<u32>,
    pred_start: Vec<u32>,
    pred: Vec<u32>,
}

/// Edges being collected for a [`Ddg`], merged on insertion: a duplicate
/// `(from, to, distance, kind)` keeps the first edge's position and the
/// largest latency. Each op's earlier edges are a chain through `next`
/// starting at `head[op]`, newest first.
pub(crate) struct EdgeSet {
    n: usize,
    edges: Vec<DepEdge>,
    head: Vec<u32>,
    next: Vec<u32>,
}

/// End of an [`EdgeSet`] chain.
const NIL: u32 = u32::MAX;

impl EdgeSet {
    /// An empty set over `n` operations with room for `cap` edges.
    pub(crate) fn with_capacity(n: usize, cap: usize) -> Self {
        EdgeSet {
            n,
            edges: Vec::with_capacity(cap),
            head: vec![NIL; n],
            next: Vec::with_capacity(cap),
        }
    }

    /// Add `e`, or raise the latency of the edge it duplicates.
    pub(crate) fn add(&mut self, e: DepEdge) {
        debug_assert!(e.from.index() < self.n && e.to.index() < self.n);
        let mut i = self.head[e.from.index()];
        while i != NIL {
            let old = &mut self.edges[i as usize];
            if old.to == e.to && old.distance == e.distance && old.kind == e.kind {
                old.latency = old.latency.max(e.latency);
                return;
            }
            i = self.next[i as usize];
        }
        self.next.push(self.head[e.from.index()]);
        self.head[e.from.index()] = self.edges.len() as u32;
        self.edges.push(e);
    }

    /// Freeze into a graph with offset adjacency.
    pub(crate) fn finish(self) -> Ddg {
        let EdgeSet { n, edges, .. } = self;
        let (succ_start, succ) = group_by(n, &edges, |e| e.from.index());
        let (pred_start, pred) = group_by(n, &edges, |e| e.to.index());
        Ddg {
            n,
            edges,
            succ_start,
            succ,
            pred_start,
            pred,
        }
    }
}

/// Counting sort of edge indices by `key`: returns `n + 1` offsets and the
/// indices, ascending within each key.
fn group_by(n: usize, edges: &[DepEdge], key: impl Fn(&DepEdge) -> usize) -> (Vec<u32>, Vec<u32>) {
    let mut start = vec![0u32; n + 1];
    for e in edges {
        start[key(e)] += 1;
    }
    // Running sums make `start[k]` the end of key `k`; filling backwards
    // walks each end back to its start.
    let mut acc = 0u32;
    for s in &mut start[..n] {
        acc += *s;
        *s = acc;
    }
    start[n] = acc;
    let mut order = vec![0u32; edges.len()];
    for (i, e) in edges.iter().enumerate().rev() {
        let k = key(e);
        start[k] -= 1;
        order[start[k] as usize] = i as u32;
    }
    (start, order)
}

impl Ddg {
    /// The graph over `n` operations holding `edges` in order. A duplicate
    /// `(from, to, distance, kind)` keeps the first edge's position and the
    /// largest latency.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = DepEdge>) -> Self {
        let edges = edges.into_iter();
        let mut set = EdgeSet::with_capacity(n, edges.size_hint().0);
        for e in edges {
            set.add(e);
        }
        set.finish()
    }

    /// Number of operations (nodes).
    #[inline]
    pub fn n_ops(&self) -> usize {
        self.n
    }

    /// All edges.
    #[inline]
    pub fn edges(&self) -> &[DepEdge] {
        &self.edges
    }

    /// Indices into [`Ddg::edges`] of `op`'s outgoing edges, ascending.
    #[inline]
    pub(crate) fn succ_indices(&self, op: OpId) -> &[u32] {
        let i = op.index();
        &self.succ[self.succ_start[i] as usize..self.succ_start[i + 1] as usize]
    }

    /// Indices into [`Ddg::edges`] of `op`'s incoming edges, ascending.
    #[inline]
    pub(crate) fn pred_indices(&self, op: OpId) -> &[u32] {
        let i = op.index();
        &self.pred[self.pred_start[i] as usize..self.pred_start[i + 1] as usize]
    }

    /// Outgoing edges of `op`.
    pub fn succs(&self, op: OpId) -> impl Iterator<Item = &DepEdge> {
        self.succ_indices(op)
            .iter()
            .map(move |&i| &self.edges[i as usize])
    }

    /// Incoming edges of `op`.
    pub fn preds(&self, op: OpId) -> impl Iterator<Item = &DepEdge> {
        self.pred_indices(op)
            .iter()
            .map(move |&i| &self.edges[i as usize])
    }

    /// Is the candidate `ii` feasible — i.e. does the graph have **no**
    /// positive cycle under edge weights `latency − II·distance`?
    ///
    /// Bellman–Ford from a virtual source connected to every node with a
    /// zero-weight edge: O(V·E) and no O(n²) matrix, which is what the
    /// per-II probe in iterative modulo scheduling wants. See
    /// [`Ddg::is_feasible_with`] to reuse the O(n) scratch buffer across
    /// probes.
    pub fn is_feasible(&self, ii: u32) -> bool {
        let mut scratch = Vec::new();
        self.is_feasible_with(ii, &mut scratch)
    }

    /// [`Ddg::is_feasible`] with a caller-provided scratch buffer, so a
    /// binary search or II escalation loop performs no per-probe allocation.
    /// On a feasible return, `scratch[v]` holds the longest-path weight from
    /// the virtual source to `v` (≥ 0).
    pub fn is_feasible_with(&self, ii: u32, scratch: &mut Vec<i64>) -> bool {
        let n = self.n;
        scratch.clear();
        scratch.resize(n, 0);
        if n == 0 || self.edges.is_empty() {
            return true;
        }
        // The longest simple path from the virtual source uses at most n
        // real edges; a relaxation that still fires on the n-th pass can
        // only come from a repeated vertex, i.e. a positive cycle.
        for _pass in 0..n {
            let mut changed = false;
            for e in &self.edges {
                let w = e.latency - (ii as i64) * (e.distance as i64);
                let cand = scratch[e.from.index()] + w;
                if cand > scratch[e.to.index()] {
                    scratch[e.to.index()] = cand;
                    changed = true;
                }
            }
            if !changed {
                return true;
            }
        }
        false
    }

    /// [`Ddg::is_feasible_with`] under per-edge latency adjustments: edge
    /// weights become `latency + extra(edge) − II·distance`.
    ///
    /// The joint solver's recurrence propagator probes candidate IIs with
    /// cross-bank flow edges lengthened by the copy latency a partial bank
    /// assignment already commits to, without materialising the clustered
    /// body. `extra` must be non-negative for the probe to stay a sound
    /// relaxation of the copy-inserted graph. On a feasible return,
    /// `scratch[v]` holds the longest-path weight from the virtual source.
    pub fn is_feasible_adjusted(
        &self,
        ii: u32,
        extra: impl Fn(&DepEdge) -> i64,
        scratch: &mut Vec<i64>,
    ) -> bool {
        let n = self.n;
        scratch.clear();
        scratch.resize(n, 0);
        if n == 0 || self.edges.is_empty() {
            return true;
        }
        for _pass in 0..n {
            let mut changed = false;
            for e in &self.edges {
                let w = e.latency + extra(e) - (ii as i64) * (e.distance as i64);
                let cand = scratch[e.from.index()] + w;
                if cand > scratch[e.to.index()] {
                    scratch[e.to.index()] = cand;
                    changed = true;
                }
            }
            if !changed {
                return true;
            }
        }
        false
    }

    /// Per-node longest-path weight from the virtual source under `ii`
    /// (every weight ≥ 0 since the source reaches each node directly), or
    /// `None` if `ii` is infeasible. O(V·E), one O(n) allocation.
    pub fn longest_from_source(&self, ii: u32) -> Option<Vec<i64>> {
        let mut dist = Vec::new();
        self.is_feasible_with(ii, &mut dist).then_some(dist)
    }

    /// Longest-path matrix under a candidate II, or `None` if a positive
    /// cycle exists (II infeasible).
    ///
    /// Floyd–Warshall, O(n³) time and O(n²) space — use only when the
    /// all-pairs matrix is genuinely needed; per-II feasibility probes
    /// should call the O(V·E) [`Ddg::is_feasible`] instead. Allocates a
    /// fresh matrix; reuse one across calls via [`Ddg::longest_paths_into`].
    pub fn longest_paths(&self, ii: u32) -> Option<PathMatrix> {
        let mut m = PathMatrix::new();
        self.longest_paths_into(ii, &mut m).then_some(m)
    }

    /// Fill `m` with the all-pairs longest paths under `ii`, reusing its
    /// buffer. Returns `false` (matrix contents unspecified) if a positive
    /// cycle exists.
    pub fn longest_paths_into(&self, ii: u32, m: &mut PathMatrix) -> bool {
        let n = self.n;
        m.reset(n);
        let d = &mut m.d;
        for e in &self.edges {
            let w = e.latency - (ii as i64) * (e.distance as i64);
            let cur = &mut d[e.from.index() * n + e.to.index()];
            *cur = (*cur).max(w);
        }
        for k in 0..n {
            for i in 0..n {
                let dik = d[i * n + k];
                // Relaxing through k == i is a no-op whenever d[i][i] ≤ 0,
                // and a positive d[i][i] is caught below.
                if dik <= NO_PATH || i == k {
                    if d[i * n + i] > 0 {
                        return false;
                    }
                    continue;
                }
                // Split borrows: row k is read while row i is written.
                let (row_k, row_i) = if i < k {
                    let (lo, hi) = d.split_at_mut(k * n);
                    (&hi[..n], &mut lo[i * n..(i + 1) * n])
                } else {
                    let (lo, hi) = d.split_at_mut(i * n);
                    (&lo[k * n..(k + 1) * n], &mut hi[..n])
                };
                for (dij, &dkj) in row_i.iter_mut().zip(row_k.iter()) {
                    if dkj > NO_PATH {
                        let w = dik + dkj;
                        if w > *dij {
                            *dij = w;
                        }
                    }
                }
                // A positive self-loop through k means a positive cycle.
                if d[i * n + i] > 0 {
                    return false;
                }
            }
        }
        for i in 0..n {
            if d[i * n + i] > 0 {
                return false;
            }
        }
        true
    }

    /// True if some dependence cycle exists (i.e. the loop has a recurrence).
    ///
    /// Plain iterative DFS over the full graph — O(V+E), no matrix.
    pub fn has_recurrence(&self) -> bool {
        // 0 = unvisited, 1 = on the current DFS path, 2 = done.
        let mut color = vec![0u8; self.n];
        let mut stack: Vec<(usize, usize)> = Vec::new();
        for s in 0..self.n {
            if color[s] != 0 {
                continue;
            }
            color[s] = 1;
            stack.push((s, 0));
            while let Some((u, i)) = stack.last_mut() {
                if let Some(&edge_idx) = self.succ_indices(OpId(*u as u32)).get(*i) {
                    *i += 1;
                    let v = self.edges[edge_idx as usize].to.index();
                    match color[v] {
                        0 => {
                            color[v] = 1;
                            stack.push((v, 0));
                        }
                        1 => return true, // back edge, including self-loops
                        _ => {}
                    }
                } else {
                    color[*u] = 2;
                    stack.pop();
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn duplicate_edges_keep_max_latency() {
        let g = Ddg::from_edges(2, [edge(0, 1, 2, 0), edge(0, 1, 5, 0), edge(0, 1, 3, 0)]);
        assert_eq!(g.edges().len(), 1);
        assert_eq!(g.edges()[0].latency, 5);
    }

    #[test]
    fn adjacency_lists() {
        let g = Ddg::from_edges(3, [edge(0, 1, 1, 0), edge(0, 2, 1, 0), edge(1, 2, 1, 0)]);
        assert_eq!(g.succs(OpId(0)).count(), 2);
        assert_eq!(g.preds(OpId(2)).count(), 2);
        assert_eq!(g.preds(OpId(0)).count(), 0);
    }

    #[test]
    fn positive_cycle_detected_below_recii() {
        // Cycle 0→1→0: total latency 5, total distance 1 ⇒ RecII = 5.
        let g = Ddg::from_edges(2, [edge(0, 1, 3, 0), edge(1, 0, 2, 1)]);
        assert!(g.longest_paths(4).is_none());
        assert!(g.longest_paths(5).is_some());
        assert!(!g.is_feasible(4));
        assert!(g.is_feasible(5));
        assert!(g.has_recurrence());
    }

    #[test]
    fn acyclic_graph_feasible_at_ii_1() {
        let g = Ddg::from_edges(3, [edge(0, 1, 10, 0), edge(1, 2, 10, 0)]);
        assert!(g.longest_paths(1).is_some());
        assert!(g.is_feasible(1));
        assert!(!g.has_recurrence());
        let d = g.longest_paths(1).unwrap();
        assert_eq!(d[(0, 2)], 20);
        assert!(d.has_path(0, 2));
        assert!(!d.has_path(2, 0));
    }

    #[test]
    fn longest_from_source_matches_matrix_column_max() {
        let g = Ddg::from_edges(3, [edge(0, 1, 10, 0), edge(1, 2, 7, 0)]);
        let dist = g.longest_from_source(1).unwrap();
        assert_eq!(dist, vec![0, 10, 17]);
        assert!(g.longest_from_source(0).is_some()); // acyclic: any II works
    }

    #[test]
    fn adjusted_feasibility_lengthens_edges() {
        // Cycle 0→1→0: RecII = 5. Stretching the forward edge by 2 (a copy
        // on the 0→1 value) raises it to 7.
        let g = Ddg::from_edges(2, [edge(0, 1, 3, 0), edge(1, 0, 2, 1)]);
        let stretch = |e: &DepEdge| if e.from == OpId(0) { 2 } else { 0 };
        let mut s = Vec::new();
        assert!(g.is_feasible_adjusted(5, |_| 0, &mut s));
        assert!(!g.is_feasible_adjusted(6, stretch, &mut s));
        assert!(g.is_feasible_adjusted(7, stretch, &mut s));
        // Zero adjustment agrees with the plain probe.
        assert_eq!(g.is_feasible(4), g.is_feasible_adjusted(4, |_| 0, &mut s));
    }

    #[test]
    fn self_loop_is_a_recurrence() {
        let g = Ddg::from_edges(2, [edge(0, 0, 2, 1)]);
        assert!(g.has_recurrence());
        assert!(!g.is_feasible(1));
        assert!(g.is_feasible(2));
    }

    #[test]
    fn path_matrix_buffer_is_reusable() {
        let g = Ddg::from_edges(2, [edge(0, 1, 3, 0), edge(1, 0, 2, 1)]);
        let mut m = PathMatrix::new();
        assert!(!g.longest_paths_into(4, &mut m));
        assert!(g.longest_paths_into(5, &mut m));
        assert_eq!(m.at(0, 1), 3);
        assert_eq!(m.n_ops(), 2);
    }
}
