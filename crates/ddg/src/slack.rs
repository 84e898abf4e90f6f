//! Slack analysis over the intra-iteration (distance-0) dependence subgraph.
//!
//! The paper's *Flexibility* heuristic (§5) is `slack + 1`, where slack is
//! "the difference between the earliest time a node could be scheduled …
//! and the latest time that the DDD node could be scheduled without
//! requiring a lengthening of the ideal schedule". We compute it on the
//! acyclic distance-0 subgraph with longest-path passes in both directions.

use crate::graph::Ddg;
use vliw_ir::OpId;

/// Per-operation earliest/latest start times and slack.
#[derive(Debug, Clone)]
pub struct SlackInfo {
    /// Earliest issue cycle consistent with distance-0 dependences.
    pub estart: Vec<i64>,
    /// Latest issue cycle that does not stretch the critical path.
    pub lstart: Vec<i64>,
    /// Critical-path length in cycles (issue of first op → completion of
    /// last, over distance-0 edges).
    pub length: i64,
}

impl SlackInfo {
    /// `lstart − estart` for `op`; 0 on the critical path.
    pub fn slack(&self, op: OpId) -> i64 {
        self.lstart[op.index()] - self.estart[op.index()]
    }

    /// The paper's Flexibility: `slack + 1` ("we add 1 … so that we avoid
    /// divide-by-zero errors").
    pub fn flexibility(&self, op: OpId) -> i64 {
        self.slack(op) + 1
    }

    /// Is `op` on a critical path?
    pub fn is_critical(&self, op: OpId) -> bool {
        self.slack(op) == 0
    }
}

/// Compute estart/lstart/slack over distance-0 edges of `g`.
///
/// Distance-0 edges always form a DAG (they point forward in program order
/// for graphs built by [`crate::build::build_ddg`]); a topological pass in
/// each direction yields longest paths.
pub fn compute_slack(g: &Ddg, latency_of: impl Fn(OpId) -> i64) -> SlackInfo {
    let n = g.n_ops();
    let mut estart = vec![0i64; n];

    // Forward pass in index order: builder guarantees distance-0 edges go
    // from lower to higher op index (program order), so index order is a
    // topological order of the distance-0 subgraph.
    for i in 0..n {
        let op = OpId(i as u32);
        for e in g.preds(op).filter(|e| e.distance == 0) {
            estart[i] = estart[i].max(estart[e.from.index()] + e.latency);
        }
    }
    let length = (0..n)
        .map(|i| estart[i] + latency_of(OpId(i as u32)))
        .max()
        .unwrap_or(0);

    let mut lstart = vec![0i64; n];
    for i in (0..n).rev() {
        let op = OpId(i as u32);
        let succ_bound = g
            .succs(op)
            .filter(|e| e.distance == 0)
            .map(|e| lstart[e.to.index()] - e.latency)
            .min();
        lstart[i] = succ_bound.unwrap_or(length - latency_of(op));
    }

    SlackInfo {
        estart,
        lstart,
        length,
    }
}

/// Critical-path length of the intra-iteration subgraph.
pub fn critical_path_length(g: &Ddg, latency_of: impl Fn(OpId) -> i64) -> i64 {
    compute_slack(g, latency_of).length
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{DepEdge, DepKind};

    fn flow(f: u32, t: u32, latency: i64, distance: u32) -> DepEdge {
        DepEdge {
            from: OpId(f),
            to: OpId(t),
            latency,
            distance,
            kind: DepKind::Flow,
        }
    }

    /// 0 →(3) 1 →(2) 2, plus independent op 3.
    const CHAIN: [(u32, u32, i64); 2] = [(0, 1, 3), (1, 2, 2)];

    fn chain_graph() -> Ddg {
        Ddg::from_edges(4, CHAIN.map(|(f, t, lat)| flow(f, t, lat, 0)))
    }

    #[test]
    fn chain_slack_zero_on_critical_path() {
        let g = chain_graph();
        let lat = |op: OpId| if op.index() == 2 { 2 } else { 1 };
        let s = compute_slack(&g, lat);
        // estart: 0, 3, 5; length = 5 + 2 = 7.
        assert_eq!(s.estart, vec![0, 3, 5, 0]);
        assert_eq!(s.length, 7);
        assert!(s.is_critical(OpId(0)));
        assert!(s.is_critical(OpId(1)));
        assert!(s.is_critical(OpId(2)));
        // op3 floats: lstart = 7 − 1 = 6.
        assert_eq!(s.slack(OpId(3)), 6);
        assert_eq!(s.flexibility(OpId(3)), 7);
        assert_eq!(s.flexibility(OpId(0)), 1);
    }

    #[test]
    fn carried_edges_ignored() {
        // A distance-1 back edge on the chain: must not affect slack.
        let edges = CHAIN.map(|(f, t, lat)| flow(f, t, lat, 0));
        let g = Ddg::from_edges(4, edges.into_iter().chain([flow(2, 0, 100, 1)]));
        let s = compute_slack(&g, |_| 1);
        assert_eq!(s.estart[0], 0);
        assert!(s.length < 100);
    }

    #[test]
    fn diamond_slack() {
        // 0 → {1 (lat 5), 2 (lat 1)} → 3; op2 has slack 4.
        let diamond = [(0, 1, 1), (0, 2, 1), (1, 3, 5), (2, 3, 1)];
        let g = Ddg::from_edges(4, diamond.map(|(f, t, lat)| flow(f, t, lat, 0)));
        let s = compute_slack(&g, |_| 1);
        assert_eq!(s.slack(OpId(2)), 4);
        assert_eq!(s.slack(OpId(1)), 0);
        assert_eq!(s.slack(OpId(3)), 0);
    }
}
