//! RCG consistency lints (`RCG001`–`RCG004`): the register component graph
//! must mirror the ideal schedule it was built from.
//!
//! The pass re-derives every expected edge weight from first principles —
//! attraction for each def/use pair (§4.1), repulsion for each pair of defs
//! sharing an ideal kernel row — deliberately *not* by calling
//! `vliw_core::build_rcg`, so a bug or corruption in the production builder
//! cannot hide from its own checker.

use crate::artifacts::Artifacts;
use crate::diag::{Diagnostic, LintCode, Report, SourceLoc, Stage};
use vliw_ir::VReg;

/// Absolute tolerance for comparing accumulated f64 edge weights.
const TOL: f64 = 1e-6;

/// Checks the RCG against an independent re-derivation from the ideal
/// schedule. Needs `ideal`, `slack` and `rcg`; skips otherwise (the
/// non-RCG partitioners never build the graph).
pub struct RcgPass;

/// The expected weight of one register pair, folded from its parts.
#[derive(Default, Clone, Copy)]
struct Expected {
    attr: f64,
    rep: f64,
    row: Option<u32>,
}

/// Register-pair entries as flat per-pair rows: row `a` holds the entries
/// `(b, value)` of pairs `(a, b)`, sorted by `b`, with one pair's entries
/// in the order they were emitted.
struct PairRows<T> {
    at: Vec<u32>,
    items: Vec<(u32, T)>,
}

impl<T: Copy + Default> PairRows<T> {
    /// Rows `0..n_rows` of the `(a, b, value)` entries `emit` produces;
    /// `emit` runs twice, to count and then to fill.
    fn new(n_rows: usize, emit: impl Fn(&mut dyn FnMut(u32, u32, T))) -> Self {
        let mut at = vec![0u32; n_rows + 1];
        emit(&mut |a, _, _| at[a as usize + 1] += 1);
        for r in 0..n_rows {
            at[r + 1] += at[r];
        }
        let mut fill = at.clone();
        let mut items = vec![(0, T::default()); at[n_rows] as usize];
        emit(&mut |a, b, value| {
            items[fill[a as usize] as usize] = (b, value);
            fill[a as usize] += 1;
        });
        let mut rows = PairRows { at, items };
        for r in 0..n_rows {
            let span = rows.span(r);
            rows.items[span].sort_by_key(|&(b, _)| b);
        }
        rows
    }

    fn span(&self, a: usize) -> std::ops::Range<usize> {
        self.at[a] as usize..self.at[a + 1] as usize
    }

    /// Row `a`'s entries (empty past the last row).
    fn row(&self, a: usize) -> &[(u32, T)] {
        if a + 1 < self.at.len() {
            &self.items[self.span(a)]
        } else {
            &[]
        }
    }

    /// The first entry of pair `(a, b)`: what a scan of `a`'s list finds.
    fn first(&self, a: usize, b: u32) -> Option<T> {
        let row = self.row(a);
        let at = row.partition_point(|&(c, _)| c < b);
        row.get(at).filter(|&&(c, _)| c == b).map(|&(_, v)| v)
    }
}

impl crate::passes::LintPass for RcgPass {
    fn name(&self) -> &'static str {
        "rcg-consistency"
    }

    fn run(&self, ctx: &Artifacts<'_>, report: &mut Report) {
        let (Some(ideal), Some(slack), Some(g)) = (ctx.ideal, ctx.slack, ctx.rcg) else {
            return;
        };
        let body = ctx.body;
        if !crate::sched_lints::expandable(body, ideal) {
            return; // Kernel rows divide by II; SCHED004 reports the schedule.
        }
        let n = g.n_nodes();
        // Every adjacency entry: row `a` holds `a`'s list.
        let adjacency = PairRows::new(n, |emit| {
            for a in 0..n {
                for &(b, w) in g.neighbours(VReg(a as u32)) {
                    emit(a as u32, b.0, w);
                }
            }
        });

        // RCG002: the adjacency must be symmetric — a one-sided weight means
        // the graph structure itself is corrupt and the weight comparison
        // below would chase a phantom.
        for a_idx in 0..n {
            for &(b, w) in g.neighbours(VReg(a_idx as u32)) {
                if b.index() > a_idx {
                    let back = adjacency.first(b.index(), a_idx as u32).unwrap_or(0.0);
                    if (back - w).abs() > TOL {
                        report.push(Diagnostic::new(
                            LintCode::Rcg002,
                            Stage::Rcg,
                            SourceLoc::vreg(VReg(a_idx as u32)),
                            format!(
                                "edge v{}—v{} is asymmetric: {:.4} forward, {:.4} back",
                                a_idx,
                                b.index(),
                                w,
                                back
                            ),
                        ));
                    }
                }
            }
        }

        // Re-derive the expected weights, mirroring §4.1 / §5: one part
        // `(w, None)` per attraction and `(w, Some(row))` per repulsion, in
        // the production builder's order (`vliw_core::build_rcg`): def/use
        // pairs in body order, then same-row def pairs, rows ascending and
        // body order within a row. That order keeps the f64 accumulation,
        // and the row a finding reports, identical across runs.
        let density = body.n_ops() as f64 / ideal.ii as f64;
        let depth = body.nesting_depth;
        let imp: Vec<f64> = (0..body.ops.len())
            .map(|i| {
                ctx.cfg
                    .importance(slack.flexibility(vliw_ir::OpId(i as u32)), density, depth)
            })
            .collect();
        let mut by_row: Vec<(u32, usize)> = Vec::new();
        if ctx.cfg.repulse_factor > 0.0 {
            by_row.extend(
                body.ops
                    .iter()
                    .filter(|op| op.def.is_some())
                    .map(|op| (ideal.row(op.id), op.id.index())),
            );
            by_row.sort_by_key(|&(row, _)| row);
        }
        let n_rows = body
            .ops
            .iter()
            .flat_map(|op| op.def.iter().chain(&op.uses))
            .map(|v| v.index() + 1)
            .fold(n, usize::max);
        let expected_parts = PairRows::new(n_rows, |emit| {
            let mut part = |x: VReg, y: VReg, w: f64, row: Option<u32>| {
                emit(x.0.min(y.0), x.0.max(y.0), (w, row));
            };
            // Attraction: def—use pairs within each operation.
            for op in &body.ops {
                let Some(d) = op.def else { continue };
                for s in op.distinct_uses().filter(|&s| s != d) {
                    part(d, s, imp[op.id.index()], None);
                }
            }
            // Repulsion: pairs of defs in the same ideal kernel row.
            for same in by_row.chunk_by(|x, y| x.0 == y.0) {
                for (i, &(row, a)) in same.iter().enumerate() {
                    for &(_, b) in &same[i + 1..] {
                        let (da, db) = (body.ops[a].def.unwrap(), body.ops[b].def.unwrap());
                        if da != db {
                            let w = ctx.cfg.repulse_factor * imp[a].min(imp[b]);
                            part(da, db, w, Some(row));
                        }
                    }
                }
            }
        });

        // Compare over the union of derived and actual pairs, ascending:
        // per row, each derived pair's parts fold in order, and an actual
        // pair's weight is its first entry in the lower register's list.
        for ai in 0..n_rows as u32 {
            let mut derived = expected_parts.row(ai as usize).iter().peekable();
            let actual = adjacency.row(ai as usize);
            let mut actual = actual[actual.partition_point(|&(b, _)| b <= ai)..]
                .iter()
                .peekable();
            loop {
                let bi = match (derived.peek(), actual.peek()) {
                    (None, None) => break,
                    (Some(&&(b, _)), None) | (None, Some(&&(b, _))) => b,
                    (Some(&&(b, _)), Some(&&(c, _))) => b.min(c),
                };
                let mut e = Expected::default();
                while let Some(&(_, (w, row))) = derived.next_if(|&&(b, _)| b == bi) {
                    match row {
                        None => e.attr += w,
                        Some(row) => {
                            e.rep -= w;
                            e.row = Some(row);
                        }
                    }
                }
                let got = actual.next_if(|&&(b, _)| b == bi).map_or(0.0, |&(_, w)| w);
                while actual.next_if(|&&(b, _)| b == bi).is_some() {}
                let a = VReg(ai);
                let want = e.attr + e.rep;
                let diff = got - want;
                if diff.abs() <= TOL {
                    continue;
                }
                let d = if e.attr == 0.0 && e.rep == 0.0 {
                    Diagnostic::new(
                        LintCode::Rcg004,
                        Stage::Rcg,
                        SourceLoc::vreg(a),
                        format!(
                            "edge v{ai}—v{bi} (weight {got:.4}) has no def/use or \
                             same-row justification"
                        ),
                    )
                } else if diff > 0.0 && e.rep < 0.0 {
                    let mut loc = SourceLoc::vreg(a);
                    if let Some(row) = e.row {
                        loc = loc.at_cycle(row as i64);
                    }
                    Diagnostic::new(
                        LintCode::Rcg003,
                        Stage::Rcg,
                        loc,
                        format!(
                            "v{ai} and v{bi} are defined in the same ideal kernel row \
                             but the repulsion contribution is missing: expected \
                             weight {want:.4}, found {got:.4}"
                        ),
                    )
                } else if diff < 0.0 && e.attr > 0.0 {
                    Diagnostic::new(
                        LintCode::Rcg001,
                        Stage::Rcg,
                        SourceLoc::vreg(a),
                        format!(
                            "def/use pair v{ai}—v{bi} lacks its attraction weight: \
                             expected {want:.4}, found {got:.4}"
                        ),
                    )
                } else {
                    Diagnostic::new(
                        LintCode::Rcg004,
                        Stage::Rcg,
                        SourceLoc::vreg(a),
                        format!(
                            "edge v{ai}—v{bi} weight {got:.4} disagrees with its \
                             derivation {want:.4}"
                        ),
                    )
                };
                report.push(d);
            }
        }
    }
}
