//! Dependence-graph construction from a loop body.

use crate::graph::{Ddg, DepEdge, DepKind, EdgeSet};
use vliw_machine::LatencyTable;

use vliw_ir::{DefUseIndex, Loop, MemRef, OpId, Opcode, VReg};

/// One memory access: the op, its reference, and whether it stores.
type Access = (OpId, MemRef, bool);

/// Build the dependence graph of `l` under the latency table `lat`.
///
/// Register dependences follow the program-order semantics of the IR:
///
/// * a use whose latest def precedes it in the body depends on that def with
///   distance 0;
/// * a use with no preceding def but with a def later in the body reads the
///   previous iteration's (program-order-last) def — distance 1;
/// * intra-iteration anti and output dependences are added so the scheduler
///   never reorders a redefinition before a reader within one iteration;
///   their cross-iteration counterparts are resolved by modulo variable
///   expansion in the register allocator and are omitted, following Rau.
///
/// Memory dependences come from the affine access metadata: accesses to the
/// same array with equal strides yield an exact dependence distance; unequal
/// strides yield conservative distance-0/1 edges.
///
/// Each register's defs and uses come from one [`DefUseIndex`] over the
/// body, and the edge list is sized up front: at most two edges per use
/// and one per def for registers, and one per (store, access) pair for
/// memory, which covers every pair of equal nonzero strides (a stride-0
/// cell or a stride mismatch can add up to three per pair and grow it).
pub fn build_ddg(l: &Loop, lat: &LatencyTable) -> Ddg {
    let du = DefUseIndex::new(l);
    let mut mems: Vec<Access> = Vec::with_capacity(l.n_ops());
    mems.extend(
        l.ops
            .iter()
            .filter_map(|o| o.mem.map(|m| (o.id, m, o.opcode == Opcode::Store))),
    );
    let n_stores = mems.iter().filter(|m| m.2).count();
    let cap = 2 * du.n_uses() + du.n_defs() + n_stores * mems.len();
    let mut g = EdgeSet::with_capacity(l.n_ops(), cap);
    add_register_deps(l, lat, &du, &mut g);
    add_memory_deps(lat, &mems, &mut g);
    g.finish()
}

fn add_register_deps(l: &Loop, lat: &LatencyTable, du: &DefUseIndex, g: &mut EdgeSet) {
    for v in (0..l.n_vregs() as u32).map(VReg) {
        let defs = du.defs(v);
        let uses = du.uses(v);
        let Some(&last_def) = defs.last() else {
            continue; // live-in invariant: no intra-loop producer.
        };

        for &u in uses {
            // Latest def strictly before the use.
            let prev_def = defs.iter().copied().rfind(|d| d.index() < u.index());
            match prev_def {
                Some(d) => g.add(DepEdge {
                    from: d,
                    to: u,
                    latency: lat.of(l.op(d).opcode) as i64,
                    distance: 0,
                    kind: DepKind::Flow,
                }),
                None => g.add(DepEdge {
                    from: last_def,
                    to: u,
                    latency: lat.of(l.op(last_def).opcode) as i64,
                    distance: 1,
                    kind: DepKind::Flow,
                }),
            }
        }

        // Intra-iteration anti: each use must issue no later than the next
        // def of the same register (same-cycle is fine: reads happen at
        // issue, writes complete later).
        for &u in uses {
            if let Some(next_def) = defs.iter().copied().find(|d| d.index() > u.index()) {
                g.add(DepEdge {
                    from: u,
                    to: next_def,
                    latency: 0,
                    distance: 0,
                    kind: DepKind::Anti,
                });
            }
        }

        // Intra-iteration output deps between consecutive defs.
        for w in defs.windows(2) {
            g.add(DepEdge {
                from: w[0],
                to: w[1],
                latency: 1,
                distance: 0,
                kind: DepKind::Output,
            });
        }
    }
}

fn add_memory_deps(lat: &LatencyTable, mems: &[Access], g: &mut EdgeSet) {
    for (ai, &(a, ma, a_store)) in mems.iter().enumerate() {
        for &(b, mb, b_store) in &mems[ai..] {
            if ma.array != mb.array || (!a_store && !b_store) {
                continue;
            }
            // Dependence from the earlier op (per program order within an
            // iteration) to the later, and the loop-carried directions.
            add_mem_pair(lat, g, (a, ma, a_store), (b, mb, b_store));
            if a != b {
                add_mem_pair(lat, g, (b, mb, b_store), (a, ma, a_store));
            }
        }
    }
}

/// Latency of a memory dependence edge from `from` to `to`.
fn mem_latency(lat: &LatencyTable, from_store: bool, to_store: bool) -> i64 {
    match (from_store, to_store) {
        // store → load: the load must issue after the store completes.
        (true, false) => lat.store as i64,
        // load → store (anti) and store → store (output): order only.
        _ => 1,
    }
}

/// Add the dependence (if any) from occurrence of `x` in iteration `i` to the
/// occurrence of `y` in iteration `i + d` that touches the same address.
fn add_mem_pair(lat: &LatencyTable, g: &mut EdgeSet, (x, mx, xs): Access, (y, my, ys): Access) {
    let latency = mem_latency(lat, xs, ys);
    if mx.stride == my.stride {
        let s = mx.stride;
        if s == 0 {
            // Same scalar cell every iteration.
            if mx.offset != my.offset {
                return;
            }
            if x.index() < y.index() {
                g.add(DepEdge {
                    from: x,
                    to: y,
                    latency,
                    distance: 0,
                    kind: DepKind::Mem,
                });
            }
            // Loop-carried, distance 1 (covers all larger distances by
            // transitivity through consecutive iterations).
            g.add(DepEdge {
                from: x,
                to: y,
                latency,
                distance: 1,
                kind: DepKind::Mem,
            });
            return;
        }
        // offset_x + i·s == offset_y + (i+d)·s  ⇒  d = (offset_x − offset_y)/s
        let num = mx.offset - my.offset;
        if num % s != 0 {
            return; // never the same address.
        }
        let d = num / s;
        if d < 0 || (d == 0 && x.index() >= y.index()) {
            return; // dependence goes the other way; handled symmetrically.
        }
        g.add(DepEdge {
            from: x,
            to: y,
            latency,
            distance: d as u32,
            kind: DepKind::Mem,
        });
    } else {
        // Unequal strides: conservative same-iteration and next-iteration
        // dependences.
        if x.index() < y.index() {
            g.add(DepEdge {
                from: x,
                to: y,
                latency,
                distance: 0,
                kind: DepKind::Mem,
            });
        }
        g.add(DepEdge {
            from: x,
            to: y,
            latency,
            distance: 1,
            kind: DepKind::Mem,
        });
    }
}

/// The builder [`build_ddg`] replaced, kept as its oracle: every register's
/// defs and uses from its own `Loop::defs_of`/`uses_of` scan, and one
/// adjacency vector per op.
#[cfg(test)]
mod oracle {
    use super::mem_latency;
    use crate::graph::{DepEdge, DepKind};
    use vliw_ir::{Loop, OpId, Opcode, VReg};
    use vliw_machine::LatencyTable;

    pub struct Graph {
        pub edges: Vec<DepEdge>,
        pub succ: Vec<Vec<usize>>,
        pub pred: Vec<Vec<usize>>,
        /// Edges merged into an earlier duplicate.
        pub merged: usize,
    }

    impl Graph {
        pub fn new(n: usize) -> Self {
            Graph {
                edges: Vec::new(),
                succ: vec![Vec::new(); n],
                pred: vec![Vec::new(); n],
                merged: 0,
            }
        }

        pub fn add_edge(&mut self, e: DepEdge) {
            if let Some(idx) = self.succ[e.from.index()].iter().copied().find(|&i| {
                let old = self.edges[i];
                old.to == e.to && old.distance == e.distance && old.kind == e.kind
            }) {
                let old = &mut self.edges[idx];
                old.latency = old.latency.max(e.latency);
                self.merged += 1;
                return;
            }
            let idx = self.edges.len();
            self.edges.push(e);
            self.succ[e.from.index()].push(idx);
            self.pred[e.to.index()].push(idx);
        }
    }

    pub fn build(l: &Loop, lat: &LatencyTable) -> Graph {
        let mut g = Graph::new(l.n_ops());
        for v in (0..l.n_vregs() as u32).map(VReg) {
            let defs = l.defs_of(v);
            let uses = l.uses_of(v);
            if defs.is_empty() {
                continue;
            }
            let last_def = *defs.last().unwrap();
            for &u in &uses {
                let prev_def = defs.iter().copied().rfind(|d| d.index() < u.index());
                match prev_def {
                    Some(d) => g.add_edge(DepEdge {
                        from: d,
                        to: u,
                        latency: lat.of(l.op(d).opcode) as i64,
                        distance: 0,
                        kind: DepKind::Flow,
                    }),
                    None => g.add_edge(DepEdge {
                        from: last_def,
                        to: u,
                        latency: lat.of(l.op(last_def).opcode) as i64,
                        distance: 1,
                        kind: DepKind::Flow,
                    }),
                }
            }
            for &u in &uses {
                if let Some(next_def) = defs.iter().copied().find(|d| d.index() > u.index()) {
                    g.add_edge(DepEdge {
                        from: u,
                        to: next_def,
                        latency: 0,
                        distance: 0,
                        kind: DepKind::Anti,
                    });
                }
            }
            for w in defs.windows(2) {
                g.add_edge(DepEdge {
                    from: w[0],
                    to: w[1],
                    latency: 1,
                    distance: 0,
                    kind: DepKind::Output,
                });
            }
        }
        let mems: Vec<(OpId, vliw_ir::MemRef, bool)> = l
            .ops
            .iter()
            .filter_map(|o| o.mem.map(|m| (o.id, m, o.opcode == Opcode::Store)))
            .collect();
        for (ai, &(a, ma, a_store)) in mems.iter().enumerate() {
            for &(b, mb, b_store) in &mems[ai..] {
                if ma.array != mb.array || (!a_store && !b_store) {
                    continue;
                }
                mem_pair(lat, &mut g, (a, ma, a_store), (b, mb, b_store));
                if a != b {
                    mem_pair(lat, &mut g, (b, mb, b_store), (a, ma, a_store));
                }
            }
        }
        g
    }

    fn mem_pair(
        lat: &LatencyTable,
        g: &mut Graph,
        (x, mx, xs): (OpId, vliw_ir::MemRef, bool),
        (y, my, ys): (OpId, vliw_ir::MemRef, bool),
    ) {
        let latency = mem_latency(lat, xs, ys);
        let edge = |distance| DepEdge {
            from: x,
            to: y,
            latency,
            distance,
            kind: DepKind::Mem,
        };
        if mx.stride == my.stride {
            let s = mx.stride;
            if s == 0 {
                if mx.offset != my.offset {
                    return;
                }
                if x.index() < y.index() {
                    g.add_edge(edge(0));
                }
                g.add_edge(edge(1));
                return;
            }
            let num = mx.offset - my.offset;
            if num % s != 0 {
                return;
            }
            let d = num / s;
            if d < 0 || (d == 0 && x.index() >= y.index()) {
                return;
            }
            g.add_edge(edge(d as u32));
        } else {
            if x.index() < y.index() {
                g.add_edge(edge(0));
            }
            g.add_edge(edge(1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_ir::{LoopBuilder, RegClass};

    /// `build_ddg` against the scan oracle: the same edges (endpoints,
    /// latency, distance, kind) at the same positions, and every op's
    /// successor and predecessor lists in the same order.
    fn assert_matches_oracle(l: &Loop, lat: &LatencyTable, what: &str) {
        let g = build_ddg(l, lat);
        let want = oracle::build(l, lat);
        assert_eq!(g.n_ops(), l.n_ops(), "{what}");
        assert_eq!(g.edges(), &want.edges[..], "{what}: edge list");
        for op in (0..l.n_ops() as u32).map(OpId) {
            let as_usize = |ix: &[u32]| ix.iter().map(|&i| i as usize).collect::<Vec<_>>();
            assert_eq!(
                as_usize(g.succ_indices(op)),
                want.succ[op.index()],
                "{what}: successors of {op}"
            );
            assert_eq!(
                as_usize(g.pred_indices(op)),
                want.pred[op.index()],
                "{what}: predecessors of {op}"
            );
        }
    }

    #[test]
    fn index_build_matches_the_scan_oracle_on_ideal_and_clustered_bodies() {
        use vliw_core::{assign_banks_caps, build_rcg, insert_copies, LoopContext};
        let mut machines = vliw_machine::MachineDesc::paper_models(true);
        machines.extend(vliw_machine::MachineDesc::paper_models(false));
        let cfg = vliw_core::PartitionConfig::default();
        let corpus = vliw_loopgen::corpus();
        for m in &machines {
            let caps: Vec<usize> = m.clusters.iter().map(|c| c.n_fus).collect();
            for l in &corpus {
                assert_matches_oracle(l, &m.latencies, &l.name);
                let ctx = LoopContext::new(l, m);
                let rcg = build_rcg(l, &ctx.ideal, &ctx.slack, &cfg);
                let clustered = insert_copies(l, &assign_banks_caps(&rcg, &caps, &cfg));
                let what = format!("{} clustered on {}", l.name, m.name);
                assert_matches_oracle(&clustered.body, &m.latencies, &what);
            }
        }
    }

    /// Op ids that disagree with positions (a corrupted body) make the same
    /// edge twice; both builders merge it to the larger latency in place.
    #[test]
    fn duplicate_edges_merge_like_the_oracle() {
        let mut l = vliw_loopgen::Family::Stencil.build(0, 4, 32);
        assert_matches_oracle(&l, &lat(), "stencil");
        let n = l.n_ops();
        for k in (2..n).step_by(3) {
            l.ops[k].id = l.ops[k - 2].id;
        }
        assert!(oracle::build(&l, &lat()).merged > 0, "no duplicate made");
        assert_matches_oracle(&l, &lat(), "stencil with repeated ids");
    }

    #[test]
    fn unknown_registers_add_no_edges() {
        let mut l = vliw_loopgen::Family::Daxpy.build(0, 2, 16);
        let n = l.n_vregs() as u32;
        let op = l.ops.iter_mut().find(|o| !o.uses.is_empty()).unwrap();
        op.uses[0] = VReg(n + 3);
        assert_matches_oracle(&l, &lat(), "dangling operand");
    }

    fn lat() -> LatencyTable {
        LatencyTable::paper()
    }

    #[test]
    fn daxpy_has_no_recurrence() {
        let mut b = LoopBuilder::new("daxpy");
        let x = b.array("x", RegClass::Float, 64);
        let y = b.array("y", RegClass::Float, 64);
        let a = b.live_in_float("a");
        let xv = b.load(x, 0, 1);
        let yv = b.load(y, 0, 1);
        let p = b.fmul(a, xv);
        let s = b.fadd(yv, p);
        b.store(y, 0, 1, s);
        let l = b.finish(64);
        let g = build_ddg(&l, &lat());
        assert!(!g.has_recurrence());
        // load y → store y is a distance-0 mem anti dep; store y → load y is
        // impossible (same offset, would need d == 0 but store is later).
        assert!(g
            .edges()
            .iter()
            .any(|e| e.kind == DepKind::Mem && e.distance == 0));
    }

    #[test]
    fn reduction_has_distance_1_flow() {
        let mut b = LoopBuilder::new("dot");
        let x = b.array("x", RegClass::Float, 64);
        let s = b.live_in_float_val("s", 0.0);
        let xv = b.load(x, 0, 1);
        b.fadd_into(s, s, xv); // s = s + x[i]
        b.live_out(s);
        let l = b.finish(64);
        let g = build_ddg(&l, &lat());
        assert!(g.has_recurrence());
        let carried: Vec<_> = g
            .edges()
            .iter()
            .filter(|e| e.kind == DepKind::Flow && e.distance == 1)
            .collect();
        assert_eq!(carried.len(), 1);
        // The fadd feeds itself across iterations.
        assert_eq!(carried[0].from, carried[0].to);
        assert_eq!(carried[0].latency, lat().fp_other as i64);
    }

    #[test]
    fn stencil_store_to_load_distance() {
        // y[i] = y[i-2] style: load y[0+i], store y[2+i] ⇒ store in iter i
        // writes the cell load reads in iter i+2.
        let mut b = LoopBuilder::new("st");
        let y = b.array("y", RegClass::Float, 80);
        let v = b.load(y, 0, 1);
        let c = b.fconst_new(0.5);
        let m = b.fmul(v, c);
        b.store(y, 2, 1, m);
        let l = b.finish(64);
        let g = build_ddg(&l, &lat());
        let st_ld: Vec<_> = g
            .edges()
            .iter()
            .filter(|e| e.kind == DepKind::Mem && e.from == OpId(3) && e.to == OpId(0))
            .collect();
        assert_eq!(st_ld.len(), 1);
        assert_eq!(st_ld[0].distance, 2);
        assert_eq!(st_ld[0].latency, lat().store as i64);
        assert!(g.has_recurrence());
    }

    #[test]
    fn disjoint_offsets_no_dep() {
        // load x[0+2i], store x[1+2i]: offsets differ by 1, stride 2 ⇒ no
        // common address ever.
        let mut b = LoopBuilder::new("dis");
        let x = b.array("x", RegClass::Float, 70);
        let v = b.load(x, 0, 2);
        b.store(x, 1, 2, v);
        let l = b.finish(32);
        let g = build_ddg(&l, &lat());
        assert!(g.edges().iter().all(|e| e.kind != DepKind::Mem));
    }

    #[test]
    fn scalar_cell_gets_carried_dep() {
        let mut b = LoopBuilder::new("scalar");
        let x = b.array("x", RegClass::Float, 4);
        let v = b.load(x, 0, 0);
        let c = b.fconst_new(2.0);
        let m = b.fmul(v, c);
        b.store(x, 0, 0, m);
        let l = b.finish(16);
        let g = build_ddg(&l, &lat());
        // store→load carried dep forces a recurrence.
        assert!(g.has_recurrence());
        assert!(g
            .edges()
            .iter()
            .any(|e| e.kind == DepKind::Mem && e.distance == 1));
    }

    #[test]
    fn anti_and_output_deps_within_iteration() {
        let mut b = LoopBuilder::new("ao");
        let t = b.fconst_new(1.0); // def t   (op0)
        let u = b.fadd(t, t); // use t   (op1)
        b.fconst(t, 2.0); // redef t (op2)
        let _ = b.fadd(t, u); // use both (op3)
        let l = b.finish(4);
        let g = build_ddg(&l, &lat());
        assert!(g
            .edges()
            .iter()
            .any(|e| e.kind == DepKind::Anti && e.from == OpId(1) && e.to == OpId(2)));
        assert!(g
            .edges()
            .iter()
            .any(|e| e.kind == DepKind::Output && e.from == OpId(0) && e.to == OpId(2)));
        // op3 must read the *new* t.
        assert!(g
            .edges()
            .iter()
            .any(|e| e.kind == DepKind::Flow && e.from == OpId(2) && e.to == OpId(3)));
    }

    #[test]
    fn use_before_def_reads_previous_iteration() {
        let mut b = LoopBuilder::new("ubd");
        let s = b.live_in_float("s");
        let t = b.fmul(s, s); // reads previous iteration's s (op0)
        b.fadd_into(s, t, t); // defines s                     (op1)
        b.live_out(s);
        let l = b.finish(4);
        let g = build_ddg(&l, &lat());
        let e: Vec<_> = g
            .edges()
            .iter()
            .filter(|e| e.kind == DepKind::Flow && e.from == OpId(1) && e.to == OpId(0))
            .collect();
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].distance, 1);
    }
}
