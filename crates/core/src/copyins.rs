//! Copy insertion: rewrite a loop so every operand is local to its
//! operation's cluster (§4 step 4's precondition).
//!
//! After partitioning, each operation executes on the cluster that owns its
//! destination register (stores: the cluster of the stored value). A source
//! register living in another bank is reached through an explicit copy:
//!
//! * **loop-invariant** values are copied once *before* the loop (hoisted —
//!   they cost a live range in the destination bank but no kernel slot);
//! * **loop-variant** values get a kernel copy operation inserted in program
//!   order immediately after the def the use reaches, so the copy reads the
//!   same iteration's value the original use read. Uses that read the
//!   previous iteration's value (textual use-before-def) keep that semantics:
//!   the shadow register is itself read before its def.
//!
//! Copies of the same value into the same cluster are shared.

use crate::greedy::Partition;
use std::collections::HashMap;
use vliw_ir::{AluKind, DefUseIndex, InitVal, Loop, OpId, Opcode, Operation, VReg};
use vliw_machine::ClusterId;

/// The result of copy insertion: a rewritten loop plus placement metadata.
#[derive(Debug, Clone)]
pub struct ClusteredLoop {
    /// The rewritten body (original ops with substituted operands, plus
    /// copy ops).
    pub body: Loop,
    /// Cluster per (new) operation.
    pub cluster_of: Vec<ClusterId>,
    /// For each new op, the original op it came from (`None` for copies).
    pub orig_op: Vec<Option<OpId>>,
    /// Bank per (new) virtual register.
    pub vreg_bank: Vec<ClusterId>,
    /// Copy operations inserted into the kernel.
    pub n_kernel_copies: usize,
    /// Invariant copies hoisted out of the loop (cost no kernel slot).
    pub n_hoisted_copies: usize,
}

impl ClusteredLoop {
    /// True if every operand of every operation lives in the operation's
    /// cluster — the postcondition of [`insert_copies`].
    pub fn all_operands_local(&self) -> bool {
        self.body.ops.iter().all(|op| {
            let c = self.cluster_of[op.id.index()];
            let src_ok = match op.opcode.is_copy() {
                // A copy's source is by definition remote; its def is local.
                true => true,
                false => op.uses.iter().all(|&u| self.vreg_bank[u.index()] == c),
            };
            let def_ok = op.def.is_none_or(|d| self.vreg_bank[d.index()] == c);
            src_ok && def_ok
        })
    }
}

/// The cluster an original operation executes on under `part`: the bank of
/// its destination register, or of its stored value for stores; operations
/// with neither (impossible in this IR) would default to cluster 0.
pub fn op_cluster(_body: &Loop, part: &Partition, op: &Operation) -> ClusterId {
    match op.def {
        Some(d) => part.bank(d),
        None => op.uses.first().map_or(ClusterId(0), |&u| part.bank(u)),
    }
}

/// Rewrite `body` under the bank assignment `part`, inserting hoisted and
/// kernel copies so that every operand becomes local.
pub fn insert_copies(body: &Loop, part: &Partition) -> ClusteredLoop {
    assert_eq!(part.bank_of.len(), body.n_vregs());
    let n_orig_ops = body.n_ops();

    // Def positions per vreg for reaching-def and invariance queries.
    let du = DefUseIndex::new(body);
    let reaching_def = |u: VReg, use_pos: usize| -> usize {
        let defs = du.defs(u);
        defs.iter()
            .map(|d| d.index())
            .rfind(|&d| d < use_pos)
            .unwrap_or_else(|| defs.last().expect("variant use must have a def").index())
    };

    // New register table starts as a copy of the original.
    let mut vreg_classes = body.vreg_classes.clone();
    let mut vreg_bank: Vec<ClusterId> = part.bank_of.clone();
    let mut live_in = body.live_in.clone();
    let mut live_in_vals = body.live_in_vals.clone();

    // Shadows for hoisted invariant copies: (reg, cluster) → shadow reg.
    let mut hoisted: HashMap<(VReg, ClusterId), VReg> = HashMap::new();
    // Shadows for kernel copies: (reaching def pos, cluster) → shadow reg.
    let mut kernel: HashMap<(usize, ClusterId), VReg> = HashMap::new();
    // Copy ops to emit after each original position.
    let mut copies_after: Vec<Vec<(VReg, VReg)>> = vec![Vec::new(); n_orig_ops];
    // Per-(op, operand slot) substitution.
    let mut subst: HashMap<(usize, usize), VReg> = HashMap::new();

    let fresh = |classes: &mut Vec<vliw_ir::RegClass>,
                 banks: &mut Vec<ClusterId>,
                 class: vliw_ir::RegClass,
                 bank: ClusterId| {
        let v = VReg(classes.len() as u32);
        classes.push(class);
        banks.push(bank);
        v
    };

    let mut n_hoisted = 0usize;
    for op in &body.ops {
        let c = op_cluster(body, part, op);
        for (slot, &u) in op.uses.iter().enumerate() {
            if part.bank(u) == c {
                continue;
            }
            let shadow = if body.is_live_in(u) && du.defs(u).is_empty() {
                *hoisted.entry((u, c)).or_insert_with(|| {
                    n_hoisted += 1;
                    let s = fresh(&mut vreg_classes, &mut vreg_bank, body.class_of(u), c);
                    live_in.push(s);
                    let pos = body.live_in.iter().position(|&x| x == u).unwrap();
                    live_in_vals.push(body.live_in_vals[pos]);
                    s
                })
            } else {
                let rd = reaching_def(u, op.id.index());
                *kernel.entry((rd, c)).or_insert_with(|| {
                    let s = fresh(&mut vreg_classes, &mut vreg_bank, body.class_of(u), c);
                    copies_after[rd].push((s, u));
                    // If `u` carries a seed into the loop (live-in recurrence
                    // accumulator), uses of the shadow that textually precede
                    // the copy read "iteration −1" — which must see the seed.
                    // Generated code materialises this with a one-off
                    // pre-loop copy; in the IR the shadow becomes a live-in.
                    if let Some(pos) = body.live_in.iter().position(|&x| x == u) {
                        live_in.push(s);
                        live_in_vals.push(body.live_in_vals[pos]);
                    }
                    s
                })
            };
            subst.insert((op.id.index(), slot), shadow);
        }
    }

    // Emit the rewritten op stream.
    let mut ops: Vec<Operation> = Vec::with_capacity(n_orig_ops + kernel.len());
    let mut cluster_of: Vec<ClusterId> = Vec::new();
    let mut orig_op: Vec<Option<OpId>> = Vec::new();
    let mut n_kernel_copies = 0usize;

    for op in &body.ops {
        let c = op_cluster(body, part, op);
        let mut new_op = op.clone();
        new_op.id = OpId(ops.len() as u32);
        for (slot, u) in new_op.uses.iter_mut().enumerate() {
            if let Some(&s) = subst.get(&(op.id.index(), slot)) {
                *u = s;
            }
        }
        ops.push(new_op);
        cluster_of.push(c);
        orig_op.push(Some(op.id));

        for &(shadow, src) in &copies_after[op.id.index()] {
            let class = body.class_of(src);
            ops.push(Operation {
                id: OpId(ops.len() as u32),
                opcode: Opcode::copy_for(class),
                alu: AluKind::Add,
                def: Some(shadow),
                uses: vec![src],
                imm: None,
                fimm_bits: None,
                mem: None,
            });
            cluster_of.push(vreg_bank[shadow.index()]);
            orig_op.push(None);
            n_kernel_copies += 1;
        }
    }

    let new_body = Loop {
        name: body.name.clone(),
        ops,
        vreg_classes,
        live_in,
        live_in_vals,
        live_out: body.live_out.clone(),
        arrays: body.arrays.clone(),
        trip_count: body.trip_count,
        nesting_depth: body.nesting_depth,
    };
    debug_assert!(vliw_ir::verify_loop(&new_body).is_ok());

    ClusteredLoop {
        body: new_body,
        cluster_of,
        orig_op,
        vreg_bank,
        n_kernel_copies,
        n_hoisted_copies: n_hoisted,
    }
}

/// Ensure the initial value of a hoisted copy matches its source — helper
/// used by the simulator's live-in setup (exposed for tests).
pub fn hoisted_inits_consistent(c: &ClusteredLoop) -> bool {
    use std::collections::HashMap as Map;
    let inits: Map<VReg, InitVal> = c
        .body
        .live_in
        .iter()
        .copied()
        .zip(c.body.live_in_vals.iter().copied())
        .collect();
    // Every live-in has an init; nothing more to check structurally.
    c.body.live_in.iter().all(|v| inits.contains_key(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_ir::{verify_loop, LoopBuilder, RegClass};

    /// daxpy with a deliberately adversarial partition: the multiplier `a`
    /// and the loads live in bank 0, the arithmetic in bank 1.
    fn split_daxpy() -> (Loop, Partition) {
        let mut b = LoopBuilder::new("daxpy");
        let x = b.array("x", RegClass::Float, 64);
        let y = b.array("y", RegClass::Float, 64);
        let a = b.live_in_float("a"); // v0
        let xv = b.load(x, 0, 1); // v1
        let yv = b.load(y, 0, 1); // v2
        let p = b.fmul(a, xv); // v3 = a * xv
        let s = b.fadd(yv, p); // v4 = yv + p
        b.store(y, 0, 1, s);
        let l = b.finish(64);
        let part = Partition {
            bank_of: vec![
                ClusterId(0), // a
                ClusterId(0), // xv
                ClusterId(1), // yv
                ClusterId(1), // p   → fmul runs on cluster 1, needs a and xv
                ClusterId(1), // s
            ],
            n_banks: 2,
        };
        (l, part)
    }

    #[test]
    fn daxpy_copies_inserted_and_local() {
        let (l, part) = split_daxpy();
        let c = insert_copies(&l, &part);
        verify_loop(&c.body).unwrap();
        assert!(c.all_operands_local());
        // `a` is invariant → hoisted; `xv` is variant → kernel copy.
        assert_eq!(c.n_hoisted_copies, 1);
        assert_eq!(c.n_kernel_copies, 1);
        assert_eq!(c.body.n_ops(), l.n_ops() + 1);
        assert!(hoisted_inits_consistent(&c));
        // The fmul now reads two shadows, both in bank 1.
        let fmul = c
            .body
            .ops
            .iter()
            .find(|o| o.opcode == Opcode::FMul)
            .unwrap();
        for &u in &fmul.uses {
            assert_eq!(c.vreg_bank[u.index()], ClusterId(1));
        }
    }

    #[test]
    fn trivial_partition_inserts_nothing() {
        let (l, _) = split_daxpy();
        let part = Partition::trivial(l.n_vregs());
        let c = insert_copies(&l, &part);
        assert_eq!(c.n_kernel_copies, 0);
        assert_eq!(c.n_hoisted_copies, 0);
        assert_eq!(c.body.n_ops(), l.n_ops());
        assert!(c.all_operands_local());
        assert!(c.orig_op.iter().all(|o| o.is_some()));
    }

    #[test]
    fn copies_are_shared_per_cluster() {
        // One value consumed by two ops in the same remote cluster → 1 copy.
        let mut b = LoopBuilder::new("share");
        let x = b.array("x", RegClass::Float, 64);
        let v = b.load(x, 0, 1); // v0
        let p = b.fmul(v, v); // v1
        let q = b.fadd(v, v); // v2
        b.store(x, 0, 1, p);
        let _ = q;
        let l = b.finish(64);
        let part = Partition {
            bank_of: vec![ClusterId(0), ClusterId(1), ClusterId(1)],
            n_banks: 2,
        };
        let c = insert_copies(&l, &part);
        assert_eq!(c.n_kernel_copies, 1);
        assert!(c.all_operands_local());
        verify_loop(&c.body).unwrap();
    }

    #[test]
    fn recurrence_use_before_def_keeps_distance() {
        // t = s*s (reads prev iter); s = t + c. Put the fmul in bank 1,
        // s in bank 0: the copy of s into bank 1 sits after s's def, so the
        // shadow use still reads the previous iteration.
        let mut b = LoopBuilder::new("rec");
        let s = b.live_in_float("s"); // v0
        let t = b.fmul(s, s); // v1 (op0)
        let cst = b.fconst_new(1.0); // v2 (op1)
        b.fadd_into(s, t, cst); // op2
        b.live_out(s);
        let l = b.finish(8);
        let part = Partition {
            bank_of: vec![ClusterId(0), ClusterId(1), ClusterId(0)],
            n_banks: 2,
        };
        let c = insert_copies(&l, &part);
        verify_loop(&c.body).unwrap();
        assert!(c.all_operands_local());
        // s is variant (defined in loop) → kernel copy, not hoisted; also t
        // crosses back into bank 0 for the fadd.
        assert_eq!(c.n_hoisted_copies, 0);
        assert_eq!(c.n_kernel_copies, 2);
        // The copy of s must be placed *after* s's def (the fadd) in program
        // order so its shadow carries the previous iteration's value.
        let copy_pos = c
            .body
            .ops
            .iter()
            .position(|o| o.opcode == Opcode::CopyFloat && o.uses == vec![s])
            .unwrap();
        let fadd_pos = c
            .body
            .ops
            .iter()
            .position(|o| o.opcode == Opcode::FAlu)
            .unwrap();
        assert!(copy_pos > fadd_pos);
    }

    #[test]
    fn seeded_recurrence_shadow_gets_the_seed() {
        // s (live-in seed 7.0) is defined by the fadd and read by a remote
        // fmul that consumes the PREVIOUS iteration's s. The shadow created
        // for the fmul must carry the seed so iteration 0 reads 7.0.
        let mut b = LoopBuilder::new("seed");
        let s = b.live_in_float_val("s", 7.0); // v0
        let t = b.fmul(s, s); // v1, reads prev s
        let c = b.fconst_new(1.0); // v2
        b.fadd_into(s, t, c);
        b.live_out(s);
        let l = b.finish(8);
        let part = Partition {
            bank_of: vec![ClusterId(0), ClusterId(1), ClusterId(1)],
            n_banks: 2,
        };
        let cl = insert_copies(&l, &part);
        verify_loop(&cl.body).unwrap();
        // The shadow of s (used by the fmul on cluster 1) is live-in with
        // the same seed.
        let shadow = cl
            .body
            .ops
            .iter()
            .find(|o| o.opcode == Opcode::CopyFloat && o.uses == vec![s])
            .and_then(|o| o.def)
            .expect("copy of s exists");
        let pos = cl
            .body
            .live_in
            .iter()
            .position(|&v| v == shadow)
            .expect("shadow is live-in");
        assert_eq!(cl.body.live_in_vals[pos], l.live_in_vals[0]);
    }

    #[test]
    fn store_runs_in_its_values_bank() {
        let (l, part) = split_daxpy();
        let c = insert_copies(&l, &part);
        let store_idx = c
            .body
            .ops
            .iter()
            .position(|o| o.opcode == Opcode::Store)
            .unwrap();
        assert_eq!(c.cluster_of[store_idx], ClusterId(1));
    }

    #[test]
    fn orig_op_maps_back() {
        let (l, part) = split_daxpy();
        let c = insert_copies(&l, &part);
        let mapped: Vec<_> = c.orig_op.iter().flatten().collect();
        assert_eq!(mapped.len(), l.n_ops());
        // Copies have no original.
        assert_eq!(
            c.orig_op.iter().filter(|o| o.is_none()).count(),
            c.n_kernel_copies
        );
    }
}
