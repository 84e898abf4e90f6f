//! The canonicalization pass: alpha-normal form, witness, equivalence.
//!
//! ## Algorithm
//!
//! 1. **Constraint graph.** For each ordered pair `i < j` of body
//!    operations, an edge `i → j` is added when swapping them could change
//!    semantics: they touch a common register in a def/def, def/use or
//!    use/def pair, or both touch the same array and at least one is a
//!    store. Any permutation of the body that preserves the relative order
//!    of every constrained pair executes identically under the reference
//!    interpreter (each use still reads the same reaching def, each array
//!    cell still sees the same store sequence).
//! 2. **Flow resolution.** Every use slot is resolved to its reaching
//!    source: the last def of that register before the op (distance 0), the
//!    last def in the whole body (distance 1 — the previous iteration's
//!    value, with the live-in/zero value on iteration 0), or the live-in
//!    (or default-zero) value when the body never defines it.
//! 3. **Colour refinement** (Weisfeiler–Leman style). Operations and
//!    registers get initial colours from their isomorphism-invariant
//!    attributes (opcode, immediates, memory metadata with its *semantic*
//!    array index, register class, initial values, liveness), then rounds
//!    of refinement mix in reaching-def sources, constraint-graph
//!    neighbourhood colours and def/use contexts until the partition stops
//!    splitting. Commutative operand pairs are mixed order-insensitively.
//! 4. **Canonical order.** A greedy topological order of the constraint
//!    graph: among ready operations, pick the one with the smallest
//!    (colour rank, emitted-predecessor positions, original index) key.
//! 5. **Normalisation.** Commutative operands are sorted by their resolved
//!    flow (feeding op's canonical position, distance, initial value,
//!    colour); virtual registers are renamed densely in first-mention order
//!    over the canonical trace; array names become positional (`a0`, `a1`,
//!    … — array *order* is semantic and preserved); the loop name becomes
//!    [`CANONICAL_LOOP_NAME`]; live-in/live-out lists are sorted by
//!    canonical register id; the unused `alu` field of non-ALU opcodes is
//!    reset to the parser's default.
//! 6. **Hash.** A Merkle-style fold of per-section leaf hashes of the
//!    normal form (header, arrays, register classes, live-ins, one leaf per
//!    operation, live-outs).
//!
//! Ties broken by original index are harmless when the tied entities are
//! automorphic images of each other (either choice yields the same normal
//! form) and cost only a missed equivalence otherwise — never a false
//! positive, since [`alpha_equivalent`] compares whole normal forms.

use crate::hash::{Hasher128, StructuralHash};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use vliw_ir::{AluKind, ArrayInfo, InitVal, Loop, OpId, Opcode, Operation, VReg};

/// Name given to every canonical loop body (the original name lives in the
/// witness).
pub const CANONICAL_LOOP_NAME: &str = "canon";

/// The renaming that maps a loop onto its normal form and back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// The original loop's name.
    pub original_name: String,
    /// `vreg_to_canon[v]` is the canonical id of original register `v`.
    pub vreg_to_canon: Vec<u32>,
    /// `vreg_from_canon[c]` is the original register behind canonical `c`.
    pub vreg_from_canon: Vec<u32>,
    /// `op_to_canon[i]` is the canonical position of original op `i`.
    pub op_to_canon: Vec<u32>,
    /// `op_from_canon[p]` is the original index of canonical position `p`.
    pub op_from_canon: Vec<u32>,
    /// Original array names, index-aligned (array order is semantic, so the
    /// index map is the identity and only names are rewritten).
    pub array_names: Vec<String>,
}

/// A loop's normal form: the rewritten body, the witness renaming and the
/// structural hash of the body.
#[derive(Debug, Clone, PartialEq)]
pub struct Canonical {
    /// The alpha-normal body (passes `verify_loop`).
    pub body: Loop,
    /// Maps between the original and the normal form.
    pub witness: Witness,
    /// Merkle-style hash of `body`; equal for alpha-equivalent loops that
    /// canonicalize identically.
    pub hash: StructuralHash,
}

/// A witness that two loops are alpha-equivalent: maps from the first onto
/// the second.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquivWitness {
    /// `vreg_map[v]` is the register of the second loop matching `v`.
    pub vreg_map: Vec<u32>,
    /// `op_map[i]` is the op index of the second loop matching op `i`.
    pub op_map: Vec<u32>,
}

/// Is this operation commutative in its two register operands? Mirrors
/// `vliw_sim::value::eval_op`: `fmul`/`imul` always, `falu`/`ialu` for the
/// `+` and `*` kinds in two-register form. The one-register immediate form
/// of `ialu` is *not* swappable.
pub fn is_commutative(op: &Operation) -> bool {
    if op.uses.len() != 2 {
        return false;
    }
    match op.opcode {
        Opcode::IntMul | Opcode::FMul => true,
        Opcode::IntAlu | Opcode::FAlu => matches!(op.alu, AluKind::Add | AluKind::Mul),
        _ => false,
    }
}

/// The parser's default `alu` kind for opcodes that never consult it, so
/// the normal form round-trips through the text format unchanged.
fn canonical_alu(op: &Operation) -> AluKind {
    match op.opcode {
        Opcode::IntAlu | Opcode::FAlu => op.alu,
        Opcode::IntMul | Opcode::FMul => AluKind::Mul,
        Opcode::IntDiv | Opcode::FDiv => AluKind::Div,
        _ => AluKind::Add,
    }
}

/// Could swapping `a` and `b` change the loop's semantics?
fn conflicts(a: &Operation, b: &Operation) -> bool {
    if let Some(d) = a.def {
        if b.defines(d) || b.uses_reg(d) {
            return true;
        }
    }
    if let Some(d) = b.def {
        if a.uses_reg(d) {
            return true;
        }
    }
    if let (Some(ma), Some(mb)) = (a.mem, b.mem) {
        if ma.array == mb.array && (a.opcode == Opcode::Store || b.opcode == Opcode::Store) {
            return true;
        }
    }
    false
}

/// Order-constraint graph over the body: `preds[j]` lists every `i < j`
/// whose relative order with `j` is semantically meaningful.
pub(crate) fn constraint_graph(l: &Loop) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
    let n = l.ops.len();
    let mut preds = vec![Vec::new(); n];
    let mut succs = vec![Vec::new(); n];
    #[allow(clippy::needless_range_loop)] // indexes two vecs symmetrically
    for j in 0..n {
        for i in 0..j {
            if conflicts(&l.ops[i], &l.ops[j]) {
                preds[j].push(i);
                succs[i].push(j);
            }
        }
    }
    (preds, succs)
}

/// Where one use slot gets its value from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flow {
    /// Fed by the def at original op index `src`; `dist` 0 for the same
    /// iteration, 1 for the previous (use textually precedes every def).
    Def { src: usize, dist: u32 },
    /// Never defined in the body: reads the live-in (or default-zero)
    /// value every iteration.
    LiveIn,
}

/// The register's iteration-0 / live-in value as a mixable word.
fn init_word(l: &Loop, v: VReg) -> u64 {
    match l.live_in.iter().position(|&r| r == v) {
        Some(p) => match l.live_in_vals[p] {
            InitVal::Int(i) => Hasher128::combine(&[2, i as u64]),
            InitVal::Float(b) => Hasher128::combine(&[3, b]),
        },
        None => Hasher128::combine(&[1]),
    }
}

/// Resolve every use slot of every op to its reaching source.
pub(crate) fn resolve_flows(l: &Loop) -> Vec<Vec<Flow>> {
    let mut defs: Vec<Vec<usize>> = vec![Vec::new(); l.n_vregs()];
    for (i, op) in l.ops.iter().enumerate() {
        if let Some(d) = op.def {
            defs[d.index()].push(i);
        }
    }
    l.ops
        .iter()
        .enumerate()
        .map(|(i, op)| {
            op.uses
                .iter()
                .map(|u| {
                    let ds = &defs[u.index()];
                    match ds.iter().rev().find(|&&d| d < i) {
                        Some(&d) => Flow::Def { src: d, dist: 0 },
                        None => match ds.last() {
                            Some(&d) => Flow::Def { src: d, dist: 1 },
                            None => Flow::LiveIn,
                        },
                    }
                })
                .collect()
        })
        .collect()
}

/// Write into `out` each colour's rank among the distinct colours present,
/// using `distinct` as scratch; returns the number of distinct colours.
/// Ranks are isomorphism-invariant: isomorphic loops produce the same
/// colour multiset, hence the same sorted order.
fn ranks_into(colors: &[u64], distinct: &mut Vec<u64>, out: &mut Vec<u64>) -> usize {
    distinct.clear();
    distinct.extend_from_slice(colors);
    distinct.sort_unstable();
    distinct.dedup();
    out.clear();
    out.extend(colors.iter().map(|c| {
        distinct
            .binary_search(c)
            .expect("every colour is among the distinct colours") as u64
    }));
    distinct.len()
}

/// Colour refinement until the (op ∪ reg) partition stops splitting.
/// Returns final op and reg colour ranks.
///
/// Everything that does not change between rounds — each register's
/// initial-value word and its (op, role) touch list — is computed once,
/// and each round reuses the same scratch buffers, so a round allocates
/// nothing.
fn refine(
    l: &Loop,
    preds: &[Vec<usize>],
    succs: &[Vec<usize>],
    flows: &[Vec<Flow>],
) -> (Vec<u64>, Vec<u64>) {
    let n_ops = l.ops.len();
    let n_regs = l.n_vregs();
    let init: Vec<u64> = (0..n_regs).map(|v| init_word(l, VReg(v as u32))).collect();
    let commutative: Vec<bool> = l.ops.iter().map(is_commutative).collect();

    // Per register: the ops touching it, with the role each plays.
    let mut touches: Vec<Vec<(usize, u64)>> = vec![Vec::new(); n_regs];
    for (i, op) in l.ops.iter().enumerate() {
        if let Some(d) = op.def {
            touches[d.index()].push((i, 41));
        }
        for (s, &v) in op.uses.iter().enumerate() {
            let role = if commutative[i] { 42 } else { 43 + s as u64 };
            touches[v.index()].push((i, role));
        }
    }

    let mut op_c: Vec<u64> = l
        .ops
        .iter()
        .map(|op| {
            let mem = match op.mem {
                Some(m) => {
                    Hasher128::combine(&[5, m.array.0 as u64, m.offset as u64, m.stride as u64])
                }
                None => 4,
            };
            Hasher128::combine(&[
                11,
                op.opcode as u64,
                canonical_alu(op) as u64,
                op.imm
                    .map(|i| Hasher128::combine(&[6, i as u64]))
                    .unwrap_or(7),
                op.fimm_bits
                    .map(|b| Hasher128::combine(&[8, b]))
                    .unwrap_or(9),
                mem,
                op.uses.len() as u64,
                op.def.is_some() as u64,
            ])
        })
        .collect();
    let mut reg_c: Vec<u64> = (0..n_regs)
        .map(|v| {
            let r = VReg(v as u32);
            Hasher128::combine(&[
                12,
                l.class_of(r) as u64,
                init[v],
                l.live_out.contains(&r) as u64,
            ])
        })
        .collect();

    let mut op_r: Vec<u64> = Vec::with_capacity(n_ops);
    let mut reg_r: Vec<u64> = Vec::with_capacity(n_regs);
    let mut op_next: Vec<u64> = Vec::with_capacity(n_ops);
    let mut reg_next: Vec<u64> = Vec::with_capacity(n_regs);
    let mut distinct: Vec<u64> = Vec::new();
    let mut ws: Vec<u64> = Vec::new();
    let mut ns: Vec<u64> = Vec::new();
    let mut prev_count = 0usize;
    for _ in 0..(n_ops + n_regs + 2) {
        let n1 = ranks_into(&op_c, &mut distinct, &mut op_r);
        let n2 = ranks_into(&reg_c, &mut distinct, &mut reg_r);
        if n1 + n2 == prev_count {
            return (op_r, reg_r);
        }
        prev_count = n1 + n2;

        op_next.clear();
        for (i, op) in l.ops.iter().enumerate() {
            ws.clear();
            ws.push(31);
            ws.push(op_r[i]);
            ws.push(op.def.map(|d| 1 + reg_r[d.index()]).unwrap_or(0));
            let sigs_at = ws.len();
            for (s, &v) in op.uses.iter().enumerate() {
                ws.push(match flows[i][s] {
                    Flow::Def { src, dist } => Hasher128::combine(&[
                        21,
                        op_r[src],
                        dist as u64,
                        if dist == 1 { init[v.index()] } else { 0 },
                        reg_r[v.index()],
                    ]),
                    Flow::LiveIn => Hasher128::combine(&[22, init[v.index()], reg_r[v.index()]]),
                });
            }
            if commutative[i] {
                ws[sigs_at..].sort_unstable();
            }
            for group in [&preds[i], &succs[i]] {
                ns.clear();
                ns.extend(group.iter().map(|&k| op_r[k]));
                ns.sort_unstable();
                ws.push(Hasher128::combine(&ns));
            }
            op_next.push(Hasher128::combine(&ws));
        }

        reg_next.clear();
        for (v, touch) in touches.iter().enumerate() {
            ws.clear();
            ws.push(51);
            ws.push(reg_r[v]);
            ws.extend(
                touch
                    .iter()
                    .map(|&(i, role)| Hasher128::combine(&[role, op_r[i]])),
            );
            ws[2..].sort_unstable();
            reg_next.push(Hasher128::combine(&ws));
        }

        std::mem::swap(&mut op_c, &mut op_next);
        std::mem::swap(&mut reg_c, &mut reg_next);
    }
    ranks_into(&op_c, &mut distinct, &mut op_r);
    ranks_into(&reg_c, &mut distinct, &mut reg_r);
    (op_r, reg_r)
}

/// Greedy canonical topological order of the constraint graph. Returns the
/// original index at each canonical position.
///
/// An op's key `(rank, sorted predecessor positions, index)` is fixed the
/// moment its last predecessor is placed, so ready ops wait in a min-heap
/// keyed on it, fed by predecessor counts; popping the heap picks exactly
/// the op a full scan of the ready set would.
fn canonical_order(preds: &[Vec<usize>], succs: &[Vec<usize>], op_rank: &[u64]) -> Vec<usize> {
    let n = preds.len();
    let mut pos: Vec<usize> = vec![usize::MAX; n];
    let mut waiting: Vec<usize> = preds.iter().map(Vec::len).collect();
    let key = |i: usize, pos: &[usize]| {
        let mut pred_pos: Vec<usize> = preds[i].iter().map(|&p| pos[p]).collect();
        pred_pos.sort_unstable();
        Reverse((op_rank[i], pred_pos, i))
    };
    let mut ready: BinaryHeap<Reverse<(u64, Vec<usize>, usize)>> = (0..n)
        .filter(|&i| waiting[i] == 0)
        .map(|i| key(i, &pos))
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(Reverse((_, _, i))) = ready.pop() {
        pos[i] = order.len();
        order.push(i);
        for &s in &succs[i] {
            waiting[s] -= 1;
            if waiting[s] == 0 {
                ready.push(key(s, &pos));
            }
        }
    }
    assert_eq!(
        order.len(),
        n,
        "constraint graph is acyclic (edges only run forward)"
    );
    order
}

/// Sort key for one use slot of a commutative op, computed once the full
/// canonical order is fixed (every feeder's canonical position is known).
fn use_key(
    l: &Loop,
    flow: Flow,
    v: VReg,
    op_pos: &[usize],
    reg_rank: &[u64],
) -> (u64, u64, u64, u64, u64, u64) {
    match flow {
        Flow::Def { src, dist } => (
            0,
            op_pos[src] as u64,
            dist as u64,
            if dist == 1 { init_word(l, v) } else { 0 },
            reg_rank[v.index()],
            v.0 as u64,
        ),
        Flow::LiveIn => (1, 0, 0, init_word(l, v), reg_rank[v.index()], v.0 as u64),
    }
}

/// Merkle-style structural hash of an (already canonical) body. Names are
/// excluded — the normal form's names are positional by construction.
fn hash_canonical_body(l: &Loop) -> StructuralHash {
    let mut header = Hasher128::new(0x6865_6164); // "head"
    header
        .word(l.trip_count as u64)
        .word(l.nesting_depth as u64)
        .word(l.ops.len() as u64)
        .word(l.n_vregs() as u64)
        .word(l.arrays.len() as u64);

    let mut arrays = Hasher128::new(0x61_72_72_73); // "arrs"
    for a in &l.arrays {
        arrays.word(a.class as u64).word(a.len as u64);
    }

    let mut regs = Hasher128::new(0x72_65_67_73); // "regs"
    for &c in &l.vreg_classes {
        regs.word(c as u64);
    }

    let mut live_in = Hasher128::new(0x6c_69_76_69); // "livi"
    for (&v, &init) in l.live_in.iter().zip(&l.live_in_vals) {
        live_in.word(v.0 as u64);
        match init {
            InitVal::Int(i) => live_in.word(2).iword(i),
            InitVal::Float(b) => live_in.word(3).word(b),
        };
    }

    let mut ops = Hasher128::new(0x6f_70_73_21); // "ops!"
    for op in &l.ops {
        let mut leaf = Hasher128::new(0x6f_70_00_00 | op.id.0 as u64);
        leaf.word(op.opcode as u64).word(canonical_alu(op) as u64);
        leaf.word(op.def.map(|d| 1 + d.0 as u64).unwrap_or(0));
        leaf.word(op.uses.len() as u64);
        for &u in &op.uses {
            leaf.word(u.0 as u64);
        }
        match op.imm {
            Some(i) => leaf.word(1).iword(i),
            None => leaf.word(0),
        };
        match op.fimm_bits {
            Some(b) => leaf.word(1).word(b),
            None => leaf.word(0),
        };
        match op.mem {
            Some(m) => leaf
                .word(1)
                .word(m.array.0 as u64)
                .iword(m.offset)
                .iword(m.stride),
            None => leaf.word(0),
        };
        ops.hash(leaf.finish());
    }

    let mut live_out = Hasher128::new(0x6c_69_76_6f); // "livo"
    for &v in &l.live_out {
        live_out.word(v.0 as u64);
    }

    let mut root = Hasher128::new(0x726f_6f74); // "root"
    for leaf in [header, arrays, regs, live_in, ops, live_out] {
        root.hash(leaf.finish());
    }
    root.finish()
}

/// Canonicalize `l` into its alpha-normal form.
pub fn canonicalize(l: &Loop) -> Canonical {
    let (preds, succs) = constraint_graph(l);
    let flows = resolve_flows(l);
    let (op_rank, reg_rank) = refine(l, &preds, &succs, &flows);
    let order = canonical_order(&preds, &succs, &op_rank);

    let mut op_pos = vec![usize::MAX; l.ops.len()];
    for (p, &i) in order.iter().enumerate() {
        op_pos[i] = p;
    }

    // Per original op: its use slots in canonical operand order.
    let slot_order: Vec<Vec<usize>> = l
        .ops
        .iter()
        .enumerate()
        .map(|(i, op)| {
            let mut slots: Vec<usize> = (0..op.uses.len()).collect();
            if is_commutative(op) {
                slots.sort_by_key(|&s| use_key(l, flows[i][s], op.uses[s], &op_pos, &reg_rank));
            }
            slots
        })
        .collect();

    // Dense renaming in first-mention order over the canonical trace.
    let n_regs = l.n_vregs();
    let mut to_canon: Vec<Option<u32>> = vec![None; n_regs];
    let mut from_canon: Vec<u32> = Vec::with_capacity(n_regs);
    let mention = |v: VReg, to: &mut Vec<Option<u32>>, from: &mut Vec<u32>| {
        if to[v.index()].is_none() {
            to[v.index()] = Some(from.len() as u32);
            from.push(v.0);
        }
    };
    for &i in &order {
        let op = &l.ops[i];
        for &s in &slot_order[i] {
            mention(op.uses[s], &mut to_canon, &mut from_canon);
        }
        if let Some(d) = op.def {
            mention(d, &mut to_canon, &mut from_canon);
        }
    }
    // Registers never mentioned by any op (unused live-ins, dead live-outs):
    // appended by colour, original index as the (symmetric) tiebreak.
    let mut leftovers: Vec<u32> = (0..n_regs as u32)
        .filter(|&v| to_canon[v as usize].is_none())
        .collect();
    leftovers.sort_by_key(|&v| (reg_rank[v as usize], v));
    for v in leftovers {
        mention(VReg(v), &mut to_canon, &mut from_canon);
    }
    let to_canon: Vec<u32> = to_canon
        .into_iter()
        .map(|c| c.expect("all assigned"))
        .collect();
    let map = |v: VReg| VReg(to_canon[v.index()]);

    // Rebuild the body.
    let ops: Vec<Operation> = order
        .iter()
        .enumerate()
        .map(|(p, &i)| {
            let op = &l.ops[i];
            Operation {
                id: OpId(p as u32),
                opcode: op.opcode,
                alu: canonical_alu(op),
                def: op.def.map(map),
                uses: slot_order[i].iter().map(|&s| map(op.uses[s])).collect(),
                imm: op.imm,
                fimm_bits: op.fimm_bits,
                mem: op.mem,
            }
        })
        .collect();

    let mut vreg_classes = vec![vliw_ir::RegClass::Int; n_regs];
    for (orig, &canon) in to_canon.iter().enumerate() {
        vreg_classes[canon as usize] = l.vreg_classes[orig];
    }

    let mut live_in: Vec<(VReg, InitVal)> = l
        .live_in
        .iter()
        .zip(&l.live_in_vals)
        .map(|(&v, &init)| (map(v), init))
        .collect();
    live_in.sort_by_key(|&(v, _)| v);
    let mut live_out: Vec<VReg> = l.live_out.iter().map(|&v| map(v)).collect();
    live_out.sort_unstable();

    let arrays: Vec<ArrayInfo> = l
        .arrays
        .iter()
        .enumerate()
        .map(|(k, a)| ArrayInfo {
            name: format!("a{k}"),
            class: a.class,
            len: a.len,
        })
        .collect();

    let body = Loop {
        name: CANONICAL_LOOP_NAME.to_string(),
        ops,
        vreg_classes,
        live_in: live_in.iter().map(|&(v, _)| v).collect(),
        live_in_vals: live_in.iter().map(|&(_, init)| init).collect(),
        live_out,
        arrays,
        trip_count: l.trip_count,
        nesting_depth: l.nesting_depth,
    };
    let hash = hash_canonical_body(&body);
    let witness = Witness {
        original_name: l.name.clone(),
        vreg_from_canon: from_canon,
        vreg_to_canon: to_canon,
        op_to_canon: op_pos.iter().map(|&p| p as u32).collect(),
        op_from_canon: order.iter().map(|&i| i as u32).collect(),
        array_names: l.arrays.iter().map(|a| a.name.clone()).collect(),
    };
    Canonical {
        body,
        witness,
        hash,
    }
}

/// The structural hash of `l`'s normal form.
pub fn structural_hash(l: &Loop) -> StructuralHash {
    canonicalize(l).hash
}

impl Canonical {
    /// Decide alpha-equivalence of the loops behind two normal forms; on
    /// success the witness maps `self`'s original registers and ops onto
    /// `other`'s. Equality of normal forms is the decision procedure, so a
    /// `Some` answer is always sound.
    pub fn equivalence(&self, other: &Canonical) -> Option<EquivWitness> {
        if self.body != other.body {
            return None;
        }
        Some(EquivWitness {
            vreg_map: self
                .witness
                .vreg_to_canon
                .iter()
                .map(|&c| other.witness.vreg_from_canon[c as usize])
                .collect(),
            op_map: self
                .witness
                .op_to_canon
                .iter()
                .map(|&p| other.witness.op_from_canon[p as usize])
                .collect(),
        })
    }
}

/// Decide alpha-equivalence of `a` and `b`; on success the witness maps
/// `a`'s registers and ops onto `b`'s. See [`Canonical::equivalence`].
pub fn alpha_equivalent(a: &Loop, b: &Loop) -> Option<EquivWitness> {
    canonicalize(a).equivalence(&canonicalize(b))
}

/// Validate an equivalence witness structurally: bijective maps that
/// preserve the array table, classes, opcodes, immediates, memory
/// metadata, operand wiring (up to commutative swap), liveness, initial
/// values and the relative order of every constrained op pair. Returns a
/// human-readable reason on failure.
pub fn check_witness(a: &Loop, b: &Loop, w: &EquivWitness) -> Result<(), String> {
    if a.n_vregs() != b.n_vregs() || a.ops.len() != b.ops.len() {
        return Err("size mismatch".into());
    }
    if a.trip_count != b.trip_count || a.nesting_depth != b.nesting_depth {
        return Err("trip/nesting mismatch".into());
    }
    if a.arrays.len() != b.arrays.len() {
        return Err("array count mismatch".into());
    }
    // Array order is semantic (memory is seeded by index), so the array map
    // is the identity and only names may differ.
    for (k, (x, y)) in a.arrays.iter().zip(&b.arrays).enumerate() {
        if x.class != y.class || x.len != y.len {
            return Err(format!("array a{k} class/length mismatch"));
        }
    }
    if w.vreg_map.len() != a.n_vregs() || w.op_map.len() != a.ops.len() {
        return Err("witness arity mismatch".into());
    }
    let mut seen_v = vec![false; b.n_vregs()];
    for (v, &m) in w.vreg_map.iter().enumerate() {
        let m = m as usize;
        if m >= b.n_vregs() || std::mem::replace(&mut seen_v[m], true) {
            return Err(format!("vreg map not a bijection at v{v}"));
        }
        if a.vreg_classes[v] != b.vreg_classes[m] {
            return Err(format!("class mismatch at v{v}"));
        }
        if init_word(a, VReg(v as u32)) != init_word(b, VReg(m as u32)) {
            return Err(format!("live-in value mismatch at v{v}"));
        }
        if a.live_out.contains(&VReg(v as u32)) != b.live_out.contains(&VReg(m as u32)) {
            return Err(format!("live-out mismatch at v{v}"));
        }
    }
    let mut seen_o = vec![false; b.ops.len()];
    for (i, &j) in w.op_map.iter().enumerate() {
        let (oa, j) = (&a.ops[i], j as usize);
        if j >= b.ops.len() || std::mem::replace(&mut seen_o[j], true) {
            return Err(format!("op map not a bijection at op{i}"));
        }
        let ob = &b.ops[j];
        if oa.opcode != ob.opcode
            || canonical_alu(oa) != canonical_alu(ob)
            || oa.imm != ob.imm
            || oa.fimm_bits != ob.fimm_bits
            || oa.mem != ob.mem
            || oa.uses.len() != ob.uses.len()
        {
            return Err(format!("op attribute mismatch at op{i}"));
        }
        if oa.def.map(|d| VReg(w.vreg_map[d.index()])) != ob.def {
            return Err(format!("def mismatch at op{i}"));
        }
        let mapped: Vec<VReg> = oa
            .uses
            .iter()
            .map(|u| VReg(w.vreg_map[u.index()]))
            .collect();
        let matches_direct = mapped == ob.uses;
        let matches_swapped = is_commutative(oa)
            && mapped.len() == 2
            && mapped[0] == ob.uses[1]
            && mapped[1] == ob.uses[0];
        if !matches_direct && !matches_swapped {
            return Err(format!("use wiring mismatch at op{i}"));
        }
    }
    // Ops whose swap could change semantics must keep their relative order,
    // or a use would read a different reaching def (or a cell a different
    // store).
    let (_, succs) = constraint_graph(a);
    for (i, ss) in succs.iter().enumerate() {
        if let Some(&j) = ss.iter().find(|&&j| w.op_map[i] > w.op_map[j]) {
            return Err(format!(
                "op map reverses the constrained pair op{i} → op{j}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_ir::{format_loop_full, parse_loop, verify_loop, LoopBuilder, RegClass};

    fn sample() -> Loop {
        let mut b = LoopBuilder::new("sample");
        let x = b.array("x", RegClass::Float, 16);
        let y = b.array("y", RegClass::Float, 16);
        let s = b.live_in_float_val("s", 0.25);
        let xv = b.load(x, 0, 1);
        let yv = b.load(y, 0, 1);
        let p = b.fmul(xv, yv);
        b.fadd_into(s, s, p);
        b.store(y, 0, 1, p);
        b.live_out(s);
        b.finish(8)
    }

    #[test]
    fn canonical_form_is_valid_and_idempotent() {
        let l = sample();
        let c1 = canonicalize(&l);
        verify_loop(&c1.body).expect("canonical body verifies");
        let c2 = canonicalize(&c1.body);
        assert_eq!(c1.body, c2.body, "canonicalize is a projection");
        assert_eq!(c1.hash, c2.hash);
    }

    #[test]
    fn canonical_form_round_trips_through_text() {
        let c = canonicalize(&sample());
        let text = format_loop_full(&c.body);
        let parsed = parse_loop(&text).expect("canonical text parses");
        assert_eq!(parsed, c.body);
    }

    #[test]
    fn renaming_is_invisible() {
        let l = sample();
        let mut renamed = l.clone();
        renamed.name = "other".into();
        renamed.arrays[0].name = "zzz".into();
        let ca = canonicalize(&l);
        let cb = canonicalize(&renamed);
        assert_eq!(ca.body, cb.body);
        assert_eq!(ca.hash, cb.hash);
        let w = alpha_equivalent(&l, &renamed).expect("isomorphic");
        check_witness(&l, &renamed, &w).expect("witness checks");
    }

    #[test]
    fn commutative_swap_is_invisible_but_subtraction_is_not() {
        let mut b = LoopBuilder::new("c");
        let u = b.live_in_float_val("u", 1.0);
        let v = b.live_in_float_val("v", 2.0);
        let s = b.fadd(u, v);
        b.live_out(s);
        let add = b.finish(4);

        let mut swapped = add.clone();
        swapped.ops[0].uses.swap(0, 1);
        assert_eq!(structural_hash(&add), structural_hash(&swapped));

        let mut sub = add.clone();
        sub.ops[0].alu = AluKind::Sub;
        assert_ne!(structural_hash(&add), structural_hash(&sub));
        assert!(alpha_equivalent(&add, &sub).is_none());
    }

    #[test]
    fn trip_count_and_offsets_feed_the_hash() {
        let l = sample();
        let mut trip = l.clone();
        trip.trip_count += 1;
        assert_ne!(structural_hash(&l), structural_hash(&trip));
        let mut off = l.clone();
        off.ops[0].mem.as_mut().unwrap().offset += 1;
        assert_ne!(structural_hash(&l), structural_hash(&off));
    }

    #[test]
    fn array_order_is_semantic() {
        // Same shape, but the two loads hit arrays 0/1 in swapped order:
        // the simulator seeds contents by array index, so these must NOT
        // collide.
        let build = |flip: bool| {
            let mut b = LoopBuilder::new("ao");
            let x = b.array("x", RegClass::Float, 8);
            let y = b.array("y", RegClass::Float, 8);
            let (first, second) = if flip { (y, x) } else { (x, y) };
            let a = b.load(first, 0, 1);
            let c = b.load(second, 0, 1);
            let s = b.fsub(a, c);
            b.live_out(s);
            b.finish(4)
        };
        assert_ne!(
            structural_hash(&build(false)),
            structural_hash(&build(true))
        );
    }

    #[test]
    fn independent_statements_reorder_to_one_form() {
        // Two independent load→scale→store chains over different arrays,
        // written in interleaved vs. grouped order.
        let build = |grouped: bool| {
            let mut b = LoopBuilder::new("ind");
            let x = b.array("x", RegClass::Float, 8);
            let y = b.array("y", RegClass::Float, 8);
            let cst = b.fconst_new(2.0);
            if grouped {
                let xv = b.load(x, 0, 1);
                let xs = b.fmul(xv, cst);
                b.store(x, 0, 1, xs);
                let yv = b.load(y, 0, 1);
                let ys = b.fmul(yv, cst);
                b.store(y, 0, 1, ys);
            } else {
                let xv = b.load(x, 0, 1);
                let yv = b.load(y, 0, 1);
                let xs = b.fmul(xv, cst);
                let ys = b.fmul(yv, cst);
                b.store(x, 0, 1, xs);
                b.store(y, 0, 1, ys);
            }
            b.finish(4)
        };
        let a = build(true);
        let b = build(false);
        assert_eq!(structural_hash(&a), structural_hash(&b));
        let w = alpha_equivalent(&a, &b).expect("isomorphic");
        check_witness(&a, &b, &w).expect("witness checks");
    }

    #[test]
    fn conflicting_stores_keep_their_order() {
        let build = |flip: bool| {
            let mut b = LoopBuilder::new("st");
            let x = b.array("x", RegClass::Float, 8);
            let u = b.live_in_float_val("u", 1.0);
            let v = b.live_in_float_val("v", 2.0);
            if flip {
                b.store(x, 0, 1, v);
                b.store(x, 0, 1, u);
            } else {
                b.store(x, 0, 1, u);
                b.store(x, 0, 1, v);
            }
            b.finish(4)
        };
        // Different final memory ⇒ must not be equivalent.
        assert!(alpha_equivalent(&build(false), &build(true)).is_none());
    }

    #[test]
    fn recurrence_distance_matters() {
        // s = s + p (use-before-def recurrence) vs a fresh def first: the
        // reaching-def distances differ, so the hashes must too.
        let mut b1 = LoopBuilder::new("r1");
        let s1 = b1.live_in_float_val("s", 0.0);
        let one1 = b1.fconst_new(1.0);
        b1.fadd_into(s1, s1, one1);
        b1.live_out(s1);
        let rec = b1.finish(4);

        let mut b2 = LoopBuilder::new("r2");
        let s2 = b2.live_in_float_val("s", 0.0);
        let one2 = b2.fconst_new(1.0);
        let t = b2.fadd(s2, one2);
        b2.live_out(t);
        let straight = b2.finish(4);

        assert_ne!(structural_hash(&rec), structural_hash(&straight));
    }

    #[test]
    fn live_in_value_feeds_the_hash() {
        let build = |init: f64| {
            let mut b = LoopBuilder::new("li");
            let s = b.live_in_float_val("s", init);
            let one = b.fconst_new(1.0);
            b.fadd_into(s, s, one);
            b.live_out(s);
            b.finish(4)
        };
        assert_ne!(structural_hash(&build(0.0)), structural_hash(&build(1.0)));
    }

    /// `v = load x[i]; y = v + c` with live-out `y`.
    fn load_then_add() -> Loop {
        let mut b = LoopBuilder::new("ordered");
        let x = b.array("x", RegClass::Float, 8);
        let c = b.live_in_float_val("c", 1.5);
        let v = b.load(x, 0, 1);
        let y = b.fadd(v, c);
        b.live_out(y);
        b.finish(4)
    }

    fn identity_witness(l: &Loop, op_map: Vec<u32>) -> EquivWitness {
        EquivWitness {
            vreg_map: (0..l.n_vregs() as u32).collect(),
            op_map,
        }
    }

    #[test]
    fn witness_that_reverses_a_dependence_is_rejected() {
        let a = load_then_add();
        // Same two ops swapped: the add now reads the previous iteration's
        // load, so the loops compute different live-outs.
        let mut b = a.clone();
        b.ops.swap(0, 1);
        for (p, op) in b.ops.iter_mut().enumerate() {
            op.id = OpId(p as u32);
        }
        verify_loop(&b).expect("swapped body is still valid IR");
        let (ra, rb) = (
            vliw_sim::reference::run_reference(&a),
            vliw_sim::reference::run_reference(&b),
        );
        assert!(!ra.live_out[0].bits_eq(rb.live_out[0]));
        assert!(alpha_equivalent(&a, &b).is_none());

        let err = check_witness(&a, &b, &identity_witness(&a, vec![1, 0]))
            .expect_err("op map reverses the load → add dependence");
        assert!(err.contains("reverses"), "{err}");
    }

    #[test]
    fn witness_between_different_array_tables_is_rejected() {
        let a = load_then_add();
        let same = identity_witness(&a, vec![0, 1]);
        check_witness(&a, &a, &same).expect("identity witness on itself");

        let mut longer = a.clone();
        longer.arrays[0].len += 8;
        assert!(check_witness(&a, &longer, &same).is_err());

        let mut int_array = a.clone();
        int_array.arrays[0].class = RegClass::Int;
        assert!(check_witness(&a, &int_array, &same).is_err());

        let mut extra = a.clone();
        extra.arrays.push(ArrayInfo {
            name: "unused".into(),
            class: RegClass::Float,
            len: 8,
        });
        assert!(check_witness(&a, &extra, &same).is_err());
    }

    #[test]
    fn empty_loop_canonicalizes() {
        let b = LoopBuilder::new("empty");
        let l = b.finish(0);
        let c = canonicalize(&l);
        assert_eq!(c.body.ops.len(), 0);
        assert_eq!(canonicalize(&c.body).hash, c.hash);
    }
}
