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

use crate::hash::{combine_n, Combine, Hasher128, StructuralHash};
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

/// Order-constraint graph over a loop body, in compressed sparse row form.
///
/// `preds(j)` lists, ascending, every `i < j` whose relative order with `j`
/// is semantically meaningful: the two touch a common register in a
/// def/def, def/use or use/def pair, or a common array where either access
/// is a store. `succs(i)` is the transpose, also ascending. Any permutation
/// of the body that keeps every constrained pair in order executes
/// identically under the reference interpreter.
///
/// The graph depends only on each op's def, uses, opcode and memory array,
/// so renaming registers and swapping commutative operands leave it
/// unchanged; that is what lets [`canonicalize_with`],
/// [`variant_with`](crate::variant_with) and [`check_witness_with`] share
/// one build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstraintGraph {
    pred_at: Vec<u32>,
    preds: Vec<u32>,
    succ_at: Vec<u32>,
    succs: Vec<u32>,
}

/// Lists in CSR form: `items[at[k]..at[k + 1]]` belong to key `k`.
struct Csr {
    at: Vec<u32>,
    items: Vec<u32>,
}

impl Csr {
    /// Build from `(key, item)` pairs produced twice by `each` (a count
    /// pass, then a fill pass); items keep their production order per key.
    fn build(n_keys: usize, each: impl Fn(&mut dyn FnMut(usize, u32))) -> Csr {
        let mut at = vec![0u32; n_keys + 1];
        each(&mut |k, _| at[k + 1] += 1);
        for k in 0..n_keys {
            at[k + 1] += at[k];
        }
        let mut fill = at.clone();
        let mut items = vec![0u32; at[n_keys] as usize];
        each(&mut |k, item| {
            items[fill[k] as usize] = item;
            fill[k] += 1;
        });
        Csr { at, items }
    }

    fn get(&self, k: usize) -> &[u32] {
        &self.items[self.at[k] as usize..self.at[k + 1] as usize]
    }
}

impl ConstraintGraph {
    /// Build the graph of `l` from per-register and per-array touch lists:
    /// each op's predecessors are the earlier ops on the lists its own
    /// def, uses and memory access select.
    pub fn new(l: &Loop) -> ConstraintGraph {
        let n = l.ops.len();
        let n_regs = l
            .ops
            .iter()
            .flat_map(|op| op.def.iter().chain(&op.uses))
            .map(|v| v.index() + 1)
            .fold(l.n_vregs(), usize::max);
        let n_arrays = l
            .ops
            .iter()
            .filter_map(|op| op.mem)
            .map(|m| m.array.index() + 1)
            .max()
            .unwrap_or(0);
        let defs = Csr::build(n_regs, |add| {
            for (i, op) in l.ops.iter().enumerate() {
                if let Some(d) = op.def {
                    add(d.index(), i as u32);
                }
            }
        });
        let uses = Csr::build(n_regs, |add| {
            for (i, op) in l.ops.iter().enumerate() {
                for u in op.distinct_uses() {
                    add(u.index(), i as u32);
                }
            }
        });
        let accesses = Csr::build(n_arrays, |add| {
            for (i, op) in l.ops.iter().enumerate() {
                if let Some(m) = op.mem {
                    add(m.array.index(), i as u32);
                }
            }
        });
        let stores = Csr::build(n_arrays, |add| {
            for (i, op) in l.ops.iter().enumerate() {
                if let (Some(m), Opcode::Store) = (op.mem, op.opcode) {
                    add(m.array.index(), i as u32);
                }
            }
        });

        let mut pred_at = Vec::with_capacity(n + 1);
        pred_at.push(0u32);
        let mut preds: Vec<u32> = Vec::new();
        let mut stamp = vec![u32::MAX; n];
        for (j, op) in l.ops.iter().enumerate() {
            let j = j as u32;
            let from = preds.len();
            // The lists are ascending, so the earlier ops are a prefix.
            let mut take = |list: &[u32]| {
                for &i in list.iter().take_while(|&&i| i < j) {
                    if std::mem::replace(&mut stamp[i as usize], j) != j {
                        preds.push(i);
                    }
                }
            };
            if let Some(d) = op.def {
                take(defs.get(d.index()));
                take(uses.get(d.index()));
            }
            for &u in &op.uses {
                take(defs.get(u.index()));
            }
            if let Some(m) = op.mem {
                take(if op.opcode == Opcode::Store {
                    accesses.get(m.array.index())
                } else {
                    stores.get(m.array.index())
                });
            }
            preds[from..].sort_unstable();
            pred_at.push(preds.len() as u32);
        }

        let succ = Csr::build(n, |add| {
            for j in 0..n {
                for &i in &preds[pred_at[j] as usize..pred_at[j + 1] as usize] {
                    add(i as usize, j as u32);
                }
            }
        });
        ConstraintGraph {
            pred_at,
            preds,
            succ_at: succ.at,
            succs: succ.items,
        }
    }

    /// Number of operations.
    pub(crate) fn n_ops(&self) -> usize {
        self.pred_at.len() - 1
    }

    /// The constrained predecessors of op `j`, ascending.
    pub(crate) fn preds(&self, j: usize) -> &[u32] {
        &self.preds[self.pred_at[j] as usize..self.pred_at[j + 1] as usize]
    }

    /// The constrained successors of op `i`, ascending.
    pub(crate) fn succs(&self, i: usize) -> &[u32] {
        &self.succs[self.succ_at[i] as usize..self.succ_at[i + 1] as usize]
    }
}

/// Where one use slot gets its value from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    /// Fed by the def at original op index `src`; `dist` 0 for the same
    /// iteration, 1 for the previous (use textually precedes every def).
    Def { src: u32, dist: u32 },
    /// Never defined in the body: reads the live-in (or default-zero)
    /// value every iteration.
    LiveIn,
}

/// Every use slot of every op resolved to its reaching source, flat: op
/// `i`'s slots are `flow[at[i]..at[i + 1]]`, in operand order.
struct Flows {
    at: Vec<u32>,
    flow: Vec<Flow>,
}

impl Flows {
    /// Resolve each use to the last def of its register before the op
    /// (distance 0), else the last def in the body (distance 1), else the
    /// live-in value: one sweep in program order.
    fn new(l: &Loop) -> Flows {
        let mut last_def = vec![u32::MAX; l.n_vregs()];
        for (i, op) in l.ops.iter().enumerate() {
            if let Some(d) = op.def {
                last_def[d.index()] = i as u32;
            }
        }
        let mut before = vec![u32::MAX; l.n_vregs()];
        let mut at = Vec::with_capacity(l.ops.len() + 1);
        at.push(0u32);
        let mut flow = Vec::with_capacity(l.ops.len() * 2);
        for (i, op) in l.ops.iter().enumerate() {
            for u in &op.uses {
                flow.push(match (before[u.index()], last_def[u.index()]) {
                    (u32::MAX, u32::MAX) => Flow::LiveIn,
                    (u32::MAX, src) => Flow::Def { src, dist: 1 },
                    (src, _) => Flow::Def { src, dist: 0 },
                });
            }
            if let Some(d) = op.def {
                before[d.index()] = i as u32;
            }
            at.push(flow.len() as u32);
        }
        Flows { at, flow }
    }

    fn of(&self, i: usize) -> &[Flow] {
        &self.flow[self.at[i] as usize..self.at[i + 1] as usize]
    }
}

/// An initial value as a mixable word.
fn init_val_word(init: InitVal) -> u64 {
    match init {
        InitVal::Int(i) => combine_n([2, i as u64]),
        InitVal::Float(b) => combine_n([3, b]),
    }
}

/// Each register's iteration-0 / live-in value as a mixable word (its
/// first live-in entry's value; default zero when not live-in).
fn init_words(l: &Loop) -> Vec<u64> {
    let mut init = vec![combine_n([1]); l.n_vregs()];
    for (&v, &val) in l.live_in.iter().zip(&l.live_in_vals).rev() {
        if let Some(w) = init.get_mut(v.index()) {
            *w = init_val_word(val);
        }
    }
    init
}

/// Which registers are live-out.
fn live_out_mask(l: &Loop) -> Vec<bool> {
    let mut out = vec![false; l.n_vregs()];
    for &v in &l.live_out {
        if let Some(o) = out.get_mut(v.index()) {
            *o = true;
        }
    }
    out
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
/// Everything that does not change between rounds is computed once, flat:
/// each use slot's resolved flow, each register's (op, role) touch list
/// and, for every colour word a round recomputes, the hash state after its
/// constant leading words (the slot kind and, for a live-in read, its
/// initial value; a touch's role). Each round resumes from those states
/// and reuses the same scratch buffers, so a round allocates nothing.
fn refine(
    l: &Loop,
    g: &ConstraintGraph,
    flows: &Flows,
    init: &[u64],
    commutative: &[bool],
) -> (Vec<u64>, Vec<u64>) {
    let n_ops = l.ops.len();
    let n_regs = l.n_vregs();

    // Per use slot, in `flows` order: the hash state after its constant
    // leading words.
    let slot_prefix: Vec<Combine> = l
        .ops
        .iter()
        .enumerate()
        .flat_map(|(i, op)| op.uses.iter().zip(flows.of(i)))
        .map(|(&v, &flow)| match flow {
            Flow::Def { .. } => Combine::START.step(21),
            Flow::LiveIn => Combine::START.step(22).step(init[v.index()]),
        })
        .collect();
    // Per register: the ops touching it, as `(op << 8) | role` words, and
    // each touch's state after its role.
    let touches = Csr::build(n_regs, |add| {
        for (i, op) in l.ops.iter().enumerate() {
            let t = (i as u32) << 8;
            if let Some(d) = op.def {
                add(d.index(), t | 41);
            }
            for (s, &v) in op.uses.iter().enumerate() {
                let role = if commutative[i] { 42 } else { 43 + s as u32 };
                add(v.index(), t | role);
            }
        }
    });
    let touch_prefix: Vec<Combine> = touches
        .items
        .iter()
        .map(|&t| Combine::START.step((t & 0xff) as u64))
        .collect();
    let (op_start, reg_start) = (Combine::START.step(31), Combine::START.step(51));

    let mut op_c: Vec<u64> = l
        .ops
        .iter()
        .map(|op| {
            let mem = match op.mem {
                Some(m) => combine_n([5, m.array.0 as u64, m.offset as u64, m.stride as u64]),
                None => 4,
            };
            combine_n([
                11,
                op.opcode as u64,
                canonical_alu(op) as u64,
                op.imm.map(|i| combine_n([6, i as u64])).unwrap_or(7),
                op.fimm_bits.map(|b| combine_n([8, b])).unwrap_or(9),
                mem,
                op.uses.len() as u64,
                op.def.is_some() as u64,
            ])
        })
        .collect();
    let live_out = live_out_mask(l);
    let mut reg_c: Vec<u64> = (0..n_regs)
        .map(|v| combine_n([12, l.vreg_classes[v] as u64, init[v], live_out[v] as u64]))
        .collect();

    let mut op_r: Vec<u64> = Vec::with_capacity(n_ops);
    let mut reg_r: Vec<u64> = Vec::with_capacity(n_regs);
    let mut op_next: Vec<u64> = Vec::with_capacity(n_ops);
    let mut reg_next: Vec<u64> = Vec::with_capacity(n_regs);
    let mut distinct: Vec<u64> = Vec::new();
    let mut sigs: Vec<u64> = Vec::new();
    let mut ns: Vec<u64> = Vec::new();
    let mut prev_count = 0usize;
    for _ in 0..(n_ops + n_regs + 2) {
        let n1 = ranks_into(&op_c, &mut distinct, &mut op_r);
        let n2 = ranks_into(&reg_c, &mut distinct, &mut reg_r);
        if n1 + n2 == prev_count {
            return (op_r, reg_r);
        }
        prev_count = n1 + n2;

        // An op's colour: [31, rank, def, use signatures (sorted when
        // commutative), predecessor and successor rank multisets].
        op_next.clear();
        for (i, op) in l.ops.iter().enumerate() {
            let at = flows.at[i] as usize;
            sigs.clear();
            for (s, (&v, &flow)) in op.uses.iter().zip(flows.of(i)).enumerate() {
                let (prefix, rank) = (slot_prefix[at + s], reg_r[v.index()]);
                sigs.push(match flow {
                    Flow::Def { src, dist: 0 } => prefix
                        .step(op_r[src as usize])
                        .step(0)
                        .step(0)
                        .step(rank)
                        .finish(5),
                    Flow::Def { src, dist } => prefix
                        .step(op_r[src as usize])
                        .step(dist as u64)
                        .step(init[v.index()])
                        .step(rank)
                        .finish(5),
                    Flow::LiveIn => prefix.step(rank).finish(3),
                });
            }
            if commutative[i] {
                sigs.sort_unstable();
            }
            let mut c = op_start
                .step(op_r[i])
                .step(op.def.map(|d| 1 + reg_r[d.index()]).unwrap_or(0));
            for &sig in &sigs {
                c = c.step(sig);
            }
            for group in [g.preds(i), g.succs(i)] {
                ns.clear();
                ns.extend(group.iter().map(|&k| op_r[k as usize]));
                ns.sort_unstable();
                c = c.step(Hasher128::combine(&ns));
            }
            op_next.push(c.finish(5 + sigs.len()));
        }

        // A register's colour: [51, rank, sorted (role, op rank) touches].
        reg_next.clear();
        for (v, &rank) in reg_r.iter().enumerate() {
            let span = touches.at[v] as usize..touches.at[v + 1] as usize;
            sigs.clear();
            sigs.extend(
                touches.items[span.clone()]
                    .iter()
                    .zip(&touch_prefix[span])
                    .map(|(&t, prefix)| prefix.step(op_r[(t >> 8) as usize]).finish(2)),
            );
            sigs.sort_unstable();
            let c = sigs
                .iter()
                .fold(reg_start.step(rank), |c, &sig| c.step(sig));
            reg_next.push(c.finish(2 + sigs.len()));
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
/// the op a full scan of the ready set would. The positions live in one
/// flat buffer laid out like the graph's predecessor lists, so the heap
/// holds bare op indices.
fn canonical_order(g: &ConstraintGraph, op_rank: &[u64]) -> Vec<usize> {
    let n = g.n_ops();
    let mut pos = vec![u32::MAX; n];
    let mut waiting: Vec<u32> = (0..n).map(|i| g.preds(i).len() as u32).collect();
    let mut pred_pos = vec![0u32; g.preds.len()];
    let span = |i: usize| g.pred_at[i] as usize..g.pred_at[i + 1] as usize;
    let less = |a: u32, b: u32, pred_pos: &[u32]| {
        let (a, b) = (a as usize, b as usize);
        (op_rank[a], &pred_pos[span(a)], a) < (op_rank[b], &pred_pos[span(b)], b)
    };
    let mut heap: Vec<u32> = Vec::with_capacity(n);
    let push = |heap: &mut Vec<u32>, i: u32, pred_pos: &[u32]| {
        heap.push(i);
        let mut c = heap.len() - 1;
        while c > 0 {
            let p = (c - 1) / 2;
            if !less(heap[c], heap[p], pred_pos) {
                break;
            }
            heap.swap(c, p);
            c = p;
        }
    };
    for i in (0..n).filter(|&i| waiting[i] == 0) {
        push(&mut heap, i as u32, &pred_pos);
    }
    let mut order = Vec::with_capacity(n);
    while !heap.is_empty() {
        let i = heap.swap_remove(0);
        let mut p = 0;
        loop {
            let (l, r) = (2 * p + 1, 2 * p + 2);
            let mut m = p;
            if l < heap.len() && less(heap[l], heap[m], &pred_pos) {
                m = l;
            }
            if r < heap.len() && less(heap[r], heap[m], &pred_pos) {
                m = r;
            }
            if m == p {
                break;
            }
            heap.swap(p, m);
            p = m;
        }
        let i = i as usize;
        pos[i] = order.len() as u32;
        order.push(i);
        for &s in g.succs(i) {
            let s = s as usize;
            waiting[s] -= 1;
            if waiting[s] == 0 {
                let slot = &mut pred_pos[span(s)];
                for (k, &p) in slot.iter_mut().zip(g.preds(s)) {
                    *k = pos[p as usize];
                }
                slot.sort_unstable();
                push(&mut heap, s as u32, &pred_pos);
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
    flow: Flow,
    v: VReg,
    op_pos: &[usize],
    init: &[u64],
    reg_rank: &[u64],
) -> (u64, u64, u64, u64, u64, u64) {
    match flow {
        Flow::Def { src, dist } => (
            0,
            op_pos[src as usize] as u64,
            dist as u64,
            if dist == 1 { init[v.index()] } else { 0 },
            reg_rank[v.index()],
            v.0 as u64,
        ),
        Flow::LiveIn => (1, 0, 0, init[v.index()], reg_rank[v.index()], v.0 as u64),
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
    canonicalize_with(l, &ConstraintGraph::new(l))
}

/// [`canonicalize`] with `l`'s constraint graph already built. `g` may come
/// from any loop whose ops have the same defs, uses, opcodes and memory
/// arrays up to register renaming and commutative operand order (an
/// isomorphic variant before statement permutation, or a [`perturb`]ed
/// copy); the result is then byte-identical to [`canonicalize`]'s.
///
/// [`perturb`]: crate::perturb
pub fn canonicalize_with(l: &Loop, g: &ConstraintGraph) -> Canonical {
    debug_assert_eq!(g, &ConstraintGraph::new(l), "graph of another loop");
    let init = init_words(l);
    let flows = Flows::new(l);
    let commutative: Vec<bool> = l.ops.iter().map(is_commutative).collect();
    let (op_rank, reg_rank) = refine(l, g, &flows, &init, &commutative);
    let order = canonical_order(g, &op_rank);

    let mut op_pos = vec![usize::MAX; l.ops.len()];
    for (p, &i) in order.iter().enumerate() {
        op_pos[i] = p;
    }

    // Per original op: whether its two use slots are emitted swapped (only
    // commutative ops reorder, by a stable sort of their two slot keys).
    let swapped: Vec<bool> = l
        .ops
        .iter()
        .enumerate()
        .map(|(i, op)| {
            commutative[i] && {
                let f = flows.of(i);
                let key = |s: usize| use_key(f[s], op.uses[s], &op_pos, &init, &reg_rank);
                key(1) < key(0)
            }
        })
        .collect();
    let slots = |i: usize| {
        let (n, swap) = (l.ops[i].uses.len(), swapped[i]);
        (0..n).map(move |s| if swap { n - 1 - s } else { s })
    };

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
        for s in slots(i) {
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
                uses: slots(i).map(|s| map(op.uses[s])).collect(),
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
    check_witness_with(a, b, w, &ConstraintGraph::new(a))
}

/// [`check_witness`] with `a`'s constraint graph already built (see
/// [`canonicalize_with`] for which loops share one).
pub fn check_witness_with(
    a: &Loop,
    b: &Loop,
    w: &EquivWitness,
    a_graph: &ConstraintGraph,
) -> Result<(), String> {
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
    let (init_a, init_b) = (init_words(a), init_words(b));
    let (out_a, out_b) = (live_out_mask(a), live_out_mask(b));
    let mut seen_v = vec![false; b.n_vregs()];
    for (v, &m) in w.vreg_map.iter().enumerate() {
        let m = m as usize;
        if m >= b.n_vregs() || std::mem::replace(&mut seen_v[m], true) {
            return Err(format!("vreg map not a bijection at v{v}"));
        }
        if a.vreg_classes[v] != b.vreg_classes[m] {
            return Err(format!("class mismatch at v{v}"));
        }
        if init_a[v] != init_b[m] {
            return Err(format!("live-in value mismatch at v{v}"));
        }
        if out_a[v] != out_b[m] {
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
        let mapped = |s: usize| VReg(w.vreg_map[oa.uses[s].index()]);
        let matches_direct = (0..oa.uses.len()).all(|s| mapped(s) == ob.uses[s]);
        let matches_swapped = is_commutative(oa)
            && oa.uses.len() == 2
            && mapped(0) == ob.uses[1]
            && mapped(1) == ob.uses[0];
        if !matches_direct && !matches_swapped {
            return Err(format!("use wiring mismatch at op{i}"));
        }
    }
    // Ops whose swap could change semantics must keep their relative order,
    // or a use would read a different reaching def (or a cell a different
    // store).
    debug_assert_eq!(a_graph, &ConstraintGraph::new(a), "graph of another loop");
    for i in 0..a.ops.len() {
        let ss = a_graph.succs(i);
        if let Some(&j) = ss.iter().find(|&&j| w.op_map[i] > w.op_map[j as usize]) {
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

    /// The O(n²) pair scan the CSR build replaced: `preds[j]` lists every
    /// `i < j` whose swap with `j` could change semantics.
    fn pair_scan_preds(l: &Loop) -> Vec<Vec<u32>> {
        let conflicts = |a: &Operation, b: &Operation| {
            let reg = a.def.is_some_and(|d| b.defines(d) || b.uses_reg(d))
                || b.def.is_some_and(|d| a.uses_reg(d));
            let mem = match (a.mem, b.mem) {
                (Some(ma), Some(mb)) => {
                    ma.array == mb.array && (a.opcode == Opcode::Store || b.opcode == Opcode::Store)
                }
                _ => false,
            };
            reg || mem
        };
        (0..l.ops.len())
            .map(|j| {
                (0..j as u32)
                    .filter(|&i| conflicts(&l.ops[i as usize], &l.ops[j]))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn csr_graph_matches_the_pair_scan() {
        let loops: Vec<Loop> = vliw_loopgen::corpus()
            .into_iter()
            .chain(vliw_loopgen::pressure_corpus())
            .chain(vliw_loopgen::scaling_slice())
            .flat_map(|l| [crate::variant(&l, 3), l])
            .chain([sample(), load_then_add()])
            .collect();
        for l in &loops {
            let g = ConstraintGraph::new(l);
            let preds = pair_scan_preds(l);
            assert_eq!(g.n_ops(), l.ops.len(), "{}", l.name);
            for (j, want) in preds.iter().enumerate() {
                assert_eq!(g.preds(j), &want[..], "{}: preds of op{j}", l.name);
            }
            for i in 0..l.ops.len() {
                let want: Vec<u32> = (0..l.ops.len() as u32)
                    .filter(|&j| preds[j as usize].contains(&(i as u32)))
                    .collect();
                assert_eq!(g.succs(i), &want[..], "{}: succs of op{i}", l.name);
            }
        }
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
