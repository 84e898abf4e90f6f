//! Deterministic isomorphic-variant generators.
//!
//! Each generator applies one semantics-invisible transformation with a
//! seeded xorshift PRNG, so the same `(loop, seed)` pair always yields the
//! same variant. They are the adversaries the canonicalizer is tested
//! against: `canonicalize(variant(l, seed))` must equal `canonicalize(l)`
//! for every seed, and [`perturb`] produces a *non*-equivalent mutation for
//! the negative direction.

use crate::canon::{is_commutative, ConstraintGraph};
use vliw_ir::{InitVal, Loop, OpId, Opcode, Operation, VReg};

/// Small deterministic PRNG (xorshift64*), seeded per call site.
pub(crate) struct Rng(u64);

impl Rng {
    pub(crate) fn new(seed: u64) -> Rng {
        // Avoid the all-zero fixed point.
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    pub(crate) fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    pub(crate) fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    pub(crate) fn flip(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// [`shuffle`] two index-aligned slices with one permutation.
fn shuffle_pairs<T, U>(a: &mut [T], b: &mut [U], rng: &mut Rng) {
    for i in (1..a.len()).rev() {
        let j = rng.below(i + 1);
        a.swap(i, j);
        b.swap(i, j);
    }
}

fn rename_vregs_in_place(l: &mut Loop, seed: u64) {
    let mut rng = Rng::new(seed ^ 0x7265_6e61);
    let n = l.n_vregs();
    let mut perm: Vec<u32> = (0..n as u32).collect();
    shuffle(&mut perm, &mut rng);
    let map = |v: VReg| VReg(perm[v.index()]);

    let mut classes = vec![vliw_ir::RegClass::Int; n];
    for (orig, &new) in perm.iter().enumerate() {
        classes[new as usize] = l.vreg_classes[orig];
    }
    l.vreg_classes = classes;
    for op in &mut l.ops {
        op.def = op.def.map(map);
        for u in &mut op.uses {
            *u = map(*u);
        }
    }
    for v in l.live_in.iter_mut().chain(&mut l.live_out) {
        *v = map(*v);
    }
    shuffle_pairs(&mut l.live_in, &mut l.live_in_vals, &mut rng);
    shuffle(&mut l.live_out, &mut rng);
}

fn rename_arrays_in_place(l: &mut Loop, seed: u64) {
    l.name = format!("variant_{seed:x}");
    for (k, a) in l.arrays.iter_mut().enumerate() {
        a.name = format!("arr{k}_{seed:x}");
    }
}

fn swap_commutative_in_place(l: &mut Loop, seed: u64) {
    let mut rng = Rng::new(seed ^ 0x7377_6170);
    for op in &mut l.ops {
        if is_commutative(op) && rng.flip() {
            op.uses.swap(0, 1);
        }
    }
}

/// The ready list stays in ascending index order: the seeded draw picks by
/// position in it, so its order is part of the output. `g` is `l`'s
/// constraint graph.
fn permute_statements_in_place(l: &mut Loop, seed: u64, g: &ConstraintGraph) {
    let mut rng = Rng::new(seed ^ 0x7065_726d);
    let n = l.ops.len();
    let mut waiting: Vec<usize> = (0..n).map(|i| g.preds(i).len()).collect();
    let mut ready: Vec<usize> = (0..n).filter(|&i| waiting[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while !ready.is_empty() {
        let pick = ready.remove(rng.below(ready.len()));
        order.push(pick);
        for &s in g.succs(pick) {
            let s = s as usize;
            waiting[s] -= 1;
            if waiting[s] == 0 {
                let at = ready.binary_search(&s).unwrap_err();
                ready.insert(at, s);
            }
        }
    }
    let mut old: Vec<Option<Operation>> =
        std::mem::take(&mut l.ops).into_iter().map(Some).collect();
    l.ops = order
        .iter()
        .enumerate()
        .map(|(p, &i)| {
            let mut op = old[i].take().expect("each op is placed once");
            op.id = OpId(p as u32);
            op
        })
        .collect();
}

/// Apply a random permutation to the virtual-register numbering (classes,
/// operands and liveness move with their registers) and shuffle the
/// live-in/live-out list orders, which are presentational.
pub fn rename_vregs(l: &Loop, seed: u64) -> Loop {
    let mut out = l.clone();
    rename_vregs_in_place(&mut out, seed);
    out
}

/// Rename the loop and its arrays (names only — array order is semantic and
/// untouched).
pub fn rename_arrays(l: &Loop, seed: u64) -> Loop {
    let mut out = l.clone();
    rename_arrays_in_place(&mut out, seed);
    out
}

/// Swap the operands of each commutative operation with probability ½.
pub fn swap_commutative(l: &Loop, seed: u64) -> Loop {
    let mut out = l.clone();
    swap_commutative_in_place(&mut out, seed);
    out
}

/// Reorder the body along a random *legal* topological order of the
/// order-constraint graph (dependence-respecting statement permutation),
/// renumbering op ids densely.
pub fn permute_statements(l: &Loop, seed: u64) -> Loop {
    let mut out = l.clone();
    permute_statements_in_place(&mut out, seed, &ConstraintGraph::new(l));
    out
}

/// Compose every invisible transformation: rename registers and names,
/// swap commutative operands, permute statements — in place on one clone.
pub fn variant(l: &Loop, seed: u64) -> Loop {
    variant_with(l, seed, &ConstraintGraph::new(l))
}

/// [`variant`] with `l`'s constraint graph already built. Renaming and
/// commutative swaps leave the graph unchanged, so the statement
/// permutation runs on `g` as given.
pub fn variant_with(l: &Loop, seed: u64, g: &ConstraintGraph) -> Loop {
    debug_assert_eq!(g, &ConstraintGraph::new(l), "graph of another loop");
    let mut out = l.clone();
    rename_vregs_in_place(&mut out, seed);
    rename_arrays_in_place(&mut out, seed);
    swap_commutative_in_place(&mut out, seed.wrapping_add(1));
    permute_statements_in_place(&mut out, seed.wrapping_add(2), g);
    out
}

/// A deliberately *non*-equivalent mutation of `l`, for negative tests:
/// nudges one semantic attribute (an immediate, a memory offset, the trip
/// count, or an ALU kind) chosen by the seed. Returns `None` for bodies
/// with nothing safely mutable.
pub fn perturb(l: &Loop, seed: u64) -> Option<Loop> {
    let mut rng = Rng::new(seed ^ 0x6d75_7461);
    let mut out = l.clone();
    // Candidate mutations, tried in a seed-dependent rotation.
    let mut kinds: Vec<u32> = (0..4).collect();
    shuffle(&mut kinds, &mut rng);
    for kind in kinds {
        match kind {
            0 => {
                // Flip an ALU add to sub: changes the computed value.
                if let Some(op) = out.ops.iter_mut().find(|o| {
                    matches!(o.opcode, Opcode::IntAlu | Opcode::FAlu)
                        && matches!(o.alu, vliw_ir::AluKind::Add)
                        && o.uses.len() == 2
                }) {
                    op.alu = vliw_ir::AluKind::Sub;
                    return Some(out);
                }
            }
            1 => {
                // Perturb a load-immediate payload.
                if let Some(op) = out
                    .ops
                    .iter_mut()
                    .find(|o| matches!(o.opcode, Opcode::LoadImmInt))
                {
                    op.imm = Some(op.imm.unwrap_or(0) + 1);
                    return Some(out);
                }
                if let Some(op) = out
                    .ops
                    .iter_mut()
                    .find(|o| matches!(o.opcode, Opcode::LoadImmFloat))
                {
                    let f = f64::from_bits(op.fimm_bits.unwrap_or(0)) + 1.0;
                    op.fimm_bits = Some(f.to_bits());
                    return Some(out);
                }
            }
            2 => {
                // Change a live-in initial value.
                if !out.live_in_vals.is_empty() {
                    let i = rng.below(out.live_in_vals.len());
                    out.live_in_vals[i] = match out.live_in_vals[i] {
                        InitVal::Int(v) => InitVal::Int(v + 1),
                        InitVal::Float(b) => InitVal::float(f64::from_bits(b) + 1.0),
                    };
                    return Some(out);
                }
            }
            _ => {
                // Trip count is always mutable (observable through memory
                // and live-out state whenever the body does anything).
                if !out.ops.is_empty() {
                    out.trip_count += 1;
                    return Some(out);
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canon::{alpha_equivalent, canonicalize, structural_hash};
    use vliw_ir::{verify_loop, LoopBuilder, RegClass};

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
    fn variants_verify_and_stay_equivalent() {
        let l = sample();
        let h = structural_hash(&l);
        for seed in 0..24u64 {
            let v = variant(&l, seed);
            verify_loop(&v).expect("variant verifies");
            assert_eq!(structural_hash(&v), h, "seed {seed}");
            assert!(alpha_equivalent(&l, &v).is_some(), "seed {seed}");
        }
    }

    #[test]
    fn variants_are_deterministic() {
        let l = sample();
        assert_eq!(variant(&l, 7), variant(&l, 7));
    }

    #[test]
    fn perturbation_breaks_equivalence() {
        let l = sample();
        for seed in 0..8u64 {
            let p = perturb(&l, seed).expect("sample is mutable");
            assert_ne!(
                structural_hash(&p),
                structural_hash(&l),
                "seed {seed} perturbation must change the hash"
            );
            assert!(alpha_equivalent(&l, &p).is_none());
        }
    }

    #[test]
    fn statement_permutation_preserves_canonical_form() {
        let l = sample();
        let c = canonicalize(&l);
        for seed in 0..8u64 {
            let p = permute_statements(&l, seed);
            assert_eq!(canonicalize(&p).body, c.body);
        }
    }
}
