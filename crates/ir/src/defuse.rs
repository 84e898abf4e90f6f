//! Per-register def and use positions of a loop body.

use crate::looprep::Loop;
use crate::op::OpId;
use crate::reg::VReg;

/// Every register's defining and reading operations, in program order.
///
/// Built by a counting sort of the body's operands by register: one pass
/// counts, one pass scatters, so the whole index costs O(ops + vregs) and
/// four allocations, where asking [`Loop::defs_of`] and [`Loop::uses_of`]
/// for every register costs O(vregs × ops) and two vectors per register.
/// `defs(v)` equals `defs_of(v)` and `uses(v)` equals `uses_of(v)` for
/// every register of the body's register file (an op reading `v` twice
/// lists once); operands outside the register file are not indexed.
#[derive(Debug, Clone)]
pub struct DefUseIndex {
    /// `defs[def_start[v]..def_start[v + 1]]` are `v`'s defining ops.
    def_start: Vec<u32>,
    defs: Vec<OpId>,
    /// `uses[use_start[v]..use_start[v + 1]]` are `v`'s reading ops.
    use_start: Vec<u32>,
    uses: Vec<OpId>,
}

impl DefUseIndex {
    /// Index the defs and uses of `l`.
    pub fn new(l: &Loop) -> Self {
        let n = l.n_vregs();
        let mut def_start = vec![0u32; n + 1];
        let mut use_start = vec![0u32; n + 1];
        for op in &l.ops {
            if let Some(d) = op.def.filter(|d| d.index() < n) {
                def_start[d.index()] += 1;
            }
            for u in op.distinct_uses().filter(|u| u.index() < n) {
                use_start[u.index()] += 1;
            }
        }
        // Running sums turn each count into its register's end offset; the
        // reverse scatter below walks every end back to its start.
        let n_defs = running_sum(&mut def_start);
        let n_uses = running_sum(&mut use_start);
        let mut defs = vec![OpId(0); n_defs];
        let mut uses = vec![OpId(0); n_uses];
        for op in l.ops.iter().rev() {
            if let Some(d) = op.def.filter(|d| d.index() < n) {
                def_start[d.index()] -= 1;
                defs[def_start[d.index()] as usize] = op.id;
            }
            for u in op.distinct_uses().filter(|u| u.index() < n) {
                use_start[u.index()] -= 1;
                uses[use_start[u.index()] as usize] = op.id;
            }
        }
        DefUseIndex {
            def_start,
            defs,
            use_start,
            uses,
        }
    }

    /// Number of (def, register) sites: one per op with an indexed def.
    pub fn n_defs(&self) -> usize {
        self.defs.len()
    }

    /// Number of (use, register) sites: one per op and register it reads.
    pub fn n_uses(&self) -> usize {
        self.uses.len()
    }

    /// The ops defining `v`, in program order (empty outside the file).
    pub fn defs(&self, v: VReg) -> &[OpId] {
        slice(&self.def_start, &self.defs, v)
    }

    /// The ops reading `v`, in program order, each once (empty outside the
    /// file).
    pub fn uses(&self, v: VReg) -> &[OpId] {
        slice(&self.use_start, &self.uses, v)
    }
}

/// Replace `counts[0..n]` (the last slot is spare) by inclusive running
/// sums, set the last slot to the total, and return it.
fn running_sum(counts: &mut [u32]) -> usize {
    let (last, head) = counts.split_last_mut().expect("n + 1 slots");
    let mut acc = 0u32;
    for c in head {
        acc += *c;
        *c = acc;
    }
    *last = acc;
    acc as usize
}

fn slice<'a>(start: &[u32], ops: &'a [OpId], v: VReg) -> &'a [OpId] {
    match (start.get(v.index()), start.get(v.index() + 1)) {
        (Some(&a), Some(&b)) => &ops[a as usize..b as usize],
        _ => &[],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::LoopBuilder;
    use crate::RegClass;

    #[test]
    fn repeated_operand_is_one_use_and_unknown_registers_are_skipped() {
        let mut b = LoopBuilder::new("sq");
        let x = b.array("x", RegClass::Float, 16);
        let v = b.load(x, 0, 1);
        let sq = b.fmul(v, v);
        b.store(x, 0, 1, sq);
        let mut l = b.finish(8);
        let du = DefUseIndex::new(&l);
        assert_eq!(du.uses(v), &[OpId(1)]);
        assert_eq!(du.defs(sq), &[OpId(1)]);

        let dangling = VReg(l.n_vregs() as u32 + 4);
        l.ops[1].uses[1] = dangling;
        let du = DefUseIndex::new(&l);
        assert_eq!(du.uses(v), &[OpId(1)]);
        assert!(du.uses(dangling).is_empty());
        assert!(du.defs(dangling).is_empty());
    }
}
