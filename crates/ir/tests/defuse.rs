//! The def/use index against the per-register scans it replaces.

use vliw_ir::{DefUseIndex, Loop, VReg};

#[test]
fn index_matches_the_per_register_scans() {
    let loops: Vec<Loop> = vliw_loopgen::corpus()
        .into_iter()
        .chain(vliw_loopgen::pressure_corpus())
        .collect();
    for l in &loops {
        let du = DefUseIndex::new(l);
        for v in (0..l.n_vregs() as u32 + 2).map(VReg) {
            assert_eq!(du.defs(v), &l.defs_of(v)[..], "{}: defs of {v}", l.name);
            assert_eq!(du.uses(v), &l.uses_of(v)[..], "{}: uses of {v}", l.name);
        }
    }
}
