//! # vliw-bench — shared helpers for the Criterion benchmark suite
//!
//! One bench target exists per table/figure of the paper (see
//! `benches/`): each prints the reproduced rows once (so `cargo bench`
//! output doubles as the reproduction record) and then measures the time to
//! regenerate them. The hot kernels (DDG construction, MinII, IMS, RCG
//! build, colouring, simulation) are timed on representative loops by the
//! `bench_scheduler` binary, into `BENCH_scheduler.json`.

#![warn(missing_docs)]

use vliw_ir::Loop;

/// The full deterministic 211-loop corpus.
pub fn full_corpus() -> Vec<Loop> {
    vliw_loopgen::corpus()
}

/// A deterministic slice of the corpus for per-iteration measurement.
pub fn corpus_slice(n: usize) -> Vec<Loop> {
    let mut c = vliw_loopgen::corpus();
    c.truncate(n);
    c
}

/// A representative high-ILP loop (daxpy unrolled 8×, 40 ops).
pub fn rep_ilp_loop() -> Loop {
    vliw_loopgen::Family::Daxpy.build(0, 8, 64)
}

/// A representative recurrence-bound loop.
pub fn rep_recurrence_loop() -> Loop {
    vliw_loopgen::Family::Rec1.build(0, 4, 64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_are_deterministic() {
        assert_eq!(full_corpus().len(), 211);
        assert_eq!(corpus_slice(10).len(), 10);
        assert_eq!(rep_ilp_loop().n_ops(), 40);
        assert!(!rep_recurrence_loop().carried_regs().is_empty());
    }
}
