//! Seeded inputs for every workload.
//!
//! The compile cost of a generated loop is set mostly by its family and
//! unroll factor; the trip count adds a little through array extents. A
//! plain `corpus_with` draw therefore changes the *work* from seed to seed
//! through the multinomial family counts — on the solver slice by tens of
//! percent, since a handful of dot loops dominate it. So the corpus here is
//! stratified: the (family, unroll) counts are the default spec's weights,
//! rounded once, and the seed drives `corpus_with` within each stratum. Every
//! seed then asks for the same work on fresh loops. Loops within a stratum
//! get distinct trip counts, so no two inputs are alpha-equivalent and every
//! cache outcome in serve-mixed is decided by the request class alone.

use crate::util::derive;
use vliw_ir::Loop;
use vliw_loopgen::{corpus_with, pressure_corpus_with, CorpusSpec, Family, PressureSpec};

/// Loops in the paper corpus.
pub const CORPUS_LOOPS: usize = vliw_loopgen::CORPUS_SIZE;
/// Trip counts of corpus loops (the default spec's range).
pub const CORPUS_TRIPS: (u32, u32) = (32, 80);

/// The (family, unroll) strata of `n` loops under the default mix, by the
/// largest-remainder rounding of each cell's weight share.
fn strata(n: usize) -> Vec<(Family, usize, usize)> {
    let spec = CorpusSpec::default();
    let cells: Vec<(Family, usize, f64)> = spec
        .mix
        .iter()
        .flat_map(|(f, w, us)| {
            us.iter()
                .map(move |&u| (*f, u, *w as f64 / us.len() as f64))
        })
        .collect();
    let total: f64 = cells.iter().map(|c| c.2).sum();
    let quotas: Vec<f64> = cells.iter().map(|c| n as f64 * c.2 / total).collect();
    let mut counts: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
    let mut order: Vec<usize> = (0..cells.len()).collect();
    order.sort_by(|&a, &b| {
        let (fa, fb) = (quotas[a].fract(), quotas[b].fract());
        fb.total_cmp(&fa).then(a.cmp(&b))
    });
    let short = n - counts.iter().sum::<usize>();
    for &i in order.iter().take(short) {
        counts[i] += 1;
    }
    cells
        .iter()
        .zip(counts)
        .map(|(&(f, u, _), k)| (f, u, k))
        .collect()
}

/// `k` loops of one stratum with distinct trip counts, drawn by
/// `corpus_with` from `trips` (oversampled, first distinct trips kept). A
/// stratum that needs more loops than the range has trips draws the rest
/// from the next range up.
fn stratum(family: Family, unroll: usize, k: usize, seed: u64, trips: (u32, u32)) -> Vec<Loop> {
    let span = trips.1 - trips.0 + 1;
    let here = k.min(span as usize);
    let mut n = 4 * here + 8;
    let mut out = loop {
        let drawn = corpus_with(&CorpusSpec {
            n,
            seed,
            mix: vec![(family, 1, vec![unroll])],
            trip_range: trips,
        });
        let mut seen = std::collections::BTreeSet::new();
        let out: Vec<Loop> = drawn
            .into_iter()
            .filter(|l| seen.insert(l.trip_count))
            .take(here)
            .collect();
        if out.len() == here {
            break out;
        }
        n *= 2;
    };
    if k > here {
        let next = (trips.1 + 1, trips.1 + span);
        out.extend(stratum(
            family,
            unroll,
            k - here,
            crate::util::mix(seed),
            next,
        ));
    }
    out
}

/// The stratified `n`-loop corpus for `seed`, trip counts in `trips`, one
/// group of loops per (family, unroll) stratum.
pub fn corpus_strata(seed: u64, n: usize, trips: (u32, u32)) -> Vec<Vec<Loop>> {
    strata(n)
        .into_iter()
        .filter(|&(_, _, k)| k > 0)
        .map(|(f, u, k)| {
            let s = derive(seed, &format!("corpus/{}/{u}", f.name()));
            stratum(f, u, k, s, trips)
        })
        .collect()
}

/// The stratified `n`-loop corpus for `seed`, trip counts in `trips`.
pub fn corpus(seed: u64, n: usize, trips: (u32, u32)) -> Vec<Loop> {
    corpus_strata(seed, n, trips).concat()
}

/// Loops of the pressure slice per vreg count (13..=24).
pub const PRESSURE_PER_VREGS: usize = 2;
/// Size of the stratified corpus the solver slice is drawn from: half the
/// paper corpus, with the same class proportions. A solver pass is then a
/// few seconds, so a run holds enough passes for per-op minima to see past
/// host slowdowns.
pub const SOLVER_CORPUS_LOOPS: usize = CORPUS_LOOPS / 2;

/// The stratified pressure corpus: `PRESSURE_PER_VREGS` loops of each vreg
/// count in 13..=24, trip counts drawn by `pressure_corpus_with`.
pub fn pressure(seed: u64, per_count: usize, trips: (u32, u32)) -> Vec<Loop> {
    (13..=24)
        .flat_map(|v| {
            pressure_corpus_with(&PressureSpec {
                n: per_count,
                seed: derive(seed, &format!("pressure/{v}")),
                vreg_range: (v, v),
                trip_range: trips,
                ..PressureSpec::default()
            })
        })
        .collect()
}

/// The solver slice: the draws of a half-size corpus with at most 24 vregs
/// (the ≤12-vreg gap slice and the corpus part of the 13–24 scaling slice)
/// plus the pressure corpus.
pub fn solver_slice(seed: u64) -> Vec<Loop> {
    let mut out: Vec<Loop> = corpus(seed, SOLVER_CORPUS_LOOPS, CORPUS_TRIPS)
        .into_iter()
        .filter(|l| l.n_vregs() <= 24)
        .collect();
    out.extend(pressure(seed, PRESSURE_PER_VREGS, (32, 64)));
    out
}
