//! Corpus-scale validation of the canonicalizer: the acceptance criterion
//! for the alpha-equivalence engine.
//!
//! Over the full loopgen corpus and hundreds of generated isomorphic
//! variants (register renaming, commutative swap, legal statement
//! permutation):
//!
//! * canonical hashes collide exactly within equivalence classes and never
//!   across them (any same-hash pair must be provably alpha-equivalent);
//! * canonicalization is idempotent;
//! * the normal form is semantics-preserving under the `vliw-sim`
//!   reference interpreter, with live-outs compared through the witness;
//! * perturbed (genuinely different) loops never collide with their
//!   originals.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::BTreeMap;
use vliw_ir::{format_loop_full, verify_loop, Loop, VReg};
use vliw_normal::{
    alpha_equivalent, canonicalize, check_witness, perturb, structural_hash, variant,
};
use vliw_sim::reference::run_reference;

fn corpus() -> Vec<Loop> {
    vliw_loopgen::corpus()
}

/// FNV-1a over a stream of byte strings, each terminated by a 0xff byte
/// (which never occurs in UTF-8) so `"ab","c"` and `"a","bc"` differ.
/// Independent of the crate's own hasher, so the pin below also catches a
/// change to `Hasher128`.
struct Fnv(u64);

impl Fnv {
    fn feed(&mut self, s: &str) {
        for &b in s.as_bytes().iter().chain(&[0xff]) {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Golden pin of the normal form. Every byte the serve tier persists or
/// keys on — canonical text, structural hash, witness — plus the variant
/// and perturbation generators' output, over `corpus()` ∪
/// `pressure_corpus()` ∪ `scaling_slice()`, folded into one digest.
///
/// A change that moves this digest changes semantic cache keys and the
/// canonical-text alias entries stored on disk: it must bump
/// `CACHE_FORMAT_VERSION` in `vliw-serve` in the same change and then
/// re-pin the digest. Performance work on the canonicalizer must leave it
/// untouched.
#[test]
fn normal_form_output_is_pinned() {
    let loops: Vec<Loop> = corpus()
        .into_iter()
        .chain(vliw_loopgen::pressure_corpus())
        .chain(vliw_loopgen::scaling_slice())
        .collect();
    let mut d = Fnv(0xcbf2_9ce4_8422_2325);
    for l in &loops {
        let c = canonicalize(l);
        d.feed(&l.name);
        d.feed(&c.hash.hex());
        d.feed(&format_loop_full(&c.body));
        d.feed(&format!("{:?}", c.witness));
        for seed in [1u64, 97] {
            d.feed(&format_loop_full(&variant(l, seed)));
        }
        match perturb(l, 5) {
            Some(p) => d.feed(&structural_hash(&p).hex()),
            None => d.feed("none"),
        }
    }
    assert_eq!(loops.len(), 397, "pinned loop set changed size");
    assert_eq!(
        format!("{:016x}", d.0),
        "ab3d8f9b297453d0",
        "normal-form output drifted from the pin"
    );
}

/// Reference-run `l` and its canonical form; compare memory directly
/// (array order is preserved) and live-outs through the witness renaming.
fn assert_semantics_preserved(l: &Loop) {
    let c = canonicalize(l);
    verify_loop(&c.body).unwrap_or_else(|e| panic!("{}: canonical body invalid: {e}", l.name));
    let orig = run_reference(l);
    let canon = run_reference(&c.body);
    assert_eq!(orig.memory.len(), canon.memory.len(), "{}", l.name);
    for (k, (a, b)) in orig.memory.iter().zip(&canon.memory).enumerate() {
        assert_eq!(a.len(), b.len(), "{}: array {k} length", l.name);
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(x.bits_eq(*y), "{}: array {k}[{i}]: {x:?} vs {y:?}", l.name);
        }
    }
    for (p, &v) in l.live_out.iter().enumerate() {
        let cv = VReg(c.witness.vreg_to_canon[v.index()]);
        let cp = c
            .body
            .live_out
            .iter()
            .position(|&r| r == cv)
            .unwrap_or_else(|| panic!("{}: live-out {v:?} missing from canonical form", l.name));
        assert!(
            orig.live_out[p].bits_eq(canon.live_out[cp]),
            "{}: live-out {v:?} differs",
            l.name
        );
    }
}

#[test]
fn corpus_canonicalizes_idempotently_and_semantics_hold() {
    for l in corpus() {
        let c = canonicalize(&l);
        let again = canonicalize(&c.body);
        assert_eq!(
            c.body, again.body,
            "{}: canonicalize is not a projection",
            l.name
        );
        assert_eq!(c.hash, again.hash, "{}", l.name);
        assert_semantics_preserved(&l);
    }
}

/// ≥200 isomorphic variants across the corpus: every variant must land on
/// its original's hash, and any cross-loop hash collision must be a real
/// equivalence (checked by witness, both directions).
#[test]
fn variant_corpus_hashes_collide_exactly_within_classes() {
    let loops = corpus();
    let mut by_hash: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    let mut n_variants = 0usize;
    for (idx, l) in loops.iter().enumerate() {
        let h = structural_hash(l);
        by_hash.entry(h.hex()).or_default().push(idx);
        for seed in 0..3u64 {
            let v = variant(l, seed.wrapping_add(idx as u64 * 31));
            verify_loop(&v).unwrap_or_else(|e| panic!("{}: variant invalid: {e}", l.name));
            assert_eq!(
                structural_hash(&v),
                h,
                "{}: variant seed {seed} changed the canonical hash",
                l.name
            );
            n_variants += 1;
        }
    }
    assert!(
        n_variants >= 200,
        "acceptance requires ≥200 variants, generated {n_variants}"
    );
    // Cross-class soundness: same hash ⇒ provable equivalence with a
    // checkable witness.
    for indices in by_hash.values().filter(|v| v.len() > 1) {
        for w in indices.windows(2) {
            let (a, b) = (&loops[w[0]], &loops[w[1]]);
            let wit = alpha_equivalent(a, b).unwrap_or_else(|| {
                panic!(
                    "hash collision between non-equivalent {} and {}",
                    a.name, b.name
                )
            });
            check_witness(a, b, &wit)
                .unwrap_or_else(|e| panic!("{} ≅ {}: bad witness: {e}", a.name, b.name));
        }
    }
}

#[test]
fn perturbed_loops_never_collide_with_their_original() {
    for (idx, l) in corpus().iter().enumerate() {
        let Some(p) = perturb(l, idx as u64) else {
            continue;
        };
        assert_ne!(
            structural_hash(&p),
            structural_hash(l),
            "{}: perturbation must change the hash",
            l.name
        );
        assert!(alpha_equivalent(l, &p).is_none(), "{}", l.name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random seeds over a rotating corpus slice: variants keep the hash,
    /// canonical forms match exactly, and variant semantics survive the
    /// round trip through the normal form.
    #[test]
    fn random_variants_share_the_canonical_form(seed in 0u64..1_000_000, pick in 0usize..1_000) {
        let loops = corpus();
        let l = &loops[pick % loops.len()];
        let v = variant(l, seed);
        let cl = canonicalize(l);
        let cv = canonicalize(&v);
        prop_assert_eq!(&cl.body, &cv.body);
        prop_assert_eq!(cl.hash, cv.hash);
        let wit = alpha_equivalent(l, &v)
            .ok_or_else(|| TestCaseError::fail(format!("{}: variant not equivalent", l.name)))?;
        check_witness(l, &v, &wit)
            .map_err(|e| TestCaseError::fail(format!("{}: {e}", l.name)))?;
        assert_semantics_preserved(&v);
    }
}
