//! Alpha-canonicalization lints (`NRM001`–`NRM003`): self-checks over the
//! normal form that `vliw-normal` computes and that the serve cache keys on.
//!
//! * `NRM001` — the canonical form must be a projection: canonicalizing a
//!   canonical body must reproduce it (body and hash) exactly.
//! * `NRM002` — the structural hash and the equivalence checker must agree:
//!   generated isomorphic variants keep the hash and yield a checkable
//!   witness; a genuine perturbation must change the hash.
//! * `NRM003` — canonicalization must preserve semantics under the
//!   `vliw-sim` scalar reference: memory compared array-by-array (array
//!   order is semantic — `init_memory` seeds by index), live-outs compared
//!   through the witness renaming. Trip-count proportional, so like the
//!   dynamic oracle it is opt-in: the driver's `simulate` path and
//!   `vliw-lint --canon` call [`canonical_semantics_diags`] explicitly.
//!
//! `NRM001` and `NRM002` are one audit, [`normal_form_audit`], shared by
//! [`NormalFormPass`] and `vliw-lint --canon` (which passes its own seeds).

use crate::artifacts::Artifacts;
use crate::diag::{Diagnostic, LintCode, Report, SourceLoc, Stage};
use vliw_ir::Loop;
use vliw_normal::{
    canonicalize, canonicalize_with, check_witness_with, perturb, variant_with, Canonical,
    ConstraintGraph,
};

/// Seeds for the `NRM002` variant probe. Kept tiny: the pass runs inside
/// every first-stage gate, so this is a smoke of the engine's invariants,
/// not the corpus-scale acceptance test.
const VARIANT_SEEDS: [u64; 2] = [1, 97];

/// Seed for the `NRM002` perturbation probe.
const PERTURB_SEED: u64 = 5;

/// Static canonicalization self-checks, registered in the default
/// [`Analyzer`](crate::passes::Analyzer) registry. Runs only at the first
/// gate (before clustering artifacts exist) so one pipeline run lints the
/// normal form exactly once.
pub struct NormalFormPass;

impl crate::passes::LintPass for NormalFormPass {
    fn name(&self) -> &'static str {
        "normal-form"
    }

    fn run(&self, ctx: &Artifacts<'_>, report: &mut Report) {
        if ctx.clustered_body.is_some() {
            return;
        }
        // The canonicalizer assumes well-formed IR; on a broken body the
        // IR pass already reports the real problem, so stand down.
        if vliw_ir::verify_loop(ctx.body).is_err() {
            return;
        }
        let (_, diags) = normal_form_audit(ctx.body, &VARIANT_SEEDS, PERTURB_SEED);
        report.diags.extend(diags);
    }
}

/// The `NRM001`/`NRM002` audit of one well-formed loop: the normal form
/// must be a fixed point of canonicalization, each seeded isomorphic
/// variant must keep the hash and yield a witness that
/// [`check_witness`](vliw_normal::check_witness) accepts, and the seeded
/// perturbation must change the hash.
///
/// Canonicalizes five times for two variant seeds: the body, its normal
/// form, each variant once (hash and witness both come from that one
/// [`Canonical`]) and the perturbation. The body's constraint graph is
/// built once: renaming, commutative swaps and the perturbation's value
/// nudges leave it unchanged, so the body's and the perturbation's
/// canonicalization, each variant's statement permutation and each witness
/// check share it. Returns the body's normal form, for callers that group
/// loops by hash, together with the findings.
pub fn normal_form_audit(
    body: &Loop,
    variant_seeds: &[u64],
    perturb_seed: u64,
) -> (Canonical, Vec<Diagnostic>) {
    let mut diags = Vec::new();
    let mut push = |code: LintCode, msg: String| {
        diags.push(Diagnostic::new(
            code,
            Stage::Normal,
            SourceLoc::default(),
            msg,
        ))
    };
    let graph = ConstraintGraph::new(body);
    let c = canonicalize_with(body, &graph);

    // NRM001: idempotence, body and hash.
    let again = canonicalize(&c.body);
    if again.body != c.body || again.hash != c.hash {
        push(
            LintCode::Nrm001,
            format!(
                "canonicalization is not idempotent: re-canonicalizing the normal form \
                 gives hash {} (expected {})",
                again.hash.hex(),
                c.hash.hex()
            ),
        );
    }

    // NRM002: hash/equivalence agreement on isomorphic variants and on a
    // genuine perturbation.
    for &seed in variant_seeds {
        let v = variant_with(body, seed, &graph);
        let cv = canonicalize(&v);
        if cv.hash != c.hash {
            push(
                LintCode::Nrm002,
                format!(
                    "isomorphic variant (seed {seed}) hashes to {} instead of {}",
                    cv.hash.hex(),
                    c.hash.hex()
                ),
            );
            continue;
        }
        match c.equivalence(&cv) {
            None => push(
                LintCode::Nrm002,
                format!(
                    "variant (seed {seed}) shares hash {} but the equivalence checker \
                     finds no witness",
                    c.hash.hex()
                ),
            ),
            Some(w) => {
                if let Err(e) = check_witness_with(body, &v, &w, &graph) {
                    push(
                        LintCode::Nrm002,
                        format!("variant (seed {seed}) witness fails verification: {e}"),
                    );
                }
            }
        }
    }
    if let Some(p) = perturb(body, perturb_seed) {
        if canonicalize_with(&p, &graph).hash == c.hash {
            push(
                LintCode::Nrm002,
                format!(
                    "perturbed loop still hashes to {} — the hash is blind to a \
                     semantic change",
                    c.hash.hex()
                ),
            );
        }
    }
    (c, diags)
}

/// `NRM003`: run the scalar reference over `body` and its canonical form
/// and report any bit-level divergence. Memory is compared index-by-index
/// (canonicalization preserves array order and length); live-outs are
/// located through the witness renaming. Cost is proportional to the trip
/// count, so callers opt in (driver `simulate` path, `vliw-lint --canon`).
pub fn canonical_semantics_diags(body: &Loop) -> Vec<Diagnostic> {
    use vliw_sim::reference::run_reference;

    let c = canonicalize(body);
    let orig = run_reference(body);
    let canon = run_reference(&c.body);
    let mut out = Vec::new();
    let diag =
        |msg: String, loc: SourceLoc| Diagnostic::new(LintCode::Nrm003, Stage::Normal, loc, msg);

    if orig.memory.len() != canon.memory.len() {
        out.push(diag(
            format!(
                "canonical form has {} arrays, original has {}",
                canon.memory.len(),
                orig.memory.len()
            ),
            SourceLoc::default(),
        ));
        return out;
    }
    for (k, (a, b)) in orig.memory.iter().zip(&canon.memory).enumerate() {
        if a.len() != b.len() {
            out.push(diag(
                format!("array {k} length changed: {} vs {}", a.len(), b.len()),
                SourceLoc::default(),
            ));
            continue;
        }
        if let Some(i) = a.iter().zip(b).position(|(x, y)| !x.bits_eq(*y)) {
            out.push(diag(
                format!(
                    "memory diverges after canonicalization: array {k}[{i}] is {:?} in the \
                     original, {:?} in the normal form",
                    a[i], b[i]
                ),
                SourceLoc::default().at_cycle(i as i64),
            ));
        }
    }
    for (p, &v) in body.live_out.iter().enumerate() {
        let cv = vliw_ir::VReg(c.witness.vreg_to_canon[v.index()]);
        let Some(cp) = c.body.live_out.iter().position(|&r| r == cv) else {
            out.push(diag(
                format!("live-out {v:?} has no image in the canonical form"),
                SourceLoc::vreg(v),
            ));
            continue;
        };
        if !orig.live_out[p].bits_eq(canon.live_out[cp]) {
            out.push(diag(
                format!(
                    "live-out {v:?} diverges after canonicalization: {:?} vs {:?}",
                    orig.live_out[p], canon.live_out[cp]
                ),
                SourceLoc::vreg(v),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::LintPass;
    use vliw_machine::MachineDesc;

    fn first_gate_report(l: &Loop) -> Report {
        let machine = MachineDesc::embedded(4, 4);
        let cfg = vliw_core::PartitionConfig::default();
        let ctx = Artifacts::new(l, &machine, &cfg);
        let mut r = Report::default();
        NormalFormPass.run(&ctx, &mut r);
        r
    }

    #[test]
    fn corpus_is_clean_under_normal_form_lints() {
        for l in vliw_loopgen::corpus().iter().take(24) {
            let r = first_gate_report(l);
            assert!(!r.has_errors(), "{}: {}", l.name, r.render_text());
            assert!(canonical_semantics_diags(l).is_empty(), "{}", l.name);
        }
    }

    #[test]
    fn pass_skips_later_gates() {
        let corpus = vliw_loopgen::corpus();
        let l = &corpus[0];
        let machine = MachineDesc::embedded(4, 4);
        let cfg = vliw_core::PartitionConfig::default();
        let mut ctx = Artifacts::new(l, &machine, &cfg);
        let clustered = l.clone();
        ctx.clustered_body = Some(&clustered);
        let mut r = Report::default();
        NormalFormPass.run(&ctx, &mut r);
        assert!(r.diags.is_empty());
    }
}
