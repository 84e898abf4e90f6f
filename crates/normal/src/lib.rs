//! # vliw-normal — alpha-canonicalization of loop bodies
//!
//! The serve tier keys its content cache on canonical *text*, so two loops
//! that differ only in virtual-register numbering, commutative-operand
//! order, or (dependence-respecting) statement order never share a cache
//! entry. This crate closes that gap with a *static* equivalence engine:
//!
//! * [`canonicalize`] — rewrite a [`Loop`](vliw_ir::Loop) into a deterministic
//!   **alpha-normal form**: statements in a canonical order chosen among the
//!   dependence-legal permutations, commutative operands sorted
//!   structurally, virtual registers densely renamed from the canonical
//!   trace, array and loop names normalised. Returns the normal form, a
//!   [`Witness`] renaming (both directions), and a Merkle-style
//!   [`StructuralHash`] over the normal form.
//! * [`alpha_equivalent`] — decide whether two loops are isomorphic (equal
//!   normal forms) and return the witness mapping one onto the other;
//!   [`Canonical::equivalence`] does the same for two normal forms already
//!   computed.
//! * [`variants`] — deterministic generators for renamed /
//!   commutative-swapped / statement-permuted variants, used by the lint
//!   passes, the proptest corpus, and `bench_serve`'s variant phase.
//!
//! What the normal form is allowed to change is exactly what the semantics
//! (the `vliw-sim` reference interpreter) cannot observe:
//!
//! * virtual-register numbers (renamed densely in first-mention order),
//! * the two operands of a commutative operation (`falu +`/`*`, `ialu`
//!   `+`/`*` in register form, `fmul`, `imul` — mirroring `eval_op`),
//! * the relative order of two statements with no dependence between them
//!   (no shared register in a def/def, def/use or use/def pair; no shared
//!   array where either access is a store),
//! * the loop name, array *names* (array order is semantic: the simulator
//!   seeds array contents by index) and the order of the live-in/live-out
//!   lists.
//!
//! Everything else — opcodes, immediates, memory offsets and strides, trip
//! count, nesting depth, live-in initial values, the live-out *set* — is
//! preserved verbatim and feeds the hash.
//!
//! Equivalence is decided by equality of normal forms, so false positives
//! are impossible. False negatives (two isomorphic loops with different
//! normal forms) are theoretically possible when colour refinement leaves a
//! non-automorphic tie; the cost is a missed cache hit, never a wrong
//! result, and the proptest corpus keeps the generators honest.

#![warn(missing_docs)]

pub mod canon;
pub mod hash;
pub mod variants;

pub use canon::{
    alpha_equivalent, canonicalize, check_witness, is_commutative, structural_hash, Canonical,
    EquivWitness, Witness, CANONICAL_LOOP_NAME,
};
pub use hash::{Hasher128, StructuralHash};
pub use variants::{
    permute_statements, perturb, rename_arrays, rename_vregs, swap_commutative, variant,
};
